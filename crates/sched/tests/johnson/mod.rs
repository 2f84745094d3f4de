//! Johnson's elementary-circuit enumeration: the test oracle for
//! `rec_mii`, which finds the same bound by the minimum cost-to-time ratio
//! method without listing circuits.

use lsms_sched::SchedProblem;

/// More elementary circuits than the requested cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapExceeded;

/// `RecMII` by scanning every elementary circuit (§3.1): `max ⌈L / Ω⌉`,
/// at least 1. The inner `None` signals a zero-ω circuit with positive
/// latency, which no II satisfies.
///
/// # Errors
///
/// Returns [`CapExceeded`] if more than `cap` circuits exist.
pub fn rec_mii_by_circuits(
    problem: &SchedProblem<'_>,
    cap: usize,
) -> Result<Option<u32>, CapExceeded> {
    let mut best: u32 = 1;
    let mut infeasible = false;
    let mut count = 0usize;
    enumerate_circuits(problem, &mut |latency, omega| {
        count += 1;
        if omega == 0 {
            if latency > 0 {
                infeasible = true;
            }
        } else {
            let bound = (latency.max(0) as u64).div_ceil(u64::from(omega));
            best = best.max(bound as u32);
        }
        count <= cap
    });
    if count > cap {
        return Err(CapExceeded);
    }
    Ok(if infeasible { None } else { Some(best) })
}

/// Enumerates elementary circuits of the real-operation multigraph with
/// Johnson's algorithm, invoking `emit(total_latency, total_omega)` per
/// circuit. `emit` returns `false` to abort early. Parallel arcs are kept
/// distinct, so two arcs between the same pair yield two circuits.
fn enumerate_circuits(problem: &SchedProblem<'_>, emit: &mut dyn FnMut(i64, u32) -> bool) {
    let n = problem.num_real_ops();
    // Self-arcs are elementary circuits of length one; Johnson's main loop
    // handles only length >= 2.
    for arc in problem.arcs() {
        if arc.from == arc.to && arc.from < n && !emit(arc.latency, arc.omega) {
            return;
        }
    }
    // adj[v] = (w, latency, omega) for each non-self arc v -> w.
    let adj: Vec<Vec<(usize, i64, u32)>> = (0..n)
        .map(|v| {
            problem
                .arcs_from(v)
                .filter(|a| a.to < n && a.to != v)
                .map(|a| (a.to, a.latency, a.omega))
                .collect()
        })
        .collect();

    struct J<'e> {
        adj: Vec<Vec<(usize, i64, u32)>>,
        blocked: Vec<bool>,
        blist: Vec<Vec<usize>>,
        root: usize,
        emit: &'e mut dyn FnMut(i64, u32) -> bool,
        aborted: bool,
    }
    impl J<'_> {
        fn unblock(&mut self, v: usize) {
            self.blocked[v] = false;
            let list = std::mem::take(&mut self.blist[v]);
            for w in list {
                if self.blocked[w] {
                    self.unblock(w);
                }
            }
        }
        /// DFS from `v` with accumulated (latency, omega); returns true if
        /// any circuit was closed below `v`.
        fn circuit(&mut self, v: usize, lat: i64, omega: u32) -> bool {
            if self.aborted {
                return false;
            }
            let mut found = false;
            self.blocked[v] = true;
            for i in 0..self.adj[v].len() {
                let (w, l, o) = self.adj[v][i];
                if w < self.root {
                    continue; // Johnson: only nodes >= current root
                }
                if w == self.root {
                    if !(self.emit)(lat + l, omega + o) {
                        self.aborted = true;
                        return found;
                    }
                    found = true;
                } else if !self.blocked[w] && self.circuit(w, lat + l, omega + o) {
                    found = true;
                }
                if self.aborted {
                    return found;
                }
            }
            if found {
                self.unblock(v);
            } else {
                for i in 0..self.adj[v].len() {
                    let (w, _, _) = self.adj[v][i];
                    if w >= self.root && !self.blist[w].contains(&v) {
                        self.blist[w].push(v);
                    }
                }
            }
            found
        }
    }

    let mut j = J {
        adj,
        blocked: vec![false; n],
        blist: vec![Vec::new(); n],
        root: 0,
        emit,
        aborted: false,
    };
    for root in 0..n {
        j.root = root;
        j.blocked.iter_mut().for_each(|b| *b = false);
        j.blist.iter_mut().for_each(|l| l.clear());
        j.circuit(root, 0, 0);
        if j.aborted {
            return;
        }
    }
}
