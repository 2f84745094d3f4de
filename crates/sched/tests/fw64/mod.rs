//! The 64-bit Floyd–Warshall that computed MinDist before the scheduler
//! moved to 32-bit arithmetic: the test oracle for `MinDist::compute`.
//! It branches on its sentinel instead of letting sums saturate below it,
//! and it runs every pass even once a positive circuit has closed.

use lsms_sched::{MinDist, SchedProblem};

/// The oracle's "no path" sentinel, far from `i64::MIN` so sums of path
/// weights cannot overflow.
pub const NO_PATH: i64 = i64::MIN / 4;

/// All-pairs longest paths over arcs of weight `latency − ω·II`.
pub struct MinDist64 {
    n: usize,
    /// False when some circuit is positive at this II (`ii < RecMII`).
    pub feasible: bool,
    /// Row-major: `d[x * n + y]` = `MinDist(x, y)`.
    d: Vec<i64>,
}

impl MinDist64 {
    /// Floyd–Warshall at `ii` over every node including `Start`/`Stop`.
    pub fn compute(problem: &SchedProblem<'_>, ii: u32) -> Self {
        let n = problem.num_nodes();
        let mut d = vec![NO_PATH; n * n];
        for arc in problem.arcs() {
            let idx = arc.from * n + arc.to;
            d[idx] = d[idx].max(arc.weight(ii));
        }
        let mut feasible = true;
        for i in 0..n {
            if d[i * n + i] > 0 {
                feasible = false;
            }
            d[i * n + i] = d[i * n + i].max(0);
        }
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                if dik == NO_PATH || i == k {
                    continue;
                }
                for j in 0..n {
                    let dkj = d[k * n + j];
                    if dkj != NO_PATH && dik + dkj > d[i * n + j] {
                        d[i * n + j] = dik + dkj;
                    }
                }
            }
        }
        for i in 0..n {
            if d[i * n + i] > 0 {
                feasible = false;
                d[i * n + i] = 0;
            }
        }
        Self { n, feasible, d }
    }

    /// `MinDist(x, y)`, or [`NO_PATH`].
    pub fn get(&self, x: usize, y: usize) -> i64 {
        self.d[x * self.n + y]
    }
}

/// Asserts the `i32` matrix equals the oracle's at `ii`: the same
/// feasibility flag, and where feasible the same entry in every cell.
pub fn assert_matches_oracle(problem: &SchedProblem<'_>, ii: u32, label: &str) {
    let md = MinDist::compute(problem, ii);
    let oracle = MinDist64::compute(problem, ii);
    assert_eq!(md.is_feasible(), oracle.feasible, "{label} ii {ii}");
    if !md.is_feasible() {
        return;
    }
    let n = problem.num_nodes();
    for x in 0..n {
        for y in 0..n {
            let (w, want) = (md.get(x, y), oracle.get(x, y));
            if want == NO_PATH {
                assert_eq!(
                    w,
                    lsms_sched::mindist::NO_PATH,
                    "{label} ii {ii}: ({x}, {y})"
                );
            } else {
                assert_eq!(i64::from(w), want, "{label} ii {ii}: ({x}, {y})");
            }
        }
    }
}
