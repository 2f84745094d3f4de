//! Absolute lower bounds on II (§3.1): `ResMII`, `RecMII`, and `MII`.
//!
//! `RecMII` is the largest `⌈L / Ω⌉` over the loop's recurrence circuits
//! (total latency `L`, total iteration distance `Ω`). Rather than scan
//! every elementary circuit (Tiernan's enumeration, which the paper notes
//! can be exponential), it is found by the **minimum cost-to-time ratio**
//! method the paper also cites (Lawler): the smallest `II` at which no
//! circuit has positive weight under arc weights `latency − ω·II`. Circuit
//! weights are non-increasing in `II`, so a binary search with a
//! Bellman–Ford positive-cycle test finds it.
//!
//! Every circuit lies inside one strongly connected component, so the
//! search runs separately on each *recurrence component* — an SCC of two
//! or more operations, or a single operation with a self-arc — over that
//! component's own arcs, bounded above by its own latency sum. The
//! components are the ones [`SchedProblem`] found when it was built.
//! `RecMII` is the maximum over components (1 if there are none).
//! Johnson's circuit enumeration survives as the test oracle in `tests/`.

use lsms_ir::{tarjan_scc, LoopBody};
use lsms_machine::{critical_classes, Machine};

use crate::SchedProblem;

/// Re-export of the resource-contention bound (computed in `lsms-machine`).
pub use lsms_machine::res_mii;

/// `MII = max(ResMII, RecMII)`: the absolute lower bound on the initiation
/// interval. In practice almost all loops achieve it (§3.1).
pub fn mii(problem: &SchedProblem<'_>) -> u32 {
    problem.mii()
}

/// The recurrence-circuit bound on II: the maximum, over recurrence
/// components, of each component's minimum cost-to-time ratio; 1 when the
/// loop has no recurrence.
///
/// Returns `None` when some circuit has `Ω = 0` but positive latency: no
/// initiation interval can satisfy it (the loop body is malformed).
pub fn rec_mii(problem: &SchedProblem<'_>) -> Option<u32> {
    let n = problem.num_real_ops();
    let components = problem.components();
    let count = components.sizes.len();
    // Each op's index inside its component.
    let mut seen = vec![0u32; count];
    let local: Vec<usize> = components.of[..n]
        .iter()
        .map(|&c| {
            seen[c as usize] += 1;
            seen[c as usize] as usize - 1
        })
        .collect();
    // An arc lies on a circuit exactly when both ends share a component
    // (Start has no in-arcs and Stop no out-arcs, so neither can).
    let inner = |arc: &crate::Arc| {
        (arc.from < n && arc.to < n && components.of[arc.from] == components.of[arc.to])
            .then(|| components.of[arc.from] as usize)
    };
    // Bucket the inner arcs by component, in arc order: component `c`'s
    // arcs are `arcs[start[c]..start[c + 1]]`.
    let mut start = vec![0usize; count + 1];
    for c in problem.arcs().iter().filter_map(inner) {
        start[c + 1] += 1;
    }
    for c in 0..count {
        start[c + 1] += start[c];
    }
    let mut fill = start.clone();
    let mut arcs = vec![(0usize, 0usize, 0i64, 0i64); start[count]];
    for arc in problem.arcs() {
        if let Some(c) = inner(arc) {
            arcs[fill[c]] = (
                local[arc.from],
                local[arc.to],
                arc.latency,
                i64::from(arc.omega),
            );
            fill[c] += 1;
        }
    }
    let mut scratch = RatioScratch::default();
    let mut best = 1;
    for c in 0..count {
        // A lone op without a self-arc has no inner arcs and no circuit.
        if start[c] < start[c + 1] {
            let size = components.sizes[c] as usize;
            let ratio = component_rec_mii(size, &arcs[start[c]..start[c + 1]], &mut scratch)?;
            best = best.max(ratio);
        }
    }
    Some(best)
}

/// Scratch buffers for [`component_rec_mii`]'s Bellman–Ford runs.
#[derive(Default)]
pub(crate) struct RatioScratch {
    /// Longest-path distance per op.
    dist: Vec<i64>,
    /// The arc that last raised each op's distance (`usize::MAX`: none).
    pred: Vec<usize>,
    /// Walk stamps for the predecessor-cycle search.
    mark: Vec<usize>,
}

/// The minimum cost-to-time ratio of one recurrence component with `n`
/// ops and arcs `(from, to, latency, ω)` in component-local indices: the
/// smallest II at which Bellman–Ford finds no positive cycle under
/// weights `latency − ω·II`. Returns `None` for a positive-latency zero-ω
/// circuit, which stays positive at every II.
///
/// Each infeasible probe yields a circuit `C` with `L − Ω·II > 0`, and no
/// II below `⌈L/Ω⌉` satisfies `C`, so the search raises its lower end to
/// that ratio rather than to `II + 1`. After a jump it probes the new
/// lower end first (usually the answer); two infeasible probes there in
/// a row fall back to bisection, so the probe count stays logarithmic.
pub(crate) fn component_rec_mii(
    n: usize,
    arcs: &[(usize, usize, i64, i64)],
    scratch: &mut RatioScratch,
) -> Option<u32> {
    // Every circuit with Ω ≥ 1 has L ≤ this sum ≤ Ω·sum, so it is
    // non-positive here: a positive cycle at `hi` is a zero-ω one.
    let mut hi: i64 = arcs.iter().map(|a| a.2.max(0)).sum::<i64>().max(1);
    let mut hi_checked = false;
    let mut lo = 1i64;
    let mut lo_misses = 0;
    while lo < hi {
        let probe = if lo_misses < 2 {
            lo
        } else {
            lo + (hi - lo) / 2
        };
        match positive_circuit(n, arcs, probe, scratch) {
            None => {
                (hi, hi_checked) = (probe, true);
                lo_misses = 2; // keep bisecting until the next jump
            }
            // Only a zero-ω circuit outgrows every II up to the bound.
            Some(bound) if bound > hi => return None,
            Some(bound) => {
                lo_misses = if probe == lo { lo_misses + 1 } else { 0 };
                lo = bound.max(probe + 1);
            }
        }
    }
    if !hi_checked && positive_circuit(n, arcs, hi, scratch).is_some() {
        return None;
    }
    Some(lo as u32)
}

/// Longest-path Bellman–Ford at `ii` from a virtual source joined to
/// every op with weight 0. `None` when no positive cycle exists;
/// otherwise a lower bound on every feasible II: `⌈L/Ω⌉` of a positive
/// circuit read off the predecessor links, `i64::MAX` for a zero-ω one,
/// or `ii + 1` when no circuit could be read off.
///
/// After every round that raised a distance, the predecessor links are
/// walked; a cycle among them is a positive circuit (each of its arcs
/// last raised its sink), so relaxation stops there instead of running
/// all `n + 1` rounds.
fn positive_circuit(
    n: usize,
    arcs: &[(usize, usize, i64, i64)],
    ii: i64,
    scratch: &mut RatioScratch,
) -> Option<i64> {
    let RatioScratch { dist, pred, mark } = scratch;
    dist.clear();
    dist.resize(n, 0);
    pred.clear();
    pred.resize(n, usize::MAX);
    for _round in 0..=n {
        let mut changed = false;
        for (k, &(from, to, latency, omega)) in arcs.iter().enumerate() {
            let reach = dist[from] + latency - omega * ii;
            if reach > dist[to] {
                dist[to] = reach;
                pred[to] = k;
                changed = true;
            }
        }
        if !changed {
            return None;
        }
        if let Some(on_cycle) = predecessor_cycle(arcs, pred, mark) {
            let (mut latency, mut omega, mut v) = (0, 0, on_cycle);
            loop {
                let (from, _, l, w) = arcs[pred[v]];
                (latency, omega, v) = (latency + l, omega + w, from);
                if v == on_cycle {
                    break;
                }
            }
            if latency - omega * ii > 0 {
                return Some(if omega == 0 {
                    i64::MAX
                } else {
                    (latency + omega - 1) / omega
                });
            }
        }
    }
    Some(ii + 1)
}

/// An op on a cycle of the predecessor links, if they have one: each
/// walk stamps the ops it passes with its starting op and stops at an
/// op stamped before, which closes a cycle exactly when the stamp is its
/// own.
fn predecessor_cycle(
    arcs: &[(usize, usize, i64, i64)],
    pred: &[usize],
    mark: &mut Vec<usize>,
) -> Option<usize> {
    mark.clear();
    mark.resize(pred.len(), usize::MAX);
    for start in 0..pred.len() {
        let mut v = start;
        while mark[v] == usize::MAX {
            mark[v] = start;
            match pred[v] {
                usize::MAX => break,
                k => v = arcs[k].0,
            }
        }
        if mark[v] == start && pred[v] != usize::MAX {
            return Some(v);
        }
    }
    None
}

/// Number of operations lying on non-trivial recurrence circuits (Table 2's
/// "# Ops on Recurrences"): members of dependence-graph SCCs of size ≥ 2.
pub fn ops_on_recurrences(body: &LoopBody) -> usize {
    tarjan_scc(body)
        .into_iter()
        .filter(|scc| scc.len() >= 2)
        .map(|scc| scc.len())
        .sum()
}

/// Number of operations using a critical resource at the given II
/// (Table 2's "# Critical Ops at MII"); see
/// [`critical_classes`] for the 0.90·II
/// rule.
pub fn critical_ops(machine: &Machine, body: &LoopBody, ii: u32) -> usize {
    let critical = critical_classes(machine, body, ii);
    body.ops()
        .iter()
        .filter(|op| critical[machine.desc(op.kind).class.index()])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn ring(k: usize, omega_back: u32) -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("ring");
        let mut vals = Vec::new();
        let mut ops = Vec::new();
        let seed = b.invariant(ValueType::Float, "seed");
        for i in 0..k {
            let v = b.new_value(ValueType::Float);
            let prev = *vals.last().unwrap_or(&seed);
            let o = b.op(OpKind::FAdd, &[prev, seed], Some(v));
            vals.push(v);
            if i > 0 {
                b.flow_dep(ops[i - 1], o, 0);
            }
            ops.push(o);
        }
        b.flow_dep(ops[k - 1], ops[0], omega_back);
        b.finish()
    }

    #[test]
    fn ring_rec_mii_is_ceiling_of_latency_over_omega() {
        let m = huff_machine();
        // 5 fadds, latency 1 each: L = 5, omega 2 -> ceil(5/2) = 3.
        let body = ring(5, 2);
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 3);
        assert_eq!(rec_mii(&p), Some(3));
        // omega 1 -> 5.
        let body = ring(5, 1);
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 5);
        assert_eq!(rec_mii(&p), Some(5));
    }

    #[test]
    fn self_arc_bounds_rec_mii() {
        let m = huff_machine();
        let mut b = LoopBuilder::new("acc");
        let f = b.invariant(ValueType::Float, "f");
        let s = b.new_value(ValueType::Float);
        let o = b.op(OpKind::FMul, &[s, f], Some(s)); // latency 2
        b.flow_dep(o, o, 1);
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 2);
        assert_eq!(rec_mii(&p), Some(2));
    }

    #[test]
    fn acyclic_rec_mii_is_one() {
        let m = huff_machine();
        let mut b = LoopBuilder::new("line");
        let f = b.invariant(ValueType::Float, "f");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[f, f], Some(x));
        let o2 = b.op(OpKind::FAdd, &[x, f], Some(y));
        b.flow_dep(o1, o2, 0);
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 1);
        assert_eq!(rec_mii(&p), Some(1));
    }

    #[test]
    fn overlapping_circuits_take_the_max() {
        let m = huff_machine();
        // Two circuits sharing op0: (0,1) omega 1 lat 2+2=4 -> 4, and
        // (0,1,2) omega 3, lat 6 -> 2.
        let mut b = LoopBuilder::new("two");
        let v0 = b.new_value(ValueType::Float);
        let v1 = b.new_value(ValueType::Float);
        let v2 = b.new_value(ValueType::Float);
        let o0 = b.op(OpKind::FMul, &[v1, v1], Some(v0));
        let o1 = b.op(OpKind::FMul, &[v0, v2], Some(v1));
        let o2 = b.op(OpKind::FMul, &[v1, v1], Some(v2));
        b.flow_dep(o0, o1, 0);
        b.flow_dep(o1, o0, 1);
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 3); // hmm: circuit 0->1->0 and 1->2->1
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        // Circuit A: o0->o1 (lat 2, w 0) + o1->o0 (lat 2, w 1): 4/1 = 4.
        // Circuit B: o1->o2 (lat 2, w 0) + o2->o1 (lat 2, w 3): ceil(4/3)=2.
        assert_eq!(p.rec_mii(), 4);
        assert_eq!(rec_mii(&p), Some(4));
    }

    #[test]
    fn parallel_arcs_yield_distinct_circuits() {
        let m = huff_machine();
        let mut b = LoopBuilder::new("par");
        let v0 = b.new_value(ValueType::Float);
        let v1 = b.new_value(ValueType::Float);
        let o0 = b.op(OpKind::FMul, &[v1, v1], Some(v0));
        let o1 = b.op(OpKind::FMul, &[v0, v0], Some(v1));
        b.flow_dep(o0, o1, 0);
        b.flow_dep(o1, o0, 4); // ratio (2+2)/4 = 1
        b.flow_dep(o1, o0, 1); // ratio (2+2)/1 = 4  <- tighter
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 4);
        assert_eq!(rec_mii(&p), Some(4));
    }

    /// The smallest II with no positive cycle, by trying every II with a
    /// plain `n + 1`-round Bellman–Ford; `None` if none up to `limit`.
    fn rec_mii_by_scan(n: usize, arcs: &[(usize, usize, i64, i64)], limit: i64) -> Option<u32> {
        (1..=limit)
            .find(|&ii| {
                let mut dist = vec![0i64; n];
                !(0..=n).all(|_| {
                    let mut changed = false;
                    for &(from, to, latency, omega) in arcs {
                        let reach = dist[from] + latency - omega * ii;
                        if reach > dist[to] {
                            dist[to] = reach;
                            changed = true;
                        }
                    }
                    changed
                })
            })
            .map(|ii| ii as u32)
    }

    #[test]
    fn circuit_jumps_match_a_scan_over_every_ii() {
        use lsms_prng::SmallRng;
        let mut scratch = RatioScratch::default();
        let mut zero_omega = 0;
        for case in 0u64..400 {
            let mut rng = SmallRng::seed_from_u64(0x5eed + case);
            let n = rng.gen_range(1..12usize);
            let arcs: Vec<_> = (0..rng.gen_range(1..4 * n))
                .map(|_| {
                    let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let latency = rng.gen_range(0..22i64);
                    // Mostly carried arcs; an occasional ω = 0 back arc
                    // can close a zero-ω circuit.
                    let omega = rng.gen_range(0..4i64) + i64::from(to <= from && case % 5 != 0);
                    (from, to, latency, omega)
                })
                .collect();
            let limit = arcs.iter().map(|a| a.2).sum::<i64>().max(1);
            let want = rec_mii_by_scan(n, &arcs, limit);
            zero_omega += usize::from(want.is_none());
            assert_eq!(
                component_rec_mii(n, &arcs, &mut scratch),
                want,
                "case {case}: {arcs:?}"
            );
        }
        assert!(zero_omega >= 5, "{zero_omega} zero-omega cases");
    }

    #[test]
    fn ops_on_recurrences_counts_scc_members() {
        let body = ring(5, 2);
        assert_eq!(ops_on_recurrences(&body), 5);
        let mut b = LoopBuilder::new("none");
        let f = b.invariant(ValueType::Float, "f");
        let x = b.new_value(ValueType::Float);
        b.op(OpKind::FAdd, &[f, f], Some(x));
        assert_eq!(ops_on_recurrences(&b.finish()), 0);
    }

    #[test]
    fn critical_ops_at_mii() {
        let m = huff_machine();
        // Four loads on two ports: ResMII = 2, loads are critical
        // (4/2 = 2 >= 0.9*2); the lone fadd is not.
        let mut b = LoopBuilder::new("c");
        let a = b.invariant(ValueType::Addr, "a");
        for _ in 0..4 {
            let x = b.new_value(ValueType::Float);
            b.op(OpKind::Load, &[a], Some(x));
        }
        let f = b.new_value(ValueType::Float);
        let g = b.new_value(ValueType::Float);
        b.op(OpKind::FAdd, &[f, f], Some(g));
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.mii(), 2);
        assert_eq!(critical_ops(&m, &body, 2), 4);
    }
}
