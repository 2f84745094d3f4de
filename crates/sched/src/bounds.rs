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
    let mut dist = Vec::new();
    let mut best = 1;
    for c in 0..count {
        // A lone op without a self-arc has no inner arcs and no circuit.
        if start[c] < start[c + 1] {
            let size = components.sizes[c] as usize;
            let ratio = component_rec_mii(size, &arcs[start[c]..start[c + 1]], &mut dist)?;
            best = best.max(ratio);
        }
    }
    Some(best)
}

/// The minimum cost-to-time ratio of one recurrence component with `n`
/// ops and arcs `(from, to, latency, ω)` in component-local indices:
/// binary search for the smallest II at which Bellman–Ford finds no
/// positive cycle under weights `latency − ω·II`, with `dist` as its
/// scratch. Returns `None` for a positive-latency zero-ω circuit, which
/// stays positive at every II.
pub(crate) fn component_rec_mii(
    n: usize,
    arcs: &[(usize, usize, i64, i64)],
    dist: &mut Vec<i64>,
) -> Option<u32> {
    let mut has_positive_cycle = |ii: i64| -> bool {
        // Longest-path Bellman–Ford from a virtual source connected to all
        // nodes with weight 0: dist starts at 0 everywhere.
        dist.clear();
        dist.resize(n, 0);
        for round in 0..=n {
            let mut changed = false;
            for &(from, to, latency, omega) in arcs {
                let reach = dist[from] + latency - omega * ii;
                if reach > dist[to] {
                    dist[to] = reach;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if round == n {
                return true;
            }
        }
        false
    };
    // Every circuit with Ω ≥ 1 has L ≤ this sum ≤ Ω·sum, so it is
    // non-positive here: a positive cycle at `hi` is a zero-ω one.
    let hi: i64 = arcs.iter().map(|a| a.2.max(0)).sum::<i64>().max(1);
    if has_positive_cycle(hi) {
        return None;
    }
    let (mut lo, mut hi) = (1i64, hi); // hi is feasible
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo as u32)
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
