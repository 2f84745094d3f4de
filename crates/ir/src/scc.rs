//! Strongly connected components of the dependence graph.
//!
//! Used to classify loops (Tables 3/4: *Has Recurrence*: some SCC holds at
//! least two operations; a self-arc alone is a *trivial* circuit) and by
//! `RecMII` in `lsms-sched`, which runs its min-ratio search once per
//! recurrence component: an SCC of two or more operations, or a single
//! operation with a self-arc. Self-arcs do bound RecMII (`⌈L / Ω⌉` of the
//! arc), even though they do not make a loop *Has Recurrence*.

use crate::{LoopBody, OpId};

/// Computes the strongly connected components of the body's dependence
/// graph with Tarjan's algorithm (iterative, so deep graphs cannot overflow
/// the call stack).
///
/// Components are returned in reverse topological order (Tarjan's natural
/// output order); every operation appears in exactly one component.
pub fn tarjan_scc(body: &LoopBody) -> Vec<Vec<OpId>> {
    let n = body.num_ops();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();

    // Explicit DFS state: (node, iterator position over its successors).
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }

    let succs: Vec<Vec<usize>> = (0..n)
        .map(|i| body.deps_from(OpId::new(i)).map(|d| d.to.index()).collect())
        .collect();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        let mut work = vec![Frame::Enter(start)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descend = None;
                    while i < succs[v].len() {
                        let w = succs[v][i];
                        i += 1;
                        if index[w] == UNVISITED {
                            descend = Some(w);
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if let Some(w) = descend {
                        work.push(Frame::Resume(v, i));
                        work.push(Frame::Enter(w));
                        continue;
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(OpId::new(w));
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                    // Propagate lowlink to the parent, which is the next
                    // Resume frame on the work stack.
                    if let Some(Frame::Resume(p, _)) = work.last() {
                        let p = *p;
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                }
            }
        }
    }
    sccs
}

/// True when the dependence graph contains a non-trivial recurrence
/// circuit: an SCC with at least two operations.
pub fn has_recurrence(body: &LoopBody) -> bool {
    tarjan_scc(body).iter().any(|scc| scc.len() >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopBuilder, OpKind, ValueType};

    /// Builds a chain of `n` float adds with flow arcs `i -> i+1` (ω = 0)
    /// plus the extra arcs given as (from, to, omega).
    fn chain(n: usize, extra: &[(usize, usize, u32)]) -> LoopBody {
        let mut b = LoopBuilder::new("chain");
        let a = b.invariant(ValueType::Float, "a");
        let mut ops = Vec::new();
        let mut prev_val = a;
        for _ in 0..n {
            let v = b.new_value(ValueType::Float);
            let o = b.op(OpKind::FAdd, &[prev_val, a], Some(v));
            if let Some(&p) = ops.last() {
                b.flow_dep(p, o, 0);
            }
            ops.push(o);
            prev_val = v;
        }
        for &(f, t, w) in extra {
            b.flow_dep(ops[f], ops[t], w);
        }
        b.finish()
    }

    #[test]
    fn acyclic_chain_has_no_recurrence() {
        let body = chain(5, &[]);
        assert!(!has_recurrence(&body));
        assert_eq!(tarjan_scc(&body).len(), 5);
    }

    #[test]
    fn back_arc_creates_one_component() {
        let body = chain(5, &[(4, 1, 1)]);
        assert!(has_recurrence(&body));
        let sccs = tarjan_scc(&body);
        let big: Vec<_> = sccs.iter().filter(|s| s.len() >= 2).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 4); // ops 1..=4 form the circuit
    }

    #[test]
    fn self_arc_is_not_a_recurrence() {
        let body = chain(3, &[(1, 1, 1)]);
        assert!(!has_recurrence(&body));
    }

    #[test]
    fn two_disjoint_circuits() {
        let body = chain(6, &[(1, 0, 1), (5, 4, 2)]);
        let sccs = tarjan_scc(&body);
        assert_eq!(sccs.iter().filter(|s| s.len() == 2).count(), 2);
        assert!(has_recurrence(&body));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let body = chain(20_000, &[]);
        assert_eq!(tarjan_scc(&body).len(), 20_000);
    }

    #[test]
    fn sccs_partition_the_ops() {
        let body = chain(8, &[(3, 1, 1), (7, 6, 1)]);
        let sccs = tarjan_scc(&body);
        let mut seen = vec![false; body.num_ops()];
        for scc in &sccs {
            for op in scc {
                assert!(!seen[op.index()], "op in two components");
                seen[op.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
