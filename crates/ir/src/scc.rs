//! Strongly connected components of the dependence graph.
//!
//! Used to classify loops (Tables 3/4: *Has Recurrence*: some SCC holds at
//! least two operations; a self-arc alone is a *trivial* circuit) and by
//! `RecMII` in `lsms-sched`, which runs its min-ratio search once per
//! recurrence component: an SCC of two or more operations, or a single
//! operation with a self-arc. Self-arcs do bound RecMII (`⌈L / Ω⌉` of the
//! arc), even though they do not make a loop *Has Recurrence*.

use crate::{LoopBody, OpId};

/// The strongly connected components of a graph, as compact ids: the
/// component of each node, and the node count of each component.
///
/// Components are numbered in Tarjan's completion order, which is reverse
/// topological. A *recurrence* component here is one of two or more
/// nodes; a lone node with a self-arc is a trivial circuit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Components {
    /// Component id of each node.
    pub of: Vec<u32>,
    /// Node count of each component, indexed by component id.
    pub sizes: Vec<u32>,
}

impl Components {
    /// The components of a graph of `n` nodes whose out-arcs from `v`
    /// occupy slots `offsets[v]..offsets[v + 1]`, with `target(slot)` the
    /// arc's sink. Sinks at `n` or above are ignored, so a caller can keep
    /// arcs to nodes outside the graph in its adjacency.
    pub fn of_graph(n: usize, offsets: &[u32], target: impl Fn(usize) -> usize) -> Self {
        let mut of = vec![0u32; n];
        // Sized for the worst case, so the allocation count does not
        // depend on the graph.
        let mut sizes = Vec::with_capacity(n);
        tarjan(n, offsets, target, |component| {
            let id = sizes.len() as u32;
            for &v in component {
                of[v as usize] = id;
            }
            sizes.push(component.len() as u32);
        });
        Self { of, sizes }
    }

    /// True when `node` lies in a component of two or more nodes.
    pub fn on_recurrence(&self, node: usize) -> bool {
        self.sizes[self.of[node] as usize] >= 2
    }

    /// True when some component holds two or more nodes.
    pub fn has_recurrence(&self) -> bool {
        self.sizes.iter().any(|&s| s >= 2)
    }

    /// The number of nodes in components of two or more nodes.
    pub fn ops_on_recurrences(&self) -> usize {
        self.sizes
            .iter()
            .filter(|&&s| s >= 2)
            .map(|&s| s as usize)
            .sum()
    }
}

/// Tarjan's algorithm over a flat adjacency (see
/// [`Components::of_graph`]), iterative so deep graphs cannot overflow
/// the call stack. Every buffer is sized once up front. `emit` receives
/// each component as it completes, in completion order, as the slice of
/// the Tarjan stack it pops: the component's root first.
fn tarjan(
    n: usize,
    offsets: &[u32],
    target: impl Fn(usize) -> usize,
    mut emit: impl FnMut(&[u32]),
) {
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::with_capacity(n);
    // DFS frames: (node, next out-arc slot to examine).
    let mut work: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut next_index = 0u32;

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut descend = Some(root);
        loop {
            if let Some(v) = descend.take() {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v as u32);
                on_stack[v] = true;
                work.push((v as u32, offsets[v]));
            }
            let Some(frame) = work.last_mut() else {
                break;
            };
            let v = frame.0 as usize;
            if frame.1 < offsets[v + 1] {
                let w = target(frame.1 as usize);
                frame.1 += 1;
                if w < n {
                    if index[w] == UNVISITED {
                        descend = Some(w);
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                continue;
            }
            work.pop();
            if lowlink[v] == index[v] {
                let root_at = stack
                    .iter()
                    .rposition(|&w| w as usize == v)
                    .expect("a component root is on the Tarjan stack");
                for &w in &stack[root_at..] {
                    on_stack[w as usize] = false;
                }
                emit(&stack[root_at..]);
                stack.truncate(root_at);
            }
            // Propagate the lowlink to the parent frame, if any.
            if let Some(&(p, _)) = work.last() {
                let p = p as usize;
                lowlink[p] = lowlink[p].min(lowlink[v]);
            }
        }
    }
}

/// The body's dependence arcs as a flat adjacency: `(offsets, sinks)`,
/// each op's out-arcs in [`LoopBody::deps_from`] order.
fn flat_adjacency(body: &LoopBody) -> (Vec<u32>, Vec<u32>) {
    let n = body.num_ops();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut sinks = Vec::with_capacity(body.deps().len());
    offsets.push(0);
    for i in 0..n {
        sinks.extend(body.deps_from(OpId::new(i)).map(|d| d.to.index() as u32));
        offsets.push(sinks.len() as u32);
    }
    (offsets, sinks)
}

/// Computes the strongly connected components of the body's dependence
/// graph with Tarjan's algorithm (iterative, so deep graphs cannot overflow
/// the call stack).
///
/// Components are returned in reverse topological order (Tarjan's natural
/// output order); every operation appears in exactly one component, and
/// each component lists its root last.
pub fn tarjan_scc(body: &LoopBody) -> Vec<Vec<OpId>> {
    let (offsets, sinks) = flat_adjacency(body);
    let mut sccs = Vec::new();
    tarjan(
        body.num_ops(),
        &offsets,
        |slot| sinks[slot] as usize,
        |c| {
            sccs.push(c.iter().rev().map(|&v| OpId::new(v as usize)).collect());
        },
    );
    sccs
}

/// The compact [`Components`] of the body's dependence graph.
fn components(body: &LoopBody) -> Components {
    let (offsets, sinks) = flat_adjacency(body);
    Components::of_graph(body.num_ops(), &offsets, |slot| sinks[slot] as usize)
}

/// True when the dependence graph contains a non-trivial recurrence
/// circuit: an SCC with at least two operations.
pub fn has_recurrence(body: &LoopBody) -> bool {
    components(body).has_recurrence()
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
