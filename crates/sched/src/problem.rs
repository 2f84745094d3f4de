//! The scheduling problem: a loop body bound to a machine.
//!
//! [`SchedProblem::new`] resolves once every fact about a loop that no
//! scheduling attempt changes, so the schedulers read tables instead of
//! walking the body again:
//!
//! - the arcs, with latencies resolved against the machine, plus the
//!   `Start`/`Stop` arcs;
//! - the adjacency in both directions, each stored flat: per node an
//!   offset into one array of arc indices, in arc order;
//! - the strongly connected components of the dependence graph, from one
//!   Tarjan pass: a component id per op and the size of each component.
//!   RecMII, the Cydrome baseline's recurrences-first order and the loop's
//!   Table 3 class all read them;
//! - ResMII, RecMII and the II ceiling of the 32-bit arithmetic.
//!
//! Unit instances are not part of the problem: every engine attempt binds
//! its own (see the `engine` module).

use std::fmt;

use lsms_ir::{flat_adjacency, Components, LoopBody, LoopClass, OpId};
use lsms_machine::{dep_latency, Machine, OpDesc};

/// A dependence arc with its latency resolved against the target machine.
///
/// Node indices are *problem* indices: `0..n` are the body's operations (in
/// [`OpId::index`] order), `n` is `Start`, and `n + 1` is `Stop` (§4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arc {
    /// Source node.
    pub from: usize,
    /// Sink node.
    pub to: usize,
    /// Machine latency of the dependence.
    pub latency: i64,
    /// Iteration distance ω.
    pub omega: u32,
}

impl Arc {
    /// The arc's weight in the longest-paths formulation at a candidate II:
    /// `latency − ω·II`.
    pub fn weight(&self, ii: u32) -> i64 {
        self.latency - i64::from(self.omega) * i64::from(ii)
    }
}

/// Errors detected while building a [`SchedProblem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// The loop body failed structural validation.
    Body(lsms_ir::BodyError),
    /// The dependence graph has a circuit whose total ω is zero — no
    /// initiation interval can satisfy it.
    ZeroOmegaCycle,
    /// Path sums at MII would leave the range the scheduler's 32-bit
    /// arithmetic covers: MII is above [`SchedProblem::ii_ceiling`].
    PathRange {
        /// The problem's MII.
        mii: u32,
        /// The largest II whose path sums stay in range.
        ceiling: u32,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::Body(e) => write!(f, "invalid loop body: {e}"),
            ProblemError::ZeroOmegaCycle => {
                f.write_str("dependence circuit with zero total omega (unschedulable)")
            }
            ProblemError::PathRange { mii, ceiling } => write!(
                f,
                "dependence path sums out of range: MII {mii} is above the II ceiling {ceiling}"
            ),
        }
    }
}

impl std::error::Error for ProblemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProblemError::Body(e) => Some(e),
            ProblemError::ZeroOmegaCycle | ProblemError::PathRange { .. } => None,
        }
    }
}

/// A loop body paired with a machine: arcs resolved to `(latency, ω)`,
/// `Start`/`Stop` pseudo-operations added, the dependence graph's SCCs
/// found, and the §3.1 lower bounds precomputed.
#[derive(Clone, Debug)]
pub struct SchedProblem<'a> {
    body: &'a LoopBody,
    machine: &'a Machine,
    arcs: Vec<Arc>,
    /// Out-arcs of node `v`: `out_arcs[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<u32>,
    out_arcs: Vec<u32>,
    /// In-arcs of node `v`, laid out as the out-arcs.
    in_start: Vec<u32>,
    in_arcs: Vec<u32>,
    components: Components,
    res_mii: u32,
    rec_mii: u32,
    ii_ceiling: u32,
}

/// The bound on `Σ_arcs(|latency| + ω·II)` that keeps every path sum,
/// stored time and sentinel sum of the scheduler inside `i32` (see the
/// [`mindist`](crate::mindist) module docs).
const PATH_RANGE: u64 = 1 << 27;

impl<'a> SchedProblem<'a> {
    /// Builds the problem: validates the body, resolves arc latencies,
    /// adds `Start`/`Stop` arcs, finds the SCCs, and computes `ResMII` and
    /// `RecMII`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Body`] if the body is structurally invalid,
    /// [`ProblemError::ZeroOmegaCycle`] if a dependence circuit has zero
    /// total ω, and [`ProblemError::PathRange`] if MII is above
    /// [`ii_ceiling`](Self::ii_ceiling).
    pub fn new(body: &'a LoopBody, machine: &'a Machine) -> Result<Self, ProblemError> {
        body.validate().map_err(ProblemError::Body)?;
        let n = body.num_ops();
        let start = n;
        let stop = n + 1;
        let mut arcs = Vec::with_capacity(body.deps().len() + 2 * n);
        for dep in body.deps() {
            arcs.push(Arc {
                from: dep.from.index(),
                to: dep.to.index(),
                latency: dep_latency(machine, body, dep),
                omega: dep.omega,
            });
        }
        for op in body.ops() {
            // Start precedes everything at distance 0; Stop succeeds
            // everything by the operation's own latency, so that
            // Estart(Stop) is the schedule's makespan.
            arcs.push(Arc {
                from: start,
                to: op.id.index(),
                latency: 0,
                omega: 0,
            });
            arcs.push(Arc {
                from: op.id.index(),
                to: stop,
                latency: i64::from(machine.latency(op.kind)),
                omega: 0,
            });
        }
        if n == 0 {
            arcs.push(Arc {
                from: start,
                to: stop,
                latency: 0,
                omega: 0,
            });
        }
        let total = n + 2;
        let (out_start, out_arcs) = flat_adjacency(total, &arcs, |arc| arc.from);
        let (in_start, in_arcs) = flat_adjacency(total, &arcs, |arc| arc.to);
        // Arcs to `Stop` leave the ops' graph and are ignored; `Start`
        // lies outside it.
        let components =
            Components::of_graph(n, &out_start, |slot| arcs[out_arcs[slot] as usize].to);
        let mut problem = Self {
            body,
            machine,
            arcs,
            out_start,
            out_arcs,
            in_start,
            in_arcs,
            components,
            res_mii: lsms_machine::res_mii(machine, body),
            rec_mii: 0,
            ii_ceiling: 0,
        };
        problem.rec_mii = crate::bounds::rec_mii(&problem).ok_or(ProblemError::ZeroOmegaCycle)?;
        problem.ii_ceiling = ii_ceiling(&problem.arcs);
        if problem.mii() > problem.ii_ceiling {
            return Err(ProblemError::PathRange {
                mii: problem.mii(),
                ceiling: problem.ii_ceiling,
            });
        }
        Ok(problem)
    }

    /// The underlying loop body.
    pub fn body(&self) -> &'a LoopBody {
        self.body
    }

    /// The target machine.
    pub fn machine(&self) -> &'a Machine {
        self.machine
    }

    /// Number of real (non-pseudo) operations.
    pub fn num_real_ops(&self) -> usize {
        self.body.num_ops()
    }

    /// Total node count including `Start` and `Stop`.
    pub fn num_nodes(&self) -> usize {
        self.body.num_ops() + 2
    }

    /// The `Start` pseudo-operation's node index (fixed at cycle 0).
    pub fn start(&self) -> usize {
        self.body.num_ops()
    }

    /// The `Stop` pseudo-operation's node index.
    pub fn stop(&self) -> usize {
        self.body.num_ops() + 1
    }

    /// True for the `Start`/`Stop` pseudo nodes, which consume no machine
    /// resources.
    pub fn is_pseudo(&self, node: usize) -> bool {
        node >= self.body.num_ops()
    }

    /// All arcs, including the `Start`/`Stop` arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Arcs leaving `node`, in arc order.
    pub fn arcs_from(&self, node: usize) -> impl Iterator<Item = &Arc> + '_ {
        let slots = self.out_start[node] as usize..self.out_start[node + 1] as usize;
        self.out_arcs[slots].iter().map(|&i| &self.arcs[i as usize])
    }

    /// Arcs entering `node`, in arc order.
    pub fn arcs_to(&self, node: usize) -> impl Iterator<Item = &Arc> + '_ {
        let slots = self.in_start[node] as usize..self.in_start[node + 1] as usize;
        self.in_arcs[slots].iter().map(|&i| &self.arcs[i as usize])
    }

    /// The strongly connected components of the dependence graph over
    /// the real operations (problem indices `0..n`).
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// The loop's class for Tables 3 and 4, from the problem's SCCs:
    /// the same as [`LoopBody::class`].
    pub fn class(&self) -> LoopClass {
        LoopClass::new(
            self.body.has_conditional(),
            self.components.has_recurrence(),
        )
    }

    /// The machine description of the operation at problem index `node`.
    ///
    /// # Panics
    ///
    /// Panics for pseudo nodes.
    pub fn desc(&self, node: usize) -> &OpDesc {
        assert!(!self.is_pseudo(node), "pseudo nodes use no units");
        self.machine.desc(self.body.ops()[node].kind)
    }

    /// The resource-contention bound ResMII (§3.1).
    pub fn res_mii(&self) -> u32 {
        self.res_mii
    }

    /// The recurrence-circuit bound RecMII (§3.1).
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// `MII = max(ResMII, RecMII)`: the absolute lower bound on II.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii)
    }

    /// The largest II the scheduler may try: the largest with
    /// `Σ_arcs(|latency| + ω·II) ≤ 2²⁷`, and at most `2²⁷` itself. Up to
    /// it, every MinDist entry, Estart, Lstart and sentinel sum fits in
    /// `i32`; every II search stops here.
    pub fn ii_ceiling(&self) -> u32 {
        self.ii_ceiling
    }

    /// The problem index of the loop's `brtop`, if the body has one. The
    /// slack framework never ejects it (§4.4).
    pub fn brtop(&self) -> Option<usize> {
        self.body.brtop().map(OpId::index)
    }
}

/// See [`SchedProblem::ii_ceiling`].
fn ii_ceiling(arcs: &[Arc]) -> u32 {
    let latency = arcs.iter().fold(0u64, |sum, arc| {
        sum.saturating_add(arc.latency.unsigned_abs())
    });
    let omega: u64 = arcs.iter().map(|arc| u64::from(arc.omega)).sum();
    let ceiling = match PATH_RANGE.checked_sub(latency) {
        None => 0,
        Some(room) if omega > 0 => (room / omega).min(PATH_RANGE),
        Some(_) => PATH_RANGE,
    };
    u32::try_from(ceiling).expect("the ceiling is at most 2^27")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    #[test]
    fn start_stop_arcs_cover_every_op() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        b.op(OpKind::Load, &[a], Some(x));
        b.op(OpKind::Store, &[a, x], None);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.num_nodes(), 4);
        // Start reaches both ops; both ops reach Stop.
        assert_eq!(p.arcs_from(p.start()).count(), 2);
        assert_eq!(p.arcs_to(p.stop()).count(), 2);
        // Load -> Stop carries the load latency.
        let load_to_stop = p
            .arcs_to(p.stop())
            .find(|arc| arc.from == 0)
            .expect("missing load->stop arc");
        assert_eq!(load_to_stop.latency, 13);
    }

    #[test]
    fn zero_omega_cycle_is_rejected() {
        let mut b = LoopBuilder::new("bad");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 0);
        let body = b.finish();
        let m = huff_machine();
        assert_eq!(
            SchedProblem::new(&body, &m).unwrap_err(),
            ProblemError::ZeroOmegaCycle
        );
    }

    #[test]
    fn arc_weight_subtracts_omega_times_ii() {
        let arc = Arc {
            from: 0,
            to: 1,
            latency: 13,
            omega: 2,
        };
        assert_eq!(arc.weight(5), 3);
        assert_eq!(arc.weight(7), -1);
    }

    #[test]
    fn empty_body_is_schedulable() {
        let body = LoopBuilder::new("empty").finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.mii(), 1);
        assert_eq!(p.num_real_ops(), 0);
    }

    #[test]
    fn mii_is_max_of_both_bounds() {
        // A single fdiv: ResMII = 17 dominates.
        let mut b = LoopBuilder::new("d");
        let f = b.invariant(ValueType::Float, "f");
        let r = b.new_value(ValueType::Float);
        b.op(OpKind::FDiv, &[f, f], Some(r));
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.res_mii(), 17);
        assert_eq!(p.rec_mii(), 1);
        assert_eq!(p.mii(), 17);
    }
}
