//! The bidirectional slack scheduler (§4–§5): the paper's contribution.

use std::fmt;

use crate::engine::{run_framework, Direction, EngineState, EngineWorkspace, Heuristic};
use crate::{DecisionStats, MinDistCache, SchedProblem, SchedStats, Schedule};

/// How the scheduler decides which end of an operation's slack window to
/// scan from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirectionPolicy {
    /// The §5.2 bidirectional lifetime heuristic: place an operation early
    /// or late depending on whether its stretchable inputs outnumber its
    /// stretchable outputs.
    #[default]
    Bidirectional,
    /// Always place as early as possible — the unidirectional legacy of
    /// list scheduling. §7: without the bidirectional heuristics the slack
    /// scheduler "generates nearly the same register pressure as Cydrome's
    /// scheduler", making this the ablation policy.
    AlwaysEarly,
    /// Always place as late as possible (for experiments; not in the
    /// paper).
    AlwaysLate,
}

/// How II grows after a failed attempt (§4.2, footnote 6: incrementing
/// by 1 "lowered the total II by 45 at the expense of 29% more time spent
/// in the scheduler").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IiIncrement {
    /// The paper's production setting: `max(⌊0.04·II⌋, 1)`.
    #[default]
    FourPercent,
    /// Exhaustive: try every II.
    ByOne,
}

/// Tunables of the slack scheduler.
#[derive(Clone, Debug)]
pub struct SlackConfig {
    /// Direction policy (default: bidirectional).
    pub direction: DirectionPolicy,
    /// II escalation policy (default: the paper's 4% steps).
    pub increment: IiIncrement,
    /// Central-loop iteration budget per II attempt, as a multiple of the
    /// operation count; exhausting it triggers Step 6 (restart at a larger
    /// II). Default 32.
    pub budget_factor: u64,
    /// Hard cap on attempted IIs; `None` derives `4·MII + 64`. Reaching the
    /// cap without success fails the loop, which Table 4 reports for
    /// Cydrome's scheduler on 14 loops.
    pub max_ii: Option<u32>,
}

impl Default for SlackConfig {
    fn default() -> Self {
        Self {
            direction: DirectionPolicy::Bidirectional,
            increment: IiIncrement::FourPercent,
            budget_factor: 10,
            max_ii: None,
        }
    }
}

/// Failure to software-pipeline a loop within the II cap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedFailure {
    /// The last initiation interval attempted.
    pub last_ii: u32,
    /// Work counters accumulated across all attempts.
    pub stats: SchedStats,
    /// True when a wall-clock deadline (not the II cap) stopped the
    /// escalation — see [`SlackScheduler::run_in`].
    /// Larger IIs were still available; callers may degrade to a cheaper
    /// backend instead of reporting the loop unschedulable.
    pub deadline_capped: bool,
    /// True when the II search stopped because the scheduler's 32-bit
    /// arithmetic would no longer cover it: the search failed at
    /// [`SchedProblem::ii_ceiling`](crate::SchedProblem::ii_ceiling) below
    /// its own cap, the straight-line horizon was above the ceiling, or an
    /// issue time or `Lstart(Stop)` left ±2²⁸.
    pub out_of_range: bool,
}

impl fmt::Display for SchedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.out_of_range {
            write!(
                f,
                "no schedule inside the 32-bit path range; last attempted II = {}",
                self.last_ii
            )
        } else {
            write!(
                f,
                "failed to pipeline; last attempted II = {}",
                self.last_ii
            )
        }
    }
}

impl std::error::Error for SchedFailure {}

/// The bidirectional slack scheduler.
///
/// Characterised by always choosing an operation with the minimum number
/// of issue slots available to it, approximated by the §4.3 *dynamic
/// priority*: current slack, halved for operations on critical resources,
/// halved again for divider users, ties broken by smallest Lstart. The
/// §5.2 lifetime heuristic then decides whether the operation hunts for an
/// issue cycle from the early or the late end of its slack window.
///
/// # Example
///
/// ```
/// use lsms_ir::{LoopBuilder, OpKind, ValueType};
/// use lsms_machine::huff_machine;
/// use lsms_sched::{SchedProblem, SlackScheduler};
///
/// let mut b = LoopBuilder::new("axpy-ish");
/// let a = b.invariant(ValueType::Float, "a");
/// let x = b.new_value(ValueType::Float);
/// let y = b.new_value(ValueType::Float);
/// let mul = b.op(OpKind::FMul, &[a, x], Some(y));
/// let body = b.finish();
/// let machine = huff_machine();
/// let problem = SchedProblem::new(&body, &machine)?;
/// let schedule = SlackScheduler::new().run(&problem)?;
/// assert_eq!(schedule.ii, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlackScheduler {
    config: SlackConfig,
}

impl SlackScheduler {
    /// A scheduler with the default (bidirectional) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler with an explicit configuration.
    pub fn with_config(config: SlackConfig) -> Self {
        Self { config }
    }

    /// Schedules the problem, starting at MII and escalating by
    /// `max(⌊0.04·II⌋, 1)` per §4.2.
    ///
    /// # Errors
    ///
    /// Returns [`SchedFailure`] if no feasible schedule is found up to the
    /// configured II cap.
    pub fn run(&self, problem: &SchedProblem<'_>) -> Result<Schedule, SchedFailure> {
        self.run_in(
            problem,
            &MinDistCache::new(),
            None,
            &mut EngineWorkspace::new(),
        )
        .0
    }

    /// As [`run`](Self::run), with everything the caller may want to
    /// share or bound: MinDist matrices come from `cache` (so other
    /// schedulers and pressure analyses of the same problem reuse them),
    /// per-attempt allocations come from `ws` (reuse is allocation-only:
    /// results are byte-identical), and past `deadline` a failed attempt
    /// gives up with [`deadline_capped`](SchedFailure::deadline_capped)
    /// set rather than trying larger IIs. Returns the §5.2 decision
    /// tallies beside the result.
    pub fn run_in(
        &self,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        deadline: Option<std::time::Instant>,
        ws: &mut EngineWorkspace,
    ) -> (Result<Schedule, SchedFailure>, DecisionStats) {
        let mut decisions = DecisionStats::default();
        let max_ii = self
            .config
            .max_ii
            .unwrap_or(4 * problem.mii() + 64)
            .max(problem.mii());
        let mut heuristic = SlackHeuristic {
            policy: self.config.direction,
        };
        let result = run_framework(
            problem,
            &mut heuristic,
            self.config.budget_factor,
            max_ii,
            self.config.increment,
            deadline,
            cache,
            &mut decisions,
            ws,
        );
        (result, decisions)
    }

    /// Schedules the problem as *straight-line code*: one iteration, no
    /// overlap. The [`SlackBackend`](crate::SlackBackend) adapter calls it
    /// when [`SchedContext::straight_line`](crate::SchedContext) is set.
    ///
    /// §8: "the bidirectional slack-scheduling framework ... can be
    /// applied to straight-line code as well as loops" — the context
    /// where Integrated Prepass Scheduling was studied. Implemented by
    /// running one attempt at an initiation interval too large for any
    /// reservation to wrap, so the modulo resource table degenerates to a
    /// plain per-cycle table and lifetimes stop wrapping. It fails only
    /// if even a horizon four times the serial length fails — which would
    /// indicate a framework bug rather than a hard instance — or the
    /// horizon leaves the 32-bit range.
    pub(crate) fn straight_line_in(
        &self,
        problem: &SchedProblem<'_>,
        ws: &mut EngineWorkspace,
    ) -> Result<Schedule, SchedFailure> {
        // A horizon no schedule needs to exceed: every operation run
        // back to back.
        let serial: u64 = problem
            .body()
            .ops()
            .iter()
            .map(|op| {
                let desc = problem.machine().desc(op.kind);
                u64::from(desc.latency).max(desc.reservation.len() as u64)
            })
            .sum();
        let horizon = u32::try_from(serial + 8).unwrap_or(u32::MAX / 8);
        let mut decisions = DecisionStats::default();
        let mut heuristic = SlackHeuristic {
            policy: self.config.direction,
        };
        // Straight-line forcing advances one cycle per ejection, so packing
        // long non-pipelined reservations (the divider's 17-cycle window)
        // can need far more central-loop iterations than modulo scheduling
        // does; scale the budget by the longest reservation pattern.
        let max_pattern = problem
            .body()
            .ops()
            .iter()
            .map(|op| problem.machine().desc(op.kind).reservation.len() as u64)
            .max()
            .unwrap_or(1);
        // Straight-line horizons are disjoint from the modulo II range, so
        // a shared cache would only retain useless giant matrices; use a
        // private one.
        crate::engine::run_framework_from(
            problem,
            &mut heuristic,
            self.config.budget_factor.max(4) * max_pattern.max(4),
            horizon,
            horizon.saturating_mul(4),
            self.config.increment,
            true,
            None,
            &MinDistCache::new(),
            &mut decisions,
            ws,
        )
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SlackConfig {
        &self.config
    }
}

struct SlackHeuristic {
    policy: DirectionPolicy,
}

impl Heuristic for SlackHeuristic {
    fn begin_attempt(&mut self, _st: &EngineState<'_, '_>) {}

    fn choose(&mut self, st: &EngineState<'_, '_>, decisions: &mut DecisionStats) -> usize {
        let mut best = usize::MAX;
        let mut best_key = (i64::MAX, i32::MAX, usize::MAX);
        let mut ties = 0u32;
        for node in st.unplaced() {
            let priority = st.dynamic_priority(node);
            if priority < best_key.0 {
                ties = 1;
            } else if priority == best_key.0 {
                ties += 1;
            }
            // Ties are broken by choosing the operation with the smallest
            // Lstart: "this top-down bias interacts well with the
            // scheduler's backtracking policy" (§4.3). The node index makes
            // the key total, so the winner is independent of the order
            // `unplaced()` yields nodes in (the indexed ready set permutes
            // under swap-remove; `ties` counts nodes at the global minimum
            // priority, which is also order-invariant).
            let key = (priority, st.lstart[node], node);
            if key < best_key {
                best_key = key;
                best = node;
            }
        }
        decisions.selections += 1;
        if ties == 1 {
            decisions.unique_min_priority += 1;
        }
        best
    }

    fn direction(
        &mut self,
        st: &EngineState<'_, '_>,
        node: usize,
        decisions: &mut DecisionStats,
    ) -> Direction {
        if st.slack(node) <= 0 {
            decisions.zero_slack += 1;
            return Direction::Early;
        }
        match self.policy {
            DirectionPolicy::AlwaysEarly => Direction::Early,
            DirectionPolicy::AlwaysLate => Direction::Late,
            DirectionPolicy::Bidirectional => bidirectional_direction(st, node, decisions),
        }
    }
}

/// The §5.2 lifetime-sensitive direction choice.
///
/// Only *stretchable* register flow dependences count: loop invariants live
/// in the GPR file (and never appear as arcs), duplicate inputs of the same
/// value count once, and self-recurrences have fixed lengths.
fn bidirectional_direction(
    st: &EngineState<'_, '_>,
    node: usize,
    decisions: &mut DecisionStats,
) -> Direction {
    let problem = st.problem;
    let body = problem.body();
    let n = problem.num_real_ops();
    let ii = i64::from(st.ii);

    // Pseudo nodes (Stop) have no lifetimes to protect: place early to
    // minimise the overall schedule length.
    if node >= n {
        decisions.isolated_early += 1;
        return Direction::Early;
    }
    let op_id = lsms_ir::OpId::new(node);

    // Stretchable inputs, deduplicated by value. The central loop must not
    // allocate, so a duplicate is found by rescanning the earlier in-deps
    // (a handful per operation) rather than by collecting a seen-set.
    let stretchable = |dep: &lsms_ir::Dep| dep.is_register_flow() && !dep.is_self_arc();
    let mut inputs = 0usize;
    for (i, dep) in body.deps_to(op_id).enumerate() {
        if !stretchable(dep) {
            continue;
        }
        if body
            .deps_to(op_id)
            .take(i)
            .any(|earlier| stretchable(earlier) && earlier.value == dep.value)
        {
            continue; // duplicate input: do not count a lifetime twice
        }
        let v = dep.value.expect("register flow arcs carry a value");
        let d = dep.from.index();
        // If Estart(d) + MinLT(v) >= omega*II + Lstart(node), this use can
        // never be the one stretching v's lifetime.
        let minlt = st.minlt[v.index()].expect("flow-used value has a MinLT");
        let pinned = st.effective_estart(d) + minlt
            >= i64::from(dep.omega) * ii + i64::from(st.lstart[node]);
        if !pinned {
            inputs += 1;
        }
    }
    // Stretchable outputs: in SSA form, placing the operation early always
    // stretches its result's lifetime, provided someone else consumes it.
    let outputs = usize::from(body.deps_from(op_id).any(stretchable));

    if inputs == 0 && outputs == 0 {
        // E.g. an accumulator not referenced until the loop exits: place
        // early to minimise the overall schedule length.
        decisions.isolated_early += 1;
        return Direction::Early;
    }
    if inputs > outputs {
        decisions.early_more_inputs += 1;
        return Direction::Early;
    }
    if inputs < outputs {
        decisions.late_more_outputs += 1;
        return Direction::Late;
    }

    // Tie: the placement cannot affect final pressure, so minimise
    // backtracking by placing near whichever neighbour group is less
    // likely to be ejected — the one with the larger placed fraction.
    let (pp, pn) = placed_fraction(st, node, || body.deps_to(op_id).map(|d| d.from.index()));
    let (sp, sn) = placed_fraction(st, node, || body.deps_from(op_id).map(|d| d.to.index()));
    // Compare pp/pn vs sp/sn without floating point; empty groups count 0.
    let lhs = pp * sn.max(1);
    let rhs = sp * pn.max(1);
    if lhs > rhs {
        decisions.tie_early += 1;
        Direction::Early
    } else if lhs < rhs {
        decisions.tie_late += 1;
        Direction::Late
    } else if pp == 0 && sp == 0 {
        // Place early if and only if no predecessor or successor has yet
        // been placed.
        decisions.tie_early += 1;
        Direction::Early
    } else {
        decisions.tie_late += 1;
        Direction::Late
    }
}

/// `(placed, total)` over the distinct neighbours other than `node` that
/// `ends` yields. A repeat is found by rescanning the earlier items, so
/// nothing is collected: the central loop stays allocation-free.
fn placed_fraction<I: Iterator<Item = usize>>(
    st: &EngineState<'_, '_>,
    node: usize,
    ends: impl Fn() -> I,
) -> (usize, usize) {
    let (mut placed, mut total) = (0, 0);
    for (i, z) in ends().enumerate() {
        if z == node || ends().take(i).any(|earlier| earlier == z) {
            continue;
        }
        total += 1;
        placed += usize::from(st.is_placed(z));
    }
    (placed, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, ModuloScheduler, SchedContext, SchedProblem, SlackBackend};
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    /// Schedules `p` as straight-line code the way production does:
    /// through the backend adapter with [`SchedContext::straight_line`].
    fn straight_line(backend: &SlackBackend, p: &SchedProblem<'_>) -> Schedule {
        let ctx = SchedContext {
            straight_line: true,
            ..SchedContext::new("schedule:slack")
        };
        backend
            .run(p, &MinDistCache::new(), &mut EngineWorkspace::new(), &ctx)
            .result
            .unwrap()
    }

    /// The paper's Figure 1 loop after load/store elimination: two fadds
    /// feeding each other across two iterations, plus the stores.
    fn figure1_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("sample");
        let ax = b.invariant(ValueType::Addr, "&x");
        let ay = b.invariant(ValueType::Addr, "&y");
        let x = b.named_value(ValueType::Float, "x");
        let y = b.named_value(ValueType::Float, "y");
        let fx = b.op(OpKind::FAdd, &[x, y], Some(x)); // x(i) = x(i-1)+y(i-2)
        let fy = b.op(OpKind::FAdd, &[y, x], Some(y)); // y(i) = y(i-1)+x(i-2)
        let sx = b.op(OpKind::Store, &[ax, x], None);
        let sy = b.op(OpKind::Store, &[ay, y], None);
        b.flow_dep(fx, fx, 1);
        b.flow_dep(fy, fx, 2);
        b.flow_dep(fy, fy, 1);
        b.flow_dep(fx, fy, 2);
        b.flow_dep(fx, sx, 0);
        b.flow_dep(fy, sy, 0);
        b.finish()
    }

    #[test]
    fn schedules_straight_line_loop_at_mii() {
        let mut b = LoopBuilder::new("line");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, p.mii());
        assert_eq!(validate(&p, &s), Ok(()));
        // Dependences respected in absolute time.
        assert!(s.times[1] - s.times[0] >= 13);
        assert!(s.times[2] > s.times[1]);
    }

    #[test]
    fn figure1_schedules_at_ii_2() {
        let body = figure1_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        // RecMII: self arcs give 1; cross pair gives (1+1)/(2+2) -> 1.
        // ResMII: 2 stores on 2 ports = 1, 2 fadds on 1 adder = 2.
        assert_eq!(p.mii(), 2);
        let s = SlackScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, 2);
        assert_eq!(validate(&p, &s), Ok(()));
    }

    #[test]
    fn recurrence_limited_loop_achieves_rec_mii() {
        // A 4-op recurrence circuit of fmuls: L = 8, omega 1 -> RecMII 8.
        let mut b = LoopBuilder::new("rec");
        let mut vals = Vec::new();
        for _ in 0..4 {
            vals.push(b.new_value(ValueType::Float));
        }
        let mut ops = Vec::new();
        for i in 0..4 {
            let prev = vals[(i + 3) % 4];
            let o = b.op(OpKind::FMul, &[prev, prev], Some(vals[i]));
            ops.push(o);
        }
        for i in 0..3 {
            b.flow_dep(ops[i], ops[i + 1], 0);
        }
        b.flow_dep(ops[3], ops[0], 1);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 8);
        let s = SlackScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, 8);
        assert_eq!(validate(&p, &s), Ok(()));
    }

    #[test]
    fn saturated_adder_schedules_at_res_mii() {
        // 6 independent fadds on one adder: ResMII = 6.
        let mut b = LoopBuilder::new("sat");
        let f = b.invariant(ValueType::Float, "f");
        for _ in 0..6 {
            let r = b.new_value(ValueType::Float);
            b.op(OpKind::FAdd, &[f, f], Some(r));
        }
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.mii(), 6);
        let s = SlackScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, 6);
        assert_eq!(validate(&p, &s), Ok(()));
    }

    #[test]
    fn divider_loop_schedules() {
        let mut b = LoopBuilder::new("div");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let q = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let dv = b.op(OpKind::FDiv, &[x, x], Some(q));
        let st = b.op(OpKind::Store, &[a, q], None);
        b.flow_dep(ld, dv, 0);
        b.flow_dep(dv, st, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.mii(), 17);
        let s = SlackScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, 17);
        assert_eq!(validate(&p, &s), Ok(()));
    }

    #[test]
    fn all_direction_policies_produce_valid_schedules() {
        let body = figure1_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        for policy in [
            DirectionPolicy::Bidirectional,
            DirectionPolicy::AlwaysEarly,
            DirectionPolicy::AlwaysLate,
        ] {
            let s = SlackScheduler::with_config(SlackConfig {
                direction: policy,
                ..SlackConfig::default()
            })
            .run(&p)
            .unwrap();
            assert_eq!(validate(&p, &s), Ok(()), "{policy:?}");
        }
    }

    #[test]
    fn decision_stats_are_recorded() {
        let body = figure1_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let (result, decisions) = SlackScheduler::new().run_in(
            &p,
            &MinDistCache::new(),
            None,
            &mut EngineWorkspace::new(),
        );
        result.unwrap();
        assert!(decisions.selections > 0);
        assert_eq!(
            decisions.selections,
            decisions.zero_slack + decisions.with_slack()
        );
    }

    #[test]
    fn straight_line_mode_never_wraps() {
        let body = figure1_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = straight_line(&SlackBackend::bidirectional(), &p);
        assert_eq!(validate(&p, &s), Ok(()));
        // One iteration, no overlap: the schedule fits within the "II".
        assert!(s.length() <= i64::from(s.ii));
        // Dependences hold in plain (non-modulo) time for omega-0 arcs.
        assert!(s.times[2] > s.times[0], "store follows its fadd");
    }

    #[test]
    fn straight_line_bidirectional_saves_pressure() {
        // A load feeding a long chain: late placement shortens x's
        // lifetime in the block too.
        let mut b = LoopBuilder::new("blk");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let seed = b.new_value(ValueType::Float);
        let mut prev_val = seed;
        let mut prev_op = None;
        for _ in 0..20 {
            let v = b.new_value(ValueType::Float);
            let o = b.op(OpKind::FAdd, &[prev_val, prev_val], Some(v));
            if let Some(po) = prev_op {
                b.flow_dep(po, o, 0);
            }
            prev_val = v;
            prev_op = Some(o);
        }
        let sum = b.new_value(ValueType::Float);
        let join = b.op(OpKind::FAdd, &[x, prev_val], Some(sum));
        b.flow_dep(ld, join, 0);
        b.flow_dep(prev_op.unwrap(), join, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let bi = straight_line(&SlackBackend::bidirectional(), &p);
        let early = straight_line(&SlackBackend::early(), &p);
        let lt = |s: &Schedule| s.times[21] - s.times[0];
        assert!(
            lt(&bi) <= lt(&early),
            "bidirectional {} vs early {}",
            lt(&bi),
            lt(&early)
        );
        assert_eq!(
            lt(&bi),
            13,
            "load issues exactly its latency before the join"
        );
    }

    #[test]
    fn empty_loop_schedules_trivially() {
        let body = LoopBuilder::new("empty").finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, 1);
        assert!(s.times.is_empty());
    }

    #[test]
    fn lifetime_heuristic_places_loads_late_and_stores_early() {
        // load -> long chain -> store. A unidirectional (early) scheduler
        // issues the load at cycle 0 even when its consumer cannot start
        // until much later; the bidirectional heuristic delays it.
        let mut b = LoopBuilder::new("stretch");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        // A chain of 30 fadds from an unrelated live-in keeps the critical
        // path long so the load has slack.
        let seed = b.new_value(ValueType::Float);
        let mut prev_val = seed;
        let mut prev_op = None;
        for _ in 0..30 {
            let v = b.new_value(ValueType::Float);
            let o = b.op(OpKind::FAdd, &[prev_val, prev_val], Some(v));
            if let Some(po) = prev_op {
                b.flow_dep(po, o, 0);
            }
            prev_val = v;
            prev_op = Some(o);
        }
        let sum = b.new_value(ValueType::Float);
        let join = b.op(OpKind::FAdd, &[x, prev_val], Some(sum));
        b.flow_dep(ld, join, 0);
        b.flow_dep(prev_op.unwrap(), join, 0);
        let st = b.op(OpKind::Store, &[a, sum], None);
        b.flow_dep(join, st, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();

        let bi = SlackScheduler::new().run(&p).unwrap();
        let early = SlackScheduler::with_config(SlackConfig {
            direction: DirectionPolicy::AlwaysEarly,
            ..SlackConfig::default()
        })
        .run(&p)
        .unwrap();
        assert_eq!(validate(&p, &bi), Ok(()));
        assert_eq!(validate(&p, &early), Ok(()));
        // x's lifetime = join_time - load_time; the bidirectional schedule
        // must not stretch it beyond the latency-imposed minimum by more
        // than the early schedule does.
        let lt = |s: &Schedule| s.times[31] - s.times[0];
        assert!(
            lt(&bi) <= lt(&early),
            "bidirectional lifetime {} > early lifetime {}",
            lt(&bi),
            lt(&early)
        );
        assert_eq!(
            lt(&bi),
            13,
            "load should issue exactly 13 cycles before its use"
        );
    }
}
