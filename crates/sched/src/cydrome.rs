//! A Cydrome-style baseline scheduler (§8, \[6\]): the paper's "Old
//! Scheduler".
//!
//! Cydrome's production scheduler shares the backtracking operation-driven
//! framework but uses very different heuristics:
//!
//! * a **static priority** favouring operations whose *initial* slack is
//!   minimal — it cannot detect when a recurrence circuit becomes "fixed"
//!   by a placement, because it never re-reads the bounds;
//! * to be safe, it places **all operations on recurrence circuits before
//!   any other operation**;
//! * placement is **unidirectional**: always as early as possible.
//!
//! The paper measures it backtracking 3.7× as much as the slack scheduler
//! and failing to pipeline 14 of the 1,525 loops.

use crate::engine::{run_framework, Direction, EngineState, EngineWorkspace, Heuristic};
use crate::{DecisionStats, MinDistCache, SchedFailure, SchedProblem, Schedule};

/// The baseline scheduler reproducing Cydrome's behaviour as described in
/// §8.
///
/// # Example
///
/// ```
/// use lsms_ir::{LoopBuilder, OpKind, ValueType};
/// use lsms_machine::huff_machine;
/// use lsms_sched::{CydromeScheduler, SchedProblem};
///
/// let mut b = LoopBuilder::new("t");
/// let a = b.invariant(ValueType::Float, "a");
/// let x = b.new_value(ValueType::Float);
/// b.op(OpKind::FMul, &[a, a], Some(x));
/// let body = b.finish();
/// let machine = huff_machine();
/// let problem = SchedProblem::new(&body, &machine)?;
/// let schedule = CydromeScheduler::new().run(&problem)?;
/// assert_eq!(schedule.ii, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct CydromeScheduler {
    /// Central-loop iteration budget per II attempt, as a multiple of the
    /// operation count (same meaning as
    /// [`SlackConfig::budget_factor`](crate::SlackConfig::budget_factor)).
    pub budget_factor: u64,
    /// Hard cap on attempted IIs; `None` derives `4·MII + 64`.
    pub max_ii: Option<u32>,
}

impl CydromeScheduler {
    /// A baseline scheduler with default limits.
    pub fn new() -> Self {
        Self {
            budget_factor: 10,
            max_ii: None,
        }
    }

    /// Schedules the problem with the static-priority, always-early
    /// heuristics.
    ///
    /// # Errors
    ///
    /// Returns [`SchedFailure`] if no feasible schedule is found up to the
    /// II cap — the fate of 14 loops in Table 4.
    pub fn run(&self, problem: &SchedProblem<'_>) -> Result<Schedule, SchedFailure> {
        self.run_in(problem, &MinDistCache::new(), &mut EngineWorkspace::new())
    }

    /// As [`run`](Self::run), sharing `cache` so MinDist matrices already
    /// computed for this problem (e.g. by the slack scheduler) are reused
    /// instead of recomputed, and drawing every per-attempt allocation
    /// from a caller-owned [`EngineWorkspace`] (reuse is allocation-only:
    /// results are byte-identical). This is the entry point
    /// [`ModuloScheduler`](crate::ModuloScheduler) adapters use.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_in(
        &self,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
    ) -> Result<Schedule, SchedFailure> {
        let mut decisions = DecisionStats::default();
        let max_ii = self
            .max_ii
            .unwrap_or(4 * problem.mii() + 64)
            .max(problem.mii());
        let mut heuristic = CydromeHeuristic::new(problem);
        run_framework(
            problem,
            &mut heuristic,
            self.budget_factor.max(1),
            max_ii,
            crate::IiIncrement::default(),
            None,
            cache,
            &mut decisions,
            ws,
        )
    }
}

struct CydromeHeuristic {
    /// True for nodes on non-trivial recurrence circuits.
    on_recurrence: Vec<bool>,
    /// Static rank per node, smaller = scheduled sooner; frozen at the
    /// start of each II attempt.
    rank: Vec<u64>,
}

impl CydromeHeuristic {
    fn new(problem: &SchedProblem<'_>) -> Self {
        let n = problem.num_nodes();
        let components = problem.components();
        // `Start` and `Stop`, the last two nodes, lie on no circuit.
        let real = (0..problem.num_real_ops()).map(|op| components.on_recurrence(op));
        Self {
            on_recurrence: real.chain([false, false]).collect(),
            rank: vec![0; n],
        }
    }
}

impl Heuristic for CydromeHeuristic {
    fn begin_attempt(&mut self, st: &EngineState<'_, '_>) {
        // Static priority from the *initial* slack: recurrence operations
        // first (smallest initial slack first), then the rest, Stop last.
        let n = st.problem.num_nodes();
        let stop = st.problem.stop();
        for node in 0..n {
            let slack = st.slack(node).max(0) as u64;
            let group: u64 = if node == stop {
                2
            } else if self.on_recurrence[node] {
                0
            } else {
                1
            };
            // group ≫ slack ≫ index, packed into one sortable key.
            self.rank[node] = (group << 60) | (slack.min(1 << 30) << 20) | node as u64;
        }
    }

    fn choose(&mut self, st: &EngineState<'_, '_>, decisions: &mut DecisionStats) -> usize {
        decisions.selections += 1;
        // The rank embeds the node index in its low 20 bits, so every rank
        // is unique and the minimum does not depend on the (arbitrary)
        // order the indexed ready set yields unplaced nodes in.
        st.unplaced()
            .min_by_key(|&node| self.rank[node])
            .expect("choose called with work remaining")
    }

    fn direction(
        &mut self,
        _st: &EngineState<'_, '_>,
        _node: usize,
        _decisions: &mut DecisionStats,
    ) -> Direction {
        Direction::Early
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, SlackScheduler};
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn chain_with_recurrence() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let acc = b.new_value(ValueType::Float);
        let tmp = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let mul = b.op(OpKind::FMul, &[x, acc], Some(tmp));
        let add = b.op(OpKind::FAdd, &[tmp, acc], Some(acc));
        b.flow_dep(ld, mul, 0);
        b.flow_dep(mul, add, 0);
        b.flow_dep(add, mul, 1);
        b.flow_dep(add, add, 1);
        b.finish()
    }

    #[test]
    fn baseline_produces_valid_schedules() {
        let body = chain_with_recurrence();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = CydromeScheduler::new().run(&p).unwrap();
        assert_eq!(validate(&p, &s), Ok(()));
        assert!(s.ii >= p.mii());
    }

    #[test]
    fn baseline_never_beats_slack_on_these_loops() {
        let body = chain_with_recurrence();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let baseline = CydromeScheduler::new().run(&p).unwrap();
        let slack = SlackScheduler::new().run(&p).unwrap();
        assert!(slack.ii <= baseline.ii);
    }

    #[test]
    fn recurrence_ops_are_placed_first() {
        let body = chain_with_recurrence();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let mut h = CydromeHeuristic::new(&p);
        // mul (1) and add (2) are on the circuit; ld (0) is not.
        assert!(h.on_recurrence[1] && h.on_recurrence[2]);
        assert!(!h.on_recurrence[0]);
        let _ = &mut h;
    }

    /// The facts read off the problem's one Tarjan pass (RecMII, the
    /// recurrence ops, the loop class and Cydrome's recurrences-first
    /// flags) against the same facts computed from `tarjan_scc` of the
    /// body.
    fn check_scc_facts(name: &str, problem: &SchedProblem<'_>) {
        use lsms_ir::{tarjan_scc, LoopClass};
        let body = problem.body();
        let n = problem.num_real_ops();
        let sccs = tarjan_scc(body);
        let components = problem.components();
        assert_eq!(components.sizes.len(), sccs.len(), "{name}");
        let mut comp = vec![0usize; n];
        let mut local = vec![0usize; n];
        for (c, scc) in sccs.iter().enumerate() {
            let id = components.of[scc[0].index()];
            assert_eq!(components.sizes[id as usize] as usize, scc.len(), "{name}");
            for (i, op) in scc.iter().enumerate() {
                assert_eq!(components.of[op.index()], id, "{name}: {op}");
                comp[op.index()] = c;
                local[op.index()] = i;
            }
        }
        let mut inner = vec![Vec::new(); sccs.len()];
        for arc in problem.arcs() {
            if arc.from < n && arc.to < n && comp[arc.from] == comp[arc.to] {
                inner[comp[arc.from]].push((
                    local[arc.from],
                    local[arc.to],
                    arc.latency,
                    i64::from(arc.omega),
                ));
            }
        }
        let mut rec_mii = 1;
        for (scc, arcs) in sccs.iter().zip(&inner) {
            if !arcs.is_empty() {
                let ratio =
                    crate::bounds::component_rec_mii(scc.len(), arcs, &mut Default::default());
                rec_mii = rec_mii.max(ratio.expect("no zero-omega circuit"));
            }
        }
        assert_eq!(problem.rec_mii(), rec_mii, "{name}");

        let on_circuit: Vec<bool> = (0..n)
            .map(|op| sccs[comp[op]].len() >= 2)
            .chain([false, false])
            .collect();
        assert_eq!(
            CydromeHeuristic::new(problem).on_recurrence,
            on_circuit,
            "{name}"
        );
        let on_recurrences = on_circuit.iter().filter(|&&on| on).count();
        assert_eq!(components.ops_on_recurrences(), on_recurrences, "{name}");
        assert_eq!(
            crate::bounds::ops_on_recurrences(body),
            on_recurrences,
            "{name}"
        );
        let class = LoopClass::new(body.has_conditional(), on_recurrences > 0);
        assert_eq!(problem.class(), class, "{name}");
        assert_eq!(body.class(), class, "{name}");
    }

    #[test]
    fn problem_scc_facts_match_tarjan_on_the_corpus_and_random_graphs() {
        let machine = huff_machine();
        let corpus = lsms_loops::corpus(lsms_loops::PAPER_CORPUS_SIZE, lsms_loops::CORPUS_SEED);
        let mut recurrent = 0;
        for compiled in &corpus {
            let problem = SchedProblem::new(&compiled.body, &machine).unwrap();
            check_scc_facts(&compiled.def.name, &problem);
            recurrent += usize::from(problem.components().has_recurrence());
        }
        // Both kinds of loop are in the population.
        assert!(
            recurrent > 100 && recurrent < corpus.len() - 100,
            "{recurrent}"
        );
        for (case, size) in crate::test_graphs::bound_cases() {
            let body = crate::test_graphs::random_graph(case, size);
            let problem = SchedProblem::new(&body, &machine).unwrap();
            check_scc_facts(&format!("random case {case}"), &problem);
        }
    }

    #[test]
    fn straight_line_is_still_optimal_for_baseline() {
        // Without recurrences or contention the baseline also meets MII.
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
        let s = CydromeScheduler::new().run(&p).unwrap();
        assert_eq!(s.ii, p.mii());
        assert_eq!(validate(&p, &s), Ok(()));
    }
}
