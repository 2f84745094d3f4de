//! The pluggable scheduler seam: the [`ModuloScheduler`] trait every
//! backend — built-in or external — implements, plus the adapters that
//! expose the slack scheduler (§4–§5) and the Cydrome baseline (§8)
//! through it.
//!
//! The paper frames lifetime-sensitive scheduling as one strategy among
//! several; this trait makes the seam real. A backend is a `Send + Sync`
//! trait object: it names itself, documents itself
//! ([`describe`](ModuloScheduler::describe)), declares what it can do
//! ([`capabilities`](ModuloScheduler::capabilities)), accepts `key=value`
//! options ([`configure`](ModuloScheduler::configure)), and schedules one
//! problem per [`run`](ModuloScheduler::run) call. The pipeline's
//! `BackendRegistry` holds `Arc<dyn ModuloScheduler>` values and derives
//! pass names (`schedule:<name>`), trace span labels, and `--list-backends`
//! rows from the trait, so an exact (SAT/ILP) scheduler or a test stub
//! drops in without touching the session's dispatch code.

use std::sync::Arc;
use std::time::Instant;

use crate::engine::EngineWorkspace;
use crate::{
    DecisionStats, DirectionPolicy, MinDistCache, SchedFailure, SchedProblem, Schedule,
    SlackConfig, SlackScheduler,
};

/// What a backend can do, surfaced by `--list-backends` and checked by
/// the session before it relies on a feature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCaps {
    /// The backend honours [`SchedContext::deadline`] by giving up with
    /// [`SchedFailure::deadline_capped`] set, enabling budget-driven
    /// degradation to a fallback backend.
    pub budget_degradation: bool,
    /// The backend can schedule a body as straight-line code (§8) when
    /// [`SchedContext::straight_line`] is set.
    pub straight_line: bool,
    /// The backend reports meaningful §5.2 decision tallies in
    /// [`BackendRun::decisions`].
    pub decision_stats: bool,
}

impl BackendCaps {
    /// The capability flags as a compact `[a, b, c]` list for
    /// `--list-backends`.
    pub fn flags(&self) -> String {
        let mut out = Vec::new();
        if self.budget_degradation {
            out.push("budget-degradation");
        }
        if self.straight_line {
            out.push("straight-line");
        }
        if self.decision_stats {
            out.push("decision-stats");
        }
        format!("[{}]", out.join(", "))
    }
}

/// Self-documentation a backend provides for `--explain-pass` and
/// `--list-backends`.
#[derive(Clone, Debug)]
pub struct BackendInfo {
    /// One-line summary.
    pub summary: String,
    /// Longer description; empty means "no explanation available".
    pub details: String,
}

/// Per-run context handed to [`ModuloScheduler::run`]: the interned pass
/// label trace spans and reports use, the optional escalation deadline,
/// and whether the session wants straight-line scheduling.
#[derive(Clone, Copy, Debug)]
pub struct SchedContext {
    /// The interned pass name (`schedule:<backend>`); the caller opens a
    /// trace span under this label around `run`, and backends may use it
    /// to label their own events.
    pub pass: &'static str,
    /// Wall-clock deadline on II escalation, when a `--pass-budget`
    /// covers the pass. Backends without
    /// [`BackendCaps::budget_degradation`] may ignore it.
    pub deadline: Option<Instant>,
    /// Schedule as a single basic block (no iteration overlap). Only set
    /// for backends with [`BackendCaps::straight_line`].
    pub straight_line: bool,
}

impl SchedContext {
    /// A context with no deadline and modulo (not straight-line) mode.
    pub fn new(pass: &'static str) -> Self {
        Self {
            pass,
            deadline: None,
            straight_line: false,
        }
    }
}

/// What one backend run produced: the schedule (or failure, kept as
/// data) plus the §5.2 decision tallies (zeroed for backends without
/// [`BackendCaps::decision_stats`]).
#[derive(Debug)]
pub struct BackendRun {
    /// The schedule, or why there is none.
    pub result: Result<Schedule, SchedFailure>,
    /// Heuristic decision tallies accumulated across the run.
    pub decisions: DecisionStats,
}

/// A pluggable modulo-scheduling backend.
///
/// Implementations must be cheap to share (`Arc`) and safe to call from
/// the parallel corpus pool; all per-run mutable state lives in the
/// caller-owned [`EngineWorkspace`] or on the stack.
pub trait ModuloScheduler: Send + Sync + std::fmt::Debug {
    /// The backend's registry name (`slack`, `cydrome`, ...). Must be
    /// stable, unique, and free of `:`/`,`/`=`/whitespace — it becomes
    /// the `schedule:<name>` pass label.
    fn name(&self) -> &str;

    /// Self-documentation for `--explain-pass` and `--list-backends`.
    fn describe(&self) -> BackendInfo;

    /// What the backend supports.
    fn capabilities(&self) -> BackendCaps;

    /// A copy of this backend reconfigured by `key=value` options (from
    /// `--backend NAME:key=val,...`). Unknown keys and malformed values
    /// are errors; the message is wrapped in the session's diagnostic.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending option.
    fn configure(&self, options: &[(String, String)]) -> Result<Arc<dyn ModuloScheduler>, String>;

    /// The slack configuration equivalent to this backend, when there is
    /// one, for callers that rebuild a schedule outside a session with
    /// [`SlackScheduler::with_config`]. Simulate-verify does not need it:
    /// the session simulates the kernel it built from this backend's own
    /// schedule, whatever the backend.
    fn verify_config(&self) -> Option<SlackConfig> {
        None
    }

    /// Schedules one problem. Failure is data ([`BackendRun::result`]),
    /// not a panic; the session records counters either way.
    fn run(
        &self,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
        ctx: &SchedContext,
    ) -> BackendRun;
}

/// Shared option parsing for the built-in backends' `configure`.
fn parse_common_option(
    key: &str,
    value: &str,
    budget_factor: &mut u64,
    max_ii: &mut Option<u32>,
) -> Result<bool, String> {
    match key {
        "budget-factor" => {
            *budget_factor = value
                .parse()
                .map_err(|_| format!("invalid value `{value}` for `budget-factor`"))?;
            Ok(true)
        }
        "max-ii" => {
            *max_ii = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid value `{value}` for `max-ii`"))?,
            );
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// The slack scheduler (§4–§5) as a backend. Three registry instances
/// exist — `slack`, `early`, `late` — one per direction policy, so the
/// pass-name mapping of the pre-registry enum is preserved exactly.
///
/// Options: `increment=four-percent|by-one`, `budget-factor=N`,
/// `max-ii=N`.
#[derive(Clone, Debug)]
pub struct SlackBackend {
    name: &'static str,
    summary: &'static str,
    details: &'static str,
    config: SlackConfig,
}

impl SlackBackend {
    /// The `slack` backend: the paper's bidirectional scheduler.
    pub fn bidirectional() -> Self {
        Self {
            name: "slack",
            summary: "bidirectional slack modulo scheduling (§4-§5)",
            details: "The paper's lifetime-sensitive scheduler: operations are \
                      placed early or late depending on whether stretchable \
                      inputs outnumber stretchable outputs, with limited \
                      ejection backtracking and 4% II escalation (codes E0501 \
                      on failure, E0502 if validation of a produced schedule \
                      fails).",
            config: SlackConfig::default(),
        }
    }

    /// The `early` backend: the §7 always-early ablation.
    pub fn early() -> Self {
        Self {
            name: "early",
            summary: "always-early slack scheduling (the §7 ablation)",
            details: "The slack scheduler with the direction heuristic pinned \
                      to early placement — the unidirectional legacy of list \
                      scheduling, used to isolate the value of \
                      bidirectionality.",
            config: SlackConfig {
                direction: DirectionPolicy::AlwaysEarly,
                ..SlackConfig::default()
            },
        }
    }

    /// The `late` backend: always-late placement.
    pub fn late() -> Self {
        Self {
            name: "late",
            summary: "always-late slack scheduling",
            details: "The slack scheduler with the direction heuristic pinned \
                      to late placement.",
            config: SlackConfig {
                direction: DirectionPolicy::AlwaysLate,
                ..SlackConfig::default()
            },
        }
    }

    /// The backend's current slack configuration.
    pub fn config(&self) -> &SlackConfig {
        &self.config
    }
}

impl ModuloScheduler for SlackBackend {
    fn name(&self) -> &str {
        self.name
    }

    fn describe(&self) -> BackendInfo {
        BackendInfo {
            summary: self.summary.to_owned(),
            details: self.details.to_owned(),
        }
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            budget_degradation: true,
            straight_line: true,
            decision_stats: true,
        }
    }

    fn configure(&self, options: &[(String, String)]) -> Result<Arc<dyn ModuloScheduler>, String> {
        let mut config = self.config.clone();
        for (key, value) in options {
            let mut max_ii = config.max_ii;
            if parse_common_option(key, value, &mut config.budget_factor, &mut max_ii)? {
                config.max_ii = max_ii;
                continue;
            }
            match key.as_str() {
                "increment" => {
                    config.increment = match value.as_str() {
                        "four-percent" => crate::IiIncrement::FourPercent,
                        "by-one" => crate::IiIncrement::ByOne,
                        _ => {
                            return Err(format!(
                                "invalid value `{value}` for `increment` \
                                 (want four-percent or by-one)"
                            ))
                        }
                    }
                }
                _ => {
                    return Err(format!(
                        "unknown option `{key}` \
                         (options: increment, budget-factor, max-ii)"
                    ))
                }
            }
        }
        Ok(Arc::new(Self { config, ..*self }))
    }

    fn verify_config(&self) -> Option<SlackConfig> {
        Some(self.config.clone())
    }

    fn run(
        &self,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
        ctx: &SchedContext,
    ) -> BackendRun {
        if ctx.straight_line {
            return BackendRun {
                result: SlackScheduler::with_config(self.config.clone())
                    .straight_line_in(problem, ws),
                decisions: DecisionStats::default(),
            };
        }
        let scheduler = SlackScheduler::with_config(self.config.clone());
        let (result, decisions) = scheduler.run_in(problem, cache, ctx.deadline, ws);
        BackendRun { result, decisions }
    }
}

/// The Cydrome-style baseline (§8) as the `cydrome` backend — the cheap
/// scheduler budget-capped sessions degrade to.
///
/// Options: `budget-factor=N`, `max-ii=N`.
#[derive(Clone, Debug)]
pub struct CydromeBackend {
    scheduler: crate::CydromeScheduler,
}

impl CydromeBackend {
    /// The baseline backend with default limits.
    pub fn new() -> Self {
        Self {
            scheduler: crate::CydromeScheduler::new(),
        }
    }
}

impl Default for CydromeBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ModuloScheduler for CydromeBackend {
    fn name(&self) -> &str {
        "cydrome"
    }

    fn describe(&self) -> BackendInfo {
        BackendInfo {
            summary: "Cydrome-style baseline scheduler (§8)".to_owned(),
            details: "The 'old scheduler' the paper compares against: \
                      operation-driven placement without lifetime \
                      sensitivity."
                .to_owned(),
        }
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            budget_degradation: false,
            straight_line: false,
            decision_stats: false,
        }
    }

    fn configure(&self, options: &[(String, String)]) -> Result<Arc<dyn ModuloScheduler>, String> {
        let mut scheduler = self.scheduler.clone();
        for (key, value) in options {
            if !parse_common_option(
                key,
                value,
                &mut scheduler.budget_factor,
                &mut scheduler.max_ii,
            )? {
                return Err(format!(
                    "unknown option `{key}` (options: budget-factor, max-ii)"
                ));
            }
        }
        Ok(Arc::new(Self { scheduler }))
    }

    fn run(
        &self,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
        _ctx: &SchedContext,
    ) -> BackendRun {
        BackendRun {
            result: self.scheduler.run_in(problem, cache, ws),
            decisions: DecisionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn sample_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        b.finish()
    }

    #[test]
    fn adapters_match_their_direct_schedulers() {
        let body = sample_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let cache = MinDistCache::new();

        let direct = SlackScheduler::new()
            .run_in(&problem, &cache, None, &mut EngineWorkspace::new())
            .0
            .unwrap();
        let via_trait = SlackBackend::bidirectional()
            .run(
                &problem,
                &cache,
                &mut EngineWorkspace::new(),
                &SchedContext::new("schedule:slack"),
            )
            .result
            .unwrap();
        assert_eq!(direct.ii, via_trait.ii);
        assert_eq!(direct.times, via_trait.times);
        assert_eq!(direct.assignments, via_trait.assignments);

        let direct = crate::CydromeScheduler::new()
            .run_in(&problem, &cache, &mut EngineWorkspace::new())
            .unwrap();
        let via_trait = CydromeBackend::new()
            .run(
                &problem,
                &cache,
                &mut EngineWorkspace::new(),
                &SchedContext::new("schedule:cydrome"),
            )
            .result
            .unwrap();
        assert_eq!(direct.ii, via_trait.ii);
        assert_eq!(direct.times, via_trait.times);
    }

    #[test]
    fn configure_applies_and_rejects_options() {
        let opt = |k: &str, v: &str| vec![(k.to_owned(), v.to_owned())];
        let slack = SlackBackend::bidirectional();
        let tuned = slack.configure(&opt("budget-factor", "3")).unwrap();
        assert_eq!(tuned.name(), "slack");
        assert!(tuned.verify_config().unwrap().budget_factor == 3);
        assert!(slack.configure(&opt("increment", "by-one")).is_ok());
        assert!(slack.configure(&opt("increment", "sometimes")).is_err());
        assert!(slack.configure(&opt("quantum", "1")).is_err());
        assert!(slack.configure(&opt("max-ii", "not-a-number")).is_err());

        let cydrome = CydromeBackend::new();
        assert!(cydrome.configure(&opt("budget-factor", "5")).is_ok());
        assert!(cydrome.configure(&opt("increment", "by-one")).is_err());
        assert!(cydrome.verify_config().is_none());
    }

    #[test]
    fn capability_flags_render_for_listing() {
        assert_eq!(
            SlackBackend::bidirectional().capabilities().flags(),
            "[budget-degradation, straight-line, decision-stats]"
        );
        assert_eq!(CydromeBackend::new().capabilities().flags(), "[]");
    }

    #[test]
    fn direction_is_pinned_by_backend_name() {
        assert_eq!(
            SlackBackend::early().config().direction,
            DirectionPolicy::AlwaysEarly
        );
        assert_eq!(
            SlackBackend::late().config().direction,
            DirectionPolicy::AlwaysLate
        );
        assert_eq!(
            SlackBackend::bidirectional().config().direction,
            DirectionPolicy::Bidirectional
        );
    }
}
