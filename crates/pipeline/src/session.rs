//! The `CompileSession` pass manager: the one place the fixed pipeline
//! (parse → sema → lower → depgraph → schedule → regalloc → codegen →
//! simulate-verify) is wired together.
//!
//! The driver, the bench library, and every experiment binary build a
//! session and call [`CompileSession::compile_source`],
//! [`CompileSession::run_loop`], or
//! [`CompileSession::evaluate_variants`]; the session owns stage order,
//! `MinDistCache` sharing, error unification ([`LsmsError`]), and
//! per-pass observability (the [`PassReport`]).

use std::sync::Mutex;
use std::time::Instant;

use lsms_codegen::{KernelCode, MveKernel};
use lsms_front::{analyze, lex, lower_loop, parse, CompiledLoop, CompiledUnit, LoopDef};
use lsms_ir::{Fingerprint, LoopBody, LoopClass, RegClass};
use lsms_machine::Machine;
use lsms_obs::ScheduleQuality;
use lsms_regalloc::{allocate_rotating, RotatingAllocation, Strategy};
use lsms_sched::pressure::{gpr_count, measure_cached, min_avg_cached};
use lsms_sched::{
    bounds, validate, DecisionStats, EngineWorkspace, MinDistCache, PressureReport, ProblemHasher,
    SchedContext, SchedProblem, SchedStats, Schedule,
};
use lsms_sim::{EquivReport, Oracle};

use crate::backend::{lookup_backend, resolve_backend, BackendEntry, BackendSelection};
use crate::error::{LsmsError, Stage};
use crate::quality::quality_of;
use crate::report::PassReport;
use crate::schedcache::{CachedRun, ScheduleCache};

/// A wall-clock deadline for one pass. When an invocation overruns it,
/// the session emits a `budget_exceeded` trace event and bumps the
/// pass's `budget_exceeded` counter in the [`PassReport`] — it never
/// aborts the pass. Groundwork for degrading to a cheaper backend when a
/// latency budget is blown.
#[derive(Clone, Copy, Debug)]
pub struct PassBudget {
    /// The pass the deadline applies to. Use
    /// [`pass_info`](crate::pass_info) to resolve a user-supplied name to
    /// its interned registry entry.
    pub pass: &'static str,
    /// The per-invocation wall-clock deadline.
    pub limit: std::time::Duration,
}

/// Parameters of the simulate-verify pass.
#[derive(Clone, Copy, Debug)]
pub struct VerifySpec {
    /// Loop trip count to simulate.
    pub trip: u64,
    /// Seed for the deterministic input generator.
    pub seed: u64,
}

impl VerifySpec {
    /// A verify spec with the driver's historical default seed.
    pub fn with_trip(trip: u64) -> Self {
        Self { trip, seed: 0x5eed }
    }
}

/// Everything a [`CompileSession`] needs to know before running.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Target machine description.
    pub machine: Machine,
    /// Scheduler backend, by registry name with `key=value` options
    /// (default: bidirectional slack). Resolved against the
    /// [backend registry](crate::backend) when the session is built.
    pub backend: BackendSelection,
    /// Unroll factor applied before scheduling (1 = off).
    pub unroll: u32,
    /// Schedule as a single basic block instead of a modulo pipeline.
    pub straight_line: bool,
    /// Run rotating register allocation (implied by `codegen`).
    pub regalloc: bool,
    /// Emit rotating-file kernel code (implied by `verify`).
    pub codegen: bool,
    /// Also emit the modulo-variable-expansion kernel, and (when
    /// verifying) check it against the reference too.
    pub mve: bool,
    /// Run the simulate-verify pass with these parameters. It simulates
    /// the kernels this session emitted, so it implies `codegen`; it
    /// rejects unrolled and straight-line sessions.
    pub verify: Option<VerifySpec>,
    /// Optional per-pass wall-clock deadlines (see [`PassBudget`]).
    pub budgets: Vec<PassBudget>,
}

impl SessionConfig {
    /// The default pipeline for a machine: bidirectional slack
    /// scheduling, no unrolling, no codegen, no verification.
    pub fn new(machine: Machine) -> Self {
        Self {
            machine,
            backend: BackendSelection::default(),
            unroll: 1,
            straight_line: false,
            regalloc: false,
            codegen: false,
            mve: false,
            verify: None,
            budgets: Vec::new(),
        }
    }
}

/// Owned results of running the pipeline on one loop.
///
/// [`SchedProblem`] borrows the loop body, so it is not stored; rebuild
/// it deterministically with [`LoopArtifacts::problem`] when a consumer
/// (report rendering, pressure measurement) needs it.
#[derive(Clone, Debug)]
pub struct LoopArtifacts {
    /// The loop's name.
    pub name: String,
    /// The scheduled body — the unrolled one if the session unrolls.
    pub body: LoopBody,
    /// The schedule the configured backend produced.
    pub schedule: Schedule,
    /// RR-file rotating allocation, when the session ran regalloc.
    pub rr: Option<RotatingAllocation>,
    /// ICR-file rotating allocation, when the session ran regalloc.
    pub icr: Option<RotatingAllocation>,
    /// Rotating-file kernel, when the session ran codegen.
    pub kernel: Option<KernelCode>,
    /// Modulo-variable-expansion kernel, when requested.
    pub mve: Option<MveKernel>,
    /// Equivalence report, when the session ran simulate-verify.
    pub equiv: Option<EquivReport>,
    /// The loop's schedule-quality record (II vs. MII, MaxLive,
    /// lifetimes, backtracking work) for the observatory.
    pub quality: ScheduleQuality,
}

impl LoopArtifacts {
    /// Rebuilds the scheduling problem for this body (cheap and
    /// deterministic — the same problem the schedule was produced from).
    pub fn problem<'a>(&'a self, machine: &'a Machine) -> Result<SchedProblem<'a>, LsmsError> {
        Ok(SchedProblem::new(&self.body, machine)?)
    }
}

/// One scheduler's result on one loop, with failure kept as data: a loop
/// that fails to pipeline still reports the last II attempted and its
/// work counters (Table 4's convention).
#[derive(Clone, Debug)]
pub struct SchedOutcome {
    /// Achieved II, or `None` if the loop failed to pipeline.
    pub ii: Option<u32>,
    /// The last II attempted (equals `ii` on success).
    pub last_ii: u32,
    /// Register pressure of the final schedule, when one exists.
    pub pressure: Option<PressureReport>,
    /// Work counters.
    pub stats: SchedStats,
    /// True when the configured backend blew its [`PassBudget`] and this
    /// outcome comes from the degradation fallback.
    pub degraded: bool,
}

impl SchedOutcome {
    /// The II this loop contributes to ΣII: achieved or last-attempted.
    pub fn counted_ii(&self) -> u64 {
        u64::from(self.ii.unwrap_or(self.last_ii))
    }
}

/// What one schedule-pass invocation actually ran: the result plus the
/// registry entry that produced it, which is the fallback's after budget
/// degradation — so quality records attribute schedules to the backend
/// that made them, not merely the one that was asked.
struct ScheduledRun {
    result: Result<Schedule, lsms_sched::SchedFailure>,
    pass: &'static str,
    backend: String,
    degraded: bool,
}

/// The three-scheduler evaluation of one loop, the paper's experimental
/// unit and the corpus evaluation's one per-loop record: the loop's
/// identity and Table 2 features, the schedule-independent bounds, and
/// the bidirectional slack, always-early ablation and Cydrome baseline
/// outcomes, all scheduled over one `MinDistCache`.
///
/// [`quality_records`](Self::quality_records) projects it into one
/// [`ScheduleQuality`] row per scheduler; `results/quality.tsv` and
/// `lsmsc --quality` both render those rows.
#[derive(Clone, Debug)]
pub struct LoopEvaluation {
    /// Loop name.
    pub name: String,
    /// Table 3/4 class.
    pub class: LoopClass,
    /// Operation count (including `brtop`).
    pub num_ops: usize,
    /// Basic blocks before if-conversion.
    pub basic_blocks: u32,
    /// Operations on critical resources at MII.
    pub critical_ops: usize,
    /// Operations on non-trivial recurrence circuits.
    pub ops_on_recurrences: usize,
    /// Divider operations (div/mod/sqrt).
    pub div_ops: usize,
    /// Recurrence-constrained MII (§3.1).
    pub rec_mii: u32,
    /// Resource-constrained MII.
    pub res_mii: u32,
    /// `max(RecMII, ResMII)`.
    pub mii: u32,
    /// Schedule-independent `MinAvg` at MII.
    pub min_avg_at_mii: u32,
    /// Loop-invariant (GPR) count.
    pub gprs: u32,
    /// Bidirectional slack scheduler ("New Scheduler").
    pub new: SchedOutcome,
    /// Always-early slack ablation.
    pub early: SchedOutcome,
    /// Cydrome-style baseline ("Old Scheduler").
    pub old: SchedOutcome,
    /// §5.2 decision tallies from the bidirectional run.
    pub decisions: DecisionStats,
}

impl LoopEvaluation {
    /// One [`ScheduleQuality`] row per scheduler in the trio, in the
    /// paper's new/early/old order. Wall time is the only
    /// nondeterministic field; everything else is a pure function of the
    /// (deterministic) evaluation.
    pub fn quality_records(&self) -> [ScheduleQuality; 3] {
        let row = |backend: &str, outcome: &SchedOutcome| {
            quality_of(
                &self.name,
                backend,
                &format!("schedule:{backend}"),
                self.rec_mii,
                self.res_mii,
                self.mii,
                outcome,
            )
        };
        [
            row("slack", &self.new),
            row("early", &self.early),
            row("cydrome", &self.old),
        ]
    }
}

/// The pass manager: the one place the fixed pipeline (parse → sema →
/// lower → depgraph → schedule → regalloc → codegen → simulate-verify) is
/// wired together.
///
/// A session is `Sync`: corpus evaluation calls
/// [`evaluate_variants`](Self::evaluate_variants) from many worker
/// threads against one session, and pass measurements accumulate into
/// the shared report behind a mutex.
#[derive(Debug)]
pub struct CompileSession {
    config: SessionConfig,
    /// The configured backend, resolved once at build time so every
    /// worker thread shares one `Arc`; resolution failure is kept as data
    /// and surfaced by [`backend`](Self::backend) / [`validate`](Self::validate).
    primary: Result<BackendEntry, LsmsError>,
    /// The three-scheduler evaluation trio (`slack`, `early`, `cydrome`),
    /// resolved once so the parallel corpus pool shares the `Arc`s. The
    /// Cydrome baseline is also what a budget-capped schedule pass
    /// degrades to.
    eval: [BackendEntry; 3],
    report: Mutex<PassReport>,
    /// In-memory schedule memoization, shared by every worker thread.
    sched_cache: ScheduleCache,
    /// Problem fingerprints under the session's machine, which is hashed
    /// once here rather than once per loop.
    problem_hasher: ProblemHasher,
}

impl CompileSession {
    /// A session over an explicit configuration.
    ///
    /// Building never fails: an unknown backend name is carried as a
    /// deferred diagnostic that [`validate`](Self::validate) or the first
    /// scheduling call surfaces.
    pub fn new(config: SessionConfig) -> Self {
        let primary = resolve_backend(&config.backend);
        let eval = ["slack", "early", "cydrome"]
            .map(|name| lookup_backend(name).expect("built-in backend registered"));
        Self {
            problem_hasher: ProblemHasher::new(&config.machine),
            config,
            primary,
            eval,
            report: Mutex::new(PassReport::new()),
            sched_cache: ScheduleCache::new(),
        }
    }

    /// A default-pipeline session for a machine (the common bench case).
    pub fn with_machine(machine: Machine) -> Self {
        Self::new(SessionConfig::new(machine))
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The resolved primary backend.
    ///
    /// # Errors
    ///
    /// `E0003` when the configured name is unknown or its options were
    /// rejected; `E0002` when the configuration asks for straight-line
    /// scheduling from a backend without that capability.
    pub fn backend(&self) -> Result<&BackendEntry, LsmsError> {
        let entry = self.primary.as_ref().map_err(Clone::clone)?;
        if self.config.straight_line && !entry.scheduler.capabilities().straight_line {
            return Err(LsmsError::usage(format!(
                "backend `{}` does not support --straight-line",
                entry.scheduler.name()
            )));
        }
        Ok(entry)
    }

    /// Checks the backend configuration eagerly — primary backend and
    /// capability requirements — so drivers can fail fast instead of
    /// erroring on the first loop.
    ///
    /// # Errors
    ///
    /// As [`backend`](Self::backend).
    pub fn validate(&self) -> Result<(), LsmsError> {
        self.backend().map(|_| ())
    }

    /// A snapshot of everything measured so far.
    pub fn report(&self) -> PassReport {
        self.report.lock().expect("report lock").clone()
    }

    /// Records one pass invocation in the [`PassReport`], the one place
    /// work is counted (`--timings` and `--metrics` both render it), plus
    /// — when the invocation overran a configured [`PassBudget`] — a
    /// `budget_exceeded` trace event and counter.
    fn record(&self, pass: &'static str, started: Instant, counters: &[(&'static str, u64)]) {
        let elapsed = started.elapsed();
        let over_budget = self
            .config
            .budgets
            .iter()
            .any(|b| b.pass == pass && elapsed > b.limit);
        if over_budget {
            lsms_trace::instant(
                "budget_exceeded",
                &[("wall_us", elapsed.as_micros().min(i64::MAX as u128) as i64)],
            );
        }
        let mut report = self.report.lock().expect("report lock");
        report.record(pass, elapsed, counters);
        if over_budget {
            report.bump(pass, "budget_exceeded", 1);
        }
    }

    /// Runs `parse`: DSL source → loop definitions.
    pub fn parse_source(&self, source: &str) -> Result<Vec<LoopDef>, LsmsError> {
        let started = Instant::now();
        let result = {
            let _span = lsms_trace::span("parse");
            lex(source).and_then(|tokens| parse(&tokens))
        };
        let loops = result.as_ref().map_or(0, |l| l.len() as u64);
        self.record("parse", started, &[("loops", loops)]);
        result.map_err(|e| LsmsError::from_front(e, Stage::Parse))
    }

    /// Runs `parse`, `sema`, and `lower` (with its fused `if-convert`)
    /// over every loop in the source.
    pub fn compile_source(&self, source: &str) -> Result<CompiledUnit, LsmsError> {
        let defs = self.parse_source(source)?;
        let mut compiled = Vec::with_capacity(defs.len());
        for def in defs {
            let started = Instant::now();
            let info = {
                let _span = lsms_trace::span("sema");
                analyze(&def)
            };
            self.record("sema", started, &[("loops", 1)]);
            let info = info.map_err(|e| LsmsError::from_front(e, Stage::Sema))?;

            let started = Instant::now();
            let lowered = {
                let _span = lsms_trace::span("lower");
                lower_loop(def, &info)
            };
            let ops = lowered.as_ref().map_or(0, |l| l.body.num_ops() as u64);
            self.record("lower", started, &[("ops", ops)]);
            let lowered = lowered.map_err(|e| LsmsError::from_front(e, Stage::Lower))?;

            // If-conversion happens inside the lowering walk; surface its
            // work as the `if-convert` accounting entry.
            let guarded = lowered
                .body
                .ops()
                .iter()
                .filter(|op| op.predicate.is_some())
                .count() as u64;
            let mut predicates: Vec<_> = lowered
                .body
                .ops()
                .iter()
                .filter_map(|op| op.predicate)
                .collect();
            predicates.sort_unstable();
            predicates.dedup();
            self.record(
                "if-convert",
                Instant::now(),
                &[
                    ("guarded_ops", guarded),
                    ("predicates", predicates.len() as u64),
                ],
            );
            compiled.push(lowered);
        }
        Ok(CompiledUnit { loops: compiled })
    }

    /// Reads a file and compiles it.
    pub fn compile_file(&self, path: &str) -> Result<CompiledUnit, LsmsError> {
        let source = std::fs::read_to_string(path)
            .map_err(|e| LsmsError::io(format!("cannot read {path}: {e}")))?;
        self.compile_source(&source)
    }

    /// Runs `depgraph`: body validation + dependence graph + bounds.
    fn depgraph<'a>(&'a self, body: &'a LoopBody) -> Result<SchedProblem<'a>, LsmsError> {
        let started = Instant::now();
        let problem = {
            let _span = lsms_trace::span("depgraph");
            SchedProblem::new(body, &self.config.machine)
        };
        let counters = match &problem {
            Ok(p) => [
                ("nodes", p.num_nodes() as u64),
                ("arcs", p.arcs().len() as u64),
                ("mii", u64::from(p.mii())),
            ],
            Err(_) => [("nodes", 0), ("arcs", 0), ("mii", 0)],
        };
        self.record("depgraph", started, &counters);
        Ok(problem?)
    }

    /// Runs the schedule pass through one registry entry, keeping failure
    /// as data.
    ///
    /// When a [`PassBudget`] covers the entry's pass, its limit becomes a
    /// wall-clock deadline on II escalation; a deadline-capped failure
    /// degrades to the Cydrome baseline (recorded under its own pass
    /// label with a `degraded` counter) instead of failing the loop.
    /// The returned [`ScheduledRun`] names the backend that actually
    /// produced the result (the fallback's, after degradation), so the
    /// quality record attributes the schedule to the right pass.
    fn schedule(
        &self,
        entry: &BackendEntry,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
    ) -> ScheduledRun {
        let pass = entry.pass;
        let deadline = self
            .config
            .budgets
            .iter()
            .find(|b| b.pass == pass)
            .map(|b| Instant::now() + b.limit);
        let started = Instant::now();
        let result = {
            let _span = lsms_trace::span(pass);
            match deadline {
                // A deadline-capped result depends on the wall clock, not
                // just the inputs, so a budgeted run bypasses the cache.
                Some(_) => {
                    let ctx = SchedContext {
                        pass,
                        deadline,
                        straight_line: self.config.straight_line,
                    };
                    entry.scheduler.run(problem, cache, ws, &ctx).result
                }
                None => {
                    self.run_backend_memo(
                        entry,
                        &self.config.backend.options,
                        self.config.straight_line,
                        self.problem_hasher.fingerprint(problem.body()),
                        problem,
                        cache,
                        ws,
                    )
                    .0
                }
            }
        };
        let capped = matches!(&result, Err(f) if f.deadline_capped);
        // A capped run is not a pipeline failure: the fallback below
        // decides whether the loop compiles.
        let counters = sched_counters(&result, !capped);
        if capped {
            self.record(
                pass,
                started,
                &[&counters[..], &[("budget_capped", 1)]].concat(),
            );
        } else {
            self.record(pass, started, &counters);
        }
        let produced_by = |result, entry: &BackendEntry, degraded| ScheduledRun {
            result,
            pass: entry.pass,
            backend: entry.scheduler.name().to_owned(),
            degraded,
        };
        if !capped {
            return produced_by(result, entry, false);
        }

        // Budget-driven degradation: the configured backend blew its
        // wall-clock budget mid-escalation. Retry with the Cydrome
        // baseline rather than reporting the loop unschedulable.
        let fallback_entry = &self.eval[2];
        let last_ii = result.as_ref().err().map_or(0, |f| f.last_ii);
        lsms_trace::instant("sched.degrade", &[("last_ii", i64::from(last_ii))]);
        let started = Instant::now();
        let fallback = {
            let _span = lsms_trace::span(fallback_entry.pass);
            fallback_entry
                .scheduler
                .run(problem, cache, ws, &SchedContext::new(fallback_entry.pass))
                .result
        };
        let counters = sched_counters(&fallback, true);
        self.record(
            fallback_entry.pass,
            started,
            &[&counters[..], &[("degraded", 1)]].concat(),
        );
        produced_by(fallback, fallback_entry, true)
    }

    /// Runs one backend through the session's content-addressed schedule
    /// cache, keyed by `fingerprint`, the loop's
    /// problem fingerprint under the session's machine
    /// ([`ProblemHasher`]), which the caller hashes once per loop.
    ///
    /// A miss runs the backend and memoizes the outcome; a hit clones
    /// the stored run, which is byte-identical to recomputing because
    /// the scheduling framework is deterministic per (problem, machine,
    /// backend, options, mode). A run under a [`PassBudget`] deadline
    /// must not come here: its result depends on the wall clock.
    #[allow(clippy::too_many_arguments)]
    fn run_backend_memo(
        &self,
        entry: &BackendEntry,
        options: &[(String, String)],
        straight_line: bool,
        fingerprint: Fingerprint,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
    ) -> (Result<Schedule, lsms_sched::SchedFailure>, DecisionStats) {
        let ctx = SchedContext {
            pass: entry.pass,
            deadline: None,
            straight_line,
        };
        let key =
            lsms_sched::schedule_key(fingerprint, entry.scheduler.name(), options, straight_line);
        if let Some(hit) = self.sched_cache.get(key) {
            self.record("sched-cache", Instant::now(), &[("hits", 1), ("misses", 0)]);
            return (hit.result, hit.decisions);
        }
        let run = entry.scheduler.run(problem, cache, ws, &ctx);
        self.sched_cache.insert(
            key,
            CachedRun {
                result: run.result.clone(),
                decisions: run.decisions.clone(),
            },
        );
        self.record("sched-cache", Instant::now(), &[("hits", 0), ("misses", 1)]);
        (run.result, run.decisions)
    }

    /// Folds the shared MinDist cache's counters into the report under
    /// the `mindist` accounting entry (wall ≈ 0 — the compute time lives
    /// inside whichever pass triggered each matrix).
    fn record_mindist(&self, cache: &MinDistCache) {
        let stats = cache.stats();
        if stats.hits == 0 && stats.misses == 0 {
            return;
        }
        self.record(
            "mindist",
            Instant::now(),
            &[("hits", stats.hits), ("misses", stats.misses)],
        );
    }

    /// Runs `regalloc` for one register class.
    fn regalloc(
        &self,
        problem: &SchedProblem<'_>,
        schedule: &Schedule,
        class: RegClass,
    ) -> Result<RotatingAllocation, LsmsError> {
        let started = Instant::now();
        let alloc = {
            let _span = lsms_trace::span("regalloc");
            allocate_rotating(problem, schedule, class, Strategy::default())
        };
        let counters = match (&alloc, class) {
            (Ok(a), RegClass::Rr) => [
                ("rr_regs", u64::from(a.num_regs)),
                ("max_live", u64::from(a.max_live)),
                ("excess", u64::from(a.excess())),
            ],
            (Ok(a), _) => [
                ("icr_regs", u64::from(a.num_regs)),
                ("max_live", u64::from(a.max_live)),
                ("excess", u64::from(a.excess())),
            ],
            (Err(_), _) => [("rr_regs", 0), ("max_live", 0), ("excess", 0)],
        };
        self.record("regalloc", started, &counters);
        Ok(alloc?)
    }

    /// Runs the full configured pipeline on one compiled loop.
    ///
    /// A schedule failure is an error here (`E0501`); use
    /// [`schedule_outcome`](Self::schedule_outcome) or
    /// [`evaluate_variants`](Self::evaluate_variants) when failure should
    /// be recorded as data instead.
    pub fn run_loop(&self, compiled: &CompiledLoop) -> Result<LoopArtifacts, LsmsError> {
        let cfg = &self.config;
        let backend = self.backend()?.clone();
        // The simulator and reference interpreter read per-source-loop
        // metadata (array layout, pre-loop instances), which an unrolled
        // or straight-line body no longer matches.
        if cfg.verify.is_some() && (cfg.unroll > 1 || cfg.straight_line) {
            return Err(LsmsError::usage(
                "simulate-verify applies to the plain modulo pipeline only \
                 (drop --unroll / --straight-line)",
            ));
        }
        let codegen = cfg.codegen || cfg.verify.is_some();
        let body = if cfg.unroll > 1 {
            let started = Instant::now();
            let unrolled = {
                let _span = lsms_trace::span("unroll");
                lsms_ir::unroll(&compiled.body, cfg.unroll)
            };
            self.record(
                "unroll",
                started,
                &[
                    ("factor", u64::from(cfg.unroll)),
                    ("ops", unrolled.num_ops() as u64),
                ],
            );
            unrolled
        } else {
            compiled.body.clone()
        };

        let (schedule, rr, icr, kernel, mve, equiv, quality) = {
            let problem = self.depgraph(&body)?;
            let cache = MinDistCache::new();
            let run = self.schedule(&backend, &problem, &cache, &mut EngineWorkspace::new());
            let (sched_pass, sched_backend, degraded) = (run.pass, run.backend, run.degraded);
            let schedule = run.result?;
            if !cfg.straight_line {
                validate(&problem, &schedule)?;
            }
            let quality = quality_of(
                &compiled.def.name,
                &sched_backend,
                sched_pass,
                problem.rec_mii(),
                problem.res_mii(),
                problem.mii(),
                &SchedOutcome {
                    ii: Some(schedule.ii),
                    last_ii: schedule.ii,
                    pressure: Some(measure_cached(&problem, &schedule, &cache)),
                    stats: schedule.stats.clone(),
                    degraded,
                },
            );
            self.record_mindist(&cache);
            // Nothing after scheduling reads MinDist: free its matrices
            // before the back end allocates.
            drop(cache);
            let (rr, icr) = if cfg.regalloc || codegen {
                (
                    Some(self.regalloc(&problem, &schedule, RegClass::Rr)?),
                    Some(self.regalloc(&problem, &schedule, RegClass::Icr)?),
                )
            } else {
                (None, None)
            };
            let kernel = if codegen {
                let started = Instant::now();
                let kernel = {
                    let _span = lsms_trace::span("codegen");
                    lsms_codegen::emit(
                        &problem,
                        &schedule,
                        rr.as_ref().expect("codegen implies regalloc"),
                        icr.as_ref().expect("codegen implies regalloc"),
                    )
                };
                let insts = kernel.as_ref().map_or(0, |k| k.num_insts() as u64);
                self.record("codegen", started, &[("kernel_insts", insts)]);
                Some(kernel?)
            } else {
                None
            };
            let mve = if cfg.mve {
                let started = Instant::now();
                let kernel = {
                    let _span = lsms_trace::span("codegen");
                    lsms_codegen::emit_mve(&problem, &schedule)
                };
                let counters = match &kernel {
                    Ok(k) => [
                        ("mve_insts", k.total_insts() as u64),
                        ("mve_unroll", u64::from(k.unroll)),
                    ],
                    Err(_) => [("mve_insts", 0), ("mve_unroll", 0)],
                };
                self.record("codegen", started, &counters);
                Some(kernel?)
            } else {
                None
            };
            let equiv = match cfg.verify {
                Some(spec) => Some(self.verify(
                    spec,
                    compiled,
                    &problem,
                    &schedule,
                    (
                        kernel.as_ref().expect("verify implies codegen"),
                        rr.as_ref().expect("codegen implies regalloc"),
                        icr.as_ref().expect("codegen implies regalloc"),
                    ),
                    mve.as_ref(),
                )?),
                None => None,
            };
            (schedule, rr, icr, kernel, mve, equiv, quality)
        };

        Ok(LoopArtifacts {
            name: compiled.def.name.clone(),
            body,
            schedule,
            rr,
            icr,
            kernel,
            mve,
            equiv,
            quality,
        })
    }

    /// Runs `simulate-verify` on the kernels this loop's codegen emitted:
    /// executes the rotating-file kernel (and the MVE kernel, when the
    /// session emits one) and checks every array bit for bit against the
    /// reference interpreter. It schedules and allocates nothing itself.
    fn verify(
        &self,
        spec: VerifySpec,
        compiled: &CompiledLoop,
        problem: &SchedProblem<'_>,
        schedule: &Schedule,
        (kernel, rr, icr): (&KernelCode, &RotatingAllocation, &RotatingAllocation),
        mve: Option<&MveKernel>,
    ) -> Result<EquivReport, LsmsError> {
        let started = Instant::now();
        let result = {
            let _span = lsms_trace::span("simulate-verify");
            Oracle::new(compiled, spec.trip, spec.seed)
                .map_err(LsmsError::from)
                .and_then(|oracle| {
                    oracle
                        .check_kernel(compiled, problem, schedule, kernel, rr, icr)
                        .and_then(|report| match mve {
                            Some(mve) => oracle
                                .check_mve(compiled, problem, schedule, mve)
                                .map(|_| report)
                                .map_err(|e| format!("mve: {e}")),
                            None => Ok(report),
                        })
                        .map_err(LsmsError::verification)
                })
        };
        let counters = match &result {
            Ok(r) => [("cycles", r.cycles), ("elements", r.elements as u64)],
            Err(_) => [("cycles", 0), ("elements", 0)],
        };
        self.record("simulate-verify", started, &counters);
        result
    }

    /// Schedules one loop with the configured backend, keeping schedule
    /// failure as data (`ii: None` plus the last II attempted) while
    /// earlier-stage problems still propagate as errors.
    pub fn schedule_outcome(&self, compiled: &CompiledLoop) -> Result<SchedOutcome, LsmsError> {
        let backend = self.backend()?.clone();
        let cache = MinDistCache::new();
        let problem = self.depgraph(&compiled.body)?;
        let run = self.schedule(&backend, &problem, &cache, &mut EngineWorkspace::new());
        let outcome = outcome_of(run.result, &problem, &cache, run.degraded);
        self.record_mindist(&cache);
        Ok(outcome)
    }

    /// The paper's three-scheduler evaluation of one loop, sharing one
    /// `MinDistCache` across the scheduler runs, both pressure
    /// measurements, and the MinAvg bound (one Floyd–Warshall per
    /// distinct II), plus the loop's Table 2 features. With `fan_out`
    /// the three runs use scoped threads; the result is identical either
    /// way.
    ///
    /// A malformed loop (invalid body, zero-ω circuit) returns an error
    /// instead of panicking, so corpus runs can record the failure and
    /// keep going.
    pub fn evaluate_variants(
        &self,
        compiled: &CompiledLoop,
        fan_out: bool,
    ) -> Result<LoopEvaluation, LsmsError> {
        let problem = self.depgraph(&compiled.body)?;
        let mii = problem.mii();
        let cache = MinDistCache::new();
        let fingerprint = self.problem_hasher.fingerprint(&compiled.body);

        // The trio entries were resolved once at session build, so the
        // parallel corpus workers all share the same backend `Arc`s.
        let run_entry = |entry: &BackendEntry| -> (SchedOutcome, DecisionStats) {
            let started = Instant::now();
            let (result, decisions) = {
                let _span = lsms_trace::span(entry.pass);
                self.run_backend_memo(
                    entry,
                    &[],
                    false,
                    fingerprint,
                    &problem,
                    &cache,
                    &mut EngineWorkspace::new(),
                )
            };
            let counters = sched_counters(&result, true);
            let outcome = outcome_of(result, &problem, &cache, false);
            self.record(entry.pass, started, &counters);
            (outcome, decisions)
        };
        let [slack, early_entry, cydrome] = &self.eval;

        let ((new, decisions), (early, _), (old, _)) = if fan_out {
            std::thread::scope(|s| {
                let new = s.spawn(|| run_entry(slack));
                let early = s.spawn(|| run_entry(early_entry));
                let old = s.spawn(|| run_entry(cydrome));
                (
                    new.join().expect("bidirectional run panicked"),
                    early.join().expect("always-early run panicked"),
                    old.join().expect("baseline run panicked"),
                )
            })
        } else {
            (run_entry(slack), run_entry(early_entry), run_entry(cydrome))
        };

        let min_avg_at_mii = min_avg_cached(&problem, mii, &cache);
        self.record_mindist(&cache);
        let body = &compiled.body;
        Ok(LoopEvaluation {
            name: compiled.def.name.clone(),
            class: problem.class(),
            num_ops: body.num_ops(),
            basic_blocks: body.meta().basic_blocks,
            critical_ops: bounds::critical_ops(&self.config.machine, body, mii),
            ops_on_recurrences: problem.components().ops_on_recurrences(),
            div_ops: body.num_divider_ops(),
            rec_mii: problem.rec_mii(),
            res_mii: problem.res_mii(),
            mii,
            min_avg_at_mii,
            gprs: gpr_count(&problem),
            new,
            early,
            old,
            decisions,
        })
    }
}

/// The [`SCHED_COUNTERS`](crate::SCHED_COUNTERS) every schedule-pass
/// invocation records (all but the out-of-band `budget_capped` and
/// `degraded`). `failure_counts` says whether a failed run counts as a
/// pipeline failure; a deadline-capped one does not.
fn sched_counters(
    result: &Result<Schedule, lsms_sched::SchedFailure>,
    failure_counts: bool,
) -> [(&'static str, u64); 9] {
    let (ii, stats) = match result {
        Ok(s) => (u64::from(s.ii), &s.stats),
        Err(f) => (0, &f.stats),
    };
    [
        ("ii", ii),
        ("central_iterations", stats.central_iterations),
        ("step3_invocations", stats.step3_invocations),
        ("ejected_ops", stats.ejected_ops),
        ("step6_restarts", stats.step6_restarts),
        ("attempts", u64::from(stats.attempts)),
        ("bounds_cells_touched", stats.bounds_cells_touched),
        ("choose_scan_len", stats.choose_scan_len),
        ("failures", u64::from(result.is_err() && failure_counts)),
    ]
}

fn outcome_of(
    result: Result<Schedule, lsms_sched::SchedFailure>,
    problem: &SchedProblem<'_>,
    cache: &MinDistCache,
    degraded: bool,
) -> SchedOutcome {
    match result {
        Ok(schedule) => SchedOutcome {
            ii: Some(schedule.ii),
            last_ii: schedule.ii,
            pressure: Some(measure_cached(problem, &schedule, cache)),
            stats: schedule.stats,
            degraded,
        },
        Err(failure) => SchedOutcome {
            ii: None,
            last_ii: failure.last_ii,
            pressure: None,
            stats: failure.stats,
            degraded,
        },
    }
}
