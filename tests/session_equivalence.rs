//! The refactor guarantee: corpus evaluation through
//! [`lsms::pipeline::CompileSession`] produces records identical to the
//! pre-refactor hand-wired stage sequence.
//!
//! `old_style_evaluate` below is a faithful copy of the evaluation the
//! bench crate performed before the session existed (problem → three
//! cached scheduler runs → bounds and pressure, one shared
//! `MinDistCache`). Every field except wall-clock time must match, and
//! the paper-table rows rendered from the records must be byte-identical.

use lsms::machine::{huff_machine, Machine};
use lsms::pipeline::CompileSession;
use lsms::sched::pressure::{gpr_count, measure_cached, min_avg_cached};
use lsms::sched::{
    bounds, CydromeScheduler, DecisionStats, DirectionPolicy, EngineWorkspace, MinDistCache,
    PressureReport, SchedProblem, SchedStats, Schedule, SlackConfig, SlackScheduler,
};
use lsms_bench::{class_line, LoopEvaluation, SchedOutcome, CORPUS_SEED};

/// What one scheduler produced, minus wall-clock time.
struct OldOutcome {
    ii: Option<u32>,
    last_ii: u32,
    pressure: Option<PressureReport>,
    stats: SchedStats,
}

fn old_outcome(
    result: Result<Schedule, lsms::sched::SchedFailure>,
    problem: &SchedProblem<'_>,
    cache: &MinDistCache,
) -> OldOutcome {
    match result {
        Ok(schedule) => OldOutcome {
            ii: Some(schedule.ii),
            last_ii: schedule.ii,
            pressure: Some(measure_cached(problem, &schedule, cache)),
            stats: schedule.stats,
        },
        Err(failure) => OldOutcome {
            ii: None,
            last_ii: failure.last_ii,
            pressure: None,
            stats: failure.stats,
        },
    }
}

/// The pre-refactor evaluation, stage wiring spelled out by hand.
struct OldRecord {
    rec_mii: u32,
    res_mii: u32,
    mii: u32,
    min_avg_at_mii: u32,
    gprs: u32,
    critical_ops: usize,
    ops_on_recurrences: usize,
    new: OldOutcome,
    early: OldOutcome,
    old: OldOutcome,
    decisions: DecisionStats,
}

fn old_style_evaluate(compiled: &lsms::front::CompiledLoop, machine: &Machine) -> OldRecord {
    let body = &compiled.body;
    let problem = SchedProblem::new(body, machine).expect("corpus loops are well-formed");
    let mii = problem.mii();
    let cache = MinDistCache::new();

    let run_slack = |direction: DirectionPolicy| {
        let scheduler = SlackScheduler::with_config(SlackConfig {
            direction,
            ..SlackConfig::default()
        });
        let (result, decisions) =
            scheduler.run_in(&problem, &cache, None, &mut EngineWorkspace::new());
        (old_outcome(result, &problem, &cache), decisions)
    };
    let (new, decisions) = run_slack(DirectionPolicy::Bidirectional);
    let (early, _) = run_slack(DirectionPolicy::AlwaysEarly);
    let old = old_outcome(
        CydromeScheduler::new().run_in(&problem, &cache, &mut EngineWorkspace::new()),
        &problem,
        &cache,
    );

    OldRecord {
        rec_mii: problem.rec_mii(),
        res_mii: problem.res_mii(),
        mii,
        min_avg_at_mii: min_avg_cached(&problem, mii, &cache),
        gprs: gpr_count(&problem),
        critical_ops: bounds::critical_ops(machine, body, mii),
        ops_on_recurrences: bounds::ops_on_recurrences(body),
        new,
        early,
        old,
        decisions,
    }
}

fn assert_outcomes_match(name: &str, which: &str, old: &OldOutcome, new: &SchedOutcome) {
    assert_eq!(old.ii, new.ii, "{name} {which} ii");
    assert_eq!(old.last_ii, new.last_ii, "{name} {which} last_ii");
    assert_eq!(old.pressure, new.pressure, "{name} {which} pressure");
    // Stats match except wall-clock time.
    let counters = |s: &SchedStats| {
        (
            s.central_iterations,
            s.step3_invocations,
            s.ejected_ops,
            s.step6_restarts,
            s.attempts,
        )
    };
    assert_eq!(
        counters(&old.stats),
        counters(&new.stats),
        "{name} {which} stats"
    );
}

#[test]
fn session_records_match_the_pre_refactor_path() {
    let machine = huff_machine();
    let session = CompileSession::with_machine(machine.clone());
    let loops = lsms::loops::corpus(20, CORPUS_SEED);

    let mut session_records = Vec::new();
    for l in &loops {
        let old = old_style_evaluate(l, &machine);
        let new = session
            .evaluate_variants(l, false)
            .expect("corpus loop evaluates");

        assert_eq!(old.rec_mii, new.rec_mii, "{}", l.def.name);
        assert_eq!(old.res_mii, new.res_mii, "{}", l.def.name);
        assert_eq!(old.mii, new.mii, "{}", l.def.name);
        assert_eq!(old.min_avg_at_mii, new.min_avg_at_mii, "{}", l.def.name);
        assert_eq!(old.gprs, new.gprs, "{}", l.def.name);
        assert_eq!(old.critical_ops, new.critical_ops, "{}", l.def.name);
        assert_eq!(
            old.ops_on_recurrences, new.ops_on_recurrences,
            "{}",
            l.def.name
        );
        assert_eq!(old.decisions, new.decisions, "{}", l.def.name);
        assert_outcomes_match(&l.def.name, "new", &old.new, &new.new);
        assert_outcomes_match(&l.def.name, "early", &old.early, &new.early);
        assert_outcomes_match(&l.def.name, "old", &old.old, &new.old);
        session_records.push(new);
    }

    // The paper-table rows built from session records are byte-identical
    // to rows built from pre-refactor outcomes: render both from the same
    // formatting code over the matched data.
    fn pick_new(r: &LoopEvaluation) -> &SchedOutcome {
        &r.new
    }
    fn pick_early(r: &LoopEvaluation) -> &SchedOutcome {
        &r.early
    }
    fn pick_old_variant(r: &LoopEvaluation) -> &SchedOutcome {
        &r.old
    }
    fn old_new(r: &OldRecord) -> &OldOutcome {
        &r.new
    }
    fn old_early(r: &OldRecord) -> &OldOutcome {
        &r.early
    }
    fn old_old(r: &OldRecord) -> &OldOutcome {
        &r.old
    }
    type Pick = for<'a> fn(&'a LoopEvaluation) -> &'a SchedOutcome;
    type PickOld = for<'a> fn(&'a OldRecord) -> &'a OldOutcome;

    let refs: Vec<&LoopEvaluation> = session_records.iter().collect();
    let olds: Vec<OldRecord> = loops
        .iter()
        .map(|l| old_style_evaluate(l, &machine))
        .collect();
    let picks: [(&str, Pick, PickOld); 3] = [
        ("new", pick_new, old_new),
        ("early", pick_early, old_early),
        ("old", pick_old_variant, old_old),
    ];
    for (label, pick, pick_old) in picks {
        let from_session = class_line(label, &refs, pick);
        // Recompute the row from the hand-wired outcomes.
        let all = olds.len();
        let optimal = olds
            .iter()
            .filter(|r| pick_old(r).ii == Some(r.mii))
            .count();
        let sum_ii: u64 = olds
            .iter()
            .map(|r| u64::from(pick_old(r).ii.unwrap_or(pick_old(r).last_ii)))
            .sum();
        let sum_mii: u64 = olds.iter().map(|r| u64::from(r.mii)).sum();
        let pct = 100.0 * optimal as f64 / all.max(1) as f64;
        let ratio = sum_ii as f64 / sum_mii.max(1) as f64;
        let from_old = format!(
            "{label:<18} {optimal:>5} {all:>5} {pct:>5.1}% {sum_ii:>8} {sum_mii:>8} {ratio:>6.3}"
        );
        assert_eq!(from_session, from_old, "{label} row diverged");
    }
}

/// The registry guarantee: every backend that was reachable through the
/// retired `SchedulerBackend` enum produces byte-identical schedules and
/// `PassReport` rows when dispatched through the trait-object registry.
#[test]
fn registry_backends_match_their_enum_era_schedulers() {
    use lsms::pipeline::{BackendSelection, SessionConfig};

    let machine = huff_machine();
    let loops = lsms::loops::corpus(12, CORPUS_SEED);

    // The enum-era dispatch, spelled out by hand: a direct scheduler call
    // per variant, exactly as session.rs matched before the registry.
    let enum_era = |name: &str,
                    problem: &SchedProblem<'_>,
                    cache: &MinDistCache|
     -> Result<Schedule, lsms::sched::SchedFailure> {
        let slack = |direction| {
            SlackScheduler::with_config(SlackConfig {
                direction,
                ..SlackConfig::default()
            })
            .run_in(problem, cache, None, &mut EngineWorkspace::new())
            .0
        };
        match name {
            "slack" => slack(DirectionPolicy::Bidirectional),
            "early" => slack(DirectionPolicy::AlwaysEarly),
            "late" => slack(DirectionPolicy::AlwaysLate),
            "cydrome" => {
                CydromeScheduler::new().run_in(problem, cache, &mut EngineWorkspace::new())
            }
            _ => unreachable!("enum-era backend"),
        }
    };

    for name in ["slack", "early", "late", "cydrome"] {
        let mut config = SessionConfig::new(machine.clone());
        config.backend = BackendSelection::named(name);
        let session = CompileSession::new(config);
        let pass = format!("schedule:{name}");

        let mut invocations = 0u64;
        let mut sum_ii = 0u64;
        let mut failures = 0u64;
        let mut sum_attempts = 0u64;
        for l in &loops {
            let problem = SchedProblem::new(&l.body, &machine).expect("well-formed");
            let cache = MinDistCache::new();
            invocations += 1;
            match enum_era(name, &problem, &cache) {
                Ok(expected) => {
                    let artifacts = session.run_loop(l).expect("registry path schedules too");
                    // Byte-identical schedule through the registry.
                    assert_eq!(expected.ii, artifacts.schedule.ii, "{name} {}", l.def.name);
                    assert_eq!(
                        expected.times, artifacts.schedule.times,
                        "{name} {}",
                        l.def.name
                    );
                    assert_eq!(
                        expected.assignments, artifacts.schedule.assignments,
                        "{name} {}",
                        l.def.name
                    );
                    sum_ii += u64::from(expected.ii);
                    sum_attempts += u64::from(expected.stats.attempts);
                }
                Err(failure) => {
                    let err = session.run_loop(l).expect_err("registry path fails too");
                    assert_eq!(err.code, "E0501", "{name} {}", l.def.name);
                    failures += 1;
                    sum_attempts += u64::from(failure.stats.attempts);
                }
            }
        }

        // The PassReport row carries the same label and work counters the
        // enum-era dispatch recorded.
        let report = session.report();
        let record = report.get(&pass).expect("schedule pass recorded");
        assert_eq!(record.name, pass, "{name}");
        assert_eq!(record.invocations, invocations, "{name}");
        assert_eq!(record.counters.get("ii"), Some(&sum_ii), "{name}");
        assert_eq!(record.counters.get("failures"), Some(&failures), "{name}");
        assert_eq!(
            record.counters.get("attempts"),
            Some(&sum_attempts),
            "{name}"
        );
    }
}

#[test]
fn parallel_session_evaluation_is_deterministic() {
    let session = CompileSession::with_machine(huff_machine());
    let one = lsms_bench::evaluate_corpus_session(&session, 16, CORPUS_SEED, 1);
    let four = lsms_bench::evaluate_corpus_session(&session, 16, CORPUS_SEED, 4);
    assert!(one.failures.is_empty());
    assert!(four.failures.is_empty());
    assert_eq!(one.records.len(), four.records.len());
    for (a, b) in one.records.iter().zip(&four.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.new.ii, b.new.ii, "{}", a.name);
        assert_eq!(a.early.ii, b.early.ii, "{}", a.name);
        assert_eq!(a.old.ii, b.old.ii, "{}", a.name);
    }
}
