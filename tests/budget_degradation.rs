//! Budget-driven degradation: a blown `--pass-budget` on the scheduling
//! pass caps II escalation and falls back to the Cydrome baseline instead
//! of failing the loop outright.

use std::time::Duration;

use lsms::machine::huff_machine;
use lsms::pipeline::{BackendSelection, CompileSession, PassBudget, SessionConfig, VerifySpec};
use lsms::sched::{validate, SchedProblem};

/// The §2.3 sample loop: small, schedulable by every backend.
const SOURCE: &str = "loop sample(i = 3..n) {
    real x[], y[];
    x[i] = x[i-1] + y[i-2];
    y[i] = y[i-1] + x[i-2];
}";

/// A slack backend starved of its iteration budget: every II attempt
/// gives up immediately, so escalation runs until something stops it.
fn starved_slack() -> BackendSelection {
    BackendSelection::parse("slack:budget-factor=0").expect("static backend spec")
}

#[test]
fn blown_schedule_budget_degrades_to_cydrome() {
    let mut config = SessionConfig::new(huff_machine());
    config.backend = starved_slack();
    // The zero wall-clock deadline is blown by the time the first failed
    // attempt checks it, capping the escalation right there.
    config.budgets = vec![PassBudget {
        pass: "schedule:slack",
        limit: Duration::ZERO,
    }];
    let session = CompileSession::new(config);
    let unit = session.compile_source(SOURCE).expect("compiles");
    let artifacts = session
        .run_loop(&unit.loops[0])
        .expect("degraded loop still compiles");

    // The schedule that came back is the baseline's, and it is valid.
    let machine = huff_machine();
    let problem = SchedProblem::new(&artifacts.body, &machine).unwrap();
    assert_eq!(validate(&problem, &artifacts.schedule), Ok(()));
    // The quality record names the backend that made the schedule.
    assert_eq!(artifacts.quality.backend, "cydrome");
    assert_eq!(artifacts.quality.pass, "schedule:cydrome");
    assert!(artifacts.quality.degraded);

    let report = session.report();
    let slack = report.get("schedule:slack").expect("primary pass recorded");
    assert_eq!(slack.counters.get("budget_capped"), Some(&1));
    // A capped run is not a pipeline failure: the fallback decides that.
    assert_eq!(slack.counters.get("failures"), Some(&0));
    let cydrome = report.get("schedule:cydrome").expect("fallback recorded");
    assert_eq!(cydrome.counters.get("degraded"), Some(&1));
    assert_eq!(cydrome.counters.get("failures"), Some(&0));
}

/// Simulate-verify checks the kernel built from the fallback's schedule,
/// not a fresh run of the starved slack configuration.
#[test]
fn a_degraded_loop_verifies_its_fallback_kernel() {
    let mut config = SessionConfig::new(huff_machine());
    config.backend = starved_slack();
    config.budgets = vec![PassBudget {
        pass: "schedule:slack",
        limit: Duration::ZERO,
    }];
    config.codegen = true;
    config.verify = Some(VerifySpec::with_trip(10));
    let session = CompileSession::new(config);
    let unit = session.compile_source(SOURCE).expect("compiles");
    let artifacts = session
        .run_loop(&unit.loops[0])
        .expect("the degraded kernel verifies");
    let equiv = artifacts.equiv.as_ref().expect("simulate-verify ran");
    assert_eq!(equiv.ii, artifacts.schedule.ii);

    let report = session.report();
    let cydrome = report.get("schedule:cydrome").expect("fallback recorded");
    assert_eq!(cydrome.counters.get("degraded"), Some(&1));
}

#[test]
fn without_a_budget_the_starved_scheduler_fails_outright() {
    let mut config = SessionConfig::new(huff_machine());
    config.backend = starved_slack();
    let session = CompileSession::new(config);
    let unit = session.compile_source(SOURCE).expect("compiles");
    let err = session
        .run_loop(&unit.loops[0])
        .expect_err("no deadline, no fallback: the loop fails");
    assert_eq!(err.code, "E0501");

    let report = session.report();
    let slack = report.get("schedule:slack").expect("recorded");
    assert_eq!(slack.counters.get("failures"), Some(&1));
    assert!(!slack.counters.contains_key("budget_capped"));
    assert!(report.get("schedule:cydrome").is_none());
}

#[test]
fn a_generous_budget_never_degrades() {
    let mut config = SessionConfig::new(huff_machine());
    config.budgets = vec![PassBudget {
        pass: "schedule:slack",
        limit: Duration::from_secs(3600),
    }];
    let session = CompileSession::new(config);
    let unit = session.compile_source(SOURCE).expect("compiles");
    let artifacts = session.run_loop(&unit.loops[0]).expect("schedules");
    // §2.3/Figure 3: the sample loop runs at II = 2 — the deadline left
    // the slack scheduler's result untouched.
    assert_eq!(artifacts.schedule.ii, 2);

    let report = session.report();
    let slack = report.get("schedule:slack").expect("recorded");
    assert!(!slack.counters.contains_key("budget_capped"));
    assert!(report.get("schedule:cydrome").is_none());
}
