//! The unified compilation pipeline: a [`CompileSession`] pass manager
//! over the fixed stage order the paper's system implies —
//!
//! ```text
//! parse → sema → lower(+if-convert) → [unroll] → depgraph
//!       → schedule:{slack,early,late,cydrome}
//!       → [regalloc] → [codegen] → [simulate-verify]
//! ```
//!
//! Before this crate, the driver, the bench library, and ~20 experiment
//! binaries each re-wired those stages by hand and stringified six
//! unrelated error enums at the joints. A session is now the one place
//! where stage order, `MinDistCache` sharing, diagnostics
//! ([`LsmsError`], with stable codes and per-stage exit codes), and
//! observability (per-pass wall clock and work counters in a
//! [`PassReport`], serializable to JSON for `lsmsc --timings`) live.
//!
//! # Example
//!
//! ```
//! use lsms_machine::huff_machine;
//! use lsms_pipeline::{CompileSession, SessionConfig};
//!
//! let session = CompileSession::new(SessionConfig::new(huff_machine()));
//! let unit = session.compile_source(
//!     "loop daxpy(i = 1..n) { real x[], y[]; param real a;
//!          y[i] = y[i] + a * x[i]; }",
//! )?;
//! let artifacts = session.run_loop(&unit.loops[0])?;
//! assert!(artifacts.schedule.ii >= 1);
//! let report = session.report();
//! assert!(report.get("schedule:slack").is_some());
//! # Ok::<(), lsms_pipeline::LsmsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod error;
pub mod passes;
mod quality;
mod report;
mod schedcache;
mod session;

pub use backend::{
    list_backends_text, lookup_backend, register_backend, registered_backends, resolve_backend,
    BackendEntry, BackendSelection,
};
pub use error::{LsmsError, Stage};
pub use passes::{pass_info, PassInfo, PASSES, SCHED_COUNTERS};
pub use report::{PassRecord, PassReport};
pub use session::{
    CompileSession, LoopArtifacts, LoopEvaluation, PassBudget, SchedOutcome, SessionConfig,
    VerifySpec,
};

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_machine::huff_machine;
    use lsms_sched::{DirectionPolicy, SlackConfig};

    const DAXPY: &str = "loop daxpy(i = 1..n) { real x[], y[]; param real a;
         y[i] = y[i] + a * x[i]; }";

    #[test]
    fn full_pipeline_records_every_pass_that_ran() {
        let mut config = SessionConfig::new(huff_machine());
        config.codegen = true;
        config.mve = true;
        config.verify = Some(VerifySpec::with_trip(20));
        let session = CompileSession::new(config);
        let unit = session.compile_source(DAXPY).expect("compiles");
        let artifacts = session.run_loop(&unit.loops[0]).expect("pipelines");
        assert!(artifacts.kernel.is_some());
        assert!(artifacts.mve.is_some());
        assert!(artifacts.rr.is_some());
        let equiv = artifacts.equiv.expect("verified");
        assert!(equiv.elements > 0);

        let report = session.report();
        for pass in [
            "parse",
            "sema",
            "lower",
            "if-convert",
            "depgraph",
            "schedule:slack",
            "regalloc",
            "codegen",
            "simulate-verify",
        ] {
            let record = report.get(pass).unwrap_or_else(|| panic!("{pass} missing"));
            assert!(record.invocations >= 1, "{pass}");
        }
        // Canonical ordering regardless of recording order.
        let names: Vec<&str> = report.passes().iter().map(|r| r.name).collect();
        let mut expected = names.clone();
        expected.sort_by_key(|n| passes::PASSES.iter().position(|p| p.name == *n));
        assert_eq!(names, expected);
        // The scheduler recorded real work.
        let sched = report.get("schedule:slack").unwrap();
        assert!(sched.counters["central_iterations"] >= 1);
        assert!(sched.counters["ii"] >= 1);
        // The Floyd–Warshall run is booked on `mindist`, not the pass.
        let mindist = report.get("mindist").expect("mindist missing");
        assert!(mindist.counters["misses"] >= 1);
        assert!(mindist.wall > std::time::Duration::ZERO);
    }

    /// Every counter a session records is documented in the pass
    /// registry, so `--explain-pass` and `--metrics` describe the same
    /// keys. `budget_exceeded` is the one key any pass may record.
    #[test]
    fn every_recorded_counter_is_documented() {
        let mut config = SessionConfig::new(huff_machine());
        config.codegen = true;
        config.mve = true;
        config.verify = Some(VerifySpec::with_trip(20));
        let full = CompileSession::new(config);
        let unit = full.compile_source(SAMPLE).expect("compiles");
        full.run_loop(&unit.loops[0]).expect("pipelines");
        full.evaluate_variants(&unit.loops[0], false)
            .expect("evaluates");

        // A blown budget adds the degradation counters.
        let mut config = SessionConfig::new(huff_machine());
        config.backend = BackendSelection::parse("slack:budget-factor=0").expect("static spec");
        config.budgets = vec![PassBudget {
            pass: "schedule:slack",
            limit: std::time::Duration::ZERO,
        }];
        let degraded = CompileSession::new(config);
        degraded.run_loop(&unit.loops[0]).expect("degrades");

        let mut report = full.report();
        report.merge(&degraded.report());
        for key in ["budget_capped", "degraded", "budget_exceeded"] {
            assert!(
                report.passes().iter().any(|r| r.counters.contains_key(key)),
                "{key} never recorded"
            );
        }
        for record in report.passes() {
            let info = pass_info(record.name).unwrap_or_else(|| panic!("{}", record.name));
            for key in record.counters.keys() {
                assert!(
                    *key == "budget_exceeded" || info.counters.iter().any(|(k, _)| k == key),
                    "{}: counter `{key}` is not in its PassInfo",
                    record.name
                );
            }
        }
    }

    #[test]
    fn parse_errors_carry_code_span_and_exit_code() {
        let session = CompileSession::with_machine(huff_machine());
        let err = session.compile_source("loop broken(").unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert_eq!(err.code, "E0101");
        assert!(err.span.is_some());
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn evaluate_variants_matches_schedule_outcome() {
        let session = CompileSession::with_machine(huff_machine());
        let unit = session.compile_source(DAXPY).expect("compiles");
        let eval = session
            .evaluate_variants(&unit.loops[0], false)
            .expect("evaluates");
        assert_eq!(eval.mii, eval.res_mii.max(eval.rec_mii));
        assert_eq!(eval.new.ii, Some(eval.mii));
        let outcome = session.schedule_outcome(&unit.loops[0]).expect("schedules");
        assert_eq!(outcome.ii, eval.new.ii);
        // Fan-out is observably identical.
        let fan = session
            .evaluate_variants(&unit.loops[0], true)
            .expect("evaluates");
        assert_eq!(fan.new.ii, eval.new.ii);
        assert_eq!(fan.old.ii, eval.old.ii);
        assert_eq!(fan.decisions, eval.decisions);
    }

    #[test]
    fn verify_rejects_incompatible_configs_as_usage_errors() {
        let mut config = SessionConfig::new(huff_machine());
        config.unroll = 2;
        config.verify = Some(VerifySpec::with_trip(10));
        let session = CompileSession::new(config);
        let unit = session.compile_source(DAXPY).expect("compiles");
        let err = session.run_loop(&unit.loops[0]).unwrap_err();
        assert_eq!(err.stage, Stage::Usage);
        assert_eq!(err.exit_code(), 2);
    }

    /// The §2.3 sample loop: two interleaved recurrences.
    const SAMPLE: &str = "loop sample(i = 3..n) { real x[], y[];
         x[i] = x[i-1] + y[i-2];
         y[i] = y[i-1] + x[i-2]; }";

    #[test]
    fn every_builtin_backend_verifies_its_own_kernels() {
        for backend in ["slack", "early", "late", "cydrome"] {
            let mut config = SessionConfig::new(huff_machine());
            config.backend = BackendSelection::named(backend);
            config.mve = true;
            config.verify = Some(VerifySpec::with_trip(10));
            let session = CompileSession::new(config);
            let kernels = lsms_loops::kernels();
            let sources = [DAXPY, SAMPLE]
                .into_iter()
                .chain(kernels.iter().map(|l| l.source.as_str()));
            for source in sources {
                let unit = session.compile_source(source).expect("compiles");
                let name = &unit.loops[0].def.name;
                let artifacts = session
                    .run_loop(&unit.loops[0])
                    .unwrap_or_else(|e| panic!("{backend} {name}: {e}"));
                assert!(artifacts.kernel.is_some(), "verify implies codegen");
                let equiv = artifacts.equiv.expect("verified");
                assert_eq!(equiv.ii, artifacts.schedule.ii, "{backend} {name}");
                assert!(equiv.elements > 0, "{backend} {name}");
            }
        }
    }

    #[test]
    fn backend_pass_names_are_stable() {
        for (name, pass) in [
            ("slack", "schedule:slack"),
            ("early", "schedule:early"),
            ("late", "schedule:late"),
            ("cydrome", "schedule:cydrome"),
        ] {
            let entry = lookup_backend(name).expect(name);
            assert_eq!(entry.pass, pass);
        }
        // Backend directions line up with the passes they're named after.
        let early = lookup_backend("early").unwrap();
        assert_eq!(
            early.scheduler.verify_config().unwrap().direction,
            DirectionPolicy::AlwaysEarly
        );
        let _ = SlackConfig::default();
    }

    /// An alpha-renaming of `DAXPY`: every identifier (loop name, index,
    /// arrays, parameter) differs, the structure is identical.
    const DAXPY_RENAMED: &str = "loop saxpy(j = 1..m) { real u[], v[]; param real b;
         v[j] = v[j] + b * u[j]; }";

    const RECURRENCE: &str = "loop rec(i = 1..n) { real s[], x[];
         s[i] = s[i-1] + x[i]; }";

    #[test]
    fn alpha_equivalent_loops_hit_the_schedule_cache() {
        let session = CompileSession::with_machine(huff_machine());
        let unit = session.compile_source(DAXPY).expect("compiles");
        let renamed = session.compile_source(DAXPY_RENAMED).expect("compiles");
        let a = session.run_loop(&unit.loops[0]).expect("pipelines");
        let b = session.run_loop(&renamed.loops[0]).expect("pipelines");
        // The cached replay is byte-identical, including the stored
        // elapsed time: the second loop never ran a scheduler.
        assert_eq!(a.schedule, b.schedule);
        let report = session.report();
        let record = report.get("sched-cache").expect("recorded");
        assert_eq!(record.counters["hits"], 1);
        assert_eq!(record.counters["misses"], 1);
    }

    #[test]
    fn repeat_scheduling_replays_byte_identical_outcomes() {
        let session = CompileSession::with_machine(huff_machine());
        let unit = session.compile_source(RECURRENCE).expect("compiles");
        let first = session.schedule_outcome(&unit.loops[0]).expect("schedules");
        let second = session.schedule_outcome(&unit.loops[0]).expect("schedules");
        assert_eq!(first.ii, second.ii);
        assert_eq!(first.stats, second.stats); // including elapsed: a replay
        assert_eq!(
            format!("{:?}", first.pressure),
            format!("{:?}", second.pressure)
        );
        let report = session.report();
        let record = report.get("sched-cache").expect("recorded");
        assert!(record.counters["hits"] >= 1);
    }

    #[test]
    fn sessions_surface_backend_errors_lazily() {
        let mut config = SessionConfig::new(huff_machine());
        config.backend = BackendSelection::named("quantum");
        let session = CompileSession::new(config);
        let err = session.validate().unwrap_err();
        assert_eq!((err.stage, err.code), (Stage::Usage, "E0003"));
        let unit = session.compile_source(DAXPY).expect("compiles");
        let err = session.run_loop(&unit.loops[0]).unwrap_err();
        assert_eq!(err.code, "E0003");

        // Straight-line on a backend without the capability is a usage
        // error surfaced by the same accessor.
        let mut config = SessionConfig::new(huff_machine());
        config.backend = BackendSelection::named("cydrome");
        config.straight_line = true;
        let session = CompileSession::new(config);
        let err = session.validate().unwrap_err();
        assert_eq!(err.code, "E0002");
        assert!(err.message.contains("straight-line"), "{}", err.message);
    }
}
