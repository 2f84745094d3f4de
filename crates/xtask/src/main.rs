//! `cargo xtask` — repo maintenance tasks.
//!
//! ```text
//! cargo run -p xtask -- quality-diff OLD.json NEW.json
//! cargo run -p xtask -- backend-audit
//! ```
//!
//! `backend-audit` is the consistency gate for the scheduler-backend
//! registry: for every registered backend it checks that the derived
//! `schedule:<name>` pass label, the `PASSES` registry row (summary and
//! counter set), the `--list-backends` listing, and the live trace span
//! names all agree. It compiles one loop per backend with tracing on, so
//! a backend whose span never opens fails the audit too.
//!
//! `quality-diff` gates schedule *quality* out of two `lsmsc --quality`
//! reports (`BENCH_quality.json` shape). It is exact-count: scheduling
//! is deterministic, so any increase in the corpus-wide II sum or
//! MaxLive sum over the records both reports share
//! (matched by loop name + backend, so corpus resizes never false-fail)
//! is a regression — no ratio, no noise floor. Every loop that moved is
//! attributed by name with the `schedule:<backend>` pass that produced
//! it. A missing OLD file is a clean first-run skip.
//!
//! Wall-clock performance is gated by the `benchmark` binary's noise-aware
//! `compare` mode, not here.

use std::process::ExitCode;

fn quality_diff(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        return usage("quality-diff wants exactly OLD.json and NEW.json");
    };

    let Ok(old_json) = std::fs::read_to_string(old_path) else {
        println!("quality-diff: no previous report at {old_path}; skipping (first run)");
        return ExitCode::SUCCESS;
    };
    let new_json = match std::fs::read_to_string(new_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("quality-diff: cannot read {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let old = lsms_obs::parse_quality(&old_json);
    let new = lsms_obs::parse_quality(&new_json);
    if new.is_empty() {
        eprintln!("quality-diff: {new_path} contains no loop records");
        return ExitCode::FAILURE;
    }
    if old.is_empty() {
        eprintln!("quality-diff: {old_path} contains no loop records");
        return ExitCode::FAILURE;
    }
    let diff = lsms_obs::diff_quality(&old, &new);
    if diff.compared == 0 {
        eprintln!("quality-diff: the reports share no (loop, backend) records");
        return ExitCode::FAILURE;
    }

    // Per-loop attribution: every mover, worsened or improved, with the
    // pass that produced the new schedule.
    for m in &diff.moved {
        eprintln!(
            "quality-diff: loop {} [{}]: II {} -> {}, MaxLive {} -> {}{}",
            m.name,
            m.pass,
            m.ii_old,
            m.ii_new,
            m.max_live_old,
            m.max_live_new,
            if m.worsened() { "  <- regressed" } else { "" }
        );
    }
    if diff.only_old + diff.only_new > 0 {
        println!(
            "quality-diff: corpus changed shape ({} records only in OLD, {} only in NEW) — \
             sums cover the {} shared records",
            diff.only_old, diff.only_new, diff.compared
        );
    }
    if diff.regressed() {
        eprintln!(
            "quality-diff: schedule quality regressed over {} shared records: \
             II sum {} -> {}, MaxLive sum {} -> {} (exact-count gate: any increase fails)",
            diff.compared,
            diff.ii_sum_old,
            diff.ii_sum_new,
            diff.max_live_sum_old,
            diff.max_live_sum_new
        );
        ExitCode::FAILURE
    } else {
        println!(
            "quality-diff: {} shared records, II sum {} -> {}, MaxLive sum {} -> {} ({} moved, none worse in sum)",
            diff.compared,
            diff.ii_sum_old,
            diff.ii_sum_new,
            diff.max_live_sum_old,
            diff.max_live_sum_new,
            diff.moved.len()
        );
        ExitCode::SUCCESS
    }
}

/// One loop every built-in backend can schedule, for the live span check.
const AUDIT_LOOP: &str = "loop daxpy(i = 1..n) { real x[], y[]; param real a;
    y[i] = y[i] + a * x[i]; }";

/// The registry consistency gate: backend names, `schedule:<name>` pass
/// labels, `PASSES` rows, `--list-backends` text, and live trace span
/// names must all agree for every registered backend.
fn backend_audit() -> ExitCode {
    use lsms_pipeline::{
        list_backends_text, pass_info, registered_backends, BackendSelection, CompileSession,
        SessionConfig, SCHED_COUNTERS,
    };

    let entries = registered_backends();
    let mut problems: Vec<String> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();

    let listing = list_backends_text();
    for entry in &entries {
        let name = entry.scheduler.name().to_owned();
        // The pass label is derived from the name, nothing else.
        if entry.pass != format!("schedule:{name}") {
            problems.push(format!(
                "backend `{name}` carries pass label `{}` (want `schedule:{name}`)",
                entry.pass
            ));
        }
        if !seen.insert(name.clone()) {
            problems.push(format!("backend name `{name}` appears twice"));
        }
        // Each built-in has a PASSES row that tells the same story.
        match pass_info(entry.pass) {
            None => problems.push(format!("pass `{}` missing from PASSES", entry.pass)),
            Some(info) => {
                let summary = entry.scheduler.describe().summary;
                if info.summary != summary {
                    problems.push(format!(
                        "pass `{}`: PASSES summary `{}` != backend summary `{summary}`",
                        entry.pass, info.summary
                    ));
                }
                if info.counters != SCHED_COUNTERS {
                    problems.push(format!(
                        "pass `{}` does not record the shared SCHED_COUNTERS set",
                        entry.pass
                    ));
                }
            }
        }
        // --list-backends names it, with its capability flags.
        if !listing.contains(&name) {
            problems.push(format!("`--list-backends` omits `{name}`"));
        }
        if !listing.contains(&entry.scheduler.capabilities().flags()) {
            problems.push(format!("`--list-backends` omits the flags of `{name}`"));
        }
    }

    // Live check: one compile per backend, traced; the span under the
    // derived pass label must actually open.
    lsms_trace::set_enabled(true);
    for entry in &entries {
        let mut config = SessionConfig::new(lsms_machine::huff_machine());
        config.backend = BackendSelection::named(entry.scheduler.name());
        let session = CompileSession::new(config);
        let compiled = session
            .compile_source(AUDIT_LOOP)
            .and_then(|unit| session.run_loop(&unit.loops[0]));
        if let Err(e) = compiled {
            problems.push(format!(
                "backend `{}` fails to schedule the audit loop: {e}",
                entry.scheduler.name()
            ));
        }
    }
    lsms_trace::set_enabled(false);
    let trace = lsms_trace::drain();
    for entry in &entries {
        let spanned = trace
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| e.name == entry.pass);
        if !spanned {
            problems.push(format!(
                "no trace span named `{}` opened for backend `{}`",
                entry.pass,
                entry.scheduler.name()
            ));
        }
    }

    if problems.is_empty() {
        println!(
            "backend-audit: {} backends consistent across registry, PASSES, \
             --list-backends, and trace spans",
            entries.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("backend-audit: {p}");
        }
        ExitCode::FAILURE
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("xtask: {message}");
    eprintln!("usage: cargo run -p xtask -- quality-diff OLD.json NEW.json");
    eprintln!("       cargo run -p xtask -- backend-audit");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("quality-diff") => quality_diff(&args[1..]),
        Some("backend-audit") => backend_audit(),
        _ => usage("known tasks: quality-diff, backend-audit"),
    }
}

#[cfg(test)]
mod tests {
    const QUALITY: &str = r#"{
  "schema_version": 1,
  "kind": "lsms-quality",
  "machine": "huff-cydra",
  "loops": [
    {"name": "gen_7", "backend": "slack", "pass": "schedule:slack", "rec_mii": 2, "res_mii": 3, "mii": 3, "ii": 3, "counted_ii": 3, "ii_gap": 0, "max_live": 9, "lifetime_sum": 21, "lifetime_mean": 3.00, "lifetime_max": 8, "ejected_ops": 0, "backtracks": 0, "degraded": false, "wall_us": 150},
    {"name": "gen_7", "backend": "cydrome", "pass": "schedule:cydrome", "rec_mii": 2, "res_mii": 3, "mii": 3, "ii": 4, "counted_ii": 4, "ii_gap": 1, "max_live": 11, "lifetime_sum": 25, "lifetime_mean": 3.57, "lifetime_max": 9, "ejected_ops": 2, "backtracks": 1, "degraded": false, "wall_us": 90}
  ],
  "rollup": {"loops": 1, "records": 2, "ii_sum": 7, "mii_sum": 6, "max_live_sum": 20}
}
"#;

    #[test]
    fn parses_the_driver_quality_format() {
        let records = lsms_obs::parse_quality(QUALITY);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "gen_7");
        assert_eq!(records[0].backend, "slack");
        assert_eq!(records[0].pass, "schedule:slack");
        assert_eq!(records[0].counted_ii, 3);
        assert_eq!(records[1].max_live, 11);
    }

    #[test]
    fn quality_gate_is_exact_count_with_attribution() {
        let old = lsms_obs::parse_quality(QUALITY);

        // Unchanged rerun: clean.
        let same = lsms_obs::diff_quality(&old, &old);
        assert!(!same.regressed());
        assert!(same.moved.is_empty());

        // A synthetically injected II regression of exactly one cycle on
        // one loop trips the gate and names the loop and its pass.
        let worse = QUALITY.replace(
            "\"ii\": 3, \"counted_ii\": 3",
            "\"ii\": 4, \"counted_ii\": 4",
        );
        let diff = lsms_obs::diff_quality(&old, &lsms_obs::parse_quality(&worse));
        assert!(diff.regressed());
        assert_eq!((diff.ii_sum_old, diff.ii_sum_new), (7, 8));
        assert_eq!(diff.moved.len(), 1);
        assert_eq!(diff.moved[0].name, "gen_7");
        assert_eq!(diff.moved[0].pass, "schedule:slack");
        assert!(diff.moved[0].worsened());

        // MaxLive is the second gated axis.
        let pressure = QUALITY.replace("\"max_live\": 9,", "\"max_live\": 10,");
        assert!(lsms_obs::diff_quality(&old, &lsms_obs::parse_quality(&pressure)).regressed());

        // A shrunk corpus gates over the shared records only.
        let shrunk: Vec<_> = old
            .iter()
            .filter(|r| r.backend == "slack")
            .cloned()
            .collect();
        let diff = lsms_obs::diff_quality(&old, &shrunk);
        assert!(!diff.regressed());
        assert_eq!((diff.compared, diff.only_old), (1, 1));
    }
}
