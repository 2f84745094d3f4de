//! `cargo xtask` — repo maintenance tasks.
//!
//! ```text
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
//! Schedule quality is gated by regenerating `results/` with the `paper`
//! binary and diffing it against the committed files, not here.
//!
//! Wall-clock performance is gated by the `benchmark` binary's noise-aware
//! `compare` mode, not here.

use std::process::ExitCode;

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
    eprintln!("usage: cargo run -p xtask -- backend-audit");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("backend-audit") => backend_audit(),
        _ => usage("known tasks: backend-audit"),
    }
}
