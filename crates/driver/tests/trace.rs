//! End-to-end tests of `--trace`, `--metrics`, and `--pass-budget`.
//!
//! These run `lsmsc` as a subprocess, which also gives each test a fresh
//! trace collector (the collector is process-global).

use std::collections::BTreeMap;
use std::process::Command;

fn lsmsc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsmsc"))
}

fn write_loop(name: &str, source: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, source).expect("write test loop");
    path
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(name)
}

/// A corpus loop (`gen_0011` under the default seed) chosen because the
/// slack scheduler's trace on it contains every decision event type:
/// placements, MRT conflicts, ejections, and an II escalation.
const HARD: &str = "loop hard(i = 4..n) {
    real a0[], a1[], a2[];
    real s0;
    a1[i] = ((a2[i] * 1.00) - a0[i]);
    a2[i] = ((a0[i-3] * (a1[i] * 0.75)) - ((a1[i-2] + a2[i+2]) + (3.88 - 0.88)));
    if ((a0[i] + 3.50) < (a0[i+1] + a2[i])) {
        a0[i+1] = ((s0 - s0) - (s0 + s0));
        s0 = 3.75;
    } else {
        a0[i+1] = 1.00;
    }
}";

/// Minimal recursive-descent JSON well-formedness check (no external
/// crates in this workspace).
fn assert_valid_json(text: &str) {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(
                self.b.get(self.i).copied(),
                Some(c),
                "expected {:?} at byte {}",
                c as char,
                self.i
            );
            self.i += 1;
        }
        fn peek(&mut self) -> u8 {
            self.ws();
            *self
                .b
                .get(self.i)
                .unwrap_or_else(|| panic!("eof at {}", self.i))
        }
        fn string(&mut self) {
            self.eat(b'"');
            while self.b[self.i] != b'"' {
                if self.b[self.i] == b'\\' {
                    self.i += 1;
                }
                self.i += 1;
            }
            self.i += 1;
        }
        fn value(&mut self) {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    if self.peek() != b'}' {
                        loop {
                            self.string();
                            self.eat(b':');
                            self.value();
                            if self.peek() != b',' {
                                break;
                            }
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                }
                b'[' => {
                    self.eat(b'[');
                    if self.peek() != b']' {
                        loop {
                            self.value();
                            if self.peek() != b',' {
                                break;
                            }
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                }
                b'"' => self.string(),
                _ => {
                    while self.i < self.b.len()
                        && matches!(
                            self.b[self.i],
                            b'0'..=b'9'
                                | b'-'
                                | b'+'
                                | b'.'
                                | b'e'
                                | b'E'
                                | b't'
                                | b'r'
                                | b'u'
                                | b'f'
                                | b'a'
                                | b'l'
                                | b's'
                                | b'n'
                        )
                    {
                        self.i += 1;
                    }
                }
            }
        }
    }
    let mut p = P {
        b: text.as_bytes(),
        i: 0,
    };
    p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing garbage after JSON value");
}

/// Pulls `(name, ph, tid)` out of every trace event. Leans on the
/// exporter's one-event-per-line formatting.
fn trace_events(json: &str) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let name = rest.split('"').next().expect("name").to_owned();
        let ph = line
            .split("\"ph\": \"")
            .nth(1)
            .expect("ph field")
            .split('"')
            .next()
            .expect("ph")
            .to_owned();
        let tid: u64 = line
            .split("\"tid\": ")
            .nth(1)
            .expect("tid field")
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .expect("tid")
            .parse()
            .expect("tid number");
        out.push((name, ph, tid));
    }
    out
}

/// Parses the Prometheus exposition into `name -> value` (counters and
/// histogram series alike; sample lines only).
fn prom_samples(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| l.starts_with("lsms_"))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line");
            (name.to_owned(), value.parse().expect("sample value"))
        })
        .collect()
}

/// Mirrors the exporter's metric-name sanitization.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[test]
fn trace_is_wellformed_balanced_and_covers_the_pipeline() {
    let path = write_loop("lsmsc_trace_hard.loop", HARD);
    let trace_path = temp("lsmsc_trace_hard.json");
    let out = lsmsc()
        .arg(&path)
        .args(["--run", "50", "--trace"])
        .arg(&trace_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert_valid_json(&json);

    let events = trace_events(&json);
    // Spans nest properly per thread: B/E pairs match like parentheses,
    // with names agreeing (Perfetto rejects mismatched pairs).
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (name, ph, tid) in &events {
        match ph.as_str() {
            "B" => stacks.entry(*tid).or_default().push(name.clone()),
            "E" => {
                let open = stacks.entry(*tid).or_default().pop();
                assert_eq!(
                    open.as_deref(),
                    Some(name.as_str()),
                    "mismatched E on {tid}"
                );
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    let spans: Vec<&str> = events
        .iter()
        .filter(|(_, ph, _)| ph == "B")
        .map(|(name, _, _)| name.as_str())
        .collect();
    for required in [
        "parse",
        "sema",
        "lower",
        "depgraph",
        "schedule:slack",
        "simulate-verify",
    ] {
        assert!(
            spans.contains(&required),
            "missing span {required}: {spans:?}"
        );
    }

    // The acceptance bar: at least three scheduler decision event types.
    let instants: Vec<&str> = events
        .iter()
        .filter(|(_, ph, _)| ph == "i")
        .map(|(name, _, _)| name.as_str())
        .collect();
    for required in [
        "sched.place",
        "sched.eject",
        "sched.mrt_conflict",
        "sched.ii_escalate",
    ] {
        assert!(
            instants.contains(&required),
            "missing decision event {required}: {instants:?}"
        );
    }
}

/// `--run` simulates the kernel the session already built: it adds no
/// scheduling decisions and no dependence graph of its own, and it runs
/// regalloc and codegen even without `--emit asm`.
#[test]
fn run_does_no_scheduling_of_its_own() {
    let path = write_loop("lsmsc_trace_run_reuse.loop", HARD);
    let counts = |run: &[&str], trace_name: &str| {
        let trace_path = temp(trace_name);
        let out = lsmsc()
            .arg(&path)
            .args(run)
            .arg("--trace")
            .arg(&trace_path)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&trace_path).expect("trace file written");
        let events = trace_events(&json);
        let count = |name: &str, ph: &str| {
            events
                .iter()
                .filter(|(n, p, _)| n == name && p == ph)
                .count()
        };
        (count("sched.place", "i"), count("depgraph", "B"))
    };
    let compiled = counts(&[], "lsmsc_trace_run_reuse_plain.json");
    let verified = counts(&["--run", "50"], "lsmsc_trace_run_reuse_run.json");
    assert!(compiled.0 > 0, "no sched.place events: {compiled:?}");
    assert_eq!(compiled, verified, "(sched.place, depgraph) counts");

    let timings_path = temp("lsmsc_trace_run_reuse_timings.json");
    let out = lsmsc()
        .arg(&path)
        .args(["--run", "50", "--timings"])
        .arg(&timings_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let timings = std::fs::read_to_string(&timings_path).expect("timings written");
    for pass in ["regalloc", "codegen", "simulate-verify"] {
        assert!(
            timings.contains(&format!("{{\"name\": \"{pass}\"")),
            "no {pass} row: {timings}"
        );
    }
}

#[test]
fn metrics_totals_reconcile_with_timings_counters() {
    let path = write_loop("lsmsc_trace_reconcile.loop", HARD);
    let timings_path = temp("lsmsc_trace_reconcile_timings.json");
    let out = lsmsc()
        .arg(&path)
        .args(["--run", "50", "--metrics", "-", "--timings"])
        .arg(&timings_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = prom_samples(&String::from_utf8_lossy(&out.stdout));
    let timings = std::fs::read_to_string(&timings_path).expect("timings written");

    // Every per-pass counter in the timings JSON must reappear as a
    // metrics total with the same value, and invocation counts match.
    let mut passes = 0;
    for record in timings.split("{\"name\": \"").skip(1) {
        let pass = record.split('"').next().expect("pass name");
        let invocations: u64 = record
            .split("\"invocations\": ")
            .nth(1)
            .expect("invocations")
            .split(',')
            .next()
            .expect("invocations value")
            .trim()
            .parse()
            .expect("invocations number");
        assert_eq!(
            metrics.get(&format!("lsms_{}_invocations_total", sanitize(pass))),
            Some(&invocations),
            "invocations mismatch for {pass}"
        );
        let counters = record
            .split("\"counters\": {")
            .nth(1)
            .expect("counters object")
            .split('}')
            .next()
            .expect("counters body");
        for pair in counters.split(", ").filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once(": ").expect("counter pair");
            let key = key.trim_matches('"');
            let value: u64 = value.parse().expect("counter value");
            let metric = format!("lsms_{}_{}_total", sanitize(pass), sanitize(key));
            assert_eq!(
                metrics.get(&metric),
                Some(&value),
                "{metric} disagrees with --timings {pass}.{key}"
            );
        }
        passes += 1;
    }
    assert!(
        passes >= 5,
        "expected a full pipeline in timings: {timings}"
    );
}

#[test]
fn corpus_metrics_are_identical_across_job_counts() {
    let run = |jobs: &str, out_name: &str, trace_name: &str| {
        let metrics_path = temp(out_name);
        let trace_path = temp(trace_name);
        let out = lsmsc()
            .args(["--eval-corpus", "--corpus-size", "32", "--jobs", jobs])
            .args(["--metrics"])
            .arg(&metrics_path)
            .args(["--trace"])
            .arg(&trace_path)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&metrics_path).expect("metrics written"),
            std::fs::read_to_string(&trace_path).expect("trace written"),
        )
    };
    let (serial, _) = run("1", "lsmsc_metrics_jobs1.txt", "lsmsc_trace_jobs1.json");
    let (parallel, trace) = run("4", "lsmsc_metrics_jobs4.txt", "lsmsc_trace_jobs4.json");
    assert_eq!(serial, parallel, "metrics must not depend on worker count");
    assert!(
        serial.contains("lsms_schedule_slack_invocations_total 32"),
        "{serial}"
    );

    // The merged corpus trace is valid JSON with per-thread balanced
    // B/E streams and one corpus.loop span per loop.
    assert_valid_json(&trace);
    let events = trace_events(&trace);
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    for (_, ph, tid) in &events {
        match ph.as_str() {
            "B" => *depth.entry(*tid).or_default() += 1,
            "E" => *depth.entry(*tid).or_default() -= 1,
            _ => {}
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unbalanced corpus trace: {depth:?}"
    );
    let loop_spans = events
        .iter()
        .filter(|(name, ph, _)| name == "corpus.loop" && ph == "B")
        .count();
    assert_eq!(loop_spans, 32, "one corpus.loop span per loop");
}

/// A pass that panics mid-span must not leave a dangling `B` event:
/// `SpanGuard` emits its `E` from `Drop` during unwinding, so a drained
/// trace stays balanced per thread — the invariant Perfetto enforces on
/// import, and the reason the collector survives a buggy backend.
///
/// This one runs in-process (the only test here that touches this
/// process's collector; every other test shells out to `lsmsc`).
#[test]
fn spans_balance_after_a_panicking_pass() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    lsms_trace::set_enabled(true);
    let _ = lsms_trace::drain(); // start from an empty collector
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _pipeline = lsms_trace::span("pipeline");
        let _pass = lsms_trace::span("schedule:panicky");
        panic!("injected backend bug");
    }));
    lsms_trace::set_enabled(false);
    assert!(result.is_err(), "the pass must actually panic");

    let trace = lsms_trace::drain();
    let mut closed_panicky_spans = 0;
    for thread in &trace.threads {
        let mut stack: Vec<&str> = Vec::new();
        for event in &thread.events {
            match event.phase {
                lsms_trace::Phase::Begin => stack.push(event.name),
                lsms_trace::Phase::End => {
                    assert_eq!(
                        stack.pop(),
                        Some(event.name),
                        "mismatched E on tid {}",
                        thread.tid
                    );
                    if event.name == "schedule:panicky" {
                        closed_panicky_spans += 1;
                    }
                }
                lsms_trace::Phase::Instant => {}
            }
        }
        assert!(
            stack.is_empty(),
            "unclosed spans on tid {}: {stack:?}",
            thread.tid
        );
    }
    assert_eq!(
        closed_panicky_spans, 1,
        "the panicking pass must close its span on unwind"
    );
}

#[test]
fn pass_budget_overruns_are_reported() {
    let path = write_loop("lsmsc_trace_budget.loop", HARD);
    let trace_path = temp("lsmsc_trace_budget.json");
    // A zero-millisecond deadline on parse always overruns.
    let out = lsmsc()
        .arg(&path)
        .args(["--pass-budget", "parse=0", "--metrics", "-", "--trace"])
        .arg(&trace_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "budgets warn, never abort: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = String::from_utf8_lossy(&out.stdout);
    assert!(
        metrics.contains("lsms_parse_budget_exceeded_total 1"),
        "{metrics}"
    );
    let json = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(json.contains("\"budget_exceeded\""), "{json}");
}

#[test]
fn pass_budget_rejects_unknown_passes() {
    let path = write_loop("lsmsc_trace_badbudget.loop", HARD);
    let out = lsmsc()
        .arg(&path)
        .args(["--pass-budget", "nonsense=5"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage error expected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pass"), "{err}");
}
