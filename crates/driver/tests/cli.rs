//! End-to-end tests of the `lsmsc` binary.

use std::process::Command;

fn lsmsc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsmsc"))
}

fn write_loop(name: &str, source: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, source).expect("write test loop");
    path
}

const DAXPY: &str = "loop daxpy(i = 1..n) {
    real x[], y[];
    param real a;
    y[i] = y[i] + a * x[i];
}";

#[test]
fn report_prints_bounds_and_pressure() {
    let path = write_loop("lsmsc_daxpy.loop", DAXPY);
    let out = lsmsc().arg(&path).output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ResMII 2"), "{text}");
    assert!(text.contains("MaxLive"), "{text}");
    assert!(text.contains("LiveVector"), "{text}");
}

#[test]
fn run_verifies_against_the_reference() {
    let path = write_loop("lsmsc_daxpy_run.loop", DAXPY);
    let out = lsmsc()
        .arg(&path)
        .args(["--run", "64", "--emit", "sched"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("verified against the reference interpreter"),
        "{text}"
    );
    assert!(text.contains("II = 2"), "{text}");
}

#[test]
fn emit_variants_produce_their_formats() {
    let path = write_loop("lsmsc_daxpy_emit.loop", DAXPY);
    for (emit, marker) in [
        ("asm", "; kernel: II="),
        ("mve", "; MVE kernel:"),
        ("dot", "digraph"),
        ("svg", "<svg"),
        ("list", "loop daxpy ("),
    ] {
        let out = lsmsc()
            .arg(&path)
            .args(["--emit", emit])
            .output()
            .expect("runs");
        assert!(out.status.success(), "--emit {emit}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(marker), "--emit {emit}: {text}");
    }
}

#[test]
fn unroll_halves_the_effective_ii() {
    let path = write_loop("lsmsc_daxpy_unroll.loop", DAXPY);
    let out = lsmsc()
        .arg(&path)
        .args(["--unroll", "2", "--emit", "sched"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("II = 3"),
        "unrolled daxpy runs at 1.5 cycles/iter: {text}"
    );
}

#[test]
fn machine_and_policy_flags_are_honoured() {
    let path = write_loop("lsmsc_daxpy_flags.loop", DAXPY);
    let out = lsmsc()
        .arg(&path)
        .args(["--machine", "short", "--policy", "early", "--emit", "sched"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let out = lsmsc()
        .arg(&path)
        .args(["--machine", "bogus"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn list_backends_names_every_builtin_with_flags() {
    let out = lsmsc().arg("--list-backends").output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["slack", "early", "late", "cydrome"] {
        assert!(text.contains(name), "{text}");
    }
    assert!(text.contains("capabilities ["), "{text}");
    assert!(text.contains("budget-degradation"), "{text}");
}

#[test]
fn retired_and_zero_valued_flags_are_usage_errors() {
    for args in [
        &["--list-backends", "--warm-start", "ledger.jsonl"][..],
        &["--eval-corpus", "--corpus-size", "0"][..],
    ] {
        let out = lsmsc().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn backend_flag_selects_and_configures_a_backend() {
    let path = write_loop("lsmsc_daxpy_backend.loop", DAXPY);
    let out = lsmsc()
        .arg(&path)
        .args(["--backend", "cydrome", "--emit", "sched"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = lsmsc()
        .arg(&path)
        .args(["--backend", "slack:increment=by-one", "--emit", "sched"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_backend_is_a_stable_usage_error() {
    let path = write_loop("lsmsc_daxpy_badbackend.loop", DAXPY);
    let out = lsmsc()
        .arg(&path)
        .args(["--backend", "quantum"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error[E0003]"), "{err}");
    assert!(err.contains("unknown backend `quantum`"), "{err}");
    assert!(err.contains("slack"), "lists registered names: {err}");
}

#[test]
fn explain_pass_describes_backends_from_the_registry() {
    let out = lsmsc()
        .args(["--explain-pass", "schedule:cydrome"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Cydrome-style baseline"), "{text}");
}

#[test]
fn compile_errors_are_reported_with_location() {
    let path = write_loop("lsmsc_bad.loop", "loop b(i = 1..9) { real x[]; x[i] = q; }");
    let out = lsmsc().arg(&path).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("undeclared scalar"), "{err}");
}

/// `lsmsc … | head -1`: once the reader closes the pipe, `lsmsc` stops
/// quietly with exit code 141 instead of panicking.
#[test]
fn a_closed_stdout_ends_quietly_with_141() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // Far more output than a pipe buffers, so writes continue after the
    // reader has gone.
    let source: String = (0..300)
        .map(|k| DAXPY.replace("daxpy", &format!("daxpy{k}")) + "\n")
        .collect();
    let path = write_loop("lsmsc_closed_stdout.loop", &source);
    let mut child = lsmsc()
        .arg(&path)
        .args(["--emit", "all"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut first)
        .expect("reads a line");
    assert!(!first.is_empty());
    // The reader (and with it the pipe's read end) is dropped here.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut stderr)
        .expect("reads stderr");
    let status = child.wait().expect("exits");
    assert_eq!(status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
