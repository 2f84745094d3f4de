//! End-to-end tests of `--quality` / `--quality-report`: report shape,
//! determinism across worker counts, agreement with the committed
//! `results/quality.tsv`, and no side effects beyond the named outputs.

use std::process::Command;

fn lsmsc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsmsc"))
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(name)
}

/// Cuts stdout down to the quality JSON document (the corpus summary
/// banner that precedes it names the job count) and strips the only
/// nondeterministic field (`wall_us`) so reports compare byte-for-byte.
fn strip_wall(report: &str) -> String {
    let json_start = report.find("{\n").expect("quality JSON on stdout");
    report[json_start..]
        .lines()
        .map(|line| match line.find("\"wall_us\":") {
            Some(at) => &line[..at],
            None => line,
        })
        .fold(String::new(), |mut out, line| {
            out.push_str(line);
            out.push('\n');
            out
        })
}

/// The acceptance bar for the quality observatory: per-loop II and
/// MaxLive (indeed, everything but wall time) must be byte-identical
/// between `--jobs 1` and `--jobs 4`.
#[test]
fn corpus_quality_is_identical_across_job_counts() {
    let run = |jobs: &str| {
        let out = lsmsc()
            .args(["--eval-corpus", "--corpus-size", "32", "--jobs", jobs])
            .args(["--quality", "-"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(
        strip_wall(&serial),
        strip_wall(&parallel),
        "quality must not depend on worker count"
    );
    // 32 loops × 3 backends in the eval harness.
    assert!(serial.contains("\"loops\": 32,"), "{serial}");
    assert!(serial.contains("\"records\": 96,"), "{serial}");
    assert!(serial.contains("\"kind\": \"lsms-quality\""), "{serial}");
    for backend in ["slack", "early", "cydrome"] {
        assert!(
            serial.contains(&format!("\"backend\": \"{backend}\"")),
            "missing backend {backend} in rollup: {serial}"
        );
    }
}

/// A fresh, empty working directory for one test, so a run that wrote
/// anything besides its named outputs would show.
fn empty_cwd(name: &str) -> std::path::PathBuf {
    let dir = temp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test cwd");
    dir
}

/// The value of `"key": ` in one JSON record line, quotes stripped.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    line[at..]
        .split([',', '}'])
        .next()
        .expect("value")
        .trim_matches('"')
}

/// `--quality` and `results/quality.tsv` project the same per-loop rows:
/// the report of the first 32 corpus loops matches the first 96 rows of
/// the committed file. The report prints `counted_ii`, which equals
/// `last_ii` (achieved or last attempted), and `null` where the file
/// prints `-`.
#[test]
fn quality_report_rows_match_the_committed_quality_tsv() {
    let out = lsmsc()
        .args(["--eval-corpus", "--corpus-size", "32", "--jobs", "1"])
        .args(["--quality", "-"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    let from_report: Vec<String> = report
        .lines()
        .filter(|line| line.trim_start().starts_with("{\"name\": "))
        .map(|line| {
            let ii = match field(line, "ii") {
                "null" => "-",
                ii => ii,
            };
            [
                field(line, "name"),
                field(line, "backend"),
                ii,
                field(line, "counted_ii"),
                field(line, "max_live"),
                field(line, "ejected_ops"),
                field(line, "backtracks"),
            ]
            .join("\t")
        })
        .collect();
    let tsv = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/quality.tsv"
    ))
    .expect("committed results/quality.tsv");
    let header: Vec<&str> = tsv.lines().next().expect("header").split('\t').collect();
    let column = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let keep = [
        "name",
        "backend",
        "ii",
        "last_ii",
        "max_live",
        "ejected_ops",
        "backtracks",
    ]
    .map(column);
    let from_tsv: Vec<String> = tsv
        .lines()
        .skip(1)
        .take(96)
        .map(|line| {
            let cells: Vec<&str> = line.split('\t').collect();
            keep.map(|i| cells[i]).join("\t")
        })
        .collect();
    assert_eq!(from_report.len(), 96, "{report}");
    assert_eq!(from_report, from_tsv);
}

/// A loop that fails after earlier loops compiled keeps their records:
/// daxpy verifies, the second loop needs more rotating registers than
/// verification accepts (`E0601`, exit 9), and the report still holds
/// daxpy's row.
#[test]
fn quality_keeps_the_loops_compiled_before_a_failure() {
    let source = "loop daxpy(i = 1..n) { real x[], y[]; param real a;
    y[i] = y[i] + a * x[i]; }
loop far(i = 1..n) { real x[];
    x[i] = x[i - 9000000] + 1.0; }";
    let path = temp("lsmsc_quality_partial.loop");
    std::fs::write(&path, source).expect("write test loop");
    let out = lsmsc()
        .arg(&path)
        .args(["--run", "50", "--quality", "-"])
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(9), "{stderr}");
    assert!(stderr.contains("E0601"), "{stderr}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"records\": 1,"), "{report}");
    assert!(report.contains("\"name\": \"daxpy\""), "{report}");
}

/// Single-loop compiles report quality too, and writing the report to a
/// file writes nothing else.
#[test]
fn single_loop_quality_reports_bounds() {
    let source = "loop daxpy(i = 1..n) {
    real x[], y[];
    param real a;
    y[i] = y[i] + a * x[i];
}";
    let cwd = empty_cwd("lsmsc_quality_daxpy");
    std::fs::write(cwd.join("daxpy.loop"), source).expect("write test loop");

    let out = lsmsc()
        .current_dir(&cwd)
        .args(["daxpy.loop", "--emit", "asm", "--quality", "report.json"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(cwd.join("report.json")).expect("report written");
    assert!(report.contains("\"name\": \"daxpy\""), "{report}");
    assert!(report.contains("\"backend\": \"slack\""), "{report}");
    // daxpy on the Table 1 machine: MII = achieved II = 2, no gap.
    assert!(report.contains("\"mii\": 2"), "{report}");
    assert!(report.contains("\"ii\": 2"), "{report}");
    assert!(report.contains("\"ii_gap\": 0"), "{report}");
    assert!(
        !cwd.join("results").exists(),
        "--quality FILE must write only FILE"
    );
}

/// The dashboard is a self-contained HTML document, and writing it with
/// the JSON report writes nothing else.
#[test]
fn quality_file_and_dashboard_render() {
    let source = "loop saxpy(i = 1..n) {
    real x[], y[];
    param real a;
    y[i] = a * x[i] + y[i];
}";
    let cwd = empty_cwd("lsmsc_quality_saxpy");
    std::fs::write(cwd.join("saxpy.loop"), source).expect("write test loop");

    let out = lsmsc()
        .current_dir(&cwd)
        .args(["saxpy.loop", "--emit", "asm", "--quality", "report.json"])
        .args(["--quality-report", "report.html"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(cwd.join("report.json")).expect("report written");
    assert!(report.contains("\"ii_sum\":"), "{report}");
    assert!(report.contains("\"max_live_sum\":"), "{report}");

    let html = std::fs::read_to_string(cwd.join("report.html")).expect("dashboard written");
    assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
    assert!(html.contains("saxpy"), "{html}");
    assert!(
        !html.contains("<script"),
        "dashboard must be JS-free: {html}"
    );
    assert!(
        !cwd.join("results").exists(),
        "--quality FILE must write only FILE"
    );
}
