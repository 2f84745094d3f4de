//! `lsmsc` — the lifetime-sensitive modulo scheduling compiler driver.
//!
//! ```text
//! lsmsc FILE.loop [options]
//!
//!   --machine huff|short|wide    target machine (default: huff)
//!   --policy  bidir|early|late   direction policy (default: bidir);
//!                                sugar for --backend slack|early|late
//!   --backend NAME[:key=val,...] scheduler backend from the registry,
//!                                with backend-specific options
//!                                (default: slack)
//!   --list-backends              list registered backends with their
//!                                capability flags and exit
//!   --emit    report|sched|asm|mve|dot|all   what to print (default: report)
//!   --unroll  N                  unroll the loop N times before scheduling
//!   --straight-line              schedule as a basic block (no overlap)
//!   --run     TRIP               simulate TRIP iterations of the emitted
//!                                kernel (any backend) and verify against
//!                                the reference interpreter
//!   --timings PATH               write the per-pass report as JSON to
//!                                PATH ("-" = stdout)
//!   --trace PATH                 write a Chrome trace-event JSON file
//!                                (load it at https://ui.perfetto.dev);
//!                                corpus runs merge all workers into one
//!                                trace, one row per worker thread; the
//!                                tracer is off unless this is given
//!   --metrics PATH               write the per-pass report's counters
//!                                (the same ones --timings prints, plus
//!                                invocations) in Prometheus text
//!                                exposition format ("-" = stdout)
//!   --pass-budget NAME=MILLIS    per-invocation wall-clock deadline for
//!                                a pass; overruns emit a
//!                                `budget_exceeded` trace event and
//!                                counter (repeatable, never aborts)
//!   --quality PATH               write per-loop schedule-quality records
//!                                (II vs MII, MaxLive, lifetimes,
//!                                backtracking) plus the corpus rollup as
//!                                JSON ("-" = stdout); with --eval-corpus
//!                                these are the rows results/quality.tsv
//!                                holds
//!   --quality-report PATH        write the same records and rollup as a
//!                                self-contained HTML dashboard (tables
//!                                and distribution bars; no JS)
//!   --explain-pass NAME          describe a pipeline pass; with a FILE
//!                                or --eval-corpus, also print what the
//!                                pass did on this invocation
//!
//!   --eval-corpus                no FILE: schedule the synthetic corpus
//!                                and print a summary instead
//!   --corpus-size N              corpus loops for --eval-corpus
//!                                (env LSMS_CORPUS; default 1525)
//!   --jobs N                     worker threads for --eval-corpus
//!                                (env LSMS_JOBS)
//! ```
//!
//! Diagnostics are uniform (`error[E0101]: FILE:3:7: message [parse]`)
//! and the exit code identifies the failing stage: 2 usage, 3 I/O,
//! 4 parse, 5 sema, 6 lower, 7 depgraph, 8 schedule, 9 regalloc,
//! 10 codegen, 11 simulate. When stdout closes before the output is
//! written (`lsmsc FILE --emit all | head -1`), `lsmsc` stops quietly
//! with exit code 141, the status a shell reports for a process that
//! SIGPIPE ended.
//!
//! Example:
//!
//! ```sh
//! echo 'loop daxpy(i = 1..n) { real x[], y[]; param real a;
//!       y[i] = y[i] + a * x[i]; }' > /tmp/daxpy.loop
//! lsmsc /tmp/daxpy.loop --emit asm --run 100 --timings -
//! ```

use std::process::ExitCode;

use lsms_machine::{huff_machine, short_latency_machine, wide_machine, Machine};
use lsms_obs::{QualityRollup, ScheduleQuality};
use lsms_pipeline::{
    list_backends_text, lookup_backend, pass_info, registered_backends, BackendSelection,
    CompileSession, LsmsError, PassBudget, SessionConfig, Stage, VerifySpec,
};
use lsms_sched::explain;

const EMITS: &[&str] = &["report", "sched", "list", "asm", "mve", "dot", "svg"];

/// The exit code once stdout's reader has gone away: 128 + SIGPIPE.
const EXIT_BROKEN_PIPE: i32 = 141;

/// `print!`, except that a closed stdout ends the process quietly with
/// [`EXIT_BROKEN_PIPE`] instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(EXIT_BROKEN_PIPE);
        }
        panic!("failed printing to stdout: {e}");
    }
}

struct Options {
    file: String,
    machine: Machine,
    backend: BackendSelection,
    list_backends: bool,
    emit: Vec<String>,
    unroll: u32,
    straight_line: bool,
    run: Option<u64>,
    eval_corpus: bool,
    corpus_size: Option<usize>,
    jobs: usize,
    timings: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    quality: Option<String>,
    quality_report: Option<String>,
    budgets: Vec<PassBudget>,
    explain_pass: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lsmsc FILE.loop [--machine huff|short|wide] [--policy bidir|early|late]\n\
         \x20             [--backend NAME[:key=val,...]] [--emit report|sched|list|asm|mve|dot|svg|all]\n\
         \x20             [--unroll N] [--straight-line] [--run TRIP] [--timings PATH|-]\n\
         \x20             [--trace PATH] [--metrics PATH|-] [--pass-budget NAME=MILLIS]\n\
         \x20             [--quality PATH|-] [--quality-report PATH|-]\n\
         \x20             [--explain-pass NAME]\n\
         \x20      lsmsc --eval-corpus [--corpus-size N] [--jobs N] [--machine ...]\n\
         \x20      lsmsc --explain-pass NAME\n\
         \x20      lsmsc --list-backends"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut options = Options {
        file: String::new(),
        machine: huff_machine(),
        backend: BackendSelection::default(),
        list_backends: false,
        emit: vec!["report".to_owned()],
        unroll: 1,
        straight_line: false,
        run: None,
        eval_corpus: false,
        corpus_size: None,
        jobs: lsms_bench::default_jobs(),
        timings: None,
        trace: None,
        metrics: None,
        quality: None,
        quality_report: None,
        budgets: Vec::new(),
        explain_pass: None,
    };
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--machine" => {
                options.machine = match need(&mut args, "--machine").as_str() {
                    "huff" => huff_machine(),
                    "short" => short_latency_machine(),
                    "wide" => wide_machine(),
                    other => {
                        eprintln!("unknown machine `{other}`");
                        usage();
                    }
                }
            }
            "--policy" => {
                // Sugar for the slack-family backend names.
                options.backend = match need(&mut args, "--policy").as_str() {
                    "bidir" => BackendSelection::named("slack"),
                    "early" => BackendSelection::named("early"),
                    "late" => BackendSelection::named("late"),
                    other => {
                        eprintln!("unknown policy `{other}`");
                        usage();
                    }
                }
            }
            "--backend" => {
                let spec = need(&mut args, "--backend");
                options.backend = BackendSelection::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("lsmsc: {}", e.render(None));
                    std::process::exit(e.exit_code().into());
                });
            }
            "--list-backends" => options.list_backends = true,
            "--emit" => {
                let what = need(&mut args, "--emit");
                options.emit = if what == "all" {
                    EMITS.iter().map(|s| (*s).to_owned()).collect()
                } else if EMITS.contains(&what.as_str()) {
                    vec![what]
                } else {
                    eprintln!("unknown --emit `{what}`");
                    usage();
                };
            }
            "--unroll" => {
                options.unroll = need(&mut args, "--unroll").parse().unwrap_or_else(|_| {
                    eprintln!("--unroll needs a positive integer");
                    usage();
                });
                if options.unroll == 0 {
                    usage();
                }
            }
            "--straight-line" => options.straight_line = true,
            "--eval-corpus" => options.eval_corpus = true,
            "--corpus-size" => {
                options.corpus_size = Some(
                    need(&mut args, "--corpus-size")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("--corpus-size needs a positive integer");
                            usage();
                        }),
                )
            }
            "--jobs" => {
                options.jobs = need(&mut args, "--jobs")
                    .parse()
                    .ok()
                    .filter(|&j: &usize| j >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive integer");
                        usage();
                    })
            }
            "--run" => {
                options.run = Some(need(&mut args, "--run").parse().unwrap_or_else(|_| {
                    eprintln!("--run needs an iteration count");
                    usage();
                }))
            }
            "--timings" => options.timings = Some(need(&mut args, "--timings")),
            "--trace" => options.trace = Some(need(&mut args, "--trace")),
            "--metrics" => options.metrics = Some(need(&mut args, "--metrics")),
            "--quality" => options.quality = Some(need(&mut args, "--quality")),
            "--quality-report" => {
                options.quality_report = Some(need(&mut args, "--quality-report"))
            }
            "--pass-budget" => {
                let spec = need(&mut args, "--pass-budget");
                options
                    .budgets
                    .push(parse_budget(&spec).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        usage();
                    }));
            }
            "--explain-pass" => options.explain_pass = Some(need(&mut args, "--explain-pass")),
            "--help" | "-h" => usage(),
            other if options.file.is_empty() && !other.starts_with('-') => {
                options.file = other.to_owned();
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    if options.file.is_empty()
        && !options.eval_corpus
        && options.explain_pass.is_none()
        && !options.list_backends
    {
        usage();
    }
    if options.eval_corpus && options.corpus_size.is_none() {
        options.corpus_size = Some(lsms_bench::default_corpus_size().unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        }));
    }
    options
}

/// Every pass name this invocation could run: the static registry plus
/// the `schedule:*` labels of runtime-registered backends.
fn known_pass_names() -> Vec<&'static str> {
    let mut known: Vec<&'static str> = lsms_pipeline::PASSES.iter().map(|p| p.name).collect();
    for entry in registered_backends() {
        if !known.contains(&entry.pass) {
            known.push(entry.pass);
        }
    }
    known
}

/// Resolves a user-supplied pass name to its interned `&'static` label,
/// consulting both the static pass registry and the backend registry (so
/// runtime-registered backends can be budgeted and explained).
fn interned_pass_name(name: &str) -> Option<&'static str> {
    if let Some(info) = pass_info(name) {
        return Some(info.name);
    }
    registered_backends()
        .iter()
        .find(|e| e.pass == name)
        .map(|e| e.pass)
}

/// Parses a `--pass-budget NAME=MILLIS` spec, resolving NAME to its
/// interned entry in the pass registry so unknown names fail up front.
fn parse_budget(spec: &str) -> Result<PassBudget, String> {
    let (name, millis) = spec
        .split_once('=')
        .ok_or_else(|| format!("--pass-budget wants NAME=MILLIS, got `{spec}`"))?;
    let pass = interned_pass_name(name).ok_or_else(|| {
        format!(
            "unknown pass `{name}` (passes: {})",
            known_pass_names().join(", ")
        )
    })?;
    let millis: u64 = millis
        .parse()
        .map_err(|_| format!("--pass-budget wants an integer millisecond limit, got `{millis}`"))?;
    Ok(PassBudget {
        pass,
        limit: std::time::Duration::from_millis(millis),
    })
}

/// The session configuration an option set implies. The session runs
/// codegen when `--emit asm` prints the kernel or `--run` simulates it
/// (the session's `verify` implies codegen).
fn session_config(options: &Options) -> SessionConfig {
    let mut config = SessionConfig::new(options.machine.clone());
    config.backend = options.backend.clone();
    config.unroll = options.unroll;
    config.straight_line = options.straight_line;
    config.codegen = options.emit.iter().any(|e| e == "asm");
    config.mve = options.emit.iter().any(|e| e == "mve");
    config.verify = options.run.map(VerifySpec::with_trip);
    config.budgets = options.budgets.clone();
    config
}

/// `--eval-corpus`: schedule the synthetic corpus with the three schedulers
/// and print a headline summary (the quick health check the experiment
/// binaries expand into full tables). The headline reads the rollup's
/// `slack` row; the rollup also feeds `--quality` / `--quality-report`.
fn eval_corpus(options: &Options, session: &CompileSession) -> QualityRollup {
    let corpus = lsms_bench::evaluate_corpus_session(
        session,
        options.corpus_size.expect("resolved in parse_args"),
        lsms_bench::CORPUS_SEED,
        options.jobs,
    );
    corpus.warn_failures();
    let rollup = QualityRollup::new(options.machine.name(), corpus.quality_records());
    let (loops, scheduled, at_mii, sum_ii, sum_mii) = rollup
        .backends
        .iter()
        .find(|b| b.backend == "slack")
        .map_or((0, 0, 0, 0, 0), |b| {
            (b.loops, b.scheduled, b.at_mii, b.ii.sum, b.mii_sum)
        });
    outln!(
        "corpus: {loops} loops on {} ({} jobs): {scheduled} scheduled, {at_mii} at MII ({:.1}%), II/MII {:.3}",
        options.machine.name(),
        options.jobs,
        100.0 * at_mii as f64 / loops.max(1) as f64,
        sum_ii as f64 / sum_mii.max(1) as f64,
    );
    let report = session.report();
    if let Some(record) = report.get("sched-cache") {
        let get = |key| record.counters.get(key).copied().unwrap_or(0);
        outln!(
            "schedule-cache: hits={} misses={}",
            get("hits"),
            get("misses")
        );
    }
    rollup
}

/// Compiles the input file and prints everything the options ask for,
/// pushing one quality record per compiled loop onto `quality` for
/// `--quality` / `--quality-report`. A loop that fails stops the run, but
/// the records of the loops before it stay in `quality`.
fn compile_and_emit(
    options: &Options,
    session: &CompileSession,
    quality: &mut Vec<ScheduleQuality>,
) -> Result<(), LsmsError> {
    let unit = session.compile_file(&options.file)?;
    if unit.loops.is_empty() {
        return Err(LsmsError::usage(format!("no loops in {}", options.file)));
    }
    let backend = session.backend()?.clone();
    for compiled in &unit.loops {
        let artifacts = session.run_loop(compiled)?;
        quality.push(artifacts.quality.clone());
        let problem = artifacts.problem(&session.config().machine)?;
        let schedule = &artifacts.schedule;
        for emit in &options.emit {
            match emit.as_str() {
                "report" => out!(
                    "{}",
                    explain::report_for_backend(&problem, schedule, backend.scheduler.as_ref())
                ),
                "sched" => {
                    outln!("loop {}: II = {}", artifacts.name, schedule.ii);
                    for op in artifacts.body.ops() {
                        outln!("  {:>4}  {}", schedule.times[op.id.index()], op.kind);
                    }
                }
                "dot" => out!("{}", lsms_ir::to_dot(&artifacts.body)),
                "list" => out!("{}", lsms_ir::to_listing(&artifacts.body)),
                "svg" => outln!(
                    "{}",
                    lsms_sched::svg::to_svg_for_backend(
                        &problem,
                        schedule,
                        backend.scheduler.as_ref()
                    )
                ),
                "asm" => {
                    let kernel = artifacts.kernel.as_ref().expect("--emit asm ran codegen");
                    out!("{}", lsms_codegen::to_asm(kernel, &problem));
                }
                "mve" => {
                    let kernel = artifacts.mve.as_ref().expect("--emit mve ran codegen");
                    out!("{}", lsms_codegen::to_asm_mve(kernel));
                }
                _ => unreachable!("emit names validated in parse_args"),
            }
        }
        if let (Some(trip), Some(report)) = (options.run, &artifacts.equiv) {
            outln!(
                "run: {} iterations in {} cycles (II {}, {} stages); \
                 {} array elements verified against the reference interpreter",
                trip,
                report.cycles,
                report.ii,
                report.stages,
                report.elements
            );
        }
    }
    Ok(())
}

/// `--explain-pass NAME`: static documentation for the pass plus, when
/// this invocation ran it, the measured work.
///
/// `schedule:*` names resolve through the backend registry's
/// [`describe`](lsms_sched::ModuloScheduler::describe), so runtime-registered
/// backends are explainable too; a backend with empty details gets a
/// graceful "no explanation available" instead of an error.
fn explain_pass(name: &str, session: &CompileSession) -> Result<(), LsmsError> {
    let registry_backend = name
        .strip_prefix("schedule:")
        .and_then(lookup_backend)
        .filter(|entry| entry.pass == name);
    if let Some(entry) = &registry_backend {
        let info = entry.scheduler.describe();
        outln!("pass {}: {}", entry.pass, info.summary);
        outln!();
        if info.details.is_empty() {
            outln!("no explanation available");
        } else {
            outln!("{}", info.details);
        }
        outln!();
        outln!("counters:");
        for (key, meaning) in lsms_pipeline::SCHED_COUNTERS {
            outln!("  {key:<20} {meaning}");
        }
    } else {
        let info = pass_info(name).ok_or_else(|| {
            LsmsError::usage(format!(
                "unknown pass `{name}` (passes: {})",
                known_pass_names().join(", ")
            ))
        })?;
        outln!("pass {}: {}", info.name, info.summary);
        outln!();
        outln!("{}", info.details);
        if !info.counters.is_empty() {
            outln!();
            outln!("counters:");
            for (key, meaning) in info.counters {
                outln!("  {key:<20} {meaning}");
            }
        }
    }
    let report = session.report();
    match report.get(name) {
        Some(record) => {
            outln!();
            outln!(
                "this invocation: {} run(s), {:.2?} wall",
                record.invocations,
                record.wall
            );
            for (key, value) in &record.counters {
                outln!("  {key:<20} {value}");
            }
        }
        None if !report.is_empty() => {
            outln!();
            outln!("this invocation: pass did not run");
        }
        None => {}
    }
    Ok(())
}

/// `--quality PATH|-` / `--quality-report PATH|-`: writes the run's
/// rollup as the JSON report and/or the HTML dashboard.
fn write_quality_outputs(options: &Options, rollup: &QualityRollup) -> Result<(), LsmsError> {
    if let Some(path) = &options.quality {
        write_output(path, &rollup.to_json())?;
    }
    if let Some(path) = &options.quality_report {
        write_output(path, &lsms_obs::quality_dashboard_html(rollup))?;
    }
    Ok(())
}

/// Writes `text` to `path`, or to stdout for `-`.
fn write_output(path: &str, text: &str) -> Result<(), LsmsError> {
    if path == "-" {
        out!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| LsmsError::io(format!("cannot write {path}: {e}")))
    }
}

fn main() -> ExitCode {
    let options = parse_args();
    if options.list_backends {
        out!("{}", list_backends_text());
        return ExitCode::SUCCESS;
    }
    if options.trace.is_some() {
        lsms_trace::set_enabled(true);
    }
    let session = CompileSession::new(session_config(&options));
    if let Err(e) = session.validate() {
        eprintln!("lsmsc: {}", e.render(None));
        return ExitCode::from(e.exit_code());
    }

    let mut code = 0u8;
    let rollup = if options.eval_corpus {
        eval_corpus(&options, &session)
    } else {
        let mut records = Vec::new();
        if !options.file.is_empty() {
            if let Err(e) = compile_and_emit(&options, &session, &mut records) {
                // I/O messages already name the path; don't prefix it twice.
                let origin = (e.stage != Stage::Io).then_some(options.file.as_str());
                eprintln!("lsmsc: {}", e.render(origin));
                code = e.exit_code();
            }
        }
        QualityRollup::new(options.machine.name(), records)
    };
    if options.quality.is_some() || options.quality_report.is_some() {
        if let Err(e) = write_quality_outputs(&options, &rollup) {
            eprintln!("lsmsc: {}", e.render(None));
            if code == 0 {
                code = e.exit_code();
            }
        }
    }

    if let Some(name) = &options.explain_pass {
        if let Err(e) = explain_pass(name, &session) {
            eprintln!("lsmsc: {}", e.render(None));
            if code == 0 {
                code = e.exit_code();
            }
        }
    }
    let exports = [
        options
            .timings
            .as_ref()
            .map(|path| (path, session.report().to_json())),
        options
            .trace
            .as_ref()
            .map(|path| (path, lsms_trace::to_chrome_json(&lsms_trace::drain()))),
        options
            .metrics
            .as_ref()
            .map(|path| (path, session.report().to_prometheus())),
    ];
    for (path, text) in exports.into_iter().flatten() {
        if let Err(e) = write_output(path, &text) {
            eprintln!("lsmsc: {}", e.render(None));
            if code == 0 {
                code = e.exit_code();
            }
        }
    }
    ExitCode::from(code)
}
