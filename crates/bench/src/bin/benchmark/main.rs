//! `benchmark`: times the whole `lsmsc` compile (parse → sema → lower →
//! depgraph → schedule → regalloc → codegen → simulate-verify) over the
//! paper's loop population, holding schedule quality exact, and traces
//! each layer in a separate run. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! benchmark compare A1.json ... -- B1.json ...
//! ```
//!
//! One invocation runs one workload as a closed loop: one client
//! compiles one loop at a time on one thread. It prints every metric as
//! `workload metric value unit`, writes a report under `bench-results/`,
//! and ends stdout with one JSON line. It exits 1 when any loop fails,
//! panics or mis-verifies, or a correctness gate trips.

mod compare;
mod heap;
mod json;
mod replay;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{beyond, median, nearest_rank, MIN_BEYOND};
use workload::{
    compile_loop, round_seed, set_up, timed_round, warm_up, Quality, Workload, CORPUS_LOOPS,
};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
       benchmark compare A1.json ... -- B1.json ...
workloads: calibrated, recurrence, paper-eval, shared";

/// Where run reports and traces go, relative to the working directory.
const OUT_DIR: &str = "bench-results";

/// Set-ups timed per round; `setup_s` is their median.
const SETUPS_PER_ROUND: usize = 3;

/// The experiment binaries' corpus seed, and the default `--seed`.
const DEFAULT_SEED: u64 = 1993;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Calibrated,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample counts and the like, for the human-readable line only.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// What one invocation measured and whether every output was right.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// `loop: error` for each loop that failed, panicked or mis-verified.
    pub failures: Vec<String>,
    /// Correctness gates that tripped outside any one loop.
    pub problems: Vec<String>,
    /// The first traced round as a Chrome trace document.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty() && self.problems.is_empty()
    }

    fn json_body(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(m.name),
                    m.value,
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(",")
        )
    }
}

/// The untraced run: rounds of set-up then one timed pass over the
/// corpus, until `budget` of passes has been measured.
fn timed_run(workload: Workload, seed: u64, budget: Duration, loops: usize) -> Outcome {
    warm_up(workload);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut loop_ms = Vec::new();
    let mut measured = Duration::ZERO;
    let mut peak_heap = 0;
    let mut quality: Option<Quality> = None;
    for round in 0.. {
        let seed = round_seed(seed, round);
        let setup = (0..SETUPS_PER_ROUND)
            .map(|_| {
                let started = Instant::now();
                let setup = set_up(workload, seed, loops);
                setup_s.push(started.elapsed().as_secs_f64());
                setup
            })
            .last()
            .expect("at least one set-up per round");
        let setup = match setup {
            Ok(setup) => setup,
            Err(e) => {
                out.problems.push(format!("set-up: {e}"));
                return out;
            }
        };
        let r = timed_round(&setup.sources, |source| {
            compile_loop(&setup.session, workload, source)
        });
        measured += r.elapsed;
        peak_heap = peak_heap.max(r.peak_heap);
        out.attempted += r.loop_ns.len() as u64;
        loop_ms.extend(r.loop_ns.iter().map(|&ns| ns as f64 / 1e6));
        out.failures.extend(r.failures);
        match quality {
            None => quality = Some(r.quality),
            Some(first) if first != r.quality => out.problems.push(format!(
                "round {round} compiled the same loops to {:?}, round 0 to {first:?}",
                r.quality
            )),
            Some(_) => {}
        }
        if !another_round(measured, round, budget) {
            break;
        }
    }
    let quality = quality.unwrap_or_default();
    if workload == Workload::PaperEval && loops == CORPUS_LOOPS {
        out.problems.extend(table_gate(&quality));
    }
    loop_ms.sort_by(f64::total_cmp);
    let percentile = |name, p| {
        let n = loop_ms.len();
        let more = beyond(n, p);
        let mut m = metric(name, nearest_rank(&loop_ms, p), "ms");
        m.note = format!("(n={n}, {more} beyond)");
        if more < MIN_BEYOND {
            m.note.push_str(" too few samples beyond");
        }
        m
    };
    let mut setup = metric("setup_s", median(&setup_s), "s");
    setup.note = format!("(median of {})", setup_s.len());
    out.metrics = vec![
        setup,
        metric(
            "loops_per_s",
            out.attempted as f64 / measured.as_secs_f64(),
            "loops/s",
        ),
        percentile("loop_ms.p50", 50),
        percentile("loop_ms.p99", 99),
        metric("peak_heap_mb", peak_heap as f64 / (1 << 20) as f64, "MB"),
        metric("sum_ii", quality.sum_ii as f64, "cycles"),
        metric("sum_maxlive", quality.sum_maxlive as f64, "registers"),
        metric("loops_at_mii", quality.at_mii as f64, "loops"),
    ];
    out
}

/// The traced run: pairs of an untraced pass and a traced replay of the
/// same corpus, until `budget` has been spent. Layer times are medians
/// over the traced passes; counts come from the first.
fn traced_run(workload: Workload, seed: u64, budget: Duration, loops: usize) -> Outcome {
    warm_up(workload);
    let mut out = Outcome::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers = Vec::new();
    let mut first: Option<(replay::LayerCounts, Quality)> = None;
    let started = Instant::now();
    for round in 0.. {
        let setup = match set_up(workload, round_seed(seed, round), loops) {
            Ok(setup) => setup,
            Err(e) => {
                out.problems.push(format!("set-up: {e}"));
                return out;
            }
        };
        let untraced = timed_round(&setup.sources, |source| {
            compile_loop(&setup.session, workload, source)
        });
        let traced = replay::traced_round(workload, &setup.sources, setup.verify_seed);
        if let Err(e) = replay::fidelity(&untraced.quality, &setup.session.report(), &traced) {
            out.problems
                .push(format!("round {round}: the traced replay diverged: {e}"));
        }
        out.attempted += (untraced.loop_ns.len() + traced.round.loop_ns.len()) as u64;
        out.failures.extend(untraced.failures);
        out.failures.extend(traced.round.failures);
        untraced_s.push(untraced.elapsed.as_secs_f64());
        traced_s.push(traced.round.elapsed.as_secs_f64());
        layers.push(traced.tracer.self_seconds());
        match &first {
            None => {
                out.chrome_trace = Some(traced.tracer.chrome_json());
                first = Some((traced.counts, traced.round.quality));
            }
            Some((counts, _)) if *counts != traced.counts => out.problems.push(format!(
                "round {round} counted {:?}, round 0 {counts:?}",
                traced.counts
            )),
            Some(_) => {}
        }
        if !another_round(started.elapsed(), round, budget) {
            break;
        }
    }
    let (c, q) = first.unwrap_or_default();
    let time = |span: &str| {
        median(
            &layers
                .iter()
                .map(|l| l.get(span).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let count = |name, value: u64, unit| metric(name, value as f64, unit);
    out.metrics = vec![
        metric("front.parse_s", time("front.parse"), "s"),
        metric("front.sema_s", time("front.sema"), "s"),
        metric("front.lower_s", time("front.lower"), "s"),
        count("front.ops", c.ops, "ops"),
        metric("depgraph.s", time("depgraph"), "s"),
        count("depgraph.nodes", c.nodes, "nodes"),
        count("depgraph.arcs", c.arcs, "arcs"),
        metric("sched_cache.key_s", time("sched_cache"), "s"),
        count("sched_cache.hits", c.cache_hits, "count"),
        count("sched_cache.misses", c.cache_misses, "count"),
        metric(
            "sched_cache.hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        metric("sched.slack_s", time("schedule:slack"), "s"),
        metric("sched.early_s", time("schedule:early"), "s"),
        metric("sched.cydrome_s", time("schedule:cydrome"), "s"),
        count("sched.attempts", c.attempts, "count"),
        count("sched.central_iterations", c.central_iterations, "count"),
        count("sched.ejected_ops", c.ejected_ops, "count"),
        count("sched.step6_restarts", c.step6_restarts, "count"),
        count(
            "sched.bounds_cells_touched",
            c.bounds_cells_touched,
            "count",
        ),
        count("sched.choose_scan_len", c.choose_scan_len, "count"),
        metric(
            "sched.first_try_ratio",
            ratio(c.first_try, c.scheduled),
            "ratio",
        ),
        metric(
            "sched.kept_ratio",
            ratio(
                c.central_iterations.saturating_sub(c.ejected_ops),
                c.central_iterations,
            ),
            "ratio",
        ),
        count("mindist.hits", c.mindist_hits, "count"),
        count("mindist.misses", c.mindist_misses, "count"),
        count("mindist.fw_computes", c.fw_computes, "count"),
        count("mindist.parametric_builds", c.parametric_builds, "count"),
        count("mindist.materialized", c.materialized, "count"),
        metric("validate.s", time("validate"), "s"),
        metric("pressure.s", time("pressure"), "s"),
        metric("regalloc.s", time("regalloc"), "s"),
        count("regalloc.rr_regs", c.rr_regs, "registers"),
        count("regalloc.icr_regs", c.icr_regs, "registers"),
        count("regalloc.excess", c.excess, "registers"),
        metric("codegen.s", time("codegen"), "s"),
        count("codegen.kernel_insts", q.kernel_insts, "insts"),
        metric("verify.workspace_s", time("verify.workspace"), "s"),
        metric("verify.reference_s", time("verify.reference"), "s"),
        metric("verify.redo_s", time("verify.redo"), "s"),
        metric("verify.sim_s", time("verify.sim"), "s"),
        metric("verify.compare_s", time("verify.compare"), "s"),
        count("verify.elements", q.elements, "elements"),
        count("verify.sim_cycles", q.sim_cycles, "cycles"),
        metric("loop.self_s", time("loop"), "s"),
        metric(
            "trace.overhead_pct",
            100.0 * (median(&traced_s) / median(&untraced_s) - 1.0),
            "%",
        ),
    ];
    out
}

/// Whether to start round `done + 1` after `spent` on rounds `0..=done`:
/// only if at least half of it, at the rounds' mean length, fits in
/// `budget`, so a run overshoots its budget by at most half a round.
fn another_round(spent: Duration, done: usize, budget: Duration) -> bool {
    spent + spent / (2 * (done as u32 + 1)) < budget
}

/// At the paper's corpus, `paper-eval` must reproduce the "All Loops"
/// rows of `results/table3.txt` (slack) and `results/table4.txt`
/// (Cydrome-style).
fn table_gate(q: &Quality) -> Vec<String> {
    let mut problems = Vec::new();
    for (table, text, sum_ii, at_mii) in [
        (
            "table3",
            include_str!("../../../../../results/table3.txt"),
            q.sum_ii,
            q.at_mii,
        ),
        (
            "table4",
            include_str!("../../../../../results/table4.txt"),
            q.old_sum_ii,
            q.old_at_mii,
        ),
    ] {
        // `All Loops  <opt> <all> <pct>% <sum II> <sum MII> <ratio>`
        let row: Option<Vec<u64>> =
            text.lines()
                .find_map(|l| l.strip_prefix("All Loops"))
                .map(|rest| {
                    rest.split_whitespace()
                        .filter_map(|field| field.parse().ok())
                        .collect()
                });
        let expected = row.as_deref().and_then(|r| match r {
            [opt, all, sum_ii, sum_mii, ..] => Some((*opt, *all, *sum_ii, *sum_mii)),
            _ => None,
        });
        let got = (at_mii, q.loops, sum_ii, q.sum_mii);
        if expected != Some(got) {
            problems.push(format!(
                "{table} All Loops (at MII, loops, sum II, sum MII): results say {expected:?}, \
                 this run {got:?}"
            ));
        }
    }
    problems
}

fn write_outputs(args: &Args, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let workload = args.workload.name();
    let report = format!(
        "{OUT_DIR}/{workload}-seed{}-trace{}-{stamp}.json",
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        &report,
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},{}}}\n",
            json::quote(workload),
            args.seed,
            u8::from(args.trace),
            out.json_body()
        ),
    )?;
    eprintln!("report: {report}");
    if let Some(trace) = &out.chrome_trace {
        let path = format!("{OUT_DIR}/{workload}.trace.json");
        std::fs::write(&path, trace)?;
        eprintln!("trace: {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        traced_run(args.workload, args.seed, budget, CORPUS_LOOPS)
    } else {
        timed_run(args.workload, args.seed, budget, CORPUS_LOOPS)
    };
    let workload = args.workload.name();
    for m in &out.metrics {
        println!("{workload} {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{workload} fail_ratio {} failed/attempted ({}/{})",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted
    );
    for failure in out.failures.iter().take(20) {
        eprintln!("FAILED {failure}");
    }
    for problem in &out.problems {
        eprintln!("INCORRECT {problem}");
    }
    if let Err(e) = write_outputs(&args, &out) {
        eprintln!("error: cannot write {OUT_DIR}/: {e}");
    }
    println!("{{{}}}", out.json_body());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units, in order, as `BENCHMARK.json` lists them.
    fn listed(specs: &[compare::MetricSpec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.clone(), s.unit.clone()))
            .collect()
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn smoke_runs_emit_every_listed_metric() {
        let (end_to_end, per_layer) = compare::benchmark_metrics().expect("BENCHMARK.json parses");
        for workload in Workload::ALL {
            let timed = timed_run(workload, 7, Duration::ZERO, 40);
            assert!(
                timed.correct(),
                "{}: {:?} {:?}",
                workload.name(),
                timed.failures,
                timed.problems
            );
            assert_eq!(emitted(&timed), listed(&end_to_end), "{}", workload.name());
            assert!(
                timed.metrics.iter().all(|m| m.value > 0.0),
                "{}",
                workload.name()
            );

            let traced = traced_run(workload, 7, Duration::ZERO, 40);
            assert!(
                traced.correct(),
                "{}: {:?} {:?}",
                workload.name(),
                traced.failures,
                traced.problems
            );
            assert_eq!(emitted(&traced), listed(&per_layer), "{}", workload.name());
            assert!(traced.chrome_trace.is_some());
        }
        for (name, _) in listed(&end_to_end).iter().chain(&listed(&per_layer)) {
            assert!(well_formed(name), "{name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload shared --seed 7 --seconds 3 --trace 1").expect("parses");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Shared, 7, 3, true)
        );
        assert_eq!(
            parse("--workload paper-eval").map(|a| a.seed).ok(),
            Some(1993)
        );
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload shared --trace 2").is_err());
        assert!(parse("--workload shared --seed").is_err());
    }
}
