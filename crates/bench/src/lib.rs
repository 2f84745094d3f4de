//! Experiment engine for reproducing the paper's evaluation (§6–§7).
//!
//! The `paper` binary (`src/bin/paper/`) writes every file under
//! `results/`; this library does the shared work: run the corpus
//! through the three schedulers (bidirectional slack, unidirectional
//! slack, Cydrome-style baseline) on a pool of worker threads, collect
//! the per-loop [`LoopEvaluation`]s in corpus order, and provide
//! percentile/histogram formatting.
//!
//! Performance is measured by one binary, `benchmark`, a Cargo package
//! of its own under `src/bin/benchmark/` that times the whole compile
//! on four workloads (see its README). The results files report
//! schedule quality and deterministic work counters, never wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lsms_front::CompiledLoop;
use lsms_pipeline::{CompileSession, LsmsError};

pub use lsms_loops::CORPUS_SEED;
pub use lsms_pipeline::{LoopEvaluation, SchedOutcome};

/// One loop the corpus evaluation could not process (its diagnostic is
/// kept; the run continues).
#[derive(Clone, Debug)]
pub struct CorpusFailure {
    /// Position in the input loop list.
    pub index: usize,
    /// Loop name.
    pub name: String,
    /// What went wrong.
    pub error: LsmsError,
}

/// The outcome of evaluating a loop list: the successful records, in
/// input order, plus any per-loop failures.
#[derive(Clone, Debug, Default)]
pub struct CorpusReport {
    /// Successfully evaluated loops, in input order.
    pub records: Vec<LoopEvaluation>,
    /// Loops that failed a pipeline stage, in input order.
    pub failures: Vec<CorpusFailure>,
}

impl CorpusReport {
    /// Prints one stderr warning per failed loop (no-op when none failed).
    pub fn warn_failures(&self) {
        for f in &self.failures {
            eprintln!("warning: loop {} (#{}): {}", f.name, f.index, f.error);
        }
    }

    /// Flattens every record's trio into the observatory's corpus-wide
    /// record list, in corpus order (so the list is byte-stable across
    /// `--jobs` counts, like the records themselves).
    pub fn quality_records(&self) -> Vec<lsms_obs::ScheduleQuality> {
        self.records
            .iter()
            .flat_map(LoopEvaluation::quality_records)
            .collect()
    }

    /// The records of the first `count` input loops. A smaller corpus is
    /// a prefix of a larger one, so this is the report a `count`-loop
    /// run would have produced.
    pub fn prefix(&self, count: usize) -> &[LoopEvaluation] {
        let failed = self.failures.iter().filter(|f| f.index < count).count();
        &self.records[..(count - failed).min(self.records.len())]
    }
}

/// Evaluates the standard corpus (kernels + generated) through a
/// session, using [`default_jobs`] worker threads. Records come back in
/// corpus order regardless of thread count, so the output of every
/// experiment binary is byte-identical to a single-threaded run.
pub fn evaluate_corpus_session(
    session: &CompileSession,
    count: usize,
    seed: u64,
    jobs: usize,
) -> CorpusReport {
    let loops = lsms_loops::corpus(count, seed);
    evaluate_loops_session(session, &loops, jobs)
}

/// Evaluates an already-built loop list through a session on `jobs`
/// worker threads, preserving input order in the output, so every
/// downstream report is byte-identical to a sequential run.
pub fn evaluate_loops_session(
    session: &CompileSession,
    loops: &[CompiledLoop],
    jobs: usize,
) -> CorpusReport {
    // Each loop's evaluation gets a span so corpus traces show one B/E
    // pair per loop per worker thread; the index arg links it back to
    // the corpus order. The session runs the three schedulers over one
    // shared `MinDistCache`, and a malformed loop (invalid body, zero-ω
    // circuit) comes back as an error, recorded below as a failure.
    let results = par_map(loops.len(), jobs, |i| {
        let _span = lsms_trace::span_with("corpus.loop", &[("index", i as i64)]);
        session.evaluate_variants(&loops[i], false)
    });
    let mut report = CorpusReport::default();
    for (index, result) in results.into_iter().enumerate() {
        match result {
            Ok(record) => report.records.push(record),
            Err(error) => report.failures.push(CorpusFailure {
                index,
                name: loops[index].def.name.clone(),
                error,
            }),
        }
    }
    report
}

/// Computes `f(0) .. f(len - 1)` on `jobs` worker threads and returns
/// the results in index order, so the output never depends on `jobs`.
///
/// Workers claim indices in order from a shared counter; results are
/// reassembled by index.
pub fn par_map<R: Send>(len: usize, jobs: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let jobs = jobs.max(1).min(len.max(1));
    if jobs == 1 {
        return (0..len).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= len {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, result) in worker.join().expect("worker thread panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// The corpus size `lsmsc --eval-corpus` uses without `--corpus-size`:
/// `LSMS_CORPUS` when set, else the paper's 1,525.
///
/// # Errors
///
/// A usage-error message when `LSMS_CORPUS` is not a positive integer.
pub fn default_corpus_size() -> Result<usize, String> {
    match std::env::var("LSMS_CORPUS") {
        Ok(v) => v
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("LSMS_CORPUS needs a positive integer, got `{v}`")),
        Err(_) => Ok(lsms_loops::PAPER_CORPUS_SIZE),
    }
}

/// Worker threads for corpus evaluation: the `LSMS_JOBS` environment
/// variable when set, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("LSMS_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// min / median / 90th percentile / max of a sample (Table 2/3/4 style).
pub fn percentiles(values: &mut [u64]) -> (u64, u64, u64, u64) {
    assert!(!values.is_empty(), "percentiles of an empty sample");
    values.sort_unstable();
    let n = values.len();
    (
        values[0],
        values[n / 2],
        values[(n * 9 / 10).min(n - 1)],
        values[n - 1],
    )
}

/// Formats one Table 2 row.
pub fn stat_row(label: &str, values: &mut [u64]) -> String {
    let (min, p50, p90, max) = percentiles(values);
    format!("{label:<24} {min:>6} {p50:>6} {p90:>6} {max:>6}")
}

/// A cumulative-percentage histogram over register counts, the textual
/// analogue of the paper's Figures 5–8.
pub fn cumulative_histogram(title: &str, series: &[(&str, Vec<i64>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let lo = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .min()
        .unwrap_or(0)
        .min(0);
    let hi = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .max()
        .unwrap_or(0);
    let _ = write!(out, "{:>10} ", "registers");
    for (name, _) in series {
        let _ = write!(out, "{name:>18}");
    }
    let _ = writeln!(out);
    // Bucket boundaries: fine near zero, coarser beyond.
    let mut edges: Vec<i64> = (lo..=8).collect();
    let mut e = 10;
    while e <= hi.max(8) + 2 {
        edges.push(e);
        e += if e < 32 {
            2
        } else if e < 64 {
            8
        } else {
            32
        };
    }
    for &edge in &edges {
        let _ = write!(out, "{edge:>10} ");
        for (_, values) in series {
            let within = values.iter().filter(|&&v| v <= edge).count();
            let pct = 100.0 * within as f64 / values.len().max(1) as f64;
            let _ = write!(out, "{pct:>17.1}%");
        }
        let _ = writeln!(out);
        if series.iter().all(|(_, v)| v.iter().all(|&x| x <= edge)) {
            break;
        }
    }
    out
}

/// Sums II over records using achieved-or-last-attempted (Table 4's
/// failure convention).
pub fn class_line(
    label: &str,
    records: &[&LoopEvaluation],
    pick: impl Fn(&LoopEvaluation) -> &SchedOutcome,
) -> String {
    let all = records.len();
    let optimal = records.iter().filter(|r| pick(r).ii == Some(r.mii)).count();
    let sum_ii: u64 = records.iter().map(|r| pick(r).counted_ii()).sum();
    let sum_mii: u64 = records.iter().map(|r| u64::from(r.mii)).sum();
    let pct = 100.0 * optimal as f64 / all.max(1) as f64;
    let ratio = sum_ii as f64 / sum_mii.max(1) as f64;
    format!("{label:<18} {optimal:>5} {all:>5} {pct:>5.1}% {sum_ii:>8} {sum_mii:>8} {ratio:>6.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_machine::huff_machine;

    #[test]
    fn percentile_math() {
        let mut v = vec![5, 1, 9, 3, 7];
        assert_eq!(percentiles(&mut v), (1, 5, 9, 9));
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentiles(&mut v), (1, 51, 91, 100));
    }

    #[test]
    fn record_evaluation_is_consistent() {
        let session = CompileSession::with_machine(huff_machine());
        let records = evaluate_corpus_session(&session, 30, 5, default_jobs()).records;
        assert_eq!(records.len(), 30);
        for r in &records {
            assert!(r.mii >= 1);
            assert_eq!(r.mii, r.res_mii.max(r.rec_mii));
            if let Some(ii) = r.new.ii {
                assert!(ii >= r.mii, "{}: II {ii} < MII {}", r.name, r.mii);
            }
            if let (Some(a), Some(b)) = (r.new.ii, r.old.ii) {
                // The baseline never beats the bidirectional scheduler's
                // time on this corpus by construction of the heuristics —
                // but equality is common.
                assert!(b >= r.mii && a >= r.mii);
            }
        }
        // Most loops schedule optimally (the paper reports 96%).
        let optimal = records.iter().filter(|r| r.new.ii == Some(r.mii)).count();
        assert!(
            optimal * 10 >= records.len() * 8,
            "{optimal}/{}",
            records.len()
        );
    }

    /// Everything observable about an outcome except wall-clock time.
    fn outcome_key(o: &SchedOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            o.ii,
            o.last_ii,
            o.pressure.clone(),
            o.stats.central_iterations,
            o.stats.ejected_ops,
            o.stats.attempts,
        )
    }

    fn assert_records_identical(a: &[LoopEvaluation], b: &[LoopEvaluation]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.mii, y.mii, "{}", x.name);
            assert_eq!(x.min_avg_at_mii, y.min_avg_at_mii, "{}", x.name);
            assert_eq!(x.decisions, y.decisions, "{}", x.name);
            for (xo, yo) in [(&x.new, &y.new), (&x.early, &y.early), (&x.old, &y.old)] {
                assert_eq!(outcome_key(xo), outcome_key(yo), "{}", x.name);
            }
        }
    }

    #[test]
    fn parallel_corpus_evaluation_matches_sequential() {
        let loops = lsms_loops::corpus(24, CORPUS_SEED);
        // Fresh sessions, so neither run replays the other's cached
        // schedules.
        let sequential =
            evaluate_loops_session(&CompileSession::with_machine(huff_machine()), &loops, 1);
        let parallel =
            evaluate_loops_session(&CompileSession::with_machine(huff_machine()), &loops, 4);
        assert!(sequential.failures.is_empty() && parallel.failures.is_empty());
        assert_records_identical(&sequential.records, &parallel.records);
    }

    #[test]
    fn fanout_evaluation_matches_sequential() {
        let key = |e: &LoopEvaluation| {
            (
                e.mii,
                e.min_avg_at_mii,
                e.decisions.clone(),
                [&e.new, &e.early, &e.old].map(outcome_key),
            )
        };
        for l in &lsms_loops::corpus(6, CORPUS_SEED) {
            let sequential = CompileSession::with_machine(huff_machine());
            let fanned_out = CompileSession::with_machine(huff_machine());
            let a = sequential.evaluate_variants(l, false).expect("evaluates");
            let b = fanned_out.evaluate_variants(l, true).expect("evaluates");
            assert_eq!(key(&a), key(&b), "{}", l.def.name);
        }
    }

    #[test]
    fn histograms_render() {
        let h = cumulative_histogram("test", &[("a", vec![0, 1, 5, 9]), ("b", vec![2, 2, 3, 40])]);
        assert!(h.contains("registers"));
        assert!(h.contains("100.0%"));
    }

    /// A malformed loop (zero-ω dependence circuit) must degrade to a
    /// recorded [`CorpusFailure`], not a panic, and must not disturb the
    /// records of its healthy neighbours.
    #[test]
    fn malformed_loop_degrades_to_recorded_failure() {
        use lsms_ir::{LoopBuilder, OpKind, ValueType};
        use lsms_pipeline::Stage;

        let session = CompileSession::with_machine(huff_machine());
        let mut loops = lsms_loops::corpus(3, CORPUS_SEED);

        // Replace the middle loop's body with a zero-ω circuit, which
        // the dependence-graph pass rejects as unschedulable.
        let mut b = LoopBuilder::new("zero_omega");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 0);
        loops[1].body = b.finish();

        let report = evaluate_loops_session(&session, &loops, 1);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.prefix(1).len(), 1);
        assert_eq!(report.prefix(2).len(), 1);
        assert_eq!(report.prefix(3).len(), 2);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.index, 1);
        assert_eq!(failure.error.stage, Stage::DepGraph);
        assert_eq!(failure.error.code, "E0402");

        // The surviving records match a run over the healthy loops alone.
        let healthy = [loops[0].clone(), loops[2].clone()];
        let clean = evaluate_loops_session(&session, &healthy, 1);
        assert_records_identical(&report.records, &clean.records);
    }
}
