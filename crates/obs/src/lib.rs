//! `lsms-obs`: the schedule-quality observatory.
//!
//! The rest of the observability stack answers "where does time go"
//! (`--timings`, `--trace`, `--metrics`); this crate answers "did
//! schedule *quality* regress" — the paper's own evaluation axes:
//! achieved II versus MII and register requirements (MaxLive, lifetime
//! sums).
//!
//! Two artifacts, both dependency-free plain data:
//!
//! * [`ScheduleQuality`] — one record per (loop, backend): the bounds
//!   (RecMII/ResMII/MII), the achieved II and its gap over MII, MaxLive
//!   and the RR MinAvg at the achieved II, lifetime sum/mean/max, II
//!   attempts, ejection and backtrack counts, the budget-degradation
//!   flag, and wall time.
//! * [`QualityRollup`] — the corpus-level aggregation: counts,
//!   distribution buckets, p50/p99 per metric, per-backend breakdown.
//!   Serializes to the `BENCH_quality.json` shape
//!   ([`QualityRollup::to_json`]) and renders as a self-contained HTML
//!   dashboard ([`quality_dashboard_html`]).
//!
//! The regression gate is not here: the `paper` binary of `lsms-bench`
//! writes one deterministic row per (loop, backend) to
//! `results/quality.tsv`, and CI fails when regenerating `results/`
//! changes any committed byte.
//!
//! Everything here is deterministic: records keep their input order,
//! aggregation is order-independent arithmetic, and no timestamp enters
//! a report, so two runs that scheduled the same corpus identically
//! produce byte-identical rollups (wall times aside) regardless of
//! worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod html;

pub use html::quality_dashboard_html;

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Version stamp of the `BENCH_quality.json` shape; bump on any
/// breaking change so a reader of an old report can tell it apart.
pub const QUALITY_SCHEMA_VERSION: u32 = 1;

/// One (loop, backend) quality record — the paper's per-loop evaluation
/// unit, kept as data whether the loop pipelined or not.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleQuality {
    /// Loop name.
    pub loop_name: String,
    /// Registry name of the backend that produced the schedule
    /// (`slack`, `cydrome`, ...). When a budget-capped run degraded,
    /// this names the fallback that actually scheduled the loop.
    pub backend: String,
    /// The backend's `schedule:<name>` pass label — the join key into
    /// trace decision events and `--timings` rows.
    pub pass: String,
    /// Recurrence-constrained MII (§3.1).
    pub rec_mii: u32,
    /// Resource-constrained MII.
    pub res_mii: u32,
    /// `max(RecMII, ResMII)`.
    pub mii: u32,
    /// Achieved II, or `None` if the loop failed to pipeline.
    pub ii: Option<u32>,
    /// The last II attempted (equals `ii` on success).
    pub last_ii: u32,
    /// RR-file `MaxLive` of the final schedule (0 when none exists).
    pub max_live: u32,
    /// RR-file `MinAvg` at the achieved II (`None` when no schedule
    /// exists).
    pub min_avg: Option<u32>,
    /// Σ RR lifetime lengths (0 when no schedule exists).
    pub lifetime_sum: i64,
    /// Longest single RR lifetime.
    pub lifetime_max: i64,
    /// RR values contributing a lifetime (denominator of the mean).
    pub lifetime_count: u32,
    /// IIs attempted, the successful one included.
    pub attempts: u32,
    /// Operations ejected from the partial schedule (Step 3 work).
    pub ejected_ops: u64,
    /// Backtracks: Step 3 (ejection) invocations plus Step 6 (II
    /// increment) restarts.
    pub backtracks: u64,
    /// True when the configured backend blew its `--pass-budget` and
    /// this record comes from the degradation fallback.
    pub degraded: bool,
    /// Wall-clock time the scheduler spent on this loop, microseconds.
    pub wall_us: u64,
}

impl ScheduleQuality {
    /// The II this loop contributes to ΣII: achieved or last-attempted
    /// (Table 4's failure convention).
    pub fn counted_ii(&self) -> u64 {
        u64::from(self.ii.unwrap_or(self.last_ii))
    }

    /// `II − MII`: zero for optimally scheduled loops.
    pub fn ii_gap(&self) -> u64 {
        self.counted_ii().saturating_sub(u64::from(self.mii))
    }

    /// Mean RR lifetime length (0.0 when no value carries one).
    pub fn lifetime_mean(&self) -> f64 {
        if self.lifetime_count == 0 {
            0.0
        } else {
            self.lifetime_sum as f64 / f64::from(self.lifetime_count)
        }
    }
}

/// Distribution summary of one per-loop metric within a backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricSummary {
    /// Sum over loops.
    pub sum: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl MetricSummary {
    fn of(values: &mut [u64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        values.sort_unstable();
        Self {
            sum: values.iter().sum(),
            p50: nearest_rank(values, 50),
            p99: nearest_rank(values, 99),
            max: values[values.len() - 1],
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty sample.
fn nearest_rank(sorted: &[u64], p: u64) -> u64 {
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Bucket labels for the II−MII gap distribution.
pub const II_GAP_BUCKETS: &[&str] = &["0", "1", "2", "3-4", "5-8", ">8"];

/// Bucket labels for the MaxLive distribution.
pub const MAX_LIVE_BUCKETS: &[&str] = &["0-4", "5-8", "9-16", "17-32", ">32"];

fn ii_gap_bucket(gap: u64) -> usize {
    match gap {
        0 => 0,
        1 => 1,
        2 => 2,
        3..=4 => 3,
        5..=8 => 4,
        _ => 5,
    }
}

fn max_live_bucket(ml: u64) -> usize {
    match ml {
        0..=4 => 0,
        5..=8 => 1,
        9..=16 => 2,
        17..=32 => 3,
        _ => 4,
    }
}

/// The per-backend slice of a [`QualityRollup`].
#[derive(Clone, Debug, PartialEq)]
pub struct BackendRollup {
    /// Backend registry name.
    pub backend: String,
    /// Records aggregated (one per loop this backend scheduled).
    pub loops: usize,
    /// Loops that pipelined (achieved an II).
    pub scheduled: usize,
    /// Loops scheduled exactly at MII.
    pub at_mii: usize,
    /// Loops this backend scheduled as a budget-degradation fallback.
    pub degraded: usize,
    /// Counted-II distribution.
    pub ii: MetricSummary,
    /// II−MII gap distribution.
    pub ii_gap: MetricSummary,
    /// MaxLive distribution.
    pub max_live: MetricSummary,
    /// Σ lifetime distribution.
    pub lifetime_sum: MetricSummary,
    /// Σ MII over this backend's loops (denominator of II/MII).
    pub mii_sum: u64,
    /// Σ ejected operations.
    pub ejected_ops: u64,
    /// Σ backtracks (Step 3 + Step 6).
    pub backtracks: u64,
    /// Σ scheduler wall time, microseconds.
    pub wall_us: u64,
    /// II−MII gap histogram, bucketed per [`II_GAP_BUCKETS`].
    pub ii_gap_buckets: Vec<u64>,
    /// MaxLive histogram, bucketed per [`MAX_LIVE_BUCKETS`].
    pub max_live_buckets: Vec<u64>,
}

/// The corpus-level aggregation of every [`ScheduleQuality`] record one
/// run produced, plus the records themselves (they serialize too, so a
/// report names every loop).
#[derive(Clone, Debug, PartialEq)]
pub struct QualityRollup {
    /// Target machine name, for the report header.
    pub machine: String,
    /// Every record, in input (corpus) order.
    pub records: Vec<ScheduleQuality>,
    /// Distinct loop names.
    pub loops: usize,
    /// Per-backend aggregation, in first-appearance order.
    pub backends: Vec<BackendRollup>,
}

impl QualityRollup {
    /// Aggregates records (kept in input order; backends appear in
    /// first-record order, so the rollup is deterministic whenever the
    /// record order is).
    pub fn new(machine: &str, records: Vec<ScheduleQuality>) -> Self {
        let loops = records
            .iter()
            .map(|r| r.loop_name.as_str())
            .collect::<BTreeSet<_>>()
            .len();
        let mut backends: Vec<BackendRollup> = Vec::new();
        for r in &records {
            if !backends.iter().any(|b| b.backend == r.backend) {
                backends.push(BackendRollup {
                    backend: r.backend.clone(),
                    loops: 0,
                    scheduled: 0,
                    at_mii: 0,
                    degraded: 0,
                    ii: MetricSummary::default(),
                    ii_gap: MetricSummary::default(),
                    max_live: MetricSummary::default(),
                    lifetime_sum: MetricSummary::default(),
                    mii_sum: 0,
                    ejected_ops: 0,
                    backtracks: 0,
                    wall_us: 0,
                    ii_gap_buckets: vec![0; II_GAP_BUCKETS.len()],
                    max_live_buckets: vec![0; MAX_LIVE_BUCKETS.len()],
                });
            }
        }
        for b in &mut backends {
            let mine: Vec<&ScheduleQuality> =
                records.iter().filter(|r| r.backend == b.backend).collect();
            b.loops = mine.len();
            b.scheduled = mine.iter().filter(|r| r.ii.is_some()).count();
            b.at_mii = mine.iter().filter(|r| r.ii == Some(r.mii)).count();
            b.degraded = mine.iter().filter(|r| r.degraded).count();
            b.mii_sum = mine.iter().map(|r| u64::from(r.mii)).sum();
            b.ejected_ops = mine.iter().map(|r| r.ejected_ops).sum();
            b.backtracks = mine.iter().map(|r| r.backtracks).sum();
            b.wall_us = mine.iter().map(|r| r.wall_us).sum();
            b.ii = MetricSummary::of(&mut mine.iter().map(|r| r.counted_ii()).collect::<Vec<_>>());
            b.ii_gap = MetricSummary::of(&mut mine.iter().map(|r| r.ii_gap()).collect::<Vec<_>>());
            b.max_live = MetricSummary::of(
                &mut mine
                    .iter()
                    .map(|r| u64::from(r.max_live))
                    .collect::<Vec<_>>(),
            );
            b.lifetime_sum = MetricSummary::of(
                &mut mine
                    .iter()
                    .map(|r| r.lifetime_sum.max(0) as u64)
                    .collect::<Vec<_>>(),
            );
            for r in &mine {
                b.ii_gap_buckets[ii_gap_bucket(r.ii_gap())] += 1;
                b.max_live_buckets[max_live_bucket(u64::from(r.max_live))] += 1;
            }
        }
        Self {
            machine: machine.to_owned(),
            records,
            loops,
            backends,
        }
    }

    /// Corpus-wide ΣII over every record.
    pub fn ii_sum(&self) -> u64 {
        self.records.iter().map(ScheduleQuality::counted_ii).sum()
    }

    /// Corpus-wide ΣMII over every record.
    pub fn mii_sum(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.mii)).sum()
    }

    /// Corpus-wide ΣMaxLive over every record.
    pub fn max_live_sum(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.max_live)).sum()
    }

    /// Serializes the `BENCH_quality.json` shape: one per-loop record per
    /// line under `"loops"`, then the aggregated `"rollup"`. Contains no
    /// timestamp, so identical scheduling work yields byte-identical
    /// reports apart from `wall_us`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema_version\": {QUALITY_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"kind\": \"lsms-quality\",");
        let _ = writeln!(out, "  \"machine\": \"{}\",", self.machine);
        let _ = writeln!(out, "  \"loops\": [");
        for (i, r) in self.records.iter().enumerate() {
            let ii = r.ii.map_or("null".to_owned(), |ii| ii.to_string());
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"backend\": \"{}\", \"pass\": \"{}\", \
                 \"rec_mii\": {}, \"res_mii\": {}, \"mii\": {}, \"ii\": {ii}, \
                 \"counted_ii\": {}, \"ii_gap\": {}, \"max_live\": {}, \
                 \"lifetime_sum\": {}, \"lifetime_mean\": {:.2}, \"lifetime_max\": {}, \
                 \"ejected_ops\": {}, \"backtracks\": {}, \"degraded\": {}, \
                 \"wall_us\": {}}}{}",
                r.loop_name,
                r.backend,
                r.pass,
                r.rec_mii,
                r.res_mii,
                r.mii,
                r.counted_ii(),
                r.ii_gap(),
                r.max_live,
                r.lifetime_sum,
                r.lifetime_mean(),
                r.lifetime_max,
                r.ejected_ops,
                r.backtracks,
                r.degraded,
                r.wall_us,
                if i + 1 == self.records.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"rollup\": {{");
        let _ = writeln!(out, "    \"loops\": {},", self.loops);
        let _ = writeln!(out, "    \"records\": {},", self.records.len());
        let _ = writeln!(out, "    \"ii_sum\": {},", self.ii_sum());
        let _ = writeln!(out, "    \"mii_sum\": {},", self.mii_sum());
        let _ = writeln!(out, "    \"max_live_sum\": {},", self.max_live_sum());
        let _ = writeln!(out, "    \"backends\": [");
        for (i, b) in self.backends.iter().enumerate() {
            let _ = writeln!(out, "      {{");
            let _ = writeln!(out, "        \"backend\": \"{}\",", b.backend);
            let _ = writeln!(
                out,
                "        \"loops\": {}, \"scheduled\": {}, \"at_mii\": {}, \"degraded\": {},",
                b.loops, b.scheduled, b.at_mii, b.degraded
            );
            let _ = writeln!(
                out,
                "        \"mii_sum\": {}, \"ejected_ops\": {}, \"backtracks\": {}, \"wall_us\": {},",
                b.mii_sum, b.ejected_ops, b.backtracks, b.wall_us
            );
            for (key, m) in [
                ("ii", &b.ii),
                ("ii_gap", &b.ii_gap),
                ("max_live", &b.max_live),
                ("lifetime_sum", &b.lifetime_sum),
            ] {
                let _ = writeln!(
                    out,
                    "        \"{key}\": {{\"sum\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}},",
                    m.sum, m.p50, m.p99, m.max
                );
            }
            let _ = writeln!(
                out,
                "        \"ii_gap_buckets\": {{{}}},",
                bucket_pairs(II_GAP_BUCKETS, &b.ii_gap_buckets)
            );
            let _ = writeln!(
                out,
                "        \"max_live_buckets\": {{{}}}",
                bucket_pairs(MAX_LIVE_BUCKETS, &b.max_live_buckets)
            );
            let _ = writeln!(
                out,
                "      }}{}",
                if i + 1 == self.backends.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        let _ = writeln!(out, "    ]");
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

fn bucket_pairs(labels: &[&str], counts: &[u64]) -> String {
    labels
        .iter()
        .zip(counts)
        .map(|(l, c)| format!("\"{l}\": {c}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn record(
        name: &str,
        backend: &str,
        mii: u32,
        ii: u32,
        max_live: u32,
    ) -> ScheduleQuality {
        ScheduleQuality {
            loop_name: name.to_owned(),
            backend: backend.to_owned(),
            pass: format!("schedule:{backend}"),
            rec_mii: mii,
            res_mii: 1,
            mii,
            ii: Some(ii),
            last_ii: ii,
            max_live,
            min_avg: Some(max_live),
            lifetime_sum: i64::from(max_live) * 3,
            lifetime_max: i64::from(max_live),
            lifetime_count: 3,
            attempts: 1,
            ejected_ops: 1,
            backtracks: 2,
            degraded: false,
            wall_us: 100,
        }
    }

    #[test]
    fn rollup_aggregates_per_backend() {
        let rollup = QualityRollup::new(
            "huff",
            vec![
                record("a", "slack", 2, 2, 5),
                record("b", "slack", 3, 4, 9),
                record("a", "cydrome", 2, 3, 6),
            ],
        );
        assert_eq!(rollup.loops, 2);
        assert_eq!(rollup.ii_sum(), 9);
        assert_eq!(rollup.mii_sum(), 7);
        assert_eq!(rollup.max_live_sum(), 20);
        assert_eq!(rollup.backends.len(), 2);
        let slack = &rollup.backends[0];
        assert_eq!(slack.backend, "slack");
        assert_eq!((slack.loops, slack.scheduled, slack.at_mii), (2, 2, 1));
        assert_eq!(slack.ii.sum, 6);
        assert_eq!(slack.ii_gap.sum, 1);
        assert_eq!(slack.max_live.max, 9);
        assert_eq!(slack.ii_gap_buckets[0], 1); // a at MII
        assert_eq!(slack.ii_gap_buckets[1], 1); // b one over
        assert_eq!(slack.max_live_buckets[0], 0);
        assert_eq!(slack.max_live_buckets[1], 1); // 5
        assert_eq!(slack.max_live_buckets[2], 1); // 9
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        let m = MetricSummary::of(&mut v);
        assert_eq!((m.p50, m.p99, m.max), (50, 99, 100));
        let mut v = vec![7];
        let m = MetricSummary::of(&mut v);
        assert_eq!((m.p50, m.p99, m.max, m.sum), (7, 7, 7, 7));
    }

    #[test]
    fn json_is_balanced_and_marks_failures() {
        let rollup = QualityRollup::new(
            "huff",
            vec![
                record("a", "slack", 2, 2, 5),
                ScheduleQuality {
                    ii: None,
                    last_ii: 9,
                    ..record("b", "slack", 3, 4, 0)
                },
            ],
        );
        let json = rollup.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"ii\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(
            json.contains("\"ii\": null, \"counted_ii\": 9,"),
            "failures count last_ii"
        );
    }
}
