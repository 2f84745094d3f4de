//! `benchmark compare A1.json ... -- B1.json ...`: two sets of run
//! reports, one row per (workload, metric), each judged against the
//! bound `BENCHMARK.json` fixes for it.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::quartiles;

/// The benchmark definition the bounds come from.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Metrics that are a pure function of the loop population: any change
/// at all is a change in what the compiler produced.
pub const EXACT: [&str; 3] = ["sum_ii", "sum_maxlive", "loops_at_mii"];

/// One metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// The share of the baseline median the metric may worsen by; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metric definitions of `BENCHMARK.json`.
pub fn benchmark_metrics() -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    let section = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.get(key)
            .ok_or(format!("BENCHMARK.json has no `{key}`"))?
            .as_array()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("BENCHMARK.json: a `{key}` metric lacks `{f}`"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok((section("end_to_end")?, section("per_layer")?))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// A side's interquartile spread exceeds the bound and neither side
    /// beats the other on every run.
    Unresolved,
    /// A per-layer metric: it has no bound to judge against.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// How `b` (the change) compares with `a` (the baseline).
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = spec.bound else {
        return Verdict::NoBound;
    };
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    // Positive when `b` is worse, as a share of the baseline median.
    let worsening = {
        let delta = if spec.lower_is_better {
            bm - am
        } else {
            am - bm
        };
        delta / am.abs().max(f64::MIN_POSITIVE)
    };
    if EXACT.contains(&spec.name.as_str()) {
        let sorted = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        return if sorted(a) == sorted(b) {
            Verdict::Within
        } else if worsening > 0.0 {
            Verdict::Worse
        } else if worsening < 0.0 {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    if spread > bound {
        let beats = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
        let every = |winners: &[f64], losers: &[f64]| {
            winners.iter().all(|&w| losers.iter().all(|&l| beats(w, l)))
        };
        return if every(b, a) {
            Verdict::Better
        } else if every(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Metric values per workload, gathered from a set of report files.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: not a benchmark report (no `workload`)"))?;
        let metrics = side.entry(workload.to_owned()).or_default();
        for (name, m) in doc.get("metrics").map_or(&[][..], Json::as_object) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: metric `{name}` has no value"))?;
            metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(side)
}

/// Entry point of the subcommand. Exits 1 when any metric got worse, 2
/// on unusable input.
pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(table) => {
            print!("{}", table.text);
            if table.worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: benchmark compare A1.json [A2.json ...] -- B1.json [B2.json ...]");
            ExitCode::from(2)
        }
    }
}

struct Table {
    text: String,
    worse: bool,
}

fn run(args: &[String]) -> Result<Table, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("separate the two sets of reports with `--`")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("each side needs at least one report".to_owned());
    }
    let (end_to_end, per_layer) = benchmark_metrics()?;
    Ok(table(
        &end_to_end.into_iter().chain(per_layer).collect::<Vec<_>>(),
        &load(a_paths)?,
        &load(b_paths)?,
    ))
}

fn table(specs: &[MetricSpec], a: &Side, b: &Side) -> Table {
    use std::fmt::Write as _;
    let mut text = format!(
        "{:<11} {:<27} {:>34} {:>34} {:>9}  verdict\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta"
    );
    let mut worse = false;
    // Five significant digits, whatever the magnitude.
    let sig = |x: f64| {
        let decimals = if x == 0.0 {
            0
        } else {
            (4 - x.abs().log10().floor() as i32).clamp(0, 9) as usize
        };
        format!("{x:.decimals$}")
    };
    let side = |values: &[f64]| {
        let (q1, m, q3) = quartiles(values);
        format!("{} [{}, {}] ({})", sig(m), sig(q1), sig(q3), values.len())
    };
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for spec in specs {
            let (Some(av), Some(bv)) = (a_metrics.get(&spec.name), b_metrics.get(&spec.name))
            else {
                continue;
            };
            let v = verdict(spec, av, bv);
            worse |= v == Verdict::Worse;
            let (am, bm) = (quartiles(av).1, quartiles(bv).1);
            let delta = if am == 0.0 {
                0.0
            } else {
                100.0 * (bm - am) / am.abs()
            };
            let _ = writeln!(
                text,
                "{workload:<11} {:<27} {:>34} {:>34} {delta:>+8.2}%  {}",
                spec.name,
                side(av),
                side(bv),
                v.label()
            );
        }
    }
    Table { text, worse }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, lower_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: name.to_owned(),
            unit: "x".to_owned(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn timed_metrics_are_judged_against_their_bound() {
        let p50 = spec("loop_ms.p50", true, Some(0.1));
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(&p50, &a, &[1.03, 1.04, 1.02, 1.03]),
            Verdict::Within
        );
        assert_eq!(verdict(&p50, &a, &[1.20, 1.21, 1.19, 1.20]), Verdict::Worse);
        assert_eq!(
            verdict(&p50, &a, &[0.80, 0.81, 0.79, 0.80]),
            Verdict::Better
        );
        let lps = spec("loops_per_s", false, Some(0.1));
        assert_eq!(verdict(&lps, &a, &[0.80, 0.81, 0.79, 0.80]), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let p99 = spec("loop_ms.p99", true, Some(0.1));
        let noisy = [1.0, 1.5, 0.7, 1.2, 0.9];
        assert_eq!(
            verdict(&p99, &noisy, &[1.1, 1.0, 1.3, 0.8]),
            Verdict::Unresolved
        );
        // Every run of one side beats every run of the other.
        assert_eq!(verdict(&p99, &noisy, &[2.0, 2.5, 3.0]), Verdict::Worse);
        assert_eq!(verdict(&p99, &noisy, &[0.1, 0.2, 0.3]), Verdict::Better);
    }

    #[test]
    fn exact_metrics_compare_for_equality() {
        let sum_ii = spec("sum_ii", true, Some(0.000001));
        let a = [31308.0, 31308.0, 31308.0];
        assert_eq!(verdict(&sum_ii, &a, &a), Verdict::Within);
        assert_eq!(verdict(&sum_ii, &a, &[31309.0; 3]), Verdict::Worse);
        assert_eq!(verdict(&sum_ii, &a, &[31307.0; 3]), Verdict::Better);
        let at_mii = spec("loops_at_mii", false, Some(0.000001));
        assert_eq!(verdict(&at_mii, &[1374.0], &[1373.0]), Verdict::Worse);
    }

    #[test]
    fn per_layer_metrics_have_no_verdict() {
        let s = spec("depgraph.s", true, None);
        assert_eq!(verdict(&s, &[1.0], &[9.0]), Verdict::NoBound);
    }

    #[test]
    fn reports_compare_per_workload() {
        let specs = [spec("loop_ms.p50", true, Some(0.1))];
        let side = |w: &str, v: f64| -> Side {
            BTreeMap::from([(
                w.to_owned(),
                BTreeMap::from([("loop_ms.p50".to_owned(), vec![v, v])]),
            )])
        };
        let mut a = side("calibrated", 1.0);
        a.extend(side("shared", 1.0));
        let mut b = side("calibrated", 1.0);
        b.extend(side("shared", 2.0));
        let t = table(&specs, &a, &b);
        assert!(t.worse);
        let rows: Vec<&str> = t.text.lines().skip(1).collect();
        assert_eq!(rows.len(), 2, "{}", t.text);
        assert!(rows[0].starts_with("calibrated") && rows[0].ends_with("within"));
        assert!(rows[1].starts_with("shared") && rows[1].ends_with("worse"));
    }
}
