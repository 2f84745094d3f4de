//! The files rendered from the huff-cydra trio evaluation (Tables 1–4,
//! Figures 5–8, §6, §4.3/§5.2, §7 robustness and `quality.tsv`).

use std::fmt::{self, Write};

use lsms_bench::{
    class_line, cumulative_histogram, percentiles, stat_row, CorpusReport, LoopEvaluation,
    SchedOutcome,
};
use lsms_ir::LoopClass;
use lsms_machine::Machine;
use lsms_sched::{DecisionStats, PressureReport, SchedStats};

/// Selects one scheduler's outcome from a record.
type Pick = fn(&LoopEvaluation) -> &SchedOutcome;

/// Table 1: functional-unit latencies of the target machine. The machine
/// description is an *input* to the evaluation; printing it in the
/// paper's layout keeps the configuration auditable.
pub fn table1(out: &mut String, machine: &Machine) -> fmt::Result {
    writeln!(
        out,
        "Table 1: Functional Unit Latencies ({})",
        machine.name()
    )?;
    writeln!(
        out,
        "{:<14} {:>4}  {:<40} {:>8}",
        "Pipeline", "No.", "Operations", "Latency"
    )?;
    // Group opcodes by (class, latency, pipelined?) like the paper's rows.
    let mut rows: Vec<(usize, u32, bool, Vec<String>)> = Vec::new();
    for (kind, desc) in machine.op_table() {
        let pipelined = desc.reservation.len() == 1;
        let key = (desc.class.index(), desc.latency, pipelined);
        match rows.iter_mut().find(|(c, l, p, _)| (*c, *l, *p) == key) {
            Some(row) => row.3.push(kind.to_string()),
            None => rows.push((key.0, key.1, key.2, vec![kind.to_string()])),
        }
    }
    rows.sort();
    let mut last_class = usize::MAX;
    for (class, latency, pipelined, ops) in rows {
        let (name, count) = if class == last_class {
            (String::new(), String::new())
        } else {
            last_class = class;
            let class = &machine.classes()[class];
            (class.name.clone(), class.count.to_string())
        };
        let note = if pipelined { "" } else { " (not pipelined)" };
        writeln!(
            out,
            "{name:<14} {count:>4}  {:<40} {latency:>8}{note}",
            ops.join(" / ")
        )?;
    }
    Ok(())
}

/// Table 2: complexity measurements over the whole corpus.
///
/// Paper values (1,525 loops), min/50%/90%/max: basic blocks 1/1/5/30,
/// operations 3/15/48/322, MII 1/6/26/278, MinAvg at MII 1/10/32/212.
pub fn table2(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    writeln!(
        out,
        "Table 2: Measurements from all {} loops",
        records.len()
    )?;
    writeln!(
        out,
        "{:<24} {:>6} {:>6} {:>6} {:>6}",
        "Metric", "Min", "50%", "90%", "Max"
    )?;
    type Metric = fn(&LoopEvaluation) -> u64;
    let columns: [(&str, Metric); 10] = [
        ("# Basic Blocks", |r| u64::from(r.basic_blocks)),
        ("# Operations", |r| r.num_ops as u64),
        ("# Critical Ops at MII", |r| r.critical_ops as u64),
        ("# Ops on Recurrences", |r| r.ops_on_recurrences as u64),
        ("# Div/Mod/Sqrt Ops", |r| r.div_ops as u64),
        ("RecMII", |r| u64::from(r.rec_mii)),
        ("ResMII", |r| u64::from(r.res_mii)),
        ("MII", |r| u64::from(r.mii)),
        ("MinAvg at MII", |r| u64::from(r.min_avg_at_mii)),
        ("# GPRs", |r| u64::from(r.gprs)),
    ];
    for (label, f) in columns {
        let mut values: Vec<u64> = records.iter().map(f).collect();
        writeln!(out, "{}", stat_row(label, &mut values))?;
    }
    Ok(())
}

/// Table 3: slack-scheduling performance by loop class.
///
/// Paper values: 1,463 of 1,525 optimal (96%), overall ΣII/ΣMII = 1.01;
/// for the 62 non-optimal loops, II − MII has min/50%/90%/max =
/// 1/1/4/15 and II/MII = 1.005/1.08/1.5/3.0.
pub fn table3(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    class_table(
        out,
        "Table 3: Slack Scheduling Performance (New Scheduler)",
        "Pipelining failures",
        records,
        |r| &r.new,
    )
}

/// Table 4: Cydrome-style baseline performance by loop class, and the
/// headline old/new ΣII comparison.
///
/// Paper values: 1,393 of 1,525 optimal (91%), overall ΣII/ΣMII = 1.12,
/// 14 loops failed to pipeline (counted at the last II attempted); for
/// the 132 non-optimal loops II − MII reaches 198 and II/MII reaches 12;
/// old/new ΣII = 1.11.
pub fn table4(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    class_table(
        out,
        "Table 4: Cydrome-Style Scheduling Performance (Old Scheduler)",
        "Pipelining failures (reported at last attempted II)",
        records,
        |r| &r.old,
    )?;
    let new_ii: u64 = records.iter().map(|r| r.new.counted_ii()).sum();
    let old_ii: u64 = records.iter().map(|r| r.old.counted_ii()).sum();
    writeln!(
        out,
        "\nOverall Sum II: new {new_ii}, old {old_ii}; old/new = {:.3}",
        old_ii as f64 / new_ii.max(1) as f64
    )
}

/// The layout Tables 3 and 4 share: one row per loop class, the loops
/// with II > MII, and the failure count.
fn class_table(
    out: &mut String,
    title: &str,
    failures_label: &str,
    records: &[LoopEvaluation],
    pick: Pick,
) -> fmt::Result {
    writeln!(out, "{title}")?;
    writeln!(
        out,
        "{:<18} {:>5} {:>5} {:>6} {:>8} {:>8} {:>6}",
        "Loop Class", "Opt", "All", "%", "Sum II", "Sum MII", "Ratio"
    )?;
    for class in [
        LoopClass::Conditional,
        LoopClass::Recurrence,
        LoopClass::Both,
        LoopClass::Neither,
    ] {
        let rows: Vec<_> = records.iter().filter(|r| r.class == class).collect();
        if !rows.is_empty() {
            writeln!(out, "{}", class_line(&class.to_string(), &rows, pick))?;
        }
    }
    let all: Vec<_> = records.iter().collect();
    writeln!(out, "{}", class_line("All Loops", &all, pick))?;

    let behind: Vec<_> = records
        .iter()
        .filter(|r| pick(r).counted_ii() > u64::from(r.mii))
        .collect();
    writeln!(out, "\nFor the {} loops with II > MII:", behind.len())?;
    if !behind.is_empty() {
        writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>8} {:>8}",
            "Metric", "Min", "50%", "90%", "Max"
        )?;
        let mut gaps: Vec<u64> = behind
            .iter()
            .map(|r| pick(r).counted_ii() - u64::from(r.mii))
            .collect();
        let (a, b, c, d) = percentiles(&mut gaps);
        writeln!(out, "{:<12} {a:>8} {b:>8} {c:>8} {d:>8}", "II - MII")?;
        let mut ratios: Vec<u64> = behind
            .iter()
            .map(|r| pick(r).counted_ii() * 1000 / u64::from(r.mii))
            .collect();
        let (a, b, c, d) = percentiles(&mut ratios);
        let [a, b, c, d] = [a, b, c, d].map(|x| x as f64 / 1000.0);
        writeln!(
            out,
            "{:<12} {a:>8.3} {b:>8.3} {c:>8.3} {d:>8.3}",
            "II / MII"
        )?;
    }
    let failures = records.iter().filter(|r| pick(r).ii.is_none()).count();
    writeln!(out, "\n{failures_label}: {failures}")
}

/// One pressure series over the loops a scheduler pipelined.
fn series(
    records: &[LoopEvaluation],
    pick: Pick,
    value: impl Fn(&LoopEvaluation, &PressureReport) -> i64,
) -> Vec<i64> {
    records
        .iter()
        .filter_map(|r| pick(r).pressure.as_ref().map(|p| value(r, p)))
        .collect()
}

fn pct(part: usize, all: usize) -> f64 {
    100.0 * part as f64 / all.max(1) as f64
}

/// The percentage of `values` at or below `limit`.
fn at_most(values: &[i64], limit: i64) -> f64 {
    pct(values.iter().filter(|&&x| x <= limit).count(), values.len())
}

/// How many of `values` exceed `limit`.
fn above(values: &[i64], limit: i64) -> usize {
    values.iter().filter(|&&x| x > limit).count()
}

/// Figure 5: distribution of MaxLive − MinAvg for the new
/// (bidirectional), ablated (always-early) and old (Cydrome-style)
/// schedulers.
///
/// Paper: for the new scheduler 46% of loops achieve MaxLive = MinAvg and
/// 93% are within 10 rotating registers. §7 notes that without the
/// bidirectional heuristics the slack scheduler "generates nearly the
/// same register pressure as Cydrome's scheduler" — the `slack/early`
/// series shows that ablation.
pub fn fig5(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    let excess = |_: &LoopEvaluation, p: &PressureReport| p.excess();
    let new = series(records, |r| &r.new, excess);
    let early = series(records, |r| &r.early, excess);
    let old = series(records, |r| &r.old, excess);
    writeln!(
        out,
        "{}",
        cumulative_histogram(
            "Figure 5: MaxLive - MinAvg (cumulative % of loops)",
            &[
                ("new (bidir)", new.clone()),
                ("slack/early", early),
                ("old (Cydrome)", old)
            ],
        )
    )?;
    writeln!(
        out,
        "new scheduler: {:.1}% of loops achieve MinAvg exactly; {:.1}% within 10 RRs (paper: 46% / 93%)",
        at_most(&new, 0),
        at_most(&new, 10),
    )
}

/// Figure 6: distribution of MaxLive (rotating-register pressure).
///
/// Paper: with the new scheduler 92% of loops use no more than 32 RRs and
/// only 5 loops use more than 64.
pub fn fig6(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    let max_live = |_: &LoopEvaluation, p: &PressureReport| i64::from(p.rr_max_live);
    let new = series(records, |r| &r.new, max_live);
    let early = series(records, |r| &r.early, max_live);
    let old = series(records, |r| &r.old, max_live);
    writeln!(
        out,
        "{}",
        cumulative_histogram(
            "Figure 6: MaxLive (cumulative % of loops)",
            &[
                ("new (bidir)", new.clone()),
                ("slack/early", early),
                ("old (Cydrome)", old)
            ],
        )
    )?;
    writeln!(
        out,
        "new scheduler: {:.1}% of loops use <= 32 RRs; {} loops use > 64 (paper: 92% / 5 loops)",
        at_most(&new, 32),
        above(&new, 64),
    )
}

/// Figure 7: GPR usage, and combined GPRs + MaxLive.
///
/// Paper: 97% of loops use no more than 16 GPRs, only 3 use more than 32;
/// 82% of loops keep RRs + GPRs ≤ 32 and only 16 exceed 64.
pub fn fig7(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    let gprs: Vec<i64> = records.iter().map(|r| i64::from(r.gprs)).collect();
    let combined = |r: &LoopEvaluation, p: &PressureReport| i64::from(p.rr_max_live + r.gprs);
    let new = series(records, |r| &r.new, combined);
    let old = series(records, |r| &r.old, combined);
    writeln!(
        out,
        "{}",
        cumulative_histogram(
            "Figure 7: GPRs and GPRs + MaxLive (cumulative % of loops)",
            &[
                ("GPRs", gprs.clone()),
                ("new GPR+RR", new.clone()),
                ("old GPR+RR", old),
            ],
        )
    )?;
    writeln!(
        out,
        "GPRs: {:.1}% <= 16, {} loops > 32 (paper: 97% / 3). GPR+RR: {:.1}% <= 32, {} loops > 64 (paper: 82% / 16).",
        at_most(&gprs, 16),
        above(&gprs, 32),
        at_most(&new, 32),
        above(&new, 64),
    )
}

/// Figure 8: ICR predicate usage.
///
/// Paper: only one loop used more than 32 predicates, and the two
/// schedulers generate very similar ICR pressure.
pub fn fig8(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    let icr = |_: &LoopEvaluation, p: &PressureReport| i64::from(p.icr_max_live);
    let new = series(records, |r| &r.new, icr);
    let old = series(records, |r| &r.old, icr);
    writeln!(
        out,
        "{}",
        cumulative_histogram(
            "Figure 8: ICR predicate usage (cumulative % of loops; stage predicates included)",
            &[("new (bidir)", new.clone()), ("old (Cydrome)", old.clone())],
        )
    )?;
    writeln!(
        out,
        "loops using > 32 ICR predicates: new {}, old {} (paper: 1)",
        above(&new, 32),
        above(&old, 32)
    )
}

/// §6: the compilation-work profile of both schedulers. Wall time stays
/// out of the file; `main` prints it.
///
/// Paper: 889 of 1,525 loops needed no backtracking; the other 636
/// placed 23,603 operations in 306,860 central-loop iterations, invoking
/// Step 3 157,694 times (ejecting 282,130 operations) and Step 6 a mere
/// 139 times. Cydrome's scheduler backtracked 3.7× as much.
pub fn compile_time(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    let mut ejected = [0u64; 2];
    for (i, (label, pick)) in [
        ("New scheduler (bidirectional slack)", (|r| &r.new) as Pick),
        ("Old scheduler (Cydrome-style)", |r| &r.old),
    ]
    .into_iter()
    .enumerate()
    {
        let (mut total, mut dirty_total) = (SchedStats::default(), SchedStats::default());
        let (mut dirty, mut dirty_ops) = (0usize, 0usize);
        for r in records {
            let stats = &pick(r).stats;
            total += stats;
            if !stats.backtrack_free() {
                dirty += 1;
                dirty_ops += r.num_ops;
                dirty_total += stats;
            }
        }
        ejected[i] = total.ejected_ops;
        writeln!(out, "== {label} ==")?;
        writeln!(
            out,
            "loops needing no backtracking: {} of {}",
            records.len() - dirty,
            records.len()
        )?;
        writeln!(
            out,
            "backtracking loops: {dirty} loops, {dirty_ops} ops, {} central-loop iterations",
            dirty_total.central_iterations
        )?;
        writeln!(
            out,
            "Step 3 invocations: {} (ejecting {} operations); Step 6 restarts: {}",
            total.step3_invocations, total.ejected_ops, total.step6_restarts
        )?;
        writeln!(out, "II attempts: {}", total.attempts)?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "old/new backtracking ratio: {:.2}x (paper: 3.7x)",
        ejected[1] as f64 / ejected[0].max(1) as f64,
    )
}

/// §4.3 / §5.2: the dynamic-priority and bidirectional-heuristic
/// decision mix.
///
/// Paper: the minimum dynamic priority identifies a unique operation 48%
/// of the time; 46% of candidates have no slack; among the rest, more
/// stretchable inputs than outputs 30%, fewer 4%, ties 20%; overall the
/// heuristics favour early placement about 2:1.
pub fn heuristic_stats(out: &mut String, records: &[LoopEvaluation]) -> fmt::Result {
    let mut total = DecisionStats::default();
    for r in records {
        total += &r.decisions;
    }
    let pct = |x: u64| 100.0 * x as f64 / total.selections.max(1) as f64;
    writeln!(
        out,
        "Heuristic decision mix over {} candidate selections",
        total.selections
    )?;
    for (label, count, paper) in [
        (
            "unique minimum dynamic priority",
            total.unique_min_priority,
            "48%",
        ),
        ("zero slack (no direction choice)", total.zero_slack, "46%"),
        (
            "more stretchable inputs -> early",
            total.early_more_inputs,
            "30%",
        ),
        (
            "fewer stretchable inputs -> late",
            total.late_more_outputs,
            " 4%",
        ),
    ] {
        writeln!(out, "{label}: {:>6.1}%   (paper: {paper})", pct(count))?;
    }
    writeln!(
        out,
        "ties (early {:>5.1}% / late {:>5.1}%):  {:>6.1}%   (paper: 20%)",
        pct(total.tie_early),
        pct(total.tie_late),
        pct(total.tie_early + total.tie_late + total.isolated_early)
    )?;
    let (early, late) = (total.early(), total.late());
    writeln!(
        out,
        "early : late among sloppy ops = {early} : {late} = {:.2} : 1   (paper: ~2 : 1)",
        early as f64 / late.max(1) as f64
    )
}

/// §7 robustness: "other experiments with different latencies for the
/// functional units give very similar performance results and
/// compilation times." One row per machine, each over the same slice.
pub fn robustness(
    out: &mut String,
    count: usize,
    rows: &[(&str, &[LoopEvaluation])],
) -> fmt::Result {
    writeln!(
        out,
        "Robustness across machine variants ({count} loops each)"
    )?;
    writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>12} {:>14} {:>12}",
        "machine", "optimal", "II/MII", "mean excess", "median MaxLive", "failures"
    )?;
    for (machine, records) in rows {
        let optimal = records.iter().filter(|r| r.new.ii == Some(r.mii)).count();
        let sum_ii: u64 = records.iter().map(|r| r.new.counted_ii()).sum();
        let sum_mii: u64 = records.iter().map(|r| u64::from(r.mii)).sum();
        let excesses = series(records, |r| &r.new, |_, p| p.excess());
        let mean_excess = excesses.iter().sum::<i64>() as f64 / excesses.len().max(1) as f64;
        let mut max_live = series(records, |r| &r.new, |_, p| i64::from(p.rr_max_live));
        max_live.sort_unstable();
        let median_max_live = max_live.get(max_live.len() / 2).copied().unwrap_or(0);
        let failures = records.iter().filter(|r| r.new.ii.is_none()).count();
        writeln!(
            out,
            "{:<16} {:>7.1}% {:>10.3} {:>12.2} {:>14} {:>12}",
            machine,
            pct(optimal, records.len()),
            sum_ii as f64 / sum_mii.max(1) as f64,
            mean_excess,
            median_max_live,
            failures,
        )?;
    }
    Ok(())
}

/// `quality.tsv`: one row per (loop, backend) in corpus order, the
/// per-loop record that names a moved loop: each
/// [`LoopEvaluation::quality_records`] row plus the loop's class. Every
/// field is a pure function of the evaluation; wall time is left out.
pub fn quality_tsv(out: &mut String, trio: &CorpusReport) -> fmt::Result {
    writeln!(
        out,
        "name\tbackend\tclass\tmii\tii\tlast_ii\tmax_live\tmin_avg\tattempts\tejected_ops\tbacktracks"
    )?;
    let dash = |v: Option<u32>| v.map_or("-".to_owned(), |v| v.to_string());
    for r in &trio.records {
        for q in r.quality_records() {
            writeln!(
                out,
                "{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                q.loop_name,
                q.backend,
                r.class,
                q.mii,
                dash(q.ii),
                q.last_ii,
                q.max_live,
                dash(q.min_avg),
                q.attempts,
                q.ejected_ops,
                q.backtracks,
            )?;
        }
    }
    Ok(())
}
