//! Human-readable schedule reports: kernel timelines, lifetime tables,
//! and the LiveVector — the views a compiler engineer reads when tuning a
//! pipeline (and the views this crate's documentation uses to explain the
//! paper's Figures 3 and 4).

use std::fmt::Write as _;

use lsms_ir::RegClass;

use crate::pressure::{lifetimes, live_vector, measure_cached, min_lifetimes};
use crate::{MinDistCache, SchedProblem, Schedule};

/// Renders the kernel as a cycle × operation timeline: one line per kernel
/// cycle, listing each operation with its stage, a textual Gantt of the
/// modulo schedule.
pub fn kernel_timeline(problem: &SchedProblem<'_>, schedule: &Schedule) -> String {
    let body = problem.body();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "kernel: II = {}, stages = {}, length = {}",
        schedule.ii,
        schedule.stages(),
        schedule.length()
    );
    for cycle in 0..schedule.ii {
        let _ = write!(out, "  cycle {cycle:>3} |");
        let mut ops: Vec<_> = body
            .ops()
            .iter()
            .filter(|op| schedule.kernel_cycle(op.id.index()) == cycle)
            .collect();
        ops.sort_by_key(|op| (schedule.stage(op.id.index()), op.id));
        for op in ops {
            let _ = write!(out, " [s{}]{}", schedule.stage(op.id.index()), op.kind);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the per-value lifetime table (the data behind Figure 3): each
/// live value's definition cycle, length, MinLT lower bound, and how many
/// rotating registers its wrap implies. MinLT reads the MinDist matrix
/// at the schedule's II from `cache`, so a caller that also measures
/// pressure computes it once.
pub fn lifetime_table(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    cache: &MinDistCache,
) -> String {
    let body = problem.body();
    let ii = i64::from(schedule.ii);
    let lt = lifetimes(problem, schedule);
    let md = cache.get(problem, schedule.ii);
    let minlt = min_lifetimes(problem, &md);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>8} {:>8} {:>6} {:>6}",
        "value", "def", "lifetime", "MinLT", "regs", "class"
    );
    for v in body.values() {
        let Some(def) = v.def else { continue };
        let Some(len) = lt[v.id.index()] else {
            continue;
        };
        if len <= 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>8} {:>8} {:>6} {:>6}",
            v.name,
            schedule.times[def.index()],
            len,
            minlt[v.id.index()].unwrap_or(0),
            (len + ii - 1) / ii,
            v.reg_class(),
        );
    }
    out
}

/// Renders the LiveVector (Figure 4): simultaneously live values at each
/// kernel cycle, with a bar chart.
pub fn live_vector_chart(problem: &SchedProblem<'_>, schedule: &Schedule) -> String {
    let lt = lifetimes(problem, schedule);
    let vector = live_vector(problem, schedule, &lt, RegClass::Rr);
    let mut out = String::new();
    let _ = writeln!(out, "LiveVector (RR file):");
    for (cycle, &count) in vector.iter().enumerate() {
        let _ = writeln!(
            out,
            "  cycle {cycle:>3} | {:<40} {count}",
            "#".repeat(count.min(40) as usize)
        );
    }
    out
}

/// As [`report`], prefixed with the identity of the backend that produced
/// the schedule — the driver uses this so `--emit report` names whichever
/// registered backend ran, not just the built-in slack scheduler.
pub fn report_for_backend(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    backend: &dyn crate::ModuloScheduler,
) -> String {
    let mut out = format!(
        "backend `{}`: {}\n",
        backend.name(),
        backend.describe().summary
    );
    out.push_str(&report(problem, schedule));
    out
}

/// A one-stop textual report: bounds, timeline, lifetimes, pressure.
pub fn report(problem: &SchedProblem<'_>, schedule: &Schedule) -> String {
    // One cache spans both MinDist consumers (pressure, lifetime table).
    let cache = MinDistCache::new();
    let pressure = measure_cached(problem, schedule, &cache);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loop `{}`: {} ops, ResMII {} RecMII {} MII {} -> II {}",
        problem.body().name(),
        problem.num_real_ops(),
        problem.res_mii(),
        problem.rec_mii(),
        problem.mii(),
        schedule.ii,
    );
    out.push_str(&kernel_timeline(problem, schedule));
    out.push('\n');
    out.push_str(&lifetime_table(problem, schedule, &cache));
    out.push('\n');
    out.push_str(&live_vector_chart(problem, schedule));
    let _ = writeln!(
        out,
        "\nMaxLive {} (MinAvg {}), AvgLive {:.1}, GPRs {}, ICR {} (incl. {} stage preds)",
        pressure.rr_max_live,
        pressure.rr_min_avg,
        pressure.rr_avg_live(),
        pressure.gprs,
        pressure.icr_max_live,
        pressure.stages,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlackScheduler;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn sample() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("sample");
        let x = b.named_value(ValueType::Float, "x");
        let y = b.named_value(ValueType::Float, "y");
        let fx = b.op(OpKind::FAdd, &[x, y], Some(x));
        let fy = b.op(OpKind::FAdd, &[y, x], Some(y));
        b.flow_dep(fx, fx, 1);
        b.flow_dep(fy, fy, 1);
        b.flow_dep(fx, fy, 2);
        b.flow_dep(fy, fx, 2);
        b.finish()
    }

    #[test]
    fn report_contains_every_section() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let r = report(&p, &s);
        assert!(r.contains("kernel: II ="));
        assert!(r.contains("LiveVector"));
        assert!(r.contains("MaxLive"));
        assert!(r.contains("lifetime"));
        assert!(r.contains("sample"));
    }

    #[test]
    fn timeline_lists_each_cycle_once() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let t = kernel_timeline(&p, &s);
        for c in 0..s.ii {
            assert_eq!(t.matches(&format!("cycle {c:>3} |")).count(), 1);
        }
    }

    #[test]
    fn lifetime_table_shows_recurrence_values() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let t = lifetime_table(&p, &s, &MinDistCache::new());
        assert!(t.contains('x'));
        assert!(t.contains('y'));
        assert!(t.contains("RR"));
    }
}
