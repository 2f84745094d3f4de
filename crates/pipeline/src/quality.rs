//! Bridges the session's scheduling outcomes into [`lsms_obs`] quality
//! records — the one place the observatory's per-loop schema is filled
//! in. Its two callers are `run_loop` (one row for the configured
//! backend) and [`LoopEvaluation::quality_records`](crate::LoopEvaluation::quality_records)
//! (one row per scheduler in the trio).

use lsms_obs::ScheduleQuality;

use crate::session::SchedOutcome;

/// Builds one loop's [`ScheduleQuality`] record from a scheduling
/// outcome plus the loop's §3.1 bounds. Pressure-derived fields come
/// back zero when the loop failed to pipeline (no schedule, no
/// lifetimes), matching the rollup's failure convention; `min_avg` is
/// `None` then.
pub(crate) fn quality_of(
    loop_name: &str,
    backend: &str,
    pass: &str,
    rec_mii: u32,
    res_mii: u32,
    mii: u32,
    outcome: &SchedOutcome,
) -> ScheduleQuality {
    let p = outcome.pressure.as_ref();
    ScheduleQuality {
        loop_name: loop_name.to_owned(),
        backend: backend.to_owned(),
        pass: pass.to_owned(),
        rec_mii,
        res_mii,
        mii,
        ii: outcome.ii,
        last_ii: outcome.last_ii,
        max_live: p.map_or(0, |p| p.rr_max_live),
        min_avg: p.map(|p| p.rr_min_avg),
        lifetime_sum: p.map_or(0, |p| p.rr_total_lifetime),
        lifetime_max: p.map_or(0, |p| p.rr_max_lifetime),
        lifetime_count: p.map_or(0, |p| p.rr_lifetime_count),
        attempts: outcome.stats.attempts,
        ejected_ops: outcome.stats.ejected_ops,
        backtracks: outcome.stats.backtracks(),
        degraded: outcome.degraded,
        wall_us: outcome.stats.elapsed.as_micros().min(u64::MAX as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_sched::SchedStats;
    use std::time::Duration;

    #[test]
    fn failed_loops_report_zero_pressure_and_last_ii() {
        let outcome = SchedOutcome {
            ii: None,
            last_ii: 17,
            pressure: None,
            stats: SchedStats {
                central_iterations: 40,
                step3_invocations: 3,
                ejected_ops: 9,
                step6_restarts: 2,
                attempts: 5,
                bounds_cells_touched: 0,
                choose_scan_len: 0,
                elapsed: Duration::from_micros(1234),
            },
            degraded: true,
        };
        let q = quality_of("hard", "cydrome", "schedule:cydrome", 4, 2, 4, &outcome);
        assert_eq!(q.ii, None);
        assert_eq!(q.counted_ii(), 17);
        assert_eq!(q.ii_gap(), 13);
        assert_eq!((q.max_live, q.lifetime_sum, q.lifetime_count), (0, 0, 0));
        assert_eq!(q.min_avg, None);
        assert_eq!(q.attempts, 5);
        assert_eq!(q.backtracks, 5);
        assert_eq!(q.ejected_ops, 9);
        assert!(q.degraded);
        assert_eq!(q.wall_us, 1234);
        assert_eq!(q.lifetime_mean(), 0.0);
    }
}
