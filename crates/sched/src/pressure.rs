//! Register-pressure accounting (§3.2, §5.1): lifetimes, the `LiveVector`,
//! `MaxLive`, and the schedule-independent `MinLT`/`MinAvg` lower bounds.
//!
//! Lifetimes follow the paper's Figure 3 convention: a value's register is
//! reserved from its defining operation's *issue* cycle until its last
//! use's issue cycle (`ω·II` later for cross-iteration uses), so the
//! length of `v`'s lifetime is `max over flow uses (time(u) + ω·II) −
//! time(d)`.
//!
//! Because register allocation for modulo-scheduled loops almost always
//! achieves `MaxLive` (§3.2, citing Rau et al. PLDI'92 — verified here by
//! `lsms-regalloc`), the paper approximates a schedule's register pressure
//! by `MaxLive`, and measures scheduler quality as `MaxLive − MinAvg`
//! (Figure 5).

use lsms_ir::{RegClass, ValueType};

use crate::mindist::NO_PATH;
use crate::{MinDist, MinDistCache, SchedProblem, Schedule};

/// Pressure measurements for one scheduled loop.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureReport {
    /// The schedule's initiation interval.
    pub ii: u32,
    /// The RR-file `LiveVector`: simultaneously-live loop variants at each
    /// of the II kernel cycles.
    pub rr_live_vector: Vec<u32>,
    /// `MaxLive` for the RR file: the maximum of the `LiveVector` (§3.2).
    pub rr_max_live: u32,
    /// `MinAvg = Σ ⌈MinLT(v)/II⌉` over RR values: the schedule-independent
    /// lower bound on final RR pressure.
    pub rr_min_avg: u32,
    /// Total RR lifetime length; `AvgLive = total / II`.
    pub rr_total_lifetime: i64,
    /// Longest single RR lifetime under this schedule.
    pub rr_max_lifetime: i64,
    /// RR values that carry a lifetime (the denominator of the mean
    /// lifetime `rr_total_lifetime / rr_lifetime_count`).
    pub rr_lifetime_count: u32,
    /// `MaxLive` over source-level predicate values plus one stage
    /// predicate per kernel stage (the ICR file, Figure 8).
    pub icr_max_live: u32,
    /// Number of kernel stages (`⌈schedule length / II⌉`).
    pub stages: u32,
    /// Loop invariants occupying the GPR file (Figure 7).
    pub gprs: u32,
}

impl PressureReport {
    /// `AvgLive`: the LiveVector's average, `Σ lifetimes / II` (§3.2 —
    /// "MaxLive is usually very close to the LiveVector's average").
    pub fn rr_avg_live(&self) -> f64 {
        self.rr_total_lifetime as f64 / f64::from(self.ii)
    }

    /// Figure 5's metric: how far the schedule's RR pressure sits above
    /// the schedule-independent lower bound. Never negative: `MaxLive ≥
    /// ⌈AvgLive⌉ ≥ MinAvg`.
    pub fn excess(&self) -> i64 {
        i64::from(self.rr_max_live) - i64::from(self.rr_min_avg)
    }
}

/// `MinLT(v)` for every value at a given II: `max over flow deps (d→u, ω)`
/// of `ω·II + MinDist(d, u)` (§5.1); `None` for values without register
/// flow uses.
pub fn min_lifetimes(problem: &SchedProblem<'_>, md: &MinDist) -> Vec<Option<i64>> {
    let mut minlt = Vec::new();
    min_lifetimes_into(problem, md, &mut minlt);
    minlt
}

/// As [`min_lifetimes`], recycling `out` as the result storage so the
/// scheduling engine's II escalation does not allocate per attempt.
pub fn min_lifetimes_into(problem: &SchedProblem<'_>, md: &MinDist, out: &mut Vec<Option<i64>>) {
    let body = problem.body();
    let ii = i64::from(md.ii());
    out.clear();
    out.resize(body.values().len(), None);
    for dep in body.deps() {
        if !dep.is_register_flow() {
            continue;
        }
        let v = dep.value.expect("register flow arcs carry a value");
        let dist = md.get(dep.from.index(), dep.to.index());
        if dist == NO_PATH {
            continue;
        }
        let lt = i64::from(dep.omega) * ii + i64::from(dist);
        let slot = &mut out[v.index()];
        *slot = Some(slot.map_or(lt, |old: i64| old.max(lt)));
    }
}

/// The schedule-independent `MinAvg` lower bound on RR pressure at a
/// given II: `⌈Σ MinLT(v) / II⌉` over loop variants in the RR file.
///
/// This is a *strict* lower bound on any schedule's MaxLive, via the
/// chain `MaxLive ≥ ⌈AvgLive⌉ = ⌈Σ LT(v)/II⌉ ≥ ⌈Σ MinLT(v)/II⌉` (§3.2's
/// three observations; the LiveVector's maximum dominates its average,
/// and every actual lifetime dominates its MinLT).
pub fn min_avg(problem: &SchedProblem<'_>, ii: u32) -> u32 {
    min_avg_cached(problem, ii, &MinDistCache::new())
}

/// As [`min_avg`] with a shared MinDist cache, so callers that already
/// scheduled at `ii` do not pay a second Floyd–Warshall.
pub fn min_avg_cached(problem: &SchedProblem<'_>, ii: u32, cache: &MinDistCache) -> u32 {
    let md = cache.get(problem, ii);
    let minlt = min_lifetimes(problem, &md);
    sum_ceil(problem, &minlt, ii, RegClass::Rr)
}

fn sum_ceil(
    problem: &SchedProblem<'_>,
    lifetimes: &[Option<i64>],
    ii: u32,
    class: RegClass,
) -> u32 {
    let total: u64 = problem
        .body()
        .values()
        .iter()
        .filter(|v| v.def.is_some() && v.reg_class() == class)
        .filter_map(|v| lifetimes[v.id.index()])
        .map(|lt| lt.max(0) as u64)
        .sum();
    total.div_ceil(u64::from(ii)) as u32
}

/// The actual lifetime length of every value under a schedule: `max over
/// flow uses (time(u) + ω·II) − time(d)`, or `None` for values with no
/// in-loop register flow use (their register dies immediately, or they are
/// invariants).
pub fn lifetimes(problem: &SchedProblem<'_>, schedule: &Schedule) -> Vec<Option<i64>> {
    let body = problem.body();
    let ii = i64::from(schedule.ii);
    let mut lt = vec![None; body.values().len()];
    for dep in body.deps() {
        if !dep.is_register_flow() {
            continue;
        }
        let v = dep.value.expect("register flow arcs carry a value");
        let span = schedule.times[dep.to.index()] + i64::from(dep.omega) * ii
            - schedule.times[dep.from.index()];
        let slot = &mut lt[v.index()];
        *slot = Some(slot.map_or(span, |old: i64| old.max(span)));
    }
    lt
}

/// Builds the `LiveVector` for values of `class`: wrap the lifetimes
/// generated by the first iteration around a vector of length II (§3.2,
/// Figure 4).
pub fn live_vector(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    lifetimes: &[Option<i64>],
    class: RegClass,
) -> Vec<u32> {
    let ii = schedule.ii as usize;
    let mut vector = vec![0u32; ii];
    for v in problem.body().values() {
        if v.reg_class() != class {
            continue;
        }
        let Some(def) = v.def else { continue };
        let Some(lt) = lifetimes[v.id.index()] else {
            continue;
        };
        if lt <= 0 {
            continue;
        }
        let full = (lt as usize) / ii;
        let rem = (lt as usize) % ii;
        for slot in vector.iter_mut() {
            *slot += full as u32;
        }
        let begin = schedule.times[def.index()].rem_euclid(ii as i64) as usize;
        for k in 0..rem {
            vector[(begin + k) % ii] += 1;
        }
    }
    vector
}

/// Number of GPRs the loop occupies: loop invariants referenced by the
/// body, plus loop variants never defined inside the loop (live-in
/// scalars kept static). Schedule-independent.
pub fn gpr_count(problem: &SchedProblem<'_>) -> u32 {
    let body = problem.body();
    let mut used = vec![false; body.values().len()];
    for op in body.ops() {
        for v in op.reads() {
            used[v.index()] = true;
        }
    }
    body.values()
        .iter()
        .filter(|v| used[v.id.index()] && v.def.is_none() && v.ty != ValueType::Pred)
        .count() as u32
}

/// Measures a schedule's register pressure across all three register
/// files.
pub fn measure(problem: &SchedProblem<'_>, schedule: &Schedule) -> PressureReport {
    measure_cached(problem, schedule, &MinDistCache::new())
}

/// As [`measure`] with a shared MinDist cache: the matrix for
/// `schedule.ii` is almost always already present from the scheduling run
/// that produced the schedule.
pub fn measure_cached(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    cache: &MinDistCache,
) -> PressureReport {
    let body = problem.body();
    let ii = schedule.ii;
    let lt = lifetimes(problem, schedule);
    let rr_live_vector = live_vector(problem, schedule, &lt, RegClass::Rr);
    let rr_max_live = rr_live_vector.iter().copied().max().unwrap_or(0);
    let mut rr_total_lifetime: i64 = 0;
    let mut rr_max_lifetime: i64 = 0;
    let mut rr_lifetime_count: u32 = 0;
    for l in body
        .values()
        .iter()
        .filter(|v| v.def.is_some() && v.reg_class() == RegClass::Rr)
        .filter_map(|v| lt[v.id.index()])
        .map(|l| l.max(0))
    {
        rr_total_lifetime += l;
        rr_max_lifetime = rr_max_lifetime.max(l);
        rr_lifetime_count += 1;
    }

    let md = cache.get(problem, ii);
    let minlt = min_lifetimes(problem, &md);
    let rr_min_avg = sum_ceil(problem, &minlt, ii, RegClass::Rr);

    let icr_vector = live_vector(problem, schedule, &lt, RegClass::Icr);
    let stages = schedule.stages();
    let icr_max_live = icr_vector.iter().copied().max().unwrap_or(0) + stages;

    let gprs = gpr_count(problem);

    lsms_trace::instant(
        "pressure.measured",
        &[
            ("ii", i64::from(ii)),
            ("max_live", i64::from(rr_max_live)),
            ("min_avg", i64::from(rr_min_avg)),
            ("stages", i64::from(stages)),
        ],
    );

    PressureReport {
        ii,
        rr_live_vector,
        rr_max_live,
        rr_min_avg,
        rr_total_lifetime,
        rr_max_lifetime,
        rr_lifetime_count,
        icr_max_live,
        stages,
        gprs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedStats, SlackScheduler};
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    /// The paper's Figure 1/3/4 sample loop: x(i) = x(i-1)+y(i-2),
    /// y(i) = y(i-1)+x(i-2), with the paper's hand schedule (fx at 0, fy
    /// at 1, II = 2).
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
    fn figure_4_live_vector() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        // The paper's schedule: fx at cycle 0, fy at cycle 1, II = 2.
        let s = Schedule {
            ii: 2,
            times: vec![0, 1],
            assignments: Vec::new(),
            stats: SchedStats::default(),
        };
        let lt = lifetimes(&p, &s);
        // x: defined at 0; used by fx at 0+1*2=2 and fy at 1+2*2=5 -> 5.
        assert_eq!(lt[0], Some(5));
        // y: defined at 1; used by fy at 1+2=3 and fx at 0+4=4 -> 3.
        assert_eq!(lt[1], Some(3));
        // LiveVector: x covers [0,5): cols 0,1 twice + col 0 once = (3,2);
        // y covers [1,4): cols (1),(0),(1)-> col1 2, col0 1.
        let v = live_vector(&p, &s, &lt, lsms_ir::RegClass::Rr);
        assert_eq!(v, vec![4, 4]);
        let report = measure(&p, &s);
        assert_eq!(report.rr_max_live, 4);
        // The paper's Figure 4 computes exactly LiveVector = <4 4>.
    }

    #[test]
    fn min_avg_matches_hand_computation() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        // At II = 2 the arcs weigh: self 1-2 = -1, cross 1-4 = -3, so
        // MinDist(fx,fy) = MinDist(fy,fx) = -3 and MinDist(d,d) = 0.
        // MinLT(x) = max(1*2 + 0, 2*2 + (-3)) = 2; same for y.
        // MinAvg = ceil((2 + 2)/2) = 2 — genuinely below the schedule's
        // MaxLive of 4, because MinDist cannot see that the recurrence
        // pins fx and fy into the same iteration.
        assert_eq!(min_avg(&p, 2), 2);
    }

    #[test]
    fn actual_lifetimes_dominate_minlt() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let md = MinDist::compute(&p, s.ii);
        let actual = lifetimes(&p, &s);
        let lower = min_lifetimes(&p, &md);
        for (a, l) in actual.iter().zip(&lower) {
            if let (Some(a), Some(l)) = (a, l) {
                assert!(a >= l, "actual {a} < MinLT {l}");
            }
        }
    }

    #[test]
    fn max_live_bounds_avg_live() {
        let body = sample();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let report = measure(&p, &s);
        assert!(f64::from(report.rr_max_live) >= report.rr_avg_live());
        assert!(f64::from(report.rr_max_live) < report.rr_avg_live() + f64::from(s.ii));
    }

    #[test]
    fn invariants_count_as_gprs_not_rrs() {
        let mut b = LoopBuilder::new("inv");
        let c = b.invariant(ValueType::Float, "c");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let mul = b.op(OpKind::FMul, &[x, c], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.flow_dep(ld, mul, 0);
        b.flow_dep(mul, st, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let report = measure(&p, &s);
        assert_eq!(report.gprs, 2); // c and a
                                    // x lives 13 cycles, y lives 1: at II = 2 MaxLive must be >= 7.
        assert!(
            report.rr_max_live >= 7,
            "rr_max_live = {}",
            report.rr_max_live
        );
    }

    #[test]
    fn predicates_count_in_icr() {
        let mut b = LoopBuilder::new("pred");
        let f = b.invariant(ValueType::Float, "f");
        let pv = b.new_value(ValueType::Pred);
        let r = b.new_value(ValueType::Float);
        let cmp = b.op(OpKind::CmpLt, &[f, f], Some(pv));
        let g = b.op_guarded(OpKind::FAdd, &[f, f], Some(r), Some(pv));
        b.flow_dep(cmp, g, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let report = measure(&p, &s);
        assert!(report.icr_max_live >= 1);
        // The predicate is not RR pressure.
        assert_eq!(report.rr_max_live, 0);
    }

    #[test]
    fn empty_schedule_has_empty_report() {
        let body = LoopBuilder::new("empty").finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = Schedule {
            ii: 1,
            times: vec![],
            assignments: Vec::new(),
            stats: SchedStats::default(),
        };
        let report = measure(&p, &s);
        assert_eq!(report.rr_max_live, 0);
        assert_eq!(report.gprs, 0);
        assert_eq!(report.rr_min_avg, 0);
    }
}
