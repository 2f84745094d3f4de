//! Property-based tests: random dependence graphs through every scheduler,
//! checked against the independent validator and the bound algebra.
//!
//! Formerly a `proptest` suite; rewritten over the vendored deterministic
//! PRNG so the workspace builds without external crates. Each case derives
//! entirely from its seed, so a failure message's `case` number reproduces
//! the exact graph.

mod johnson;

use johnson::rec_mii_by_circuits;
use lsms_ir::{DepKind, DepVia, LoopBody, LoopBuilder, OpKind, ValueType};
use lsms_machine::huff_machine;
use lsms_prng::SmallRng;
use lsms_sched::pressure::{lifetimes, measure, min_lifetimes};
use lsms_sched::{
    validate, CydromeScheduler, DirectionPolicy, EngineWorkspace, MinDist, MinDistCache,
    ModuloScheduler, SchedContext, SchedProblem, SlackBackend, SlackConfig, SlackScheduler,
};

/// Description of one synthetic operation.
#[derive(Clone, Debug)]
struct OpSpec {
    kind_sel: u8,
    /// Flow arcs to later ops: (relative target offset, omega).
    fwd: Vec<(u8, u8)>,
    /// Optional back arc: (relative target offset, omega >= 1).
    back: Option<(u8, u8)>,
}

/// Mirrors the old proptest strategy: kind in 0..8, 0..3 forward arcs of
/// (0..6, 0..3), and a back arc (0..6, 1..4) with probability 0.3.
fn random_spec(rng: &mut SmallRng) -> OpSpec {
    let kind_sel = rng.gen_range(0..8u8);
    let fwd = (0..rng.gen_range(0..3usize))
        .map(|_| (rng.gen_range(0..6u8), rng.gen_range(0..3u8)))
        .collect();
    let back = rng
        .gen_ratio(3, 10)
        .then(|| (rng.gen_range(0..6u8), rng.gen_range(1..4u8)));
    OpSpec {
        kind_sel,
        fwd,
        back,
    }
}

fn random_specs(rng: &mut SmallRng, max_len: usize) -> Vec<OpSpec> {
    (0..rng.gen_range(1..max_len))
        .map(|_| random_spec(rng))
        .collect()
}

fn kind_of(sel: u8) -> OpKind {
    match sel {
        0 => OpKind::FAdd,
        1 => OpKind::FMul,
        2 => OpKind::Load,
        3 => OpKind::Store,
        4 => OpKind::IntAdd,
        5 => OpKind::AddrAdd,
        6 => OpKind::FSub,
        _ => OpKind::FDiv,
    }
}

/// Builds a structurally valid loop body from specs. Back arcs always have
/// omega >= 1, so no zero-omega cycle can arise.
fn build_body(specs: &[OpSpec]) -> LoopBody {
    let mut b = LoopBuilder::new("random");
    let addr = b.invariant(ValueType::Addr, "addr");
    let fin = b.invariant(ValueType::Float, "fin");
    let iin = b.invariant(ValueType::Int, "iin");
    let ain2 = b.invariant(ValueType::Addr, "addr2");
    let mut ops = Vec::new();
    for spec in specs {
        let kind = kind_of(spec.kind_sel);
        let inputs: Vec<_> = match kind {
            OpKind::Load => vec![addr],
            OpKind::Store => vec![addr, fin],
            OpKind::AddrAdd => vec![ain2, ain2],
            OpKind::IntAdd => vec![iin, iin],
            _ => vec![fin, fin],
        };
        let result = if kind.has_result() {
            let ty = match kind {
                OpKind::IntAdd => ValueType::Int,
                OpKind::AddrAdd => ValueType::Addr,
                _ => ValueType::Float,
            };
            Some(b.new_value(ty))
        } else {
            None
        };
        ops.push((b.op(kind, &inputs, result), result.is_some()));
    }
    let n = ops.len();
    for (i, spec) in specs.iter().enumerate() {
        for &(off, omega) in &spec.fwd {
            let j = i + 1 + off as usize;
            if j >= n {
                continue;
            }
            if ops[i].1 {
                b.flow_dep(ops[i].0, ops[j].0, u32::from(omega));
            } else {
                b.dep(
                    ops[i].0,
                    ops[j].0,
                    DepKind::Output,
                    DepVia::Memory,
                    u32::from(omega),
                );
            }
        }
        if let Some((off, omega)) = spec.back {
            let j = (off as usize) % n;
            if j <= i {
                if ops[i].1 {
                    b.flow_dep(ops[i].0, ops[j].0, u32::from(omega));
                } else {
                    b.dep(
                        ops[i].0,
                        ops[j].0,
                        DepKind::Anti,
                        DepVia::Memory,
                        u32::from(omega),
                    );
                }
            }
        }
    }
    b.finish()
}

#[test]
fn every_scheduler_produces_valid_schedules() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x5c4ed + case);
        let specs = random_specs(&mut rng, 20);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");

        let slack = SlackScheduler::new()
            .run(&problem)
            .expect("slack schedules");
        assert_eq!(validate(&problem, &slack), Ok(()), "case {case}");
        assert!(slack.ii >= problem.mii());

        for policy in [DirectionPolicy::AlwaysEarly, DirectionPolicy::AlwaysLate] {
            let s = SlackScheduler::with_config(SlackConfig {
                direction: policy,
                ..SlackConfig::default()
            })
            .run(&problem)
            .expect("ablation schedules");
            assert_eq!(validate(&problem, &s), Ok(()), "case {case} {policy:?}");
        }

        if let Ok(s) = CydromeScheduler::new().run(&problem) {
            assert_eq!(validate(&problem, &s), Ok(()), "case {case} cydrome");
            assert!(s.ii >= slack.ii || s.ii >= problem.mii());
        }
    }
}

#[test]
fn rec_mii_methods_agree() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x4ec0 + case);
        let specs = random_specs(&mut rng, 16);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        if let Ok(by_circuits) = rec_mii_by_circuits(&problem, 1_000_000) {
            assert_eq!(by_circuits, Some(problem.rec_mii()), "case {case}");
        }
    }
}

#[test]
fn lifetimes_dominate_their_lower_bounds() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x11f7 + case);
        let specs = random_specs(&mut rng, 16);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let schedule = SlackScheduler::new().run(&problem).expect("schedules");
        let md = MinDist::compute(&problem, schedule.ii);
        let actual = lifetimes(&problem, &schedule);
        let lower = min_lifetimes(&problem, &md);
        for (value, (a, l)) in actual.iter().zip(&lower).enumerate() {
            if let (Some(a), Some(l)) = (a, l) {
                assert!(
                    a >= l,
                    "case {case} value {value}: lifetime {a} < MinLT {l}"
                );
            }
        }
    }
}

#[test]
fn max_live_sits_between_avg_and_sum() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x3a11 + case);
        let specs = random_specs(&mut rng, 16);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let schedule = SlackScheduler::new().run(&problem).expect("schedules");
        let report = measure(&problem, &schedule);
        // MaxLive >= ceil(AvgLive): the max of the LiveVector is at least
        // its average.
        let avg = report.rr_avg_live();
        assert!(f64::from(report.rr_max_live) + 1e-9 >= avg);
        // MinAvg is an absolute lower bound on MaxLive (Figure 5's gap is
        // never negative).
        assert!(report.rr_max_live >= report.rr_min_avg, "case {case}");
        // MaxLive <= sum of per-value ceilings.
        let actual = lifetimes(&problem, &schedule);
        let sum_ceil: u64 = actual
            .iter()
            .flatten()
            .map(|&lt| (lt.max(0) as u64).div_ceil(u64::from(schedule.ii)))
            .sum();
        assert!(u64::from(report.rr_max_live) <= sum_ceil, "case {case}");
    }
}

#[test]
fn unrolling_preserves_schedulability_and_tightens_fractional_bounds() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x0411 + case);
        let specs = random_specs(&mut rng, 12);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let unrolled = lsms_ir::unroll(&body, 2);
        assert_eq!(unrolled.validate(), Ok(()));
        let problem2 = SchedProblem::new(&unrolled, &machine).expect("unrolled buildable");
        // Per-source-iteration bounds only improve (the fractional-MII
        // argument of §3.1): ceil(RecMII_u / 2) <= RecMII, and the
        // unrolled circuit bound never exceeds twice the original.
        assert!(problem2.rec_mii() <= 2 * problem.rec_mii(), "case {case}");
        assert!(
            problem2.rec_mii().div_ceil(2) <= problem.rec_mii(),
            "case {case}"
        );
        assert!(problem2.res_mii() <= 2 * problem.res_mii(), "case {case}");
        // And the unrolled body schedules.
        let s = SlackScheduler::new()
            .run(&problem2)
            .expect("unrolled schedules");
        assert_eq!(validate(&problem2, &s), Ok(()), "case {case}");
    }
}

#[test]
fn straight_line_mode_schedules_everything() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x57a1 + case);
        let specs = random_specs(&mut rng, 14);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let ctx = SchedContext {
            straight_line: true,
            ..SchedContext::new("schedule:slack")
        };
        let s = SlackBackend::bidirectional()
            .run(
                &problem,
                &MinDistCache::new(),
                &mut EngineWorkspace::new(),
                &ctx,
            )
            .result
            .unwrap_or_else(|e| panic!("straight-line failed on {specs:?}: {e}"));
        assert_eq!(validate(&problem, &s), Ok(()), "case {case}");
        // Straight-line: nothing wraps, so the plain (non-modulo)
        // dependence constraints hold outright for omega-0 arcs.
        assert!(s.length() <= i64::from(s.ii), "case {case}");
    }
}

#[test]
fn bidirectional_never_worse_ii_than_cydrome() {
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0xb1d1 + case);
        let specs = random_specs(&mut rng, 14);
        let body = build_body(&specs);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let slack = SlackScheduler::new()
            .run(&problem)
            .expect("slack schedules");
        // The slack scheduler must achieve MII on these modest graphs often
        // enough that we simply require a feasible II within the cap.
        assert!(slack.ii <= 4 * problem.mii() + 64, "case {case}");
    }
}
