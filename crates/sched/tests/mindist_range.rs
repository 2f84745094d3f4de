//! The II ceiling that keeps the scheduler's arithmetic inside `i32`.
//!
//! These hostile cases push `Σ_arcs(|latency| + ω·II)` to just below and
//! just above 2²⁷, ask for an II cap far above the ceiling, and schedule
//! straight-line bodies whose horizon straddles it. Each must end in a
//! validated schedule or an out-of-range failure (`E0403` in the
//! pipeline). Debug builds check every addition for overflow, so a wrap
//! anywhere fails the suite.

mod fw64;

use fw64::assert_matches_oracle;
use lsms_ir::{LoopBody, LoopBuilder, OpId, OpKind, ValueType};
use lsms_machine::huff_machine;
use lsms_prng::SmallRng;
use lsms_sched::{
    validate, CydromeScheduler, EngineWorkspace, MinDistCache, ModuloScheduler, ProblemError,
    SchedContext, SchedFailure, SchedProblem, Schedule, SlackBackend, SlackConfig, SlackScheduler,
};

/// 2²⁷: the bound on `Σ_arcs(|latency| + ω·II)` at every II tried.
const PATH_RANGE: u64 = 1 << 27;

/// `Σ |latency|` and `Σ ω` over the problem's arcs.
fn arc_sums(problem: &SchedProblem<'_>) -> (u64, u64) {
    let latency = problem
        .arcs()
        .iter()
        .map(|a| a.latency.unsigned_abs())
        .sum();
    let omega = problem.arcs().iter().map(|a| u64::from(a.omega)).sum();
    (latency, omega)
}

/// Ten multiplies with 1–19 random arcs plus one arc from op 0 to op 1
/// carried `omega` iterations. So large an ω adds nothing to RecMII; it
/// only spends the path range.
fn far_arc_body(case: u64, omega: u32) -> LoopBody {
    let mut rng = SmallRng::seed_from_u64(0xfa4 + case);
    let arcs: Vec<(u8, u8, u8)> = (0..rng.gen_range(1..=19))
        .map(|_| {
            (
                rng.gen_range(0..10u8),
                rng.gen_range(0..10u8),
                rng.gen_range(0..3u8),
            )
        })
        .collect();
    let mut b = LoopBuilder::new("far");
    let fin = b.invariant(ValueType::Float, "fin");
    let ops: Vec<OpId> = (0..10)
        .map(|_| {
            let v = b.new_value(ValueType::Float);
            b.op(OpKind::FMul, &[fin, fin], Some(v))
        })
        .collect();
    for (from, to, omega) in arcs {
        let (f, t) = (usize::from(from), usize::from(to));
        // Zero-omega arcs run forward, so no zero-omega cycle forms.
        let omega = u32::from(omega) + u32::from(t <= f);
        b.flow_dep(ops[f], ops[t], omega);
    }
    b.flow_dep(ops[0], ops[1], omega);
    b.finish()
}

/// The far arc's ω that makes `Σ(|latency| + ω·II)` at MII land `above`
/// 2²⁷ (or just at or below it when `above` is false).
fn far_omega(case: u64, above: bool) -> u32 {
    const PROBE: u32 = 1 << 20;
    let body = far_arc_body(case, PROBE);
    let machine = huff_machine();
    let problem = SchedProblem::new(&body, &machine).expect("buildable");
    let (latency, omega) = arc_sums(&problem);
    let mii = u64::from(problem.mii());
    let target = (PATH_RANGE - latency) / mii + u64::from(above);
    let far = target - (omega - u64::from(PROBE));
    assert!(far >= u64::from(PROBE), "case {case}: far arc too short");
    u32::try_from(far).unwrap()
}

/// A validated schedule, or a failure the range stopped.
fn assert_validated_or_out_of_range(
    problem: &SchedProblem<'_>,
    result: &Result<Schedule, SchedFailure>,
    label: &str,
) {
    match result {
        Ok(s) => {
            assert_eq!(validate(problem, s), Ok(()), "{label}");
            assert!(s.ii <= problem.ii_ceiling(), "{label}");
        }
        Err(e) => assert!(e.out_of_range, "{label}: {e}"),
    }
}

#[test]
fn path_sums_just_below_the_range_schedule_at_the_ceiling() {
    let machine = huff_machine();
    let mut scheduled = 0;
    for case in 0u64..24 {
        let body = far_arc_body(case, far_omega(case, false));
        let problem = SchedProblem::new(&body, &machine).expect("inside the range");
        let (latency, omega) = arc_sums(&problem);
        let mii = problem.mii();
        assert!(
            latency + omega * u64::from(mii) <= PATH_RANGE,
            "case {case}"
        );
        assert!(
            latency + omega * u64::from(mii + 1) > PATH_RANGE,
            "case {case}"
        );
        assert_eq!(problem.ii_ceiling(), mii, "case {case}");
        // Entries reach ±2²⁷ here, where a wrap would show first.
        assert_matches_oracle(&problem, mii, &format!("case {case}"));
        let label = format!("case {case}");
        let slack = SlackScheduler::new().run(&problem);
        assert_validated_or_out_of_range(&problem, &slack, &label);
        let cydrome = CydromeScheduler::new().run(&problem);
        assert_validated_or_out_of_range(&problem, &cydrome, &label);
        scheduled += u32::from(slack.is_ok());
    }
    assert!(scheduled >= 12, "only {scheduled} cases scheduled");
}

#[test]
fn path_sums_just_above_the_range_are_refused() {
    let machine = huff_machine();
    for case in 0u64..24 {
        let body = far_arc_body(case, far_omega(case, true));
        let err = SchedProblem::new(&body, &machine).unwrap_err();
        let ProblemError::PathRange { mii, ceiling } = err else {
            panic!("case {case}: {err}");
        };
        assert_eq!(ceiling + 1, mii, "case {case}");
    }
}

#[test]
fn an_ii_cap_above_the_ceiling_stops_at_the_ceiling() {
    let machine = huff_machine();
    for case in 0u64..8 {
        // A ceiling a few IIs above MII.
        let body = far_arc_body(case, far_omega(case, false) / 4);
        let problem = SchedProblem::new(&body, &machine).expect("inside the range");
        let ceiling = problem.ii_ceiling();
        assert!(ceiling > problem.mii(), "case {case}");
        // No iteration budget: every attempt fails, so the search runs
        // until the cap stops it.
        let starved = SlackScheduler::with_config(SlackConfig {
            budget_factor: 0,
            max_ii: Some(u32::MAX),
            ..SlackConfig::default()
        });
        let err = starved.run(&problem).unwrap_err();
        assert!(err.out_of_range, "case {case}");
        assert_eq!(err.last_ii, ceiling, "case {case}");
        // A cap at the ceiling is the caller's own: plain failure.
        let capped = SlackScheduler::with_config(SlackConfig {
            budget_factor: 0,
            max_ii: Some(ceiling),
            ..SlackConfig::default()
        });
        assert!(
            !capped.run(&problem).unwrap_err().out_of_range,
            "case {case}"
        );
        let mut cydrome = CydromeScheduler::new();
        cydrome.max_ii = Some(u32::MAX);
        let result = cydrome.run(&problem);
        assert_validated_or_out_of_range(&problem, &result, &format!("case {case}"));
    }
}

#[test]
fn straight_line_horizons_around_the_ceiling() {
    let machine = huff_machine();
    let (mut scheduled, mut refused) = (0, 0);
    for case in 0u64..8 {
        let full = far_omega(case, false);
        // Ceilings from MII up to far past any horizon.
        for shrink in [1, 2, 8, 64, 512, 1 << 12, 1 << 16] {
            let body = far_arc_body(case, (full / shrink).max(1 << 10));
            let problem = SchedProblem::new(&body, &machine).expect("inside the range");
            let ctx = SchedContext {
                straight_line: true,
                ..SchedContext::new("schedule:slack")
            };
            let result = SlackBackend::bidirectional()
                .run(
                    &problem,
                    &MinDistCache::new(),
                    &mut EngineWorkspace::new(),
                    &ctx,
                )
                .result;
            let label = format!("case {case} / {shrink}");
            match &result {
                Ok(s) => {
                    assert!(s.ii <= problem.ii_ceiling(), "{label}");
                    assert!(s.length() <= i64::from(s.ii), "{label}");
                    scheduled += 1;
                }
                Err(e) => {
                    assert!(e.out_of_range, "{label}: {e}");
                    refused += 1;
                }
            }
            assert_validated_or_out_of_range(&problem, &result, &label);
        }
    }
    assert!(scheduled > 0 && refused > 0, "{scheduled} / {refused}");
}
