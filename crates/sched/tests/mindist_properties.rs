//! Algebraic properties of the MinDist relation and the II bounds, over
//! seeded random dependence graphs, and the 32-bit matrix against the
//! 64-bit Floyd–Warshall oracle in `fw64`.
//!
//! Formerly a `proptest` suite; rewritten over the vendored deterministic
//! PRNG so the workspace builds without external crates. Every case is a
//! pure function of its seed, so failures reproduce exactly.

mod fw64;

use fw64::assert_matches_oracle;
use lsms_ir::{LoopBody, LoopBuilder, OpKind, ValueType};
use lsms_machine::huff_machine;
use lsms_prng::SmallRng;
use lsms_sched::mindist::NO_PATH;
use lsms_sched::{MinDist, MinDistCache, SchedProblem};

/// A random DAG-with-back-arcs body (same construction idea as the main
/// property suite, kept local and simple).
fn body_from(arcs: &[(u8, u8, u8)], n: usize) -> LoopBody {
    let mut b = LoopBuilder::new("g");
    let fin = b.invariant(ValueType::Float, "fin");
    let ops: Vec<_> = (0..n)
        .map(|_| {
            let v = b.new_value(ValueType::Float);
            b.op(OpKind::FMul, &[fin, fin], Some(v))
        })
        .collect();
    for &(from, to, omega) in arcs {
        let (f, t) = (from as usize % n, to as usize % n);
        // Keep zero-omega arcs forward so no zero-omega cycle forms.
        let omega = if t <= f {
            u32::from(omega % 3) + 1
        } else {
            u32::from(omega % 3)
        };
        b.flow_dep(ops[f], ops[t], omega);
    }
    b.finish()
}

/// Draws a random arc list shaped like the old proptest strategy:
/// 1..`max_arcs` arcs of (from, to, omega) with small endpoints.
fn random_arcs(rng: &mut SmallRng, ends: u8, max_arcs: usize) -> Vec<(u8, u8, u8)> {
    let count = rng.gen_range(1..=max_arcs);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..ends),
                rng.gen_range(0..ends),
                rng.gen_range(0..3u8),
            )
        })
        .collect()
}

#[test]
fn mindist_satisfies_the_longest_path_triangle_inequality() {
    for case in 0u64..128 {
        let mut rng = SmallRng::seed_from_u64(0x41d0 + case);
        let arcs = random_arcs(&mut rng, 12, 23);
        let extra_ii = rng.gen_range(0..4u32);
        let body = body_from(&arcs, 12);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let ii = problem.rec_mii() + extra_ii;
        let md = MinDist::compute(&problem, ii);
        assert!(md.is_feasible());
        let n = problem.num_nodes();
        for a in 0..n {
            // Diagonal pinned at zero.
            assert_eq!(md.get(a, a), 0);
            for b in 0..n {
                let dab = md.get(a, b);
                if dab == NO_PATH {
                    continue;
                }
                for c in 0..n {
                    let dbc = md.get(b, c);
                    if dbc == NO_PATH {
                        continue;
                    }
                    // Longest path: d(a,c) >= d(a,b) + d(b,c).
                    let dac = md.get(a, c);
                    assert!(
                        dac != NO_PATH && dac >= dab + dbc,
                        "case {case}: d({a},{c}) = {dac} < {dab} + {dbc}"
                    );
                }
            }
        }
    }
}

#[test]
fn feasibility_flips_exactly_at_rec_mii() {
    for case in 0u64..128 {
        let mut rng = SmallRng::seed_from_u64(0xfea5 + case);
        let arcs = random_arcs(&mut rng, 10, 19);
        let body = body_from(&arcs, 10);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let rec = problem.rec_mii();
        assert!(MinDist::compute(&problem, rec).is_feasible());
        assert!(MinDist::compute(&problem, rec + 3).is_feasible());
        if rec > 1 {
            assert!(!MinDist::compute(&problem, rec - 1).is_feasible());
        }
    }
}

#[test]
fn mindist_weakly_decreases_as_ii_grows() {
    for case in 0u64..128 {
        let mut rng = SmallRng::seed_from_u64(0xdec0 + case);
        let arcs = random_arcs(&mut rng, 10, 19);
        let body = body_from(&arcs, 10);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let rec = problem.rec_mii();
        let small = MinDist::compute(&problem, rec);
        let large = MinDist::compute(&problem, rec + 2);
        let n = problem.num_nodes();
        for a in 0..n {
            for b in 0..n {
                let (ds, dl) = (small.get(a, b), large.get(a, b));
                assert_eq!(ds == NO_PATH, dl == NO_PATH);
                if ds != NO_PATH {
                    // Arc weights latency − ω·II are non-increasing in II.
                    assert!(dl <= ds, "case {case}: d({a},{b}) grew: {ds} -> {dl}");
                }
            }
        }
    }
}

#[test]
fn estart_bounds_hold_in_actual_schedules() {
    use lsms_sched::SlackScheduler;
    for case in 0u64..128 {
        let mut rng = SmallRng::seed_from_u64(0xe5a7 + case);
        let arcs = random_arcs(&mut rng, 10, 17);
        let body = body_from(&arcs, 10);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let schedule = SlackScheduler::new().run(&problem).expect("schedules");
        let md = MinDist::compute(&problem, schedule.ii);
        // Every op starts no earlier than MinDist(Start, op): the initial
        // Estart of §4.1 is a true lower bound.
        for op in 0..problem.num_real_ops() {
            let e0 = i64::from(md.get(problem.start(), op));
            assert!(
                schedule.times[op] >= e0,
                "case {case}: op {op} at {} before its Estart {e0}",
                schedule.times[op]
            );
        }
    }
}

#[test]
fn cached_mindist_matches_direct_computation() {
    for case in 0u64..64 {
        let mut rng = SmallRng::seed_from_u64(0xcac4e + case);
        let arcs = random_arcs(&mut rng, 10, 19);
        let body = body_from(&arcs, 10);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let rec = problem.rec_mii();
        let cache = MinDistCache::new();
        let n = problem.num_nodes();
        // The sweep starts below RecMII when possible, so infeasible IIs
        // go through the cache too, and runs long enough to be a real
        // escalation.
        let sweep = rec.max(2) - 1..=rec + 8;
        for ii in sweep.clone() {
            // Ask twice: the second hit must be the same shared matrix.
            let first = cache.get(&problem, ii);
            let second = cache.get(&problem, ii);
            assert!(std::sync::Arc::ptr_eq(&first, &second));
            let direct = MinDist::compute(&problem, ii);
            assert_eq!(
                first.is_feasible(),
                direct.is_feasible(),
                "case {case}: feasibility at II {ii}"
            );
            assert_eq!(first.is_feasible(), ii >= rec, "case {case} ii {ii}");
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(first.get(a, b), direct.get(a, b), "case {case} ii {ii}");
                }
            }
            // And the 32-bit matrix matches the 64-bit oracle: its
            // feasibility at every II, every entry where feasible.
            assert_matches_oracle(&problem, ii, &format!("case {case}"));
        }
        let stats = cache.stats();
        assert_eq!(
            stats.misses,
            sweep.count() as u64,
            "case {case}: one Floyd–Warshall per distinct II"
        );
        assert_eq!(stats.fw_computes, stats.misses, "case {case}");
    }
}

#[test]
fn every_kernel_matches_the_oracle() {
    let machine = huff_machine();
    for named in lsms_loops::kernels() {
        let unit = lsms_front::compile(&named.source).expect("kernels compile");
        for l in unit.loops {
            let problem = SchedProblem::new(&l.body, &machine).expect("buildable");
            for ii in problem.mii()..=problem.mii() + 2 {
                assert_matches_oracle(&problem, ii, &named.name);
            }
        }
    }
}

/// `col(x)[y] == row(y)[x] == get(y, x)` for every pair, where `col(x)`
/// is row `x` of the transpose the scheduling engine builds per attempt
/// ([`MinDist::transpose_into`]), at every II from just below RecMII,
/// where Floyd–Warshall stops early, to RecMII + 2. The transpose buffer
/// is reused across IIs, as the engine's workspace reuses it.
fn assert_rows_and_columns_mirror(problem: &SchedProblem<'_>, label: &str) {
    let rec = problem.rec_mii();
    let n = problem.num_nodes();
    let mut dt = vec![0; 3];
    for ii in rec.max(2) - 1..=rec + 2 {
        let md = MinDist::compute(problem, ii);
        md.transpose_into(&mut dt);
        assert_eq!(dt.len(), n * n);
        for x in 0..n {
            let col = &dt[x * n..(x + 1) * n];
            assert_eq!(md.row(x).len(), n);
            for (y, &into) in col.iter().enumerate() {
                let w = md.get(y, x);
                assert_eq!(md.row(y)[x], w, "{label} ii {ii}: row({y})[{x}]");
                assert_eq!(into, w, "{label} ii {ii}: col({x})[{y}]");
            }
        }
    }
}

#[test]
fn rows_and_columns_mirror_the_matrix() {
    let machine = huff_machine();
    for case in 0u64..64 {
        let mut rng = SmallRng::seed_from_u64(0xc01 + case);
        let arcs = random_arcs(&mut rng, 12, 23);
        let body = body_from(&arcs, 12);
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        assert_rows_and_columns_mirror(&problem, &format!("case {case}"));
    }
    // Two multiplies feeding each other one iteration apart: RecMII 4,
    // negative back distances, and NO_PATH cells into and out of Start
    // and Stop.
    let body = body_from(&[(0, 1, 0), (1, 0, 0)], 2);
    let problem = SchedProblem::new(&body, &machine).expect("buildable");
    assert_eq!(problem.rec_mii(), 4);
    let md = MinDist::compute(&problem, 4);
    assert!(md.get(0, 1) != NO_PATH && md.get(1, 0) < 0);
    assert_rows_and_columns_mirror(&problem, "recurrence");
}
