//! Property tests: rotating allocations over compiled random loops are
//! always conflict-free under the brute-force oracle, for every strategy.
//!
//! Formerly a `proptest` suite; rewritten over the vendored deterministic
//! PRNG so the workspace builds without external crates.

use lsms_front::compile;
use lsms_ir::RegClass;
use lsms_machine::huff_machine;
use lsms_prng::SmallRng;
use lsms_regalloc::{allocate_rotating, mve_plan, verify_allocation, Fit, Ordering, Strategy};
use lsms_sched::pressure::measure;
use lsms_sched::{SchedProblem, SlackScheduler};

fn strategies() -> [Strategy; 4] {
    [
        Strategy {
            ordering: Ordering::StartTime,
            fit: Fit::FirstFit,
        },
        Strategy {
            ordering: Ordering::StartTime,
            fit: Fit::EndFit,
        },
        Strategy {
            ordering: Ordering::LongestFirst,
            fit: Fit::FirstFit,
        },
        Strategy {
            ordering: Ordering::LongestFirst,
            fit: Fit::EndFit,
        },
    ]
}

#[test]
fn allocations_verify_for_every_strategy() {
    for case in 0u64..40 {
        let seed = SmallRng::seed_from_u64(0xa110c + case).gen_range(0..50_000u64);
        let generated = lsms_loops::generate(&lsms_loops::GeneratorConfig { seed, count: 1 });
        let unit = compile(&generated[0].source).expect("generator emits valid DSL");
        let compiled = &unit.loops[0];
        let machine = huff_machine();
        let problem = SchedProblem::new(&compiled.body, &machine).expect("problem builds");
        let Ok(schedule) = SlackScheduler::new().run(&problem) else {
            continue; // scheduling failures are measured elsewhere
        };
        let report = measure(&problem, &schedule);
        for strategy in strategies() {
            for class in [RegClass::Rr, RegClass::Icr] {
                let alloc = allocate_rotating(&problem, &schedule, class, strategy)
                    .expect("allocation succeeds within the cap");
                verify_allocation(&problem, &schedule, class, &alloc, 12).unwrap_or_else(
                    |(a, b, r)| panic!("{strategy:?}/{class:?}: {a} and {b} collide in r{r}"),
                );
                if class == RegClass::Rr {
                    // Never below the MaxLive lower bound.
                    assert!(alloc.num_regs >= report.rr_max_live, "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn mve_plan_is_consistent_with_lifetimes() {
    for case in 0u64..40 {
        let seed = SmallRng::seed_from_u64(0x33e9 + case).gen_range(0..50_000u64);
        let generated = lsms_loops::generate(&lsms_loops::GeneratorConfig { seed, count: 1 });
        let unit = compile(&generated[0].source).expect("generator emits valid DSL");
        let machine = huff_machine();
        let problem = SchedProblem::new(&unit.loops[0].body, &machine).expect("problem builds");
        let Ok(schedule) = SlackScheduler::new().run(&problem) else {
            continue;
        };
        let plan = mve_plan(&problem, &schedule);
        assert!(plan.unroll >= 1);
        assert!(plan.unroll >= plan.unroll_max);
        assert_eq!(
            plan.expanded_ops,
            u64::from(plan.unroll) * problem.num_real_ops() as u64,
            "seed {seed}"
        );
        // Registers: at least one per register-holding value with a
        // positive lifetime, at most unroll_max per value.
        assert!(
            u64::from(plan.registers)
                <= u64::from(plan.unroll_max) * problem.body().values().len() as u64,
            "seed {seed}"
        );
    }
}

/// Every loop of the corpus, both classes: the allocator's offsets, from
/// its pair terms listed once per allocation, agree with the brute-force
/// replay of every instance onto concrete registers and cycles.
#[test]
fn corpus_allocations_verify_for_both_classes() {
    let machine = huff_machine();
    let mut checked = [0u32; 2];
    for compiled in lsms_loops::corpus(lsms_loops::PAPER_CORPUS_SIZE, lsms_loops::CORPUS_SEED) {
        let problem = SchedProblem::new(&compiled.body, &machine).expect("problem builds");
        let Ok(schedule) = SlackScheduler::new().run(&problem) else {
            continue;
        };
        for (class, count) in [RegClass::Rr, RegClass::Icr].into_iter().zip(&mut checked) {
            let alloc = allocate_rotating(&problem, &schedule, class, Strategy::default())
                .expect("allocation succeeds within the cap");
            verify_allocation(&problem, &schedule, class, &alloc, 8).unwrap_or_else(|(a, b, r)| {
                panic!(
                    "{} {class:?}: {a} and {b} collide in r{r}",
                    compiled.def.name
                )
            });
            *count += u32::from(alloc.num_regs > 0);
        }
    }
    assert!(checked[0] >= 1500 && checked[1] >= 300, "{checked:?}");
}
