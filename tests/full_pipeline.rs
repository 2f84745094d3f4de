//! End-to-end integration: source text → dependence analysis → slack
//! scheduling → rotating allocation → kernel code → simulated execution,
//! with every stage checked by an independent oracle.

mod common;

use common::verify;
use lsms::front::compile;
use lsms::ir::RegClass;
use lsms::machine::{alternate_machines, huff_machine};
use lsms::pipeline::VerifySpec;
use lsms::regalloc::{allocate_rotating, verify_allocation, Strategy};
use lsms::sched::{validate, SchedProblem, SlackScheduler};

#[test]
fn every_kernel_survives_the_whole_pipeline() {
    let machine = huff_machine();
    for kernel in lsms::loops::kernels() {
        let unit = compile(&kernel.source).expect("kernels compile");
        let compiled = &unit.loops[0];
        let report = verify(
            compiled,
            &machine,
            "slack",
            VerifySpec::with_trip(25),
            false,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert!(report.elements > 0, "{}", kernel.name);
    }
}

#[test]
fn kernels_simulate_correctly_at_edge_trip_counts() {
    let machine = huff_machine();
    // Trip counts below, at, and above the stage count exercise ramp-up
    // and ramp-down predication.
    for kernel in lsms::loops::kernels().into_iter().take(8) {
        let unit = compile(&kernel.source).expect("kernels compile");
        let compiled = &unit.loops[0];
        for trip in [1, 2, 3, 13, 64] {
            let spec = VerifySpec {
                trip,
                seed: trip * 7 + 1,
            };
            verify(compiled, &machine, "slack", spec, false)
                .unwrap_or_else(|e| panic!("{} at trip {trip}: {e}", kernel.name));
        }
    }
}

#[test]
fn generated_corpus_slice_schedules_validates_and_allocates() {
    let machine = huff_machine();
    for compiled in lsms::loops::corpus(60, 0xfeed) {
        let problem = SchedProblem::new(&compiled.body, &machine)
            .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name));
        let schedule = SlackScheduler::new()
            .run(&problem)
            .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name));
        assert_eq!(
            validate(&problem, &schedule),
            Ok(()),
            "{}",
            compiled.def.name
        );
        for class in [RegClass::Rr, RegClass::Icr] {
            let alloc = allocate_rotating(&problem, &schedule, class, Strategy::default())
                .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name));
            verify_allocation(&problem, &schedule, class, &alloc, 12).unwrap_or_else(
                |(a, b, r)| panic!("{}: {a} and {b} collide in r{r}", compiled.def.name),
            );
        }
    }
}

#[test]
fn generated_corpus_slice_simulates_correctly() {
    let machine = huff_machine();
    for compiled in lsms::loops::corpus(40, 0xbeef) {
        let spec = VerifySpec {
            trip: 17,
            seed: 0xabc,
        };
        verify(&compiled, &machine, "slack", spec, false)
            .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name));
    }
}

#[test]
fn pipeline_holds_on_alternative_machines() {
    for machine in alternate_machines() {
        for kernel in lsms::loops::kernels().into_iter().take(6) {
            let unit = compile(&kernel.source).expect("kernels compile");
            verify(
                &unit.loops[0],
                &machine,
                "slack",
                VerifySpec::with_trip(25),
                false,
            )
            .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, machine.name()));
        }
    }
}

#[test]
fn figure1_reproduces_the_papers_numbers() {
    let machine = huff_machine();
    let unit = compile(
        "loop sample(i = 3..n) {
             real x[], y[];
             x[i] = x[i-1] + y[i-2];
             y[i] = y[i-1] + x[i-2];
         }",
    )
    .expect("sample compiles");
    let compiled = &unit.loops[0];
    let problem = SchedProblem::new(&compiled.body, &machine).expect("problem builds");
    // §2.3/Figure 3: the sample loop runs at II = 2.
    assert_eq!(problem.mii(), 2);
    let schedule = SlackScheduler::new().run(&problem).expect("schedules");
    assert_eq!(schedule.ii, 2);
    // The two recurrence values' lifetimes wrap around II as in Figure 4:
    // both x and y stay live for more than II cycles.
    let lt = lsms::sched::pressure::lifetimes(&problem, &schedule);
    let long_lived = compiled
        .body
        .values()
        .iter()
        .filter(|v| v.reg_class() == lsms::ir::RegClass::Rr)
        .filter(|v| lt[v.id.index()].unwrap_or(0) > i64::from(schedule.ii))
        .count();
    assert!(
        long_lived >= 2,
        "x and y live longer than II, needing rotation"
    );
}
