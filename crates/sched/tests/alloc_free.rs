//! The central loop allocates nothing once its workspace is warm.
//!
//! A counting global allocator tallies the allocations (and reallocations)
//! made on the test's own thread. Each problem (the kernels, recurrence-
//! heavy generated loops and seeded random graphs) is scheduled once to
//! warm its `MinDistCache` and `EngineWorkspace`, then again with both: the
//! second run may allocate per II attempt (the unit-assignment table the
//! schedule keeps, the per-attempt critical-class mask) and a constant
//! amount per run, but nothing per central-loop iteration.

mod random_ddg;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lsms_machine::huff_machine;
use lsms_sched::{EngineWorkspace, MinDistCache, SchedProblem, SlackScheduler};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allowed allocations of a warm rerun: per attempt, then per run.
const PER_ATTEMPT: u64 = 4;
const PER_RUN: u64 = 32;

#[test]
fn warm_reruns_allocate_per_attempt_not_per_iteration() {
    let machine = huff_machine();
    let mut bodies: Vec<(String, lsms_ir::LoopBody)> = Vec::new();
    let recurrent = lsms_loops::generate_with_profile(
        &lsms_loops::GeneratorConfig {
            seed: 1993,
            count: 60,
        },
        &lsms_loops::Profile::recurrence_heavy(),
    );
    for named in lsms_loops::kernels().into_iter().chain(recurrent) {
        let unit = lsms_front::compile(&named.source).expect("corpus loops compile");
        bodies.extend(unit.loops.into_iter().map(|l| (named.name.clone(), l.body)));
    }
    for case in 0u64..96 {
        bodies.push((format!("slack case {case}"), random_ddg::slack_case(case)));
    }
    for case in 0u64..48 {
        bodies.push((
            format!("cydrome case {case}"),
            random_ddg::cydrome_case(case),
        ));
    }

    let scheduler = SlackScheduler::new();
    let (mut most_iterations, mut ejecting, mut escalating) = (0u64, 0u32, 0u32);
    for (name, body) in &bodies {
        let problem = SchedProblem::new(body, &machine).expect("buildable");
        let cache = MinDistCache::new();
        let mut ws = EngineWorkspace::new();
        let _ = scheduler.run_in(&problem, &cache, None, &mut ws);

        let before = allocations();
        let (result, _) = scheduler.run_in(&problem, &cache, None, &mut ws);
        let made = allocations() - before;

        let stats = match &result {
            Ok(s) => s.stats.clone(),
            Err(e) => e.stats.clone(),
        };
        let bound = PER_ATTEMPT * u64::from(stats.attempts) + PER_RUN;
        assert!(
            made <= bound,
            "{name}: warm rerun made {made} allocations over {} attempts and {} \
             iterations (bound {bound})",
            stats.attempts,
            stats.central_iterations,
        );
        most_iterations = most_iterations.max(stats.central_iterations);
        ejecting += u32::from(stats.ejected_ops > 0);
        escalating += u32::from(stats.attempts > 1);
    }
    // The bound means something only if long, backtracking and
    // escalating runs are in the population.
    assert!(most_iterations >= 1000, "longest run: {most_iterations}");
    assert!(ejecting >= 8, "{ejecting} runs ejected");
    assert!(escalating >= 2, "{escalating} runs escalated");
}
