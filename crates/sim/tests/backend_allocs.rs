//! The back end allocates a fixed number of times per loop, whatever the
//! loop's size, and the reference interpreter and the simulator allocate
//! nothing per iteration.
//!
//! A counting global allocator tallies the allocations (and
//! reallocations) made on the test's own thread while each loop goes
//! through rotating allocation of both classes, code generation, and
//! simulate-verify (`Oracle::new`, then `check_kernel`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lsms_front::CompiledLoop;
use lsms_ir::RegClass;
use lsms_machine::huff_machine;
use lsms_regalloc::{allocate_rotating, Strategy};
use lsms_sched::{SchedProblem, SlackScheduler};
use lsms_sim::Oracle;

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

/// The allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most allocations each step may make for one loop: rotating
/// allocation (both classes), code generation, `Oracle::new` and
/// `check_kernel`. None depends on the loop's size or trip count.
const BOUNDS: [u64; 4] = [12, 3, 5, 4];

/// The allocations of each back-end step for `compiled` verified over
/// `trip` iterations, or `None` when the loop does not schedule.
fn back_end(compiled: &CompiledLoop, trip: u64) -> Option<[u64; 4]> {
    let machine = huff_machine();
    let problem = SchedProblem::new(&compiled.body, &machine).expect("buildable");
    let schedule = SlackScheduler::new().run(&problem).ok()?;
    let (regalloc, (rr, icr)) = counted(|| {
        let alloc =
            |class| allocate_rotating(&problem, &schedule, class, Strategy::default()).unwrap();
        (alloc(RegClass::Rr), alloc(RegClass::Icr))
    });
    let (codegen, kernel) = counted(|| lsms_codegen::emit(&problem, &schedule, &rr, &icr).unwrap());
    let (oracle_new, oracle) = counted(|| Oracle::new(compiled, trip, 7).unwrap());
    let (check, report) = counted(|| {
        oracle
            .check_kernel(compiled, &problem, &schedule, &kernel, &rr, &icr)
            .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name))
    });
    assert!(report.elements > 0);
    Some([regalloc, codegen, oracle_new, check])
}

fn population() -> Vec<CompiledLoop> {
    let mut loops = lsms_loops::corpus(400, 1993);
    let recurrent = lsms_loops::generate_with_profile(
        &lsms_loops::GeneratorConfig {
            seed: 1993,
            count: 100,
        },
        &lsms_loops::Profile::recurrence_heavy(),
    );
    for named in recurrent {
        let unit = lsms_front::compile(&named.source).expect("generated loops compile");
        loops.extend(unit.loops);
    }
    loops
}

#[test]
fn the_back_end_allocates_a_fixed_number_of_times_per_loop() {
    let (mut largest, mut checked) = (0, 0);
    for compiled in population() {
        let Some(made) = back_end(&compiled, 25) else {
            continue;
        };
        for (step, (m, bound)) in ["regalloc", "codegen", "Oracle::new", "check_kernel"]
            .iter()
            .zip(made.iter().zip(BOUNDS))
        {
            assert!(
                *m <= bound,
                "{}: {step} made {m} allocations (bound {bound})",
                compiled.def.name
            );
        }
        largest = largest.max(compiled.body.num_ops());
        checked += 1;
    }
    // The bound means something only over loops of many sizes.
    assert!(checked >= 450, "{checked} loops checked");
    assert!(largest >= 100, "largest loop: {largest} ops");
}

#[test]
fn verification_allocates_nothing_per_iteration() {
    for compiled in population().iter().step_by(10) {
        let Some(short) = back_end(compiled, 5) else {
            continue;
        };
        let long = back_end(compiled, 400).expect("scheduled once already");
        assert_eq!(short, long, "{}", compiled.def.name);
    }
}
