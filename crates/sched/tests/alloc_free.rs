//! The central loop allocates nothing once its workspace is warm, and
//! building a problem allocates the same number of times at every size.
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

/// A chain of `n` adds, each feeding the next, whose first two ops also
/// form a recurrence: op 1 feeds op 0 of the next iteration.
fn chain_with_one_recurrence(n: usize) -> lsms_ir::LoopBody {
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    let mut b = LoopBuilder::new("chain");
    let f = b.invariant(ValueType::Float, "f");
    let ops: Vec<_> = (0..n)
        .map(|_| {
            let v = b.new_value(ValueType::Float);
            b.op(OpKind::FAdd, &[f, f], Some(v))
        })
        .collect();
    for pair in ops.windows(2) {
        b.flow_dep(pair[0], pair[1], 0);
    }
    b.flow_dep(ops[1], ops[0], 1);
    b.finish()
}

/// The flat adjacency and the one Tarjan pass size every buffer up
/// front: no allocation is per node, per arc or per component.
#[test]
fn building_a_problem_allocates_the_same_at_every_size() {
    let machine = huff_machine();
    let made = |n: usize| {
        let body = chain_with_one_recurrence(n);
        let before = allocations();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let made = allocations() - before;
        assert_eq!(problem.components().ops_on_recurrences(), 2);
        assert_eq!(problem.rec_mii(), 2);
        made
    };
    assert_eq!(made(20), made(200));
}

/// A loop of `statements` accumulations, each loading a new element:
/// `s = s * a + x[i + k]`, then one store.
fn accumulation_source(statements: usize) -> String {
    let mut source = String::from("loop acc(i = 1..n) {\n real x[], y[];\n param real a;\n");
    for k in 0..statements {
        source.push_str(&format!(" s = s * a + x[i + {k}];\n"));
    }
    source.push_str(" y[i] = s;\n}\n");
    source
}

/// Allocations per lowered op that compiling a loop may make, at any size.
const COMPILE_PER_OP: u64 = 6;

/// The front end (lex, parse, sema, lower) allocates in proportion to
/// the loop: a fixed bound per lowered op, and a ten-times longer loop
/// costs no more per op than a short one.
#[test]
fn compiling_allocates_in_proportion_to_the_loop() {
    let compile = |statements: usize| {
        let source = accumulation_source(statements);
        let before = allocations();
        let unit = lsms_front::compile(&source).expect("compiles");
        let made = allocations() - before;
        (made, unit.loops[0].body.num_ops() as u64)
    };
    let (short, short_ops) = compile(20);
    let (long, long_ops) = compile(200);
    assert!(long_ops >= 9 * short_ops, "{short_ops} -> {long_ops} ops");
    for (made, ops) in [(short, short_ops), (long, long_ops)] {
        assert!(
            made <= COMPILE_PER_OP * ops,
            "{made} allocations for {ops} ops (bound {COMPILE_PER_OP} per op)"
        );
    }
    // Per op, the long loop may not allocate more than the short one.
    assert!(
        long * short_ops <= short * long_ops,
        "{short} allocations for {short_ops} ops, {long} for {long_ops}"
    );
}
