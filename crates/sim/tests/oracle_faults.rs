//! Faults injected into emitted kernels surface through `Oracle` with
//! the diagnostic that names them: a wrong rotating specifier, a wrong
//! stage or a dropped guard as a mismatch naming the array and element;
//! two writes to one physical register in a cycle as `WriteCollision`; a
//! corrupted address as `MemoryOutOfBounds`. The decoded simulator keeps
//! every check the kernels are verified by.

use lsms_codegen::{KernelCode, RegRef};
use lsms_front::{compile, CompiledLoop, InvariantSource};
use lsms_ir::{OpKind, RegClass};
use lsms_machine::huff_machine;
use lsms_regalloc::{allocate_rotating, RotatingAllocation, Strategy};
use lsms_sched::{SchedProblem, Schedule, SlackScheduler};
use lsms_sim::Oracle;

const AXPY: &str = "loop axpy(i = 1..n) {
    real x[], y[];
    param real a;
    y[i] = y[i] + a * x[i];
}";

/// Both sides of the branch are taken for about half the elements.
const CLIP: &str = "loop clip(i = 1..n) {
    real x[], y[];
    if (x[i] > 0.0) { y[i] = 0.0; } else { y[i] = x[i]; }
}";

/// Compiles, schedules, allocates and emits `src`, then checks the kernel
/// `corrupt` leaves through the oracle.
fn check_corrupted(src: &str, corrupt: impl FnOnce(&CompiledLoop, &mut KernelCode)) -> String {
    let unit = compile(src).unwrap();
    let compiled = &unit.loops[0];
    let machine = huff_machine();
    let problem = SchedProblem::new(&compiled.body, &machine).unwrap();
    let schedule: Schedule = SlackScheduler::new().run(&problem).unwrap();
    let alloc = |class| -> RotatingAllocation {
        allocate_rotating(&problem, &schedule, class, Strategy::default()).unwrap()
    };
    let (rr, icr) = (alloc(RegClass::Rr), alloc(RegClass::Icr));
    let mut kernel = lsms_codegen::emit(&problem, &schedule, &rr, &icr).unwrap();
    let oracle = Oracle::new(compiled, 25, 11).unwrap();
    oracle
        .check_kernel(compiled, &problem, &schedule, &kernel, &rr, &icr)
        .expect("the emitted kernel verifies");
    corrupt(compiled, &mut kernel);
    match oracle.check_kernel(compiled, &problem, &schedule, &kernel, &rr, &icr) {
        Ok(report) => panic!("the corrupted kernel verified: {report:?}"),
        Err(e) => e,
    }
}

fn store(kernel: &mut KernelCode) -> &mut lsms_codegen::MachineInst {
    let at = kernel.insts.iter().position(|i| i.kind == OpKind::Store);
    &mut kernel.insts[at.expect("the loop stores")]
}

fn assert_mismatch_in_y(err: &str) {
    assert!(err.starts_with("array 1 (y) element "), "{err}");
    assert!(err.contains(" != reference "), "{err}");
}

#[test]
fn a_wrong_rotating_specifier_is_a_mismatch() {
    let err = check_corrupted(AXPY, |_, kernel| {
        let inst = store(kernel);
        let RegRef::Rr(spec) = inst.srcs[1] else {
            panic!("the stored value is a loop variant");
        };
        inst.srcs[1] = RegRef::Rr(spec + 1);
    });
    assert_mismatch_in_y(&err);
}

#[test]
fn a_wrong_stage_is_a_mismatch() {
    let err = check_corrupted(AXPY, |_, kernel| store(kernel).stage += 1);
    assert_mismatch_in_y(&err);
}

#[test]
fn a_dropped_guard_is_a_mismatch() {
    let err = check_corrupted(CLIP, |_, kernel| {
        // Of the two guarded stores to `y[i]`, the one issued later: it
        // now always overwrites the other.
        let inst = kernel
            .insts
            .iter_mut()
            .filter(|i| i.kind == OpKind::Store && i.guard.is_some())
            .max_by_key(|i| (i.stage, i.cycle, i.op))
            .expect("if-converted stores are guarded");
        inst.guard = None;
    });
    assert_mismatch_in_y(&err);
}

#[test]
fn two_writes_to_one_register_in_a_cycle_collide() {
    let err = check_corrupted(AXPY, |_, kernel| {
        // Move the second rotating definition into the first one's issue
        // group and stage, onto the same register.
        let defs: Vec<usize> = (0..kernel.insts.len())
            .filter(|&i| matches!(kernel.insts[i].dest, Some(RegRef::Rr(_))))
            .collect();
        let (first, second) = (kernel.insts[defs[0]].clone(), defs[1]);
        let moved = &mut kernel.insts[second];
        moved.cycle = first.cycle;
        moved.stage = first.stage;
        moved.dest = first.dest;
        kernel.insts.sort_by_key(|i| (i.cycle, i.op));
    });
    assert!(
        err.starts_with("sim: two writes to physical register "),
        "{err}"
    );
    assert!(err.ends_with(" in one cycle"), "{err}");
}

#[test]
fn a_corrupted_address_is_out_of_bounds() {
    let err = check_corrupted(AXPY, |compiled, kernel| {
        // Load from the bits of the real parameter `a`: far outside the
        // laid-out arrays (the seed draws a nonzero `a`).
        let (a, _) = compiled
            .invariants
            .iter()
            .find(|(_, s)| matches!(s, InvariantSource::Param(p) if p == "a"))
            .expect("a is an invariant");
        let gpr = kernel.gpr_index(*a).expect("a is bound to a GPR");
        let load = kernel
            .insts
            .iter_mut()
            .find(|i| i.kind == OpKind::Load)
            .unwrap();
        load.srcs[0] = RegRef::Gpr(gpr);
    });
    assert!(err.starts_with("sim: memory access at "), "{err}");
}
