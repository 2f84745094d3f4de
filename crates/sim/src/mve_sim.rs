//! Execution of modulo-variable-expanded code: static registers, no
//! rotation — validating the renaming arithmetic end to end.

use lsms_codegen::{MveKernel, MveRef};
use lsms_front::CompiledLoop;
use lsms_sched::{SchedProblem, Schedule};

use crate::harness::{Inputs, Memory};
use crate::vliw::{
    bind_gprs, execute, seed_bits, seed_depths, Files, Inst, Reg, SimError, SimOutcome,
};
use crate::Workspace;

/// Executes an MVE kernel on the workspace.
///
/// Control is modelled the way the rotating-file simulator models stage
/// predicates: copy `u = k mod unroll` of the kernel runs at virtual
/// kernel iteration `k`, and a stage-`s` instruction executes only while
/// `0 ≤ k − s < trip` — standing in for the explicit prologue/epilogue
/// code a machine without predication would emit (whose size
/// [`MveKernel::total_insts`] accounts for).
///
/// # Errors
///
/// See [`SimError`].
pub fn run_mve(
    compiled: &CompiledLoop,
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    kernel: &MveKernel,
    workspace: &Workspace,
) -> Result<SimOutcome, SimError> {
    let mut memory = Memory::of_workspace(workspace);
    let cycles = simulate_mve(
        compiled,
        problem,
        schedule,
        kernel,
        &Inputs::of_workspace(compiled, workspace),
        (&memory.starts, &mut memory.cells),
    )?;
    Ok(SimOutcome {
        arrays: memory.into_arrays(),
        cycles,
    })
}

/// Executes an MVE kernel over flat memory in place (see
/// [`simulate`](crate::vliw::simulate)) and returns the machine cycles it
/// ran. It shares the rotating simulator's decoded form and execution
/// loop; its two files, the renamed registers and the predicates, simply
/// never rotate.
pub(crate) fn simulate_mve(
    compiled: &CompiledLoop,
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    kernel: &MveKernel,
    inputs: &Inputs,
    (starts, cells): (&[usize], &mut [u64]),
) -> Result<u64, SimError> {
    let body = problem.body();
    let sizes = [kernel.num_regs as usize, kernel.num_preds.max(1) as usize];
    let mut files = Files::new(kernel.gpr_bindings.len(), sizes, false);
    bind_gprs(
        compiled,
        body,
        &kernel.gpr_bindings,
        inputs,
        starts,
        &mut files.regs,
    )?;

    // Seed pre-loop instances: defs in copy `u` write
    // `base + (u mod q)`, i.e. instance `i` lands in
    // `base + ((i + stage(def)) mod q)` — the same stage shift applies to
    // the seeds.
    let depth = seed_depths(body, &compiled.initials);
    for (value, source) in &compiled.initials {
        let (file, base, q) = match kernel.blocks.get(value) {
            Some(&(base, q)) => (1, base, q),
            None => match kernel.pred_blocks.get(value) {
                Some(&(base, q)) => (2, base, q),
                None => continue,
            },
        };
        let def = body.value(*value).def.expect("initials are defined values");
        let s_v = i64::from(schedule.stage(def.index()));
        for j in -i64::from(depth[value.index()])..0 {
            let bits = seed_bits(compiled, source, j, inputs, starts, cells)?;
            let idx = (i64::from(base) + (j + s_v).rem_euclid(i64::from(q))) as usize;
            files.regs[files.starts[file] + idx] = bits;
        }
    }

    let fixed = |r: MveRef| match r {
        MveRef::Reg(i) => Reg::of_file(1, i),
        MveRef::Pred(i) => Reg::of_file(2, i),
        MveRef::Gpr(i) => Reg::fixed(i),
    };
    let mut program = Vec::with_capacity(kernel.kernel_insts());
    for copy in &kernel.slots {
        for (cycle, slot) in copy.iter().enumerate() {
            program.extend(slot.iter().map(|inst| {
                let dest = inst.dest.map(|d| {
                    assert!(!matches!(d, MveRef::Gpr(_)), "results never target GPRs");
                    fixed(d)
                });
                Inst::new(
                    body,
                    cycle as u32,
                    (inst.op, inst.kind, inst.stage),
                    inst.guard.map(fixed),
                    inst.srcs.iter().map(|&r| fixed(r)),
                    dest,
                )
            }));
        }
    }
    let copies = kernel.unroll as usize;
    debug_assert!(kernel
        .slots
        .iter()
        .all(|c| c.iter().map(Vec::len).sum::<usize>() * copies == program.len()));
    let kernel_iters = inputs.trip + u64::from(kernel.stages) - 1;
    execute(
        &mut program,
        copies,
        &mut files,
        cells,
        inputs.trip,
        kernel_iters,
    )?;
    Ok(kernel_iters * u64::from(kernel.ii))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::make_workspace;
    use crate::reference::run_reference;
    use lsms_codegen::emit_mve;
    use lsms_front::compile;
    use lsms_machine::huff_machine;
    use lsms_sched::SlackScheduler;

    fn check_mve(src: &str, trip: u64) {
        let unit = compile(src).unwrap();
        let machine = huff_machine();
        for l in &unit.loops {
            let problem = SchedProblem::new(&l.body, &machine).unwrap();
            let schedule = SlackScheduler::new().run(&problem).unwrap();
            let kernel = emit_mve(&problem, &schedule).unwrap();
            let workspace = make_workspace(l, trip, trip ^ 0xabcdef);
            let expected = run_reference(l, &workspace);
            let got = run_mve(l, &problem, &schedule, &kernel, &workspace)
                .unwrap_or_else(|e| panic!("{}: {e}", l.def.name));
            assert_eq!(got.arrays, expected, "{} at trip {trip}", l.def.name);
        }
    }

    #[test]
    fn mve_computes_the_sample_loop() {
        for trip in [1, 2, 9, 40] {
            check_mve(
                "loop sample(i = 3..n) {
                     real x[], y[];
                     x[i] = x[i-1] + y[i-2];
                     y[i] = y[i-1] + x[i-2];
                 }",
                trip,
            );
        }
    }

    #[test]
    fn mve_computes_axpy_with_long_lifetimes() {
        for trip in [1, 3, 25] {
            check_mve(
                "loop axpy(i = 1..n) {
                     real x[], y[];
                     param real a;
                     y[i] = y[i] + a * x[i];
                 }",
                trip,
            );
        }
    }

    #[test]
    fn mve_computes_conditionals() {
        check_mve(
            "loop clip(i = 1..n) {
                 real x[], y[];
                 param real t;
                 if (x[i] > t) { y[i] = t; } else { y[i] = x[i]; }
             }",
            21,
        );
    }

    #[test]
    fn mve_computes_reductions() {
        check_mve(
            "loop scan(i = 1..n) {
                 real x[], y[];
                 real s;
                 s = s * 0.5 + x[i];
                 y[i] = s;
             }",
            17,
        );
    }

    #[test]
    fn mve_matches_all_kernels() {
        let machine = huff_machine();
        for k in lsms_loops::kernels() {
            let unit = compile(&k.source).unwrap();
            let l = &unit.loops[0];
            let problem = SchedProblem::new(&l.body, &machine).unwrap();
            let schedule = SlackScheduler::new().run(&problem).unwrap();
            let kernel = emit_mve(&problem, &schedule).unwrap();
            let workspace = make_workspace(l, 19, 42);
            let expected = run_reference(l, &workspace);
            let got = run_mve(l, &problem, &schedule, &kernel, &workspace)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert_eq!(got.arrays, expected, "{}", k.name);
        }
    }
}
