//! Execution of modulo-variable-expanded code: static registers, no
//! rotation — validating the renaming arithmetic end to end.

use lsms_codegen::{MveKernel, MveRef, MAX_SRCS};
use lsms_front::{CompiledLoop, InitialSource, InvariantSource};
use lsms_ir::OpKind;
use lsms_sched::{SchedProblem, Schedule};

use crate::vliw::{execute_opcode, SimError, SimOutcome};
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
    let body = problem.body();
    let lo = workspace.lo;
    let trip = workspace.trip;

    let mut bases = Vec::with_capacity(workspace.arrays.len());
    let mut memory: Vec<u64> = Vec::new();
    for a in &workspace.arrays {
        bases.push((memory.len() as i64) * 8);
        memory.extend_from_slice(a);
    }

    let mut gpr = vec![0u64; kernel.gpr_bindings.len()];
    for (value, index) in &kernel.gpr_bindings {
        let source = compiled
            .invariants
            .iter()
            .find(|(v, _)| v == value)
            .map(|(_, s)| s)
            .ok_or_else(|| SimError::UnboundGpr(body.value(*value).name.clone()))?;
        gpr[*index as usize] = match source {
            InvariantSource::ConstReal(x) => x.to_bits(),
            InvariantSource::ConstInt(x) => *x as u64,
            InvariantSource::Param(name) => *workspace
                .params
                .get(name)
                .ok_or_else(|| SimError::MissingParam(name.clone()))?,
            InvariantSource::RefBase { array, offset } => (bases[*array] + 8 * offset) as u64,
            InvariantSource::Stride => 8u64,
        };
    }

    let mut regs = vec![0u64; kernel.num_regs as usize];
    let mut preds = vec![0u64; kernel.num_preds.max(1) as usize];

    // Seed pre-loop instances: defs in copy `u` write
    // `base + (u mod q)`, i.e. instance `i` lands in
    // `base + ((i + stage(def)) mod q)` — the same stage shift applies to
    // the seeds.
    for (value, source) in &compiled.initials {
        let (is_pred, base, q) = match kernel.blocks.get(value) {
            Some(&(base, q)) => (false, base, q),
            None => match kernel.pred_blocks.get(value) {
                Some(&(base, q)) => (true, base, q),
                None => continue,
            },
        };
        let def = body.value(*value).def.expect("initials are defined values");
        let s_v = i64::from(schedule.stage(def.index()));
        let depth = body
            .ops()
            .iter()
            .flat_map(|op| {
                op.inputs
                    .iter()
                    .zip(&op.input_omegas)
                    .filter(|&(&v, _)| v == *value)
                    .map(|(_, &w)| w)
            })
            .max()
            .unwrap_or(0) as i64;
        for j in -depth..0 {
            let bits = match source {
                InitialSource::ArrayElem { array, offset } => {
                    let elem = lo + j + offset;
                    let elem = usize::try_from(elem).map_err(|_| SimError::SeedOutOfBounds)?;
                    *workspace.arrays[*array]
                        .get(elem)
                        .ok_or(SimError::SeedOutOfBounds)?
                }
                InitialSource::Scalar(name) => *workspace
                    .scalar_inits
                    .get(name)
                    .ok_or_else(|| SimError::MissingScalarInit(name.clone()))?,
                InitialSource::Index8 => (8 * (lo + j)) as u64,
                InitialSource::PredTrue => 1u64,
            };
            let idx = (base as i64 + (j + s_v).rem_euclid(i64::from(q))) as usize;
            if is_pred {
                preds[idx] = bits;
            } else {
                regs[idx] = bits;
            }
        }
    }

    let cmp_ty = |op_id: lsms_ir::OpId| -> lsms_front::Ty {
        match body.value(body.op(op_id).inputs[0]).ty {
            lsms_ir::ValueType::Float => lsms_front::Ty::Real,
            _ => lsms_front::Ty::Int,
        }
    };

    let kernel_iters = trip + u64::from(kernel.stages) - 1;
    let mut reg_writes: Vec<(bool, usize, u64)> = Vec::new();
    let mut mem_writes: Vec<(usize, u64)> = Vec::new();
    for k in 0..kernel_iters as i64 {
        let copy = (k.rem_euclid(i64::from(kernel.unroll))) as usize;
        for slot in &kernel.slots[copy] {
            reg_writes.clear();
            mem_writes.clear();
            for inst in slot {
                let source_iter = k - i64::from(inst.stage);
                if source_iter < 0 || source_iter >= trip as i64 {
                    continue;
                }
                let read = |r: &MveRef| -> u64 {
                    match *r {
                        MveRef::Reg(i) => regs[i as usize],
                        MveRef::Pred(i) => preds[i as usize],
                        MveRef::Gpr(i) => gpr[i as usize],
                    }
                };
                if let Some(g) = &inst.guard {
                    if read(g) == 0 {
                        continue;
                    }
                }
                let mut operands = [0u64; MAX_SRCS];
                for (slot, r) in operands.iter_mut().zip(&inst.srcs) {
                    *slot = read(r);
                }
                let srcs = &operands[..inst.srcs.len()];
                let mut store = None;
                let result = match inst.kind {
                    OpKind::Load => {
                        let addr = srcs[0] as i64;
                        let word = usize::try_from(addr / 8)
                            .map_err(|_| SimError::MemoryOutOfBounds { addr })?;
                        Some(
                            *memory
                                .get(word)
                                .ok_or(SimError::MemoryOutOfBounds { addr })?,
                        )
                    }
                    OpKind::Store => {
                        let addr = srcs[0] as i64;
                        let word = usize::try_from(addr / 8)
                            .map_err(|_| SimError::MemoryOutOfBounds { addr })?;
                        if word >= memory.len() {
                            return Err(SimError::MemoryOutOfBounds { addr });
                        }
                        store = Some((word, srcs[1]));
                        None
                    }
                    OpKind::Brtop => None,
                    kind => Some(execute_opcode(kind, cmp_ty(inst.op), srcs)),
                };
                if let Some(w) = store {
                    mem_writes.push(w);
                }
                if let (Some(bits), Some(dest)) = (result, &inst.dest) {
                    let (is_pred, idx) = match *dest {
                        MveRef::Reg(i) => (false, i as usize),
                        MveRef::Pred(i) => (true, i as usize),
                        MveRef::Gpr(_) => unreachable!("results never target GPRs"),
                    };
                    if reg_writes.iter().any(|&(p, i, _)| p == is_pred && i == idx) {
                        return Err(SimError::WriteCollision { phys: idx as u32 });
                    }
                    reg_writes.push((is_pred, idx, bits));
                }
            }
            for &(is_pred, idx, bits) in &reg_writes {
                if is_pred {
                    preds[idx] = bits;
                } else {
                    regs[idx] = bits;
                }
            }
            for &(word, bits) in &mem_writes {
                memory[word] = bits;
            }
        }
    }

    let mut arrays = Vec::with_capacity(workspace.arrays.len());
    let mut cursor = 0usize;
    for a in &workspace.arrays {
        arrays.push(memory[cursor..cursor + a.len()].to_vec());
        cursor += a.len();
    }
    Ok(SimOutcome {
        arrays,
        cycles: kernel_iters * u64::from(kernel.ii),
    })
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
