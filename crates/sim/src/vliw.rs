//! The VLIW machine simulator: executes kernel-only code with rotating
//! register files.
//!
//! The simulator models exactly what the scheduling theory relies on:
//!
//! * files rotate once per kernel iteration (the ICP decrement folded
//!   into `phys = (specifier − k) mod N` for kernel iteration `k`);
//! * a stage-`s` instruction executes for source iteration `k − s`, and
//!   only while `0 ≤ k − s < trip` — the stage-predicate ramp-up and
//!   ramp-down of kernel-only code (§2.2);
//! * within a cycle all reads happen before all writes (VLIW register
//!   semantics; this is what lets anti-dependences carry latency 0);
//! * register writes land at issue. This is sound because the rotating
//!   allocation guarantees the previous tenant of a physical register is
//!   dead once a new definition issues, and consumers of the new value
//!   are scheduled at least its latency later.
//!
//! Pre-loop *instances* of loop-carried values (a recurrence's `x(i-2)`
//! for the first two iterations) are seeded into the physical registers
//! they would have been written to at negative time, from the
//! [`InitialSource`] bindings the front end
//! recorded.

use std::fmt;

use lsms_codegen::{KernelCode, RegRef, MAX_SRCS};
use lsms_front::{BinOp, CompiledLoop, InitialSource, InvariantSource, RelOp, Ty};
use lsms_ir::{OpKind, ValueType};
use lsms_regalloc::RotatingAllocation;
use lsms_sched::{SchedProblem, Schedule};

use crate::reference::{arith, compare};
use crate::Workspace;

/// Execution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A GPR value has no binding in the compiled loop's invariants.
    UnboundGpr(String),
    /// A parameter named by the loop is missing from the workspace.
    MissingParam(String),
    /// A carried scalar's initial value is missing from the workspace.
    MissingScalarInit(String),
    /// A load or store fell outside the laid-out memory.
    MemoryOutOfBounds {
        /// The offending byte address.
        addr: i64,
    },
    /// Two instructions wrote the same physical register in one cycle —
    /// an allocator bug surfaced at run time.
    WriteCollision {
        /// The physical register index.
        phys: u32,
    },
    /// An initial-instance seed fell outside the workspace arrays.
    SeedOutOfBounds,
    /// The workspace arrays would exceed
    /// [`MAX_SIM_CELLS`](crate::harness::MAX_SIM_CELLS) (a very long
    /// recurrence distance or trip count); nothing was allocated.
    WorkspaceTooLarge {
        /// Array cells the workspace would need (saturating).
        cells: u64,
        /// The limit it exceeds.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnboundGpr(v) => write!(f, "GPR value {v} has no invariant binding"),
            SimError::MissingParam(p) => write!(f, "parameter `{p}` missing from workspace"),
            SimError::MissingScalarInit(s) => {
                write!(f, "carried scalar `{s}` has no initial value")
            }
            SimError::MemoryOutOfBounds { addr } => write!(f, "memory access at {addr:#x}"),
            SimError::WriteCollision { phys } => {
                write!(f, "two writes to physical register {phys} in one cycle")
            }
            SimError::SeedOutOfBounds => f.write_str("initial instance outside arrays"),
            SimError::WorkspaceTooLarge { cells, limit } => write!(
                f,
                "verification needs {cells} array cells, above the simulator's limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a kernel execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimOutcome {
    /// Final array contents, same shape as the workspace's.
    pub arrays: Vec<Vec<u64>>,
    /// Machine cycles executed: `(trip + stages − 1) · II`.
    pub cycles: u64,
}

/// Executes `kernel` on the workspace.
///
/// # Errors
///
/// See [`SimError`].
pub fn run_kernel(
    compiled: &CompiledLoop,
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    kernel: &KernelCode,
    rr: &RotatingAllocation,
    icr: &RotatingAllocation,
    workspace: &Workspace,
) -> Result<SimOutcome, SimError> {
    let body = problem.body();
    let lo = workspace.lo;
    let trip = workspace.trip;

    // Memory layout: arrays packed contiguously, 8-byte elements.
    let mut bases = Vec::with_capacity(workspace.arrays.len());
    let mut memory: Vec<u64> = Vec::new();
    for a in &workspace.arrays {
        bases.push((memory.len() as i64) * 8);
        memory.extend_from_slice(a);
    }

    // Bind the GPR file.
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

    // Rotating files.
    let n_rr = kernel.rr_size.max(1) as i64;
    let n_icr = kernel.icr_size.max(1) as i64;
    let mut rr_file = vec![0u64; n_rr as usize];
    let mut icr_file = vec![0u64; n_icr as usize];

    // Seed pre-loop instances (RR values, and ICR predicates such as the
    // early-exit `live` chain).
    for (value, source) in &compiled.initials {
        let is_pred = body.value(*value).reg_class() == lsms_ir::RegClass::Icr;
        let offset = if is_pred {
            match icr.offsets.get(value) {
                Some(&o) => o,
                None => continue,
            }
        } else {
            match rr.offsets.get(value) {
                Some(&o) => o,
                None => continue,
            }
        };
        let def = body.value(*value).def.expect("initials are defined values");
        let s_v = schedule.stage(def.index()) as i64;
        // Depth: how far back uses reach.
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
                InitialSource::ArrayElem {
                    array,
                    offset: store_off,
                } => {
                    let elem = lo + j + store_off;
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
            let rotations = j + s_v;
            if is_pred {
                let phys = (i64::from(offset) - rotations).rem_euclid(n_icr) as usize;
                icr_file[phys] = bits;
            } else {
                let phys = (i64::from(offset) - rotations).rem_euclid(n_rr) as usize;
                rr_file[phys] = bits;
            }
        }
    }

    // Comparison type per instruction (Cmp* kinds are type-generic).
    let cmp_ty = |op_id: lsms_ir::OpId| -> Ty {
        match body.value(body.op(op_id).inputs[0]).ty {
            ValueType::Float => Ty::Real,
            _ => Ty::Int,
        }
    };

    let kernel_iters = trip + u64::from(kernel.stages) - 1;
    let mut reg_writes: Vec<(bool, usize, u64)> = Vec::new();
    let mut mem_writes: Vec<(usize, u64)> = Vec::new();
    for k in 0..kernel_iters as i64 {
        for slot in &kernel.slots {
            reg_writes.clear();
            mem_writes.clear();
            for inst in slot {
                let source_iter = k - i64::from(inst.stage);
                if source_iter < 0 || source_iter >= trip as i64 {
                    continue; // stage predicate off: ramp-up/ramp-down
                }
                let read = |r: &RegRef| -> u64 {
                    match *r {
                        RegRef::Rr(spec) => {
                            rr_file[(i64::from(spec) - k).rem_euclid(n_rr) as usize]
                        }
                        RegRef::Icr(spec) => {
                            icr_file[(i64::from(spec) - k).rem_euclid(n_icr) as usize]
                        }
                        RegRef::Gpr(i) => gpr[i as usize],
                    }
                };
                if let Some(g) = &inst.guard {
                    if read(g) == 0 {
                        continue; // predicated off: a no-op (§2.2)
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
                if let Some((word, bits)) = store {
                    mem_writes.push((word, bits));
                }
                if let (Some(bits), Some(dest)) = (result, &inst.dest) {
                    let (is_icr, phys) = match *dest {
                        RegRef::Rr(spec) => {
                            (false, (i64::from(spec) - k).rem_euclid(n_rr) as usize)
                        }
                        RegRef::Icr(spec) => {
                            (true, (i64::from(spec) - k).rem_euclid(n_icr) as usize)
                        }
                        RegRef::Gpr(_) => unreachable!("results never target GPRs"),
                    };
                    if reg_writes.iter().any(|&(i, p, _)| i == is_icr && p == phys) {
                        return Err(SimError::WriteCollision { phys: phys as u32 });
                    }
                    reg_writes.push((is_icr, phys, bits));
                }
            }
            // All reads done: commit this cycle's writes.
            for &(is_icr, phys, bits) in &reg_writes {
                if is_icr {
                    icr_file[phys] = bits;
                } else {
                    rr_file[phys] = bits;
                }
            }
            for &(word, bits) in &mem_writes {
                memory[word] = bits;
            }
        }
    }

    // Unpack arrays.
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

/// Evaluates a register-to-register opcode on raw bit patterns, sharing
/// arithmetic semantics with the reference interpreter.
pub(crate) fn execute_opcode(kind: OpKind, cmp: Ty, srcs: &[u64]) -> u64 {
    let b = |cond: bool| u64::from(cond);
    match kind {
        OpKind::FAdd => arith(BinOp::Add, Ty::Real, srcs[0], srcs[1]),
        OpKind::FSub => arith(BinOp::Sub, Ty::Real, srcs[0], srcs[1]),
        OpKind::FMul => arith(BinOp::Mul, Ty::Real, srcs[0], srcs[1]),
        OpKind::FDiv => arith(BinOp::Div, Ty::Real, srcs[0], srcs[1]),
        OpKind::FMod => {
            let (x, y) = (f64::from_bits(srcs[0]), f64::from_bits(srcs[1]));
            (x % y).to_bits()
        }
        OpKind::FSqrt => f64::from_bits(srcs[0]).sqrt().to_bits(),
        OpKind::IntAdd | OpKind::AddrAdd => arith(BinOp::Add, Ty::Int, srcs[0], srcs[1]),
        OpKind::IntSub | OpKind::AddrSub => arith(BinOp::Sub, Ty::Int, srcs[0], srcs[1]),
        OpKind::IntMul | OpKind::AddrMul => arith(BinOp::Mul, Ty::Int, srcs[0], srcs[1]),
        OpKind::IntDiv => arith(BinOp::Div, Ty::Int, srcs[0], srcs[1]),
        OpKind::IntMod => arith(BinOp::Rem, Ty::Int, srcs[0], srcs[1]),
        OpKind::And => srcs[0] & srcs[1],
        OpKind::Or => srcs[0] | srcs[1],
        OpKind::Xor => srcs[0] ^ srcs[1],
        OpKind::CmpEq => b(compare(RelOp::Eq, cmp, srcs[0], srcs[1])),
        OpKind::CmpNe => b(compare(RelOp::Ne, cmp, srcs[0], srcs[1])),
        OpKind::CmpLt => b(compare(RelOp::Lt, cmp, srcs[0], srcs[1])),
        OpKind::CmpLe => b(compare(RelOp::Le, cmp, srcs[0], srcs[1])),
        OpKind::CmpGt => b(compare(RelOp::Gt, cmp, srcs[0], srcs[1])),
        OpKind::CmpGe => b(compare(RelOp::Ge, cmp, srcs[0], srcs[1])),
        OpKind::PredAnd => b(srcs[0] != 0 && srcs[1] != 0),
        OpKind::PredOr => b(srcs[0] != 0 || srcs[1] != 0),
        OpKind::PredNot => b(srcs[0] == 0),
        OpKind::Select => {
            if srcs[0] != 0 {
                srcs[1]
            } else {
                srcs[2]
            }
        }
        OpKind::Copy => srcs[0],
        OpKind::Load | OpKind::Store | OpKind::Brtop => {
            unreachable!("memory and control ops are handled by the main loop")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_covers_predicates_and_selects() {
        assert_eq!(execute_opcode(OpKind::PredNot, Ty::Int, &[0]), 1);
        assert_eq!(execute_opcode(OpKind::PredAnd, Ty::Int, &[1, 0]), 0);
        assert_eq!(execute_opcode(OpKind::PredOr, Ty::Int, &[0, 1]), 1);
        assert_eq!(execute_opcode(OpKind::Select, Ty::Int, &[1, 10, 20]), 10);
        assert_eq!(execute_opcode(OpKind::Select, Ty::Int, &[0, 10, 20]), 20);
        assert_eq!(execute_opcode(OpKind::Copy, Ty::Int, &[42]), 42);
    }

    #[test]
    fn execute_compares_by_operand_type() {
        let a = (-1f64).to_bits();
        let b = 2f64.to_bits();
        assert_eq!(execute_opcode(OpKind::CmpLt, Ty::Real, &[a, b]), 1);
        // The same bit patterns as integers compare the other way:
        // -1.0's bits are a huge negative i64? Actually sign bit set makes
        // it negative, so it still compares less — use clearly different
        // values instead.
        let x = 5i64 as u64;
        let y = (-3i64) as u64;
        assert_eq!(execute_opcode(OpKind::CmpLt, Ty::Int, &[x, y]), 0);
        assert_eq!(execute_opcode(OpKind::CmpGe, Ty::Int, &[x, y]), 1);
    }

    #[test]
    fn float_arithmetic_round_trips_bits() {
        let x = 1.5f64.to_bits();
        let y = 2.25f64.to_bits();
        assert_eq!(
            f64::from_bits(execute_opcode(OpKind::FAdd, Ty::Real, &[x, y])),
            3.75
        );
        assert_eq!(
            f64::from_bits(execute_opcode(OpKind::FSqrt, Ty::Real, &[4f64.to_bits()])),
            2.0
        );
    }
}
