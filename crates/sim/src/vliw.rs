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
use lsms_ir::{LoopBody, OpId, OpKind, RegClass, ValueId, ValueType};
use lsms_regalloc::RotatingAllocation;
use lsms_sched::{SchedProblem, Schedule};

use crate::harness::{Inputs, Memory};
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
    let mut memory = Memory::of_workspace(workspace);
    let cycles = simulate(
        compiled,
        problem,
        schedule,
        kernel,
        (rr, icr),
        &Inputs::of_workspace(compiled, workspace),
        (&memory.starts, &mut memory.cells),
    )?;
    Ok(SimOutcome {
        arrays: memory.into_arrays(),
        cycles,
    })
}

/// Executes `kernel` over flat memory in place (array `a` at
/// `cells[starts[a] .. starts[a + 1]]`) and returns the machine cycles
/// it ran.
pub(crate) fn simulate(
    compiled: &CompiledLoop,
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    kernel: &KernelCode,
    (rr, icr): (&RotatingAllocation, &RotatingAllocation),
    inputs: &Inputs,
    (starts, cells): (&[usize], &mut [u64]),
) -> Result<u64, SimError> {
    let body = problem.body();
    let gprs = kernel.gpr_bindings.len();
    let (n_rr, n_icr) = (
        kernel.rr_size.max(1) as usize,
        kernel.icr_size.max(1) as usize,
    );
    let mut files = Files::new(gprs, [n_rr, n_icr], true);
    bind_gprs(
        compiled,
        body,
        &kernel.gpr_bindings,
        inputs,
        starts,
        &mut files.regs,
    )?;

    // Seed pre-loop instances (RR values, and ICR predicates such as the
    // early-exit `live` chain) into the registers they would have been
    // written to at negative time.
    let depth = seed_depths(body, &compiled.initials);
    for (value, source) in &compiled.initials {
        let file = 1 + usize::from(body.value(*value).reg_class() == RegClass::Icr);
        let alloc = if file == 2 { icr } else { rr };
        let Some(&offset) = alloc.offsets.get(value) else {
            continue;
        };
        let def = body.value(*value).def.expect("initials are defined values");
        let s_v = i64::from(schedule.stage(def.index()));
        let n = [n_rr, n_icr][file - 1] as i64;
        for j in -i64::from(depth[value.index()])..0 {
            let bits = seed_bits(compiled, source, j, inputs, starts, cells)?;
            let phys = (i64::from(offset) - (j + s_v)).rem_euclid(n) as usize;
            files.regs[files.starts[file] + phys] = bits;
        }
    }

    // Decode: specifiers reduced mod their file size, compare types
    // resolved, in issue order.
    let rotating = |r: RegRef| match r {
        RegRef::Rr(spec) => Reg::of_file(1, (spec as usize % n_rr) as u32),
        RegRef::Icr(spec) => Reg::of_file(2, (spec as usize % n_icr) as u32),
        RegRef::Gpr(i) => Reg::fixed(i),
    };
    let mut program: Vec<Inst> = kernel
        .insts
        .iter()
        .map(|inst| {
            let dest = inst.dest.map(|d| {
                assert!(!matches!(d, RegRef::Gpr(_)), "results never target GPRs");
                rotating(d)
            });
            Inst::new(
                body,
                inst.cycle,
                (inst.op, inst.kind, inst.stage),
                inst.guard.map(rotating),
                inst.srcs.iter().map(|&r| rotating(r)),
                dest,
            )
        })
        .collect();
    let kernel_iters = inputs.trip + u64::from(kernel.stages) - 1;
    execute(
        &mut program,
        1,
        &mut files,
        cells,
        inputs.trip,
        kernel_iters,
    )?;
    Ok(kernel_iters * u64::from(kernel.ii))
}

/// A register operand, resolved against [`Files::regs`]: specifier
/// `spec` of file `file` — 0 the static registers, whose specifier is the
/// index itself; 1 and 2 the two files after them, whose specifiers are
/// already reduced mod the file's size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Reg {
    file: u8,
    spec: u32,
}

impl Reg {
    /// `regs[index]`.
    pub(crate) fn fixed(index: u32) -> Self {
        Reg {
            file: 0,
            spec: index,
        }
    }

    /// Specifier `spec` of file `file` (1 or 2), below the file's size.
    pub(crate) fn of_file(file: u8, spec: u32) -> Self {
        Reg { file, spec }
    }
}

/// Every register in one vector: the GPRs first, then two more files —
/// the rotating RR and ICR files, or MVE's static registers and
/// predicates. A rotating file rotates by moving its `base`, once per
/// kernel iteration, so specifier `s` at kernel iteration `k` is `(s mod
/// N) + base` with `base = −k mod N`, wrapped once: no division per
/// access.
pub(crate) struct Files {
    pub(crate) regs: Vec<u64>,
    /// Per file: where it starts in `regs`, its size, and its rotation.
    pub(crate) starts: [usize; 3],
    sizes: [usize; 3],
    bases: [usize; 3],
    rotates: bool,
}

impl Files {
    /// `gprs` static registers followed by two files of `sizes`, which
    /// rotate when `rotates`.
    pub(crate) fn new(gprs: usize, sizes: [usize; 2], rotates: bool) -> Self {
        Self {
            regs: vec![0; gprs + sizes[0] + sizes[1]],
            starts: [0, gprs, gprs + sizes[0]],
            // The GPRs never wrap.
            sizes: [usize::MAX, sizes[0], sizes[1]],
            bases: [0; 3],
            rotates,
        }
    }

    fn index(&self, r: Reg) -> usize {
        let f = usize::from(r.file);
        let p = r.spec as usize + self.bases[f];
        self.starts[f]
            + if p >= self.sizes[f] {
                p - self.sizes[f]
            } else {
                p
            }
    }

    fn read(&self, r: Reg) -> u64 {
        self.regs[self.index(r)]
    }

    /// The register `regs[index]` as its own file numbers it.
    fn phys(&self, index: usize) -> u32 {
        let start = self
            .starts
            .iter()
            .copied()
            .filter(|&s| s <= index)
            .max()
            .unwrap_or(0);
        (index - start) as u32
    }

    /// The end of a kernel iteration: the ICP decrements.
    fn rotate(&mut self) {
        if !self.rotates {
            return;
        }
        for f in 1..3 {
            let base = &mut self.bases[f];
            *base = if *base == 0 {
                self.sizes[f] - 1
            } else {
                *base - 1
            };
        }
    }
}

/// What an instruction did in the current cycle, committed once every
/// instruction of the cycle has read its operands.
#[derive(Clone, Copy, Debug)]
enum Effect {
    None,
    Reg(usize, u64),
    Mem(usize, u64),
}

/// One decoded kernel instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Inst {
    cycle: u32,
    stage: u32,
    kind: OpKind,
    /// The operand type of a comparison (`Cmp*` kinds are type-generic).
    cmp: Ty,
    guard: Option<Reg>,
    srcs: [Reg; MAX_SRCS],
    num_srcs: u8,
    dest: Option<Reg>,
    /// The last instruction of its issue group.
    last: bool,
    effect: Effect,
}

impl Inst {
    pub(crate) fn new(
        body: &LoopBody,
        cycle: u32,
        (op, kind, stage): (OpId, OpKind, u32),
        guard: Option<Reg>,
        srcs: impl Iterator<Item = Reg>,
        dest: Option<Reg>,
    ) -> Self {
        let cmp = match kind {
            OpKind::CmpEq
            | OpKind::CmpNe
            | OpKind::CmpLt
            | OpKind::CmpLe
            | OpKind::CmpGt
            | OpKind::CmpGe => match body.value(body.op(op).inputs[0]).ty {
                ValueType::Float => Ty::Real,
                _ => Ty::Int,
            },
            _ => Ty::Int,
        };
        let mut inst = Inst {
            cycle,
            stage,
            kind,
            cmp,
            guard,
            srcs: [Reg::fixed(0); MAX_SRCS],
            num_srcs: 0,
            dest,
            last: false,
            effect: Effect::None,
        };
        for r in srcs {
            inst.srcs[usize::from(inst.num_srcs)] = r;
            inst.num_srcs += 1;
        }
        inst
    }
}

/// Marks each issue group's last instruction.
fn link(copy: &mut [Inst]) {
    for group in copy.chunk_by_mut(|a, b| a.cycle == b.cycle) {
        if let Some(last) = group.last_mut() {
            last.last = true;
        }
    }
}

/// Runs `kernel_iters` kernel iterations of a decoded program: `copies`
/// equal runs of instructions, copy `k mod copies` at kernel iteration
/// `k`, each in issue order. A stage-`s` instruction executes for source
/// iteration `k − s`, only while that is in `[0, trip)`.
pub(crate) fn execute(
    program: &mut [Inst],
    copies: usize,
    files: &mut Files,
    cells: &mut [u64],
    trip: u64,
    kernel_iters: u64,
) -> Result<(), SimError> {
    let per_copy = program.len() / copies;
    for copy in program.chunks_mut(per_copy.max(1)) {
        link(copy);
    }
    let mut copy = 0;
    for k in 0..kernel_iters {
        let insts = &mut program[copy * per_copy..(copy + 1) * per_copy];
        let mut group = 0;
        for at in 0..insts.len() {
            issue(insts, group, at, k, trip, files, cells)?;
            if insts[at].last {
                // All reads of the cycle done: commit its writes.
                for inst in &insts[group..=at] {
                    match inst.effect {
                        Effect::None => {}
                        Effect::Reg(index, bits) => files.regs[index] = bits,
                        Effect::Mem(word, bits) => cells[word] = bits,
                    }
                }
                group = at + 1;
            }
        }
        files.rotate();
        copy = if copy + 1 == copies { 0 } else { copy + 1 };
    }
    Ok(())
}

/// Reads and computes `insts[at]`, whose issue group began at `group`,
/// recording its effect.
fn issue(
    insts: &mut [Inst],
    group: usize,
    at: usize,
    k: u64,
    trip: u64,
    files: &Files,
    cells: &[u64],
) -> Result<(), SimError> {
    let effect = effect_of(&insts[group..=at], k, trip, files, cells)?;
    insts[at].effect = effect;
    Ok(())
}

/// The effect of the last of `group`, the instructions of its issue
/// group so far, at kernel iteration `k`.
#[inline(always)]
fn effect_of(
    group: &[Inst],
    k: u64,
    trip: u64,
    files: &Files,
    cells: &[u64],
) -> Result<Effect, SimError> {
    let (inst, earlier) = group.split_last().expect("an instruction");
    // The stage predicate: off during ramp-up (k < stage wraps) and
    // ramp-down.
    if k.wrapping_sub(u64::from(inst.stage)) >= trip {
        return Ok(Effect::None);
    }
    if let Some(g) = inst.guard {
        if files.read(g) == 0 {
            return Ok(Effect::None); // predicated off: a no-op (§2.2)
        }
    }
    let mut operands = [0u64; MAX_SRCS];
    let num_srcs = usize::from(inst.num_srcs);
    for (slot, &r) in operands.iter_mut().zip(&inst.srcs[..num_srcs]) {
        *slot = files.read(r);
    }
    let srcs = &operands[..num_srcs];
    let result = match inst.kind {
        OpKind::Load => {
            let addr = srcs[0] as i64;
            let word =
                usize::try_from(addr / 8).map_err(|_| SimError::MemoryOutOfBounds { addr })?;
            *cells
                .get(word)
                .ok_or(SimError::MemoryOutOfBounds { addr })?
        }
        OpKind::Store => {
            let addr = srcs[0] as i64;
            let word =
                usize::try_from(addr / 8).map_err(|_| SimError::MemoryOutOfBounds { addr })?;
            if word >= cells.len() {
                return Err(SimError::MemoryOutOfBounds { addr });
            }
            return Ok(Effect::Mem(word, srcs[1]));
        }
        OpKind::Brtop => return Ok(Effect::None),
        kind => execute_opcode(kind, inst.cmp, srcs),
    };
    let Some(dest) = inst.dest else {
        return Ok(Effect::None);
    };
    let index = files.index(dest);
    if earlier
        .iter()
        .any(|o| matches!(o.effect, Effect::Reg(i, _) if i == index))
    {
        return Err(SimError::WriteCollision {
            phys: files.phys(index),
        });
    }
    Ok(Effect::Reg(index, result))
}

/// Loads the static registers: each GPR binding's invariant, found by
/// binary search (the lowering records the invariants in value order, as
/// it creates them).
pub(crate) fn bind_gprs(
    compiled: &CompiledLoop,
    body: &LoopBody,
    bindings: &[(ValueId, u32)],
    inputs: &Inputs,
    starts: &[usize],
    regs: &mut [u64],
) -> Result<(), SimError> {
    let invariants = &compiled.invariants;
    debug_assert!(invariants.is_sorted_by_key(|(v, _)| *v));
    for &(value, index) in bindings {
        let at = invariants
            .binary_search_by_key(&value, |(v, _)| *v)
            .map_err(|_| SimError::UnboundGpr(body.value(value).name.to_string()))?;
        let source = &invariants[at].1;
        regs[index as usize] = match source {
            InvariantSource::ConstReal(x) => x.to_bits(),
            InvariantSource::ConstInt(x) => *x as u64,
            InvariantSource::Param(name) => inputs
                .param(compiled, name)
                .ok_or_else(|| SimError::MissingParam(name.clone()))?,
            InvariantSource::RefBase { array, offset } => {
                (starts[*array] as i64 * 8 + 8 * offset) as u64
            }
            InvariantSource::Stride => 8u64,
        };
    }
    Ok(())
}

/// How far back each live-in's uses reach, one entry per value: the
/// largest ω any op reads it at. Empty when the loop has no live-ins.
pub(crate) fn seed_depths(body: &LoopBody, initials: &[(ValueId, InitialSource)]) -> Vec<u32> {
    if initials.is_empty() {
        return Vec::new();
    }
    let mut depth = vec![0u32; body.values().len()];
    for op in body.ops() {
        for (&v, &w) in op.inputs.iter().zip(&op.input_omegas) {
            let d = &mut depth[v.index()];
            *d = (*d).max(w);
        }
    }
    depth
}

/// The bits of pre-loop instance `j < 0` of a live-in, read from the
/// seeded inputs (the arrays before the loop runs).
pub(crate) fn seed_bits(
    compiled: &CompiledLoop,
    source: &InitialSource,
    j: i64,
    inputs: &Inputs,
    starts: &[usize],
    cells: &[u64],
) -> Result<u64, SimError> {
    let lo = inputs.lo;
    Ok(match source {
        InitialSource::ArrayElem { array, offset } => {
            let elem = usize::try_from(lo + j + offset).map_err(|_| SimError::SeedOutOfBounds)?;
            let (start, end) = (starts[*array], starts[*array + 1]);
            if elem >= end - start {
                return Err(SimError::SeedOutOfBounds);
            }
            cells[start + elem]
        }
        InitialSource::Scalar(name) => inputs
            .scalar_init(compiled, name)
            .ok_or_else(|| SimError::MissingScalarInit(name.clone()))?,
        InitialSource::Index8 => (8 * (lo + j)) as u64,
        InitialSource::PredTrue => 1u64,
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
