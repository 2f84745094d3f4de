//! Kernel-only code generation for modulo-scheduled loops.
//!
//! With predicated execution and rotating register files, a software
//! pipeline needs no prologue or epilogue code: the kernel alone is
//! emitted, each operation tagged with its *stage* (`time div II`) and
//! guarded by that stage's predicate; `brtop` shifts the stage predicates
//! and rotates the files every II cycles, so ramp-up and ramp-down happen
//! by predication (§2.2–§2.3 and the code schemas of the paper's \[19\]).
//!
//! Register specifiers are rotating-file offsets resolved against the
//! iteration control pointer at issue. For a use of value `v` (allocated
//! offset `o_v`, defined at stage `s_v`) by an operation in stage `s_u`
//! reading the instance from ω iterations back:
//!
//! ```text
//! specifier = o_v + ω + s_u − s_v
//! ```
//!
//! because exactly `ω + s_u − s_v` rotations happen between the def's
//! issue and the use's issue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mve;

pub use mve::{emit_mve, to_asm_mve, MveInst, MveKernel, MveRef};

use std::fmt::Write as _;

use lsms_ir::{OpId, OpKind, Operands, RegClass, ValueId};
use lsms_regalloc::RotatingAllocation;
use lsms_sched::{SchedProblem, Schedule};

/// A register reference in emitted code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegRef {
    /// Rotating RR file at the given specifier (offset before ICP
    /// addition).
    Rr(u32),
    /// Rotating predicate (ICR) file at the given specifier.
    Icr(u32),
    /// Static GPR file.
    Gpr(u32),
}

/// `gpr[0]`: only the padding of an [`Operands`] list's unused entries.
impl Default for RegRef {
    fn default() -> Self {
        RegRef::Gpr(0)
    }
}

impl std::fmt::Display for RegRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegRef::Rr(o) => write!(f, "rr[{o}]"),
            RegRef::Icr(o) => write!(f, "icr[{o}]"),
            RegRef::Gpr(i) => write!(f, "gpr[{i}]"),
        }
    }
}

/// The most source registers an emitted instruction reads: `Select`
/// reads three. Operand lists are [`Operands`], stored inline, so a
/// kernel instruction allocates nothing and a simulator can read the
/// operands into a fixed array.
pub const MAX_SRCS: usize = lsms_ir::MAX_ARITY;

/// One emitted kernel instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineInst {
    /// The source operation (for semantics and diagnostics).
    pub op: OpId,
    /// Opcode.
    pub kind: OpKind,
    /// Pipeline stage: the instruction executes for source iteration
    /// `k − stage` at kernel iteration `k`.
    pub stage: u32,
    /// Kernel cycle it issues at (`time mod II`).
    pub cycle: u32,
    /// Destination register, if the opcode produces a value.
    pub dest: Option<RegRef>,
    /// Source registers, in operand order (inline; derefs to a slice).
    pub srcs: Operands<RegRef>,
    /// Source-level guard predicate (from if-conversion), if any; the
    /// stage predicate always applies in addition.
    pub guard: Option<RegRef>,
}

/// The kernel: `II` issue groups of instructions plus file sizes.
#[derive(Clone, Debug)]
pub struct KernelCode {
    /// Initiation interval.
    pub ii: u32,
    /// Number of pipeline stages.
    pub stages: u32,
    /// Rotating RR file size.
    pub rr_size: u32,
    /// Rotating ICR file size (source predicates only; stage predicates
    /// are modelled as their own hardware chain).
    pub icr_size: u32,
    /// Every instruction, by issue cycle and then by source operation:
    /// [`slots`](Self::slots) groups them.
    pub insts: Vec<MachineInst>,
    /// GPR index assigned to each invariant (and otherwise undefined)
    /// value.
    pub gpr_bindings: Vec<(ValueId, u32)>,
}

impl KernelCode {
    /// Total instruction count (excluding the implicit `brtop`).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// The issue groups: `II` slices, the `c`-th holding the instructions
    /// issuing at kernel cycle `c` (possibly none).
    pub fn slots(&self) -> impl Iterator<Item = &[MachineInst]> + '_ {
        let mut rest = self.insts.as_slice();
        (0..self.ii).map(move |c| {
            let n = rest.iter().take_while(|inst| inst.cycle == c).count();
            let (slot, tail) = rest.split_at(n);
            rest = tail;
            slot
        })
    }

    /// The GPR index bound to `value`, if any.
    pub fn gpr_index(&self, value: ValueId) -> Option<u32> {
        self.gpr_bindings
            .iter()
            .find(|(v, _)| *v == value)
            .map(|&(_, i)| i)
    }
}

/// Errors from code emission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodegenError {
    /// A loop-variant value read by some operation has no allocated
    /// rotating register (allocation and schedule disagree).
    MissingAllocation(ValueId),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::MissingAllocation(v) => {
                write!(f, "value {v} has no rotating register allocation")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Emits kernel-only code from a schedule plus its RR and ICR rotating
/// allocations.
///
/// # Errors
///
/// Returns [`CodegenError::MissingAllocation`] if an operation reads a
/// loop-variant value absent from the allocations — values whose lifetime
/// was zero never received a register, so this only happens when the
/// allocation was computed for a different schedule.
pub fn emit(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    rr: &RotatingAllocation,
    icr: &RotatingAllocation,
) -> Result<KernelCode, CodegenError> {
    let body = problem.body();
    let ii = schedule.ii;
    let stages = schedule.stages();

    // Static file: invariants (and live-in variants) the body reads, in
    // value order.
    let gpr_bindings = lsms_regalloc::assign_gprs(problem);

    let reg_of = |v: ValueId, omega: u32, use_stage: u32| -> Result<RegRef, CodegenError> {
        let value = body.value(v);
        if let Ok(at) = gpr_bindings.binary_search_by_key(&v, |&(value, _)| value) {
            return Ok(RegRef::Gpr(gpr_bindings[at].1));
        }
        let def = value.def.expect("non-GPR values are defined in the loop");
        let def_stage = schedule.stage(def.index());
        let (alloc, make): (&RotatingAllocation, fn(u32) -> RegRef) =
            if value.reg_class() == RegClass::Icr {
                (icr, RegRef::Icr)
            } else {
                (rr, RegRef::Rr)
            };
        let offset = *alloc
            .offsets
            .get(&v)
            .ok_or(CodegenError::MissingAllocation(v))?;
        // offset + omega + use_stage − def_stage rotations separate the
        // def's issue from this use's issue; a dependence-respecting
        // schedule never makes it negative.
        let spec =
            i64::from(offset) + i64::from(omega) + i64::from(use_stage) - i64::from(def_stage);
        debug_assert!(spec >= 0, "negative rotating specifier for {v}");
        Ok(make(spec as u32))
    };

    let emitted = body.ops().iter().filter(|op| op.kind != OpKind::Brtop);
    let mut insts = Vec::with_capacity(body.ops().len());
    for op in emitted {
        let idx = op.id.index();
        let stage = schedule.stage(idx);
        let cycle = schedule.kernel_cycle(idx);
        let srcs = op
            .inputs
            .iter()
            .zip(&op.input_omegas)
            .map(|(&v, &omega)| reg_of(v, omega, stage))
            .collect::<Result<Operands<RegRef>, _>>()?;
        let guard = match op.predicate {
            Some(p) => Some(reg_of(p, 0, stage)?),
            None => None,
        };
        let dest = match op.result {
            Some(r) => {
                let value = body.value(r);
                let (alloc, make): (&RotatingAllocation, fn(u32) -> RegRef) =
                    if value.reg_class() == RegClass::Icr {
                        (icr, RegRef::Icr)
                    } else {
                        (rr, RegRef::Rr)
                    };
                let &o = alloc
                    .offsets
                    .get(&r)
                    .ok_or(CodegenError::MissingAllocation(r))?;
                Some(make(o))
            }
            None => None,
        };
        insts.push(MachineInst {
            op: op.id,
            kind: op.kind,
            stage,
            cycle,
            dest,
            srcs,
            guard,
        });
    }
    // (cycle, op) is unique, so the unstable sort is deterministic.
    insts.sort_unstable_by_key(|inst| (inst.cycle, inst.op));
    Ok(KernelCode {
        ii,
        stages,
        rr_size: rr.num_regs,
        icr_size: icr.num_regs,
        insts,
        gpr_bindings,
    })
}

/// Pretty-prints the kernel as VLIW assembly, one issue group per line
/// group, with stage annotations — the textual artifact a compiler would
/// show with `-S`.
pub fn to_asm(kernel: &KernelCode, problem: &SchedProblem<'_>) -> String {
    let body = problem.body();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "; kernel: II={} stages={} rr={} icr={} gprs={}",
        kernel.ii,
        kernel.stages,
        kernel.rr_size,
        kernel.icr_size,
        kernel.gpr_bindings.len()
    );
    for (c, slot) in kernel.slots().enumerate() {
        let _ = writeln!(s, "cycle {c}:");
        if slot.is_empty() {
            let _ = writeln!(s, "    nop");
        }
        for inst in slot {
            let dest = inst.dest.map(|d| format!("{d} = ")).unwrap_or_default();
            let srcs: Vec<String> = inst.srcs.iter().map(|r| r.to_string()).collect();
            let guard = inst.guard.map(|g| format!(" if {g}")).unwrap_or_default();
            let _ = writeln!(
                s,
                "    [s{}] {}{} {}{}    ; {}",
                inst.stage,
                dest,
                inst.kind,
                srcs.join(", "),
                guard,
                body.op(inst.op).id,
            );
        }
    }
    let _ = writeln!(s, "    brtop");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use lsms_ir::RegClass;
    use lsms_machine::huff_machine;
    use lsms_regalloc::{allocate_rotating, Strategy};
    use lsms_sched::SlackScheduler;

    fn emit_loop(src: &str) -> (KernelCode, usize) {
        let unit = compile(src).unwrap();
        let machine = Box::leak(Box::new(huff_machine()));
        let body = Box::leak(Box::new(unit.loops[0].body.clone()));
        let problem = SchedProblem::new(body, machine).unwrap();
        let schedule = SlackScheduler::new().run(&problem).unwrap();
        let rr = allocate_rotating(&problem, &schedule, RegClass::Rr, Strategy::default()).unwrap();
        let icr =
            allocate_rotating(&problem, &schedule, RegClass::Icr, Strategy::default()).unwrap();
        let ops = problem.num_real_ops();
        let kernel = emit(&problem, &schedule, &rr, &icr).unwrap();
        let asm = to_asm(&kernel, &problem);
        assert!(asm.contains("brtop"));
        (kernel, ops)
    }

    #[test]
    fn every_op_lands_in_exactly_one_slot() {
        let (kernel, ops) = emit_loop(
            "loop sample(i = 3..n) {
                 real x[], y[];
                 x[i] = x[i-1] + y[i-2];
                 y[i] = y[i-1] + x[i-2];
             }",
        );
        // brtop is implicit; everything else is emitted once.
        assert_eq!(kernel.num_insts(), ops - 1);
        assert_eq!(kernel.slots().count(), kernel.ii as usize);
        assert_eq!(kernel.slots().map(<[_]>::len).sum::<usize>(), ops - 1);
    }

    #[test]
    fn specifiers_account_for_stage_skew() {
        // The load's value crosses many stages at a small II; some use
        // must read a specifier strictly greater than any dest offset,
        // proving the omega/stage correction is applied.
        let (kernel, _) = emit_loop(
            "loop axpy(i = 1..n) {
                 real x[], y[];
                 param real a;
                 y[i] = y[i] + a * x[i];
             }",
        );
        let max_dest = kernel
            .insts
            .iter()
            .filter_map(|inst| match inst.dest {
                Some(RegRef::Rr(o)) => Some(o),
                _ => None,
            })
            .max()
            .unwrap();
        let max_src = kernel
            .insts
            .iter()
            .flat_map(|inst| &inst.srcs)
            .filter_map(|r| match r {
                RegRef::Rr(o) => Some(*o),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_src > 0);
        let _ = max_dest;
    }

    #[test]
    fn guarded_stores_carry_icr_guards() {
        let (kernel, _) = emit_loop(
            "loop clip(i = 1..n) {
                 real x[], y[];
                 param real t;
                 if (x[i] > t) { y[i] = t; } else { y[i] = x[i]; }
             }",
        );
        let guarded: Vec<_> = kernel
            .insts
            .iter()
            .filter(|inst| inst.guard.is_some())
            .collect();
        assert_eq!(guarded.len(), 2);
        assert!(guarded
            .iter()
            .all(|i| matches!(i.guard, Some(RegRef::Icr(_)))));
    }

    #[test]
    fn invariants_read_from_gprs() {
        let (kernel, _) = emit_loop("loop c(i = 1..n) { real x[]; param real a; x[i] = a * 2.0; }");
        let gpr_reads = kernel
            .insts
            .iter()
            .flat_map(|i| &i.srcs)
            .filter(|r| matches!(r, RegRef::Gpr(_)))
            .count();
        assert!(gpr_reads >= 2, "a and 2.0 come from GPRs");
        assert!(kernel.gpr_bindings.len() >= 2);
    }
}
