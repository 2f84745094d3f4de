//! Modulo-variable-expansion code generation: the no-rotating-hardware
//! schema (§2.3, citing Lam \[9\] and the code schemas of \[19\]).
//!
//! Without a rotating file, successive instances of a value that lives
//! longer than II cannot share one register, so the kernel is unrolled and
//! register specifiers renamed: value `v` gets `q_v` static registers and
//! its instance `i` lives in `base_v + (i mod q_v)`. For the renaming to
//! be consistent across the loop back-edge, the unroll factor must be a
//! multiple of every `q_v`; this implementation rounds each `q_v` up to a
//! power of two and unrolls by the maximum — the "wasted registers"
//! variant that trades registers for code size, rather than `lcm(q_v)`
//! which trades code size for registers.
//!
//! The resulting code expansion (unroll × kernel, plus the explicit
//! prologue and epilogue a machine without predicated execution would
//! need) is exactly the cost that motivated the Cydra 5's rotating files.

use std::collections::BTreeMap;

use lsms_ir::{OpId, OpKind, Operands, RegClass, ValueId};
use lsms_sched::pressure::lifetimes;
use lsms_sched::{SchedProblem, Schedule};

use crate::CodegenError;

/// A static register reference in MVE code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MveRef {
    /// A renamed loop-variant register (index into one static file).
    Reg(u32),
    /// A predicate register.
    Pred(u32),
    /// A loop invariant.
    Gpr(u32),
}

/// `gpr[0]`: only the padding of an [`Operands`] list's unused entries.
impl Default for MveRef {
    fn default() -> Self {
        MveRef::Gpr(0)
    }
}

impl std::fmt::Display for MveRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MveRef::Reg(r) => write!(f, "r{r}"),
            MveRef::Pred(p) => write!(f, "p{p}"),
            MveRef::Gpr(g) => write!(f, "gpr[{g}]"),
        }
    }
}

/// One instruction of the expanded kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MveInst {
    /// Source operation.
    pub op: OpId,
    /// Opcode.
    pub kind: OpKind,
    /// Pipeline stage (for prologue/epilogue membership).
    pub stage: u32,
    /// Destination, if any.
    pub dest: Option<MveRef>,
    /// Sources in operand order (inline; derefs to a slice).
    pub srcs: Operands<MveRef>,
    /// If-conversion guard, if any.
    pub guard: Option<MveRef>,
}

/// The expanded kernel: `unroll` copies of the II-cycle kernel with
/// renamed registers.
#[derive(Clone, Debug)]
pub struct MveKernel {
    /// Initiation interval of each copy.
    pub ii: u32,
    /// Pipeline stages.
    pub stages: u32,
    /// Kernel copies in the expanded loop body.
    pub unroll: u32,
    /// Static loop-variant registers consumed (`Σ q_v`).
    pub num_regs: u32,
    /// Static predicate registers consumed.
    pub num_preds: u32,
    /// `slots[u][c]` = instructions of copy `u` issuing at cycle `c`.
    pub slots: Vec<Vec<Vec<MveInst>>>,
    /// GPR binding per invariant value.
    pub gpr_bindings: Vec<(ValueId, u32)>,
    /// Per-value `(base, q)` register blocks (RR-class values).
    pub blocks: BTreeMap<ValueId, (u32, u32)>,
    /// Per-predicate `(base, q)` blocks.
    pub pred_blocks: BTreeMap<ValueId, (u32, u32)>,
}

impl MveKernel {
    /// Instructions in the expanded kernel body (excluding prologue and
    /// epilogue).
    pub fn kernel_insts(&self) -> usize {
        self.slots.iter().flatten().map(Vec::len).sum()
    }

    /// Static code size in instructions for a machine without predicated
    /// execution: prologue (stages − 1 partial copies) + expanded kernel +
    /// epilogue (stages − 1 partial copies), as in the schemas of \[19\].
    pub fn total_insts(&self) -> usize {
        let per_copy = self.kernel_insts() / self.unroll.max(1) as usize;
        let ramp = (self.stages as usize).saturating_sub(1) * per_copy;
        self.kernel_insts() + 2 * ramp
    }
}

fn next_pow2(x: u32) -> u32 {
    x.max(1).next_power_of_two()
}

/// Emits modulo-variable-expanded code for a schedule.
///
/// # Errors
///
/// Infallible today; the signature matches [`crate::emit`] for symmetry
/// and future checks.
pub fn emit_mve(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
) -> Result<MveKernel, CodegenError> {
    let body = problem.body();
    let ii = schedule.ii;
    let stages = schedule.stages();
    let lt = lifetimes(problem, schedule);

    // Seed depth per value (see the rotating allocator): uses at distance
    // ω read pre-loop instances for the first ω iterations.
    let mut depth = vec![0u32; body.values().len()];
    for op in body.ops() {
        for (&v, &w) in op.inputs.iter().zip(&op.input_omegas) {
            depth[v.index()] = depth[v.index()].max(w);
        }
    }

    // Register blocks: q_v registers per value, rounded to a power of two
    // so one unroll factor satisfies everyone.
    let mut blocks = BTreeMap::new();
    let mut pred_blocks = BTreeMap::new();
    let mut num_regs = 0u32;
    let mut num_preds = 0u32;
    let mut unroll = 1u32;
    for v in body.values() {
        if v.def.is_none() {
            continue;
        }
        let len = lt[v.id.index()].unwrap_or(1).max(1) as u64;
        let q_lt = ((len + 1).div_ceil(u64::from(ii))) as u32;
        let q = next_pow2(q_lt.max(depth[v.id.index()] + 1));
        unroll = unroll.max(q);
        match v.reg_class() {
            RegClass::Icr => {
                pred_blocks.insert(v.id, (num_preds, q));
                num_preds += q;
            }
            _ => {
                blocks.insert(v.id, (num_regs, q));
                num_regs += q;
            }
        }
    }

    // GPRs: invariants actually read.
    let gpr_bindings = lsms_regalloc::assign_gprs(problem);

    let reg_of = |v: ValueId, omega: u32, use_stage: u32, copy: u32| -> MveRef {
        if let Ok(at) = gpr_bindings.binary_search_by_key(&v, |&(value, _)| value) {
            return MveRef::Gpr(gpr_bindings[at].1);
        }
        let value = body.value(v);
        let def = value.def.expect("non-GPR values are defined in the loop");
        let def_stage = schedule.stage(def.index());
        // The producing instance lies ω + s_use − s_def source iterations
        // behind this copy's own, so its register index is
        // (copy − s_use − ω + s_def) mod q; q divides the unroll, keeping
        // the renaming consistent across the back edge.
        match value.reg_class() {
            RegClass::Icr => {
                let (base, q) = pred_blocks[&v];
                let idx = (i64::from(copy) - i64::from(use_stage) - i64::from(omega)
                    + i64::from(def_stage))
                .rem_euclid(i64::from(q)) as u32;
                MveRef::Pred(base + idx)
            }
            _ => {
                let (base, q) = blocks[&v];
                let idx = (i64::from(copy) - i64::from(use_stage) - i64::from(omega)
                    + i64::from(def_stage))
                .rem_euclid(i64::from(q)) as u32;
                MveRef::Reg(base + idx)
            }
        }
    };

    let mut slots: Vec<Vec<Vec<MveInst>>> = vec![vec![Vec::new(); ii as usize]; unroll as usize];
    for copy in 0..unroll {
        for op in body.ops() {
            if op.kind == OpKind::Brtop {
                continue;
            }
            let idx = op.id.index();
            let stage = schedule.stage(idx);
            let cycle = schedule.kernel_cycle(idx) as usize;
            let srcs = op
                .inputs
                .iter()
                .zip(&op.input_omegas)
                .map(|(&v, &w)| reg_of(v, w, stage, copy))
                .collect();
            let guard = op.predicate.map(|p| reg_of(p, 0, stage, copy));
            let dest = op.result.map(|r| reg_of(r, 0, stage, copy));
            slots[copy as usize][cycle].push(MveInst {
                op: op.id,
                kind: op.kind,
                stage,
                dest,
                srcs,
                guard,
            });
        }
    }
    for copy in &mut slots {
        for slot in copy {
            slot.sort_by_key(|inst| inst.op);
        }
    }
    Ok(MveKernel {
        ii,
        stages,
        unroll,
        num_regs,
        num_preds,
        slots,
        gpr_bindings,
        blocks,
        pred_blocks,
    })
}

/// Pretty-prints the expanded kernel: each copy's issue groups, with stage
/// annotations — making the code-size cost of forgoing rotation visible.
pub fn to_asm_mve(kernel: &MveKernel) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "; MVE kernel: II={} stages={} unroll={} regs={} preds={} ({} insts, {} with ramps)",
        kernel.ii,
        kernel.stages,
        kernel.unroll,
        kernel.num_regs,
        kernel.num_preds,
        kernel.kernel_insts(),
        kernel.total_insts(),
    );
    for (u, copy) in kernel.slots.iter().enumerate() {
        let _ = writeln!(s, "copy {u}:");
        for (c, slot) in copy.iter().enumerate() {
            let _ = writeln!(s, "  cycle {c}:");
            if slot.is_empty() {
                let _ = writeln!(s, "      nop");
            }
            for inst in slot {
                let dest = inst.dest.map(|d| format!("{d} = ")).unwrap_or_default();
                let srcs: Vec<String> = inst.srcs.iter().map(|r| r.to_string()).collect();
                let guard = inst.guard.map(|g| format!(" if {g}")).unwrap_or_default();
                let _ = writeln!(
                    s,
                    "      [s{}] {}{} {}{}",
                    inst.stage,
                    dest,
                    inst.kind,
                    srcs.join(", "),
                    guard
                );
            }
        }
    }
    let _ = writeln!(s, "  br loop");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use lsms_machine::huff_machine;
    use lsms_sched::SlackScheduler;

    fn emit_loop(src: &str) -> MveKernel {
        let unit = compile(src).unwrap();
        let machine = huff_machine();
        let body = unit.loops[0].body.clone();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let schedule = SlackScheduler::new().run(&problem).unwrap();
        emit_mve(&problem, &schedule).unwrap()
    }

    #[test]
    fn long_lifetimes_force_unroll_and_renaming() {
        let kernel = emit_loop(
            "loop axpy(i = 1..n) {
                 real x[], y[];
                 param real a;
                 y[i] = y[i] + a * x[i];
             }",
        );
        // The load's 13-cycle lifetime at a small II needs several names.
        assert!(kernel.unroll >= 4, "unroll = {}", kernel.unroll);
        assert!(
            kernel.num_regs > kernel.blocks.len() as u32,
            "renaming happened"
        );
        // Every copy contains every non-brtop op exactly once.
        let per_copy: Vec<usize> = kernel
            .slots
            .iter()
            .map(|c| c.iter().map(Vec::len).sum())
            .collect();
        assert!(per_copy.windows(2).all(|w| w[0] == w[1]));
        // Code expansion: kernel alone is unroll x the rotating kernel.
        assert_eq!(kernel.kernel_insts(), kernel.unroll as usize * per_copy[0]);
        assert!(kernel.total_insts() > kernel.kernel_insts());
    }

    #[test]
    fn defs_cycle_through_their_block() {
        let kernel = emit_loop(
            "loop sample(i = 3..n) {
                 real x[], y[];
                 x[i] = x[i-1] + y[i-2];
                 y[i] = y[i-1] + x[i-2];
             }",
        );
        // Pick any renamed value with q >= 2 and check its destination
        // registers differ across adjacent copies.
        let (&value, &(base, q)) = kernel
            .blocks
            .iter()
            .find(|(_, &(_, q))| q >= 2)
            .expect("some renamed value");
        let mut dests = Vec::new();
        for copy in &kernel.slots {
            for slot in copy {
                for inst in slot {
                    if let Some(MveRef::Reg(r)) = inst.dest {
                        if r >= base && r < base + q {
                            dests.push(r);
                        }
                    }
                }
            }
        }
        let _ = value;
        assert!(dests.len() >= 2);
        assert_ne!(dests[0], dests[1], "adjacent copies rename: {dests:?}");
    }

    #[test]
    fn asm_printer_shows_all_copies() {
        let kernel = emit_loop(
            "loop axpy(i = 1..n) {
                 real x[], y[];
                 param real a;
                 y[i] = y[i] + a * x[i];
             }",
        );
        let asm = to_asm_mve(&kernel);
        for u in 0..kernel.unroll {
            assert!(asm.contains(&format!("copy {u}:")));
        }
        assert!(asm.contains("br loop"));
    }

    #[test]
    fn short_loops_need_no_unrolling() {
        let kernel = emit_loop("loop s(i = 1..n) { real x[]; x[i] = 1.5; }");
        assert!(kernel.unroll <= 2, "unroll = {}", kernel.unroll);
    }
}
