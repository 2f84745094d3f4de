//! Equivalence harness: seeded inputs, the reference interpreter's
//! arrays for them, and bit-for-bit comparison of simulated kernels
//! against those arrays.

use std::collections::BTreeMap;

use lsms_codegen::{KernelCode, MveKernel};
use lsms_front::{CompiledLoop, Expr, InitialSource, LValue, Stmt, Ty};
use lsms_prng::SmallRng;
use lsms_regalloc::RotatingAllocation;
use lsms_sched::{SchedProblem, Schedule, SlackConfig};

use crate::mve_sim::run_mve;
use crate::reference::run_reference;
use crate::vliw::{run_kernel, SimError, SimOutcome};
use crate::Workspace;

/// Inputs and slack configuration of one simulate-verify run, as the
/// benchmark's traced replay spells them out. Its only user is that
/// replay; everything else verifies through the pipeline session's
/// `VerifySpec`, which checks the kernels the session itself emitted.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Loop trip count.
    pub trip: u64,
    /// Seed for the deterministic input generator.
    pub seed: u64,
    /// The slack configuration the replay schedules with.
    pub scheduler: SlackConfig,
}

/// Outcome of a successful equivalence check.
#[derive(Clone, Debug)]
pub struct EquivReport {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Pipeline stages.
    pub stages: u32,
    /// Machine cycles the pipeline ran.
    pub cycles: u64,
    /// Total array elements compared.
    pub elements: usize,
}

/// The most array cells (array length × number of arrays) an [`Oracle`]
/// lays out. The workspace, the reference arrays and the simulated
/// memory each hold that many 8-byte cells, so this caps verification
/// at a few hundred MB however long the recurrence distance or the trip
/// count. A loop without arrays counts as one array, which bounds its
/// trip count the same way.
pub const MAX_SIM_CELLS: u64 = 1 << 23;

/// The first loop index `lo` and the per-array length that
/// [`make_workspace`] lays out: room for the pre-loop seed instances
/// (`depth − min_off` below `lo`), `trip` iterations, and the largest
/// positive subscript offset. The length saturates instead of wrapping.
fn layout(compiled: &CompiledLoop, trip: u64) -> (i64, u64) {
    // Offsets used anywhere in the source.
    let mut min_off: i64 = 0;
    let mut max_off: i64 = 0;
    visit_offsets(&compiled.def.body, &mut |off| {
        min_off = min_off.min(off);
        max_off = max_off.max(off);
    });
    // Pre-loop instances reach back max input-omega iterations.
    let depth = compiled
        .body
        .ops()
        .iter()
        .flat_map(|op| op.input_omegas.iter().copied())
        .max()
        .unwrap_or(0) as i64;
    let lo = (depth - min_off).max(1);
    let len = (lo as u64)
        .saturating_add(trip)
        .saturating_add(max_off as u64 + 2);
    (lo, len)
}

/// Builds a deterministic workspace for a compiled loop: arrays sized so
/// every access (including pre-loop seed instances) is in bounds, filled
/// with seeded pseudo-random data; integer data stays in small positive
/// ranges so `%`/`/` behave; integer parameters get the trip-consistent
/// bound value. It allocates without a limit; [`Oracle::new`] checks
/// [`MAX_SIM_CELLS`] first.
pub fn make_workspace(compiled: &CompiledLoop, trip: u64, seed: u64) -> Workspace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let (lo, len) = layout(compiled, trip);
    let len = len as usize;

    let arrays = compiled
        .info
        .arrays
        .iter()
        .map(|&(_, ty)| (0..len).map(|_| random_cell(&mut rng, ty)).collect())
        .collect();
    let mut params = BTreeMap::new();
    for (name, ty) in &compiled.info.params {
        let bits = match ty {
            Ty::Real => random_cell(&mut rng, Ty::Real),
            Ty::Int => (lo + trip as i64) as u64, // loop bounds and friends
        };
        params.insert(name.clone(), bits);
    }
    let mut scalar_inits = BTreeMap::new();
    for (name, ty) in &compiled.info.carried {
        scalar_inits.insert(name.clone(), random_cell(&mut rng, *ty));
    }
    // Initials of kind Scalar not covered above (defensive).
    for (_, source) in &compiled.initials {
        if let InitialSource::Scalar(name) = source {
            scalar_inits
                .entry(name.clone())
                .or_insert_with(|| random_cell(&mut rng, Ty::Real));
        }
    }
    Workspace {
        arrays,
        params,
        scalar_inits,
        lo,
        trip,
    }
}

fn random_cell(rng: &mut SmallRng, ty: Ty) -> u64 {
    match ty {
        // Quarter-integers in a small range: exact in binary, no
        // overflow drama, still exercises real arithmetic.
        Ty::Real => ((rng.gen_range(-200..200) as f64) * 0.25).to_bits(),
        // Small positive ints keep divisions and moduli well behaved.
        Ty::Int => rng.gen_range(1..9i64) as u64,
    }
}

fn visit_offsets(stmts: &[Stmt], sink: &mut impl FnMut(i64)) {
    fn expr(e: &Expr, sink: &mut impl FnMut(i64)) {
        match e {
            Expr::Elem { offset, .. } => sink(*offset),
            Expr::Neg(x) | Expr::Sqrt(x) | Expr::Abs(x) => expr(x, sink),
            Expr::Bin(_, l, r) | Expr::MinMax { lhs: l, rhs: r, .. } => {
                expr(l, sink);
                expr(r, sink);
            }
            Expr::Real(_) | Expr::Int(_) | Expr::Scalar(..) => {}
        }
    }
    for stmt in stmts {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                if let LValue::Elem { offset, .. } = target {
                    sink(*offset);
                }
                expr(value, sink);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                expr(&cond.lhs, sink);
                expr(&cond.rhs, sink);
                visit_offsets(then_body, sink);
                visit_offsets(else_body, sink);
            }
            Stmt::BreakIf { cond } => {
                expr(&cond.lhs, sink);
                expr(&cond.rhs, sink);
            }
        }
    }
}

/// Seeded inputs for one loop and the reference interpreter's arrays for
/// them: what every simulated kernel of that loop is compared against.
///
/// Building one costs the workspace and one reference run; checking a
/// kernel costs one simulation and the comparison. A caller that already
/// holds its schedule, allocations and kernels therefore checks them
/// without compiling anything again.
#[derive(Clone, Debug)]
pub struct Oracle {
    workspace: Workspace,
    /// The reference interpreter's final arrays for `workspace`.
    expected: Vec<Vec<u64>>,
}

impl Oracle {
    /// Builds the workspace for `trip` iterations from `seed` and runs the
    /// reference interpreter on it.
    ///
    /// # Errors
    ///
    /// [`SimError::WorkspaceTooLarge`], before allocating anything, when
    /// the arrays would exceed [`MAX_SIM_CELLS`].
    pub fn new(compiled: &CompiledLoop, trip: u64, seed: u64) -> Result<Self, SimError> {
        let (_, len) = layout(compiled, trip);
        let cells = len.saturating_mul(compiled.info.arrays.len().max(1) as u64);
        if cells > MAX_SIM_CELLS {
            return Err(SimError::WorkspaceTooLarge {
                cells,
                limit: MAX_SIM_CELLS,
            });
        }
        let workspace = make_workspace(compiled, trip, seed);
        let expected = run_reference(compiled, &workspace);
        Ok(Self {
            workspace,
            expected,
        })
    }

    /// Simulates a rotating-file kernel and compares its arrays with the
    /// reference.
    ///
    /// # Errors
    ///
    /// A simulator fault, or the first mismatching element (with the
    /// array, the element, both values, the II and the trip count).
    pub fn check_kernel(
        &self,
        compiled: &CompiledLoop,
        problem: &SchedProblem<'_>,
        schedule: &Schedule,
        kernel: &KernelCode,
        rr: &RotatingAllocation,
        icr: &RotatingAllocation,
    ) -> Result<EquivReport, String> {
        let outcome = run_kernel(
            compiled,
            problem,
            schedule,
            kernel,
            rr,
            icr,
            &self.workspace,
        )
        .map_err(|e| format!("sim: {e}"))?;
        self.report(compiled, schedule, &outcome)
    }

    /// Simulates a modulo-variable-expansion kernel (static registers, no
    /// rotation: the §2.3 alternative) and compares its arrays with the
    /// reference.
    ///
    /// # Errors
    ///
    /// As for [`check_kernel`](Self::check_kernel).
    pub fn check_mve(
        &self,
        compiled: &CompiledLoop,
        problem: &SchedProblem<'_>,
        schedule: &Schedule,
        kernel: &MveKernel,
    ) -> Result<EquivReport, String> {
        let outcome = run_mve(compiled, problem, schedule, kernel, &self.workspace)
            .map_err(|e| format!("sim: {e}"))?;
        self.report(compiled, schedule, &outcome)
    }

    fn report(
        &self,
        compiled: &CompiledLoop,
        schedule: &Schedule,
        outcome: &SimOutcome,
    ) -> Result<EquivReport, String> {
        let elements = self.compare(compiled, schedule.ii, &outcome.arrays)?;
        Ok(EquivReport {
            ii: schedule.ii,
            stages: schedule.stages(),
            cycles: outcome.cycles,
            elements,
        })
    }

    /// Compares simulated arrays with the reference element by element and
    /// returns how many were compared. Every kernel kind goes through here,
    /// so all of them report a mismatch the same way: a
    /// `sim.verify_mismatch` trace event and a message naming the array,
    /// the element, both values, the loop, the II and the trip count.
    fn compare(
        &self,
        compiled: &CompiledLoop,
        ii: u32,
        arrays: &[Vec<u64>],
    ) -> Result<usize, String> {
        let mut elements = 0usize;
        for (a, (got, want)) in arrays.iter().zip(&self.expected).enumerate() {
            for (idx, (g, w)) in got.iter().zip(want).enumerate() {
                elements += 1;
                if g != w {
                    lsms_trace::instant(
                        "sim.verify_mismatch",
                        &[
                            ("array", a as i64),
                            ("element", idx as i64),
                            ("ii", i64::from(ii)),
                        ],
                    );
                    return Err(format!(
                        "array {} ({}) element {idx}: pipeline {:e} ({g:#x}) != reference {:e} ({w:#x}) \
                         [loop {}, II {}, trip {}]",
                        a,
                        compiled.info.arrays[a].0,
                        f64::from_bits(*g),
                        f64::from_bits(*w),
                        compiled.def.name,
                        ii,
                        self.workspace.trip,
                    ));
                }
            }
        }
        Ok(elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;

    #[test]
    fn a_mismatch_names_array_element_ii_and_trip() {
        let unit = compile(
            "loop axpy(i = 1..n) {
                 real x[], y[];
                 param real a;
                 y[i] = y[i] + a * x[i];
             }",
        )
        .unwrap();
        let compiled = &unit.loops[0];
        let mut oracle = Oracle::new(compiled, 9, 4).expect("small workspace");
        let got = oracle.expected.clone();
        let all: usize = got.iter().map(Vec::len).sum();
        assert_eq!(oracle.compare(compiled, 3, &got), Ok(all));

        // Corrupt one expected element of `y`, the second array.
        oracle.expected[1][5] ^= 1;
        let err = oracle.compare(compiled, 3, &got).unwrap_err();
        assert!(err.starts_with("array 1 (y) element 5: pipeline "), "{err}");
        assert!(err.ends_with("[loop axpy, II 3, trip 9]"), "{err}");
    }
}
