//! Equivalence harness: seeded inputs, the reference interpreter's
//! arrays for them, and bit-for-bit comparison of simulated kernels
//! against those arrays.

use std::collections::BTreeMap;

use lsms_codegen::{KernelCode, MveKernel};
use lsms_front::{CompiledLoop, Expr, InitialSource, LValue, Stmt, Ty};
use lsms_prng::SmallRng;
use lsms_regalloc::RotatingAllocation;
use lsms_sched::{SchedProblem, Schedule, SlackConfig};

use crate::mve_sim::simulate_mve;
use crate::reference::Reference;
use crate::vliw::{simulate, SimError};
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
/// lays out. Verification holds two copies of them, the reference's
/// final arrays and the simulated memory, so this caps it at a few
/// hundred MB however long the recurrence distance or the trip count. A
/// loop without arrays counts as one array, which bounds its trip count
/// the same way.
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

/// The generator every seeded input comes from.
fn input_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// `len` initial cells of one array of element type `ty`.
fn draw_array(rng: &mut SmallRng, ty: Ty, len: usize) -> impl Iterator<Item = u64> + '_ {
    (0..len).map(move |_| random_cell(rng, ty))
}

/// Every array's `len` initial cells, array after array: the first draws
/// of [`input_rng`].
fn draw_arrays(rng: &mut SmallRng, compiled: &CompiledLoop, len: usize, cells: &mut Vec<u64>) {
    for &(_, ty) in &compiled.info.arrays {
        cells.extend(draw_array(rng, ty, len));
    }
}

/// The draw for parameter `ty` after the arrays: reals are random;
/// integer parameters get the trip-consistent bound value.
fn draw_param(rng: &mut SmallRng, ty: Ty, lo: i64, trip: u64) -> u64 {
    match ty {
        Ty::Real => random_cell(rng, Ty::Real),
        Ty::Int => (lo + trip as i64) as u64, // loop bounds and friends
    }
}

/// The draws after the arrays, in `make_workspace`'s order, by position:
/// every parameter, then every carried scalar's initial value.
fn draw_scalars(
    rng: &mut SmallRng,
    compiled: &CompiledLoop,
    lo: i64,
    trip: u64,
    scalars: &mut Vec<Option<u64>>,
) {
    let info = &compiled.info;
    scalars.clear();
    scalars.extend(
        info.params
            .iter()
            .map(|&(_, ty)| Some(draw_param(rng, ty, lo, trip))),
    );
    scalars.extend(
        info.carried
            .iter()
            .map(|&(_, ty)| Some(random_cell(rng, ty))),
    );
}

/// Builds a deterministic workspace for a compiled loop: arrays sized so
/// every access (including pre-loop seed instances) is in bounds, filled
/// with seeded pseudo-random data; integer data stays in small positive
/// ranges so `%`/`/` behave; integer parameters get the trip-consistent
/// bound value. It allocates without a limit; [`Oracle::new`] checks
/// [`MAX_SIM_CELLS`] first.
pub fn make_workspace(compiled: &CompiledLoop, trip: u64, seed: u64) -> Workspace {
    let mut rng = input_rng(seed);
    let (lo, len) = layout(compiled, trip);
    let len = len as usize;

    let arrays = compiled
        .info
        .arrays
        .iter()
        .map(|&(_, ty)| draw_array(&mut rng, ty, len).collect())
        .collect();
    let mut params = BTreeMap::new();
    for (name, ty) in &compiled.info.params {
        params.insert(name.clone(), draw_param(&mut rng, *ty, lo, trip));
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

/// The scalar half of one run's inputs, resolved by position: every
/// `LoopInfo::params` entry, then every `LoopInfo::carried` entry, each
/// `None` when the inputs lack it.
#[derive(Clone, Debug)]
pub(crate) struct Inputs {
    /// The first iteration index.
    pub(crate) lo: i64,
    /// Iteration count.
    pub(crate) trip: u64,
    /// Parameter values, then carried scalars' initial values.
    pub(crate) scalars: Vec<Option<u64>>,
}

impl Inputs {
    /// The scalars of a name-keyed workspace.
    pub(crate) fn of_workspace(compiled: &CompiledLoop, workspace: &Workspace) -> Self {
        let info = &compiled.info;
        let params = info.params.iter().map(|(n, _)| workspace.params.get(n));
        let carried = info
            .carried
            .iter()
            .map(|(n, _)| workspace.scalar_inits.get(n));
        Self {
            lo: workspace.lo,
            trip: workspace.trip,
            scalars: params.chain(carried).map(|v| v.copied()).collect(),
        }
    }

    /// Parameter `name`'s value.
    pub(crate) fn param(&self, compiled: &CompiledLoop, name: &str) -> Option<u64> {
        let at = compiled.info.params.iter().position(|(n, _)| n == name)?;
        self.scalars[at]
    }

    /// Carried scalar `name`'s initial value.
    pub(crate) fn scalar_init(&self, compiled: &CompiledLoop, name: &str) -> Option<u64> {
        let info = &compiled.info;
        let at = info.carried.iter().position(|(n, _)| n == name)?;
        self.scalars[info.params.len() + at]
    }
}

/// Every array's cells back to back, 8-byte words: array `a` occupies
/// `cells[starts[a] .. starts[a + 1]]`, and its byte address is `8 ×`
/// that index. The reference interpreter and both simulators run on
/// this one layout.
#[derive(Clone, Debug)]
pub(crate) struct Memory {
    pub(crate) cells: Vec<u64>,
    /// One entry per array plus the end.
    pub(crate) starts: Vec<usize>,
}

impl Memory {
    /// A copy of a workspace's arrays.
    pub(crate) fn of_workspace(workspace: &Workspace) -> Self {
        let mut starts = Vec::with_capacity(workspace.arrays.len() + 1);
        starts.push(0);
        for a in &workspace.arrays {
            starts.push(starts[starts.len() - 1] + a.len());
        }
        Self {
            cells: workspace.arrays.concat(),
            starts,
        }
    }

    /// The arrays, one `Vec` each.
    pub(crate) fn into_arrays(self) -> Vec<Vec<u64>> {
        self.starts
            .windows(2)
            .map(|w| self.cells[w[0]..w[1]].to_vec())
            .collect()
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
/// Building one costs the inputs and one reference run, which runs in
/// place over the seeded arrays; checking a kernel costs one simulation
/// over a fresh draw of the same arrays and the comparison, read in
/// place. The seeded inputs are drawn again rather than kept. So verification holds at most two copies of the arrays, and a
/// caller that already holds its schedule, allocations and kernels checks
/// them without compiling anything again.
#[derive(Clone, Debug)]
pub struct Oracle {
    seed: u64,
    inputs: Inputs,
    /// The reference interpreter's final arrays for the seeded inputs.
    expected: Memory,
}

impl Oracle {
    /// Draws the inputs for `trip` iterations from `seed` and runs the
    /// reference interpreter on them.
    ///
    /// # Errors
    ///
    /// [`SimError::WorkspaceTooLarge`], before allocating anything, when
    /// the arrays would exceed [`MAX_SIM_CELLS`].
    pub fn new(compiled: &CompiledLoop, trip: u64, seed: u64) -> Result<Self, SimError> {
        let (lo, len) = layout(compiled, trip);
        let cells = len.saturating_mul(compiled.info.arrays.len().max(1) as u64);
        if cells > MAX_SIM_CELLS {
            return Err(SimError::WorkspaceTooLarge {
                cells,
                limit: MAX_SIM_CELLS,
            });
        }
        let len = len as usize;
        let info = &compiled.info;
        let mut rng = input_rng(seed);
        let mut cells = Vec::with_capacity(len * info.arrays.len());
        draw_arrays(&mut rng, compiled, len, &mut cells);
        let mut scalars_rng = rng.clone();
        let mut inputs = Inputs {
            lo,
            trip,
            scalars: Vec::with_capacity(info.params.len() + info.carried.len()),
        };
        draw_scalars(&mut rng, compiled, lo, trip, &mut inputs.scalars);
        let mut expected = Memory {
            cells,
            starts: (0..=info.arrays.len()).map(|a| a * len).collect(),
        };
        Reference::new(compiled, &expected.starts).run(compiled, &mut inputs, &mut expected.cells);
        // The run left the carried scalars' final values: draw the inputs
        // again, as each check draws the arrays again.
        draw_scalars(&mut scalars_rng, compiled, lo, trip, &mut inputs.scalars);
        Ok(Self {
            seed,
            inputs,
            expected,
        })
    }

    /// A fresh copy of the seeded arrays to simulate in.
    fn seeded_cells(&self, compiled: &CompiledLoop) -> Vec<u64> {
        let len = self.expected.starts.get(1).copied().unwrap_or(0);
        let mut cells = Vec::with_capacity(self.expected.cells.len());
        draw_arrays(&mut input_rng(self.seed), compiled, len, &mut cells);
        cells
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
        let mut cells = self.seeded_cells(compiled);
        let cycles = simulate(
            compiled,
            problem,
            schedule,
            kernel,
            (rr, icr),
            &self.inputs,
            (&self.expected.starts, &mut cells),
        )
        .map_err(|e| format!("sim: {e}"))?;
        self.report(compiled, schedule, cycles, &cells)
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
        let mut cells = self.seeded_cells(compiled);
        let cycles = simulate_mve(
            compiled,
            problem,
            schedule,
            kernel,
            &self.inputs,
            (&self.expected.starts, &mut cells),
        )
        .map_err(|e| format!("sim: {e}"))?;
        self.report(compiled, schedule, cycles, &cells)
    }

    fn report(
        &self,
        compiled: &CompiledLoop,
        schedule: &Schedule,
        cycles: u64,
        cells: &[u64],
    ) -> Result<EquivReport, String> {
        let elements = self.compare(compiled, schedule.ii, cells)?;
        Ok(EquivReport {
            ii: schedule.ii,
            stages: schedule.stages(),
            cycles,
            elements,
        })
    }

    /// Compares simulated memory with the reference element by element,
    /// in place, and returns how many were compared. Every kernel kind
    /// goes through here, so all of them report a mismatch the same way:
    /// a `sim.verify_mismatch` trace event and a message naming the array,
    /// the element, both values, the loop, the II and the trip count.
    fn compare(&self, compiled: &CompiledLoop, ii: u32, cells: &[u64]) -> Result<usize, String> {
        for (a, span) in self.expected.starts.windows(2).enumerate() {
            let (got, want) = (
                &cells[span[0]..span[1]],
                &self.expected.cells[span[0]..span[1]],
            );
            if got == want {
                continue;
            }
            let idx = got.iter().zip(want).position(|(g, w)| g != w).unwrap_or(0);
            let (g, w) = (got[idx], want[idx]);
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
                f64::from_bits(g),
                f64::from_bits(w),
                compiled.def.name,
                ii,
                self.inputs.trip,
            ));
        }
        Ok(self.expected.cells.len())
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
        let got = oracle.expected.cells.clone();
        assert_eq!(oracle.compare(compiled, 3, &got), Ok(got.len()));

        // Corrupt one expected element of `y`, the second array.
        oracle.expected.cells[oracle.expected.starts[1] + 5] ^= 1;
        let err = oracle.compare(compiled, 3, &got).unwrap_err();
        assert!(err.starts_with("array 1 (y) element 5: pipeline "), "{err}");
        assert!(err.ends_with("[loop axpy, II 3, trip 9]"), "{err}");
    }
}
