//! Execution substrate: a VLIW simulator with rotating register files and
//! a source-level reference interpreter.
//!
//! The paper's schedules ran on (simulated) Cydra-5-class hardware; this
//! crate supplies the equivalent so that generated pipelines can be
//! *executed*, not just checked against scheduling constraints:
//!
//! * [`mod@reference`] — interprets the DSL AST directly, iteration by
//!   iteration: the semantic ground truth;
//! * [`vliw`] — executes [`KernelCode`](lsms_codegen::KernelCode) with
//!   rotating RR/ICR files, stage predicates (ramp-up/ramp-down by
//!   predication), guard predicates, and a flat word-addressed memory;
//! * [`harness`] — lays out arrays, seeds initial register-file
//!   instances, runs both engines on identical inputs, and compares every
//!   array bit for bit: [`Oracle`] checks kernels a caller already built.
//!   The pipeline's `CompileSession` builds them and checks them through
//!   it when verification is on; that is the one way to compile and
//!   verify a loop.
//!
//! Arithmetic is evaluated identically on both sides (including `-x`
//! lowering to `0.0 - x`, wrapping integer arithmetic, and
//! divide-by-zero-yields-zero for integers), so equivalence is exact
//! bitwise equality, with no floating-point tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod mve_sim;
pub mod reference;
pub mod trace;
pub mod vliw;

pub use harness::{make_workspace, EquivReport, Oracle, RunConfig, MAX_SIM_CELLS};
pub use mve_sim::run_mve;
pub use reference::run_reference;
pub use trace::{issue_trace, trace_stats, TraceEvent, TraceStats};
pub use vliw::{run_kernel, SimError, SimOutcome};

use std::collections::BTreeMap;

/// Concrete inputs for one loop execution: initial array contents,
/// parameter values, and carried-scalar seeds — everything both engines
/// consume. Cells are raw 64-bit patterns; the declared types decide
/// interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workspace {
    /// Initial contents per declared array (index-aligned with
    /// `LoopInfo::arrays`).
    pub arrays: Vec<Vec<u64>>,
    /// Parameter values by name.
    pub params: BTreeMap<String, u64>,
    /// Initial values of loop-carried scalars by name.
    pub scalar_inits: BTreeMap<String, u64>,
    /// The first iteration index (the loop runs `lo ..= lo + trip - 1`).
    pub lo: i64,
    /// Iteration count.
    pub trip: u64,
}
