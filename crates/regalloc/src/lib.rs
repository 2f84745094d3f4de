//! Register allocation for modulo-scheduled loops.
//!
//! The paper approximates a schedule's register pressure by `MaxLive`
//! because Rau et al. (PLDI 1992, the paper's \[18\]) showed allocation
//! strategies for software-pipelined loops almost always achieve it —
//! "the wands-only strategy using end-fit with adjacency ordering never
//! needed more than MaxLive + 1 registers" (§3.2, footnote 4). This crate
//! reproduces that substrate:
//!
//! * [`allocate_rotating`] assigns each loop variant an offset in a
//!   rotating register file (§2.3), searching upward from `MaxLive` for
//!   the smallest file size that admits a conflict-free assignment under a
//!   configurable ordering/fit [`Strategy`];
//! * [`verify_allocation`] is an independent brute-force oracle that
//!   replays the allocation over concrete cycles and register indices;
//! * [`mve_plan`] quantifies the *modulo variable expansion* alternative
//!   for machines without rotating files — the unroll-and-rename scheme
//!   whose code expansion motivates rotation (§2.3, \[9\], \[18\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gpr;
mod mve;
mod rotating;

pub use gpr::assign_gprs;
pub use mve::{mve_plan, MvePlan};
pub use rotating::{
    allocate_rotating, verify_allocation, AllocError, Fit, Ordering, RotatingAllocation, Strategy,
    MAX_ROTATING_REGS,
};
