//! Modulo schedulers: the bidirectional slack scheduler of Huff,
//! *Lifetime-Sensitive Modulo Scheduling* (PLDI 1993), its unidirectional
//! ablation, and a Cydrome-style baseline.
//!
//! The crate is organised around [`SchedProblem`] — a loop body paired with
//! a machine description, its arcs resolved to `(latency, ω)` labels and
//! augmented with the `Start`/`Stop` pseudo-operations of §4.1. On top of
//! the problem sit:
//!
//! * the absolute lower bounds of §3: [`res_mii`], [`rec_mii`] (the
//!   minimum cost-to-time ratio, per recurrence component), and
//!   `MII = max(ResMII, RecMII)`;
//! * the [`MinDist`] relation — all-pairs longest paths with arc weight
//!   `latency − ω·II` — computed once per candidate II and shared through
//!   the per-problem [`MinDistCache`];
//! * the [slack-scheduling framework](slack) (§4) with the bidirectional
//!   lifetime heuristic (§5), and the [Cydrome baseline](cydrome) (§8);
//! * schedule-independent and schedule-dependent register-pressure measures
//!   (§3.2, §5.1): `MinLT`, `MinAvg`, the `LiveVector`, and `MaxLive`;
//! * an independent [schedule validator](validate).
//!
//! # Example
//!
//! ```
//! use lsms_ir::{LoopBuilder, OpKind, ValueType};
//! use lsms_machine::huff_machine;
//! use lsms_sched::{SchedProblem, SlackScheduler};
//!
//! let mut b = LoopBuilder::new("demo");
//! let a = b.invariant(ValueType::Addr, "a");
//! let x = b.new_value(ValueType::Float);
//! let y = b.new_value(ValueType::Float);
//! let ld = b.op(OpKind::Load, &[a], Some(x));
//! let add = b.op(OpKind::FAdd, &[x, x], Some(y));
//! let st = b.op(OpKind::Store, &[a, y], None);
//! b.flow_dep(ld, add, 0);
//! b.flow_dep(add, st, 0);
//! let body = b.finish();
//!
//! let machine = huff_machine();
//! let problem = SchedProblem::new(&body, &machine)?;
//! let schedule = SlackScheduler::new().run(&problem)?;
//! assert_eq!(schedule.ii, problem.mii());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bounds;
pub mod cydrome;
mod engine;
pub mod explain;
pub mod fingerprint;
mod lines;
pub mod mindist;
pub mod pressure;
pub mod problem;
pub mod schedule;
pub mod slack;
pub mod stats;
pub mod svg;

pub use backend::{
    BackendCaps, BackendInfo, BackendRun, CydromeBackend, ModuloScheduler, SchedContext,
    SlackBackend,
};
pub use bounds::{mii, rec_mii, res_mii};
pub use cydrome::CydromeScheduler;
pub use engine::EngineWorkspace;
pub use fingerprint::{problem_fingerprint, schedule_key, FINGERPRINT_SALT};
pub use mindist::{MinDist, MinDistCache, MinDistCacheStats};
pub use pressure::PressureReport;
pub use problem::{Arc, ProblemError, SchedProblem};
pub use schedule::{validate, Schedule, ScheduleError};
pub use slack::{DirectionPolicy, IiIncrement, SchedFailure, SlackConfig, SlackScheduler};
pub use stats::{DecisionStats, SchedStats};
