//! Loop intermediate representation for lifetime-sensitive modulo scheduling.
//!
//! This crate defines the dependence-graph IR consumed by the schedulers in
//! `lsms-sched`: operations ([`Op`]) in static single assignment form,
//! values ([`Value`]) partitioned into register classes (rotating `RR`,
//! loop-invariant `GPR`, rotating predicate `ICR`), and dependence arcs
//! ([`Dep`]) labelled with their iteration distance *omega* (ω) — the minimum
//! number of loop iterations separating the two endpoints, exactly as in
//! §3.1 of Huff, *Lifetime-Sensitive Modulo Scheduling* (PLDI 1993).
//!
//! Latencies are deliberately **not** stored on arcs here: an arc's latency
//! is a property of the target machine (the producing operation's functional
//! unit latency), so it is resolved when a [`LoopBody`] is paired with a
//! machine description in `lsms-machine`.
//!
//! # Example
//!
//! Building a two-statement recurrence loop body by hand (the `lsms-front`
//! crate builds the same thing from source text):
//!
//! ```
//! use lsms_ir::{LoopBuilder, OpKind, ValueType};
//!
//! let mut b = LoopBuilder::new("sample");
//! let x = b.new_value(ValueType::Float); // x(i)
//! let y = b.new_value(ValueType::Float); // y(i)
//! let fx = b.op(OpKind::FAdd, &[x, y], Some(x));
//! let fy = b.op(OpKind::FAdd, &[y, x], Some(y));
//! b.flow_dep(fx, fy, 2); // x(i-2) feeds y(i)
//! b.flow_dep(fy, fx, 2); // y(i-2) feeds x(i)
//! let body = b.finish();
//! assert!(body.has_recurrence());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod body;
mod builder;
mod dep;
mod dot;
pub mod fingerprint;
mod ids;
mod op;
mod scc;
mod transform;
mod value;

pub use body::{flat_adjacency, BodyError, LoopBody, LoopClass, LoopMeta};
pub use builder::LoopBuilder;
pub use dep::{Dep, DepKind, DepVia};
pub use dot::{to_dot, to_listing};
pub use fingerprint::{structural_fingerprint, Fingerprint, FpHasher};
pub use ids::{DepId, OpId, ValueId};
pub use op::{Op, OpKind, Operands, MAX_ARITY};
pub use scc::{has_recurrence, tarjan_scc, Components};
pub use transform::unroll;
pub use value::{RegClass, Value, ValueName, ValueType};
