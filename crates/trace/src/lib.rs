//! `lsms-trace`: structured span tracing and typed scheduler events for
//! the whole compilation pipeline — the timeline half of observability.
//! Work counts live in the pipeline's `PassReport`, recorded once per
//! pass; this crate records only *when* things happened.
//!
//! The design goal is a collector cheap enough to leave compiled into
//! every hot path: when tracing is disabled (the default) each
//! instrumentation point costs one relaxed atomic load and a branch, and
//! the corpus bench must not regress measurably. When enabled, every
//! thread writes into its own buffer behind an uncontended mutex (locked
//! cross-thread only at [`drain`] time), so the parallel corpus pool
//! never serializes on a shared sink.
//!
//! Two kinds of events are collected:
//!
//! * **Spans** — hierarchical begin/end pairs ([`span`]), one per pass
//!   invocation; they nest (a `sched.attempt` span sits inside its
//!   `schedule:slack` pass span) and export as Chrome trace-event `B`/`E`
//!   pairs per thread ([`chrome::to_chrome_json`]).
//! * **Instants** — typed events ([`instant`]) with up to four integer
//!   arguments: op placement, ejection, II escalation, MRT conflict,
//!   allocation failure, verify mismatch.
//!
//! # Example
//!
//! ```
//! lsms_trace::set_enabled(true);
//! {
//!     let _pass = lsms_trace::span("parse");
//!     lsms_trace::instant("sched.place", &[("op", 3), ("cycle", 7)]);
//! }
//! let trace = lsms_trace::drain();
//! lsms_trace::set_enabled(false);
//! assert_eq!(trace.num_events(), 3);
//! let json = lsms_trace::chrome::to_chrome_json(&trace);
//! assert!(json.contains("\"ph\": \"B\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;

pub use chrome::to_chrome_json;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`B`).
    Begin,
    /// Span end (`E`).
    End,
    /// Thread-scoped instant (`i`).
    Instant,
}

/// Maximum arguments an event carries (fixed so recording never
/// allocates).
pub const MAX_ARGS: usize = 4;

/// One recorded event: a span boundary or a typed instant.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Event name (`sched.place`, `parse`, ...).
    pub name: &'static str,
    /// Span boundary or instant.
    pub phase: Phase,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Argument key/value pairs; only the first `nargs` are meaningful.
    pub args: [(&'static str, i64); MAX_ARGS],
    /// Number of meaningful entries in `args`.
    pub nargs: u8,
}

impl Event {
    /// The meaningful argument pairs.
    pub fn args(&self) -> &[(&'static str, i64)] {
        &self.args[..usize::from(self.nargs)]
    }
}

fn pack_args(args: &[(&'static str, i64)]) -> ([(&'static str, i64); MAX_ARGS], u8) {
    let mut packed = [("", 0i64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    (packed, n as u8)
}

/// The event stream of one thread, in recording order.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Collector-assigned thread id (dense, in registration order).
    pub tid: u32,
    /// Events in the order the thread recorded them.
    pub events: Vec<Event>,
}

/// Everything collected since the last [`drain`]: the per-thread event
/// streams.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-thread event streams, sorted by thread id. Threads that
    /// recorded nothing are omitted.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Total number of events across all threads.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

type SharedBuf = Arc<Mutex<Vec<Event>>>;

fn registry() -> &'static Mutex<Vec<(u32, SharedBuf)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(u32, SharedBuf)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<SharedBuf>> = const { RefCell::new(None) };
}

/// Turns collection on or off, process-wide. Off by default; every
/// recording function is a near-free no-op while off.
pub fn set_enabled(on: bool) {
    if on {
        // Fix the epoch before the first event so timestamps are
        // monotone from here.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when collection is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_buf(f: impl FnOnce(&mut Vec<Event>)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let arc = slot.get_or_insert_with(|| {
            let arc = Arc::new(Mutex::new(Vec::new()));
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            registry()
                .lock()
                .expect("trace registry")
                .push((tid, Arc::clone(&arc)));
            arc
        });
        f(&mut arc.lock().expect("thread trace buffer"));
    });
}

fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// An RAII span: emits the begin event on creation and the end event on
/// drop. Not `Send` — a span must end on the thread that started it, or
/// the per-thread `B`/`E` pairing Chrome requires would break.
#[must_use = "a span ends when the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            let ts_us = now_us();
            with_buf(|buf| {
                buf.push(Event {
                    name: self.name,
                    phase: Phase::End,
                    ts_us,
                    args: [("", 0); MAX_ARGS],
                    nargs: 0,
                });
            });
        }
    }
}

/// Opens a span; see [`span_with`] for arguments.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span with arguments attached to its begin event. Inert (and
/// free apart from one atomic load) while tracing is disabled; the guard
/// remembers whether it emitted a begin, so toggling mid-span cannot
/// imbalance the stream.
pub fn span_with(name: &'static str, args: &[(&'static str, i64)]) -> SpanGuard {
    let active = enabled();
    if active {
        let ts_us = now_us();
        let (packed, nargs) = pack_args(args);
        with_buf(|buf| {
            buf.push(Event {
                name,
                phase: Phase::Begin,
                ts_us,
                args: packed,
                nargs,
            });
        });
    }
    SpanGuard {
        name,
        active,
        _not_send: std::marker::PhantomData,
    }
}

/// Records a typed instant event (at most [`MAX_ARGS`] arguments are
/// kept).
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, i64)]) {
    if !enabled() {
        return;
    }
    let ts_us = now_us();
    let (packed, nargs) = pack_args(args);
    with_buf(|buf| {
        buf.push(Event {
            name,
            phase: Phase::Instant,
            ts_us,
            args: packed,
            nargs,
        });
    });
}

/// Takes everything collected since the last drain, clearing the
/// per-thread buffers (thread registrations persist).
pub fn drain() -> Trace {
    let registry = registry().lock().expect("trace registry");
    let mut trace = Trace::default();
    for (tid, buf) in registry.iter() {
        let mut events = buf.lock().expect("thread trace buffer");
        if !events.is_empty() {
            trace.threads.push(ThreadTrace {
                tid: *tid,
                events: std::mem::take(&mut *events),
            });
        }
    }
    trace.threads.sort_by_key(|t| t.tid);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests that enable it serialize
    /// on this lock so `cargo test`'s parallel runner cannot interleave
    /// their streams.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_collection_records_nothing() {
        let _g = guard();
        let _ = drain();
        set_enabled(false);
        let _span = span("parse");
        instant("sched.place", &[("op", 1)]);
        drop(_span);
        let trace = drain();
        assert_eq!(trace.num_events(), 0);
    }

    #[test]
    fn spans_nest_and_balance() {
        let _g = guard();
        let _ = drain();
        set_enabled(true);
        {
            let _outer = span("schedule:slack");
            {
                let _inner = span_with("sched.attempt", &[("ii", 3)]);
                instant("sched.place", &[("op", 0), ("cycle", 2)]);
            }
        }
        set_enabled(false);
        let trace = drain();
        assert_eq!(trace.threads.len(), 1);
        let events = &trace.threads[0].events;
        let names: Vec<(&str, Phase)> = events.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            names,
            [
                ("schedule:slack", Phase::Begin),
                ("sched.attempt", Phase::Begin),
                ("sched.place", Phase::Instant),
                ("sched.attempt", Phase::End),
                ("schedule:slack", Phase::End),
            ]
        );
        // Timestamps are monotone within the thread.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        // The attempt span carried its II argument.
        assert_eq!(events[1].args(), [("ii", 3)]);
    }

    #[test]
    fn toggling_mid_span_cannot_imbalance() {
        let _g = guard();
        let _ = drain();
        set_enabled(false);
        let dark = span("never-begun");
        set_enabled(true);
        drop(dark); // must NOT emit a dangling E
        let lit = span("begun");
        set_enabled(false);
        drop(lit); // must still emit its E
        let trace = drain();
        let mut depth = 0i64;
        for t in &trace.threads {
            for e in &t.events {
                match e.phase {
                    Phase::Begin => depth += 1,
                    Phase::End => {
                        depth -= 1;
                        assert!(depth >= 0, "E before B");
                    }
                    Phase::Instant => {}
                }
            }
        }
        assert_eq!(depth, 0, "unbalanced spans");
        assert!(trace
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .all(|e| e.name != "never-begun"));
    }

    #[test]
    fn drain_clears_but_keeps_collecting() {
        let _g = guard();
        let _ = drain();
        set_enabled(true);
        instant("a", &[]);
        let first = drain();
        instant("b", &[]);
        instant("c", &[]);
        let second = drain();
        set_enabled(false);
        let names = |t: &Trace| -> Vec<&str> {
            t.threads
                .iter()
                .flat_map(|t| &t.events)
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(names(&first), ["a"]);
        assert_eq!(names(&second), ["b", "c"]);
    }
}
