//! The `MinDist` relation (§4.1): all-pairs longest paths at a given II.
//!
//! [`MinDist::compute`] runs Floyd–Warshall at one fixed II in 32-bit
//! arithmetic and keeps one row-major matrix; [`MinDistCache`] memoizes
//! the result per II for one problem, and times each computation (one
//! `Instant` pair and one `mindist.fw` trace span a miss). The relaxation
//! runs inside [`lsms_lanes::wide`], each row update in blocks of eight
//! cells: one ymm `vpmaxsd` on a CPU with AVX2, two SSE2 registers on
//! baseline x86-64, with the same result either way.
//!
//! # Paying only for paths
//!
//! The pivots run in reverse node order: `Stop`, `Start`, then the ops
//! from last to first. Ops are numbered in program order, which is close
//! to topological order, so sinks come first, and by the time a node is
//! a pivot its row already holds most of its paths onward while few
//! rows yet reach it. A pivot relaxes only the rows with a path to it
//! (`d[i][k] ≥ NO_PATH / 2`), skips a row whose only path is the zero
//! diagonal, and tests the diagonal only of the rows it relaxed. Any
//! pivot order computes the same closure, so every matrix is the same;
//! over a `calibrated` round the relaxed cells fell from 183M in program
//! order to 31M.
//!
//! # Why 32 bits are enough
//!
//! [`SchedProblem::new`] refuses a problem whose MII lies above
//! [`SchedProblem::ii_ceiling`], and every II search stops at that
//! ceiling, so at every II computed here `S = Σ_arcs(|latency| + ω·II) ≤
//! 2²⁷`. No arc weight `latency − ω·II` exceeds `S` in magnitude, and
//! neither does the weight of any simple path. While no positive circuit
//! has been closed, every entry is such a path weight, [`NO_PATH`]
//! (`−2²⁹`), or `NO_PATH` plus such a weight (still below `NO_PATH / 2`),
//! so every sum the relaxation forms lies in `(−2³⁰, 2²⁸]`. The first
//! relaxed row that closes a positive circuit has a positive diagonal;
//! the computation stops there, since nothing reads an infeasible II's
//! matrix, and its sums are still at most `2S`.

#![deny(clippy::cast_possible_truncation)]

use crate::{lines, SchedProblem};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel for "no path in the dependence graph" (the paper's −∞).
///
/// `−2²⁹`: two sentinels plus any path weight (at most `2²⁷` in
/// magnitude) or any stored time (at most `2²⁸`) still fit in `i32`, so
/// the scheduling engine's sweeps add it without a branch.
pub const NO_PATH: i32 = -(1 << 29);

/// For each pair of operations `x` and `y`, `MinDist(x, y)` is the minimum
/// number of cycles (possibly negative) by which `x` must precede `y` in
/// any feasible schedule, or [`NO_PATH`] if the dependence graph has no
/// path from `x` to `y`.
///
/// Computing MinDist is an all-pairs *longest*-paths problem over arcs of
/// weight `latency − ω·II`; because `II ≥ RecMII` makes every cycle weight
/// non-positive, the computation is well defined (§4.1). The matrix depends
/// only on `(problem, II)`, so within one scheduling run it is computed at
/// most once per candidate II — see [`MinDistCache`].
///
/// The relation is one dense row-major `i32` matrix: 4n² bytes per II.
/// The engine sweeps whole rows, and whole columns of a transpose it
/// builds once per II attempt with [`transpose_into`](Self::transpose_into),
/// without branching on [`NO_PATH`]. In 32-bit lanes those max/min sweeps
/// run four to an SSE2 register on baseline x86-64 and eight to a ymm
/// register where [`lsms_lanes::wide`] finds AVX2 (EXPERIMENTS.md "32-bit
/// scheduling arithmetic" and "AVX2 lanes, picked at run time").
#[derive(Clone, Debug)]
pub struct MinDist {
    n: usize,
    ii: u32,
    feasible: bool,
    /// Row-major: `d[x * n + y]` = `MinDist(x, y)`.
    d: Vec<i32>,
}

impl MinDist {
    /// Computes the relation for `problem` at candidate initiation interval
    /// `ii` with Floyd–Warshall over all nodes including `Start`/`Stop`.
    ///
    /// `MinDist(x, x)` is fixed at 0 for every operation, as in the paper;
    /// if `ii < RecMII` some diagonal entry would want to be positive, which
    /// [`is_feasible`](Self::is_feasible) reports. The entries of an
    /// infeasible matrix are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is 0 or above [`SchedProblem::ii_ceiling`], where
    /// path sums could leave the 32-bit range.
    pub fn compute(problem: &SchedProblem<'_>, ii: u32) -> Self {
        lsms_lanes::wide(
            #[inline(always)]
            || Self::compute_baseline(problem, ii),
        )
    }

    /// [`compute`](Self::compute) without [`lsms_lanes::wide`]: the same
    /// relaxation, compiled for the caller's target features only. It
    /// exists so that tests on an AVX2 host can still run the baseline
    /// code path and compare it with `compute`.
    #[doc(hidden)]
    #[inline(always)]
    pub fn compute_baseline(problem: &SchedProblem<'_>, ii: u32) -> Self {
        assert!(ii > 0, "II must be positive");
        assert!(
            ii <= problem.ii_ceiling(),
            "II {ii} is above the 32-bit path-range ceiling {}",
            problem.ii_ceiling()
        );
        let n = problem.num_nodes();
        let mut d = vec![NO_PATH; n * n];
        for arc in problem.arcs() {
            let idx = arc.from * n + arc.to;
            let w = i32::try_from(arc.weight(ii)).expect("the II ceiling bounds arc weights");
            d[idx] = d[idx].max(w);
        }
        let mut md = Self {
            n,
            ii,
            feasible: true,
            d,
        };
        // A positive self-arc weight means even II is too small for a
        // trivial circuit.
        for i in 0..n {
            if md.d[i * n + i] > 0 {
                md.feasible = false;
                return md;
            }
            md.d[i * n + i] = 0;
        }
        let d = &mut md.d;
        // Pivots in reverse node order, sinks first (see the module docs).
        for k in (0..n).rev() {
            // Row k contributes through via = d[i][k] + d[k][j]; if its only
            // path is the zero diagonal, every candidate collapses to
            // d[i][k] + 0 <= d[i][k] and the whole pass is a no-op. Dependence
            // graphs are sparse, so many rows (e.g. Stop, stores) skip here.
            let row = &d[k * n..k * n + n];
            let useful = row
                .iter()
                .enumerate()
                .any(|(j, &w)| w > NO_PATH / 2 && (j != k || w != 0));
            if !useful {
                continue;
            }
            for i in 0..n {
                // A leg below NO_PATH / 2 is no path: relaxing through it
                // would only write sums the final pass resets.
                let dik = d[i * n + k];
                if dik < NO_PATH / 2 {
                    continue;
                }
                let (row_k, row_i) = if i < k {
                    let (a, b) = d.split_at_mut(k * n);
                    (&b[..n], &mut a[i * n..i * n + n])
                } else if i > k {
                    let (a, b) = d.split_at_mut(i * n);
                    (&a[k * n..k * n + n], &mut b[..n])
                } else {
                    continue; // i == k: d[i][k] + d[k][j] = d[i][j] already
                };
                // No branch on NO_PATH: a missing leg leaves the sum below
                // NO_PATH / 2, where the final pass resets it.
                lines::max_plus(row_i, row_k, dik);
                // Only a relaxed row can have closed a positive circuit.
                if row_i[i] > 0 {
                    md.feasible = false;
                    return md;
                }
            }
        }
        for w in d.iter_mut() {
            if *w < NO_PATH / 2 {
                *w = NO_PATH;
            }
        }
        md
    }

    /// The II this matrix was computed for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// False when some recurrence circuit is longer than `ω·II` at this II —
    /// i.e. `ii < RecMII` — so no feasible schedule exists.
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// `MinDist(x, y)`, or [`NO_PATH`] when the graph has no `x → y` path.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> i32 {
        debug_assert!(x < self.n && y < self.n);
        self.d[x * self.n + y]
    }

    /// `MinDist(x, ·)`: the distances from `x` to every node, indexed by
    /// node ([`NO_PATH`] where `x` reaches no path).
    #[inline]
    pub fn row(&self, x: usize) -> &[i32] {
        &self.d[x * self.n..(x + 1) * self.n]
    }

    /// Writes the transpose into `out`, reusing its allocation:
    /// `out[y * n + x]` = `MinDist(x, y)`, so row `y` of `out` lists the
    /// distances from every node *into* `y` contiguously.
    pub fn transpose_into(&self, out: &mut Vec<i32>) {
        let n = self.n;
        out.clear();
        out.resize(n * n, NO_PATH);
        for (x, row) in self.d.chunks_exact(n).enumerate() {
            for (y, &w) in row.iter().enumerate() {
                out[y * n + x] = w;
            }
        }
    }
}

/// Counters describing how a [`MinDistCache`] served its requests, and
/// the wall time its Floyd–Warshall runs took.
///
/// Every miss runs exactly one Floyd–Warshall, so `fw_computes == misses`
/// always, and `parametric_builds` and `materializations` are always 0.
/// Those three fields stay because the `benchmark` binary's per-layer
/// report reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinDistCacheStats {
    /// Requests answered from an already-built matrix.
    pub hits: u64,
    /// Requests that had to produce a new matrix.
    pub misses: u64,
    /// Misses served by a fixed-II Floyd–Warshall: always equal to
    /// `misses`.
    pub fw_computes: u64,
    /// Parametric envelope constructions: always 0.
    pub parametric_builds: u64,
    /// Misses served by evaluating a parametric envelope: always 0.
    pub materializations: u64,
    /// Wall time of the Floyd–Warshall runs, one `Instant` pair a miss.
    pub fw_time: Duration,
}

#[derive(Default)]
struct CacheInner {
    /// Computed matrices for this problem, keyed by II. IIs are probed in a
    /// short monotone sequence per evaluation, so a small vector beats a map.
    entries: Vec<(u32, Arc<MinDist>)>,
    stats: MinDistCacheStats,
}

/// Shares one [`MinDist`] per `(problem, II)` across everything that needs
/// it during a scheduling run: the scheduling engine's II search, pressure
/// measurement, the MinAvg bound, and diagnostic reports.
///
/// A plain per-problem memo: every miss runs one [`MinDist::compute`] and
/// stores the result under its II. The cache is keyed by II only, so one
/// cache must serve exactly one [`SchedProblem`] — create a fresh cache
/// per problem (they are cheap). Interior mutability makes `get` usable
/// through a shared reference, and the lock is held across the compute so
/// concurrent callers asking for the same II still trigger exactly one
/// build.
#[derive(Default)]
pub struct MinDistCache {
    inner: Mutex<CacheInner>,
}

impl MinDistCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The matrix for `(problem, ii)`, computing it on first request and
    /// returning the shared copy on every later one. Each computation
    /// runs inside an `lsms-trace` span `mindist.fw` and adds its wall
    /// time to [`MinDistCacheStats::fw_time`].
    pub fn get(&self, problem: &SchedProblem<'_>, ii: u32) -> Arc<MinDist> {
        let mut guard = self.inner.lock().expect("MinDist cache poisoned");
        let inner = &mut *guard;
        if let Some((_, md)) = inner.entries.iter().find(|(key, _)| *key == ii) {
            inner.stats.hits += 1;
            return Arc::clone(md);
        }
        inner.stats.misses += 1;
        inner.stats.fw_computes += 1;
        let started = Instant::now();
        let md = {
            let _span = lsms_trace::span("mindist.fw");
            Arc::new(MinDist::compute(problem, ii))
        };
        inner.stats.fw_time += started.elapsed();
        inner.entries.push((ii, Arc::clone(&md)));
        md
    }

    /// A snapshot of the request counters.
    pub fn stats(&self) -> MinDistCacheStats {
        self.inner.lock().expect("MinDist cache poisoned").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    /// load -> fadd -> store chain.
    fn chain_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("chain");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        b.finish()
    }

    #[test]
    fn chain_distances_accumulate_latencies() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 1);
        assert!(md.is_feasible());
        assert_eq!(md.get(0, 1), 13); // load latency
        assert_eq!(md.get(0, 2), 14); // + fadd latency
        assert_eq!(md.get(2, 0), NO_PATH);
        // Start -> store via the chain beats the direct 0-arc.
        assert_eq!(md.get(p.start(), 2), 14);
        // store -> Stop carries the store latency.
        assert_eq!(md.get(2, p.stop()), 1);
        assert_eq!(md.get(p.start(), p.stop()), 15);
    }

    #[test]
    fn omega_discounts_by_ii() {
        // fadd feeding itself two iterations later via a partner op.
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0); // latency 1
        b.flow_dep(o2, o1, 2); // latency 2, omega 2
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        // Circuit length 3, omega 2: RecMII = ceil(3/2) = 2.
        assert_eq!(p.rec_mii(), 2);
        let md = MinDist::compute(&p, 2);
        assert!(md.is_feasible());
        assert_eq!(md.get(0, 1), 1);
        assert_eq!(md.get(1, 0), 2 - 2 * 2); // latency 2 − ω·II
        let md3 = MinDist::compute(&p, 3);
        assert_eq!(md3.get(1, 0), 2 - 2 * 3);
    }

    #[test]
    fn infeasible_ii_is_reported() {
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x)); // latency 2
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y)); // latency 2
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 4);
        assert!(!MinDist::compute(&p, 3).is_feasible());
        assert!(MinDist::compute(&p, 4).is_feasible());
    }

    #[test]
    fn diagonal_is_zero() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 5);
        for i in 0..p.num_nodes() {
            assert_eq!(md.get(i, i), 0);
        }
    }

    #[test]
    fn estart_lstart_shape_on_sample() {
        // Estart(x) = MinDist(Start, x) is non-negative for every op.
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 3);
        for i in 0..p.num_real_ops() {
            assert!(md.get(p.start(), i) >= 0);
            assert!(md.get(i, p.stop()) >= 0);
        }
    }

    #[test]
    fn cache_computes_each_ii_once() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let cache = MinDistCache::new();
        let a = cache.get(&p, 3);
        let b = cache.get(&p, 3);
        let c = cache.get(&p, 4);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.get(0, 1), 13);
        // A long escalation sweep still pays exactly one Floyd–Warshall
        // per distinct II and nothing else.
        for ii in 5..10 {
            let _ = cache.get(&p, ii);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 7));
        assert_eq!(stats.fw_computes, stats.misses);
        assert_eq!((stats.parametric_builds, stats.materializations), (0, 0));
    }
}
