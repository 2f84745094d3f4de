//! The operation-driven scheduling framework with limited backtracking
//! (§4.2–§4.4), shared by the slack scheduler and the Cydrome baseline.
//!
//! The framework owns the six-step central loop:
//!
//! 1. choose an operation (delegated to a [`Heuristic`]);
//! 2. search for an issue cycle within its Estart/Lstart bounds, scanning
//!    in the direction the heuristic picks;
//! 3. if no conflict-free cycle exists, force the operation in and eject
//!    whatever conflicts (never `brtop`);
//! 4. place it and update the modulo resource table;
//! 5. update the Estart/Lstart bounds of the unplaced operations;
//! 6. if the iteration budget is exhausted, restart at a larger II.
//!
//! Steps 3 and 5 read the dense [`MinDist`] matrix and a transpose of it
//! that each II attempt builds once, so the paths out of a node (a row)
//! and into it (a transpose row) are both contiguous. A placement tightens
//! every node's bounds from the placed node's row and column, without a
//! branch. After a forcing step the bounds are recomputed from the placed
//! set, sweeping the placed nodes' lines (push) or the unplaced nodes' own
//! lines (pull), whichever set is smaller. Either way every Estart and
//! Lstart is the same max or min over the same placed set.
//!
//! The bounds, stored times and both matrices are `i32`, and the sweeps
//! walk each line in blocks of eight (`lines`): one ymm register, or two
//! SSE2 registers on baseline x86-64. The tightening push, the refresh and
//! the victim sweep each run inside [`lsms_lanes::wide`], which compiles
//! them for AVX2 where the CPU has it; the bounds are the same max and
//! min either way. Every II tried is at most
//! [`SchedProblem::ii_ceiling`], which keeps each MinDist entry within
//! ±2²⁷; a time or `Lstart(Stop)` is checked against ±2²⁸ as it is stored,
//! and the attempt fails with [`SchedFailure::out_of_range`] instead of
//! storing one beyond. Sentinel sums (±2²⁹ plus an entry or a time) then
//! stay inside `i32`. Issue times, slacks and priorities are widened to
//! `i64` where they are read one at a time.
//!
//! [`SchedFailure::out_of_range`]: crate::SchedFailure::out_of_range

#![deny(clippy::cast_possible_truncation)]

use lsms_ir::OpId;
use lsms_machine::{critical_classes, Mrt, UnitAssignment};

use std::sync::Arc;

use crate::lines;
use crate::mindist::NO_PATH;
use crate::{DecisionStats, MinDist, MinDistCache, SchedProblem, SchedStats, Schedule};

/// Which end of the `[Estart, Lstart]` window to scan from (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Scan from Estart upward: place as early as possible.
    Early,
    /// Scan from Lstart downward: place as late as possible.
    Late,
}

/// A scheduler personality plugged into the framework: how to pick the
/// next operation and which direction to scan.
pub(crate) trait Heuristic {
    /// Called at the start of each II attempt, before any placement.
    fn begin_attempt(&mut self, st: &EngineState<'_, '_>);

    /// Picks an unplaced node (a real operation or `Stop`).
    fn choose(&mut self, st: &EngineState<'_, '_>, decisions: &mut DecisionStats) -> usize;

    /// Picks the scan direction for the chosen node.
    fn direction(
        &mut self,
        st: &EngineState<'_, '_>,
        node: usize,
        decisions: &mut DecisionStats,
    ) -> Direction;
}

/// Recycled allocations carried across II attempts of one escalation run
/// (the warm start): every `Vec` and the modulo resource table survive a
/// failed attempt and are re-initialized in place for the next II.
///
/// Reuse is *allocation-only* by design. All contents — bounds, unit
/// assignments, placement history — are recomputed from scratch each
/// attempt, so a warm-started run produces schedules byte-identical to a
/// cold-started one; what escalation no longer pays is the dozen fresh
/// allocations per attempt (the MinDist matrix itself comes from the
/// [`MinDistCache`], one Floyd–Warshall per II).
///
/// The workspace is public (with opaque contents) so that callers outside
/// this crate — notably [`ModuloScheduler`](crate::ModuloScheduler)
/// implementations and the pipeline's backend registry — can own one and
/// thread it through repeated scheduler runs.
#[derive(Debug, Default)]
pub struct EngineWorkspace {
    /// The attempt's MinDist transpose ([`MinDist::transpose_into`]).
    dt: Vec<i32>,
    tpos: Vec<i32>,
    tneg: Vec<i32>,
    estart: Vec<i32>,
    lstart: Vec<i32>,
    last_place: Vec<Option<i64>>,
    halvings: Vec<u8>,
    minlt: Vec<Option<i64>>,
    assignments: Vec<UnitAssignment>,
    /// The indexed ready set: the unplaced nodes, dense.
    ready: Vec<usize>,
    /// Position of each node in `ready`, or [`PLACED`].
    ready_pos: Vec<usize>,
    conflict_buf: Vec<OpId>,
    /// Scratch for the forcing path's dependence-violation sweep.
    eject_buf: Vec<usize>,
    /// Scratch for the per-attempt unit-assignment ordering.
    order: Vec<usize>,
    /// Scratch for the per-class round-robin cursors.
    next_instance: Vec<u32>,
    mrt: Option<Mrt>,
}

impl EngineWorkspace {
    /// An empty workspace; allocations grow on first use and are recycled
    /// by every subsequent run that borrows it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `ready_pos` sentinel for a node not in the ready set.
const PLACED: usize = usize::MAX;

/// The largest magnitude a stored time or `Lstart(Stop)` may have.
const TIME_RANGE: i32 = 1 << 28;

/// `t` as a stored time, or `None` beyond ±[`TIME_RANGE`].
fn stored_time(t: i64) -> Option<i32> {
    i32::try_from(t)
        .ok()
        .filter(|t| (-TIME_RANGE..=TIME_RANGE).contains(t))
}

/// A time or `Lstart(Stop)` left ±[`TIME_RANGE`]: the attempt stops.
#[derive(Debug)]
struct OutOfRange;

/// Mutable scheduling state for one II attempt, visible to heuristics.
pub(crate) struct EngineState<'p, 'a> {
    pub problem: &'p SchedProblem<'a>,
    pub ii: u32,
    pub md: Arc<MinDist>,
    /// `md`'s transpose: `dt[y * n + x]` = `MinDist(x, y)`.
    dt: Vec<i32>,
    /// Issue time per node, or [`NO_PATH`] while unplaced (`Start` is
    /// fixed at 0). The max-plus sweeps read it as is: for an unplaced
    /// `z`, `tpos[z] + MinDist(z, u)` stays below every real Estart.
    tpos: Vec<i32>,
    /// `tpos` for the min-plus sweeps: `−NO_PATH` while unplaced, so
    /// `tneg[z] − MinDist(u, z)` stays above every real Lstart.
    tneg: Vec<i32>,
    /// Earliest start bound per node; meaningful only while unplaced.
    pub estart: Vec<i32>,
    /// Latest start bound per node; meaningful only while unplaced.
    pub lstart: Vec<i32>,
    /// The controlled `Lstart(Stop)` (§4.2).
    pub lstart_stop: i32,
    /// Last cycle each node was placed at, for the §4.4 forcing rule.
    pub last_place: Vec<Option<i64>>,
    /// Per node, how many times the §4.3 dynamic priority halves its
    /// slack: once on a critical resource class under contention, once
    /// more for a divider user.
    halvings: Vec<u8>,
    /// `MinLT(v)` per value id at this II (§5.1); `None` when the value
    /// has no register flow uses.
    pub minlt: Vec<Option<i64>>,
    /// True when `ResMII > 1` — enables the extra-slack provision and the
    /// critical-op slack halving.
    pub contended: bool,
    /// Scheduling a basic block rather than a pipelined loop (§8).
    straight_line: bool,
    /// Per-attempt functional-unit instance binding: round-robin within
    /// each class in (Estart mod II, Estart) order, so operations likely
    /// to contend for the same kernel cycle land on different instances.
    assignments: Vec<UnitAssignment>,
    mrt: Mrt,
    /// The indexed ready set: exactly the unplaced nodes, in arbitrary
    /// order (swap-remove on place, push on eject). `choose` iterates this
    /// instead of filtering an `n`-bool scan; heuristic selection keys are
    /// total (node index as the final component), so the permuted order
    /// cannot change which node wins.
    ready: Vec<usize>,
    /// Position of each node in `ready`, or [`PLACED`].
    ready_pos: Vec<usize>,
    /// MinDist cells read while maintaining bounds and sweeping for
    /// dependence violations this attempt (flushed into
    /// [`SchedStats::bounds_cells_touched`]).
    cells_touched: u64,
    /// Scratch list reused by the forcing path's conflict queries so the
    /// central loop stays allocation-free after setup.
    conflict_buf: Vec<OpId>,
    /// Scratch for the forcing path's dependence-violation sweep.
    eject_buf: Vec<usize>,
    /// Bound refreshes run so far, as `(push, pull)`.
    #[cfg(test)]
    refreshes: (u32, u32),
}

impl<'p, 'a> EngineState<'p, 'a> {
    /// Cold-start construction (used by unit tests): a throwaway
    /// workspace, so every vector is freshly allocated.
    #[cfg(test)]
    fn new(
        problem: &'p SchedProblem<'a>,
        ii: u32,
        straight_line: bool,
        cache: &MinDistCache,
    ) -> Option<Self> {
        Self::new_in(
            problem,
            ii,
            straight_line,
            cache,
            &mut EngineWorkspace::default(),
        )
        .ok()
    }

    /// Builds the state for one II attempt, drawing every allocation from
    /// `ws` (see [`EngineWorkspace`]: contents are recomputed, only the
    /// capacity is reused). An infeasible II, or a deadline beyond the
    /// time range, ends the attempt before it starts: `Err` carries the
    /// outcome.
    fn new_in(
        problem: &'p SchedProblem<'a>,
        ii: u32,
        straight_line: bool,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
    ) -> Result<Self, Attempt> {
        let md = cache.get(problem, ii);
        if !md.is_feasible() {
            return Err(Attempt::InfeasibleIi);
        }
        let n = problem.num_nodes();
        let start = problem.start();
        let stop = problem.stop();
        let body = problem.body();
        let machine = problem.machine();
        let contended = problem.res_mii() > 1;

        let mut dt = std::mem::take(&mut ws.dt);
        md.transpose_into(&mut dt);
        let mut tpos = std::mem::take(&mut ws.tpos);
        tpos.clear();
        tpos.resize(n, NO_PATH);
        tpos[start] = 0;
        let mut tneg = std::mem::take(&mut ws.tneg);
        tneg.clear();
        tneg.resize(n, -NO_PATH);
        tneg[start] = 0;

        let mut estart = std::mem::take(&mut ws.estart);
        estart.clear();
        estart.extend((0..n).map(|x| md.get(start, x).max(0)));
        // The run ends here, so the buffers taken so far need not return
        // to `ws`.
        let deadline = stop_deadline(estart[stop], problem, ii, straight_line, contended);
        let Some(lstart_stop) = stored_time(deadline) else {
            return Err(Attempt::OutOfRange);
        };
        let mut lstart = std::mem::take(&mut ws.lstart);
        lstart.clear();
        lstart.extend((0..n).map(|x| lstart_stop - md.get(x, stop)));

        let class_critical = critical_classes(machine, body, ii);
        let mut halvings = std::mem::take(&mut ws.halvings);
        halvings.clear();
        let real = body.ops().iter().map(|op| {
            let critical = contended && class_critical[machine.desc(op.kind).class.index()];
            u8::from(critical) + u8::from(op.kind.uses_divider())
        });
        // `Start` and `Stop`, the last two nodes, are never halved.
        halvings.extend(real.chain([0, 0]));

        // MinLT(v) = max over flow deps (d -> u, omega) of omega*II +
        // MinDist(d, u) (§5.1).
        let mut minlt = std::mem::take(&mut ws.minlt);
        crate::pressure::min_lifetimes_into(problem, &md, &mut minlt);

        // Bind operations to unit instances for this attempt. Estart mod
        // II approximates the kernel cycle an operation will want, so
        // spreading congruent operations across instances avoids
        // avoidable modulo collisions on tight recurrence circuits.
        let n_real = problem.num_real_ops();
        let mut order = std::mem::take(&mut ws.order);
        order.clear();
        order.extend(0..n_real);
        order.sort_by_key(|&x| (i64::from(estart[x]).rem_euclid(i64::from(ii)), estart[x], x));
        let mut next = std::mem::take(&mut ws.next_instance);
        next.clear();
        next.resize(machine.classes().len(), 0);
        let mut assignments = std::mem::take(&mut ws.assignments);
        assignments.clear();
        assignments.resize(n_real, UnitAssignment::default());
        for &x in &order {
            let class = machine.desc(body.ops()[x].kind).class;
            let count = machine.classes()[class.index()].count;
            assignments[x] = UnitAssignment {
                class,
                instance: next[class.index()] % count,
            };
            next[class.index()] += 1;
        }
        ws.order = order;
        ws.next_instance = next;

        let mrt = match ws.mrt.take() {
            Some(mut mrt) => {
                mrt.reset(machine, ii);
                mrt
            }
            None => Mrt::new(machine, ii),
        };

        let mut last_place = std::mem::take(&mut ws.last_place);
        last_place.clear();
        last_place.resize(n, None);
        // The ready set starts in ascending node order (matching the old
        // bool-scan); later swap-removes permute it freely.
        let mut ready = std::mem::take(&mut ws.ready);
        ready.clear();
        let mut ready_pos = std::mem::take(&mut ws.ready_pos);
        ready_pos.clear();
        ready_pos.resize(n, PLACED);
        for (x, pos) in ready_pos.iter_mut().enumerate() {
            if x != start {
                *pos = ready.len();
                ready.push(x);
            }
        }
        let mut conflict_buf = std::mem::take(&mut ws.conflict_buf);
        conflict_buf.clear();
        let mut eject_buf = std::mem::take(&mut ws.eject_buf);
        eject_buf.clear();
        Ok(Self {
            problem,
            ii,
            md,
            dt,
            tpos,
            tneg,
            estart,
            lstart,
            lstart_stop,
            last_place,
            halvings,
            minlt,
            contended,
            straight_line,
            assignments,
            mrt,
            ready,
            ready_pos,
            cells_touched: 0,
            conflict_buf,
            eject_buf,
            #[cfg(test)]
            refreshes: (0, 0),
        })
    }

    /// Ends a failed attempt: books its cells and returns its allocations
    /// to `ws`.
    fn end(self, outcome: Attempt, ws: &mut EngineWorkspace, stats: &mut SchedStats) -> Attempt {
        stats.bounds_cells_touched += self.cells_touched;
        self.recycle(ws);
        outcome
    }

    /// Returns every allocation to `ws` for the next attempt to reuse.
    fn recycle(self, ws: &mut EngineWorkspace) {
        ws.dt = self.dt;
        ws.tpos = self.tpos;
        ws.tneg = self.tneg;
        ws.estart = self.estart;
        ws.lstart = self.lstart;
        ws.last_place = self.last_place;
        ws.halvings = self.halvings;
        ws.minlt = self.minlt;
        ws.assignments = self.assignments;
        ws.ready = self.ready;
        ws.ready_pos = self.ready_pos;
        ws.conflict_buf = self.conflict_buf;
        ws.eject_buf = self.eject_buf;
        ws.mrt = Some(self.mrt);
    }

    /// Iterates over the indices of unplaced nodes, driven by the indexed
    /// ready set — O(unplaced), not O(n).
    ///
    /// The order is *arbitrary* (swap-removes permute the set), which is
    /// safe because every heuristic selection key is total: the node index
    /// is its final tie-break component, so the minimum is order-invariant.
    pub fn unplaced(&self) -> impl Iterator<Item = usize> + '_ {
        self.ready.iter().copied()
    }

    /// True if the node is currently placed (Start always is).
    pub fn is_placed(&self, node: usize) -> bool {
        self.tpos[node] != NO_PATH
    }

    /// The node's issue time, or `None` while it is unplaced.
    fn time(&self, node: usize) -> Option<i64> {
        self.is_placed(node).then_some(i64::from(self.tpos[node]))
    }

    /// The current slack of an unplaced node: `Lstart − Estart`, possibly
    /// negative when constraints have crossed.
    pub fn slack(&self, node: usize) -> i64 {
        i64::from(self.lstart[node]) - i64::from(self.estart[node])
    }

    /// The §4.3 dynamic priority: slack, halved for critical operations
    /// (only under resource contention), halved again for divider users.
    /// A positive slack shifts right once per halving, since
    /// `(s / 2) / 2 == s >> 2` for `s > 0`.
    pub fn dynamic_priority(&self, node: usize) -> i64 {
        let slack = self.slack(node);
        if slack <= 0 {
            return slack;
        }
        slack >> self.halvings[node]
    }

    /// Effective earliest start: placement time if placed, else the bound.
    pub fn effective_estart(&self, node: usize) -> i64 {
        self.time(node).unwrap_or(i64::from(self.estart[node]))
    }

    /// Step 2: the first cycle of `node`'s `[Estart, Lstart]` window, from
    /// the end `direction` names, at which it fits the MRT. At most II
    /// consecutive cycles need scanning (§5.2).
    fn scan(&self, node: usize, direction: Direction) -> Option<i64> {
        let e = i64::from(self.estart[node]);
        let l = i64::from(self.lstart[node]);
        let window = i64::from(self.ii) - 1;
        let (lo, hi) = match direction {
            Direction::Early => (e, l.min(e + window)),
            Direction::Late => (e.max(l - window), l),
        };
        if self.problem.is_pseudo(node) {
            // A pseudo node uses no unit, so the first candidate fits.
            let first = if direction == Direction::Early {
                lo
            } else {
                hi
            };
            return (lo <= hi).then_some(first);
        }
        let (op, desc) = (OpId::new(node), self.problem.desc(node));
        let instance = self.assignments[node].instance;
        match direction {
            Direction::Early => self.mrt.first_fit(op, desc, instance, lo, hi),
            Direction::Late => self.mrt.last_fit(op, desc, instance, lo, hi),
        }
    }

    fn place(&mut self, node: usize, t: i32) {
        debug_assert!(!self.is_placed(node));
        if !self.problem.is_pseudo(node) {
            self.mrt.place(
                OpId::new(node),
                self.problem.desc(node),
                self.assignments[node].instance,
                i64::from(t),
            );
        }
        self.tpos[node] = t;
        self.tneg[node] = t;
        self.last_place[node] = Some(i64::from(t));
        // Swap-remove from the ready set, patching the moved node's index.
        let pos = self.ready_pos[node];
        self.ready.swap_remove(pos);
        if let Some(&moved) = self.ready.get(pos) {
            self.ready_pos[moved] = pos;
        }
        self.ready_pos[node] = PLACED;
    }

    fn eject(&mut self, node: usize) {
        let t = self.time(node).expect("ejecting an unplaced node");
        if !self.problem.is_pseudo(node) {
            self.mrt.remove(
                OpId::new(node),
                self.problem.desc(node),
                self.assignments[node].instance,
                t,
            );
        }
        self.tpos[node] = NO_PATH;
        self.tneg[node] = -NO_PATH;
        self.ready_pos[node] = self.ready.len();
        self.ready.push(node);
    }

    /// §4.1 incremental update after placing `node` at `t`: for every node
    /// `u`, `Estart(u) ≥ t + MinDist(node, u)` and
    /// `Lstart(u) ≤ t − MinDist(u, node)`.
    ///
    /// A line the node's own bound already implies is skipped. When `t ==
    /// Estart(node)`, that bound was attained by a placed `z` with `t =
    /// t_z + MinDist(z, node)`, and by the triangle inequality on the
    /// closure `t + MinDist(node, u) ≤ t_z + MinDist(z, u) ≤ Estart(u)`
    /// already. The Estart floor of 0 is no exception: `Start`, placed
    /// at 0, has a 0-weight arc to every op, so its line lies above the
    /// floor everywhere. When `t == Lstart(node)` the Lstart line is
    /// implied the same way, by a placed node or by the `Stop` deadline.
    fn tighten_bounds_after(&mut self, node: usize, t: i32) -> Result<(), OutOfRange> {
        let (estarts, lstarts) = (t != self.estart[node], t != self.lstart[node]);
        lsms_lanes::wide(
            #[inline(always)]
            || {
                if estarts {
                    self.push_estarts_from(node, t);
                }
                if lstarts {
                    self.push_lstarts_from(node, t);
                }
            },
        );
        self.maybe_grow_lstart_stop()?;
        #[cfg(test)]
        self.assert_bounds_from_scratch();
        Ok(())
    }

    /// Raises every Estart to `t + MinDist(z, ·)`: the lower bounds `z`
    /// placed at `t` imposes.
    ///
    /// Both push sweeps run over whole matrix lines without a branch: a
    /// [`NO_PATH`] cell puts `t ± NO_PATH` outside every real bound, and
    /// the bounds of placed nodes are dead state that
    /// [`refresh_bounds`](Self::refresh_bounds) resets before a node
    /// re-enters the ready set.
    #[inline(always)]
    fn push_estarts_from(&mut self, z: usize, t: i32) {
        lines::max_plus(&mut self.estart, self.md.row(z), t);
        self.cells_touched += self.problem.num_nodes() as u64;
    }

    /// Lowers every Lstart to `t − MinDist(·, z)`: the upper bounds `z`
    /// placed at `t` imposes.
    #[inline(always)]
    fn push_lstarts_from(&mut self, z: usize, t: i32) {
        let n = self.problem.num_nodes();
        lines::min_minus(&mut self.lstart, &self.dt[z * n..(z + 1) * n], t);
        self.cells_touched += n as u64;
    }

    /// Full recomputation of the bounds of all unplaced nodes from the
    /// placed set, used after ejections (§4.4), then the §4.2 deadline
    /// check.
    fn recompute_bounds(&mut self) -> Result<(), OutOfRange> {
        self.refresh_bounds(true);
        self.maybe_grow_lstart_stop()?;
        #[cfg(test)]
        self.assert_bounds_from_scratch();
        Ok(())
    }

    /// From-scratch bounds for every unplaced node `u`:
    /// `Lstart(u) = min(Lstart(Stop) − MinDist(u, Stop),
    /// min over placed z of t_z − MinDist(u, z))`, and, when `estarts`,
    /// `Estart(u) = max(0, max over placed z of t_z + MinDist(z, u))`
    /// (`Start`, placed at 0, contributes `MinDist(Start, u)`).
    ///
    /// The same cells can be read from either end, and the refresh reads
    /// them from the smaller one. While the placed nodes are no more
    /// numerous than the unplaced ones it *pushes* each placed node's
    /// lines, as [`tighten_bounds_after`](Self::tighten_bounds_after)
    /// does; otherwise each unplaced node *pulls* its own column and row
    /// against `tpos`/`tneg`, whose unplaced entries drop out of the max
    /// and the min. Pull alone made the slack pass slower everywhere,
    /// push alone on `calibrated` (EXPERIMENTS.md "Dense two-way
    /// MinDist").
    fn refresh_bounds(&mut self, estarts: bool) {
        lsms_lanes::wide(
            #[inline(always)]
            || self.refresh_bounds_from_placed(estarts),
        );
    }

    /// The body of [`refresh_bounds`](Self::refresh_bounds).
    ///
    /// The push branch skips every placed node whose line is implied by
    /// the lines already swept (see
    /// [`tighten_bounds_after`](Self::tighten_bounds_after)). It resets
    /// each bound to the line every refresh starts from — `Start`'s row
    /// for Estart, the `Stop` deadline for Lstart — so that a placed
    /// `z`'s own entry holds the bound the swept lines give it, then
    /// sweeps `z`'s line only when its time is beyond that bound:
    /// `Estart(z) < t_z`, or `Lstart(z) > t_z`. Estarts take the placed
    /// nodes in ascending index, Lstarts in descending index, `Stop`
    /// first; either order is exact.
    #[inline(always)]
    fn refresh_bounds_from_placed(&mut self, estarts: bool) {
        let n = self.problem.num_nodes();
        let (start, stop) = (self.problem.start(), self.problem.stop());
        if n - self.ready.len() <= self.ready.len() {
            if estarts {
                self.estart.copy_from_slice(self.md.row(start));
                self.cells_touched += n as u64;
                for z in (0..n).filter(|&z| z != start) {
                    let t = self.tpos[z];
                    if t != NO_PATH && self.estart[z] < t {
                        self.push_estarts_from(z, t);
                    }
                }
            }
            let deadline = self.lstart_stop;
            for (l, &d) in self
                .lstart
                .iter_mut()
                .zip(&self.dt[stop * n..(stop + 1) * n])
            {
                *l = deadline - d;
            }
            self.cells_touched += n as u64;
            for z in (0..n).rev() {
                let t = self.tpos[z];
                if t != NO_PATH && self.lstart[z] > t {
                    self.push_lstarts_from(z, t);
                }
            }
            #[cfg(test)]
            {
                self.refreshes.0 += 1;
            }
        } else {
            let md = &*self.md;
            for &u in &self.ready {
                if estarts {
                    let into = &self.dt[u * n..(u + 1) * n];
                    self.estart[u] = lines::max_plus_fold(into, &self.tpos, 0);
                }
                let deadline = self.lstart_stop - md.get(u, stop);
                self.lstart[u] = lines::min_minus_fold(md.row(u), &self.tneg, deadline);
            }
            let per_node = 1 + u64::from(estarts);
            self.cells_touched +=
                per_node * (self.ready.len() * n) as u64 + self.ready.len() as u64;
            #[cfg(test)]
            {
                self.refreshes.1 += 1;
            }
        }
    }

    /// §4.2: `Lstart(Stop)` is reset only when `Estart(Stop)` is pushed out
    /// beyond it (being pushed beyond Stop's *placement* is handled by
    /// ejecting Stop during forcing). Loosening `Lstart(Stop)` can only
    /// loosen other Lstarts; refresh them all.
    fn maybe_grow_lstart_stop(&mut self) -> Result<(), OutOfRange> {
        let stop = self.problem.stop();
        if !self.is_placed(stop) && self.estart[stop] > self.lstart_stop {
            let deadline = stop_deadline(
                self.estart[stop],
                self.problem,
                self.ii,
                self.straight_line,
                self.contended,
            );
            self.lstart_stop = stored_time(deadline).ok_or(OutOfRange)?;
            self.refresh_bounds(false);
        }
        Ok(())
    }

    /// Collects into `self.eject_buf`, in ascending node order, every
    /// placed node whose dependence constraints a forced placement of `x`
    /// at `t` violates: `t + MinDist(x, z) > t_z` or
    /// `t_z + MinDist(z, x) > t`. `MinDist` reflects the transitive
    /// closure, so this reaches beyond immediate successors (§4.4).
    /// Testing against `tneg` and `tpos` keeps unplaced nodes and
    /// [`NO_PATH`] cells out of both comparisons without a branch.
    fn collect_dependence_victims(&mut self, x: usize, t: i32) {
        lsms_lanes::wide(
            #[inline(always)]
            || self.collect_dependence_victims_at(x, t),
        );
        #[cfg(test)]
        self.assert_victims_from_scratch(x, t);
    }

    /// The body of
    /// [`collect_dependence_victims`](Self::collect_dependence_victims).
    ///
    /// Victims are few, so the sweep first reduces each block of
    /// [`lines::LANES`] nodes to its largest violation, `max(t + fwd −
    /// tneg, tpos + back − t)`, a branch-free max that vectorizes, and
    /// tests node by node only in a block where that is positive, and
    /// only the nodes no earlier block tested (the last block overlaps
    /// the one before it). The differences stay inside `i32`: each term
    /// is at most `2²⁹` in magnitude.
    #[inline(always)]
    fn collect_dependence_victims_at(&mut self, x: usize, t: i32) {
        let n = self.problem.num_nodes();
        let start = self.problem.start();
        let (fwd, back) = (self.md.row(x), &self.dt[x * n..(x + 1) * n]);
        let (tpos, tneg) = (&self.tpos[..], &self.tneg[..]);
        let victims = &mut self.eject_buf;
        victims.clear();
        let mut scan = |from: usize, to: usize| {
            for z in from..to {
                if z != start && (t + fwd[z] > tneg[z] || tpos[z] + back[z] > t) {
                    victims.push(z);
                }
            }
        };
        if n < lines::LANES {
            scan(0, n);
        } else {
            let mut tested = 0;
            for j in lines::block_starts(n) {
                let (f, b) = (lines::block(fwd, j), lines::block(back, j));
                let (p, q) = (lines::block(tpos, j), lines::block(tneg, j));
                let excess = |k: usize| (t + f[k] - q[k]).max(p[k] + b[k] - t);
                let worst = (0..lines::LANES).fold(0, |m, k| m.max(excess(k)));
                if worst > 0 {
                    scan(tested, j + lines::LANES);
                }
                tested = j + lines::LANES;
            }
        }
        self.cells_touched += 2 * n as u64;
    }

    /// The test oracle behind every bounds update: each unplaced node's
    /// bounds equal the max and min over the placed set, read cell by
    /// cell through [`MinDist::get`].
    #[cfg(test)]
    fn assert_bounds_from_scratch(&self) {
        let n = self.problem.num_nodes();
        let stop = self.problem.stop();
        for u in self.unplaced() {
            let mut e = 0;
            let mut l = i64::from(self.lstart_stop) - i64::from(self.md.get(u, stop));
            for z in 0..n {
                let Some(t) = self.time(z) else { continue };
                let (fwd, back) = (self.md.get(z, u), self.md.get(u, z));
                if fwd != NO_PATH {
                    e = e.max(t + i64::from(fwd));
                }
                if back != NO_PATH {
                    l = l.min(t - i64::from(back));
                }
            }
            let bounds = (i64::from(self.estart[u]), i64::from(self.lstart[u]));
            assert_eq!(bounds, (e, l), "node {u}");
        }
    }

    /// The test oracle behind the victim sweep: the placed nodes other
    /// than `Start` whose constraints `x` at `t` violates, in ascending
    /// order, read cell by cell through [`MinDist::get`].
    #[cfg(test)]
    fn assert_victims_from_scratch(&self, x: usize, t: i32) {
        let t = i64::from(t);
        let violated = |z: usize| {
            let Some(tz) = self.time(z) else { return false };
            let (fwd, back) = (self.md.get(x, z), self.md.get(z, x));
            (fwd != NO_PATH && t + i64::from(fwd) > tz)
                || (back != NO_PATH && tz + i64::from(back) > t)
        };
        let start = self.problem.start();
        let victims: Vec<usize> = (0..self.problem.num_nodes())
            .filter(|&z| z != start && violated(z))
            .collect();
        assert_eq!(self.eject_buf, victims, "victims of {x} at {t}");
    }
}

fn round_up(x: i64, m: i64) -> i64 {
    x.div_euclid(m) * m + if x.rem_euclid(m) == 0 { 0 } else { m }
}

/// The §4.2 `Lstart(Stop)` for a given `Estart(Stop)`. With no resource
/// contention the loop can always meet its critical path; otherwise
/// provide extra slack by rounding up to a multiple of II. In
/// straight-line mode the "II" is a never-wrapping horizon, so the
/// deadline is instead the larger of the critical path and the resource
/// bound on makespan, plus a proportional slack: a bare critical-path
/// deadline leaves zero slack after every ejection and the attempt
/// thrashes.
fn stop_deadline(
    estart_stop: i32,
    problem: &SchedProblem<'_>,
    ii: u32,
    straight_line: bool,
    contended: bool,
) -> i64 {
    let estart_stop = i64::from(estart_stop);
    if straight_line {
        let floor = estart_stop.max(i64::from(problem.res_mii()));
        floor + floor / 8 + 2
    } else if contended {
        round_up(estart_stop, i64::from(ii))
    } else {
        estart_stop
    }
}

/// Outcome of one II attempt.
enum Attempt {
    Success(Vec<i64>, Vec<UnitAssignment>),
    BudgetExhausted,
    InfeasibleIi,
    /// A time or `Lstart(Stop)` left the 32-bit range. The run stops
    /// here rather than escalate: a larger II only raises the rounded
    /// deadline.
    OutOfRange,
}

/// Runs one II attempt: the §4.2 central loop under an iteration budget.
/// Failed attempts return their allocations to `ws` for the next II.
#[allow(clippy::too_many_arguments)]
fn attempt(
    problem: &SchedProblem<'_>,
    ii: u32,
    heuristic: &mut dyn Heuristic,
    budget: u64,
    straight_line: bool,
    cache: &MinDistCache,
    ws: &mut EngineWorkspace,
    stats: &mut SchedStats,
    decisions: &mut DecisionStats,
) -> Attempt {
    let mut st = match EngineState::new_in(problem, ii, straight_line, cache, ws) {
        Ok(st) => st,
        Err(outcome) => return outcome,
    };
    let _attempt_span = lsms_trace::span_with("sched.attempt", &[("ii", i64::from(ii))]);
    heuristic.begin_attempt(&st);
    let brtop = problem.brtop();
    let mut iterations = 0u64;

    while !st.ready.is_empty() {
        iterations += 1;
        stats.central_iterations += 1;
        if iterations > budget {
            return st.end(Attempt::BudgetExhausted, ws, stats);
        }
        // Step 1: choose an operation. The ready set holds exactly the
        // unplaced nodes, so this is what the heuristic will scan.
        stats.choose_scan_len += st.ready.len() as u64;
        let x = heuristic.choose(&st, decisions);
        debug_assert!(!st.is_placed(x));
        // Step 2: search for an issue cycle within the bounds.
        let direction = heuristic.direction(&st, x, decisions);
        let e = i64::from(st.estart[x]);
        let l = i64::from(st.lstart[x]);
        match st.scan(x, direction) {
            Some(t) => {
                // Step 4 & 5: place and tighten bounds.
                lsms_trace::instant(
                    "sched.place",
                    &[
                        ("op", x as i64),
                        ("cycle", t),
                        ("late", i64::from(direction == Direction::Late)),
                        ("slack", l - e),
                    ],
                );
                let Some(t) = stored_time(t) else {
                    return st.end(Attempt::OutOfRange, ws, stats);
                };
                st.place(x, t);
                if st.tighten_bounds_after(x, t).is_err() {
                    return st.end(Attempt::OutOfRange, ws, stats);
                }
            }
            None => {
                // Step 3: force the operation in, ejecting conflicts.
                stats.step3_invocations += 1;
                lsms_trace::instant("sched.mrt_conflict", &[("op", x as i64), ("estart", e)]);
                let mut t = st.last_place[x].map_or(e, |last| e.max(last + 1));
                // brtop cannot be ejected; search successive cycles to
                // avoid resource conflicts with it (§4.4 footnote).
                if !st.problem.is_pseudo(x) {
                    if let Some(br) = brtop {
                        while st.mrt.conflicts_contain(
                            OpId::new(x),
                            st.problem.desc(x),
                            st.assignments[x].instance,
                            t,
                            OpId::new(br),
                        ) {
                            t += 1;
                        }
                    }
                }
                let Some(t32) = stored_time(t) else {
                    return st.end(Attempt::OutOfRange, ws, stats);
                };
                if !st.problem.is_pseudo(x) {
                    // Eject the resource conflicts (into the reused scratch
                    // list — no allocation per forcing step).
                    let mut conflicts = std::mem::take(&mut st.conflict_buf);
                    st.mrt.conflicts_into(
                        OpId::new(x),
                        st.problem.desc(x),
                        st.assignments[x].instance,
                        t,
                        &mut conflicts,
                    );
                    for &z in &conflicts {
                        lsms_trace::instant(
                            "sched.eject",
                            &[("op", z.index() as i64), ("by", x as i64), ("cycle", t)],
                        );
                        st.eject(z.index());
                        stats.ejected_ops += 1;
                    }
                    st.conflict_buf = conflicts;
                }
                lsms_trace::instant(
                    "sched.place",
                    &[("op", x as i64), ("cycle", t), ("forced", 1)],
                );
                st.place(x, t32);
                // Eject every placed operation whose dependence constraints
                // the forced placement violates. `MinDist` reflects the
                // transitive closure, so this reaches beyond immediate
                // successors, which "tends to reduce the overall amount of
                // backtracking and improve the final schedule" (§4.4).
                st.collect_dependence_victims(x, t32);
                let victims = std::mem::take(&mut st.eject_buf);
                for &z in &victims {
                    debug_assert!(
                        Some(z) != brtop,
                        "dependence conflict with brtop cannot be repaired"
                    );
                    lsms_trace::instant(
                        "sched.eject",
                        &[("op", z as i64), ("by", x as i64), ("cycle", t)],
                    );
                    st.eject(z);
                    stats.ejected_ops += 1;
                }
                st.eject_buf = victims;
                if st.recompute_bounds().is_err() {
                    return st.end(Attempt::OutOfRange, ws, stats);
                }
            }
        }
    }
    stats.bounds_cells_touched += st.cells_touched;
    let times: Vec<i64> = (0..problem.num_real_ops())
        .map(|op| st.time(op).expect("all real ops placed"))
        .collect();
    Attempt::Success(times, st.assignments)
}

/// The II escalation loop shared by both schedulers: start at `MII` and on
/// failure increment per the policy (§4.2 and its footnote 6) up to
/// `max_ii`, never past [`SchedProblem::ii_ceiling`]. An optional
/// wall-clock `deadline` caps escalation: once it has passed, a failed
/// attempt fails the run with
/// [`deadline_capped`](crate::SchedFailure::deadline_capped) set instead
/// of trying larger IIs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_framework(
    problem: &SchedProblem<'_>,
    heuristic: &mut dyn Heuristic,
    budget_factor: u64,
    max_ii: u32,
    increment: crate::IiIncrement,
    deadline: Option<std::time::Instant>,
    cache: &MinDistCache,
    decisions: &mut DecisionStats,
    ws: &mut EngineWorkspace,
) -> Result<Schedule, crate::SchedFailure> {
    run_framework_from(
        problem,
        heuristic,
        budget_factor,
        problem.mii().max(1),
        max_ii,
        increment,
        false,
        deadline,
        cache,
        decisions,
        ws,
    )
}

/// As [`run_framework`], but starting the II search at `start_ii` — used
/// by the straight-line mode, whose "II" is just a horizon too large to
/// wrap. A `start_ii` above the ceiling fails the run with
/// [`out_of_range`](crate::SchedFailure::out_of_range) set, as do an
/// attempt that would store a time beyond the 32-bit range and a failed
/// attempt at a ceiling below `max_ii`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_framework_from(
    problem: &SchedProblem<'_>,
    heuristic: &mut dyn Heuristic,
    budget_factor: u64,
    start_ii: u32,
    max_ii: u32,
    increment: crate::IiIncrement,
    straight_line: bool,
    deadline: Option<std::time::Instant>,
    cache: &MinDistCache,
    decisions: &mut DecisionStats,
    // The warm-start workspace: allocations survive failed attempts (and,
    // when the caller keeps the workspace, whole runs).
    ws: &mut EngineWorkspace,
) -> Result<Schedule, crate::SchedFailure> {
    let started = std::time::Instant::now();
    let mut stats = SchedStats::default();
    let fail = |last_ii, mut stats: SchedStats, deadline_capped, out_of_range| {
        stats.elapsed = started.elapsed();
        Err(crate::SchedFailure {
            last_ii,
            stats,
            deadline_capped,
            out_of_range,
        })
    };
    let budget = budget_factor * (problem.num_real_ops() as u64 + 1);
    // A search the ceiling cut short fails as out of range, not as
    // unschedulable: the cap it hit is the arithmetic's, not the caller's.
    let range_capped = max_ii > problem.ii_ceiling();
    let max_ii = max_ii.min(problem.ii_ceiling());
    let mut ii = start_ii.max(1);
    if ii > problem.ii_ceiling() {
        lsms_trace::instant("sched.fail", &[("last_ii", i64::from(ii))]);
        return fail(ii, stats, false, true);
    }
    loop {
        stats.attempts += 1;
        match attempt(
            problem,
            ii,
            heuristic,
            budget,
            straight_line,
            cache,
            ws,
            &mut stats,
            decisions,
        ) {
            Attempt::Success(times, assignments) => {
                stats.elapsed = started.elapsed();
                let schedule = Schedule {
                    ii,
                    times,
                    assignments,
                    stats,
                };
                debug_assert_eq!(crate::validate(problem, &schedule), Ok(()));
                return Ok(schedule);
            }
            Attempt::OutOfRange => {
                lsms_trace::instant("sched.fail", &[("last_ii", i64::from(ii))]);
                return fail(ii, stats, false, true);
            }
            Attempt::BudgetExhausted | Attempt::InfeasibleIi => {
                stats.step6_restarts += 1;
                if ii >= max_ii {
                    lsms_trace::instant("sched.fail", &[("last_ii", i64::from(ii))]);
                    return fail(ii, stats, false, range_capped);
                }
                if let Some(d) = deadline {
                    if std::time::Instant::now() >= d {
                        lsms_trace::instant("sched.budget_capped", &[("last_ii", i64::from(ii))]);
                        return fail(ii, stats, true, false);
                    }
                }
                let step = match increment {
                    crate::IiIncrement::FourPercent => (ii * 4 / 100).max(1),
                    crate::IiIncrement::ByOne => 1,
                };
                let next_ii = (ii + step).min(max_ii);
                // `warm` reports whether the next attempt reuses this
                // one's allocations.
                lsms_trace::instant(
                    "sched.ii_escalate",
                    &[
                        ("from", i64::from(ii)),
                        ("to", i64::from(next_ii)),
                        ("warm", i64::from(ws.mrt.is_some())),
                    ],
                );
                ii = next_ii;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    #[test]
    fn round_up_to_multiples() {
        assert_eq!(round_up(0, 4), 0);
        assert_eq!(round_up(1, 4), 4);
        assert_eq!(round_up(4, 4), 4);
        assert_eq!(round_up(5, 4), 8);
        assert_eq!(round_up(17, 5), 20);
    }

    /// load -> fadd -> store with a spare independent fadd.
    fn chain_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("chain");
        let a = b.invariant(ValueType::Addr, "a");
        let f = b.invariant(ValueType::Float, "f");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let spare = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.op(OpKind::FAdd, &[f, f], Some(spare));
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        b.finish()
    }

    #[test]
    fn initial_bounds_follow_the_critical_path() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, problem.mii(), false, &MinDistCache::new()).unwrap();
        // Estart: load 0, fadd 13, store 14; Stop at 15.
        assert_eq!(st.estart[0], 0);
        assert_eq!(st.estart[1], 13);
        assert_eq!(st.estart[2], 14);
        assert_eq!(st.estart[problem.stop()], 15);
        // ResMII = 2 > 1: Lstart(Stop) rounds 15 up to a multiple of II.
        assert_eq!(
            i64::from(st.lstart_stop),
            round_up(15, i64::from(problem.mii()))
        );
        // The chain ops have slack equal to the rounding provision; the
        // spare fadd has nearly the whole window.
        assert!(st.slack(0) >= 0 && st.slack(0) <= i64::from(problem.mii()));
        assert!(st.slack(3) >= st.slack(1));
    }

    #[test]
    fn dynamic_priority_halves_for_divider_ops() {
        let mut b = LoopBuilder::new("div");
        let f = b.invariant(ValueType::Float, "f");
        let q = b.new_value(ValueType::Float);
        let r = b.new_value(ValueType::Float);
        b.op(OpKind::FDiv, &[f, f], Some(q));
        b.op(OpKind::FAdd, &[f, f], Some(r));
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, problem.mii(), false, &MinDistCache::new()).unwrap();
        // Same slack shape, but the divider op's priority is at most half
        // the raw slack (possibly quartered if the divider is critical).
        let slack_div = st.slack(0);
        if slack_div > 0 {
            assert!(st.dynamic_priority(0) <= slack_div / 2);
        }
        assert!(st.dynamic_priority(1) <= st.slack(1));
    }

    #[test]
    fn per_attempt_assignment_spreads_congruent_ops() {
        // Four independent loads, II = 2: the two ops wanting cycle 0
        // (estart 0 mod 2) must land on different ports.
        let mut b = LoopBuilder::new("mem");
        let a = b.invariant(ValueType::Addr, "a");
        for _ in 0..4 {
            let x = b.new_value(ValueType::Float);
            b.op(OpKind::Load, &[a], Some(x));
        }
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, 2, false, &MinDistCache::new()).unwrap();
        // All four are congruent (estart 0); round-robin alternates
        // instances 0,1,0,1 in order.
        let instances: Vec<u32> = (0..4).map(|i| st.assignments[i].instance).collect();
        assert_eq!(instances.iter().filter(|&&i| i == 0).count(), 2);
        assert_eq!(instances.iter().filter(|&&i| i == 1).count(), 2);
    }

    #[test]
    fn infeasible_ii_yields_no_state() {
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        assert_eq!(problem.rec_mii(), 4);
        assert!(EngineState::new(&problem, 3, false, &MinDistCache::new()).is_none());
        assert!(EngineState::new(&problem, 4, false, &MinDistCache::new()).is_some());
    }

    #[test]
    fn ready_set_mirrors_unplaced_through_place_and_eject() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let cache = MinDistCache::new();
        let mut st = EngineState::new(&problem, problem.mii(), false, &cache).unwrap();
        let check = |st: &EngineState<'_, '_>| {
            let n = st.problem.num_nodes();
            for (pos, &node) in st.ready.iter().enumerate() {
                assert!(!st.is_placed(node));
                assert_eq!(st.ready_pos[node], pos);
            }
            for node in 0..n {
                if st.is_placed(node) {
                    assert_eq!(st.ready_pos[node], PLACED);
                }
            }
            let placed = (0..n).filter(|&node| st.is_placed(node)).count();
            assert_eq!(st.ready.len(), n - placed);
        };
        check(&st);
        // Start is pre-placed and never in the ready set.
        assert!(!st.ready.contains(&problem.start()));
        st.place(0, 0);
        st.tighten_bounds_after(0, 0).unwrap();
        check(&st);
        assert!(!st.ready.contains(&0));
        st.place(1, 13);
        check(&st);
        st.eject(0);
        st.recompute_bounds().unwrap();
        check(&st);
        assert!(st.ready.contains(&0));
        assert!(st.unplaced().any(|x| x == 0));
    }

    /// Places `x` at its first conflict-free cycle from Estart, then
    /// tightens (and so checks) the bounds.
    fn place_early(st: &mut EngineState<'_, '_>, x: usize) {
        let (desc, instance) = (st.problem.desc(x), st.assignments[x].instance);
        let t = (i64::from(st.estart[x])..).find(|&t| st.mrt.fits(OpId::new(x), desc, instance, t));
        let t = stored_time(t.unwrap()).unwrap();
        st.place(x, t);
        st.tighten_bounds_after(x, t).unwrap();
    }

    /// Every tighten and refresh checks itself against the from-scratch
    /// oracle; this drives both refresh directions through it.
    #[test]
    fn push_and_pull_refreshes_both_match_the_oracle() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let cache = MinDistCache::new();
        let mut st = EngineState::new(&problem, problem.mii(), false, &cache).unwrap();
        // Start and the load placed, four nodes unplaced: push.
        place_early(&mut st, 0);
        st.recompute_bounds().unwrap();
        assert_eq!(st.refreshes, (1, 0));
        // Five placed, Stop unplaced; ejecting the store leaves two
        // unplaced against four placed: pull.
        for x in [1, 3, 2] {
            place_early(&mut st, x);
        }
        st.eject(2);
        st.recompute_bounds().unwrap();
        assert_eq!(st.refreshes, (1, 1));
        // The victim sweep reports placed nodes only, in ascending order:
        // forcing the load far past its Estart violates the fadd after it.
        st.eject(0);
        st.recompute_bounds().unwrap();
        st.place(0, 20);
        st.collect_dependence_victims(0, 20);
        assert_eq!(st.eject_buf, [1]);
        assert!(st.cells_touched > 0);
    }

    /// Random dependence graphs through both schedulers: every bounds
    /// update and victim sweep along the way, ejections included, checks
    /// itself against its from-scratch oracle. The 40-op graphs give
    /// each line several blocks, the 12-op ones two that overlap.
    #[test]
    fn random_problems_keep_every_bound_exact() {
        let machine = huff_machine();
        let mut ejecting = 0u32;
        for (case, size) in crate::test_graphs::bound_cases() {
            let body = crate::test_graphs::random_graph(case, size);
            let problem = SchedProblem::new(&body, &machine).unwrap();
            let slack = crate::SlackScheduler::new().run(&problem).unwrap();
            crate::CydromeScheduler::new().run(&problem).unwrap();
            ejecting += u32::from(slack.stats.ejected_ops > 0);
        }
        assert!(ejecting >= 4, "only {ejecting} cases ejected");
    }

    /// The pruned sweeps treat `Start`'s line as covering the Estart
    /// floor of 0: `Start` has a 0-weight arc to every op, so
    /// `MinDist(Start, u) ≥ 0` for every other node, `Stop` included.
    #[test]
    fn start_line_lies_above_the_estart_floor() {
        let machine = huff_machine();
        let mut bodies = vec![chain_body()];
        bodies.extend(
            crate::test_graphs::bound_cases()
                .map(|(case, size)| crate::test_graphs::random_graph(case, size)),
        );
        for body in &bodies {
            let problem = SchedProblem::new(body, &machine).unwrap();
            let md = MinDistCache::new().get(&problem, problem.mii());
            let start = problem.start();
            for u in (0..problem.num_nodes()).filter(|&u| u != start) {
                assert!(md.get(start, u) >= 0, "MinDist(Start, {u})");
            }
        }
    }

    /// A node placed at its own Estart sweeps no Estart line, and one
    /// placed at its Lstart no Lstart line; the bounds stay exact (the
    /// tighten checks itself against the from-scratch oracle).
    #[test]
    fn a_placement_at_its_bound_skips_the_implied_line() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let n = problem.num_nodes() as u64;
        let cache = MinDistCache::new();
        let mut st = EngineState::new(&problem, problem.mii(), false, &cache).unwrap();
        // The load at its Estart 0, well before its Lstart: the Lstart
        // line only.
        assert!(st.estart[0] == 0 && st.lstart[0] > 0);
        let before = st.cells_touched;
        st.place(0, 0);
        st.tighten_bounds_after(0, 0).unwrap();
        assert_eq!(st.cells_touched - before, n);
        // The fadd at its Lstart: the Estart line only.
        let t = st.lstart[1];
        assert!(t > st.estart[1]);
        let before = st.cells_touched;
        st.place(1, t);
        st.tighten_bounds_after(1, t).unwrap();
        assert_eq!(st.cells_touched - before, n);
    }

    #[test]
    fn straight_line_deadline_is_near_the_serial_floor() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, 1000, true, &MinDistCache::new()).unwrap();
        let floor = st.estart[problem.stop()].max(problem.res_mii().try_into().unwrap());
        assert_eq!(st.lstart_stop, floor + floor / 8 + 2);
        // Far below the huge horizon: late placements cannot drift to the
        // end of the window.
        assert!(st.lstart_stop < 100);
    }
}
