//! Offset assignment in a rotating register file.
//!
//! # The conflict model
//!
//! The file rotates once per kernel iteration: register specifiers are
//! added to an iteration control pointer (ICP) that decrements every II
//! cycles (§2.3). A value `v` defined at schedule time `t_v` in iteration
//! `i` resolves its destination offset `o_v` against the ICP at issue, so
//! its instance occupies physical register
//!
//! ```text
//! P(v, i) = (o_v − (i + stage(v))) mod N        stage(v) = t_v div II
//! ```
//!
//! for the `LT(v)` cycles of its lifetime. Instances of `v` and `w` (with
//! iteration skew `d = j − i`) collide exactly when they share a physical
//! register *and* their lifetime intervals overlap, which reduces to the
//! **forbidden-distance** condition
//!
//! ```text
//! o_w ≡ o_v + d + stage(w) − stage(v)   (mod N)
//! for every d with  −LT(w) < d·II + t_w − t_v < LT(v)
//! ```
//!
//! Live-in instances (`i < 0`, seeded before the loop) occupy their
//! register from cycle 0 through their last read, which adds two more
//! terms of the same shape: a seed of one value against the regular
//! instances of the other, and seed against seed.
//!
//! Allocation is then circular graph colouring with distance constraints:
//! order the values, give each the first (or end-fit) non-forbidden
//! offset, and grow `N` from `max(MaxLive, self-overlap minimum)` until
//! everything fits.
//!
//! # Listing the forbidden offsets
//!
//! Solved for the value being placed, the condition reads
//! `o_v ≡ o_w − d − s_w + s_v (mod N)` (`s = stage`): each term forbids
//! `o_w − s_w + s_v + k` for a contiguous range of `k` (`k = −d` over the
//! overlapping skews, then one range per live-in seed). So for each placed
//! value the forbidden offsets are marked directly, instead of testing all
//! `N` candidates against every placed value.
//!
//! The ranges depend on the pair and II, not on `N`, so they are listed
//! once per allocation, before any size is tried. A try then reduces each
//! range's first offset mod `N` once and marks the range as at most two
//! slices of the slot array (all of it when the range is `N` long or
//! more).

use lsms_ir::{RegClass, ValueId};
use lsms_sched::pressure::{lifetimes, live_vector};
use lsms_sched::{SchedProblem, Schedule};

/// The order in which values claim offsets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Ordering {
    /// By definition time (Rau et al.'s *start-time ordering*).
    #[default]
    StartTime,
    /// By decreasing lifetime length, so the hardest values go first
    /// (*adjacency ordering*'s effect: long lifetimes pack end to end).
    LongestFirst,
}

/// How a value picks among its allowed offsets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fit {
    /// The smallest allowed offset.
    #[default]
    FirstFit,
    /// The allowed offset whose predecessor offset is busiest — packing
    /// values tightly against one another (*end fit*).
    EndFit,
}

/// An allocation strategy: ordering × fit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Strategy {
    /// Value ordering.
    pub ordering: Ordering,
    /// Offset choice.
    pub fit: Fit,
}

/// A successful rotating-file allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotatingAllocation {
    /// File size (number of rotating registers used).
    pub num_regs: u32,
    /// Offset per allocated value.
    pub offsets: Offsets,
    /// The `MaxLive` lower bound the search started from.
    pub max_live: u32,
}

impl RotatingAllocation {
    /// How far above `MaxLive` the allocation landed — the §3.2 claim is
    /// that good strategies keep this at 0 or 1 almost always.
    pub fn excess(&self) -> u32 {
        self.num_regs - self.max_live
    }
}

/// Each allocated value's offset, kept sorted by value in one vector: a
/// map with one allocation however many values it holds.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Offsets(Vec<(ValueId, u32)>);

impl Offsets {
    /// The offset of `value`, if it has one.
    pub fn get(&self, value: &ValueId) -> Option<&u32> {
        let at = self.0.binary_search_by_key(value, |&(v, _)| v).ok()?;
        Some(&self.0[at].1)
    }
}

impl FromIterator<(ValueId, u32)> for Offsets {
    /// # Panics
    ///
    /// Panics if a value appears twice.
    fn from_iter<I: IntoIterator<Item = (ValueId, u32)>>(iter: I) -> Self {
        let mut pairs: Vec<(ValueId, u32)> = iter.into_iter().collect();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        assert!(
            pairs.windows(2).all(|w| w[0].0 != w[1].0),
            "one offset per value"
        );
        Self(pairs)
    }
}

impl std::fmt::Debug for Offsets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(v, o)| (v, o)))
            .finish()
    }
}

/// The largest rotating file [`allocate_rotating`] will size. The
/// allocator and the simulator's register file are linear in it, so a
/// recurrence distance long enough to need more registers (about 8.4
/// million) gets [`AllocError::TooManyRegisters`] instead of gigabytes.
pub const MAX_ROTATING_REGS: u32 = 1 << 23;

/// Allocation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No conflict-free assignment found up to the size cap.
    CapExceeded {
        /// The largest file size attempted.
        cap: u32,
    },
    /// The file needs more registers than [`MAX_ROTATING_REGS`] before
    /// any assignment is tried.
    TooManyRegisters {
        /// The lower bound `max(MaxLive, self-overlap minimum, 1)`
        /// (saturating).
        needed: u64,
        /// The limit it exceeds.
        limit: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::CapExceeded { cap } => {
                write!(
                    f,
                    "no conflict-free rotating allocation within {cap} registers"
                )
            }
            AllocError::TooManyRegisters { needed, limit } => write!(
                f,
                "rotating allocation needs at least {needed} registers, above the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// One value's placement-relevant geometry.
#[derive(Clone, Copy, Debug)]
struct Live {
    value: ValueId,
    /// Definition issue time.
    def: i64,
    /// Lifetime length in cycles (> 0).
    len: i64,
    /// Pre-loop instances `j ∈ [-depth, 0)` are *live-ins*: they sit in
    /// the file from cycle 0 (seeded before the loop, like Figure 3's
    /// initial recurrence values) until their last use, so their
    /// occupancy is `[0, j·II + def + len)` — clamped at zero, much
    /// longer than a regular instance's.
    depth: i64,
    /// The offset chosen by the current try.
    offset: u32,
    /// The end of this value's ranges in [`PairTerms::terms`].
    terms_end: usize,
    /// `def` and `len` split by II, set by [`PairTerms::new`].
    split: Split,
}

/// Allocates rotating registers for all live values of `class`
/// (`RegClass::Rr` for the paper's study; `RegClass::Icr` works the same
/// way for predicates).
///
/// Searches file sizes from `max(MaxLive, self-overlap minimum, 1)`
/// upward, where the self-overlap minimum is the smallest `N` with
/// `N·II` above every lifetime; each size tries the strategy's ordering
/// and fit.
///
/// # Errors
///
/// Returns [`AllocError::TooManyRegisters`] when that lower bound is above
/// [`MAX_ROTATING_REGS`], and [`AllocError::CapExceeded`] if no
/// assignment exists within the bound + 64 registers (never observed; a
/// defensive bound).
pub fn allocate_rotating(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    class: RegClass,
    strategy: Strategy,
) -> Result<RotatingAllocation, AllocError> {
    let body = problem.body();
    let of_class = |v: &&lsms_ir::Value| v.reg_class() == class && v.def.is_some();
    let count = body.values().iter().filter(of_class).count();
    // A class with no defined value (most loops have no predicates) has
    // an all-zero live vector and nothing to place.
    if count == 0 {
        return Ok(RotatingAllocation {
            num_regs: 0,
            offsets: Offsets::default(),
            max_live: 0,
        });
    }
    let lt = lifetimes(problem, schedule);
    // The live vector's storage is reused for the offset marks below.
    let mut marks = live_vector(problem, schedule, &lt, class);
    let max_live = marks.iter().copied().max().unwrap_or(0);
    let ii = i64::from(schedule.ii);

    let mut lives: Vec<Live> = Vec::with_capacity(count);
    lives.extend(body.values().iter().filter(of_class).map(|v| {
        let def = v.def.expect("filtered on a definition");
        // Values with no register-flow use still occupy their destination
        // register at the write itself: give them a one-cycle lifetime so
        // every defined value gets an offset (code generation requires
        // it).
        Live {
            value: v.id,
            def: schedule.times[def.index()],
            len: lt[v.id.index()].unwrap_or(1).max(1),
            depth: 0,
            offset: 0,
            terms_end: 0,
            split: Split::default(),
        }
    }));
    drop(lt);
    // Live-in depth: the deepest ω any use reaches back; the first
    // `depth` iterations read pre-loop instances seeded at cycle 0.
    // `lives` is still in value order here.
    for op in body.ops() {
        for (&v, &w) in op.inputs.iter().zip(&op.input_omegas) {
            if w > 0 {
                if let Ok(at) = lives.binary_search_by_key(&v, |l| l.value) {
                    lives[at].depth = lives[at].depth.max(i64::from(w));
                }
            }
        }
    }
    // Both keys end in the value, so they are unique and the unstable
    // sort is deterministic.
    match strategy.ordering {
        Ordering::StartTime => lives.sort_unstable_by_key(|l| (l.def, l.value)),
        Ordering::LongestFirst => lives.sort_unstable_by_key(|l| (-l.len, l.def, l.value)),
    }

    // The self-overlap constraint alone forces N*II >= max lifetime.
    let self_min = lives
        .iter()
        .map(|l| l.len.div_euclid(ii) + 1)
        .max()
        .unwrap_or(1);
    let needed = u64::from(max_live).max(self_min as u64).max(1);
    if needed > u64::from(MAX_ROTATING_REGS) {
        return Err(AllocError::TooManyRegisters {
            needed,
            limit: MAX_ROTATING_REGS,
        });
    }
    let start = needed as u32;
    let cap = start + 64;
    // A live-in seed shares its register with no other instance of its
    // own value only when the file holds more frames than the seeds
    // reach back; smaller sizes fail whatever the offsets.
    let deepest = lives.iter().map(|l| l.depth).max().unwrap_or(0);
    let terms = PairTerms::new(&mut lives, ii);
    marks.reserve_exact((cap as usize).saturating_sub(marks.len()));
    for n in start..=cap {
        if i64::from(n) > deepest && try_size(&mut lives, &terms, n, strategy.fit, &mut marks) {
            return Ok(RotatingAllocation {
                num_regs: n,
                offsets: lives.iter().map(|l| (l.value, l.offset)).collect(),
                max_live,
            });
        }
    }
    lsms_trace::instant(
        "regalloc.alloc_fail",
        &[("max_live", i64::from(max_live)), ("cap", i64::from(cap))],
    );
    Err(AllocError::CapExceeded { cap })
}

/// A contiguous range of forbidden offsets, relative to the offset of the
/// earlier value `w` it comes from: placing the current value anywhere in
/// `o_w + lo ..= o_w + hi (mod N)` collides with `w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Term {
    /// Position of `w` in the placement order.
    w: u32,
    lo: i64,
    hi: i64,
}

/// Every pair's forbidden ranges, in placement order: value `v`'s are
/// `terms[lives[v − 1].terms_end .. lives[v].terms_end]`, the ranges the
/// values placed before it impose on it. They depend on the two values
/// and II only, so one list serves every file size tried.
struct PairTerms {
    terms: Vec<Term>,
}

impl PairTerms {
    fn new(lives: &mut [Live], ii: i64) -> Self {
        for l in lives.iter_mut() {
            l.split = Split::of(l, ii);
        }
        // A pair has at most (1 + a) · (1 + b) ranges, `a` and `b` being 1
        // for a value with live-in seeds and 0 without: the sum over all
        // pairs is ((Σ c)² − Σ c²) / 2 with `c = 1 + a`.
        let (sum, squares) = lives.iter().fold((0, 0), |(sum, squares), l| {
            let c = 1 + usize::from(l.split.seed < 0);
            (sum + c, squares + c * c)
        });
        let mut terms = Vec::with_capacity((sum * sum - squares) / 2);
        for v in 0..lives.len() {
            let split_v = lives[v].split;
            for (w, other) in lives[..v].iter().enumerate() {
                for (lo, hi) in pair_ranges(&split_v, &other.split, ii) {
                    if lo <= hi {
                        terms.push(Term {
                            w: w as u32,
                            lo,
                            hi,
                        });
                    }
                }
            }
            lives[v].terms_end = terms.len();
        }
        Self { terms }
    }

    /// The ranges the values before position `v` impose on it.
    fn of(&self, lives: &[Live], v: usize) -> &[Term] {
        let begin = if v == 0 { 0 } else { lives[v - 1].terms_end };
        &self.terms[begin..lives[v].terms_end]
    }
}

/// Places every value at file size `n`, in order, recording each offset
/// in its [`Live`]; false when some value has no allowed offset. `marks`
/// is scratch, nonzero at forbidden offsets.
fn try_size(lives: &mut [Live], terms: &PairTerms, n: u32, fit: Fit, marks: &mut Vec<u32>) -> bool {
    let size = n as usize;
    marks.resize(size, 0);
    for v in 0..lives.len() {
        marks.fill(0);
        for t in terms.of(lives, v) {
            mark(marks, i64::from(lives[t.w as usize].offset), t.lo, t.hi);
        }
        let choice = match fit {
            Fit::FirstFit => marks.iter().position(|&m| m == 0),
            Fit::EndFit => (0..size).filter(|&o| marks[o] == 0).max_by_key(|&o| {
                // Prefer offsets adjacent to forbidden (busy) slots.
                let prev = if o == 0 { size - 1 } else { o - 1 };
                (marks[prev] != 0, std::cmp::Reverse(o))
            }),
        };
        match choice {
            Some(o) => lives[v].offset = o as u32,
            None => return false,
        }
    }
    true
}

/// Marks the offsets `base + lo ..= base + hi (mod N)`, `N =
/// marks.len()`: all of them when the range is at least `N` long, else
/// one or two slices.
fn mark(marks: &mut [u32], base: i64, lo: i64, hi: i64) {
    let n = marks.len() as i64;
    let count = hi - lo + 1;
    if count >= n {
        marks.fill(1);
        return;
    }
    let mut first = base + lo;
    if !(0..n).contains(&first) {
        first = first.rem_euclid(n);
    }
    let (first, end) = (first as usize, (first + count) as usize);
    let n = n as usize;
    if end <= n {
        marks[first..end].fill(1);
    } else {
        marks[first..].fill(1);
        marks[..end - n].fill(1);
    }
}

/// One value's times split by II, so that a pair's ranges need no
/// division: `def = stage·II + at` and `len = laps·II + rest`, with `at`
/// and `rest` in `[0, II)`, and its lowest live-in seed.
#[derive(Clone, Copy, Debug, Default)]
struct Split {
    stage: i64,
    at: i64,
    laps: i64,
    rest: i64,
    seed: i64,
}

impl Split {
    fn of(l: &Live, ii: i64) -> Self {
        Split {
            stage: l.def.div_euclid(ii),
            at: l.def.rem_euclid(ii),
            laps: l.len.div_euclid(ii),
            rest: l.len.rem_euclid(ii),
            seed: lowest_seed(l, ii),
        }
    }
}

/// `⌊x / II⌋` for `−2·II < x < 2·II`, by comparison.
fn floor_near(x: i64, ii: i64) -> i64 {
    if x < 0 {
        if x < -ii {
            -2
        } else {
            -1
        }
    } else if x < ii {
        0
    } else {
        1
    }
}

/// The offsets at which `v` would collide with `w`, relative to `o_w`,
/// listed straight from the forbidden-distance condition: `o_v ≡ o_w −
/// s_w + s_v + k (mod N)` for each `k` a term allows, one contiguous `k`
/// range per term. Empty ranges have `lo > hi`.
///
/// Instance `i ≥ 0` of `v` occupies rotation frame `i + stage(v)` during
/// `[i·II + t_v, + LT_v)`; live-in instances `i < 0` occupy their frame
/// from cycle 0 through their last read instead.
///
/// Each quotient by II below is the two values' whole parts plus
/// [`floor_near`] of their remainders, which lie within two II of zero.
fn pair_ranges(v: &Split, w: &Split, ii: i64) -> [(i64, i64); 4] {
    let shift = v.stage - w.stage;
    let at = |k_lo: i64, k_hi: i64| (shift + k_lo, shift + k_hi);
    const NONE: (i64, i64) = (0, -1);
    // Regular against regular: k = −d for every skew d = j − i whose
    // lifetimes overlap, −LT_w < d·II + t_w − t_v < LT_v:
    // d_lo = ⌊(−LT_w − t_w + t_v) / II⌋ + 1, d_hi = ⌈(LT_v − t_w + t_v) / II⌉ − 1.
    let d_lo = shift - w.laps + floor_near(v.at - w.at - w.rest, ii) + 1;
    let d_hi = shift + v.laps - floor_near(w.at - v.at - v.rest, ii) - 1;
    // The live-in seeds of each value form one range `[lo, −1]`: see
    // `lowest_seed`. Each term below is the union, over that range, of
    // nested or adjacent `k` ranges, so it is one range itself, whatever
    // the recurrence distance.
    let (seed_v, seed_w) = (v.seed, w.seed);
    [
        at(-d_hi, -d_lo),
        // v's seed j against w's regular instances m written before its
        // last read, m ∈ [0, j + C] with C = ⌊(t_v + LT_v − t_w)/II⌋:
        // k = j − m ∈ [−C, j]. The seed's closed occupancy `[0, end]` is
        // conservative by one cycle but keeps the model immune to
        // read-at-end/write-at-end ordering subtleties. The ranges nest;
        // the seed j = −1 covers them.
        if seed_v < 0 {
            at(-(shift + v.laps + floor_near(v.at + v.rest - w.at, ii)), -1)
        } else {
            NONE
        },
        // w's seed j against v's regular instances m ∈ [0, j + C′]:
        // k = m − j ∈ [−j, C′], C′ = ⌊(t_w + LT_w − t_v)/II⌋.
        if seed_w < 0 {
            at(1, w.laps - shift + floor_near(w.at + w.rest - v.at, ii))
        } else {
            NONE
        },
        // Seed against seed: both are written at loop-setup time and read
        // at or after cycle 0, so sharing a frame is enough: k = j_v − j_w,
        // and the differences of two ranges form one range.
        if seed_v < 0 && seed_w < 0 {
            at(seed_v + 1, -1 - seed_w)
        } else {
            NONE
        },
    ]
}

/// The lowest live-in instance of `l` still read after the loop starts.
/// Those instances are exactly `j ∈ [lowest, −1]`: `j ≥ −depth`, and `j`
/// is read at or after cycle 0 iff `j·II + t + LT ≥ 0`. A result of 0
/// means none.
fn lowest_seed(l: &Live, ii: i64) -> i64 {
    (-l.depth).max(-div_floor(l.def + l.len, ii)).min(0)
}

fn div_floor(a: i64, b: i64) -> i64 {
    a.div_euclid(b)
}

/// Brute-force check of an allocation: replays every value instance over
/// `iters` kernel iterations onto concrete physical registers and cycle
/// numbers, reporting the first double booking.
///
/// Shares no geometry code with the allocator, so it serves as an oracle
/// for property tests.
///
/// # Errors
///
/// Returns the two values (and the physical register) that collide.
pub fn verify_allocation(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    class: RegClass,
    alloc: &RotatingAllocation,
    iters: i64,
) -> Result<(), (ValueId, ValueId, u32)> {
    if alloc.num_regs == 0 {
        return Ok(());
    }
    let lt = lifetimes(problem, schedule);
    let ii = i64::from(schedule.ii);
    let n = i64::from(alloc.num_regs);
    let mut depth = vec![0i64; problem.body().values().len()];
    for op in problem.body().ops() {
        for (&v, &w) in op.inputs.iter().zip(&op.input_omegas) {
            depth[v.index()] = depth[v.index()].max(i64::from(w));
        }
    }
    // occupancy[phys][cycle] = (value, instance)
    let horizon = (iters + 8) * ii + schedule.length() + 8;
    let mut occupancy: Vec<Vec<Option<(ValueId, i64)>>> =
        vec![vec![None; horizon as usize]; alloc.num_regs as usize];
    for v in problem.body().values() {
        if v.reg_class() != class {
            continue;
        }
        let Some(def) = v.def else { continue };
        let Some(&offset) = alloc.offsets.get(&v.id) else {
            continue;
        };
        let len = lt[v.id.index()].unwrap_or(1).max(1);
        // Live-in instances are seeded before the loop and occupy their
        // register from cycle 0 through their last read (closed interval,
        // matching the allocator's conservative seed model).
        for i in -depth[v.id.index()]..iters {
            let t_def = i * ii + schedule.times[def.index()];
            let rotations = t_def.div_euclid(ii);
            let phys = (i64::from(offset) - rotations).rem_euclid(n) as usize;
            let begin = t_def.max(0);
            let end = if i < 0 { t_def + len + 1 } else { t_def + len };
            for c in begin..end.min(horizon) {
                let slot = &mut occupancy[phys][c as usize];
                if let Some((other, inst)) = *slot {
                    if other != v.id || inst != i {
                        return Err((other, v.id, phys as u32));
                    }
                } else {
                    *slot = Some((v.id, i));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use lsms_machine::huff_machine;
    use lsms_prng::SmallRng;
    use lsms_sched::pressure::measure;
    use lsms_sched::SlackScheduler;

    fn div_ceil(a: i64, b: i64) -> i64 {
        -(-a).div_euclid(b)
    }

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy {
                ordering: Ordering::StartTime,
                fit: Fit::FirstFit,
            },
            Strategy {
                ordering: Ordering::StartTime,
                fit: Fit::EndFit,
            },
            Strategy {
                ordering: Ordering::LongestFirst,
                fit: Fit::FirstFit,
            },
            Strategy {
                ordering: Ordering::LongestFirst,
                fit: Fit::EndFit,
            },
        ]
    }

    fn check_loop(src: &str, slack_excess: u32) {
        let unit = compile(src).unwrap();
        let machine = huff_machine();
        for l in &unit.loops {
            let problem = SchedProblem::new(&l.body, &machine).unwrap();
            let schedule = SlackScheduler::new().run(&problem).unwrap();
            let report = measure(&problem, &schedule);
            let mut best = u32::MAX;
            for strategy in strategies() {
                let alloc = allocate_rotating(&problem, &schedule, RegClass::Rr, strategy).unwrap();
                assert_eq!(alloc.max_live, report.rr_max_live);
                best = best.min(alloc.excess());
                verify_allocation(&problem, &schedule, RegClass::Rr, &alloc, 24)
                    .unwrap_or_else(|(a, b, r)| panic!("{a} and {b} collide in r{r}"));
            }
            // The paper's §3.2 claim concerns the *best* strategy: near
            // MaxLive. Live-in seeds (occupying registers from cycle 0)
            // can push individual strategies higher.
            assert!(
                best <= slack_excess,
                "best strategy used MaxLive + {best} (> +{slack_excess})"
            );
        }
    }

    #[test]
    fn allocates_the_sample_loop_near_max_live() {
        check_loop(
            "loop sample(i = 3..n) {
                 real x[], y[];
                 x[i] = x[i-1] + y[i-2];
                 y[i] = y[i-1] + x[i-2];
             }",
            2,
        );
    }

    #[test]
    fn allocates_long_lifetimes_from_loads() {
        check_loop(
            "loop axpy(i = 1..n) {
                 real x[], y[];
                 param real a;
                 y[i] = y[i] + a * x[i];
             }",
            2,
        );
    }

    #[test]
    fn allocates_reductions() {
        check_loop(
            "loop dot(i = 1..n) {
                 real x[], y[];
                 real s;
                 s = s + x[i] * y[i];
             }",
            2,
        );
    }

    #[test]
    fn icr_class_allocates_predicates() {
        let unit = compile(
            "loop clip(i = 1..n) {
                 real x[], y[];
                 param real t;
                 if (x[i] > t) { y[i] = t; } else { y[i] = x[i]; }
             }",
        )
        .unwrap();
        let machine = huff_machine();
        let problem = SchedProblem::new(&unit.loops[0].body, &machine).unwrap();
        let schedule = SlackScheduler::new().run(&problem).unwrap();
        let alloc =
            allocate_rotating(&problem, &schedule, RegClass::Icr, Strategy::default()).unwrap();
        assert!(alloc.num_regs >= 1);
        verify_allocation(&problem, &schedule, RegClass::Icr, &alloc, 24).unwrap();
    }

    #[test]
    fn empty_class_allocates_zero_registers() {
        let unit = compile("loop t(i = 1..n) { real x[]; x[i] = 0.5; }").unwrap();
        let machine = huff_machine();
        let problem = SchedProblem::new(&unit.loops[0].body, &machine).unwrap();
        let schedule = SlackScheduler::new().run(&problem).unwrap();
        let alloc =
            allocate_rotating(&problem, &schedule, RegClass::Icr, Strategy::default()).unwrap();
        assert_eq!(alloc.num_regs, 0);
    }

    /// True when values `v` (at offset `o_v`) and `w` (at `o_w`) have some
    /// pair of instances sharing a physical register while both are live:
    /// the forbidden-distance condition tested one candidate `o_v` at a
    /// time, the oracle for [`pair_ranges`] and [`mark`].
    fn pair_conflicts(v: &Live, o_v: i64, w: &Live, o_w: i64, ii: i64, n: i64) -> bool {
        let s_v = v.def.div_euclid(ii);
        let s_w = w.def.div_euclid(ii);
        // Regular-regular: conflicts depend only on the skew d = j - i.
        let diff = w.def - v.def;
        let d_lo = div_floor(-w.len - diff, ii) + 1;
        let d_hi = div_ceil(v.len - diff, ii) - 1;
        for d in d_lo..=d_hi {
            if (o_w - o_v - d - s_w + s_v).rem_euclid(n) == 0 {
                return true;
            }
        }
        // v's live-in seeds against w's regular instances. A seed whose last
        // read is at cycle `end` occupies its register for `[0, end]` — the
        // closed end is conservative by one cycle but keeps the model immune
        // to read-at-end/write-at-end ordering subtleties.
        let seeds_vs_regular = |a: &Live, o_a: i64, s_a: i64, b: &Live, o_b: i64, s_b: i64| {
            for j in -a.depth..0 {
                let end = j * ii + a.def + a.len;
                if end < 0 {
                    continue; // nothing reads this seed after the loop starts
                }
                // Regular instances m >= 0 of b writing within [0, end].
                let m_hi = div_floor(end - b.def, ii);
                for m in 0..=m_hi.max(-1) {
                    if (o_a - j - s_a - (o_b - m - s_b)).rem_euclid(n) == 0 {
                        return true;
                    }
                }
            }
            false
        };
        if seeds_vs_regular(v, o_v, s_v, w, o_w, s_w) || seeds_vs_regular(w, o_w, s_w, v, o_v, s_v)
        {
            return true;
        }
        // Seed against seed: both are written at loop-setup time and read at
        // or after cycle 0, so sharing a frame is enough.
        for j_v in -v.depth..0 {
            if j_v * ii + v.def + v.len < 0 {
                continue;
            }
            for j_w in -w.depth..0 {
                if j_w * ii + w.def + w.len < 0 {
                    continue;
                }
                if (o_v - j_v - s_v - (o_w - j_w - s_w)).rem_euclid(n) == 0 {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn direct_forbidden_offsets_match_pair_conflicts() {
        fn random_live(rng: &mut SmallRng, ii: i64) -> Live {
            Live {
                value: ValueId::new(0),
                def: rng.gen_range(0..4 * ii),
                len: rng.gen_range(1..=4 * ii),
                depth: rng.gen_range(0..=3i64),
                offset: 0,
                terms_end: 0,
                split: Split::default(),
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x0ff5e7);
        for case in 0..1500 {
            let ii = rng.gen_range(1..=8i64);
            let (v, w) = (random_live(&mut rng, ii), random_live(&mut rng, ii));
            let self_min = v.len.max(w.len).div_euclid(ii) + 1;
            for n in self_min..=self_min + 8 {
                for o_w in 0..n {
                    let mut marks = vec![0u32; n as usize];
                    for (lo, hi) in pair_ranges(&Split::of(&v, ii), &Split::of(&w, ii), ii) {
                        if lo <= hi {
                            mark(&mut marks, o_w, lo, hi);
                        }
                    }
                    let forbidden: Vec<bool> = marks.iter().map(|&m| m != 0).collect();
                    let oracle: Vec<bool> = (0..n)
                        .map(|o_v| pair_conflicts(&v, o_v, &w, o_w, ii, n))
                        .collect();
                    assert_eq!(
                        forbidden, oracle,
                        "case {case}: II {ii}, N {n}, o_w {o_w}, {v:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn floor_near_divides_near_zero() {
        for ii in 1..=9i64 {
            for x in (1 - 2 * ii)..(2 * ii) {
                assert_eq!(floor_near(x, ii), div_floor(x, ii), "{x} / {ii}");
            }
        }
    }

    #[test]
    fn division_helpers() {
        assert_eq!(div_floor(-3, 2), -2);
        assert_eq!(div_floor(3, 2), 1);
        assert_eq!(div_ceil(-3, 2), -1);
        assert_eq!(div_ceil(3, 2), 2);
    }
}
