//! The modulo resource table (MRT).

use lsms_ir::OpId;

use crate::{Machine, OpDesc};

/// The `II`-entry table that enforces the modulo constraint: *no resource
/// may be used more than once at the same time modulo the initiation
/// interval* (§1).
///
/// Placing an operation at cycle `t` commits its unit instance at every
/// cycle `t + r (mod II)` for each reservation offset `r` — equivalently at
/// `t + r + k·II` for all `k`, which is why an operation that does not fit
/// at one cycle might not fit at *any* later cycle (§4).
///
/// # Layout
///
/// Cells live in one flat row-major arena. A unit's row starts at
/// `class_base[class] + instance·II`, and kernel cycle `c` of it is the
/// cell `row + c`; a parallel bitset holds one occupancy bit per cell.
/// Every query reduces its issue time to a kernel cycle once, with one
/// `rem_euclid`. Each reservation offset `r` then wraps `cycle + r` by
/// subtraction; only an offset of II or more (a pattern longer than II)
/// pays a division. The window scans [`first_fit`](Self::first_fit) and
/// [`last_fit`](Self::last_fit) step the kernel cycle with the issue time
/// and wrap it at II, so a whole scan pays one `rem_euclid`.
/// [`fits`](Self::fits) is the one-cycle case of the same test. It ORs
/// the occupancy bits of the reservation pattern and consults the
/// occupant arena only when some bit is set (to permit self-collisions).
/// No query allocates except [`conflicts`](Self::conflicts).
#[derive(Clone, Debug)]
pub struct Mrt {
    ii: u32,
    /// Arena offset of each class's first cell; classes with `count`
    /// instances span `count · II` consecutive cells.
    class_base: Vec<usize>,
    /// Occupying op per cell, if any.
    occupant: Vec<Option<OpId>>,
    /// One bit per cell, mirroring `occupant[i].is_some()`.
    occupied: Vec<u64>,
}

impl Mrt {
    /// Creates an empty table for the given machine and candidate II.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn new(machine: &Machine, ii: u32) -> Self {
        let mut mrt = Self {
            ii,
            class_base: Vec::new(),
            occupant: Vec::new(),
            occupied: Vec::new(),
        };
        mrt.reset(machine, ii);
        mrt
    }

    /// The initiation interval this table enforces.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Re-initializes the table in place for a (possibly different) II,
    /// reusing the arena allocations — the II-escalation equivalent of
    /// [`new`](Self::new) without the three fresh `Vec`s per attempt.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn reset(&mut self, machine: &Machine, ii: u32) {
        assert!(ii > 0, "II must be positive");
        self.ii = ii;
        self.class_base.clear();
        let mut total = 0usize;
        for c in machine.classes() {
            self.class_base.push(total);
            total += c.count as usize * ii as usize;
        }
        self.occupant.clear();
        self.occupant.resize(total, None);
        self.occupied.clear();
        self.occupied.resize(total.div_ceil(64), 0);
    }

    /// The kernel cycle `time mod II` an issue at `time` lands on.
    #[inline]
    fn kernel_cycle(&self, time: i64) -> usize {
        debug_assert!(time >= 0, "operations issue at non-negative cycles");
        time.rem_euclid(i64::from(self.ii)) as usize
    }

    /// Arena index of kernel cycle 0 of `instance`'s row.
    #[inline]
    fn row(&self, desc: &OpDesc, instance: u32) -> usize {
        self.class_base[desc.class.index()] + instance as usize * self.ii as usize
    }

    /// Arena index of the cell offset `r` holds for an issue at kernel
    /// cycle `cycle < II` of the row at `row`.
    #[inline]
    fn cell(&self, row: usize, cycle: usize, r: u32) -> usize {
        let ii = self.ii as usize;
        let mut c = cycle + r as usize;
        if c >= ii {
            c -= ii;
            if c >= ii {
                // Only an offset of II or more gets here.
                c %= ii;
            }
        }
        row + c
    }

    #[inline]
    fn bit(&self, i: usize) -> u64 {
        (self.occupied[i >> 6] >> (i & 63)) & 1
    }

    #[inline]
    fn set_bit(&mut self, i: usize, on: bool) {
        if on {
            self.occupied[i >> 6] |= 1 << (i & 63);
        } else {
            self.occupied[i >> 6] &= !(1 << (i & 63));
        }
    }

    /// The distinct operations (other than `this`) whose reservations
    /// collide with placing `this` at `time` on `instance`.
    ///
    /// Allocating wrapper around [`conflicts_into`](Self::conflicts_into).
    pub fn conflicts(&self, this: OpId, desc: &OpDesc, instance: u32, time: i64) -> Vec<OpId> {
        let mut out = Vec::new();
        self.conflicts_into(this, desc, instance, time, &mut out);
        out
    }

    /// As [`conflicts`](Self::conflicts), but appends into a caller-owned
    /// list (cleared first) so hot paths can reuse one buffer.
    pub fn conflicts_into(
        &self,
        this: OpId,
        desc: &OpDesc,
        instance: u32,
        time: i64,
        out: &mut Vec<OpId>,
    ) {
        out.clear();
        let (row, cycle) = (self.row(desc, instance), self.kernel_cycle(time));
        for &r in &desc.reservation {
            if let Some(occ) = self.occupant[self.cell(row, cycle, r)] {
                if occ != this && !out.contains(&occ) {
                    out.push(occ);
                }
            }
        }
    }

    /// True when some reservation cell is held by `needle` — equivalent to
    /// `conflicts(..).contains(&needle)` without building the list.
    pub fn conflicts_contain(
        &self,
        this: OpId,
        desc: &OpDesc,
        instance: u32,
        time: i64,
        needle: OpId,
    ) -> bool {
        let (row, cycle) = (self.row(desc, instance), self.kernel_cycle(time));
        needle != this
            && desc
                .reservation
                .iter()
                .any(|&r| self.occupant[self.cell(row, cycle, r)] == Some(needle))
    }

    /// True if `this` can be placed at `time` without displacing anyone.
    ///
    /// A reservation pattern longer than II collides with *itself* when two
    /// offsets coincide modulo II; self-collisions are permitted (the same
    /// operation occupies the slot), matching the behaviour of a
    /// non-pipelined unit that is simply busy.
    pub fn fits(&self, this: OpId, desc: &OpDesc, instance: u32, time: i64) -> bool {
        self.fits_at(
            this,
            desc,
            self.row(desc, instance),
            self.kernel_cycle(time),
        )
    }

    /// [`fits`](Self::fits) at kernel cycle `cycle < II` of a row.
    #[inline]
    fn fits_at(&self, this: OpId, desc: &OpDesc, row: usize, cycle: usize) -> bool {
        // Fast path: fold the occupancy bits without branching per offset.
        // Almost every query during the scheduler's cycle scan resolves
        // here — the pattern lands on wholly free cells.
        let mut busy = 0u64;
        for &r in &desc.reservation {
            busy |= self.bit(self.cell(row, cycle, r));
        }
        if busy == 0 {
            return true;
        }
        // Some cell is taken; it only blocks if held by a different op.
        desc.reservation
            .iter()
            .all(|&r| match self.occupant[self.cell(row, cycle, r)] {
                None => true,
                Some(occ) => occ == this,
            })
    }

    /// The earliest `t` in `lo..=hi` at which `this` [`fits`](Self::fits),
    /// scanning upward. The kernel cycle steps with `t` and wraps at II.
    pub fn first_fit(
        &self,
        this: OpId,
        desc: &OpDesc,
        instance: u32,
        lo: i64,
        hi: i64,
    ) -> Option<i64> {
        if lo > hi {
            return None;
        }
        let ii = self.ii as usize;
        let row = self.row(desc, instance);
        let mut cycle = self.kernel_cycle(lo);
        for t in lo..=hi {
            if self.fits_at(this, desc, row, cycle) {
                return Some(t);
            }
            cycle += 1;
            if cycle == ii {
                cycle = 0;
            }
        }
        None
    }

    /// The latest `t` in `lo..=hi` at which `this` [`fits`](Self::fits),
    /// scanning downward. The kernel cycle steps with `t` and wraps at II.
    pub fn last_fit(
        &self,
        this: OpId,
        desc: &OpDesc,
        instance: u32,
        lo: i64,
        hi: i64,
    ) -> Option<i64> {
        if lo > hi {
            return None;
        }
        let row = self.row(desc, instance);
        let mut cycle = self.kernel_cycle(hi);
        for t in (lo..=hi).rev() {
            if self.fits_at(this, desc, row, cycle) {
                return Some(t);
            }
            cycle = if cycle == 0 { self.ii as usize } else { cycle } - 1;
        }
        None
    }

    /// Records `this` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if any needed slot is held by a different operation; call
    /// [`fits`](Self::fits) or eject conflicting operations first.
    pub fn place(&mut self, this: OpId, desc: &OpDesc, instance: u32, time: i64) {
        let (row, cycle) = (self.row(desc, instance), self.kernel_cycle(time));
        // Two passes — check everything, then commit everything — so a
        // pattern whose offsets coincide modulo II needs no dedup list.
        for &r in &desc.reservation {
            let i = self.cell(row, cycle, r);
            let slot = self.occupant[i];
            assert!(
                slot.is_none() || slot == Some(this),
                "MRT slot {:?} already held by {:?}",
                (desc.class.index(), instance, i - row),
                slot.unwrap()
            );
        }
        for &r in &desc.reservation {
            let i = self.cell(row, cycle, r);
            self.occupant[i] = Some(this);
            self.set_bit(i, true);
        }
    }

    /// Releases the slots `this` held at `time`.
    ///
    /// # Panics
    ///
    /// Panics if a slot is not actually held by `this` — a sign the caller's
    /// bookkeeping of placement times has drifted from the table.
    pub fn remove(&mut self, this: OpId, desc: &OpDesc, instance: u32, time: i64) {
        let (row, cycle) = (self.row(desc, instance), self.kernel_cycle(time));
        for &r in &desc.reservation {
            let i = self.cell(row, cycle, r);
            assert_eq!(
                self.occupant[i],
                Some(this),
                "MRT slot {:?} not held by {this}",
                (desc.class.index(), instance, i - row)
            );
        }
        for &r in &desc.reservation {
            let i = self.cell(row, cycle, r);
            self.occupant[i] = None;
            self.set_bit(i, false);
        }
    }

    /// Total number of occupied slots (distinct (class, instance, cycle)
    /// cells), for diagnostics.
    pub fn occupancy(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huff_machine;
    use lsms_ir::OpKind;

    #[test]
    fn same_slot_modulo_ii_conflicts() {
        let m = huff_machine();
        let mut mrt = Mrt::new(&m, 4);
        let desc = m.desc(OpKind::FAdd).clone();
        let a = OpId::new(0);
        let b = OpId::new(1);
        mrt.place(a, &desc, 0, 2);
        assert!(!mrt.fits(b, &desc, 0, 6), "2 and 6 coincide mod 4");
        assert!(mrt.fits(b, &desc, 0, 3));
        assert_eq!(mrt.conflicts(b, &desc, 0, 6), vec![a]);
        assert!(mrt.conflicts_contain(b, &desc, 0, 6, a));
        assert!(!mrt.conflicts_contain(b, &desc, 0, 3, a));
    }

    #[test]
    fn reset_matches_a_fresh_table() {
        let m = huff_machine();
        let desc = m.desc(OpKind::FAdd).clone();
        let mut recycled = Mrt::new(&m, 3);
        recycled.place(OpId::new(0), &desc, 0, 1);
        // Reset to a different II: same observable behavior as Mrt::new.
        recycled.reset(&m, 5);
        let fresh = Mrt::new(&m, 5);
        assert_eq!(recycled.ii(), fresh.ii());
        for t in 0..10 {
            assert_eq!(
                recycled.fits(OpId::new(1), &desc, 0, t),
                fresh.fits(OpId::new(1), &desc, 0, t),
                "cycle {t}"
            );
        }
        recycled.place(OpId::new(2), &desc, 0, 2);
        assert!(!recycled.fits(OpId::new(3), &desc, 0, 7), "2 ≡ 7 mod 5");
    }

    #[test]
    fn distinct_instances_do_not_conflict() {
        let m = huff_machine();
        let mut mrt = Mrt::new(&m, 2);
        let desc = m.desc(OpKind::Load).clone();
        mrt.place(OpId::new(0), &desc, 0, 0);
        assert!(mrt.fits(OpId::new(1), &desc, 1, 0));
        assert!(!mrt.fits(OpId::new(1), &desc, 0, 0));
    }

    #[test]
    fn unpipelined_pattern_blocks_whole_window() {
        let m = huff_machine();
        let mut mrt = Mrt::new(&m, 40);
        let div = m.desc(OpKind::FDiv).clone();
        let add_like_div = m.desc(OpKind::IntDiv).clone();
        mrt.place(OpId::new(0), &div, 0, 0);
        // Any divider issue in cycles 0..17 collides.
        for t in 0..17 {
            assert!(!mrt.fits(OpId::new(1), &add_like_div, 0, t), "cycle {t}");
        }
        // At cycle 17 the second divide occupies 17..34 — disjoint mod 40.
        assert!(mrt.fits(OpId::new(1), &add_like_div, 0, 17));
        // A second divide can never coexist below II = 34: at II = 20 every
        // issue cycle wraps into the first divide's window.
        let tight = Mrt::new(&m, 20);
        let mut tight2 = tight.clone();
        tight2.place(OpId::new(0), &div, 0, 0);
        assert!((0..20).all(|t| !tight2.fits(OpId::new(1), &add_like_div, 0, t)));
    }

    #[test]
    fn self_collision_of_long_pattern_is_allowed() {
        let m = huff_machine();
        let mut mrt = Mrt::new(&m, 17);
        let sqrt = m.desc(OpKind::FSqrt).clone(); // 21 offsets > II = 17
        let op = OpId::new(0);
        assert!(mrt.fits(op, &sqrt, 0, 0));
        mrt.place(op, &sqrt, 0, 0);
        // All 17 cycles of the divider are busy; occupancy counts cells.
        assert_eq!(mrt.occupancy(), 17);
        mrt.remove(op, &sqrt, 0, 0);
        assert_eq!(mrt.occupancy(), 0);
    }

    #[test]
    fn place_then_remove_round_trips() {
        let m = huff_machine();
        let mut mrt = Mrt::new(&m, 3);
        let desc = m.desc(OpKind::FMul).clone();
        let op = OpId::new(5);
        mrt.place(op, &desc, 0, 7);
        assert_eq!(mrt.occupancy(), 1);
        mrt.remove(op, &desc, 0, 7);
        assert!(mrt.fits(OpId::new(6), &desc, 0, 7));
    }

    #[test]
    #[should_panic(expected = "already held")]
    fn double_place_panics() {
        let m = huff_machine();
        let mut mrt = Mrt::new(&m, 2);
        let desc = m.desc(OpKind::FAdd).clone();
        mrt.place(OpId::new(0), &desc, 0, 0);
        mrt.place(OpId::new(1), &desc, 0, 2);
    }

    #[test]
    #[should_panic(expected = "II must be positive")]
    fn zero_ii_panics() {
        let _ = Mrt::new(&huff_machine(), 0);
    }

    /// The seed implementation: nested `Vec`s, allocation per query. Kept
    /// as the oracle for the randomized differential test below.
    #[derive(Clone)]
    struct NaiveMrt {
        ii: u32,
        slots: Vec<Vec<Vec<Option<OpId>>>>,
    }

    impl NaiveMrt {
        fn new(machine: &Machine, ii: u32) -> Self {
            let slots = machine
                .classes()
                .iter()
                .map(|c| vec![vec![None; ii as usize]; c.count as usize])
                .collect();
            Self { ii, slots }
        }

        fn cell(&self, desc: &OpDesc, instance: u32, time: i64, r: u32) -> (usize, usize, usize) {
            let cycle = (time + i64::from(r)).rem_euclid(i64::from(self.ii)) as usize;
            (desc.class.index(), instance as usize, cycle)
        }

        fn conflicts(&self, this: OpId, desc: &OpDesc, instance: u32, time: i64) -> Vec<OpId> {
            let mut out = Vec::new();
            for &r in &desc.reservation {
                let (c, u, cyc) = self.cell(desc, instance, time, r);
                if let Some(occ) = self.slots[c][u][cyc] {
                    if occ != this && !out.contains(&occ) {
                        out.push(occ);
                    }
                }
            }
            out
        }

        fn fits(&self, this: OpId, desc: &OpDesc, instance: u32, time: i64) -> bool {
            self.conflicts(this, desc, instance, time).is_empty()
        }

        fn place(&mut self, this: OpId, desc: &OpDesc, instance: u32, time: i64) {
            for &r in &desc.reservation {
                let (c, u, cyc) = self.cell(desc, instance, time, r);
                self.slots[c][u][cyc] = Some(this);
            }
        }

        fn remove(&mut self, _this: OpId, desc: &OpDesc, instance: u32, time: i64) {
            for &r in &desc.reservation {
                let (c, u, cyc) = self.cell(desc, instance, time, r);
                self.slots[c][u][cyc] = None;
            }
        }

        fn occupancy(&self) -> usize {
            self.slots
                .iter()
                .flatten()
                .flatten()
                .filter(|s| s.is_some())
                .count()
        }
    }

    /// Cells of `fast` and `naive` hold the same occupants.
    fn same_cells(fast: &Mrt, naive: &NaiveMrt) -> bool {
        naive.slots.iter().enumerate().all(|(c, units)| {
            units.iter().enumerate().all(|(u, row)| {
                let base = fast.class_base[c] + u * fast.ii as usize;
                row[..] == fast.occupant[base..base + row.len()]
            })
        })
    }

    /// Random tables at every II from 1 to 40, on the paper's machine
    /// (17- and 21-cycle divider patterns, longer than II below 17) and a
    /// machine whose offsets reach past 2·II. The cycle-stepped scans
    /// return what a per-cycle `fits` loop returns, and every query and
    /// update agrees with the `(t + r).rem_euclid(II)` oracle.
    #[test]
    fn kernel_cycle_scans_match_per_cycle_fits_and_the_oracle() {
        use crate::MachineBuilder;
        use lsms_prng::SmallRng;
        let mut b = MachineBuilder::new("long offsets");
        let odd = b.class("Odd", 2);
        b.custom(
            OpKind::FSqrt,
            OpDesc {
                class: odd,
                latency: 3,
                reservation: vec![0, 5, 41, 80, 80],
            },
        );
        b.pipelined(odd, 1, &[OpKind::FAdd]);
        let long = b.finish();
        let huff = huff_machine();
        let cases = [
            (
                &huff,
                vec![OpKind::FDiv, OpKind::FSqrt, OpKind::FAdd, OpKind::Load],
            ),
            (&long, vec![OpKind::FSqrt, OpKind::FAdd]),
        ];
        let mut scans = 0u32;
        for (m, kinds) in &cases {
            for ii in 1..=40u32 {
                let mut rng = SmallRng::seed_from_u64(0x5ca9 + u64::from(ii));
                let mut fast = Mrt::new(m, ii);
                let mut naive = NaiveMrt::new(m, ii);
                let mut placed: Vec<(OpId, OpKind, u32, i64)> = Vec::new();
                for step in 0..120usize {
                    let kind = kinds[rng.gen_range(0..kinds.len())];
                    let desc = m.desc(kind);
                    let instance = rng.gen_range(0..m.classes()[desc.class.index()].count);
                    let this = OpId::new(step);
                    let lo = rng.gen_range(0..3 * i64::from(ii) + 30);
                    let hi = lo + rng.gen_range(-2..2 * i64::from(ii) + 2);
                    let fits = |t: i64| naive.fits(this, desc, instance, t);
                    assert_eq!(
                        fast.first_fit(this, desc, instance, lo, hi),
                        (lo..=hi).find(|&t| fits(t)),
                        "ii {ii} step {step}: first_fit {lo}..={hi}"
                    );
                    assert_eq!(
                        fast.last_fit(this, desc, instance, lo, hi),
                        (lo..=hi).rev().find(|&t| fits(t)),
                        "ii {ii} step {step}: last_fit {lo}..={hi}"
                    );
                    scans += 2;
                    let t = rng.gen_range(0..4 * i64::from(ii) + 30);
                    assert_eq!(fast.fits(this, desc, instance, t), fits(t), "ii {ii}");
                    let mut got = Vec::new();
                    fast.conflicts_into(this, desc, instance, t, &mut got);
                    let want = naive.conflicts(this, desc, instance, t);
                    assert_eq!(got, want, "ii {ii} step {step}: conflicts_into");
                    for &(other, ..) in &placed {
                        assert_eq!(
                            fast.conflicts_contain(this, desc, instance, t, other),
                            want.contains(&other),
                            "ii {ii} step {step}: conflicts_contain {other}"
                        );
                    }
                    if want.is_empty() && rng.gen_bool(0.6) {
                        fast.place(this, desc, instance, t);
                        naive.place(this, desc, instance, t);
                        placed.push((this, kind, instance, t));
                    } else if !placed.is_empty() && rng.gen_bool(0.4) {
                        let (op, kind, instance, t) =
                            placed.swap_remove(rng.gen_range(0..placed.len()));
                        fast.remove(op, m.desc(kind), instance, t);
                        naive.remove(op, m.desc(kind), instance, t);
                    }
                    assert!(same_cells(&fast, &naive), "ii {ii} step {step}: cells");
                    assert_eq!(fast.occupancy(), naive.occupancy(), "ii {ii}");
                }
            }
        }
        assert_eq!(scans, 2 * 2 * 40 * 120);
    }

    #[test]
    fn bitset_mrt_matches_naive_oracle_on_random_sequences() {
        use lsms_prng::SmallRng;
        let m = huff_machine();
        let kinds = [
            OpKind::FAdd,
            OpKind::FMul,
            OpKind::FDiv,
            OpKind::Load,
            OpKind::Store,
            OpKind::IntAdd,
            OpKind::FSqrt,
        ];
        for case in 0u64..64 {
            let mut rng = SmallRng::seed_from_u64(0x317 + case);
            let ii = rng.gen_range(1..24u32);
            let mut fast = Mrt::new(&m, ii);
            let mut naive = NaiveMrt::new(&m, ii);
            // (op, desc index, instance, time) of everything currently placed.
            let mut placed: Vec<(OpId, usize, u32, i64)> = Vec::new();
            let mut next_op = 0usize;
            for _ in 0..200 {
                let ki = rng.gen_range(0..kinds.len());
                let desc = m.desc(kinds[ki]).clone();
                let count = m.classes()[desc.class.index()].count;
                let instance = rng.gen_range(0..count);
                let time = rng.gen_range(0..64i64);
                let this = OpId::new(next_op);
                assert_eq!(
                    fast.fits(this, &desc, instance, time),
                    naive.fits(this, &desc, instance, time),
                    "case {case} ii {ii}: fits diverges"
                );
                assert_eq!(
                    fast.conflicts(this, &desc, instance, time),
                    naive.conflicts(this, &desc, instance, time),
                    "case {case} ii {ii}: conflicts diverge"
                );
                if fast.fits(this, &desc, instance, time) && rng.gen_bool(0.7) {
                    fast.place(this, &desc, instance, time);
                    naive.place(this, &desc, instance, time);
                    placed.push((this, ki, instance, time));
                    next_op += 1;
                } else if !placed.is_empty() && rng.gen_bool(0.5) {
                    let victim = rng.gen_range(0..placed.len());
                    let (op, ki, instance, time) = placed.swap_remove(victim);
                    let desc = m.desc(kinds[ki]).clone();
                    fast.remove(op, &desc, instance, time);
                    naive.remove(op, &desc, instance, time);
                }
                assert_eq!(fast.occupancy(), naive.occupancy(), "case {case} ii {ii}");
            }
        }
    }
}
