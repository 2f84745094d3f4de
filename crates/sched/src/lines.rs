//! The max-plus and min-minus line sweeps behind Floyd–Warshall and the
//! engine's Estart/Lstart upkeep, in blocks of [`LANES`] `i32` cells.
//!
//! A block of eight fills one ymm register where [`lsms_lanes::wide`]
//! found AVX2, and two xmm registers at baseline. The lines are short
//! (29 nodes on average over the corpus), so the tail matters: instead of
//! finishing a line cell by cell, the last block is moved back to end at
//! the line's end and overlaps the block before it. That is exact because
//! every update here is a max or a min with operands the sweep does not
//! change, so applying it to a cell twice gives what applying it once
//! does. Lines shorter than a block are swept whole.

/// Cells per block: one 256-bit vector of `i32`.
pub(crate) const LANES: usize = 8;

/// The offsets of the blocks that cover a line of `n ≥ LANES` cells: every
/// multiple of [`LANES`] that starts a whole block, then `n − LANES` if
/// cells remain.
#[inline(always)]
pub(crate) fn block_starts(n: usize) -> impl Iterator<Item = usize> {
    debug_assert!(n >= LANES);
    (0..n).step_by(LANES).map(move |j| j.min(n - LANES))
}

/// The block of `line` at `j`, as an array.
#[inline(always)]
pub(crate) fn block(line: &[i32], j: usize) -> &[i32; LANES] {
    line[j..j + LANES].try_into().expect("a whole block")
}

/// Updates every cell of `line` to `step(cell, row[j])`; `step` must be
/// idempotent in its first argument, a max or min against the second.
#[inline(always)]
fn sweep(line: &mut [i32], row: &[i32], step: impl Fn(i32, i32) -> i32) {
    let n = line.len();
    assert_eq!(row.len(), n, "lines of one matrix");
    if n < LANES {
        for (cell, &r) in line.iter_mut().zip(row) {
            *cell = step(*cell, r);
        }
        return;
    }
    // Each block is read whole before it is stored, so it becomes one
    // vector operation. The last block is read before any store: read
    // after the store of the block it overlaps, it would wait for that
    // store to retire.
    let swept = |line: &[i32], j: usize| -> [i32; LANES] {
        let (cells, r) = (block(line, j), block(row, j));
        std::array::from_fn(|q| step(cells[q], r[q]))
    };
    let last = n - LANES;
    let tail = swept(line, last);
    for j in (0..last).step_by(LANES) {
        let block = swept(line, j);
        line[j..j + LANES].copy_from_slice(&block);
    }
    line[last..].copy_from_slice(&tail);
}

/// Folds `term(row[j], times[j])` into `init` with `combine`, a max or a
/// min, keeping one partial result per lane until the end.
#[inline(always)]
fn reduce(
    row: &[i32],
    times: &[i32],
    init: i32,
    term: impl Fn(i32, i32) -> i32,
    combine: impl Fn(i32, i32) -> i32,
) -> i32 {
    let n = row.len();
    assert_eq!(times.len(), n, "a matrix line and its times");
    if n < LANES {
        let terms = row.iter().zip(times).map(|(&r, &t)| term(r, t));
        return terms.fold(init, &combine);
    }
    let mut acc = [init; LANES];
    for j in block_starts(n) {
        let (r, t) = (block(row, j), block(times, j));
        for q in 0..LANES {
            acc[q] = combine(acc[q], term(r[q], t[q]));
        }
    }
    acc.into_iter().fold(init, combine)
}

/// `line[j] = max(line[j], t + row[j])` for every `j`.
#[inline(always)]
pub(crate) fn max_plus(line: &mut [i32], row: &[i32], t: i32) {
    sweep(line, row, |cell, r| cell.max(t + r));
}

/// `line[j] = min(line[j], t − row[j])` for every `j`.
#[inline(always)]
pub(crate) fn min_minus(line: &mut [i32], row: &[i32], t: i32) {
    sweep(line, row, |cell, r| cell.min(t - r));
}

/// `max(init, max over j of times[j] + row[j])`.
#[inline(always)]
pub(crate) fn max_plus_fold(row: &[i32], times: &[i32], init: i32) -> i32 {
    reduce(row, times, init, |r, t| t + r, i32::max)
}

/// `min(init, min over j of times[j] − row[j])`.
#[inline(always)]
pub(crate) fn min_minus_fold(row: &[i32], times: &[i32], init: i32) -> i32 {
    reduce(row, times, init, |r, t| t - r, i32::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_prng::SmallRng;

    /// Every block start, and the cells they cover exactly once or twice.
    #[test]
    fn blocks_cover_every_cell() {
        for n in LANES..=40 {
            let mut hits = vec![0u32; n];
            for j in block_starts(n) {
                for h in &mut hits[j..j + LANES] {
                    *h += 1;
                }
            }
            assert!(hits.iter().all(|&h| h == 1 || h == 2), "n = {n}");
            let twice = hits.iter().filter(|&&h| h == 2).count();
            assert_eq!(twice, (LANES - n % LANES) % LANES, "n = {n}");
        }
    }

    type Swept = (Vec<i32>, Vec<i32>, i32, i32);

    /// Every sweep and fold of `row` from `start` at time 17, folds from 5.
    #[inline(always)]
    fn sweep_all(start: &[i32], row: &[i32], times: &[i32]) -> Swept {
        let (mut up, mut down) = (start.to_vec(), start.to_vec());
        max_plus(&mut up, row, 17);
        min_minus(&mut down, row, 17);
        let max = max_plus_fold(row, times, 5);
        (up, down, max, min_minus_fold(row, times, 5))
    }

    /// The blocked sweeps and folds, at the caller's width and inside
    /// [`lsms_lanes::wide`], equal the plain cell-by-cell loops at every
    /// length up to 40.
    #[test]
    fn blocked_lines_match_plain_loops() {
        for n in 0..=40usize {
            let mut rng = SmallRng::seed_from_u64(0x11e5 + n as u64);
            let mut draw = || {
                (0..n)
                    .map(|_| rng.gen_range(-1000..1000i32))
                    .collect::<Vec<_>>()
            };
            let (row, times, start) = (draw(), draw(), draw());
            let cells = start.iter().zip(&row);
            let terms = row.iter().zip(&times);
            let plain: Swept = (
                cells.clone().map(|(&c, &r)| c.max(17 + r)).collect(),
                cells.map(|(&c, &r)| c.min(17 - r)).collect(),
                terms.clone().fold(5, |a, (&r, &t)| a.max(t + r)),
                terms.fold(5, |a, (&r, &t)| a.min(t - r)),
            );
            assert_eq!(sweep_all(&start, &row, &times), plain, "n = {n}");
            let wide = lsms_lanes::wide(
                #[inline(always)]
                || sweep_all(&start, &row, &times),
            );
            assert_eq!(wide, plain, "n = {n}, inside wide");
        }
    }
}
