//! Runs a closure eight 32-bit lanes wide where the CPU has AVX2.
//!
//! The scheduler's hot loops — Floyd–Warshall and the Estart/Lstart
//! sweeps — are `i32` max/min over whole matrix lines. The workspace
//! builds for baseline x86-64, where those loops vectorize four lanes to
//! an SSE2 register, with `max` emulated by compare and blend. [`wide`]
//! calls its closure from a function compiled with AVX2 enabled when the
//! running CPU supports it, so a closure that inlines there is compiled
//! again with ymm `vpmaxsd`/`vpminsd`. On any other CPU or architecture
//! it calls the closure as is.
//!
//! There is one source for both paths and nothing selects between them
//! but the CPU: no flag, environment variable or cargo feature. The
//! closure must compute the same result either way, which holds for
//! integer code: AVX2 changes how many lanes an instruction covers, not
//! what an `i32` max or min returns.
//!
//! This crate holds the workspace's one `unsafe` block, the call into the
//! AVX2 function after the CPU check.
//!
//! ```
//! let row = [3, -7, 12, 5];
//! let mut bound = [0i32; 4];
//! lsms_lanes::wide(
//!     #[inline(always)]
//!     || {
//!         for (b, &w) in bound.iter_mut().zip(&row) {
//!             *b = (*b).max(10 + w);
//!         }
//!     },
//! );
//! assert_eq!(bound, [13, 3, 22, 15]);
//! ```

#![warn(missing_docs)]

/// Calls `f`, compiled for AVX2 when this CPU supports it, and returns
/// its result.
///
/// The CPU check is a cached load, paid once per call: wrap a whole sweep
/// or a whole Floyd–Warshall, not one row of it. Mark the closure and the
/// functions it reaches `#[inline(always)]`. Code that does not inline
/// into the AVX2 function runs at the baseline width.
#[inline]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` is compiled with AVX2 enabled, and the only
            // requirement for calling it is that the running CPU supports
            // AVX2, which the check above established.
            return unsafe { avx2(f) };
        }
    }
    f()
}

/// `f()`, compiled with AVX2 enabled (the body of `f` with it, where it
/// inlines).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::wide;
    use lsms_prng::SmallRng;

    /// The scheduler's "no path" sentinel, `−2²⁹`.
    const NO_PATH: i32 = -(1 << 29);
    /// The largest magnitude of a MinDist entry.
    const ENTRY: i32 = 1 << 27;
    /// The largest magnitude of a stored time.
    const TIME: i32 = 1 << 28;

    /// A matrix line: mostly `NO_PATH`, entries anywhere in ±2²⁷ and at
    /// both ends of that range.
    fn entries(rng: &mut SmallRng, len: usize) -> Vec<i32> {
        (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 | 1 => NO_PATH,
                2 => ENTRY,
                3 => -ENTRY,
                _ => rng.gen_range(-ENTRY..=ENTRY),
            })
            .collect()
    }

    /// Issue times: anywhere in ±2²⁸ and at both ends, or `unplaced`.
    fn times(rng: &mut SmallRng, len: usize, unplaced: i32) -> Vec<i32> {
        (0..len)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => unplaced,
                1 => TIME,
                2 => -TIME,
                _ => rng.gen_range(-TIME..=TIME),
            })
            .collect()
    }

    #[inline(always)]
    fn max_plus(line: &mut [i32], row: &[i32], t: i32) {
        for (e, &w) in line.iter_mut().zip(row) {
            *e = (*e).max(t + w);
        }
    }

    #[inline(always)]
    fn min_minus(line: &mut [i32], row: &[i32], t: i32) {
        for (l, &w) in line.iter_mut().zip(row) {
            *l = (*l).min(t - w);
        }
    }

    #[inline(always)]
    fn max_plus_fold(row: &[i32], tpos: &[i32]) -> i32 {
        row.iter().zip(tpos).fold(0, |e, (&w, &t)| e.max(t + w))
    }

    #[inline(always)]
    fn min_minus_fold(row: &[i32], tneg: &[i32], deadline: i32) -> i32 {
        row.iter()
            .zip(tneg)
            .fold(deadline, |l, (&w, &t)| l.min(t - w))
    }

    /// Line sweeps (as a placement pushes its bounds) and folds (as an
    /// unplaced node pulls its own) agree inside and outside [`wide`], at
    /// every length up to 300, multiples of eight or not.
    #[test]
    fn wide_sweeps_and_folds_equal_the_plain_call() {
        for len in 0..=300usize {
            let mut rng = SmallRng::seed_from_u64(0x1a_e5 + len as u64);
            let row = entries(&mut rng, len);
            let t = rng.gen_range(-TIME..=TIME);
            let estart = times(&mut rng, len, NO_PATH);
            let lstart = times(&mut rng, len, -NO_PATH);

            let (mut plain, mut lanes) = (estart.clone(), estart.clone());
            max_plus(&mut plain, &row, t);
            wide(
                #[inline(always)]
                || max_plus(&mut lanes, &row, t),
            );
            assert_eq!(plain, lanes, "max-plus sweep, length {len}");

            let (mut plain, mut lanes) = (lstart.clone(), lstart.clone());
            min_minus(&mut plain, &row, t);
            wide(
                #[inline(always)]
                || min_minus(&mut lanes, &row, t),
            );
            assert_eq!(plain, lanes, "min-minus sweep, length {len}");

            let tpos = times(&mut rng, len, NO_PATH);
            let tneg = times(&mut rng, len, -NO_PATH);
            let deadline = rng.gen_range(-TIME..=TIME);
            assert_eq!(
                max_plus_fold(&row, &tpos),
                wide(
                    #[inline(always)]
                    || max_plus_fold(&row, &tpos)
                ),
                "max-plus fold, length {len}"
            );
            assert_eq!(
                min_minus_fold(&row, &tneg, deadline),
                wide(
                    #[inline(always)]
                    || min_minus_fold(&row, &tneg, deadline)
                ),
                "min-minus fold, length {len}"
            );
        }
    }

    #[test]
    fn wide_returns_the_closure_result() {
        let mut calls = 0;
        let r = wide(|| {
            calls += 1;
            "done"
        });
        assert_eq!((r, calls), ("done", 1));
    }
}
