//! Order statistics shared by the timed run and `compare`.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make the tail a handful of anecdotes.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile in `n` samples:
/// the smallest rank with at least `p`% of the sample at or below it.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// The nearest-rank `p`-th percentile of an ascending, non-empty sample.
pub fn nearest_rank(sorted: &[f64], p: usize) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here
/// as in any script that checks them. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), 50.0);
        assert_eq!(nearest_rank(&v, 99), 99.0);
        assert_eq!(nearest_rank(&v, 100), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&v, 50), 3.0);
        assert_eq!(nearest_rank(&v, 99), 5.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99), 10);
        assert!(beyond(999, 99) < MIN_BEYOND);
        assert_eq!(beyond(1525, 99), 15);
        assert_eq!(beyond(40, 99), 0);
        assert_eq!(beyond(40, 50), 20);
        assert_eq!(beyond(0, 50), 0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
