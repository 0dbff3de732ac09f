//! Order statistics the benchmark reports: nearest-rank quantiles, medians,
//! quartile spread, and the "highest percentile that still has at least ten
//! samples beyond it" rule of the choosing-metrics guide.

/// Percentile ladder for [`tail_percentile`], lowest first.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest element with at
/// least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `0.0..=1.0`.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns its nearest-rank quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// Median that averages the two middle values of an even-sized sample (what
/// Python's `statistics.median` does), so a median of medians does not favour
/// the lower half.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest ladder percentile with at least [`TAIL_SUPPORT`] of `n`
/// samples strictly beyond its nearest-rank position, or `None` when even
/// the median lacks that support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&q| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        n >= rank + TAIL_SUPPORT
    })
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them — the spread rule the
/// benchmark's bounds are judged with.
///
/// # Panics
///
/// Panics if fewer than two values are given.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Signed: a clamped position extrapolates, exactly as Python does.
        let delta = pos as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread_share(values: &mut [f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_positions() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.98), 98);
        assert_eq!(quantile_sorted(&v, 0.991), 100);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7u64], 0.99), 7);
        // 5 samples: p50 is the 3rd, p51 already the 3rd, p61 the 4th.
        let w = [10u64, 20, 30, 40, 50];
        assert_eq!(quantile_sorted(&w, 0.5), 30);
        assert_eq!(quantile_sorted(&w, 0.6), 30);
        assert_eq!(quantile_sorted(&w, 0.61), 40);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: rank 10 is the median, ten lie beyond it.
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(280_000), Some(0.9999));
        assert_eq!(tail_percentile(1_000_000), Some(0.99999));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), (0.75, 2.25));
        let share = spread_share(&mut v);
        assert!((share - 1.0).abs() < 1e-12, "{share}");
    }
}
