//! CDFs, percentiles, and summary statistics.

use faasbatch_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution over durations.
///
/// # Examples
///
/// ```
/// use faasbatch_metrics::stats::Cdf;
/// use faasbatch_simcore::time::SimDuration;
///
/// let cdf = Cdf::from_samples(vec![
///     SimDuration::from_millis(10),
///     SimDuration::from_millis(20),
///     SimDuration::from_millis(30),
///     SimDuration::from_millis(40),
/// ]);
/// assert_eq!(cdf.quantile(0.5), SimDuration::from_millis(20));
/// assert_eq!(cdf.fraction_at_or_below(SimDuration::from_millis(25)), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<SimDuration>,
}

impl Cdf {
    /// Builds a CDF from raw samples (unsorted is fine).
    pub fn from_samples(mut samples: Vec<SimDuration>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[SimDuration] {
        &self.sorted
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method, so the
    /// returned value is always an observed sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!(!self.sorted.is_empty(), "quantile of empty cdf");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_at_or_below(&self, x: SimDuration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> SimDuration {
        if self.sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.sorted.iter().map(|d| d.as_micros() as u128).sum();
        SimDuration::from_micros((total / self.sorted.len() as u128) as u64)
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn max(&self) -> SimDuration {
        *self.sorted.last().expect("max of empty cdf")
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn min(&self) -> SimDuration {
        *self.sorted.first().expect("min of empty cdf")
    }

    /// Evenly spaced CDF points `(value, cumulative fraction)` for plotting;
    /// at most `points` entries, always ending at the maximum.
    pub fn plot_points(&self, points: usize) -> Vec<(SimDuration, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n as f64 / points as f64).max(1.0);
        let mut out = Vec::new();
        let mut i = 0.0;
        while (i as usize) < n {
            let idx = i as usize;
            out.push((self.sorted[idx], (idx + 1) as f64 / n as f64));
            i += step;
        }
        let last = (self.sorted[n - 1], 1.0);
        if out.last() != Some(&last) {
            out.push(last);
        }
        out
    }
}

/// Five-number-style summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Mean.
    pub mean: SimDuration,
    /// Median (p50).
    pub p50: SimDuration,
    /// p95.
    pub p95: SimDuration,
    /// p98 (the paper's Kraken SLO anchor).
    pub p98: SimDuration,
    /// p99.
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl Summary {
    /// Summarises samples; `None` when empty.
    pub fn from_samples(samples: Vec<SimDuration>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let cdf = Cdf::from_samples(samples);
        Some(Summary {
            count: cdf.len(),
            mean: cdf.mean(),
            p50: cdf.quantile(0.50),
            p95: cdf.quantile(0.95),
            p98: cdf.quantile(0.98),
            p99: cdf.quantile(0.99),
            max: cdf.max(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf = Cdf::from_samples((1..=100).map(ms).collect());
        assert_eq!(cdf.quantile(0.01), ms(1));
        assert_eq!(cdf.quantile(0.50), ms(50));
        assert_eq!(cdf.quantile(0.98), ms(98));
        assert_eq!(cdf.quantile(1.0), ms(100));
        assert_eq!(cdf.quantile(0.0), ms(1));
    }

    #[test]
    fn fraction_at_or_below_works() {
        let cdf = Cdf::from_samples(vec![ms(10), ms(20), ms(30), ms(40)]);
        assert_eq!(cdf.fraction_at_or_below(ms(5)), 0.0);
        assert_eq!(cdf.fraction_at_or_below(ms(10)), 0.25);
        assert_eq!(cdf.fraction_at_or_below(ms(40)), 1.0);
        assert_eq!(cdf.fraction_at_or_below(ms(400)), 1.0);
    }

    #[test]
    fn mean_min_max() {
        let cdf = Cdf::from_samples(vec![ms(30), ms(10), ms(20)]);
        assert_eq!(cdf.mean(), ms(20));
        assert_eq!(cdf.min(), ms(10));
        assert_eq!(cdf.max(), ms(30));
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(Vec::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(ms(1)), 0.0);
        assert_eq!(cdf.mean(), SimDuration::ZERO);
        assert!(cdf.plot_points(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn quantile_of_empty_panics() {
        Cdf::from_samples(Vec::new()).quantile(0.5);
    }

    #[test]
    fn plot_points_cover_range() {
        let cdf = Cdf::from_samples((1..=1000).map(ms).collect());
        let pts = cdf.plot_points(50);
        assert!(pts.len() <= 52);
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn plot_points_smaller_than_requested() {
        let cdf = Cdf::from_samples(vec![ms(1), ms(2)]);
        let pts = cdf.plot_points(10);
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::from_samples((1..=100).map(ms).collect()).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, ms(50));
        assert_eq!(s.p98, ms(98));
        assert_eq!(s.max, ms(100));
        assert!(Summary::from_samples(Vec::new()).is_none());
    }
}
