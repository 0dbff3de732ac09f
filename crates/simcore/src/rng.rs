//! Deterministic random-number plumbing.
//!
//! Every stochastic component (workload generation, jitter models) draws from
//! a [`DetRng`] seeded explicitly, so a `(seed, config)` pair fully determines
//! an experiment. Independent streams are derived with [`DetRng::fork`] so
//! adding draws to one component never perturbs another.
//!
//! # Examples
//!
//! ```
//! use faasbatch_simcore::rng::DetRng;
//!
//! let mut a = DetRng::new(42);
//! let mut b = DetRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! let mut arrivals = DetRng::new(42).fork("arrivals");
//! let mut durations = DetRng::new(42).fork("durations");
//! assert_ne!(arrivals.next_u64(), durations.next_u64());
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A deterministic, forkable random source.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream identified by `label`.
    ///
    /// Forking is a pure function of `(seed, label)` — it does not consume
    /// randomness from `self`, so components can be forked in any order.
    pub fn fork(&self, label: &str) -> DetRng {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        label.hash(&mut h);
        DetRng::new(h.finish())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        // Inverse-CDF; `1 - u` avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Picks an index according to `weights` (need not be normalised).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero or less.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "no weights");
        self.weighted_pick(weights.iter().copied())
    }

    /// [`weighted_index`](Self::weighted_index) over weights read from an
    /// iterator, walked twice (the sum, then the pick), so a caller whose
    /// weights sit in a field of its items collects nothing. The draw is the
    /// same: one uniform, the same sum, the same subtractions in order.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero or less (an empty iterator does).
    pub fn weighted_pick<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        let total: f64 = weights.clone().sum();
        assert!(total > 0.0, "weights sum to {total}");
        let mut x = self.uniform() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
            last = i;
        }
        last
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_is_order_independent() {
        let root = DetRng::new(7);
        let mut f1 = root.fork("x");
        let root2 = DetRng::new(7);
        let _ = root2.fork("other");
        let mut f2 = root2.fork("x");
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn fork_labels_differ() {
        let root = DetRng::new(7);
        assert_ne!(root.fork("a").next_u64(), root.fork("b").next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform_range(3.0, 5.0);
            assert!((3.0..5.0).contains(&y));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(2);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.15, "observed {observed}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = DetRng::new(3);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn weighted_pick_draws_what_the_collected_slice_drew() {
        // The allocating form this replaced: collect, sum, subtract in order.
        fn collected(rng: &mut DetRng, weights: &[f64]) -> usize {
            let weights: Vec<f64> = weights.to_vec();
            let total: f64 = weights.iter().sum();
            let mut x = rng.uniform() * total;
            for (i, w) in weights.iter().enumerate() {
                x -= w;
                if x < 0.0 {
                    return i;
                }
            }
            weights.len() - 1
        }
        let mut shapes = DetRng::new(9);
        for seed in 0..200 {
            let n = 1 + seed as usize % 7;
            let weights: Vec<f64> = (0..n).map(|_| shapes.uniform() * 0.3).collect();
            let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
            for _ in 0..50 {
                assert_eq!(
                    a.weighted_pick(weights.iter().copied()),
                    collected(&mut b, &weights)
                );
            }
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "weights sum")]
    fn zero_weights_panic() {
        DetRng::new(0).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice sorted (astronomically unlikely)"
        );
    }
}
