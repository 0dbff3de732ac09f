//! Deterministic random-number plumbing.
//!
//! Every stochastic component (workload generation, jitter models) draws from
//! a [`DetRng`] seeded explicitly, so a `(seed, config)` pair fully determines
//! an experiment. Independent streams are derived with [`DetRng::fork`] so
//! adding draws to one component never perturbs another.
//!
//! The generator is xoshiro256++ seeded through SplitMix64. Streams are
//! fixed for a seed and a toolchain: `fork` hashes with the standard
//! library's `DefaultHasher`, whose output std does not promise to keep.
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

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A deterministic, forkable random source.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    /// xoshiro256++ state.
    s: [u64; 4],
}

/// One SplitMix64 step: the seeding expander for the xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let s = std::array::from_fn(|_| splitmix64(&mut state));
        DetRng { seed, s }
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

    // The draws are `#[inline]` so that callers in other crates (the live
    // executor's steal order among them) inline them: as plain cross-crate
    // calls they cost `live_burst_batched` ~12 % more CPU per invocation.

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`: the top 53 bits of one word.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)` by the 128-bit multiply-shift.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
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
            let j = self.below(i as u64 + 1) as usize;
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
