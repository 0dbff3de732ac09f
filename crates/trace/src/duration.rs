//! Function execution-duration distribution (paper Fig. 9).
//!
//! The paper analyses the Azure Functions trace and reports this bucketed
//! distribution of execution durations, which it then uses to drive its
//! `fib(N)` benchmark generator:
//!
//! | bucket (ms)   | probability |
//! |---------------|-------------|
//! | [0, 50)       | 55.13 %     |
//! | [50, 100)     |  6.96 %     |
//! | [100, 200)    |  5.61 %     |
//! | [200, 400)    | 11.08 %     |
//! | [400, 1550)   | 11.09 %     |
//! | [1550, ∞)     | 10.14 %     |

use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// One duration bucket with its probability mass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurationBucket {
    /// Inclusive lower bound in milliseconds.
    pub lo_ms: f64,
    /// Exclusive upper bound in milliseconds.
    pub hi_ms: f64,
    /// Probability mass of the bucket.
    pub probability: f64,
}

/// The bucketed execution-duration distribution of Fig. 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationDistribution {
    buckets: Vec<DurationBucket>,
}

impl Default for DurationDistribution {
    fn default() -> Self {
        Self::azure_fig9()
    }
}

impl DurationDistribution {
    /// Cap used for the open-ended `[1550, ∞)` bucket when sampling.
    pub const TAIL_CAP_MS: f64 = 6_000.0;

    /// The paper's Fig. 9 distribution.
    pub fn azure_fig9() -> Self {
        DurationDistribution {
            buckets: vec![
                DurationBucket {
                    lo_ms: 1.0,
                    hi_ms: 50.0,
                    probability: 0.5513,
                },
                DurationBucket {
                    lo_ms: 50.0,
                    hi_ms: 100.0,
                    probability: 0.0696,
                },
                DurationBucket {
                    lo_ms: 100.0,
                    hi_ms: 200.0,
                    probability: 0.0561,
                },
                DurationBucket {
                    lo_ms: 200.0,
                    hi_ms: 400.0,
                    probability: 0.1108,
                },
                DurationBucket {
                    lo_ms: 400.0,
                    hi_ms: 1550.0,
                    probability: 0.1109,
                },
                DurationBucket {
                    lo_ms: 1550.0,
                    hi_ms: Self::TAIL_CAP_MS,
                    probability: 0.1014,
                },
            ],
        }
    }

    /// The buckets.
    pub fn buckets(&self) -> &[DurationBucket] {
        &self.buckets
    }

    /// Samples one execution duration.
    ///
    /// Within a bucket the value is log-uniform, reflecting the heavy skew
    /// of real function durations.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        let b = self.buckets[rng.weighted_pick(self.buckets.iter().map(|b| b.probability))];
        let lo = b.lo_ms.max(0.1);
        let ms = (rng.uniform_range(lo.ln(), b.hi_ms.ln())).exp();
        SimDuration::from_millis_f64(ms)
    }

    /// Index of the bucket containing `d`, or the last bucket for the tail.
    pub fn bucket_of(&self, d: SimDuration) -> usize {
        let ms = d.as_millis_f64();
        for (i, b) in self.buckets.iter().enumerate() {
            if ms < b.hi_ms {
                return i;
            }
        }
        self.buckets.len() - 1
    }

    /// Empirical bucket frequencies of `samples` (for Fig. 9 self-checks).
    pub fn histogram(&self, samples: &[SimDuration]) -> Vec<f64> {
        let mut counts = vec![0usize; self.buckets.len()];
        for &s in samples {
            counts[self.bucket_of(s)] += 1;
        }
        let n = samples.len().max(1) as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_masses_sum_to_one() {
        let d = DurationDistribution::azure_fig9();
        let total: f64 = d.buckets().iter().map(|b| b.probability).sum();
        assert!((total - 1.0).abs() < 1e-3);
    }

    #[test]
    fn samples_match_bucket_masses() {
        let d = DurationDistribution::azure_fig9();
        let mut rng = DetRng::new(11);
        let samples: Vec<SimDuration> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let hist = d.histogram(&samples);
        for (h, b) in hist.iter().zip(d.buckets()) {
            assert!(
                (h - b.probability).abs() < 0.01,
                "bucket {b:?}: observed {h}, expected {}",
                b.probability
            );
        }
    }

    #[test]
    fn samples_stay_in_their_bucket() {
        let d = DurationDistribution::azure_fig9();
        let mut rng = DetRng::new(5);
        for _ in 0..2_000 {
            let s = d.sample(&mut rng);
            let ms = s.as_millis_f64();
            assert!(
                (0.1..=DurationDistribution::TAIL_CAP_MS).contains(&ms),
                "{ms} out of range"
            );
        }
    }

    #[test]
    fn bucket_of_boundaries() {
        let d = DurationDistribution::azure_fig9();
        assert_eq!(d.bucket_of(SimDuration::from_millis(10)), 0);
        assert_eq!(d.bucket_of(SimDuration::from_millis(50)), 1);
        assert_eq!(d.bucket_of(SimDuration::from_millis(1549)), 4);
        assert_eq!(d.bucket_of(SimDuration::from_secs(100)), 5);
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = DurationDistribution::azure_fig9();
        let a: Vec<_> = {
            let mut r = DetRng::new(3);
            (0..50).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = DetRng::new(3);
            (0..50).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
