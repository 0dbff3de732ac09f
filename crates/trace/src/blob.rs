//! Azure-Blob inter-access-time (IaT) model (paper Fig. 3).
//!
//! The paper analyses the public Azure Blob trace (14 days, 33.1 M
//! invocations, 44.3 M accesses) and reports the CDF of the time between
//! consecutive accesses to the same blob: ≈ 80 % of re-accesses happen
//! within 100 ms, ≈ 10 % between 100 ms and 1 s, and the rest later —
//! i.e. blob accesses are bursty, which is what makes caching clients
//! inside a container worthwhile.

use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// One IaT band with its probability mass (log-uniform within the band).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IatBand {
    /// Inclusive lower bound (ms).
    pub lo_ms: f64,
    /// Exclusive upper bound (ms).
    pub hi_ms: f64,
    /// Probability mass.
    pub probability: f64,
}

/// The banded blob inter-access-time distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlobIatModel {
    bands: Vec<IatBand>,
}

impl Default for BlobIatModel {
    fn default() -> Self {
        Self::azure_fig3()
    }
}

impl BlobIatModel {
    /// The paper's Fig. 3 consolidated CDF.
    pub fn azure_fig3() -> Self {
        BlobIatModel {
            bands: vec![
                IatBand {
                    lo_ms: 1.0,
                    hi_ms: 100.0,
                    probability: 0.80,
                },
                IatBand {
                    lo_ms: 100.0,
                    hi_ms: 1_000.0,
                    probability: 0.10,
                },
                IatBand {
                    lo_ms: 1_000.0,
                    hi_ms: 60_000.0,
                    probability: 0.10,
                },
            ],
        }
    }

    /// The bands.
    pub fn bands(&self) -> &[IatBand] {
        &self.bands
    }

    /// Samples one inter-access time.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        let band = self.bands[rng.weighted_pick(self.bands.iter().map(|b| b.probability))];
        let ms = rng.uniform_range(band.lo_ms.ln(), band.hi_ms.ln()).exp();
        SimDuration::from_millis_f64(ms)
    }

    /// Model CDF at `t` (piecewise log-linear within bands).
    pub fn cdf(&self, t: SimDuration) -> f64 {
        let ms = t.as_millis_f64();
        let mut acc = 0.0;
        for b in &self.bands {
            if ms >= b.hi_ms {
                acc += b.probability;
            } else if ms > b.lo_ms {
                let frac = (ms.ln() - b.lo_ms.ln()) / (b.hi_ms.ln() - b.lo_ms.ln());
                acc += b.probability * frac;
                break;
            } else {
                break;
            }
        }
        acc.min(1.0)
    }
}

/// Empirical CDF points `(value, fraction ≤ value)` from raw IaT samples —
/// what the Fig. 3 harness plots per day.
pub fn empirical_cdf(mut samples: Vec<SimDuration>) -> Vec<(SimDuration, f64)> {
    samples.sort_unstable();
    let n = samples.len().max(1) as f64;
    samples
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masses_sum_to_one() {
        let m = BlobIatModel::azure_fig3();
        let total: f64 = m.bands().iter().map(|b| b.probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_matches_paper_landmarks() {
        let m = BlobIatModel::azure_fig3();
        // ≈ 80 % within 100 ms, ≈ 90 % within 1 s.
        assert!((m.cdf(SimDuration::from_millis(100)) - 0.80).abs() < 1e-9);
        assert!((m.cdf(SimDuration::from_secs(1)) - 0.90).abs() < 1e-9);
        assert!((m.cdf(SimDuration::from_secs(60)) - 1.0).abs() < 1e-9);
        assert_eq!(m.cdf(SimDuration::from_micros(500)), 0.0);
    }

    #[test]
    fn samples_match_cdf() {
        let m = BlobIatModel::azure_fig3();
        let mut rng = DetRng::new(9);
        let n = 20_000;
        let below_100ms = (0..n)
            .filter(|_| m.sample(&mut rng) < SimDuration::from_millis(100))
            .count();
        let frac = below_100ms as f64 / n as f64;
        assert!((frac - 0.80).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn cdf_is_monotonic() {
        let m = BlobIatModel::azure_fig3();
        let mut prev = 0.0;
        for ms in [1u64, 10, 100, 500, 1_000, 10_000, 60_000] {
            let c = m.cdf(SimDuration::from_millis(ms));
            assert!(c >= prev, "cdf not monotonic at {ms} ms");
            prev = c;
        }
    }

    #[test]
    fn empirical_cdf_endpoints() {
        let samples = vec![
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            SimDuration::from_millis(30),
            SimDuration::from_millis(40),
        ];
        let cdf = empirical_cdf(samples);
        assert_eq!(cdf[0], (SimDuration::from_millis(10), 0.25));
        assert_eq!(cdf[3], (SimDuration::from_millis(40), 1.0));
    }
}
