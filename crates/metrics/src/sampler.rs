//! Once-per-second host resource sampling (paper §V-B: "we obtain the
//! resource utilization in the host at a frequency of once per second").

use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One host resource sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceSample {
    /// Sample instant.
    pub at: SimTime,
    /// Total allocated memory at the instant.
    pub memory_bytes: u64,
    /// Busy cores at the instant.
    pub busy_cores: f64,
    /// Live (non-terminated) containers.
    pub live_containers: u64,
}

/// Collects [`ResourceSample`]s and summarises them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceSampler {
    samples: Vec<ResourceSample>,
}

impl ResourceSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard sampling period (1 s, as in the paper).
    pub const PERIOD: SimDuration = SimDuration::from_secs(1);

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if samples go backwards in time.
    pub fn record(&mut self, sample: ResourceSample) {
        if let Some(last) = self.samples.last() {
            assert!(sample.at >= last.at, "samples must be time-ordered");
        }
        self.samples.push(sample);
    }

    /// All samples, time-ordered.
    pub fn samples(&self) -> &[ResourceSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean allocated memory across samples (bytes).
    pub fn mean_memory_bytes(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.memory_bytes as f64)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Mean busy-core count.
    pub fn mean_busy_cores(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.busy_cores).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean CPU utilization given the host core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not positive.
    pub fn mean_utilization(&self, cores: f64) -> f64 {
        assert!(cores > 0.0, "invalid core count");
        self.mean_busy_cores() / cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sec: u64, mem: u64, cores: f64, ctrs: u64) -> ResourceSample {
        ResourceSample {
            at: SimTime::from_secs(sec),
            memory_bytes: mem,
            busy_cores: cores,
            live_containers: ctrs,
        }
    }

    #[test]
    fn summaries() {
        let mut s = ResourceSampler::new();
        s.record(sample(0, 100, 2.0, 1));
        s.record(sample(1, 300, 4.0, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean_memory_bytes(), 200.0);
        assert_eq!(s.mean_busy_cores(), 3.0);
        assert_eq!(s.mean_utilization(8.0), 0.375);
    }

    #[test]
    fn empty_sampler_is_zeroes() {
        let s = ResourceSampler::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_memory_bytes(), 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn backwards_sample_panics() {
        let mut s = ResourceSampler::new();
        s.record(sample(5, 0, 0.0, 0));
        s.record(sample(1, 0, 0.0, 0));
    }
}
