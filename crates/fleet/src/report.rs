//! Fleet-level result bundle: per-worker [`RunReport`]s plus the merged,
//! fleet-attributed invocation records and aggregate statistics
//! (load-imbalance CoV, warm-hit rate, retry accounting).

use crate::config::WorkerFault;
use faasbatch_container::ids::InvocationId;
use faasbatch_metrics::latency::InvocationRecord;
use faasbatch_metrics::report::RunReport;
use faasbatch_metrics::stats::Cdf;
use faasbatch_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// One completed invocation, attributed to the worker that ran it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRecord {
    /// The completion record. `id` and `arrival` are the *fleet* identity
    /// and original arrival; any re-dispatch gap after a crash is folded
    /// into `latency.scheduling`, so the record stays internally consistent
    /// (`completion - arrival == Σ latency components`).
    pub record: InvocationRecord,
    /// Worker that completed the invocation.
    pub worker: usize,
    /// Re-dispatch attempts consumed (0 = completed on first placement).
    pub retries: u32,
    /// Total re-dispatch delay folded into `record.latency.scheduling`.
    pub retry_delay: SimDuration,
}

/// One worker's view of the fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// The fault injected on this worker, if any.
    pub fault: Option<WorkerFault>,
    /// Invocations this worker completed.
    pub completed: usize,
    /// Invocations lost to a crash on this worker and re-dispatched
    /// elsewhere: those it held at the crash, plus members of groups placed
    /// on it before the crash that arrived after.
    pub lost: usize,
    /// The worker's report. A crashed worker's ends at the crash instant:
    /// records, samples and resource counters (containers, core-seconds,
    /// clients) describe only work that ran before it.
    pub report: RunReport,
}

/// Results of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Routing policy name.
    pub policy: String,
    /// Per-worker scheduler name.
    pub scheduler: String,
    /// Workload label.
    pub workload: String,
    /// Per-worker reports, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Merged records, sorted by fleet invocation id (dense: every workload
    /// invocation completes exactly once).
    pub records: Vec<FleetRecord>,
    /// Total re-dispatch attempts across the run.
    pub retries: u64,
    /// Total re-dispatch delay charged to scheduling latency.
    pub retry_delay_total: SimDuration,
    /// Fleet wall-clock: first original arrival to last completion.
    pub makespan: SimDuration,
}

/// Population coefficient of variation; zero for an empty or all-zero set.
fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

impl FleetReport {
    /// CDF of fleet end-to-end latency (includes re-dispatch delay).
    pub fn end_to_end_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .map(|r| r.record.latency.end_to_end())
                .collect(),
        )
    }

    /// CDF of fleet scheduling latency (includes re-dispatch delay).
    pub fn scheduling_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .map(|r| r.record.latency.scheduling)
                .collect(),
        )
    }

    /// Load imbalance: coefficient of variation of mean busy cores across
    /// workers. 0 = perfectly even; higher = more skewed placement.
    pub fn load_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .workers
            .iter()
            .map(|w| w.report.sampler.mean_busy_cores())
            .collect();
        coefficient_of_variation(&busy)
    }

    /// Fleet-wide warm-hit rate: warm-pool hits over all container
    /// acquisitions (warm hits + cold provisions).
    pub fn warm_hit_rate(&self) -> f64 {
        let warm: u64 = self.workers.iter().map(|w| w.report.warm_hits).sum();
        let cold: u64 = self
            .workers
            .iter()
            .map(|w| w.report.provisioned_containers)
            .sum();
        if warm + cold == 0 {
            0.0
        } else {
            warm as f64 / (warm + cold) as f64
        }
    }

    /// Containers provisioned across the fleet.
    pub fn provisioned_containers(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.report.provisioned_containers)
            .sum()
    }

    /// Ids of records whose latency components do not add up — always empty
    /// for a correct run; exposed for tests.
    pub fn inconsistencies(&self) -> Vec<InvocationId> {
        self.records
            .iter()
            .filter(|r| !r.record.is_consistent())
            .map(|r| r.record.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cov_of_uniform_is_zero() {
        assert_eq!(coefficient_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cov_of_skew_is_positive() {
        let c = coefficient_of_variation(&[0.0, 4.0]);
        assert!((c - 1.0).abs() < 1e-12, "got {c}");
    }
}
