//! The paper-style "X reduces Y by Z %" comparisons, computed
//! programmatically from [`RunReport`]s.

use crate::report::{percent_reduction, RunReport};
use serde::{Deserialize, Serialize};

/// Reductions achieved by one run relative to a baseline run (positive =
/// the subject uses less; the paper's headline numbers are this shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Baseline scheduler name.
    pub baseline: String,
    /// Subject scheduler name.
    pub subject: String,
    /// Mean end-to-end latency reduction (%).
    pub latency_mean_pct: f64,
    /// p99 end-to-end latency reduction (%).
    pub latency_p99_pct: f64,
    /// Mean memory reduction (%).
    pub memory_pct: f64,
    /// Mean CPU-utilization reduction (%).
    pub cpu_pct: f64,
    /// Provisioned-container reduction (%).
    pub containers_pct: f64,
    /// Cold-invocation-fraction reduction (%).
    pub cold_fraction_pct: f64,
}

impl Comparison {
    /// Compares `subject` against `baseline`.
    pub fn between(baseline: &RunReport, subject: &RunReport) -> Comparison {
        Comparison {
            baseline: baseline.scheduler.clone(),
            subject: subject.scheduler.clone(),
            latency_mean_pct: percent_reduction(
                baseline.end_to_end_cdf().mean().as_secs_f64(),
                subject.end_to_end_cdf().mean().as_secs_f64(),
            ),
            latency_p99_pct: percent_reduction(
                baseline.end_to_end_cdf().quantile(0.99).as_secs_f64(),
                subject.end_to_end_cdf().quantile(0.99).as_secs_f64(),
            ),
            memory_pct: percent_reduction(
                baseline.mean_memory_bytes(),
                subject.mean_memory_bytes(),
            ),
            cpu_pct: percent_reduction(
                baseline.mean_cpu_utilization(),
                subject.mean_cpu_utilization(),
            ),
            containers_pct: percent_reduction(
                baseline.provisioned_containers as f64,
                subject.provisioned_containers as f64,
            ),
            cold_fraction_pct: percent_reduction(baseline.cold_fraction(), subject.cold_fraction()),
        }
    }

    /// True when the subject is no worse than the baseline on every axis.
    pub fn dominates(&self) -> bool {
        [
            self.latency_mean_pct,
            self.latency_p99_pct,
            self.memory_pct,
            self.cpu_pct,
            self.containers_pct,
            self.cold_fraction_pct,
        ]
        .iter()
        .all(|&p| p >= 0.0)
    }
}

/// Compares the last report (the subject, conventionally FaaSBatch) against
/// every other report in `reports`.
///
/// # Panics
///
/// Panics if fewer than two reports are supplied.
pub fn against_all(reports: &[RunReport]) -> Vec<Comparison> {
    assert!(
        reports.len() >= 2,
        "need a subject and at least one baseline"
    );
    let (subject, baselines) = reports.split_last().expect("non-empty");
    baselines
        .iter()
        .map(|b| Comparison::between(b, subject))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{InvocationRecord, LatencyBreakdown};
    use crate::sampler::{ResourceSample, ResourceSampler};
    use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
    use faasbatch_simcore::time::{SimDuration, SimTime};

    fn report(name: &str, exec_ms: u64, mem: u64, containers: u64, cold: bool) -> RunReport {
        let mut sampler = ResourceSampler::new();
        sampler.record(ResourceSample {
            at: SimTime::ZERO,
            memory_bytes: mem,
            busy_cores: exec_ms as f64 / 100.0,
            live_containers: containers,
        });
        let records = vec![InvocationRecord {
            id: InvocationId::new(0),
            function: FunctionId::new(0),
            container: ContainerId::new(0),
            arrival: SimTime::ZERO,
            completion: SimTime::ZERO + SimDuration::from_millis(exec_ms),
            cold,
            restored: false,
            latency: LatencyBreakdown {
                execution: SimDuration::from_millis(exec_ms),
                ..LatencyBreakdown::default()
            },
        }];
        RunReport {
            scheduler: name.into(),
            workload: "t".into(),
            dispatch_interval: None,
            records,
            sampler,
            provisioned_containers: containers,
            warm_hits: 0,
            restored_starts: 0,
            snapshot_stats: Default::default(),
            peak_live_containers: containers,
            core_seconds: 1.0,
            core_seconds_daemon: 0.1,
            core_seconds_platform: 0.0,
            host_cores: 32.0,
            makespan: SimDuration::from_secs(1),
            clients_created: 0,
            client_requests: 0,
            client_bytes_allocated: 0,
            autoscaler: None,
        }
    }

    #[test]
    fn computes_reductions() {
        let base = report("vanilla", 100, 1000, 10, true);
        let subject = report("faasbatch", 25, 250, 2, false);
        let c = Comparison::between(&base, &subject);
        assert!((c.latency_mean_pct - 75.0).abs() < 1e-9);
        assert!((c.memory_pct - 75.0).abs() < 1e-9);
        assert!((c.containers_pct - 80.0).abs() < 1e-9);
        assert!((c.cold_fraction_pct - 100.0).abs() < 1e-9);
        assert!(c.dominates());
    }

    #[test]
    fn regressions_break_dominance() {
        let base = report("vanilla", 100, 1000, 10, false);
        let worse = report("slow", 200, 100, 1, false);
        let c = Comparison::between(&base, &worse);
        assert!(c.latency_mean_pct < 0.0);
        assert!(!c.dominates());
    }

    #[test]
    fn against_all_uses_last_as_subject() {
        let reports = vec![
            report("vanilla", 100, 1000, 10, true),
            report("kraken", 50, 500, 5, true),
            report("faasbatch", 25, 250, 2, false),
        ];
        let cs = against_all(&reports);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].baseline, "vanilla");
        assert_eq!(cs[1].baseline, "kraken");
        assert!(cs.iter().all(|c| c.subject == "faasbatch"));
    }

    #[test]
    #[should_panic(expected = "need a subject")]
    fn against_all_needs_two() {
        against_all(&[report("only", 1, 1, 1, false)]);
    }
}
