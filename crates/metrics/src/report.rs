//! Per-run result bundle: everything a paper figure needs from one
//! scheduler × workload execution.

use crate::autoscaler::AutoscalerStats;
use crate::latency::InvocationRecord;
use crate::sampler::ResourceSampler;
use crate::stats::{Cdf, Summary};
use faasbatch_container::snapshot::SnapshotStats;
use faasbatch_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Results of running one scheduler over one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheduler name (`vanilla`, `kraken`, `sfs`, `faasbatch`).
    pub scheduler: String,
    /// Workload label (`cpu`, `io`, …).
    pub workload: String,
    /// Dispatch interval / batch window used, if applicable.
    pub dispatch_interval: Option<SimDuration>,
    /// One record per completed invocation.
    pub records: Vec<InvocationRecord>,
    /// Once-per-second host samples.
    pub sampler: ResourceSampler,
    /// Containers provisioned (== cold starts).
    pub provisioned_containers: u64,
    /// Warm-pool hits.
    pub warm_hits: u64,
    /// Starts served from the snapshot tier (restore instead of full boot).
    #[serde(default)]
    pub restored_starts: u64,
    /// Snapshot-cache counters (all zero when the tier is disabled).
    #[serde(default)]
    pub snapshot_stats: SnapshotStats,
    /// Peak simultaneously live containers.
    pub peak_live_containers: u64,
    /// Total CPU core-seconds burned.
    pub core_seconds: f64,
    /// Core-seconds burned by the container daemon (launch/dispatch
    /// processing) — the scheduling overhead FaaSBatch attacks.
    pub core_seconds_daemon: f64,
    /// Core-seconds burned by platform-side bookkeeping (e.g. SFS's
    /// user-space scheduler).
    pub core_seconds_platform: f64,
    /// Host core count.
    pub host_cores: f64,
    /// Wall-clock (simulated) time from first arrival to last completion.
    pub makespan: SimDuration,
    /// Storage clients actually created (I/O workloads; cache misses only
    /// under FaaSBatch).
    pub clients_created: u64,
    /// Client-creation requests issued (≥ `clients_created` under
    /// multiplexing).
    pub client_requests: u64,
    /// Cumulative bytes allocated for storage clients over the run (each
    /// creation charges one client footprint).
    pub client_bytes_allocated: u64,
    /// The controller's counters when the run had one
    /// (`SimConfig::autoscaler`); `None` for a static run.
    #[serde(default)]
    pub autoscaler: Option<AutoscalerStats>,
}

impl RunReport {
    /// CDF of scheduling latency (cold start excluded, per the paper).
    pub fn scheduling_cdf(&self) -> Cdf {
        Cdf::from_samples(self.records.iter().map(|r| r.latency.scheduling).collect())
    }

    /// CDF of cold-start latency (zeros included — Fig. 11(b)/12(b) plot
    /// the whole population).
    pub fn cold_start_cdf(&self) -> Cdf {
        Cdf::from_samples(self.records.iter().map(|r| r.latency.cold_start).collect())
    }

    /// CDF of execution latency alone.
    pub fn execution_cdf(&self) -> Cdf {
        Cdf::from_samples(self.records.iter().map(|r| r.latency.execution).collect())
    }

    /// CDF of execution + queuing (Kraken's `Exec+Queue` series).
    pub fn exec_queue_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .map(|r| r.latency.exec_plus_queue())
                .collect(),
        )
    }

    /// CDF of end-to-end invocation latency.
    pub fn end_to_end_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .map(|r| r.latency.end_to_end())
                .collect(),
        )
    }

    /// Summary of end-to-end latency; `None` when no records exist.
    pub fn latency_summary(&self) -> Option<Summary> {
        Summary::from_samples(
            self.records
                .iter()
                .map(|r| r.latency.end_to_end())
                .collect(),
        )
    }

    /// Mean allocated memory over the run (bytes).
    pub fn mean_memory_bytes(&self) -> f64 {
        self.sampler.mean_memory_bytes()
    }

    /// Mean CPU utilization over the run.
    pub fn mean_cpu_utilization(&self) -> f64 {
        self.sampler.mean_utilization(self.host_cores)
    }

    /// Invocations served per provisioned container (the paper's
    /// 400 / 16.5 ≈ 24.39-style metric).
    pub fn invocations_per_container(&self) -> f64 {
        if self.provisioned_containers == 0 {
            0.0
        } else {
            self.records.len() as f64 / self.provisioned_containers as f64
        }
    }

    /// Fraction of invocations that experienced a cold start.
    pub fn cold_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.cold).count() as f64 / self.records.len() as f64
    }

    /// Average bytes of client memory allocated per client-creation
    /// *request* — the Fig. 14(d) metric (≈15 MB for the baselines, ≪1 MB
    /// under FaaSBatch's multiplexer because most requests are cache hits).
    pub fn client_memory_per_request(&self) -> f64 {
        if self.client_requests == 0 {
            0.0
        } else {
            self.client_bytes_allocated as f64 / self.client_requests as f64
        }
    }

    /// Verifies record-level invariants, returning the ids of inconsistent
    /// records (empty = all good).
    pub fn inconsistencies(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter(|r| !r.is_consistent())
            .map(|r| r.id.value())
            .collect()
    }
}

/// Percentage reduction of `ours` relative to `baseline`
/// (`75.0` = we use 75 % less). Negative when we are worse.
pub fn percent_reduction(baseline: f64, ours: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// Renders rows as an aligned text table (headers + `---` rule).
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: &[&str]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_owned()
    };
    let rules: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let rule_refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    let mut out = String::new();
    out.push_str(&render(headers));
    out.push('\n');
    out.push_str(&render(&rule_refs));
    out.push('\n');
    for row in rows {
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        out.push_str(&render(&cells));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyBreakdown;
    use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
    use faasbatch_simcore::time::SimTime;

    fn report() -> RunReport {
        let mk = |n: u64, exec_ms: u64, cold: bool| InvocationRecord {
            id: InvocationId::new(n),
            function: FunctionId::new(0),
            container: ContainerId::new(n),
            arrival: SimTime::from_secs(n),
            completion: SimTime::from_secs(n) + SimDuration::from_millis(exec_ms),
            cold,
            restored: false,
            latency: LatencyBreakdown {
                execution: SimDuration::from_millis(exec_ms),
                ..LatencyBreakdown::default()
            },
        };
        RunReport {
            scheduler: "test".into(),
            workload: "cpu".into(),
            dispatch_interval: Some(SimDuration::from_millis(200)),
            records: vec![
                mk(0, 10, true),
                mk(1, 20, false),
                mk(2, 30, false),
                mk(3, 40, true),
            ],
            sampler: ResourceSampler::new(),
            provisioned_containers: 2,
            warm_hits: 2,
            restored_starts: 0,
            snapshot_stats: SnapshotStats::default(),
            peak_live_containers: 2,
            core_seconds: 0.1,
            core_seconds_daemon: 0.01,
            core_seconds_platform: 0.0,
            host_cores: 32.0,
            makespan: SimDuration::from_secs(4),
            clients_created: 1,
            client_requests: 4,
            client_bytes_allocated: 15 << 20,
            autoscaler: None,
        }
    }

    #[test]
    fn cdfs_and_summary() {
        let r = report();
        assert_eq!(
            r.execution_cdf().quantile(0.5),
            SimDuration::from_millis(20)
        );
        assert_eq!(r.end_to_end_cdf().max(), SimDuration::from_millis(40));
        let s = r.latency_summary().unwrap();
        assert_eq!(s.count, 4);
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert_eq!(r.invocations_per_container(), 2.0);
        assert_eq!(r.cold_fraction(), 0.5);
        let per_req = r.client_memory_per_request();
        assert!((per_req - (15.0 * 1024.0 * 1024.0) / 4.0).abs() < 1.0);
        assert!(r.inconsistencies().is_empty());
    }

    #[test]
    fn inconsistency_detection() {
        let mut r = report();
        r.records[0].completion += SimDuration::from_secs(1);
        assert_eq!(r.inconsistencies(), vec![0]);
    }

    #[test]
    fn percent_reduction_math() {
        assert_eq!(percent_reduction(100.0, 25.0), 75.0);
        assert_eq!(percent_reduction(0.0, 5.0), 0.0);
        assert_eq!(percent_reduction(50.0, 100.0), -100.0);
    }

    #[test]
    fn text_table_aligns() {
        let t = text_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
