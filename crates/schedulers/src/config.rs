//! Shared simulation configuration.
//!
//! Every scheduler runs against the same [`SimConfig`], so cost constants
//! (cold start, daemon capacity, client creation) are identical across
//! policies — the comparison isolates scheduling decisions, exactly as the
//! paper's single-worker testbed does.

use faasbatch_container::snapshot::SnapshotConfig;
use faasbatch_container::spec::ColdStartModel;
use faasbatch_metrics::autoscaler::AutoscalerConfig;
use faasbatch_simcore::time::SimDuration;
use faasbatch_storage::cost::ClientCostModel;
use serde::{Deserialize, Serialize};

/// Configuration of the simulated worker node and platform cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Host cores (paper: 32-vCPU worker VM).
    pub cores: f64,
    /// Cold-start phase costs.
    pub cold_start: ColdStartModel,
    /// Keep-alive TTL for idle containers.
    pub keep_alive: SimDuration,
    /// Cores available to the container daemon — launches serialize behind
    /// this budget, which is what makes per-invocation container provisioning
    /// blow up scheduling latency under bursts (Fig. 11(a)/12(a)).
    pub daemon_cores: f64,
    /// Daemon CPU work to process one container-launch request.
    pub container_launch_work: SimDuration,
    /// Daemon CPU work to route a dispatch to an already-warm container.
    pub warm_dispatch_work: SimDuration,
    /// Storage-client creation / operation cost model (I/O workloads).
    pub client_cost: ClientCostModel,
    /// Base memory of one container (runtime + imports).
    pub container_base_memory: u64,
    /// Snapshot-restore tier configuration. Defaults to disabled
    /// (capacity 0), which leaves every pre-0.9 run byte-identical.
    #[serde(default)]
    pub snapshot: SnapshotConfig,
    /// When set, the worker runs the trace-driven autoscaling controller
    /// with this configuration (DESIGN.md §12): it observes the worker's
    /// event stream and acts at every sampler tick. `None` (the default)
    /// replays with the static keep-alive only.
    #[serde(default)]
    pub autoscaler: Option<AutoscalerConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 32.0,
            cold_start: ColdStartModel::default(),
            keep_alive: SimDuration::from_secs(600),
            daemon_cores: 2.0,
            container_launch_work: SimDuration::from_millis(100),
            warm_dispatch_work: SimDuration::from_millis(2),
            client_cost: ClientCostModel::default(),
            container_base_memory: 50 << 20,
            snapshot: SnapshotConfig::default(),
            autoscaler: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.cores, 32.0);
        assert!(c.daemon_cores < c.cores);
        assert!(c.warm_dispatch_work < c.container_launch_work);
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let c = SimConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
