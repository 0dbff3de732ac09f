//! Fleet-level configuration: worker count, per-worker scheduler, the
//! router's dispatch window, and the fault schedule.

use crate::error::FleetError;
use faasbatch_core::policy::FaasBatchConfig;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::Worker;
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The scheduler every worker in the fleet runs. The fleet is homogeneous —
/// the paper's single-worker comparison is reproduced per worker, and the
/// fleet layer isolates *routing* policy on top of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerScheduler {
    /// One container per invocation (the Vanilla baseline).
    Vanilla,
    /// FaaSBatch: window batching + inline parallelism + multiplexing.
    FaasBatch(FaasBatchConfig),
}

impl WorkerScheduler {
    /// Scheduler name as it appears in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkerScheduler::Vanilla => "vanilla",
            WorkerScheduler::FaasBatch(_) => "faasbatch",
        }
    }
}

impl Default for WorkerScheduler {
    fn default() -> Self {
        WorkerScheduler::FaasBatch(FaasBatchConfig::default())
    }
}

/// How a worker leaves the fleet mid-replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker dies instantly: invocations still in flight at the fault
    /// instant are lost and re-dispatched to surviving workers.
    Crash,
    /// The worker stops accepting new work but finishes what it already
    /// holds; nothing is lost.
    Drain,
}

/// One scheduled worker fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerFault {
    /// Index of the affected worker.
    pub worker: usize,
    /// Fault instant on the fleet clock.
    pub at: SimTime,
    /// Crash (lose in-flight work) or drain (finish it).
    pub kind: FaultKind,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of workers.
    pub workers: usize,
    /// Router dispatch window: invocations of one function arriving within
    /// the same window form a group that is routed to one worker as a unit
    /// (the fleet-level extension of the Invoke Mapper's never-split
    /// invariant).
    pub window: SimDuration,
    /// Per-worker simulation config (identical across workers). With
    /// `sim.autoscaler` set, every worker runs its own controller.
    pub sim: SimConfig,
    /// Per-worker scheduler.
    pub scheduler: WorkerScheduler,
    /// Scheduled worker faults.
    pub faults: Vec<WorkerFault>,
    /// Maximum re-dispatch attempts per invocation before the run is
    /// declared infeasible.
    pub max_retries: u32,
    /// Delay between a crash and the re-dispatch of its lost invocations
    /// (failure detection + re-routing cost, charged to scheduling latency).
    pub redispatch_delay: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            window: SimDuration::from_millis(200),
            sim: SimConfig::default(),
            scheduler: WorkerScheduler::default(),
            faults: Vec::new(),
            max_retries: 3,
            redispatch_delay: SimDuration::from_millis(50),
        }
    }
}

impl FleetConfig {
    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidConfig`] naming the offending field: zero
    /// workers, a zero window, a fault on a worker index that does not
    /// exist, a second crash on one worker (it can only die once), or an
    /// invalid autoscaler config.
    pub fn validate(&self) -> Result<(), FleetError> {
        let invalid = |why: String| Err(FleetError::InvalidConfig(why));
        if self.workers == 0 {
            return invalid("workers: fleet needs at least one worker".to_owned());
        }
        if self.window.is_zero() {
            return invalid("window: router window must be positive".to_owned());
        }
        if self.redispatch_delay > Worker::HORIZON {
            return invalid(format!(
                "redispatch_delay: {} is longer than the {} safety horizon",
                self.redispatch_delay,
                Worker::HORIZON
            ));
        }
        if let Some(f) = self.faults.iter().find(|f| f.worker >= self.workers) {
            return invalid(format!(
                "faults: fault references worker {} but the fleet has {}",
                f.worker, self.workers
            ));
        }
        let crashes = |w: usize| {
            let on_w = |f: &&WorkerFault| f.worker == w && f.kind == FaultKind::Crash;
            self.faults.iter().filter(on_w).count()
        };
        if let Some(f) = self.faults.iter().find(|f| crashes(f.worker) > 1) {
            return invalid(format!(
                "faults: worker {} has more than one crash fault",
                f.worker
            ));
        }
        if let Some(ac) = &self.sim.autoscaler {
            if let Err(e) = ac.validate() {
                return invalid(format!("sim.autoscaler: {e}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_metrics::autoscaler::AutoscalerConfig;

    #[test]
    fn defaults_validate() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
    }

    /// The `InvalidConfig` message of a config that must be rejected.
    fn rejection(cfg: FleetConfig) -> String {
        match cfg.validate() {
            Err(FleetError::InvalidConfig(why)) => why,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_configs_are_typed_errors_naming_the_field() {
        let zero_workers = FleetConfig {
            workers: 0,
            ..FleetConfig::default()
        };
        assert!(rejection(zero_workers).contains("at least one worker"));
        let zero_window = FleetConfig {
            window: SimDuration::ZERO,
            ..FleetConfig::default()
        };
        assert!(rejection(zero_window).starts_with("window"));
        let endless_retry = FleetConfig {
            redispatch_delay: Worker::HORIZON + SimDuration::from_micros(1),
            ..FleetConfig::default()
        };
        assert!(rejection(endless_retry).starts_with("redispatch_delay"));
        let missing_worker = FleetConfig {
            workers: 2,
            faults: vec![WorkerFault {
                worker: 5,
                at: SimTime::from_secs(1),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        assert!(rejection(missing_worker).contains("fault references worker 5"));
        let crash = |at| WorkerFault {
            worker: 0,
            at: SimTime::from_secs(at),
            kind: FaultKind::Crash,
        };
        let dies_twice = FleetConfig {
            faults: vec![crash(2), crash(1)],
            ..FleetConfig::default()
        };
        let why = rejection(dies_twice);
        assert!(why.starts_with("faults") && why.contains("more than one crash"));
        let bad_controller = FleetConfig {
            sim: SimConfig {
                autoscaler: Some(AutoscalerConfig {
                    alpha: 0.0,
                    ..AutoscalerConfig::default()
                }),
                ..SimConfig::default()
            },
            ..FleetConfig::default()
        };
        let why = rejection(bad_controller);
        assert!(
            why.starts_with("sim.autoscaler") && why.contains("alpha"),
            "{why}"
        );
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let cfg = FleetConfig {
            faults: vec![WorkerFault {
                worker: 0,
                at: SimTime::from_secs(3),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serializes");
        let back: FleetConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(cfg, back);
    }
}
