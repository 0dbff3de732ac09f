//! Fleet-level properties: conservation (every invocation completes exactly
//! once under every routing policy × worker count, with and without faults
//! at any instant of the trace — or the run ends in a typed error, never a
//! panic) and determinism (same seed + config ⇒ bit-identical report).

use faasbatch::fleet::config::{FaultKind, FleetConfig, WorkerFault};
use faasbatch::fleet::error::FleetError;
use faasbatch::fleet::report::FleetReport;
use faasbatch::fleet::routing::RoutingKind;
use faasbatch::fleet::sim::run_fleet;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::trace::workload::{cpu_workload, Workload, WorkloadConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

fn wl(seed: u64) -> Workload {
    cpu_workload(
        &DetRng::new(seed),
        &WorkloadConfig {
            total: 100,
            span: SimDuration::from_secs(8),
            functions: 4,
            bursts: 2,
            ..WorkloadConfig::default()
        },
    )
}

/// The fleet the fault strategies draw: an optional crash on worker 0, the
/// re-dispatch delay, and an optional second fault (crash or drain) on
/// worker 1 — each at any instant of the trace's span. A one-worker fleet
/// runs fault-free.
fn cfg(
    workers: usize,
    crash_ms: Option<u64>,
    redispatch_ms: u64,
    second: Option<(FaultKind, u64)>,
) -> FleetConfig {
    let mut cfg = FleetConfig {
        workers,
        max_retries: 5,
        redispatch_delay: SimDuration::from_millis(redispatch_ms),
        ..FleetConfig::default()
    };
    if workers >= 2 {
        let first = crash_ms.map(|ms| (FaultKind::Crash, ms));
        for (worker, fault) in [first, second].into_iter().enumerate() {
            if let Some((kind, ms)) = fault {
                cfg.faults.push(WorkerFault {
                    worker,
                    at: SimTime::from_millis(ms),
                    kind,
                });
            }
        }
    }
    cfg
}

/// What `second in 0..3` selects.
const SECOND: [Option<FaultKind>; 3] = [None, Some(FaultKind::Crash), Some(FaultKind::Drain)];

/// A fault schedule may make the workload infeasible — every worker dead
/// or drained, or a retry budget spent. Those are typed outcomes; anything
/// else (a panic included) fails the property.
fn run(
    w: &Workload,
    cfg: &FleetConfig,
    policy: usize,
) -> Result<Option<FleetReport>, TestCaseError> {
    match run_fleet(w, cfg, RoutingKind::ALL[policy].build(), "cpu") {
        Ok(report) => Ok(Some(report)),
        Err(FleetError::NoLiveWorker { .. } | FleetError::RetryBudgetExhausted { .. }) => Ok(None),
        Err(e) => Err(TestCaseError::fail(format!("unexpected error: {e}"))),
    }
}

proptest! {
    #[test]
    fn every_invocation_completes_exactly_once(
        seed in 0u64..1000,
        workers in 1usize..=4,
        policy in 0usize..4,
        crash in 0usize..2,
        crash_ms in 0u64..8000,
        redispatch_ms in 0u64..=400,
        second in 0usize..3,
        second_ms in 0u64..8000,
    ) {
        let w = wl(seed);
        let second = SECOND[second].map(|kind| (kind, second_ms));
        let cfg = cfg(workers, (crash == 1).then_some(crash_ms), redispatch_ms, second);
        let Some(report) = run(&w, &cfg, policy)? else {
            return Ok(());
        };
        prop_assert_eq!(report.records.len(), w.len());
        for (r, inv) in report.records.iter().zip(w.invocations()) {
            prop_assert_eq!(r.record.id, inv.id);
            prop_assert_eq!(r.record.arrival, inv.arrival);
            prop_assert!(r.record.is_consistent());
            prop_assert!(r.record.latency.scheduling >= r.retry_delay);
        }
        let completed: usize = report.workers.iter().map(|wr| wr.completed).sum();
        prop_assert_eq!(completed, w.len());
        let lost: usize = report.workers.iter().map(|wr| wr.lost).sum();
        prop_assert_eq!(lost as u64, report.retries);
        prop_assert!(report.inconsistencies().is_empty());
        // A dead worker's report holds nothing from after its death.
        for wr in &report.workers {
            let Some(WorkerFault { at, kind: FaultKind::Crash, .. }) = wr.fault else {
                continue;
            };
            prop_assert!(wr.report.records.iter().all(|r| r.completion <= at));
            prop_assert!(wr.report.sampler.samples().iter().all(|s| s.at <= at));
        }
    }

    #[test]
    fn same_seed_and_config_is_bit_identical(
        seed in 0u64..500,
        workers in 1usize..=3,
        policy in 0usize..4,
        crash in 0usize..2,
        crash_ms in 0u64..8000,
        redispatch_ms in 0u64..=400,
        second in 0usize..3,
        second_ms in 0u64..8000,
    ) {
        let w = wl(seed);
        let second = SECOND[second].map(|kind| (kind, second_ms));
        let cfg = cfg(workers, (crash == 1).then_some(crash_ms), redispatch_ms, second);
        let a = run_fleet(&w, &cfg, RoutingKind::ALL[policy].build(), "cpu");
        let b = run_fleet(&w, &cfg, RoutingKind::ALL[policy].build(), "cpu");
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                serde_json::to_string(&a).expect("report serializes"),
                serde_json::to_string(&b).expect("report serializes")
            ),
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }

    #[test]
    fn function_groups_route_as_units(
        seed in 0u64..500,
        workers in 1usize..=4,
        policy in 0usize..4,
    ) {
        let w = wl(seed);
        let cfg = cfg(workers, None, 50, None);
        let report = run_fleet(&w, &cfg, RoutingKind::ALL[policy].build(), "cpu")
            .expect("no faults, so the run cannot fail");
        let mut owner: HashMap<(u32, u64), usize> = HashMap::new();
        for r in &report.records {
            let key = (
                r.record.function.index(),
                r.record.arrival.as_micros() / cfg.window.as_micros(),
            );
            let first = *owner.entry(key).or_insert(r.worker);
            prop_assert_eq!(
                first, r.worker,
                "group {:?} split across workers {} and {}", key, first, r.worker
            );
        }
    }
}
