//! Focused edge cases that don't fit the other suites: report-derived
//! metrics on boundary inputs, fib correctness as a recurrence, workload
//! merge properties, and engine cancel/re-arm patterns under churn.

use faasbatch::container::ids::InvocationId;
use faasbatch::core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::engine::{Engine, EventArg};
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::trace::fib::{expected_duration, fib, fib_n_for_duration, MAX_N, MIN_N};
use faasbatch::trace::function::{FunctionKind, FunctionRegistry};
use faasbatch::trace::workload::{Invocation, Workload};

#[test]
fn fib_satisfies_its_recurrence() {
    for n in 2..=25 {
        assert_eq!(fib(n), fib(n - 1) + fib(n - 2), "recurrence broken at {n}");
    }
}

#[test]
fn fib_duration_model_is_monotone_and_invertible() {
    let mut prev = SimDuration::ZERO;
    for n in MIN_N..=MAX_N {
        let d = expected_duration(n);
        assert!(d > prev);
        assert_eq!(fib_n_for_duration(d), n);
        prev = d;
    }
}

#[test]
fn engine_cancel_then_rearm_pattern() {
    // The harness's CPU pump cancels and re-schedules its single pending
    // event constantly; exercise that pattern a few hundred times.
    fn push(w: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, arg: EventArg) {
        w.push(arg.a);
    }
    let mut engine = Engine::new();
    let mut world = Vec::new();
    let mut pending = None;
    for i in 0..300u64 {
        if let Some(id) = pending.take() {
            engine.cancel(id);
        }
        pending =
            Some(engine.schedule_arg_at(SimTime::from_millis(1_000 + i), push, EventArg::one(i)));
    }
    engine.run(&mut world);
    // Only the last-armed event may fire.
    assert_eq!(world, vec![299]);
}

#[test]
fn merge_with_empty_workload_is_identity_on_invocations() {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f", FunctionKind::Cpu { fib_n: 20 });
    let invs = vec![Invocation {
        id: InvocationId::new(0),
        function: f,
        arrival: SimTime::from_secs(1),
        work: SimDuration::from_millis(5),
    }];
    let w = Workload::new(reg, invs);
    let empty = Workload::new(FunctionRegistry::new(), Vec::new());
    let merged = w.clone().merge(empty);
    assert_eq!(merged.invocations(), w.invocations());
    let merged2 = Workload::new(FunctionRegistry::new(), Vec::new()).merge(w.clone());
    assert_eq!(merged2.len(), 1);
    assert_eq!(
        merged2
            .registry()
            .profile(merged2.invocations()[0].function)
            .name,
        "f"
    );
}

#[test]
fn faasbatch_handles_arrival_exactly_on_window_boundary() {
    // An invocation arriving at exactly t = k·window must be dispatched by
    // some window and never lost (off-by-one guard).
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f", FunctionKind::Cpu { fib_n: 20 });
    let invs: Vec<Invocation> = (1..=5u64)
        .map(|k| Invocation {
            id: InvocationId::new(k),
            function: f,
            arrival: SimTime::from_millis(200 * k),
            work: SimDuration::from_millis(10),
        })
        .collect();
    let w = Workload::new(reg, invs);
    let report = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "edge");
    assert_eq!(report.records.len(), 5);
    assert!(report.inconsistencies().is_empty());
    // Scheduling latency (window wait) never exceeds one full window plus
    // the dispatch work.
    for r in &report.records {
        assert!(
            r.latency.scheduling <= SimDuration::from_millis(400),
            "window wait too long: {}",
            r.latency.scheduling
        );
    }
}

#[test]
fn report_metrics_on_empty_and_single_records() {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f", FunctionKind::Cpu { fib_n: 20 });
    let w = Workload::new(
        reg,
        vec![Invocation {
            id: InvocationId::new(0),
            function: f,
            arrival: SimTime::ZERO,
            work: SimDuration::from_millis(1),
        }],
    );
    let report = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "one");
    assert_eq!(report.records.len(), 1);
    let cdf = report.end_to_end_cdf();
    assert_eq!(cdf.quantile(0.0), cdf.quantile(1.0));
    assert_eq!(report.cold_fraction(), 1.0);
    assert_eq!(report.invocations_per_container(), 1.0);
    assert_eq!(
        report.client_memory_per_request(),
        0.0,
        "cpu run has no clients"
    );
}

#[test]
fn very_long_idle_gap_between_arrivals() {
    // Two invocations 30 minutes apart: the keep-alive (600 s) expires in
    // between only if a reaper runs — the harness keeps containers warm to
    // the pool and the second acquire must skip the stale entry.
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f", FunctionKind::Cpu { fib_n: 20 });
    let invs = vec![
        Invocation {
            id: InvocationId::new(0),
            function: f,
            arrival: SimTime::ZERO,
            work: SimDuration::from_millis(10),
        },
        Invocation {
            id: InvocationId::new(1),
            function: f,
            arrival: SimTime::from_secs(1800),
            work: SimDuration::from_millis(10),
        },
    ];
    let w = Workload::new(reg, invs);
    let report = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "gap");
    assert_eq!(report.records.len(), 2);
    // Both are cold: the 600 s TTL expired long before the second arrival.
    assert!(report.records.iter().all(|r| r.cold));
    assert_eq!(report.provisioned_containers, 2);
}

/// A controller attached to an empty workload: the run ends at t = 0 with
/// no actions, no containers, and no panics.
#[test]
fn controller_on_zero_invocation_workload() {
    use faasbatch::metrics::autoscaler::AutoscalerConfig;
    use faasbatch::schedulers::harness::run_simulation;
    use faasbatch::schedulers::vanilla::Vanilla;
    let w = Workload::new(FunctionRegistry::new(), Vec::new());
    let cfg = SimConfig {
        autoscaler: Some(AutoscalerConfig::default()),
        ..SimConfig::default()
    };
    let report = run_simulation(Box::new(Vanilla::new()), &w, cfg, "empty", None);
    assert!(report.records.is_empty());
    assert_eq!(report.provisioned_containers, 0);
    assert_eq!(report.makespan, SimDuration::ZERO);
    assert_eq!(
        report.autoscaler,
        Some(Default::default()),
        "an empty run must produce no scale actions"
    );
}

/// One function bursting far past the host's core capacity, with the
/// controller active: every invocation still completes exactly once, the
/// audited stream stays clean, and the pre-warm burst respects its cap.
#[test]
fn controller_survives_burst_beyond_core_capacity() {
    use faasbatch::metrics::autoscaler::AutoscalerConfig;
    use faasbatch::metrics::events::{AuditorSink, EventKind, TraceSink, VecSink};
    use faasbatch::schedulers::harness::run_simulation_traced;
    use faasbatch::schedulers::vanilla::Vanilla;
    let mut reg = FunctionRegistry::new();
    let f = reg.register("hot", FunctionKind::Cpu { fib_n: 20 });
    let ac = AutoscalerConfig {
        prewarm_cap: 4,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        ..AutoscalerConfig::default()
    };
    let cfg = SimConfig {
        keep_alive: SimDuration::from_secs(2),
        autoscaler: Some(ac.clone()),
        ..SimConfig::default()
    };
    // Far more simultaneous invocations than the host has cores.
    let invs: Vec<Invocation> = (0..8 * cfg.cores as u64)
        .map(|k| Invocation {
            id: InvocationId::new(k),
            function: f,
            arrival: SimTime::ZERO,
            work: SimDuration::from_millis(20),
        })
        .collect();
    let w = Workload::new(reg, invs);
    let (report, sink) = run_simulation_traced(
        Box::new(Vanilla::new()),
        &w,
        cfg,
        "burst",
        None,
        Box::new(VecSink::new()),
    );
    assert_eq!(report.records.len(), w.len());
    assert!(report.inconsistencies().is_empty());
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink")
        .events();
    let mut auditor = AuditorSink::new();
    for e in events {
        if let EventKind::ScalePrewarm { count, .. } = e.kind {
            assert!(
                count <= ac.prewarm_cap as u64,
                "burst blew the pre-warm cap"
            );
        }
        auditor.record(e);
    }
    let violations = auditor.finish();
    assert!(violations.is_empty(), "burst run violated: {violations:?}");
}

/// Per-worker controllers ride through a worker crash: survivors absorb the
/// re-dispatched invocations and the fleet completes exactly once. With the
/// retry budget at zero, the same crash surfaces as a typed
/// [`FleetError::RetryBudgetExhausted`] — never a panic.
#[test]
fn controller_during_fleet_crash_and_redispatch() {
    use faasbatch::fleet::config::{FaultKind, FleetConfig, WorkerFault};
    use faasbatch::fleet::error::FleetError;
    use faasbatch::fleet::routing::RoutingKind;
    use faasbatch::fleet::sim::run_fleet;
    use faasbatch::metrics::autoscaler::AutoscalerConfig;
    use faasbatch::simcore::rng::DetRng;
    use faasbatch::trace::workload::{cpu_workload, WorkloadConfig};
    let w = cpu_workload(
        &DetRng::new(21),
        &WorkloadConfig {
            total: 60,
            span: SimDuration::from_secs(6),
            functions: 3,
            bursts: 2,
            ..WorkloadConfig::default()
        },
    );
    let ac = AutoscalerConfig {
        prewarm_cap: 3,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        ..AutoscalerConfig::default()
    };
    let crash = WorkerFault {
        worker: 0,
        at: SimTime::from_secs(1),
        kind: FaultKind::Crash,
    };
    let sim = SimConfig {
        autoscaler: Some(ac),
        ..SimConfig::default()
    };
    let mut cfg = FleetConfig {
        workers: 3,
        max_retries: 5,
        sim: sim.clone(),
        ..FleetConfig::default()
    };
    cfg.faults.push(crash);
    let report = run_fleet(&w, &cfg, RoutingKind::ALL[0].build(), "crash")
        .expect("survivors absorb the crash within the retry budget");
    assert_eq!(report.records.len(), w.len());
    // Each worker ran its own controller, configured through `cfg.sim`.
    for worker in report.workers.iter().filter(|w| w.fault.is_none()) {
        assert!(
            worker.report.autoscaler.is_some(),
            "surviving worker {} carries no controller stats",
            worker.worker
        );
    }

    // Same scenario with no retry budget: a typed error, not a panic.
    let mut strict = FleetConfig {
        workers: 3,
        max_retries: 0,
        sim,
        ..FleetConfig::default()
    };
    strict.faults.push(crash);
    match run_fleet(&w, &strict, RoutingKind::ALL[0].build(), "crash") {
        Err(FleetError::RetryBudgetExhausted { max_retries: 0, .. }) => {}
        other => panic!("expected RetryBudgetExhausted, got {other:?}"),
    }
}

#[test]
fn zero_window_is_rejected() {
    let result = std::panic::catch_unwind(|| {
        FaasBatchConfig::with_window(SimDuration::ZERO);
        faasbatch::core::policy::FaasBatchPolicy::new(FaasBatchConfig::with_window(
            SimDuration::ZERO,
        ))
    });
    assert!(result.is_err(), "zero dispatch window must be rejected");
}
