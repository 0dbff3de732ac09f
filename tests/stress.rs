//! Stress and pathological-workload tests: extreme simultaneity, degenerate
//! durations, long tails, tiny hosts — every scheduler must stay correct
//! (exactly-once, consistent records), not merely fast.

use faasbatch::container::ids::InvocationId;
use faasbatch::core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::schedulers::harness::run_simulation;
use faasbatch::schedulers::kraken::{Kraken, KrakenCalibration};
use faasbatch::schedulers::sfs::Sfs;
use faasbatch::schedulers::vanilla::Vanilla;
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::trace::function::{FunctionKind, FunctionRegistry};
use faasbatch::trace::workload::{Invocation, Workload};

fn run_all(w: &Workload, cfg: SimConfig) -> Vec<RunReport> {
    let window = SimDuration::from_millis(200);
    vec![
        run_simulation(Box::new(Vanilla::new()), w, cfg.clone(), "stress", None),
        run_simulation(Box::new(Sfs::new()), w, cfg.clone(), "stress", None),
        run_simulation(
            Box::new(Kraken::new(KrakenCalibration::default(), window)),
            w,
            cfg.clone(),
            "stress",
            Some(window),
        ),
        run_faasbatch(w, cfg, FaasBatchConfig::default(), "stress"),
    ]
}

fn check(w: &Workload, reports: &[RunReport]) {
    for r in reports {
        assert_eq!(
            r.records.len(),
            w.len(),
            "{}: lost invocations",
            r.scheduler
        );
        assert!(
            r.inconsistencies().is_empty(),
            "{}: {:?}",
            r.scheduler,
            r.inconsistencies()
        );
    }
}

/// 1000 invocations of one function arriving at the same microsecond.
#[test]
fn thundering_herd_same_instant() {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("herd", FunctionKind::Cpu { fib_n: 24 });
    let invs: Vec<Invocation> = (0..1000)
        .map(|n| Invocation {
            id: InvocationId::new(n),
            function: f,
            arrival: SimTime::from_secs(1),
            work: SimDuration::from_millis(25),
        })
        .collect();
    let w = Workload::new(reg, invs);
    let reports = run_all(&w, SimConfig::default());
    check(&w, &reports);
    // FaaSBatch: the whole herd fits one container (maybe two windows).
    let fb = &reports[3];
    assert!(
        fb.provisioned_containers <= 3,
        "faasbatch used {} containers for a single-function herd",
        fb.provisioned_containers
    );
    // Vanilla must pay ~one container per member.
    assert!(reports[0].provisioned_containers > 500);
}

/// Zero-work invocations (empty bodies) complete without dividing by zero
/// or wedging the CPU pump.
#[test]
fn zero_work_invocations() {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("noop", FunctionKind::Cpu { fib_n: 1 });
    let invs: Vec<Invocation> = (0..50)
        .map(|n| Invocation {
            id: InvocationId::new(n),
            function: f,
            arrival: SimTime::from_millis(10 * n),
            work: SimDuration::ZERO,
        })
        .collect();
    let w = Workload::new(reg, invs);
    check(&w, &run_all(&w, SimConfig::default()));
}

/// Extreme tail: one 60-second invocation among hundreds of millisecond
/// ones; everything still completes and the giant's execution is at least
/// its intrinsic work.
#[test]
fn heavy_tail_mixture() {
    let mut reg = FunctionRegistry::new();
    let small = reg.register("small", FunctionKind::Cpu { fib_n: 20 });
    let giant = reg.register("giant", FunctionKind::Cpu { fib_n: 40 });
    let mut invs: Vec<Invocation> = (0..300)
        .map(|n| Invocation {
            id: InvocationId::new(n),
            function: small,
            arrival: SimTime::from_millis(20 * n),
            work: SimDuration::from_millis(5),
        })
        .collect();
    invs.push(Invocation {
        id: InvocationId::new(300),
        function: giant,
        arrival: SimTime::from_secs(1),
        work: SimDuration::from_secs(60),
    });
    let w = Workload::new(reg, invs);
    let reports = run_all(&w, SimConfig::default());
    check(&w, &reports);
    for r in &reports {
        let g = r
            .records
            .iter()
            .find(|rec| rec.function == giant)
            .expect("giant completed");
        assert!(
            g.latency.execution >= SimDuration::from_secs(60),
            "{}",
            r.scheduler
        );
    }
}

/// A one-core host: brutal contention, but no deadlock and exact accounting.
#[test]
fn single_core_host() {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f", FunctionKind::Cpu { fib_n: 24 });
    let invs: Vec<Invocation> = (0..40)
        .map(|n| Invocation {
            id: InvocationId::new(n),
            function: f,
            arrival: SimTime::from_millis(50 * n),
            work: SimDuration::from_millis(30),
        })
        .collect();
    let w = Workload::new(reg, invs);
    let cfg = SimConfig {
        cores: 1.0,
        daemon_cores: 0.5,
        ..SimConfig::default()
    };
    let reports = run_all(&w, cfg);
    check(&w, &reports);
    for r in &reports {
        assert!(
            r.core_seconds >= w.total_work().as_secs_f64() * 0.99,
            "{}: undercounted CPU",
            r.scheduler
        );
    }
}

/// Many distinct functions, one invocation each: batching degenerates to
/// Vanilla-like behaviour but must stay correct.
#[test]
fn one_invocation_per_function() {
    let mut reg = FunctionRegistry::new();
    let invs: Vec<Invocation> = (0..60)
        .map(|n| {
            let f = reg.register(&format!("f{n}"), FunctionKind::Cpu { fib_n: 22 });
            Invocation {
                id: InvocationId::new(n),
                function: f,
                arrival: SimTime::from_millis(7 * n),
                work: SimDuration::from_millis(15),
            }
        })
        .collect();
    let w = Workload::new(reg, invs);
    let reports = run_all(&w, SimConfig::default());
    check(&w, &reports);
    // No sharing is possible: FaaSBatch needs one container per function.
    assert_eq!(reports[3].provisioned_containers, 60);
}

/// Daemon-CPU breakdown: per-invocation provisioning burns far more daemon
/// CPU than FaaSBatch's per-group dispatching.
#[test]
fn daemon_cpu_breakdown_orders_schedulers() {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f", FunctionKind::Cpu { fib_n: 24 });
    let invs: Vec<Invocation> = (0..200)
        .map(|n| Invocation {
            id: InvocationId::new(n),
            function: f,
            arrival: SimTime::from_millis(5 * n),
            work: SimDuration::from_millis(25),
        })
        .collect();
    let w = Workload::new(reg, invs);
    let reports = run_all(&w, SimConfig::default());
    check(&w, &reports);
    let vanilla = &reports[0];
    let fb = &reports[3];
    assert!(
        fb.core_seconds_daemon * 4.0 < vanilla.core_seconds_daemon,
        "daemon CPU: faasbatch {:.3} vs vanilla {:.3}",
        fb.core_seconds_daemon,
        vanilla.core_seconds_daemon
    );
    // SFS's user-space scheduler shows up as platform CPU.
    assert!(reports[1].core_seconds_platform > reports[0].core_seconds_platform);
}
