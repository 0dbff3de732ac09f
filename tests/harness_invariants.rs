//! Harness-level invariants that must hold for *every* scheduler on *every*
//! workload: exactly-once completion, latency contiguity, container
//! accounting, and sane resource bookkeeping (DESIGN.md §4).

use faasbatch::core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::schedulers::harness::run_simulation;
use faasbatch::schedulers::kraken::{Kraken, KrakenCalibration};
use faasbatch::schedulers::sfs::Sfs;
use faasbatch::schedulers::vanilla::Vanilla;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use std::collections::HashMap;

fn workloads() -> Vec<(String, Workload)> {
    let mut out = Vec::new();
    for (label, total, span_s, functions, bursts) in [
        ("cpu-burst", 150usize, 5u64, 3usize, 1usize),
        ("cpu-spread", 100, 30, 5, 3),
        ("cpu-single-fn", 80, 10, 1, 2),
    ] {
        out.push((
            label.to_owned(),
            cpu_workload(
                &DetRng::new(42),
                &WorkloadConfig {
                    total,
                    span: SimDuration::from_secs(span_s),
                    functions,
                    bursts,
                    ..WorkloadConfig::default()
                },
            ),
        ));
    }
    out.push((
        "io-mixed".to_owned(),
        io_workload(
            &DetRng::new(42),
            &WorkloadConfig {
                total: 120,
                span: SimDuration::from_secs(10),
                functions: 4,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        ),
    ));
    out
}

fn all_reports(w: &Workload, label: &str) -> Vec<RunReport> {
    let cfg = SimConfig::default();
    let window = SimDuration::from_millis(200);
    vec![
        run_simulation(Box::new(Vanilla::new()), w, cfg.clone(), label, None),
        run_simulation(Box::new(Sfs::new()), w, cfg.clone(), label, None),
        run_simulation(
            Box::new(Kraken::new(KrakenCalibration::default(), window)),
            w,
            cfg.clone(),
            label,
            Some(window),
        ),
        run_faasbatch(w, cfg, FaasBatchConfig::default(), label),
    ]
}

fn check_invariants(w: &Workload, r: &RunReport) {
    let tag = format!("{} on {}", r.scheduler, r.workload);
    // Exactly-once completion with dense ids.
    assert_eq!(r.records.len(), w.len(), "{tag}: completion count");
    let mut ids: Vec<u64> = r.records.iter().map(|rec| rec.id.value()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), w.len(), "{tag}: duplicate completions");

    let by_id: HashMap<u64, &faasbatch::trace::workload::Invocation> =
        w.invocations().iter().map(|i| (i.id.value(), i)).collect();
    for rec in &r.records {
        let inv = by_id[&rec.id.value()];
        // Records belong to the right function with the right arrival.
        assert_eq!(rec.function, inv.function, "{tag}: function mismatch");
        assert_eq!(rec.arrival, inv.arrival, "{tag}: arrival mismatch");
        // Components are contiguous: arrival + sum == completion.
        assert!(rec.is_consistent(), "{tag}: inconsistent record {rec:?}");
        // Completion after arrival; execution covers at least the body work
        // (contention can only stretch it).
        assert!(rec.completion > rec.arrival, "{tag}: non-causal record");
        assert!(
            rec.latency.execution >= inv.work,
            "{tag}: execution {} below intrinsic work {}",
            rec.latency.execution,
            inv.work
        );
        // Cold flag agrees with cold-start latency.
        assert_eq!(
            rec.cold,
            !rec.latency.cold_start.is_zero(),
            "{tag}: cold flag inconsistent"
        );
    }
    // Container accounting.
    assert!(r.provisioned_containers > 0, "{tag}: no containers");
    assert!(
        r.peak_live_containers <= r.provisioned_containers,
        "{tag}: peak exceeds provisioned"
    );
    let distinct_containers: std::collections::HashSet<_> =
        r.records.iter().map(|rec| rec.container).collect();
    assert!(
        distinct_containers.len() as u64 <= r.provisioned_containers,
        "{tag}: served from more containers than provisioned"
    );
    // Resource bookkeeping.
    assert!(r.core_seconds > 0.0, "{tag}: no CPU burned");
    assert!(
        r.core_seconds >= w.total_work().as_secs_f64() * 0.99,
        "{tag}: burned less CPU than the workload's intrinsic work"
    );
    assert!(!r.sampler.is_empty(), "{tag}: no resource samples");
    assert!(r.makespan > SimDuration::ZERO, "{tag}: zero makespan");
    // Client accounting (I/O only).
    let io = w
        .invocations()
        .iter()
        .filter(|i| w.registry().profile(i.function).kind.is_io())
        .count() as u64;
    assert_eq!(r.client_requests, io, "{tag}: client request count");
    assert!(
        r.clients_created <= r.client_requests,
        "{tag}: client overcount"
    );
}

#[test]
fn invariants_hold_for_every_scheduler_and_workload() {
    for (label, w) in workloads() {
        for report in all_reports(&w, &label) {
            check_invariants(&w, &report);
        }
    }
}

#[test]
fn warm_hits_plus_provisioned_covers_batches() {
    // Every batch either hit the warm pool or provisioned a container.
    let (label, w) = &workloads()[0];
    for r in all_reports(w, label) {
        assert!(
            r.warm_hits + r.provisioned_containers >= r.provisioned_containers,
            "degenerate accounting"
        );
        // Vanilla/SFS dispatch one batch per invocation.
        if r.scheduler == "vanilla" || r.scheduler == "sfs" {
            assert_eq!(
                r.warm_hits + r.provisioned_containers,
                w.len() as u64,
                "{}: batches != invocations",
                r.scheduler
            );
        }
    }
}

#[test]
fn zero_and_one_invocation_workloads() {
    // Degenerate sizes must not wedge any scheduler.
    let w1 = cpu_workload(
        &DetRng::new(5),
        &WorkloadConfig {
            total: 1,
            span: SimDuration::from_secs(1),
            functions: 1,
            bursts: 1,
            ..WorkloadConfig::default()
        },
    );
    for r in all_reports(&w1, "tiny") {
        assert_eq!(r.records.len(), 1, "{}", r.scheduler);
        assert_eq!(r.provisioned_containers, 1, "{}", r.scheduler);
        assert!(
            r.records[0].cold,
            "{}: first ever invocation must be cold",
            r.scheduler
        );
    }
}
