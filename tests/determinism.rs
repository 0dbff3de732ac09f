//! Determinism guarantees: a run is a pure function of (seed, config).
//! Bit-identical reports make every figure in EXPERIMENTS.md reproducible.

use faasbatch::core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
use faasbatch::metrics::autoscaler::AutoscalerConfig;
use faasbatch::metrics::events::{to_jsonl, NoopSink, TraceSink, VecSink};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};

fn wl(seed: u64) -> Workload {
    cpu_workload(
        &DetRng::new(seed),
        &WorkloadConfig {
            total: 120,
            span: SimDuration::from_secs(10),
            functions: 4,
            bursts: 3,
            ..WorkloadConfig::default()
        },
    )
}

/// Runs `name` over `w` through `sink` (Kraken calibrated from an untraced
/// Vanilla run of the same workload under the same `cfg`) and hands the sink
/// back.
fn run_with(
    name: &str,
    w: &Workload,
    cfg: &SimConfig,
    sink: Box<dyn TraceSink>,
) -> (RunReport, Box<dyn TraceSink>) {
    let kind = SchedulerKind::parse(name).expect("known scheduler");
    let setup = SchedulerSetup::new(SimDuration::from_millis(200));
    let mut sink = Some(sink);
    let (mut reports, mut sinks) = run_comparison(&[kind], w, "cpu", cfg, &setup, |_| {
        sink.take().expect("one kind, one run")
    });
    (reports.remove(0), sinks.remove(0))
}

fn run_scheduler(name: &str, w: &Workload) -> RunReport {
    run_with(name, w, &SimConfig::default(), Box::new(NoopSink)).0
}

#[test]
fn workload_generation_is_deterministic() {
    assert_eq!(wl(1), wl(1));
    assert_ne!(wl(1), wl(2), "different seeds must differ");
    let io_a = io_workload(&DetRng::new(9), &WorkloadConfig::default());
    let io_b = io_workload(&DetRng::new(9), &WorkloadConfig::default());
    assert_eq!(io_a, io_b);
}

#[test]
fn every_scheduler_is_bit_reproducible() {
    let w = wl(77);
    for name in ["vanilla", "sfs", "kraken", "faasbatch"] {
        let a = run_scheduler(name, &w);
        let b = run_scheduler(name, &w);
        assert_eq!(a, b, "{name} run not reproducible");
    }
}

#[test]
fn reports_roundtrip_through_json() {
    let w = wl(3);
    let report = run_scheduler("faasbatch", &w);
    let json = serde_json::to_string(&report).expect("serializes");
    let back: RunReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(report, back);
}

#[test]
fn different_seeds_give_different_results() {
    let a = run_scheduler("vanilla", &wl(1));
    let b = run_scheduler("vanilla", &wl(2));
    assert_ne!(a.records, b.records);
}

/// Runs `name` with the autoscaling controller attached and returns the
/// report plus the serialized JSONL event log.
fn run_scheduler_autoscaled(
    name: &str,
    w: &Workload,
    ac: &AutoscalerConfig,
) -> (RunReport, String) {
    let cfg = SimConfig {
        keep_alive: SimDuration::from_secs(2),
        autoscaler: Some(ac.clone()),
        ..SimConfig::default()
    };
    let (report, sink) = run_with(name, w, &cfg, Box::new(VecSink::new()));
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink round-trips")
        .events();
    (report, to_jsonl(events).expect("events serialize"))
}

/// Same seed + controller config ⇒ bit-identical reports *and* bit-identical
/// serialized JSONL event logs, scale actions included.
#[test]
fn controller_runs_are_bit_reproducible() {
    let w = wl(41);
    let ac = AutoscalerConfig {
        prewarm_cap: 3,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        ..AutoscalerConfig::default()
    };
    for name in ["vanilla", "sfs", "kraken", "faasbatch"] {
        let (report_a, jsonl_a) = run_scheduler_autoscaled(name, &w, &ac);
        let (report_b, jsonl_b) = run_scheduler_autoscaled(name, &w, &ac);
        assert_eq!(report_a, report_b, "{name} report not reproducible");
        assert_eq!(jsonl_a, jsonl_b, "{name} event log not reproducible");
        assert!(
            jsonl_a.contains("ScaleKeepAlive") || jsonl_a.contains("ScalePrewarm"),
            "{name} log carries no scale actions — the comparison is vacuous"
        );
    }
}

/// The whole ablation artifact — static and controller legs across all four
/// schedulers — serializes identically run to run.
#[test]
fn ablation_summary_is_deterministic() {
    use faasbatch_bench::{autoscaler_ablation, autoscaler_ablation_setup};
    let w = wl(13);
    let (cfg, ac) = autoscaler_ablation_setup();
    let window = SimDuration::from_millis(200);
    let a = autoscaler_ablation(&w, "cpu", window, &cfg, &ac);
    let b = autoscaler_ablation(&w, "cpu", window, &cfg, &ac);
    assert_eq!(
        serde_json::to_string_pretty(&a).expect("summary serializes"),
        serde_json::to_string_pretty(&b).expect("summary serializes"),
        "ablation summary not reproducible"
    );
}
