//! The six-way scheduler comparison: Vanilla, SFS, Kraken, Hiku,
//! core-late-bind, and FaaSBatch over both canonical workloads.
//!
//! Every run is traced: each scheduler's full event stream is replayed
//! through an [`AuditorSink`] (must come back clean) and through the
//! [`AttributionEngine`] (phases must sum exactly to end-to-end latency),
//! so the table below is backed by audited, fully-attributed streams.
//!
//! `--quick` runs a trimmed workload and prints the tables without touching
//! `results/` (the CI smoke mode); the full run also writes the committed
//! per-scheduler summary `results/six_schedulers_{cpu,io}.json`.

use faasbatch_bench::{
    collected_events, paper_cpu_workload, paper_io_workload, summary_table, DEFAULT_WINDOW,
};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
use faasbatch_metrics::analysis::AttributionEngine;
use faasbatch_metrics::events::{AuditorSink, SimEvent, TraceSink, VecSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::{cpu_workload, Workload, WorkloadConfig};

/// Replays one scheduler's stream through the auditor and the attribution
/// engine; panics (naming the scheduler) on any violation or inexact sum.
fn check_stream(report: &RunReport, events: &[SimEvent]) {
    let mut auditor = AuditorSink::new();
    auditor.record_batch(events);
    let violations = auditor.finish();
    assert!(
        violations.is_empty(),
        "{}: auditor found violations: {:?}",
        report.scheduler,
        violations
    );

    let mut engine = AttributionEngine::new();
    engine.consume(events);
    let attribution = engine.finish();
    assert!(
        attribution.all_exact(),
        "{}: attribution phases must sum exactly to end-to-end latency",
        report.scheduler
    );
    assert_eq!(
        attribution.invocations.len(),
        report.records.len(),
        "{}: attribution covers every invocation",
        report.scheduler
    );
}

/// One scheduler's row of the committed summary artifact — the full
/// per-invocation `RunReport`s would be megabytes per workload.
#[derive(serde::Serialize)]
struct SchedulerSummary {
    scheduler: String,
    invocations: usize,
    containers: u64,
    invocations_per_container: f64,
    cold_fraction: f64,
    scheduling_p50_us: u64,
    scheduling_p99_us: u64,
    execution_p50_us: u64,
    exec_queue_p99_us: u64,
    end_to_end_mean_us: u64,
    end_to_end_p99_us: u64,
    memory_mean_mb: f64,
    cpu_utilization: f64,
    daemon_core_seconds: f64,
    clients_created: u64,
    client_mb_per_request: f64,
}

fn summary_rows(reports: &[RunReport]) -> Vec<SchedulerSummary> {
    reports
        .iter()
        .map(|r| SchedulerSummary {
            scheduler: r.scheduler.clone(),
            invocations: r.records.len(),
            containers: r.provisioned_containers,
            invocations_per_container: r.invocations_per_container(),
            cold_fraction: r.cold_fraction(),
            scheduling_p50_us: r.scheduling_cdf().quantile(0.5).as_micros(),
            scheduling_p99_us: r.scheduling_cdf().quantile(0.99).as_micros(),
            execution_p50_us: r.execution_cdf().quantile(0.5).as_micros(),
            exec_queue_p99_us: r.exec_queue_cdf().quantile(0.99).as_micros(),
            end_to_end_mean_us: r.end_to_end_cdf().mean().as_micros(),
            end_to_end_p99_us: r.end_to_end_cdf().quantile(0.99).as_micros(),
            memory_mean_mb: r.mean_memory_bytes() / (1 << 20) as f64,
            cpu_utilization: r.mean_cpu_utilization(),
            daemon_core_seconds: r.core_seconds_daemon,
            clients_created: r.clients_created,
            client_mb_per_request: r.client_memory_per_request() / (1 << 20) as f64,
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let workloads: Vec<(&str, Workload)> = if quick {
        vec![(
            "cpu-quick",
            cpu_workload(
                &DetRng::new(7),
                &WorkloadConfig {
                    total: 80,
                    span: SimDuration::from_secs(10),
                    functions: 4,
                    bursts: 3,
                    ..WorkloadConfig::default()
                },
            ),
        )]
    } else {
        vec![("cpu", paper_cpu_workload()), ("io", paper_io_workload())]
    };

    for (label, workload) in &workloads {
        let (reports, streams) = run_comparison(
            &SchedulerKind::ALL,
            workload,
            label,
            &SimConfig::default(),
            &SchedulerSetup::new(DEFAULT_WINDOW),
            |_| Box::new(VecSink::new()),
        );
        for (report, sink) in reports.iter().zip(&streams) {
            assert_eq!(
                report.records.len(),
                workload.len(),
                "{}: every invocation completes",
                report.scheduler
            );
            check_stream(report, collected_events(sink.as_ref()));
        }
        println!("=== {label} workload ({} invocations) ===", workload.len());
        println!("{}", summary_table(&reports));
        println!("(all six streams auditor-clean; attribution 100% exact)\n");
        if !quick {
            let path = format!("results/six_schedulers_{label}.json");
            let json =
                serde_json::to_string_pretty(&summary_rows(&reports)).expect("summary serializes");
            if std::fs::create_dir_all("results").is_ok() && std::fs::write(&path, json).is_ok() {
                println!("wrote {path}\n");
            }
        }
    }
    if quick {
        println!("--quick: results/ left untouched.");
    }
}
