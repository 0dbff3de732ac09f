//! The six-way scheduler comparison: Vanilla, SFS, Kraken, Hiku,
//! core-late-bind, and FaaSBatch over both canonical workloads.
//!
//! Every run is traced: each scheduler's full event stream is replayed
//! through an [`AuditorSink`] (must come back clean) and through the
//! [`AttributionEngine`] (phases must sum exactly to end-to-end latency),
//! so the table below is backed by audited, fully-attributed streams.
//!
//! Writes the committed per-scheduler summary
//! `results/six_schedulers_{cpu,io}.json`.

use crate::{
    attribute, collected_events, json_pretty, paper_cpu_workload, paper_io_workload, six_traced,
    summary_table, Output,
};
use faasbatch_metrics::events::{AuditorSink, SimEvent, TraceSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use std::io::{self, Write};

/// Replays one scheduler's stream through the auditor and the attribution
/// engine; panics on any violation, inexact sum or uncovered invocation.
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

    let attribution = attribute(events);
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

pub fn run(out: &mut Output) -> io::Result<()> {
    let workloads = [("cpu", paper_cpu_workload()), ("io", paper_io_workload())];

    for (label, workload) in &workloads {
        let (reports, streams) = six_traced(workload, label, &SimConfig::default());
        for (report, sink) in reports.iter().zip(&streams) {
            assert_eq!(
                report.records.len(),
                workload.len(),
                "{}: every invocation completes",
                report.scheduler
            );
            check_stream(report, collected_events(sink.as_ref()));
        }
        writeln!(
            out,
            "=== {label} workload ({} invocations) ===",
            workload.len()
        )?;
        writeln!(out, "{}", summary_table(&reports))?;
        out.line("(all six streams auditor-clean; attribution 100% exact)\n")?;
        let path = out.write_file(
            &format!("six_schedulers_{label}.json"),
            json_pretty(&summary_rows(&reports))?,
        )?;
        writeln!(out, "wrote {}\n", path.display())?;
    }
    Ok(())
}
