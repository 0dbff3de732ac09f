//! Full simulated comparison: Vanilla, SFS, Kraken, and FaaSBatch replaying
//! the same Azure-style bursty minute on a 32-vCPU worker — the paper's §V
//! headline experiment in one command.
//!
//! Run with: `cargo run --release --example scheduler_comparison`

use faasbatch::core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
use faasbatch::metrics::events::NoopSink;
use faasbatch::metrics::report::{percent_reduction, text_table};
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{io_workload, WorkloadConfig};

fn main() {
    let window = SimDuration::from_millis(200);
    let workload = io_workload(
        &DetRng::new(7),
        &WorkloadConfig {
            total: 400,
            span: SimDuration::from_secs(30),
            functions: 8,
            bursts: 4,
            ..WorkloadConfig::default()
        },
    );
    // One runner replays every kind; Kraken is calibrated from the Vanilla run.
    let kinds = [
        SchedulerKind::Vanilla,
        SchedulerKind::Sfs,
        SchedulerKind::Kraken,
        SchedulerKind::FaasBatch,
    ];
    let (reports, _) = run_comparison(
        &kinds,
        &workload,
        "io",
        &SimConfig::default(),
        &SchedulerSetup::new(window),
        |_| Box::new(NoopSink),
    );
    let (vanilla, faasbatch) = (&reports[0], &reports[3]);

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.scheduler.clone(),
                format!("{}", r.end_to_end_cdf().mean()),
                format!("{}", r.end_to_end_cdf().quantile(0.99)),
                r.provisioned_containers.to_string(),
                format!("{:.0} MB", r.mean_memory_bytes() / (1 << 20) as f64),
                format!("{:.1}%", r.mean_cpu_utilization() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "scheduler",
                "e2e mean",
                "e2e p99",
                "containers",
                "mem mean",
                "cpu util"
            ],
            &rows,
        )
    );
    println!(
        "FaaSBatch cuts Vanilla's mean latency by {:.1}% and its memory by {:.1}%.",
        percent_reduction(
            vanilla.end_to_end_cdf().mean().as_secs_f64(),
            faasbatch.end_to_end_cdf().mean().as_secs_f64(),
        ),
        percent_reduction(vanilla.mean_memory_bytes(), faasbatch.mean_memory_bytes()),
    );
}
