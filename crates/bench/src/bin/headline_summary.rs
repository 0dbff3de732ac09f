//! Headline comparison table (abstract / §V of the paper): latency and
//! resource reductions of FaaSBatch vs Vanilla, SFS, and Kraken on both the
//! CPU-intensive and I/O workloads.

use faasbatch_bench::{
    export_json, paper_cpu_workload, paper_io_workload, summary_table, DEFAULT_WINDOW, PAPER_FOUR,
};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_metrics::report::{percent_reduction, text_table, RunReport};
use faasbatch_schedulers::config::SimConfig;

fn reductions(reports: &[RunReport]) -> String {
    let fb = &reports[3];
    let rows: Vec<Vec<String>> = reports[..3]
        .iter()
        .map(|base| {
            vec![
                base.scheduler.clone(),
                format!(
                    "{:+.2}%",
                    percent_reduction(
                        base.end_to_end_cdf().mean().as_secs_f64(),
                        fb.end_to_end_cdf().mean().as_secs_f64(),
                    )
                ),
                format!(
                    "{:+.2}%",
                    percent_reduction(base.mean_memory_bytes(), fb.mean_memory_bytes())
                ),
                format!(
                    "{:+.2}%",
                    percent_reduction(base.mean_cpu_utilization(), fb.mean_cpu_utilization())
                ),
                format!(
                    "{:+.2}%",
                    percent_reduction(
                        base.provisioned_containers as f64,
                        fb.provisioned_containers as f64,
                    )
                ),
            ]
        })
        .collect();
    text_table(
        &[
            "baseline",
            "latency cut",
            "memory cut",
            "cpu cut",
            "containers cut",
        ],
        &rows,
    )
}

fn main() {
    for (label, workload) in [("cpu", paper_cpu_workload()), ("io", paper_io_workload())] {
        let reports = run_comparison(
            &PAPER_FOUR,
            &workload,
            label,
            &SimConfig::default(),
            &SchedulerSetup::new(DEFAULT_WINDOW),
            |_| Box::new(NoopSink),
        )
        .0;
        println!("=== {label} workload ({} invocations) ===", workload.len());
        println!("{}", summary_table(&reports));
        println!("FaaSBatch reductions vs baselines:");
        println!("{}", reductions(&reports));
        export_json(&format!("headline_{label}"), &reports);
    }
}
