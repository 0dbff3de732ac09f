//! Headline comparison table (abstract / §V of the paper): latency and
//! resource reductions of FaaSBatch vs Vanilla, SFS, and Kraken on both the
//! CPU-intensive and I/O workloads.

use crate::{
    paper_cpu_workload, paper_four, paper_io_workload, summary_table, Output, DEFAULT_WINDOW,
};
use faasbatch_metrics::report::{percent_reduction, text_table, RunReport};
use std::io::{self, Write};

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

pub fn run(out: &mut Output) -> io::Result<()> {
    for (label, workload) in [("cpu", paper_cpu_workload()), ("io", paper_io_workload())] {
        let reports = paper_four(&workload, label, DEFAULT_WINDOW);
        writeln!(
            out,
            "=== {label} workload ({} invocations) ===",
            workload.len()
        )?;
        writeln!(out, "{}", summary_table(&reports))?;
        out.line("FaaSBatch reductions vs baselines:")?;
        writeln!(out, "{}", reductions(&reports))?;
    }
    Ok(())
}
