//! Ablation — response granularity: the paper's prototype returns a
//! group's HTTP request only after **all** its invocations finish
//! (`batch_responses = true` here) and leaves early return as future work.
//! This harness quantifies what that future work is worth.

use crate::{paper_cpu_workload, paper_io_workload, Output};
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_schedulers::config::SimConfig;
use std::io;

pub fn run(out: &mut Output) -> io::Result<()> {
    out.line("Ablation — batch-granularity vs early-return responses\n")?;
    let mut rows = Vec::new();
    for (label, w) in [("cpu", paper_cpu_workload()), ("io", paper_io_workload())] {
        for batch_responses in [true, false] {
            let report = run_faasbatch(
                &w,
                SimConfig::default(),
                FaasBatchConfig {
                    batch_responses,
                    ..FaasBatchConfig::default()
                },
                label,
            );
            rows.push(vec![
                label.to_owned(),
                if batch_responses {
                    "per-batch (paper)"
                } else {
                    "early return"
                }
                .to_owned(),
                format!("{}", report.end_to_end_cdf().quantile(0.5)),
                format!("{}", report.end_to_end_cdf().mean()),
                format!("{}", report.end_to_end_cdf().quantile(0.99)),
                format!("{}", report.exec_queue_cdf().quantile(0.99)),
                report.provisioned_containers.to_string(),
            ]);
        }
    }
    out.table(
        &[
            "workload",
            "responses",
            "e2e p50",
            "e2e mean",
            "e2e p99",
            "exec+queue p99",
            "containers",
        ],
        &rows,
    )?;
    out.line("Expected: early return cuts p50/mean (short members stop waiting for")?;
    out.line("the group's stragglers) while p99 and resource use are unchanged —")?;
    out.line("resources depend on batching, not on when responses are released.")?;
    Ok(())
}
