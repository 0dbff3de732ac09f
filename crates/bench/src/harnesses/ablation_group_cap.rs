//! Ablation — inline-parallelism degree: capping FaaSBatch's group size.
//! A cap of 1 degenerates to one-invocation-per-container batching (window
//! batching without expansion); `none` is the paper's stuff-everything
//! strategy.

use crate::{paper_cpu_workload, Output};
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_schedulers::config::SimConfig;
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_cpu_workload();
    writeln!(
        out,
        "Ablation — group-size cap, CPU workload ({} invocations)\n",
        w.len()
    )?;
    let caps: [(Option<usize>, &str); 5] = [
        (Some(1), "1 (no expansion)"),
        (Some(4), "4"),
        (Some(16), "16"),
        (Some(64), "64"),
        (None, "none (paper)"),
    ];
    let mut rows = Vec::new();
    for (cap, label) in caps {
        let report = run_faasbatch(
            &w,
            SimConfig::default(),
            FaasBatchConfig {
                max_group_size: cap,
                ..FaasBatchConfig::default()
            },
            "cpu",
        );
        rows.push(vec![
            label.to_owned(),
            report.provisioned_containers.to_string(),
            format!("{:.2}", report.invocations_per_container()),
            format!("{}", report.scheduling_cdf().quantile(0.99)),
            format!("{}", report.end_to_end_cdf().mean()),
            format!("{:.0}", report.mean_memory_bytes() / (1 << 20) as f64),
            format!("{:.3}", report.mean_cpu_utilization()),
        ]);
    }
    out.table(
        &[
            "group cap",
            "containers",
            "inv/ctr",
            "sched p99",
            "e2e mean",
            "mem mean (MB)",
            "cpu util",
        ],
        &rows,
    )?;
    out.line("Expected: containers and memory fall monotonically as the cap rises;")?;
    out.line("cap=1 approaches Vanilla-like provisioning despite the batch window.")?;
    Ok(())
}
