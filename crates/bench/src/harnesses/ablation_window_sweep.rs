//! Ablation — fine dispatch-window sweep (1 ms – 2 s), beyond the paper's
//! 0.01–0.5 s range: the latency/resource trade-off of window batching.

use crate::{paper_cpu_workload, paper_io_workload, Output};
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::time::SimDuration;
use std::io::{self, Write};

const WINDOWS_MS: [u64; 8] = [1, 5, 20, 50, 100, 200, 500, 2000];

pub fn run(out: &mut Output) -> io::Result<()> {
    for (label, w) in [("cpu", paper_cpu_workload()), ("io", paper_io_workload())] {
        writeln!(
            out,
            "Ablation — window sweep, {label} workload ({} invocations)\n",
            w.len()
        )?;
        let mut rows = Vec::new();
        for &ms in &WINDOWS_MS {
            let report = run_faasbatch(
                &w,
                SimConfig::default(),
                FaasBatchConfig::with_window(SimDuration::from_millis(ms)),
                label,
            );
            rows.push(vec![
                format!("{ms}ms"),
                report.provisioned_containers.to_string(),
                format!("{}", report.scheduling_cdf().mean()),
                format!("{}", report.end_to_end_cdf().mean()),
                format!("{}", report.end_to_end_cdf().quantile(0.99)),
                format!("{:.0}", report.mean_memory_bytes() / (1 << 20) as f64),
            ]);
        }
        out.table(
            &[
                "window",
                "containers",
                "sched mean",
                "e2e mean",
                "e2e p99",
                "mem mean (MB)",
            ],
            &rows,
        )?;
    }
    out.line("Expected: containers/memory fall with the window while mean")?;
    out.line("scheduling latency rises ~window/2 — a sweet spot near 0.1-0.5 s.")?;
    Ok(())
}
