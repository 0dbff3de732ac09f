//! Ablation — the Resource Multiplexer in isolation: FaaSBatch with the
//! multiplexer on vs off, on the I/O workload, across dispatch intervals.
//! Isolates Implication 2 (§II-B) from the batching benefit.

use crate::{paper_io_workload, Output, DISPATCH_INTERVALS_MS};
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::time::SimDuration;
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_io_workload();
    writeln!(
        out,
        "Ablation — Resource Multiplexer on/off, I/O workload ({} invocations)\n",
        w.len()
    )?;
    let mut rows = Vec::new();
    for &ms in &DISPATCH_INTERVALS_MS {
        let window = SimDuration::from_millis(ms);
        for multiplex in [true, false] {
            let report = run_faasbatch(
                &w,
                SimConfig::default(),
                FaasBatchConfig {
                    window,
                    multiplex,
                    ..FaasBatchConfig::default()
                },
                "io",
            );
            rows.push(vec![
                format!("{:.2}s", ms as f64 / 1e3),
                if multiplex { "on" } else { "off" }.to_owned(),
                format!("{}", report.execution_cdf().quantile(0.5)),
                format!("{}", report.execution_cdf().quantile(0.99)),
                format!("{}", report.end_to_end_cdf().mean()),
                report.clients_created.to_string(),
                format!(
                    "{:.2}",
                    report.client_memory_per_request() / (1 << 20) as f64
                ),
                format!("{:.0}", report.mean_memory_bytes() / (1 << 20) as f64),
            ]);
        }
    }
    out.table(
        &[
            "interval",
            "multiplexer",
            "exec p50",
            "exec p99",
            "e2e mean",
            "clients created",
            "MB/client-req",
            "mem mean (MB)",
        ],
        &rows,
    )?;
    out.line("Expected: with the multiplexer off, every invocation builds its own")?;
    out.line("client — execution latency and per-request client memory jump while")?;
    out.line("batching (container counts) stays identical.")?;
    Ok(())
}
