//! Fig. 14 — resource costs on the I/O workload vs dispatch interval:
//! (a) total memory, (b) provisioned containers, (c) CPU utilization, and
//! (d) memory footprint per client-creation request.

use crate::{interval_sweep, paper_io_workload, Output};
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_io_workload();
    writeln!(
        out,
        "Fig. 14 — resource cost vs dispatch interval, I/O workload ({} invocations)\n",
        w.len()
    )?;
    interval_sweep(
        out,
        &w,
        "io",
        &[
            ("(a) mean system memory (GB)", |r| {
                format!("{:.2}", r.mean_memory_bytes() / (1u64 << 30) as f64)
            }),
            ("(b) provisioned containers", |r| {
                r.provisioned_containers.to_string()
            }),
            ("(c) mean CPU utilization", |r| {
                format!("{:.3}", r.mean_cpu_utilization())
            }),
            ("(d) memory per client-creation request (MB)", |r| {
                format!("{:.2}", r.client_memory_per_request() / (1 << 20) as f64)
            }),
        ],
    )?;
    out.line("Expected shape: baselines ≈15 MB per client request, FaaSBatch ≪1 MB;")?;
    out.line("FaaSBatch memory falls as the interval grows (more stuffing, more reuse)")?;
    out.line("while Vanilla/SFS stay flat-to-rising; FaaSBatch lowest CPU.")?;
    Ok(())
}
