//! Fig. 13 — resource costs on the CPU-intensive workload as a function of
//! the dispatch interval: (a) total memory, (b) provisioned containers,
//! (c) CPU utilization, for all four schedulers.
//!
//! Vanilla and SFS have no dispatch interval (they dispatch per arrival);
//! their series are flat, as in the paper's plots.

use crate::{interval_sweep, paper_cpu_workload, Output};
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_cpu_workload();
    writeln!(
        out,
        "Fig. 13 — resource cost vs dispatch interval, CPU workload ({} invocations)\n",
        w.len()
    )?;
    interval_sweep(
        out,
        &w,
        "cpu",
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
        ],
    )?;
    out.line("Expected shape: FaaSBatch lowest on every panel; Kraken close on")?;
    out.line("containers (within ~12%); FaaSBatch improves as the interval grows.")?;
    Ok(())
}
