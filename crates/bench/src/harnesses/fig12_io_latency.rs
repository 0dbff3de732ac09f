//! Fig. 12 — CDFs of invocation latency components for the I/O workload
//! (functions that create storage clients, Listing 1) under Vanilla, SFS,
//! Kraken, and FaaSBatch.

use crate::{
    cdf_panels, paper_four, paper_io_workload, summary_table, CdfPanel, Output, DEFAULT_WINDOW,
};
use faasbatch_metrics::report::RunReport;
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_io_workload();
    writeln!(
        out,
        "Fig. 12 — latency CDFs, I/O workload ({} invocations)\n",
        w.len()
    )?;
    let reports = paper_four(&w, "io", DEFAULT_WINDOW);
    let panels: [CdfPanel; 3] = [
        ("(a) scheduling latency", RunReport::scheduling_cdf, false),
        ("(b) cold-start latency", RunReport::cold_start_cdf, false),
        (
            "(c) execution (+queue) latency",
            RunReport::execution_cdf,
            true,
        ),
    ];
    cdf_panels(out, &reports, &panels)?;

    writeln!(out, "{}", summary_table(&reports))?;
    out.line("Expected shape: FaaSBatch sub-second scheduling for everything;")?;
    out.line("FaaSBatch execution confined to a narrow band (multiplexed clients)")?;
    out.line("while the baselines spread wide from repeated client creation.")?;
    Ok(())
}
