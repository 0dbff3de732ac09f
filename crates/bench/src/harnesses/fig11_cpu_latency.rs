//! Fig. 11 — CDFs of invocation latency components for the CPU-intensive
//! workload under Vanilla, SFS, Kraken, and FaaSBatch:
//! (a) scheduling latency, (b) cold-start latency, (c) execution latency
//! (plus Kraken's `Exec+Queue` series).

use crate::{
    cdf_panels, paper_cpu_workload, paper_four, summary_table, CdfPanel, Output, DEFAULT_WINDOW,
};
use faasbatch_metrics::report::RunReport;
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_cpu_workload();
    writeln!(
        out,
        "Fig. 11 — latency CDFs, CPU-intensive workload ({} invocations)\n",
        w.len()
    )?;
    let reports = paper_four(&w, "cpu", DEFAULT_WINDOW);
    let panels: [CdfPanel; 4] = [
        ("(a) scheduling latency", RunReport::scheduling_cdf, false),
        ("(b) cold-start latency", RunReport::cold_start_cdf, false),
        ("(c) execution latency", RunReport::execution_cdf, false),
        ("(c') execution + queuing", RunReport::execution_cdf, true),
    ];
    cdf_panels(out, &reports, &panels)?;

    writeln!(out, "{}", summary_table(&reports))?;
    out.line("Expected shape: FaaSBatch lowest scheduling + cold-start tails;")?;
    out.line("Kraken comparable until ~p96 then diverging; exec similar for all")?;
    out.line("but Kraken's Exec+Queue far above everyone (queuing penalty).")?;
    Ok(())
}
