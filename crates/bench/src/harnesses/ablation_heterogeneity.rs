//! Ablation — per-function duration heterogeneity: the paper's workload
//! samples every invocation from one global distribution; real platforms
//! have short functions and long functions. This harness turns on distinct
//! per-function duration profiles and checks which scheduler conclusions
//! survive — notably whether SFS's short-function priority and Kraken's
//! per-function SLOs start paying off.

use crate::{summary_table, Output, DEFAULT_WINDOW, PAPER_FOUR, SEED};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::rng::DetRng;
use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    for h in [0.0, 2.0] {
        let w = cpu_workload(
            &DetRng::new(SEED),
            &WorkloadConfig {
                heterogeneity: h,
                ..WorkloadConfig::default()
            },
        );
        writeln!(
            out,
            "=== heterogeneity {h} ({} invocations, {} functions) ===",
            w.len(),
            w.registry().len()
        )?;
        let (reports, _) = run_comparison(
            &PAPER_FOUR,
            &w,
            "cpu-hetero",
            &SimConfig::default(),
            &SchedulerSetup::new(DEFAULT_WINDOW),
            |_| Box::new(NoopSink),
        );
        writeln!(out, "{}", summary_table(&reports))?;
    }
    out.line("Expected: the FaaSBatch-first ordering is unchanged; with distinct")?;
    out.line("profiles SFS's short-function gains and Kraken's per-function SLO")?;
    out.line("batching become visible in the per-scheduler latency columns.")?;
    Ok(())
}
