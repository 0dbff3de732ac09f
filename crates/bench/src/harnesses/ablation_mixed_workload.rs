//! Ablation — mixed CPU + I/O traffic: the paper evaluates the two function
//! classes separately; real platforms serve both at once. This harness
//! merges the two replays and checks that FaaSBatch's advantages survive
//! interference between the classes.

use crate::{
    paper_cpu_workload, paper_io_workload, summary_table, Output, DEFAULT_WINDOW, PAPER_FOUR,
};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_schedulers::config::SimConfig;
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let mixed = paper_cpu_workload().merge(paper_io_workload());
    writeln!(
        out,
        "Ablation — mixed workload ({} invocations: 800 cpu + 400 io)\n",
        mixed.len()
    )?;
    let (reports, _) = run_comparison(
        &PAPER_FOUR,
        &mixed,
        "mixed",
        &SimConfig::default(),
        &SchedulerSetup::new(DEFAULT_WINDOW),
        |_| Box::new(NoopSink),
    );
    writeln!(out, "{}", summary_table(&reports))?;
    let fb = &reports[3];
    let van = &reports[0];
    writeln!(
        out,
        "FaaSBatch vs Vanilla under interference: latency −{:.1}%, containers −{:.1}%, memory −{:.1}%",
        faasbatch_metrics::report::percent_reduction(
            van.end_to_end_cdf().mean().as_secs_f64(),
            fb.end_to_end_cdf().mean().as_secs_f64(),
        ),
        faasbatch_metrics::report::percent_reduction(
            van.provisioned_containers as f64,
            fb.provisioned_containers as f64,
        ),
        faasbatch_metrics::report::percent_reduction(van.mean_memory_bytes(), fb.mean_memory_bytes()),
    )?;
    out.line("\nExpected: the same orderings as the separate replays — batching and")?;
    out.line("multiplexing are per-function, so mixing classes does not dilute them.")?;
    Ok(())
}
