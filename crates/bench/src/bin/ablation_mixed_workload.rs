//! Ablation — mixed CPU + I/O traffic: the paper evaluates the two function
//! classes separately; real platforms serve both at once. This harness
//! merges the two replays and checks that FaaSBatch's advantages survive
//! interference between the classes.

use faasbatch_bench::{
    paper_cpu_workload, paper_io_workload, summary_table, DEFAULT_WINDOW, PAPER_FOUR,
};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_schedulers::config::SimConfig;

fn main() {
    let mixed = paper_cpu_workload().merge(paper_io_workload());
    println!(
        "Ablation — mixed workload ({} invocations: 800 cpu + 400 io)\n",
        mixed.len()
    );
    let reports = run_comparison(
        &PAPER_FOUR,
        &mixed,
        "mixed",
        &SimConfig::default(),
        &SchedulerSetup::new(DEFAULT_WINDOW),
        |_| Box::new(NoopSink),
    )
    .0;
    println!("{}", summary_table(&reports));
    let fb = &reports[3];
    let van = &reports[0];
    println!(
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
    );
    println!("\nExpected: the same orderings as the separate replays — batching and");
    println!("multiplexing are per-function, so mixing classes does not dilute them.");
}
