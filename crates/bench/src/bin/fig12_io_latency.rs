//! Fig. 12 — CDFs of invocation latency components for the I/O workload
//! (functions that create storage clients, Listing 1) under Vanilla, SFS,
//! Kraken, and FaaSBatch.

use faasbatch_bench::{
    cdf_table, export_json, paper_io_workload, summary_table, DEFAULT_WINDOW, PAPER_FOUR,
};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_metrics::stats::Cdf;
use faasbatch_schedulers::config::SimConfig;

fn main() {
    let w = paper_io_workload();
    println!(
        "Fig. 12 — latency CDFs, I/O workload ({} invocations)\n",
        w.len()
    );
    let reports = run_comparison(
        &PAPER_FOUR,
        &w,
        "io",
        &SimConfig::default(),
        &SchedulerSetup::new(DEFAULT_WINDOW),
        |_| Box::new(NoopSink),
    )
    .0;

    let series = |f: &dyn Fn(&faasbatch_metrics::report::RunReport) -> Cdf| -> Vec<(&str, Cdf)> {
        reports
            .iter()
            .map(|r| (r.scheduler.as_str(), f(r)))
            .collect()
    };
    println!(
        "{}",
        cdf_table("(a) scheduling latency", &series(&|r| r.scheduling_cdf()))
    );
    println!(
        "{}",
        cdf_table("(b) cold-start latency", &series(&|r| r.cold_start_cdf()))
    );
    let mut exec = series(&|r| r.execution_cdf());
    exec.push(("kraken exec+queue", reports[2].exec_queue_cdf()));
    println!("{}", cdf_table("(c) execution (+queue) latency", &exec));

    println!("{}", summary_table(&reports));
    println!("Expected shape: FaaSBatch sub-second scheduling for everything;");
    println!("FaaSBatch execution confined to a narrow band (multiplexed clients)");
    println!("while the baselines spread wide from repeated client creation.");
    export_json("fig12_io_latency", &reports);
}
