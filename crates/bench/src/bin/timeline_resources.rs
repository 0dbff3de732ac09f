//! Supplementary view — resource usage *over time* during the replay:
//! per-second memory and live-container sparklines for the four schedulers,
//! plus CSV export under `results/` for external plotting. (The paper's
//! Fig. 13/14 aggregate over the run; this shows the trajectories those
//! aggregates summarise.)

use faasbatch_bench::{paper_io_workload, DEFAULT_WINDOW, PAPER_FOUR};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_metrics::timeline::{to_csv, Series, Timeline};
use faasbatch_schedulers::config::SimConfig;

fn main() {
    let w = paper_io_workload();
    println!(
        "Timelines — I/O workload ({} invocations), one char per second\n",
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
    for series in [
        Series::MemoryBytes,
        Series::LiveContainers,
        Series::BusyCores,
    ] {
        let name = match series {
            Series::MemoryBytes => "memory",
            Series::LiveContainers => "containers",
            Series::BusyCores => "busy cores",
        };
        println!("{name}:");
        let mut timelines = Vec::new();
        for r in &reports {
            let t = Timeline::from_sampler(&r.scheduler, &r.sampler, series);
            println!(
                "  {:<10} max {:>12.0}  {}",
                r.scheduler,
                t.max(),
                t.sparkline()
            );
            timelines.push(t);
        }
        println!();
        if std::fs::create_dir_all("results").is_ok() {
            let _ = std::fs::write(
                format!("results/timeline_io_{}.csv", name.replace(' ', "_")),
                to_csv(&timelines),
            );
        }
    }
    println!("CSV series written to results/timeline_io_*.csv");
    println!("Expected shape: Vanilla/SFS memory stair-steps upward with every");
    println!("burst (containers accumulate); FaaSBatch stays low and flat.");
}
