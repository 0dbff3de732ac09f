//! Supplementary view — resource usage *over time* during the replay:
//! per-second memory and live-container sparklines for the four schedulers,
//! plus CSV export under `results/` for external plotting. (The paper's
//! Fig. 13/14 aggregate over the run; this shows the trajectories those
//! aggregates summarise.)

use crate::{paper_four, paper_io_workload, Output, DEFAULT_WINDOW};
use faasbatch_metrics::timeline::{to_csv, Series, Timeline};
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_io_workload();
    writeln!(
        out,
        "Timelines — I/O workload ({} invocations), one char per second\n",
        w.len()
    )?;
    let reports = paper_four(&w, "io", DEFAULT_WINDOW);
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
        writeln!(out, "{name}:")?;
        let mut timelines = Vec::new();
        for r in &reports {
            let t = Timeline::from_sampler(&r.scheduler, &r.sampler, series);
            writeln!(
                out,
                "  {:<10} max {:>12.0}  {}",
                r.scheduler,
                t.max(),
                t.sparkline()
            )?;
            timelines.push(t);
        }
        writeln!(out)?;
        out.write_file(
            &format!("timeline_io_{}.csv", name.replace(' ', "_")),
            to_csv(&timelines),
        )?;
    }
    let pattern = out.dir().join("timeline_io_*.csv");
    writeln!(out, "CSV series written to {}", pattern.display())?;
    out.line("Expected shape: Vanilla/SFS memory stair-steps upward with every")?;
    out.line("burst (containers accumulate); FaaSBatch stays low and flat.")?;
    Ok(())
}
