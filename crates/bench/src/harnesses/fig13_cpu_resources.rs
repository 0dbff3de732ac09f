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
    out.line("Expected shape: FaaSBatch lowest on (a) and (b) at every interval, and")?;
    out.line("falling on every panel as the interval grows. On (c) it is below Vanilla")?;
    out.line("and SFS everywhere, but Kraken is below it at 0.10 s and 0.20 s — an open")?;
    out.line("deviation from the paper (DESIGN.md §9).")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{paper_cpu_workload, paper_four, DISPATCH_INTERVALS_MS};
    use faasbatch_metrics::report::RunReport;
    use faasbatch_simcore::time::SimDuration;

    /// The orderings the "Expected shape" text claims, Kraken's CPU
    /// inversion at 0.10 s and 0.20 s included: a re-baseline that flips
    /// any of them must rewrite the text.
    #[test]
    fn the_printed_shape_holds() {
        let w = paper_cpu_workload();
        type Panel = (&'static str, fn(&RunReport) -> f64);
        let panels: [Panel; 3] = [
            ("memory", RunReport::mean_memory_bytes),
            ("containers", |r| r.provisioned_containers as f64),
            ("cpu", RunReport::mean_cpu_utilization),
        ];
        let mut previous = [f64::INFINITY; 3];
        for ms in DISPATCH_INTERVALS_MS {
            let reports = paper_four(&w, "cpu", SimDuration::from_millis(ms));
            for (i, (panel, value)) in panels.iter().enumerate() {
                let [vanilla, sfs, kraken, faasbatch] = [0, 1, 2, 3].map(|s| value(&reports[s]));
                assert!(faasbatch < vanilla && faasbatch < sfs, "{panel} at {ms} ms");
                let kraken_below = *panel == "cpu" && (ms == 100 || ms == 200);
                assert_eq!(kraken < faasbatch, kraken_below, "{panel} at {ms} ms");
                assert!(faasbatch < previous[i], "{panel} falls at {ms} ms");
                previous[i] = faasbatch;
            }
        }
    }
}
