//! The paper's comparison (§V) in one sweep: all six schedulers over both
//! canonical workloads at every interval of [`DISPATCH_INTERVALS_MS`], each
//! run's stream audited by an [`AuditorSink`] and attributed exactly.
//!
//! From each workload's 0.2 s run it prints the six-way table (writing
//! `results/six_schedulers_{cpu,io}.json`), FaaSBatch's cuts against the
//! paper's baselines (the abstract's headline table), the Fig. 11/12 CDFs
//! and, on I/O, the per-second timelines (`results/timeline_io_*.csv`);
//! from all four intervals, the Fig. 13/14 panels. The figures plot the
//! [`PAPER_FOUR`] columns. Everything it prints is committed as
//! `results/six_schedulers.txt`.

use crate::{
    attribute, cdf_table, collected_events, json_pretty, paper_cpu_workload, paper_io_workload,
    six_traced, summary_table, Column, Output, Summary, DEFAULT_WINDOW, DISPATCH_INTERVALS_MS, MB,
    PAPER_FOUR,
};
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_metrics::events::{AuditorSink, TraceSink};
use faasbatch_metrics::report::{percent_reduction, RunReport};
use faasbatch_metrics::stats::Cdf;
use faasbatch_metrics::timeline::{to_csv, Series, Timeline};
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::Workload;
use std::io::{self, Write};

/// The sweep's index of the paper's default window: the run behind the
/// six-way table, the headline cuts, the CDFs and the timelines.
const DEFAULT_RUN: usize = 2;
const _: () = assert!(DISPATCH_INTERVALS_MS[DEFAULT_RUN] == DEFAULT_WINDOW.as_millis());

/// The six-way runs of `workload` at every interval of
/// [`DISPATCH_INTERVALS_MS`]. Panics unless every stream is auditor-clean
/// and attributes every invocation exactly.
fn sweep(workload: &Workload, label: &str) -> Vec<Vec<RunReport>> {
    DISPATCH_INTERVALS_MS
        .iter()
        .map(|&ms| {
            let window = SimDuration::from_millis(ms);
            let (reports, streams) = six_traced(workload, label, &SimConfig::default(), window);
            for (report, sink) in reports.iter().zip(&streams) {
                let events = collected_events(sink.as_ref());
                let mut auditor = AuditorSink::new();
                auditor.record_batch(events);
                let violations = auditor.finish();
                let who = &report.scheduler;
                assert!(violations.is_empty(), "{who}: auditor found {violations:?}");
                assert_eq!(report.records.len(), workload.len(), "{who} completes all");
                assert_eq!(attribute(events).invocations.len(), workload.len(), "{who}");
            }
            reports
        })
        .collect()
}

/// The [`PAPER_FOUR`] runs of a six-way comparison, in figure order.
fn paper_columns(six: &[RunReport]) -> [&RunReport; 4] {
    PAPER_FOUR.map(|kind| {
        let at = SchedulerKind::ALL.iter().position(|&k| k == kind);
        &six[at.expect("a paper scheduler is one of the six")]
    })
}

/// The headline table's columns: FaaSBatch's cut against each baseline.
const CUTS: [&str; 5] = [
    "baseline",
    "latency cut",
    "memory cut",
    "cpu cut",
    "containers cut",
];

/// The headline table's rows: FaaSBatch's latency / memory / CPU /
/// container cuts against each of the paper's three baselines.
fn reductions(four: &[&RunReport; 4]) -> Vec<Vec<String>> {
    let metrics: [fn(&RunReport) -> f64; 4] = [
        |r| r.end_to_end_cdf().mean().as_secs_f64(),
        RunReport::mean_memory_bytes,
        RunReport::mean_cpu_utilization,
        |r| r.provisioned_containers as f64,
    ];
    four[..3]
        .iter()
        .map(|base| {
            let cuts = metrics.map(|m| format!("{:+.2}%", percent_reduction(m(base), m(four[3]))));
            [base.scheduler.clone()].into_iter().chain(cuts).collect()
        })
        .collect()
}

/// One Fig. 11/12 panel: its title, the latency component whose CDF it
/// plots per scheduler, and whether Kraken's `Exec+Queue` series rides along.
type CdfPanel = (&'static str, fn(&RunReport) -> Cdf, bool);

const GB: f64 = (1u64 << 30) as f64;

/// The Fig. 14 panels, each a title and the cell a scheduler's run gets;
/// Fig. 13 plots the first three.
const RESOURCE_PANELS: [Column; 4] = [
    ("(a) mean system memory (GB)", |r| {
        format!("{:.2}", r.mean_memory_bytes() / GB)
    }),
    ("(b) provisioned containers", |r| {
        r.provisioned_containers.to_string()
    }),
    ("(c) mean CPU utilization", |r| {
        format!("{:.3}", r.mean_cpu_utilization())
    }),
    ("(d) memory per client-creation request (MB)", |r| {
        format!("{:.2}", r.client_memory_per_request() / MB)
    }),
];

/// The two figures one workload's runs print: a CDF figure from the 0.2 s
/// run and a resource figure over the sweep, each title followed by the
/// workload size, its panels, and its "Expected shape" text.
struct Figures {
    cdf_title: &'static str,
    cdf_panels: &'static [CdfPanel],
    cdf_shape: &'static str,
    sweep_title: &'static str,
    sweep_panels: &'static [Column],
    sweep_shape: &'static str,
}

const CPU_FIGURES: Figures = Figures {
    cdf_title: "Fig. 11 — latency CDFs, CPU-intensive workload",
    cdf_panels: &[
        ("(a) scheduling latency", RunReport::scheduling_cdf, false),
        ("(b) cold-start latency", RunReport::cold_start_cdf, false),
        ("(c) execution latency", RunReport::execution_cdf, false),
        ("(c') execution + queuing", RunReport::execution_cdf, true),
    ],
    cdf_shape: "\
Expected shape: FaaSBatch lowest scheduling + cold-start tails;
Kraken comparable until ~p96 then diverging; exec similar for all
but Kraken's Exec+Queue far above everyone (queuing penalty).",
    sweep_title: "Fig. 13 — resource cost vs dispatch interval, CPU workload",
    sweep_panels: RESOURCE_PANELS.split_at(3).0,
    sweep_shape: "\
Expected shape: FaaSBatch lowest on (a) and (b) at every interval, and
falling on every panel as the interval grows. On (c) it is below Vanilla
and SFS everywhere, but Kraken is below it at 0.10 s and 0.20 s — an open
deviation from the paper (DESIGN.md §9).",
};

const IO_FIGURES: Figures = Figures {
    cdf_title: "Fig. 12 — latency CDFs, I/O workload",
    cdf_panels: &[
        ("(a) scheduling latency", RunReport::scheduling_cdf, false),
        ("(b) cold-start latency", RunReport::cold_start_cdf, false),
        (
            "(c) execution (+queue) latency",
            RunReport::execution_cdf,
            true,
        ),
    ],
    cdf_shape: "\
Expected shape: FaaSBatch sub-second scheduling for everything;
FaaSBatch execution confined to a narrow band (multiplexed clients)
while the baselines spread wide from repeated client creation.",
    sweep_title: "Fig. 14 — resource cost vs dispatch interval, I/O workload",
    sweep_panels: &RESOURCE_PANELS,
    sweep_shape: "\
Expected shape: Vanilla and SFS flat on every panel (no dispatch interval);
they and Kraken pay 15.00 MB per client request. FaaSBatch lowest on (b), (c)
and (d) at every interval, and on (a) at every interval but 0.50 s, where
Kraken is below it. FaaSBatch falls on (a) and (c) at every step, though (a)
prints 0.81 GB at both 0.20 s and 0.50 s; (b) and (d) fall to 0.20 s and stay
level at 0.50 s. Its client requests cost 2.48 MB each at 0.01 s and under
1 MB from 0.10 s on.",
};

/// Prints the CDF panels of one run's [`PAPER_FOUR`] columns.
fn cdf_panels(out: &mut Output, four: &[&RunReport; 4], panels: &[CdfPanel]) -> io::Result<()> {
    for &(title, component, kraken_queue) in panels {
        let mut series: Vec<(&str, Cdf)> = four
            .iter()
            .map(|r| (r.scheduler.as_str(), component(r)))
            .collect();
        if kraken_queue {
            series.push(("kraken exec+queue", four[2].exec_queue_cdf()));
        }
        writeln!(out, "{}", cdf_table(title, &series))?;
    }
    Ok(())
}

/// Prints one interval × scheduler table per panel over the sweep.
fn sweep_panels(out: &mut Output, runs: &[Vec<RunReport>], panels: &[Column]) -> io::Result<()> {
    for &(title, cell) in panels {
        let rows: Vec<Vec<String>> = DISPATCH_INTERVALS_MS
            .iter()
            .zip(runs)
            .map(|(ms, six)| {
                let mut row = vec![format!("{:.2}s", *ms as f64 / 1e3)];
                row.extend(paper_columns(six).map(cell));
                row
            })
            .collect();
        writeln!(out, "{title}")?;
        out.table(
            &["interval", "vanilla", "sfs", "kraken", "faasbatch"],
            &rows,
        )?;
    }
    Ok(())
}

/// Per-second memory, live-container and busy-core sparklines of the I/O
/// run, with one CSV per series under `results/` for external plotting.
fn timelines(out: &mut Output, four: &[&RunReport; 4], n: usize) -> io::Result<()> {
    writeln!(
        out,
        "Timelines — I/O workload ({n} invocations), one char per second\n"
    )?;
    for (series, name) in [
        (Series::MemoryBytes, "memory"),
        (Series::LiveContainers, "containers"),
        (Series::BusyCores, "busy cores"),
    ] {
        writeln!(out, "{name}:")?;
        let lines = four.map(|r| Timeline::from_sampler(&r.scheduler, &r.sampler, series));
        for t in &lines {
            let (name, max, spark) = (&t.name, t.max(), t.sparkline());
            writeln!(out, "  {name:<10} max {max:>12.0}  {spark}")?;
        }
        writeln!(out)?;
        let file = format!("timeline_io_{}.csv", name.replace(' ', "_"));
        out.write_file(&file, to_csv(&lines))?;
    }
    out.line("Expected shape: Vanilla/SFS memory stair-steps upward with every")?;
    out.line("burst (containers accumulate); FaaSBatch stays low and flat.\n")
}

pub fn run(out: &mut Output) -> io::Result<()> {
    for (label, workload, figures) in [
        ("cpu", paper_cpu_workload(), &CPU_FIGURES),
        ("io", paper_io_workload(), &IO_FIGURES),
    ] {
        let sweep = sweep(&workload, label);
        let reports = &sweep[DEFAULT_RUN];
        let four = paper_columns(reports);
        let n = workload.len();
        writeln!(out, "=== {label} workload ({n} invocations) ===")?;
        writeln!(out, "{}", summary_table(reports))?;
        out.line("(all six streams auditor-clean; attribution 100% exact)\n")?;
        let summary: Vec<Summary> = reports.iter().map(Summary::of).collect();
        out.write_file(
            &format!("six_schedulers_{label}.json"),
            json_pretty(&summary)?,
        )?;

        out.line("FaaSBatch reductions vs baselines:")?;
        out.table(&CUTS, &reductions(&four))?;
        writeln!(out, "{} ({n} invocations)\n", figures.cdf_title)?;
        cdf_panels(out, &four, figures.cdf_panels)?;
        writeln!(out, "{}\n", figures.cdf_shape)?;
        if label == "io" {
            timelines(out, &four, n)?;
        }
        writeln!(out, "{} ({n} invocations)\n", figures.sweep_title)?;
        sweep_panels(out, &sweep, figures.sweep_panels)?;
        writeln!(out, "{}\n", figures.sweep_shape)?;
    }
    out.save_text("six_schedulers.txt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Both workloads' sweeps as [`run`] replays them, run once for every
    /// test here.
    fn sweeps() -> &'static [Vec<Vec<RunReport>>; 2] {
        static SWEEPS: OnceLock<[Vec<Vec<RunReport>>; 2]> = OnceLock::new();
        SWEEPS.get_or_init(|| {
            [
                sweep(&paper_cpu_workload(), "cpu"),
                sweep(&paper_io_workload(), "io"),
            ]
        })
    }

    /// Every cut of the headline table, as printed: the numbers
    /// EXPERIMENTS.md quotes.
    #[test]
    fn the_printed_cuts_hold() {
        let expected = [
            [
                ["vanilla", "+49.26%", "+75.20%", "+15.89%", "+74.59%"],
                ["sfs", "+49.44%", "+75.20%", "+16.90%", "+74.59%"],
                ["kraken", "+71.38%", "+16.79%", "-7.18%", "+18.42%"],
            ],
            [
                ["vanilla", "+90.67%", "+87.23%", "+90.88%", "+90.85%"],
                ["sfs", "+90.63%", "+87.23%", "+90.95%", "+90.85%"],
                ["kraken", "+74.64%", "+7.15%", "+43.48%", "+30.00%"],
            ],
        ];
        for (sweep, rows) in sweeps().iter().zip(expected) {
            let printed = reductions(&paper_columns(&sweep[DEFAULT_RUN]));
            assert_eq!(printed, rows.map(|row| row.map(str::to_owned)));
        }
    }

    /// The orderings Fig. 13's "Expected shape" text claims, Kraken's CPU
    /// inversion at 0.10 s and 0.20 s included: a re-baseline that flips
    /// any of them must rewrite the text.
    #[test]
    fn the_printed_fig13_shape_holds() {
        type Panel = (&'static str, fn(&RunReport) -> f64);
        let panels: [Panel; 3] = [
            ("memory", RunReport::mean_memory_bytes),
            ("containers", |r| r.provisioned_containers as f64),
            ("cpu", RunReport::mean_cpu_utilization),
        ];
        let mut previous = [f64::INFINITY; 3];
        for (ms, six) in DISPATCH_INTERVALS_MS.into_iter().zip(&sweeps()[0]) {
            let reports = paper_columns(six);
            for (i, (panel, value)) in panels.iter().enumerate() {
                let [vanilla, sfs, kraken, faasbatch] = [0, 1, 2, 3].map(|s| value(reports[s]));
                assert!(faasbatch < vanilla && faasbatch < sfs, "{panel} at {ms} ms");
                let kraken_below = *panel == "cpu" && (ms == 100 || ms == 200);
                assert_eq!(kraken < faasbatch, kraken_below, "{panel} at {ms} ms");
                assert!(faasbatch < previous[i], "{panel} falls at {ms} ms");
                previous[i] = faasbatch;
            }
        }
    }

    /// The orderings Fig. 14's "Expected shape" text claims, Kraken's memory
    /// inversion at 0.50 s included.
    #[test]
    fn the_printed_fig14_shape_holds() {
        type Panel = (&'static str, fn(&RunReport) -> f64);
        let panels: [Panel; 4] = [
            ("memory", RunReport::mean_memory_bytes),
            ("containers", |r| r.provisioned_containers as f64),
            ("cpu", RunReport::mean_cpu_utilization),
            ("MB/request", |r| r.client_memory_per_request() / MB),
        ];
        let sweep = &sweeps()[1];
        let first = paper_columns(&sweep[0]);
        let mut previous = [f64::INFINITY; 4];
        for (ms, six) in DISPATCH_INTERVALS_MS.into_iter().zip(sweep) {
            let reports = paper_columns(six);
            for (i, (panel, value)) in panels.iter().enumerate() {
                let [vanilla, sfs, kraken, faasbatch] = [0, 1, 2, 3].map(|s| value(reports[s]));
                // Vanilla and SFS have no interval: flat.
                assert_eq!(vanilla, value(first[0]), "{panel} at {ms} ms");
                assert_eq!(sfs, value(first[1]), "{panel} at {ms} ms");
                assert!(faasbatch < vanilla && faasbatch < sfs, "{panel} at {ms} ms");
                let kraken_below = *panel == "memory" && ms == 500;
                assert_eq!(kraken < faasbatch, kraken_below, "{panel} at {ms} ms");
                // Memory and CPU fall at every step; containers and
                // per-request memory fall to 0.20 s and stay level.
                if ms <= 200 || matches!(*panel, "memory" | "cpu") {
                    assert!(faasbatch < previous[i], "{panel} falls at {ms} ms");
                } else {
                    assert_eq!(faasbatch, previous[i], "{panel} level at {ms} ms");
                }
                previous[i] = faasbatch;
                if *panel == "MB/request" {
                    for baseline in [vanilla, sfs, kraken] {
                        assert_eq!(format!("{baseline:.2}"), "15.00", "at {ms} ms");
                    }
                    assert_eq!(faasbatch < 1.0, ms >= 100, "at {ms} ms");
                }
            }
        }
    }
}
