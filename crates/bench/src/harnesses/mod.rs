//! The harness table: one row per harness registers its name, what it
//! reproduces, and the `results/` files it owns.

use crate::Output;
use std::io;

// Declared outside the table macro so rustfmt finds the files; a module
// without a table row fails the build (`run` is never used).
mod ablation_autoscaler;
mod ablation_snapshot;
mod ablations;
mod azure_fullday;
mod fig01_sharing_vs_monopoly;
mod fig04_client_creation_latency;
mod fig05_client_creation_memory;
mod fleet_scaling;
mod headline_attribution;
mod six_schedulers;
mod trace_figures;

/// One figure or ablation harness.
#[derive(Clone, Copy)]
pub struct Harness {
    /// The subcommand (`faasbatch-bench <name>`).
    pub name: &'static str,
    /// What it reproduces, one line.
    pub what: &'static str,
    /// The files under `results/` it writes — all of them, every run.
    pub files: &'static [&'static str],
    /// Runs it at full size.
    pub run: fn(&mut Output) -> io::Result<()>,
}

macro_rules! harnesses {
    ($($name:ident: $what:literal => [$($file:literal),*];)*) => {
        /// Every harness, in `list` order.
        pub const HARNESSES: &[Harness] = &[$(Harness {
            name: stringify!($name),
            what: $what,
            files: &[$($file),*],
            run: $name::run,
        }),*];
    };
}

harnesses! {
    six_schedulers: "§V comparison: headline cuts, Figs. 11–14, I/O timelines, six-way table on audited streams"
        => [
            "six_schedulers.txt",
            "six_schedulers_cpu.json",
            "six_schedulers_io.json",
            "timeline_io_memory.csv",
            "timeline_io_containers.csv",
            "timeline_io_busy_cores.csv"
        ];
    headline_attribution: "six-way eleven-phase attribution, Vanilla-vs-FaaSBatch trace diff, reference event log"
        => [
            "headline_attribution.txt",
            "headline_attribution.json",
            "trace_faasbatch.jsonl",
            "trace_diff_vanilla_vs_faasbatch.txt"
        ];
    trace_figures: "Figs. 2, 3, 9, 10 — hot-function days, blob inter-access CDF, durations, the replayed minute"
        => ["trace_figures.txt"];
    fig01_sharing_vs_monopoly: "Fig. 1 — sharing vs monopoly (live dispatch core, wall-clock)" => [];
    fig04_client_creation_latency: "Fig. 4 — client creation time (model + live wall-clock)" => [];
    fig05_client_creation_memory: "Fig. 5 — client creation memory" => [];
    ablations: "ablations — multiplexer, group cap, window, keep-alive, early return, Kraken prediction, heterogeneity, mixed workload"
        => ["ablations.txt"];
    ablation_autoscaler: "ablation — trace-driven autoscaler vs static config, six schedulers"
        => ["ablation_autoscaler.json"];
    ablation_snapshot: "ablation — snapshot cache capacity x restore cost x eviction, six schedulers"
        => ["ablation_snapshot.json"];
    fleet_scaling: "fleet sweep — workers {1..128} x routing policies x {faasbatch, vanilla}"
        => ["fleet_scaling.json"];
    azure_fullday: "2M-invocation synthetic Azure day through the fleet, hourly rows"
        => ["azure_fullday.json"];
}
