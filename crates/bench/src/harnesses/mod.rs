//! The harness table: one row per harness registers its name, what it
//! reproduces, and the `results/` files it owns.

use crate::Output;
use std::io;

// Declared outside the table macro so rustfmt finds the files; a module
// without a table row fails the build (`run` is never used).
mod ablation_autoscaler;
mod ablation_early_return;
mod ablation_group_cap;
mod ablation_heterogeneity;
mod ablation_keepalive;
mod ablation_kraken_prediction;
mod ablation_mixed_workload;
mod ablation_multiplexer;
mod ablation_snapshot;
mod ablation_window_sweep;
mod azure_fullday;
mod fig01_sharing_vs_monopoly;
mod fig02_invocation_patterns;
mod fig03_blob_iat_cdf;
mod fig04_client_creation_latency;
mod fig05_client_creation_memory;
mod fig09_duration_distribution;
mod fig10_workload_pattern;
mod fleet_scaling;
mod headline_attribution;
mod six_schedulers;

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
    fig01_sharing_vs_monopoly: "Fig. 1 — sharing vs monopoly (live dispatch core, wall-clock)" => [];
    fig02_invocation_patterns: "Fig. 2 — hot-function day patterns" => [];
    fig03_blob_iat_cdf: "Fig. 3 — blob inter-access-time CDF" => [];
    fig04_client_creation_latency: "Fig. 4 — client creation time (model + live wall-clock)" => [];
    fig05_client_creation_memory: "Fig. 5 — client creation memory" => [];
    fig09_duration_distribution: "Fig. 9 — duration distribution" => [];
    fig10_workload_pattern: "Fig. 10 — arrival pattern of the replayed minute" => [];
    ablation_multiplexer: "ablation — resource multiplexer on/off" => [];
    ablation_group_cap: "ablation — inline-parallelism degree" => [];
    ablation_window_sweep: "ablation — extended dispatch-window sweep" => [];
    ablation_keepalive: "ablation — keep-alive TTL sensitivity" => [];
    ablation_early_return: "ablation — per-batch vs early-return responses" => [];
    ablation_kraken_prediction: "ablation — Kraken lazy/oracle/EWMA prediction" => [];
    ablation_heterogeneity: "ablation — per-function duration heterogeneity" => [];
    ablation_mixed_workload: "ablation — interleaved CPU + I/O workload" => [];
    ablation_autoscaler: "ablation — trace-driven autoscaler vs static config, six schedulers"
        => ["ablation_autoscaler.json"];
    ablation_snapshot: "ablation — snapshot cache capacity x restore cost x eviction, six schedulers"
        => ["ablation_snapshot.json"];
    fleet_scaling: "fleet sweep — workers {1..128} x routing policies x {faasbatch, vanilla}"
        => ["fleet_scaling.json"];
    azure_fullday: "2M-invocation synthetic Azure day through the fleet, hourly rows"
        => ["azure_fullday.json"];
}
