//! Headline comparison *with phase breakdowns*: where the time goes under
//! each scheduler, and which phases FaaSBatch's win comes from.
//!
//! Regenerates the headline comparison across all six schedulers
//! (Vanilla/SFS/Kraken/Hiku/core-late-bind/FaaSBatch) on both canonical
//! workloads, attributes every invocation's latency to the eleven phases of
//! DESIGN.md §13/§19, prints per-scheduler breakdowns plus the
//! Vanilla-vs-FaaSBatch trace diff, and commits the text report to
//! `results/headline_attribution.txt` and a compact per-scheduler
//! mean-phase JSON to `results/headline_attribution.json`.
//!
//! The CPU replay also yields the two reference artifacts of the README's
//! trace-diff quickstart, byte for byte what the CLI writes:
//! `results/trace_faasbatch.jsonl` (`faasbatch trace --scheduler faasbatch`)
//! and `results/trace_diff_vanilla_vs_faasbatch.txt` (`faasbatch trace-diff`
//! of the Vanilla log against it).
//!
//! A final section re-runs the CPU workload with the snapshot tier enabled
//! (short keep-alive so the pool churns, then a capacity-8 cache): the
//! cold-start phase mass visibly moves into the restore phase, which is the
//! headline claim of the snapshot tier.

use crate::{
    attribute, collected_events, json_pretty, paper_cpu_workload, paper_io_workload, six_traced,
    snapshot_ablation_setup, Output, DEFAULT_WINDOW,
};
use faasbatch_container::snapshot::SnapshotConfig;
use faasbatch_metrics::analysis::{diff_reports, AttributionReport, Phase};
use faasbatch_metrics::events::to_jsonl;
use faasbatch_schedulers::config::SimConfig;
use serde::Value;
use std::io::{self, Write};

/// The labels `faasbatch trace-diff` printed when the committed diff was
/// recorded: its two path arguments (the Vanilla log was a throwaway).
const TRACE_DIFF_LABELS: (&str, &str) =
    ("/tmp/trace_vanilla.jsonl", "results/trace_faasbatch.jsonl");

/// Mean phase durations as a deterministic JSON object (µs per phase).
fn mean_phases_json(report: &AttributionReport) -> Value {
    let mean = report.mean_phases();
    Value::Map(
        Phase::ALL
            .iter()
            .map(|&p| (p.name().to_owned(), Value::U64(mean.get(p).as_micros())))
            .collect(),
    )
}

pub fn run(out: &mut Output) -> io::Result<()> {
    let mut json: Vec<(String, Value)> = Vec::new();

    for (label, workload) in [("cpu", paper_cpu_workload()), ("io", paper_io_workload())] {
        let (reports, streams) =
            six_traced(&workload, label, &SimConfig::default(), DEFAULT_WINDOW);
        let attributed: Vec<AttributionReport> = streams
            .iter()
            .map(|s| attribute(collected_events(s.as_ref())))
            .collect();

        writeln!(
            out,
            "=== {label} workload ({} invocations) ===\n",
            workload.len()
        )?;
        let mut schedulers: Vec<(String, Value)> = Vec::new();
        for (report, attribution) in reports.iter().zip(&attributed) {
            writeln!(out, "--- {} ---", report.scheduler)?;
            write!(out, "{}", attribution.render())?;
            writeln!(out)?;
            schedulers.push((report.scheduler.clone(), mean_phases_json(attribution)));
        }

        // The headline claim, attributed: vanilla (A) vs faasbatch (B).
        let diff = diff_reports(&attributed[0], &attributed[5]);
        write!(
            out,
            "{}",
            diff.render(
                &format!("vanilla/{label}"),
                &format!("faasbatch/{label}"),
                10
            )
        )?;
        writeln!(out)?;
        if label == "cpu" {
            let jsonl =
                to_jsonl(collected_events(streams[5].as_ref())).map_err(io::Error::other)?;
            out.write_file("trace_faasbatch.jsonl", jsonl)?;
            let (a, b) = TRACE_DIFF_LABELS;
            out.write_file("trace_diff_vanilla_vs_faasbatch.txt", diff.render(a, b, 10))?;
        }
        assert!(
            diff.attributed_fraction() >= 0.9,
            "phase deltas must explain >= 90% of the latency movement"
        );

        json.push((
            label.to_owned(),
            Value::Map(vec![
                (
                    "mean_phases_us_per_scheduler".to_owned(),
                    Value::Map(schedulers),
                ),
                (
                    "vanilla_vs_faasbatch_mean_delta_us".to_owned(),
                    Value::I64(diff.mean_delta_micros),
                ),
                (
                    "attributed_fraction".to_owned(),
                    Value::F64(diff.attributed_fraction()),
                ),
            ]),
        ));
    }

    // DESIGN.md §19: the snapshot tier moves cold-start mass into the
    // restore phase. Re-run the CPU workload under a churn-inducing 2 s
    // keep-alive, with the tier off and with a capacity-8 cache, and show
    // the per-scheduler mean cold-start/restore phases side by side.
    let base = snapshot_ablation_setup();
    let snap = SimConfig {
        snapshot: SnapshotConfig::with_capacity(8),
        ..base.clone()
    };
    let cpu = paper_cpu_workload();
    let (off_reports, off_streams) = six_traced(&cpu, "cpu-churn", &base, DEFAULT_WINDOW);
    let (on_reports, on_streams) = six_traced(&cpu, "cpu-snap", &snap, DEFAULT_WINDOW);
    writeln!(
        out,
        "=== snapshot tier (cpu workload, 2s keep-alive, cache off vs capacity 8) ===\n"
    )?;
    let mut snap_json: Vec<(String, Value)> = Vec::new();
    for i in 0..6 {
        let off = attribute(collected_events(off_streams[i].as_ref())).mean_phases();
        let on = attribute(collected_events(on_streams[i].as_ref())).mean_phases();
        let (cold_off, cold_on) = (off.get(Phase::ColdStart), on.get(Phase::ColdStart));
        let (restore_off, restore_on) = (off.get(Phase::Restore), on.get(Phase::Restore));
        assert!(
            restore_off.is_zero(),
            "restore phase must be empty with the tier disabled"
        );
        assert!(
            on_reports[i].restored_starts > 0 && !restore_on.is_zero(),
            "the capacity-8 cache must serve restores under a churning pool"
        );
        assert!(
            cold_on < cold_off,
            "restores must drain mean cold-start mass"
        );
        writeln!(
            out,
            "{:>16}: mean cold-start {} -> {}, mean restore {} -> {} ({} restored starts)",
            off_reports[i].scheduler,
            cold_off,
            cold_on,
            restore_off,
            restore_on,
            on_reports[i].restored_starts,
        )?;
        snap_json.push((
            off_reports[i].scheduler.clone(),
            Value::Map(vec![
                ("cold_us_off".to_owned(), Value::U64(cold_off.as_micros())),
                ("cold_us_on".to_owned(), Value::U64(cold_on.as_micros())),
                (
                    "restore_us_on".to_owned(),
                    Value::U64(restore_on.as_micros()),
                ),
                (
                    "restored_starts".to_owned(),
                    Value::U64(on_reports[i].restored_starts),
                ),
            ]),
        ));
    }
    writeln!(
        out,
        "\nWith the cache on, every scheduler trades full re-boots for restores:\n\
         the cold-start phase shrinks and the (much smaller) restore phase\n\
         absorbs the difference, invocation by invocation, summing exactly."
    )?;
    json.push(("snapshot_tier_cpu".to_owned(), Value::Map(snap_json)));

    out.save_text("headline_attribution.txt")?;
    out.write_file("headline_attribution.json", json_pretty(&Value::Map(json))?)
}
