//! Full-day Azure-style replay: ~2M invocations through the fleet.
//!
//! Streams a synthetic Azure day ([`WorkloadStream::azure_day`], Fig. 2
//! diurnal shape) hour by hour: each hour's invocations are materialised as
//! one chunk, rebased to the chunk origin, replayed through the fleet, and
//! folded into hourly aggregates before the records are dropped — resident
//! memory is bounded by the busiest hour, never the day. Warm state resets
//! at hour boundaries (each chunk starts from a cold fleet), so per-hour
//! cold rates are upper bounds on a continuous replay's.
//!
//! Writes the hourly simulated rows to `results/azure_fullday.json`. How
//! long the replay takes and how much memory it holds are the benchmark's
//! `sim_azure_day` rows (`benchmark/results/`), not this file's.

use crate::{json_pretty, Output, SEED};
use faasbatch_container::ids::InvocationId;
use faasbatch_fleet::config::FleetConfig;
use faasbatch_fleet::routing::RoutingKind;
use faasbatch_fleet::sim::run_fleet;
use faasbatch_metrics::stats::Cdf;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimTime;
use faasbatch_trace::stream::{AzureDayConfig, InvocationSource, WorkloadStream};
use faasbatch_trace::workload::{Invocation, Workload};
use serde::Serialize;
use std::io::{self, Write};

const HOUR_US: u64 = 3_600 * 1_000_000;

/// Aggregates for one replayed hour.
#[derive(Debug, Serialize)]
struct HourRow {
    hour: u32,
    invocations: usize,
    cold: usize,
    cold_rate: f64,
    warm_hits: u64,
    provisioned_containers: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

#[derive(Debug, Serialize)]
struct FullDayReport {
    total_invocations: usize,
    functions: usize,
    workers: usize,
    seed: u64,
    scheduler: String,
    hours: Vec<HourRow>,
    overall_cold_rate: f64,
    overall_p99_ms: f64,
    note: String,
}

fn quantile_ms(cdf: &Cdf, q: f64) -> f64 {
    cdf.quantile(q).as_micros() as f64 / 1e3
}

pub fn run(out: &mut Output) -> io::Result<()> {
    let day = AzureDayConfig {
        total: 2_000_000,
        ..AzureDayConfig::default()
    };
    let fleet = FleetConfig::default();
    let counts = day.hourly_counts();
    let mut stream = WorkloadStream::azure_day(&DetRng::new(SEED), &day);
    let registry = stream.registry().clone();

    writeln!(
        out,
        "azure_fullday: {} invocations, {} functions, {} workers",
        day.total, day.functions, fleet.workers,
    )?;

    let mut hours: Vec<HourRow> = Vec::with_capacity(24);
    let mut total_cold = 0usize;
    let mut completed = 0usize;
    let mut overall_cdf: Vec<faasbatch_simcore::time::SimDuration> = Vec::new();
    for (hour, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let origin_us = hour as u64 * HOUR_US;
        // One hour of the stream, rebased to the chunk origin and
        // renumbered dense — each chunk is an independent fleet replay.
        let invocations: Vec<Invocation> = (0..count)
            .map(|i| {
                let inv = stream.next_invocation().expect("hourly counts are exact");
                Invocation {
                    id: InvocationId::new(i as u64),
                    arrival: SimTime::from_micros(inv.arrival.as_micros() - origin_us),
                    ..inv
                }
            })
            .collect();
        let chunk = Workload::from_sorted(registry.clone(), invocations);
        let report = run_fleet(
            &chunk,
            &fleet,
            RoutingKind::LeastLoaded.build(),
            "azure-day",
        )
        .expect("fault-free fleet replay succeeds");

        let cold = report.records.iter().filter(|r| r.record.cold).count();
        let latencies: Vec<_> = report
            .records
            .iter()
            .map(|r| {
                r.record
                    .completion
                    .saturating_duration_since(r.record.arrival)
            })
            .collect();
        // Reservoir-free overall p99: fold per-hour p99s weighted later is
        // biased, so keep a bounded subsample — every 16th latency.
        overall_cdf.extend(latencies.iter().step_by(16).copied());
        let cdf = Cdf::from_samples(latencies);
        let warm_hits: u64 = report.workers.iter().map(|w| w.report.warm_hits).sum();
        let provisioned: u64 = report
            .workers
            .iter()
            .map(|w| w.report.provisioned_containers)
            .sum();
        let row = HourRow {
            hour: hour as u32,
            invocations: count,
            cold,
            cold_rate: cold as f64 / count as f64,
            warm_hits,
            provisioned_containers: provisioned,
            p50_ms: quantile_ms(&cdf, 0.50),
            p95_ms: quantile_ms(&cdf, 0.95),
            p99_ms: quantile_ms(&cdf, 0.99),
        };
        writeln!(
            out,
            "  h{:02} {:>8} inv  cold {:>5.2}%  p50 {:>8.2} ms  p99 {:>9.2} ms",
            row.hour,
            row.invocations,
            row.cold_rate * 100.0,
            row.p50_ms,
            row.p99_ms,
        )?;
        total_cold += cold;
        completed += count;
        hours.push(row);
    }
    assert_eq!(completed, day.total, "every invocation must be replayed");
    assert!(
        stream.next_invocation().is_none(),
        "stream must be exhausted"
    );
    let all_p99_ms = quantile_ms(&Cdf::from_samples(overall_cdf), 0.99);
    let report = FullDayReport {
        total_invocations: completed,
        functions: day.functions,
        workers: fleet.workers,
        seed: SEED,
        scheduler: "faasbatch".to_owned(),
        hours,
        overall_cold_rate: total_cold as f64 / completed as f64,
        overall_p99_ms: all_p99_ms,
        note: "hour-chunked fleet replay: warm state resets at hour boundaries, \
               so cold rates upper-bound a continuous replay; overall p99 is \
               computed on a 1/16 latency subsample"
            .to_owned(),
    };
    writeln!(
        out,
        "\ntotal: {} invocations  cold {:.2}%  p99 {:.2} ms",
        report.total_invocations,
        report.overall_cold_rate * 100.0,
        report.overall_p99_ms,
    )?;

    out.write_file("azure_fullday.json", json_pretty(&report)? + "\n")
}
