//! `sim_azure_day`: the synthetic Azure day streamed hour by hour through
//! `fleet::sim::run_fleet` (FaaSBatch on every worker, least-loaded
//! routing, no event sink) — what `azure_fullday` replays.
//!
//! Why: the repo's headline replay. The work is `simcore::engine` events,
//! `core::mapper` grouping, `container::{cluster,pool}` acquisition, the
//! record reducer and `trace::stream`; FaaSBatch keeps few tasks runnable,
//! so the processor-sharing pump in `simcore::cpu` does little here.
//!
//! A unit is one whole day. Latency is how long one hour's calls
//! (materialise, replay, statistics) took to return — what a caller of the
//! replay waits for: p50 is the typical hour, p99 the peak hour. Times are
//! calibrated hour by hour (`measure::SpeedProbe`).

use crate::measure::{run_passes, CalibratedUnit, Digest, Measured, Pass, RunCtx};
use crate::spans::{PassScope, SpanLog};
use faasbatch_container::ids::InvocationId;
use faasbatch_fleet::config::FleetConfig;
use faasbatch_fleet::report::FleetReport;
use faasbatch_fleet::routing::RoutingKind;
use faasbatch_fleet::sim::{run_fleet, run_fleet_traced};
use faasbatch_metrics::analysis::AttributionEngine;
use faasbatch_metrics::events::{AuditorSink, TraceSink, VecSink};
use faasbatch_metrics::stats::Cdf;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimTime;
use faasbatch_trace::function::FunctionRegistry;
use faasbatch_trace::stream::{AzureDayConfig, InvocationSource, WorkloadStream};
use faasbatch_trace::workload::{Invocation, Workload};
use std::cell::RefCell;
use std::time::Instant;

const HOUR_US: u64 = 3_600 * 1_000_000;
const LABEL: &str = "sim_azure_day";

struct Day {
    config: AzureDayConfig,
    fleet: FleetConfig,
    counts: Vec<usize>,
}

/// Container acquisitions of one traced day, for the fleet rows.
#[derive(Default)]
struct FleetCounts {
    warm_hits: u64,
    provisioned: u64,
    cold: u64,
}

/// The next `count` invocations of `stream` as one independent replay:
/// rebased to the hour's origin and renumbered dense.
fn next_chunk(
    stream: &mut WorkloadStream,
    registry: &FunctionRegistry,
    hour: usize,
    count: usize,
) -> Workload {
    let origin_us = hour as u64 * HOUR_US;
    let invocations: Vec<Invocation> = (0..count)
        .map(|i| {
            let inv = stream
                .next_invocation()
                .expect("hourly counts sum to the stream's total");
            Invocation {
                id: InvocationId::new(i as u64),
                arrival: SimTime::from_micros(inv.arrival.as_micros() - origin_us),
                ..inv
            }
        })
        .collect();
    Workload::from_sorted(registry.clone(), invocations)
}

fn setup(ctx: &RunCtx) -> Day {
    let config = AzureDayConfig {
        total: ctx.sizing.day_total,
        functions: ctx.sizing.day_functions,
        ..AzureDayConfig::default()
    };
    let fleet = FleetConfig {
        workers: ctx.sizing.day_workers,
        ..FleetConfig::default()
    };
    let counts = config.hourly_counts();
    // Warm-up: replay the day's busiest hour from a stream of its own, so
    // the timed pass still sees the whole day.
    let mut stream = WorkloadStream::azure_day(&DetRng::new(ctx.seed), &config);
    let registry = stream.registry().clone();
    let busiest = (0..counts.len())
        .max_by_key(|&hour| (counts[hour], std::cmp::Reverse(hour)))
        .expect("a day has 24 hours");
    for (hour, &count) in counts.iter().enumerate().take(busiest + 1) {
        let chunk = next_chunk(&mut stream, &registry, hour, count);
        if hour == busiest && count > 0 {
            run_fleet(&chunk, &fleet, RoutingKind::LeastLoaded.build(), LABEL)
                .expect("fault-free fleet replay succeeds");
        }
    }
    Day {
        config,
        fleet,
        counts,
    }
}

/// Replays `chunk`; in a traced pass also collects the fleet-level stream
/// and checks it with the auditor and the attribution engine.
fn replay_chunk(
    day: &Day,
    chunk: &Workload,
    traced: bool,
    errors: &mut Vec<String>,
    hour: usize,
) -> FleetReport {
    let policy = RoutingKind::LeastLoaded.build();
    if !traced {
        return run_fleet(chunk, &day.fleet, policy, LABEL)
            .expect("fault-free fleet replay succeeds");
    }
    let (report, sink) =
        run_fleet_traced(chunk, &day.fleet, policy, LABEL, Box::new(VecSink::new()))
            .expect("fault-free fleet replay succeeds");
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("the sink handed in is returned")
        .events();
    let mut auditor = AuditorSink::new();
    auditor.record_batch(events);
    let violations = auditor.finish().len();
    if violations > 0 {
        errors.push(format!("hour {hour}: {violations} auditor violations"));
    }
    let mut engine = AttributionEngine::new();
    engine.consume(events);
    let attribution = engine.finish();
    if !attribution.all_exact() || attribution.invocations.len() != chunk.len() {
        errors.push(format!("hour {hour}: attribution inexact or incomplete"));
    }
    report
}

fn replay_day(
    ctx: &RunCtx,
    day: &Day,
    spans: Option<&mut SpanLog>,
    counts: &mut FleetCounts,
) -> Pass {
    let mut scope = PassScope::open(spans, "sim_azure_day.pass");
    let mut stream = WorkloadStream::azure_day(&DetRng::new(ctx.seed), &day.config);
    let registry = stream.registry().clone();
    let mut digest = Digest::default();
    let mut errors = Vec::new();
    let mut completed = 0u64;
    let mut unit = CalibratedUnit::start();
    for (hour, &count) in day.counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let t0 = Instant::now();
        let chunk = next_chunk(&mut stream, &registry, hour, count);
        let t1 = Instant::now();
        let report = replay_chunk(day, &chunk, scope.traced(), &mut errors, hour);
        let t2 = Instant::now();

        if report.records.len() != count {
            errors.push(format!(
                "hour {hour}: {} of {count} invocations completed",
                report.records.len()
            ));
        }
        let cold = report.records.iter().filter(|r| r.record.cold).count() as u64;
        let cdf = Cdf::from_samples(
            report
                .records
                .iter()
                .map(|r| {
                    r.record
                        .completion
                        .saturating_duration_since(r.record.arrival)
                })
                .collect(),
        );
        for value in [
            hour as u64,
            report.records.len() as u64,
            cold,
            cdf.quantile(0.50).as_micros(),
            cdf.quantile(0.95).as_micros(),
            cdf.quantile(0.99).as_micros(),
        ] {
            digest.feed(value);
        }
        let t3 = Instant::now();

        completed += report.records.len() as u64;
        counts.cold += cold;
        counts.warm_hits += report
            .workers
            .iter()
            .map(|w| w.report.warm_hits)
            .sum::<u64>();
        counts.provisioned += report.provisioned_containers();
        unit.call(t3.duration_since(t0).as_secs_f64());
        scope.record("trace.stream.chunk", t0, t1, hour as u64);
        scope.record("fleet.run_fleet", t1, t2, hour as u64);
        scope.record("metrics.stats.cdf", t2, t3, hour as u64);
    }
    if stream.next_invocation().is_some() {
        errors.push("the day's stream was not exhausted".to_owned());
    }
    scope.close();
    let (unit, calls) = unit.finish(completed);
    Pass {
        unit,
        calls,
        digest: digest.value(),
        errors,
    }
}

/// Runs the workload: whole days until `ctx.seconds` have been timed.
pub fn run(ctx: &RunCtx) -> Measured {
    let traced_counts = RefCell::new(FleetCounts::default());
    run_passes(
        ctx,
        || setup(ctx),
        |day| day.config.total as u64,
        |day, spans| match spans {
            Some(log) => replay_day(ctx, day, Some(log), &mut traced_counts.borrow_mut()),
            None => replay_day(ctx, day, None, &mut FleetCounts::default()),
        },
        |day, log, passes, layer| {
            let n = passes as f64;
            let counts = traced_counts.borrow();
            let acquisitions = counts.warm_hits + counts.provisioned;
            let mut put = |name: &str, value: f64| {
                layer.insert(name.to_owned(), value);
            };
            put(
                "trace.stream.chunk_s",
                log.total_s("trace.stream.chunk") / n,
            );
            put("fleet.run_fleet_s", log.total_s("fleet.run_fleet") / n);
            put("metrics.stats.cdf_s", log.total_s("metrics.stats.cdf") / n);
            put(
                "fleet.warm_hit_share",
                counts.warm_hits as f64 / acquisitions.max(1) as f64,
            );
            put(
                "fleet.cold_share",
                counts.cold as f64 / (day.config.total as f64 * n),
            );
        },
    )
}
