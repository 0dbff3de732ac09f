//! `sim_six_contended`: one bursty CPU workload replayed by all six
//! schedulers through `run_simulation_traced` with a `VecSink` and an
//! `AuditorSink` attached, vanilla's report calibrating Kraken, and the
//! attribution engine run over every stream.
//!
//! Why: the same engine as `sim_azure_day` used differently. At about 2.5
//! times the paper's arrival rate vanilla and SFS fall behind the bursts
//! until most of the trace (hundreds of tasks, up to all 1,000) is runnable
//! at once, so the processor-sharing pump in `simcore::cpu` is most of the
//! wall; and it is the only workload that writes events (sinks, auditor,
//! attribution) and runs SFS, Kraken, Hiku and core-late-bind at all.
//!
//! A unit is one pass over all six schedulers. Latency is how long one
//! scheduler's replay and analysis took to return: p50 is the typical
//! scheduler (the cheap four, which the pass's rate hides), p99 the most
//! expensive (SFS). Times are calibrated scheduler by scheduler
//! (`measure::SpeedProbe`).

use crate::measure::{run_passes, CalibratedUnit, Digest, Measured, Pass, RunCtx};
use crate::spans::{PassScope, SpanLog};
use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_metrics::analysis::AttributionEngine;
use faasbatch_metrics::events::{AuditorSink, MultiSink, NoopSink, TraceSink, VecSink};
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::run_simulation_traced;
use faasbatch_schedulers::kraken::KrakenCalibration;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::workload::{cpu_workload, Invocation, Workload, WorkloadConfig};
use std::time::Instant;

const LABEL: &str = "sim_six_contended";

/// Span names per scheduler, in [`SchedulerKind::ALL`] order.
const REPLAY_SPANS: [&str; 6] = [
    "schedulers.vanilla.replay",
    "schedulers.sfs.replay",
    "schedulers.kraken.replay",
    "schedulers.hiku.replay",
    "schedulers.core-late-bind.replay",
    "schedulers.faasbatch.replay",
];

/// Share of the invocations that arrive inside bursts, and a burst's width —
/// the constants of `trace::arrival::BurstyConfig::default()`.
const BURST_MASS: f64 = 0.75;
const BURST_WIDTH_US: u64 = 250_000;

/// The replayed workload: functions and durations as `cpu_workload` draws
/// them for the seed (Zipf popularity, the paper's duration distribution),
/// re-timed onto evenly spaced bursts with seeded jitter inside each.
///
/// `cpu_workload` places its bursts uniformly at random, and under vanilla
/// and SFS two bursts that happen to overlap compound into a backlog that
/// takes many times longer to replay: over ten seeds the simulated mean
/// latency under vanilla ranged from 3.4 s to 55.9 s (16 times), against
/// 23.8 s to 25.3 s on the even schedule. A benchmark whose work differs
/// 16 times between seeds cannot tell a regression from a seed.
fn contended_workload(ctx: &RunCtx) -> Workload {
    let sizing = &ctx.sizing;
    let bodies = cpu_workload(
        &DetRng::new(ctx.seed),
        &WorkloadConfig {
            total: sizing.six_total,
            span: SimDuration::from_secs(sizing.six_span_s),
            functions: sizing.six_functions,
            bursts: sizing.six_bursts,
            ..WorkloadConfig::default()
        },
    );
    let total = bodies.len();
    let span_us = sizing.six_span_s * 1_000_000;
    let bursts = sizing.six_bursts.max(1);
    let per_burst = (total as f64 * BURST_MASS) as usize / bursts;
    let mut rng = DetRng::new(ctx.seed).fork("contended-arrivals");
    let mut arrivals: Vec<u64> = (0..total - per_burst * bursts)
        .map(|_| rng.uniform_u64(0, span_us))
        .collect();
    for burst in 0..bursts as u64 {
        let start = burst * span_us / bursts as u64;
        arrivals.extend((0..per_burst).map(|_| start + rng.uniform_u64(0, BURST_WIDTH_US)));
    }
    arrivals.sort_unstable();
    let invocations = arrivals
        .into_iter()
        .zip(bodies.invocations())
        .map(|(at, body)| Invocation {
            arrival: SimTime::from_micros(at),
            ..body.clone()
        })
        .collect();
    Workload::from_sorted(bodies.registry().clone(), invocations)
}

fn setup(ctx: &RunCtx) -> Workload {
    let workload = contended_workload(ctx);
    // Warm-up: vanilla, whose backlog exercises the pump, with no sink.
    let setup = SchedulerSetup::new(SimDuration::from_millis(ctx.sizing.six_window_ms));
    let (policy, interval) = SchedulerKind::Vanilla.build(&setup);
    run_simulation_traced(
        policy,
        &workload,
        SimConfig::default(),
        LABEL,
        interval,
        Box::new(NoopSink),
    );
    workload
}

fn replay_six(ctx: &RunCtx, workload: &Workload, spans: Option<&mut SpanLog>) -> Pass {
    let mut scope = PassScope::open(spans, "sim_six_contended.pass");
    let total = workload.len();
    let cfg = SimConfig::default();
    let mut setup = SchedulerSetup::new(SimDuration::from_millis(ctx.sizing.six_window_ms));
    let mut digest = Digest::default();
    let mut errors = Vec::new();
    let mut completed = 0u64;
    let mut unit = CalibratedUnit::start();
    for (index, kind) in SchedulerKind::ALL.into_iter().enumerate() {
        let name = kind.name();
        let (policy, interval) = kind.build(&setup);
        let sink = MultiSink::new(vec![Box::new(VecSink::new()), Box::new(AuditorSink::new())]);
        let t0 = Instant::now();
        let (report, mut sink) = run_simulation_traced(
            policy,
            workload,
            cfg.clone(),
            LABEL,
            interval,
            Box::new(sink),
        );
        let t1 = Instant::now();
        if kind == SchedulerKind::Vanilla {
            setup = setup.with_kraken_calibration(KrakenCalibration::from_vanilla(&report));
        }

        let multi = sink
            .as_any_mut()
            .downcast_mut::<MultiSink>()
            .expect("the sink handed in is returned");
        let mut sinks = std::mem::take(multi).into_sinks();
        let violations = sinks[1]
            .as_any_mut()
            .downcast_mut::<AuditorSink>()
            .expect("second sink is the auditor")
            .finish()
            .len();
        if violations > 0 {
            errors.push(format!("{name}: {violations} auditor violations"));
        }
        let events = sinks[0]
            .as_any()
            .downcast_ref::<VecSink>()
            .expect("first sink is the VecSink")
            .events();
        let mut engine = AttributionEngine::new();
        engine.consume(events);
        let attribution = engine.finish();
        if !attribution.all_exact() {
            errors.push(format!("{name}: attribution phases do not sum to latency"));
        }
        if attribution.invocations.len() != total || report.records.len() != total {
            errors.push(format!(
                "{name}: {} records and {} attributions for {total} invocations",
                report.records.len(),
                attribution.invocations.len()
            ));
        }
        let cdf = report.end_to_end_cdf();
        for value in [
            index as u64,
            report.records.len() as u64,
            report.records.iter().filter(|r| r.cold).count() as u64,
            cdf.quantile(0.50).as_micros(),
            cdf.quantile(0.95).as_micros(),
            cdf.quantile(0.99).as_micros(),
        ] {
            digest.feed(value);
        }
        let t2 = Instant::now();

        completed += report.records.len() as u64;
        unit.call(t2.duration_since(t0).as_secs_f64());
        scope.record(REPLAY_SPANS[index], t0, t1, index as u64);
        scope.record("metrics.analysis", t1, t2, index as u64);
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

/// Host seconds of one FaaSBatch replay under `sink`.
fn faasbatch_replay_s(ctx: &RunCtx, workload: &Workload, sink: Box<dyn TraceSink>) -> f64 {
    let setup = SchedulerSetup::new(SimDuration::from_millis(ctx.sizing.six_window_ms));
    let (policy, interval) = SchedulerKind::FaasBatch.build(&setup);
    let started = Instant::now();
    run_simulation_traced(
        policy,
        workload,
        SimConfig::default(),
        LABEL,
        interval,
        sink,
    );
    started.elapsed().as_secs_f64()
}

/// Runs the workload: whole six-scheduler passes until `ctx.seconds` have
/// been timed.
pub fn run(ctx: &RunCtx) -> Measured {
    run_passes(
        ctx,
        || setup(ctx),
        |workload| 6 * workload.len() as u64,
        |workload, spans| replay_six(ctx, workload, spans),
        |workload, log, passes, layer| {
            for (kind, span) in SchedulerKind::ALL.into_iter().zip(REPLAY_SPANS) {
                layer.insert(
                    format!("schedulers.{}.replay_s", kind.name()),
                    log.total_s(span) / passes as f64,
                );
            }
            // What the event sinks cost the cheapest replay: the same
            // FaaSBatch replay with the workload's sinks and with none,
            // best of three each.
            let best = |sink: fn() -> Box<dyn TraceSink>| {
                (0..3)
                    .map(|_| faasbatch_replay_s(ctx, workload, sink()))
                    .fold(f64::INFINITY, f64::min)
            };
            let with_sinks = best(|| {
                Box::new(MultiSink::new(vec![
                    Box::new(VecSink::new()),
                    Box::new(AuditorSink::new()),
                ]))
            });
            let without = best(|| Box::new(NoopSink));
            layer.insert(
                "metrics.events.sink_overhead_s".into(),
                (with_sinks - without).max(0.0),
            );
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::Sizing;

    fn quick(seed: u64) -> RunCtx {
        RunCtx {
            seed,
            seconds: 0.1,
            traced: false,
            sizing: Sizing::quick(),
        }
    }

    #[test]
    fn digest_is_stable_for_a_seed_and_differs_between_seeds() {
        let digest = |seed| {
            let ctx = quick(seed);
            let pass = replay_six(&ctx, &contended_workload(&ctx), None);
            assert!(pass.errors.is_empty(), "{:?}", pass.errors);
            assert_eq!(pass.unit.completed, 6 * ctx.sizing.six_total as u64);
            pass.digest
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn bursts_are_evenly_spaced_and_the_total_is_exact() {
        let ctx = quick(3);
        let workload = contended_workload(&ctx);
        assert_eq!(workload.len(), ctx.sizing.six_total);
        let span_us = ctx.sizing.six_span_s * 1_000_000;
        let per_burst = (workload.len() as f64 * BURST_MASS) as usize / ctx.sizing.six_bursts;
        for burst in 0..ctx.sizing.six_bursts as u64 {
            let start = burst * span_us / ctx.sizing.six_bursts as u64;
            let inside = workload
                .invocations()
                .iter()
                .filter(|inv| (start..start + BURST_WIDTH_US).contains(&inv.arrival.as_micros()))
                .count();
            assert!(inside >= per_burst, "burst {burst} holds {inside}");
        }
    }
}
