//! `live_burst_batched` and `live_burst_sparse`: closed rounds of no-op
//! invocations pushed through the gateway by one generator thread, each
//! round ended by `drain`.
//!
//! Batched — 8 functions under a 500 ms window that `drain` cuts short: a
//! round becomes about eight groups of 25,000, so per-*job* cost (the
//! `RemoteJob` and its ticket channel, the boxed `GroupJob`, the injector)
//! is everything and per-group cost nothing.
//!
//! Sparse — 2,048 functions under a 5 ms window: groups of one or two, so
//! per-*group* cost (the name lookup in `invoke`, routing, `submit_group`,
//! container acquisition, the group barrier) dominates. Batching is
//! bypassed; a per-job win bought with per-group work shows as a loss here.
//!
//! Both are closed loops with a stated bound on outstanding invocations: the
//! whole round for batched (that is what makes the groups large), a few
//! windows' worth for sparse, where an unbounded backlog would make memory
//! and latency depend on which of generator and workers the kernel favoured.
//! Sparse also runs one gateway worker, shard and executor thread where
//! batched runs two (`Sizing::sparse_workers` says why).
//!
//! A unit is one round, and a run reports the fast quartile of its rounds
//! (`measure::FAST_QUARTILE`). The burst is due as a whole when its round
//! starts, so an invocation's latency runs from the start of its round to
//! the end of its handler: p50 is when half the burst was done, p99 when
//! nearly all of it was. Counted from each invocation's own `invoke` instead,
//! sparse latency (14 ms / 46 ms) spread by 21 % and 36 % over ten seeds —
//! which worker the kernel ran first — and could gate nothing. Times are
//! calibrated round by round (`measure::SpeedProbe`).

use super::{payload_index, record_section, LiveSystem, SectionFigures, Slots, StreamCheck};
use crate::measure::{
    median_rate, p50_p99_ms, repeat_setup, Measured, RunCtx, SpeedProbe, Stopwatch, Unit,
    FAST_QUARTILE,
};
use crate::spans::SpanLog;
use crate::stats::median;
use bytes::Bytes;
use faasbatch_simcore::rng::DetRng;
use faasbatch_storage::object_store::ObjectStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which of the two burst workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Batched,
    Sparse,
}

/// The generated inputs of one round, reused by every round.
struct Plan {
    /// Function (registration index) of each invocation, in send order.
    functions: Vec<u32>,
    /// Payload of each invocation: its sequence number.
    payloads: Vec<Bytes>,
}

struct Bench {
    system: LiveSystem,
    slots: Arc<Slots>,
    plan: Plan,
    /// Most invocations the generator leaves outstanding.
    outstanding: usize,
}

/// How long the generator sleeps when the outstanding bound is reached.
const BACKOFF: Duration = Duration::from_micros(100);

/// Raw timings of one round, analysed after the clock stopped.
struct Round {
    sent: usize,
    rejected: u64,
    wall_s: f64,
    cpu_s: f64,
    /// `stamps[i]` is when `invoke` number `i` began; the last entry is when
    /// the last `invoke` returned.
    stamps: Vec<u64>,
    drained_ns: u64,
}

/// `(round size, functions, gateway window, outstanding bound, workers)` of
/// a shape.
fn shape_sizes(ctx: &RunCtx, shape: Shape) -> (usize, usize, Duration, usize, usize) {
    let s = &ctx.sizing;
    match shape {
        Shape::Batched => (
            s.batched_round,
            s.batched_functions,
            Duration::from_millis(s.batched_window_ms),
            s.batched_round,
            s.live_workers,
        ),
        Shape::Sparse => (
            s.sparse_round,
            s.sparse_functions,
            Duration::from_millis(s.sparse_window_ms),
            s.sparse_outstanding,
            s.sparse_workers,
        ),
    }
}

fn setup(ctx: &RunCtx, shape: Shape, traced: bool) -> Bench {
    let (round, functions, window, outstanding, workers) = shape_sizes(ctx, shape);
    // Function choice is the seeded part: a permutation of the functions,
    // walked round-robin.
    let mut order: Vec<u32> = (0..functions as u32).collect();
    DetRng::new(ctx.seed)
        .fork("burst-functions")
        .shuffle(&mut order);
    let plan = Plan {
        functions: (0..round).map(|i| order[i % functions]).collect(),
        payloads: (0..round as u32)
            .map(|i| Bytes::from(i.to_le_bytes().to_vec()))
            .collect(),
    };
    let slots = Arc::new(Slots::new(round));
    let origin = Instant::now();
    let system = LiveSystem::start(
        ctx,
        workers,
        functions,
        window,
        traced,
        ObjectStore::new(),
        origin,
        |_| {
            let slots = Arc::clone(&slots);
            Box::new(move |env| {
                let start = if traced {
                    origin.elapsed().as_nanos() as u64
                } else {
                    0
                };
                let index = payload_index(&env.payload);
                slots.complete(index, start, origin.elapsed().as_nanos() as u64);
            })
        },
    );
    let bench = Bench {
        system,
        slots,
        plan,
        outstanding,
    };
    // Warm-up: one whole round, so every container exists and the
    // allocator has seen the round's peak.
    let warm = play_round(&bench, round);
    assert_eq!(warm.rejected, 0, "shard depth is sized never to reject");
    bench.slots.reset(warm.sent);
    bench
}

/// Sends the first `n` invocations of the plan and drains.
fn play_round(bench: &Bench, n: usize) -> Round {
    let system = &bench.system;
    let gateway = system.gateway();
    let mut stamps = Vec::with_capacity(n + 1);
    let mut rejected = 0u64;
    let watch = Stopwatch::start();
    for i in 0..n {
        while gateway.in_flight() >= bench.outstanding {
            std::thread::sleep(BACKOFF);
        }
        stamps.push(system.now_ns());
        let name = &system.names[bench.plan.functions[i] as usize];
        // The ticket is dropped: `drain` waits for every admitted
        // invocation, and the handler's slot records its completion.
        if gateway
            .invoke(name, bench.plan.payloads[i].clone())
            .is_err()
        {
            rejected += 1;
        }
    }
    stamps.push(system.now_ns());
    let drained = gateway.drain();
    let drained_ns = system.now_ns();
    let (wall_s, cpu_s) = watch.stop();
    if drained.is_err() {
        rejected = n as u64;
    }
    Round {
        sent: n,
        rejected,
        wall_s,
        cpu_s,
        stamps,
        drained_ns,
    }
}

/// Audits a finished round and turns it into a [`Unit`] in calibrated time:
/// `speed` is the factor probed around the round.
fn settle(bench: &Bench, round: &Round, speed: f64, out: &mut Measured) -> Unit {
    let audit = bench.slots.audit(round.sent);
    out.attempted += round.sent as u64;
    out.failed += (audit.failed() + round.rejected).min(round.sent as u64);
    if audit.failed() > 0 || round.rejected > 0 {
        out.errors.push(format!(
            "round of {}: {} rejected, {} never ran, {} ran twice",
            round.sent, round.rejected, audit.missing, audit.duplicated
        ));
    }
    let mut latencies: Vec<u64> = (0..round.sent)
        .map(|i| bench.slots.end_ns(i).saturating_sub(round.stamps[0]))
        .collect();
    let (p50, p99) = p50_p99_ms(&mut latencies);
    let completed = round.sent as u64 - audit.missing.min(round.sent as u64);
    Unit {
        completed,
        wall_s: round.wall_s * speed,
        host_s: round.wall_s,
        cpu_s: round.cpu_s * speed,
        latency_p50_ms: p50 * speed,
        latency_p99_ms: p99 * speed,
    }
}

/// Plays whole rounds until `budget` seconds have passed, each probed for
/// the host's speed, audited and reset; `each` sees every round before its
/// slots are cleared.
fn play_section(
    bench: &Bench,
    budget: f64,
    out: &mut Measured,
    mut each: impl FnMut(&Round, &Unit),
) -> Vec<Unit> {
    let mut units = Vec::new();
    let section = Instant::now();
    while units.is_empty() || section.elapsed().as_secs_f64() < budget {
        let mut probe = SpeedProbe::start();
        let round = play_round(bench, bench.plan.payloads.len());
        let unit = settle(bench, &round, probe.factor(), out);
        each(&round, &unit);
        bench.slots.reset(round.sent);
        units.push(unit);
    }
    units
}

/// Runs the workload: whole rounds until `ctx.seconds` have been timed. A
/// traced run times an untraced half on a system without recorder, then a
/// traced half on a second system with recorder, registry and spans.
pub fn run(ctx: &RunCtx, shape: Shape) -> Measured {
    let mut out = Measured::folding(FAST_QUARTILE);
    let (bench, setup_s) = repeat_setup(ctx, true, || setup(ctx, shape, false));
    out.setup_s = setup_s;
    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    out.units = play_section(&bench, budget, &mut out, |_, _| {});
    drop(bench);

    if ctx.traced {
        let untraced_rate = median_rate(&out.units);
        let bench = setup(ctx, shape, true);
        let tracing = bench
            .system
            .tracing
            .clone()
            .expect("traced system carries a recorder");
        let mut check = StreamCheck::after_warmup(&tracing.recorder);
        let mut log = SpanLog::new(bench.system.origin);
        let mut figures = Vec::new();
        let before = bench.system.counters();
        let traced_units = play_section(&bench, budget, &mut out, |round, unit| {
            figures.push(record_section(
                &mut log,
                "live_burst.round",
                &bench.slots,
                &round.stamps,
                round.drained_ns,
                u64::MAX,
            ));
            check.feed(&tracing.recorder.take_trace(), unit.completed);
        });
        let after = bench.system.counters();
        after.layer_rows(&before, &mut out.layer);
        out.failed += check.finish(&mut out.layer, &mut out.errors);

        let mut over_rounds = |name: &str, f: fn(&SectionFigures) -> f64| {
            let mut values: Vec<f64> = figures.iter().map(f).collect();
            out.layer.insert(name.to_owned(), median(&mut values));
        };
        over_rounds("gateway.invoke_ns_p50", |f| f.invoke_p50_ns);
        over_rounds("gateway.invoke_ns_p99", |f| f.invoke_p99_ns);
        over_rounds("gateway.drain_s", |f| f.drain_s);
        over_rounds("loadgen.handler_self_us_per_inv", |f| f.handler_us);
        out.layer.insert(
            "trace.overhead_share".into(),
            untraced_rate / median_rate(&traced_units) - 1.0,
        );
        out.notes.push(format!(
            "telemetry registry holds {} instruments after the traced section",
            tracing.registry.len()
        ));
        out.spans = Some(log);
        out.units.extend(traced_units);
    }
    out
}
