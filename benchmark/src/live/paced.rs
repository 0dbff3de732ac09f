//! `live_paced_io`: an open loop at a fixed rate on a fixed schedule. One
//! generator thread sleeps until the next invocation is due (it never
//! spins) and sends whatever is due; the function is drawn skewed (u
//! squared) from 32; the gateway window is 10 ms and the multiplexer is on.
//! The handler takes the container's storage client for its function's
//! configuration, writes a 64-byte object, reads it back, and stamps its
//! completion into the slot its payload names.
//!
//! Why: the paper's third mechanism (the Resource Multiplexer) and the only
//! steady-state use of gateway, platform and executor — thousands of small
//! windows, warm pools and timers instead of one giant window. The rate is
//! deliberately about a fifth of the knee, where latency is not bistable.
//!
//! A unit is one slice of the schedule. An invocation's latency runs from
//! the instant it was *due* to the end of its handler, so a stall of the
//! generator or the program counts against every invocation it delays. A
//! slice the generator itself ran late in (lag p99 above 1 ms) is left out
//! of the medians. Every run reports: when fewer than one slice in ten is on
//! time, the tenth with the least lag stands in, and a backlog that stays
//! above two windows of arrivals throughout the second half of the schedule
//! is a note — overload shows in the latency rows themselves.

use super::{payload_index, record_section, LiveSystem, Slots, StreamCheck};
use crate::measure::{p50_p99_ms, repeat_setup, Measured, RunCtx, Stopwatch, Unit, MEDIAN};
use crate::spans::SpanLog;
use crate::stats::{quantile_sorted, tail_percentile};
use bytes::Bytes;
use faasbatch_simcore::rng::DetRng;
use faasbatch_storage::client::ClientConfig;
use faasbatch_storage::object_store::ObjectStore;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator lag (send time minus due time) above which a slice of the
/// schedule is left out of the medians: its latencies would measure the
/// generator's stall, not the program.
const MAX_LAG_P99_MS: f64 = 1.0;

/// A run reports at least one slice in this many: the on-time ones, topped
/// up with the least late. On this box the hypervisor is at times slow to
/// wake the sleeping generator — lag p99 of 5–22 ms in 21 and 30 of 40
/// slices, two runs of ten — while the remaining slices read like any other
/// run's. The driver refuses a benchmark one of whose runs prints no result,
/// so a run with (nearly) no slice on time reports its best ones instead.
const MIN_SLICE_SHARE: usize = 10;

/// The fixed schedule of an open loop: invocation `i` is due at
/// `start_ns + i * period_ns`, whatever happened to the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Schedule {
    start_ns: u64,
    period_ns: u64,
}

impl Schedule {
    fn due_ns(self, index: usize) -> u64 {
        self.start_ns + index as u64 * self.period_ns
    }

    /// How late invocation `index` was sent (0 when on time).
    fn lag_ns(self, index: usize, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(index))
    }

    /// Latency of invocation `index` from the instant it was due.
    fn latency_ns(self, index: usize, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(index))
    }

    /// Invocations due at or before `now_ns` that are not among the first
    /// `sent` — what the generator must send now.
    fn due_by(self, now_ns: u64, sent: usize, total: usize) -> usize {
        if now_ns < self.due_ns(sent) {
            return 0;
        }
        let due = ((now_ns - self.start_ns) / self.period_ns + 1) as usize;
        due.min(total) - sent
    }
}

/// The generated inputs: one entry per scheduled invocation.
struct Plan {
    functions: Vec<u32>,
    payloads: Vec<Bytes>,
    period_ns: u64,
}

struct Bench {
    system: LiveSystem,
    slots: Arc<Slots>,
    io_failures: Arc<AtomicU64>,
    plan: Plan,
}

/// Raw outcome of one paced section.
struct Section {
    sent: usize,
    rejected: u64,
    schedule: Schedule,
    /// When each `invoke` began; one extra entry for the last return.
    stamps: Vec<u64>,
    /// Admitted-but-incomplete invocations right after the last send.
    backlog: usize,
    drained_ns: u64,
    wall_s: f64,
    cpu_s: f64,
}

fn bucket_of(function: u32, ctx: &RunCtx) -> usize {
    function as usize % ctx.sizing.paced_configs
}

fn key_of(index: usize, ctx: &RunCtx) -> u64 {
    index as u64 % ctx.sizing.paced_key_ring
}

fn setup(ctx: &RunCtx, scheduled: usize, traced: bool) -> Bench {
    let sizing = &ctx.sizing;
    let functions = sizing.paced_functions;
    let mut rng = DetRng::new(ctx.seed).fork("paced-functions");
    let drawn: Vec<u32> = (0..scheduled)
        .map(|_| {
            let u = rng.uniform();
            ((u * u * functions as f64) as usize).min(functions - 1) as u32
        })
        .collect();
    let payloads = (0..scheduled as u32)
        .map(|i| {
            let mut bytes = vec![0xA5u8; sizing.paced_payload.max(4)];
            bytes[..4].copy_from_slice(&i.to_le_bytes());
            Bytes::from(bytes)
        })
        .collect();
    let plan = Plan {
        functions: drawn,
        payloads,
        period_ns: 1_000_000_000 / sizing.paced_rate,
    };

    let store = ObjectStore::new();
    let configs: Vec<ClientConfig> = (0..sizing.paced_configs)
        .map(|b| {
            let bucket = format!("bench-{b}");
            store
                .create_bucket(&bucket)
                .expect("a fresh store has no such bucket");
            ClientConfig::for_bucket(&bucket)
        })
        .collect();
    let slots = Arc::new(Slots::new(scheduled));
    let io_failures = Arc::new(AtomicU64::new(0));
    let ring = sizing.paced_key_ring;
    let origin = Instant::now();
    let system = LiveSystem::start(
        ctx,
        sizing.live_workers,
        functions,
        Duration::from_millis(sizing.paced_window_ms),
        traced,
        store,
        origin,
        |function| {
            let slots = Arc::clone(&slots);
            let io_failures = Arc::clone(&io_failures);
            let config = configs[bucket_of(function as u32, ctx)].clone();
            Box::new(move |env| {
                let start = if traced {
                    origin.elapsed().as_nanos() as u64
                } else {
                    0
                };
                let index = payload_index(&env.payload);
                let client = env.container.storage_client(&config);
                let key = format!("o{}", index as u64 % ring);
                let stored = client.put(&key, env.payload.clone()).is_ok();
                let read_back = client.get(&key).is_ok_and(|got| got == env.payload);
                if !(stored && read_back) {
                    io_failures.fetch_add(1, Ordering::Relaxed);
                }
                slots.complete(index, start, origin.elapsed().as_nanos() as u64);
            })
        },
    );
    let bench = Bench {
        system,
        slots,
        io_failures,
        plan,
    };
    // Warm-up: the head of the same schedule, paced the same way.
    let warm = (sizing.paced_rate * sizing.paced_warmup_ms / 1_000) as usize;
    let warm = play(&bench, warm.clamp(1, scheduled));
    assert_eq!(warm.rejected, 0, "shard depth is sized never to reject");
    bench.slots.reset(warm.sent);
    bench
}

/// Sends the first `n` scheduled invocations, each when due, then drains.
fn play(bench: &Bench, n: usize) -> Section {
    let system = &bench.system;
    let gateway = system.gateway();
    let period = bench.plan.period_ns;
    let mut stamps = Vec::with_capacity(n + 1);
    let mut rejected = 0u64;
    let watch = Stopwatch::start();
    let schedule = Schedule {
        start_ns: system.now_ns() + period,
        period_ns: period,
    };
    let mut next = 0usize;
    while next < n {
        let now = system.now_ns();
        if schedule.due_by(now, next, n) == 0 {
            std::thread::sleep(Duration::from_nanos(schedule.due_ns(next) - now));
            continue;
        }
        stamps.push(now);
        let name = &system.names[bench.plan.functions[next] as usize];
        if gateway
            .invoke(name, bench.plan.payloads[next].clone())
            .is_err()
        {
            rejected += 1;
        }
        next += 1;
    }
    stamps.push(system.now_ns());
    let backlog = gateway.in_flight();
    let drained = gateway.drain();
    let drained_ns = system.now_ns();
    let (wall_s, cpu_s) = watch.stop();
    if drained.is_err() {
        rejected = n as u64;
    }
    Section {
        sent: n,
        rejected,
        schedule,
        stamps,
        backlog,
        drained_ns,
        wall_s,
        cpu_s,
    }
}

/// Generator lag of every send, in ns.
fn lags(section: &Section) -> Vec<u64> {
    (0..section.sent)
        .map(|i| section.schedule.lag_ns(i, section.stamps[i]))
        .collect()
}

/// The smallest backlog — invocations sent and not yet completed — among the
/// instants `at`, given when each send began and the ascending completion
/// times; 0 when `at` is empty.
fn smallest_backlog(stamps: &[u64], ends: &[u64], at: impl Iterator<Item = u64>) -> usize {
    at.map(|at| {
        let sent = stamps.partition_point(|&stamp| stamp <= at);
        sent.saturating_sub(ends.partition_point(|&end| end <= at))
    })
    .min()
    .unwrap_or(0)
}

/// The `keep` smallest of `lag_p99_ms` by index, ties to the earlier slice.
fn least_late(lag_p99_ms: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lag_p99_ms.len()).collect();
    order.sort_by(|&a, &b| lag_p99_ms[a].total_cmp(&lag_p99_ms[b]));
    order.truncate(keep);
    order
}

/// Checks a finished section and cuts it into per-slice [`Unit`]s, leaving
/// out the slices the generator ran late in.
fn settle(ctx: &RunCtx, bench: &Bench, section: &Section, out: &mut Measured) -> Vec<Unit> {
    let n = section.sent;
    let audit = bench.slots.audit(n);
    let io_failures = bench.io_failures.swap(0, Ordering::Relaxed);
    out.attempted += n as u64;
    out.failed += (audit.failed() + section.rejected + io_failures).min(n as u64);
    if audit.failed() > 0 || section.rejected > 0 || io_failures > 0 {
        out.errors.push(format!(
            "{n} sent: {} rejected, {} never ran, {} ran twice, {io_failures} wrong reads",
            section.rejected, audit.missing, audit.duplicated
        ));
    }

    // Every (bucket, key) the schedule wrote must exist, and nothing else.
    let distinct: HashSet<(usize, u64)> = (0..n)
        .map(|i| (bucket_of(bench.plan.functions[i], ctx), key_of(i, ctx)))
        .collect();
    let objects = bench.system.store.object_count();
    if objects != distinct.len() {
        out.errors.push(format!(
            "store holds {objects} objects for {} distinct keys",
            distinct.len()
        ));
    }
    let counters = bench.system.counters();
    let client_cap = counters.containers_created * ctx.sizing.paced_configs as u64;
    if counters.clients_created > client_cap {
        out.errors.push(format!(
            "{} storage clients created by {} containers with {} configurations",
            counters.clients_created, counters.containers_created, ctx.sizing.paced_configs
        ));
    }

    let period = bench.plan.period_ns;
    let per_slice = ((ctx.sizing.paced_slice_ms * ctx.sizing.paced_rate / 1_000) as usize).max(1);
    let mut lag = lags(section);
    let mut all: Vec<u64> = Vec::with_capacity(n);
    // Each slice's unit and the generator's lag p99 in it, in ms.
    let mut slices: Vec<(Unit, f64)> = Vec::new();
    for first in (0..n).step_by(per_slice) {
        let last = (first + per_slice).min(n);
        if last - first < per_slice && !slices.is_empty() {
            break; // a ragged tail is not a comparable unit
        }
        let mut slice_lag = lag[first..last].to_vec();
        slice_lag.sort_unstable();
        let lag_p99_ms = quantile_sorted(&slice_lag, 0.99) as f64 / 1e6;
        let slice_start = section.schedule.due_ns(first);
        let mut latencies = Vec::with_capacity(last - first);
        let mut finished = slice_start + (last - first) as u64 * period;
        let mut completed = 0u64;
        for i in first..last {
            let end = bench.slots.end_ns(i);
            if end > 0 {
                completed += 1;
                finished = finished.max(end);
                latencies.push(section.schedule.latency_ns(i, end));
            }
        }
        all.extend_from_slice(&latencies);
        let (p50, p99) = if latencies.is_empty() {
            (0.0, 0.0)
        } else {
            p50_p99_ms(&mut latencies)
        };
        let wall_s = (finished - slice_start) as f64 / 1e9;
        let unit = Unit {
            completed,
            wall_s,
            host_s: wall_s,
            cpu_s: section.cpu_s * (last - first) as f64 / n as f64,
            latency_p50_ms: p50,
            latency_p99_ms: p99,
        };
        slices.push((unit, lag_p99_ms));
    }

    all.sort_unstable();
    if let Some(q) = tail_percentile(all.len()) {
        out.notes.push(format!(
            "pooled latency over {} samples: p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, \
             highest percentile with ten samples beyond (p{}) {:.3} ms, max {:.3} ms",
            all.len(),
            quantile_sorted(&all, 0.50) as f64 / 1e6,
            quantile_sorted(&all, 0.99) as f64 / 1e6,
            quantile_sorted(&all, 0.999) as f64 / 1e6,
            q * 100.0,
            quantile_sorted(&all, q) as f64 / 1e6,
            all[all.len() - 1] as f64 / 1e6,
        ));
    }
    // Overload shows as a backlog (sent, not yet completed) that never comes
    // back down; a stall of the host shows as one that does. Judge the
    // smallest backlog at the slice boundaries of the schedule's second half.
    let mut ends: Vec<u64> = (0..n)
        .map(|i| bench.slots.end_ns(i))
        .filter(|&end| end > 0)
        .collect();
    ends.sort_unstable();
    let boundaries = n.div_ceil(per_slice);
    let settled_backlog = smallest_backlog(
        &section.stamps[..n],
        &ends,
        (boundaries / 2 + 1..=boundaries)
            .map(|k| section.schedule.due_ns((k * per_slice).min(n) - 1)),
    );
    let window_arrivals = ctx.sizing.paced_rate * ctx.sizing.paced_window_ms / 1_000;
    if settled_backlog as u64 > 2 * window_arrivals {
        out.notes.push(format!(
            "OVERLOADED: the backlog never fell below {settled_backlog} invocations in the \
             second half of the schedule, more than two windows of arrivals ({})",
            2 * window_arrivals
        ));
    }

    let lag_p99_ms: Vec<f64> = slices.iter().map(|&(_, lag)| lag).collect();
    let late = lag_p99_ms.iter().filter(|&&l| l > MAX_LAG_P99_MS).count();
    lag.sort_unstable();
    out.notes.push(format!(
        "generator lag p99 {:.3} ms, max {:.3} ms, above {MAX_LAG_P99_MS} ms in {late} of {} slices; \
         backlog at end of send {}; section wall {:.3} s",
        quantile_sorted(&lag, 0.99) as f64 / 1e6,
        lag[lag.len() - 1] as f64 / 1e6,
        slices.len(),
        section.backlog,
        section.wall_s
    ));
    let on_time = slices.len() - late;
    let keep = on_time.max(slices.len().div_ceil(MIN_SLICE_SHARE));
    if keep > on_time {
        out.notes.push(format!(
            "LATE GENERATOR: only {on_time} slices on time; reporting the {keep} with the least lag"
        ));
    }
    least_late(&lag_p99_ms, keep)
        .into_iter()
        .map(|i| slices[i].0)
        .collect()
}

fn cpu_per_invocation(units: &[Unit]) -> f64 {
    let cpu_s: f64 = units.iter().map(|u| u.cpu_s).sum();
    let completed: u64 = units.iter().map(|u| u.completed).sum();
    cpu_s / completed.max(1) as f64
}

/// Runs the workload for `ctx.seconds` of schedule. A traced run plays an
/// untraced half on a system without recorder, then a traced half on a
/// second system with recorder, registry and spans.
pub fn run(ctx: &RunCtx) -> Measured {
    let mut out = Measured::folding(MEDIAN);
    let seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let scheduled = ((seconds * ctx.sizing.paced_rate as f64).ceil() as usize).max(1);
    // Wall clock: the warm-up inside set-up is paced in real time.
    let (bench, setup_s) = repeat_setup(ctx, false, || setup(ctx, scheduled, false));
    out.setup_s = setup_s;
    let section = play(&bench, scheduled);
    let units = settle(ctx, &bench, &section, &mut out);
    out.units.extend(units);
    drop(bench);

    if ctx.traced {
        let untraced_cpu = cpu_per_invocation(&out.units);
        let bench = setup(ctx, scheduled, true);
        let tracing = bench
            .system
            .tracing
            .clone()
            .expect("traced system carries a recorder");
        let mut check = StreamCheck::after_warmup(&tracing.recorder);

        let before = bench.system.counters();
        let section = play(&bench, scheduled);
        let after = bench.system.counters();
        let units = settle(ctx, &bench, &section, &mut out);
        let completed = scheduled as u64 - bench.slots.audit(scheduled).missing;
        check.feed(&tracing.recorder.take_trace(), completed);
        after.layer_rows(&before, &mut out.layer);
        out.failed += check.finish(&mut out.layer, &mut out.errors);

        let mut log = SpanLog::new(bench.system.origin);
        // The generator sleeps between sends: an invoke span ends at the next
        // send only when that send followed at once.
        let figures = record_section(
            &mut log,
            "live_paced.section",
            &bench.slots,
            &section.stamps,
            section.drained_ns,
            bench.plan.period_ns,
        );
        let mut lag = lags(&section);
        lag.sort_unstable();
        let layer = &mut out.layer;
        layer.insert("gateway.invoke_ns_p50".into(), figures.invoke_p50_ns);
        layer.insert("gateway.invoke_ns_p99".into(), figures.invoke_p99_ns);
        layer.insert("gateway.drain_s".into(), figures.drain_s);
        layer.insert("loadgen.handler_self_us_per_inv".into(), figures.handler_us);
        layer.insert(
            "loadgen.lag_p99_ms".into(),
            quantile_sorted(&lag, 0.99) as f64 / 1e6,
        );
        layer.insert("loadgen.lag_max_ms".into(), lag[lag.len() - 1] as f64 / 1e6);
        layer.insert(
            "core.multiplexer.hit_share".into(),
            1.0 - after.clients_created as f64 / after.invocations.max(1) as f64,
        );
        // The schedule fixes the wall clock; tracing shows in CPU instead.
        layer.insert(
            "trace.overhead_share".into(),
            cpu_per_invocation(&units) / untraced_cpu - 1.0,
        );
        out.spans = Some(log);
        out.units.extend(units);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_on_the_index_alone() {
        let schedule = Schedule {
            start_ns: 1_000,
            period_ns: 50,
        };
        assert_eq!(schedule.due_ns(0), 1_000);
        assert_eq!(schedule.due_ns(7), 1_350);
        // Nothing is due before the start; afterwards everything whose due
        // time has passed is, however few were sent or completed so far.
        assert_eq!(schedule.due_by(999, 0, 100), 0);
        assert_eq!(schedule.due_by(1_000, 0, 100), 1);
        assert_eq!(schedule.due_by(1_349, 0, 100), 7);
        assert_eq!(schedule.due_by(1_350, 0, 100), 8);
        // A generator that stalled until 1,350 with 3 sent owes 5 at once:
        // the schedule did not wait for it.
        assert_eq!(schedule.due_by(1_350, 3, 100), 5);
        assert_eq!(schedule.due_by(1_000_000, 3, 100), 97);
        assert_eq!(schedule.due_by(1_349, 7, 100), 0);
    }

    #[test]
    fn a_stall_lets_the_backlog_fall_again_and_overload_does_not() {
        // One send per 10 ns; judged at 100, 200, 300 and 400 ns.
        let stamps: Vec<u64> = (0..40).map(|i| i * 10).collect();
        let at = || (1..=4).map(|k| k * 100);
        // Healthy: everything completes 15 ns after its send.
        let healthy: Vec<u64> = stamps.iter().map(|s| s + 15).collect();
        assert!(smallest_backlog(&stamps, &healthy, at()) <= 2);
        // A stall: nothing completes between 250 and 350 ns, then it catches up.
        let stalled: Vec<u64> = stamps
            .iter()
            .map(|&s| {
                if (250..350).contains(&(s + 15)) {
                    350
                } else {
                    s + 15
                }
            })
            .collect();
        let mut sorted = stalled.clone();
        sorted.sort_unstable();
        assert!(smallest_backlog(&stamps, &sorted, at()) <= 2);
        assert!(smallest_backlog(&stamps, &sorted, std::iter::once(300)) > 5);
        // Overload: completions take twice as long as sends; it only grows.
        let overloaded: Vec<u64> = (0..40).map(|i| 15 + i * 20).collect();
        assert!(smallest_backlog(&stamps, &overloaded, (3..=4).map(|k| k * 100)) >= 15);
    }

    #[test]
    fn the_least_late_slices_stand_in_when_too_few_are_on_time() {
        let lag = [7.0, 0.2, 30.0, 0.9, 4.0, 0.2];
        // Keeping as many as are on time keeps exactly those.
        let mut on_time = least_late(&lag, 3);
        on_time.sort_unstable();
        assert_eq!(on_time, [1, 3, 5]);
        // One more takes the least late of the rest; none at all, the best.
        assert_eq!(least_late(&lag, 4)[3], 4);
        assert_eq!(least_late(&[9.0, 3.0, 5.0], 1), [1]);
    }

    #[test]
    fn lag_and_latency_count_from_the_due_time() {
        let schedule = Schedule {
            start_ns: 1_000,
            period_ns: 50,
        };
        // Sent on time or early: no lag. Sent 120 ns late: 120 ns of lag,
        // which the invocation's latency includes.
        assert_eq!(schedule.lag_ns(4, 1_200), 0);
        assert_eq!(schedule.lag_ns(4, 1_150), 0);
        assert_eq!(schedule.lag_ns(4, 1_320), 120);
        assert_eq!(schedule.latency_ns(4, 1_500), 300);
        // A completion stamp of an invocation that never ran reads 0.
        assert_eq!(schedule.latency_ns(4, 0), 0);
    }
}
