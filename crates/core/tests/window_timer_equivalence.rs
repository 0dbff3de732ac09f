//! The demand-driven window tick against the periodic one it replaced.
//!
//! `FaasBatchPolicy` used to re-arm its window timer on every tick, so a
//! replay paid for simulated seconds. It now arms a tick only for a window
//! that holds an arrival, for the same grid instant `k·W`. The old policy —
//! the lines that were deleted — lives on here as [`PeriodicFaasBatch`],
//! and every comparison below is `==` on whole event streams and whole
//! reports.
//!
//! **The tie rule.** The engine orders the events of one instant by when
//! they were scheduled. A periodic tick for `k·W` was scheduled at
//! `(k−1)·W`, by the tick before it; a demand-driven one is scheduled at
//! its window's first arrival, somewhere in `((k−1)·W, k·W]`. Both are
//! followed by a CPU re-arm, so a CPU completion that falls on the tick's
//! own instant runs after the tick either way. What can differ:
//!
//! * an event that is *not* a CPU completion (an image pull, a restore, an
//!   object-store round trip), scheduled inside the idle part of the window
//!   — after `(k−1)·W`, before the first arrival — for exactly the
//!   microsecond `k·W`: it ran after the periodic tick and runs before the
//!   demand-driven one;
//! * the empty ticks also re-armed the CPU completion event, which put it
//!   behind the sampler tick scheduled a sample period earlier. A completion
//!   that falls exactly on a sampler instant, on a worker that saw no other
//!   event for a whole sample period before it, now runs ahead of that
//!   sample instead of behind it;
//! * a window longer than the sample period has its tick scheduled before
//!   the sampler tick of the same instant when periodic, and possibly after
//!   it when demand-driven.
//!
//! None of these occurs in any stream below (or in any committed
//! `results/` file). If a comparison here ever fails, the fix is in the
//! policy, never a loosened comparison.

use faasbatch_container::ids::{FunctionId, InvocationId};
use faasbatch_core::mapper::InvokeMapper;
use faasbatch_core::policy::{FaasBatchConfig, FaasBatchPolicy};
use faasbatch_fleet::config::{FaultKind, FleetConfig, WorkerFault};
use faasbatch_fleet::routing::RoutingKind;
use faasbatch_fleet::sim::{run_fleet, run_fleet_with_workers};
use faasbatch_metrics::events::{EventKind, NoopSink, SimEvent, VecSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::{run_simulation_traced, Worker};
use faasbatch_schedulers::policy::{Completion, Ctx, DispatchRequest, ExecMode, Policy};
use faasbatch_simcore::engine::EngineStats;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::function::{FunctionKind, FunctionRegistry};
use faasbatch_trace::workload::{cpu_workload, io_workload, Invocation, Workload, WorkloadConfig};

/// `FaasBatchPolicy` as it was before the tick became demand-driven: the
/// window timer is armed at start and re-arms itself until the run is done.
struct PeriodicFaasBatch {
    cfg: FaasBatchConfig,
    mapper: InvokeMapper,
}

impl PeriodicFaasBatch {
    fn new(cfg: FaasBatchConfig) -> Self {
        let mut mapper = InvokeMapper::new(cfg.window);
        if let Some(cap) = cfg.max_group_size {
            mapper = mapper.with_max_group(cap);
        }
        PeriodicFaasBatch { cfg, mapper }
    }
}

impl Policy for PeriodicFaasBatch {
    fn name(&self) -> String {
        FaasBatchPolicy::new(self.cfg.clone()).name()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.window, 0);
    }

    fn on_arrival(&mut self, _ctx: &mut Ctx<'_>, invocation: &Invocation) {
        self.mapper.observe(invocation.clone());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for group in self.mapper.drain() {
            let mut req = DispatchRequest::new(group.invocations, ExecMode::Parallel);
            req.multiplex_clients = self.cfg.multiplex;
            req.completion = if self.cfg.batch_responses {
                Completion::PerBatch
            } else {
                Completion::PerInvocation
            };
            ctx.dispatch(req);
        }
        if !ctx.all_done() {
            ctx.set_timer(self.cfg.window, 0);
        }
    }
}

/// Dispatch windows: the paper's sweep, and one that does not divide the
/// one-second sample period.
const WINDOWS_MS: [u64; 5] = [10, 50, 200, 500, 70];
const SEEDS: u64 = 16;

/// Dense bursts on even seeds; on odd ones a trace that is mostly silence,
/// where nearly every window is empty. Every seventh arrival is moved onto
/// the window grid, the one instant where arrival and tick meet.
fn workload(io: bool, seed: u64, window: SimDuration) -> Workload {
    let cfg = WorkloadConfig {
        total: 120,
        span: SimDuration::from_secs(if seed % 2 == 1 { 900 } else { 8 }),
        functions: 5,
        bursts: 3,
        ..WorkloadConfig::default()
    };
    let generate = if io { io_workload } else { cpu_workload };
    let generated = generate(&DetRng::new(seed), &cfg);
    let mut invocations = generated.invocations().to_vec();
    for inv in invocations.iter_mut().step_by(7) {
        let w = window.as_micros();
        inv.arrival = SimTime::from_micros(inv.arrival.as_micros() / w * w);
    }
    Workload::new(generated.registry().clone(), invocations)
}

fn config(window_ms: u64, seed: u64) -> FaasBatchConfig {
    FaasBatchConfig {
        // Both response modes: the barrier changes what a batch's last
        // completion emits, not when its window closes.
        batch_responses: seed % 4 == 3,
        ..FaasBatchConfig::with_window(SimDuration::from_millis(window_ms))
    }
}

/// An untraced worker over `w`'s functions, default host.
fn worker(policy: Box<dyn Policy>, w: &Workload, window: SimDuration) -> Worker {
    Worker::new(
        policy,
        w.registry().clone(),
        SimConfig::default(),
        "equivalence",
        Some(window),
        Box::new(NoopSink),
    )
}

fn traced(
    policy: Box<dyn Policy>,
    w: &Workload,
    window: SimDuration,
) -> (RunReport, Vec<SimEvent>) {
    let (report, sink) = run_simulation_traced(
        policy,
        w,
        SimConfig::default(),
        "equivalence",
        Some(window),
        Box::new(VecSink::new()),
    );
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("the sink handed in is returned")
        .events()
        .to_vec();
    (report, events)
}

#[test]
fn single_worker_streams_and_reports_equal_the_periodic_oracle() {
    for io in [false, true] {
        for window_ms in WINDOWS_MS {
            for seed in 0..SEEDS {
                let cfg = config(window_ms, seed);
                let w = workload(io, seed, cfg.window);
                let (oracle_report, oracle_events) = traced(
                    Box::new(PeriodicFaasBatch::new(cfg.clone())),
                    &w,
                    cfg.window,
                );
                let (report, events) =
                    traced(Box::new(FaasBatchPolicy::new(cfg.clone())), &w, cfg.window);
                let case = format!("io {io}, window {window_ms} ms, seed {seed}");
                assert_eq!(report.records.len(), w.len(), "{case}");
                if let Some(i) = (0..events.len().max(oracle_events.len()))
                    .find(|&i| events.get(i) != oracle_events.get(i))
                {
                    panic!(
                        "{case}: streams part at event {i}:\n  oracle {:?}\n  policy {:?}",
                        oracle_events.get(i),
                        events.get(i)
                    );
                }
                assert!(report == oracle_report, "{case}: reports differ");
            }
        }
    }
}

#[test]
fn fleet_reports_equal_the_periodic_oracle_through_a_crash_and_a_drain() {
    let mut retried = 0;
    for io in [false, true] {
        for window_ms in WINDOWS_MS {
            for seed in 0..SEEDS {
                let fb = config(window_ms, seed);
                let w = workload(io, seed, fb.window);
                let span = w.last_arrival().as_micros();
                let cfg = FleetConfig {
                    workers: 4,
                    setup: fb.clone().into(),
                    // Mid-trace and off the grid, so the crash lands inside
                    // a window that may or may not hold something.
                    faults: vec![
                        WorkerFault {
                            worker: 1,
                            at: SimTime::from_micros(span / 3 + 1_234),
                            kind: FaultKind::Crash,
                        },
                        WorkerFault {
                            worker: 2,
                            at: SimTime::from_micros(span / 2 + 567),
                            kind: FaultKind::Drain,
                        },
                    ],
                    ..FleetConfig::default()
                };
                let route = || RoutingKind::LeastLoaded.build();
                let oracle = run_fleet_with_workers(&w, &cfg, route(), "equivalence", &|| {
                    worker(Box::new(PeriodicFaasBatch::new(fb.clone())), &w, fb.window)
                })
                .expect("the oracle fleet completes");
                let fleet =
                    run_fleet(&w, &cfg, route(), "equivalence").expect("the fleet completes");
                let case = format!("io {io}, window {window_ms} ms, seed {seed}");
                assert_eq!(fleet.records.len(), w.len(), "{case}");
                for (worker, reference) in fleet.workers.iter().zip(&oracle.workers) {
                    assert!(
                        worker == reference,
                        "{case}: worker {} differs",
                        worker.worker
                    );
                }
                assert!(fleet == oracle, "{case}: fleet reports differ");
                retried += fleet.retries;
            }
        }
    }
    assert!(retried > 0, "no crash ever stranded an invocation");
}

/// Replays `w` on one worker and returns the whole run's engine counters
/// and its last completion.
fn engine_stats_of(policy: Box<dyn Policy>, w: &Workload) -> (EngineStats, SimTime) {
    let mut worker = worker(policy, w, W);
    for inv in w.invocations() {
        worker.inject(inv);
    }
    worker.close();
    let stats = worker.engine_stats();
    let (report, _) = worker.finish();
    assert_eq!(report.records.len(), w.len());
    let end = report.records.iter().map(|r| r.completion).max();
    (stats, end.expect("the workload is not empty"))
}

#[test]
fn an_idle_hour_costs_its_sampler_ticks_and_nothing_per_window() {
    // 100 invocations over one simulated hour: 18,000 windows of 0.2 s, of
    // which at most 100 hold anything.
    let w = cpu_workload(
        &DetRng::new(11),
        &WorkloadConfig {
            total: 100,
            span: SimDuration::from_secs(3_600),
            functions: 4,
            bursts: 1,
            ..WorkloadConfig::default()
        },
    );
    let cfg = FaasBatchConfig::with_window(W);
    let (stats, end) = engine_stats_of(Box::new(FaasBatchPolicy::new(cfg.clone())), &w);
    assert!(
        stats.executed <= 3_600 + 10 * 100,
        "a sampler tick per second and ten events per invocation: {stats:?}"
    );
    assert_eq!(
        stats.scheduled - stats.executed - stats.cancelled,
        1,
        "what the run leaves queued is the sampler's next tick, no window tick"
    );
    assert_eq!(
        (stats, end),
        engine_stats_of(Box::new(FaasBatchPolicy::new(cfg.clone())), &w),
        "the counts repeat exactly"
    );
    // The periodic oracle does the same work plus one tick for every window
    // that closes empty before the run ends.
    let (oracle, oracle_end) = engine_stats_of(Box::new(PeriodicFaasBatch::new(cfg)), &w);
    assert_eq!(oracle_end, end);
    let mut held: Vec<u64> = w
        .invocations()
        .iter()
        .map(|inv| inv.arrival.as_micros().div_ceil(W.as_micros()).max(1))
        .collect();
    held.dedup();
    let empty = end.as_micros() / W.as_micros() - held.len() as u64;
    assert!(empty > 17_000, "the hour is almost all silence: {empty}");
    assert_eq!(oracle.executed - stats.executed, empty);
}

/// One CPU function and the given arrivals, 10 ms of work each.
fn arrivals_at(micros: &[u64]) -> Workload {
    let mut registry = FunctionRegistry::new();
    let function = registry.register("f", FunctionKind::Cpu { fib_n: 20 });
    let invocations = micros
        .iter()
        .enumerate()
        .map(|(i, &at)| Invocation {
            id: InvocationId::new(i as u64),
            function,
            arrival: SimTime::from_micros(at),
            work: SimDuration::from_millis(10),
        })
        .collect();
    Workload::from_sorted(registry, invocations)
}

const W: SimDuration = SimDuration::from_millis(200);

/// Replays `w` under the demand-driven policy and returns when each batch
/// was dispatched and which invocations it held.
fn dispatches(w: &Workload, window: SimDuration) -> Vec<(SimTime, Vec<u64>)> {
    let policy = FaasBatchPolicy::new(FaasBatchConfig::with_window(window));
    let (report, events) = traced(Box::new(policy), w, window);
    assert_eq!(report.records.len(), w.len());
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::DispatchDecision { members, .. } => {
                Some((e.at, members.iter().map(|m| m.value()).collect()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn an_arrival_at_time_zero_is_dispatched_at_the_first_window_close() {
    let fired = dispatches(&arrivals_at(&[0]), W);
    assert_eq!(fired, vec![(SimTime::from_millis(200), vec![0])]);
}

#[test]
fn an_arrival_on_a_grid_instant_is_dispatched_at_that_instant() {
    // The arrival is delivered ahead of the events of its own instant, so
    // the tick it arms for `3·W` — delay zero — still finds it.
    let fired = dispatches(&arrivals_at(&[600_000]), W);
    assert_eq!(fired, vec![(SimTime::from_millis(600), vec![0])]);
}

#[test]
fn arrivals_of_one_window_arm_one_tick() {
    let w = arrivals_at(&[250_000, 250_000, 310_000]);
    let policy = FaasBatchPolicy::new(FaasBatchConfig::with_window(W));
    let mut worker = worker(Box::new(policy), &w, W);
    let scheduled = |worker: &Worker| worker.engine_stats().scheduled;
    let idle = scheduled(&worker);
    worker.inject(&w.invocations()[0]);
    assert_eq!(
        scheduled(&worker),
        idle + 1,
        "the first arrival arms the tick"
    );
    worker.inject(&w.invocations()[1]);
    worker.inject(&w.invocations()[2]);
    assert_eq!(scheduled(&worker), idle + 1, "later ones ride on it");
    let (report, _) = worker.finish();
    assert_eq!(report.records.len(), 3);
    assert_eq!(report.provisioned_containers, 1, "one window, one group");
}

#[test]
fn an_arrival_after_an_hour_of_silence_closes_on_the_old_grid() {
    // 70 ms does not divide an hour: the grid instant after 3600.013 s is
    // 51,429 × 70 ms = 3600.030 s, not arrival + 70 ms.
    let window = SimDuration::from_millis(70);
    let fired = dispatches(&arrivals_at(&[5_000, 3_600_013_000]), window);
    assert_eq!(
        fired,
        vec![
            (SimTime::from_millis(70), vec![0]),
            (SimTime::from_micros(3_600_030_000), vec![1]),
        ]
    );
}

#[test]
fn finishing_with_a_window_still_open_drains_it() {
    let w = arrivals_at(&[1_000_123]);
    let policy = FaasBatchPolicy::new(FaasBatchConfig::with_window(W));
    let mut worker = worker(Box::new(policy), &w, W);
    worker.inject(&w.invocations()[0]);
    let (report, _) = worker.finish();
    assert_eq!(report.records.len(), 1);
    let record = &report.records[0];
    assert_eq!(record.function, FunctionId::new(0));
    assert!(record.completion > SimTime::from_millis(1_200));
}
