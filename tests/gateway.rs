//! Sharded live gateway: routed dispatch-window groups are never split
//! across workers (live and simulated, all four routing policies), the
//! emitted event stream passes the invariant auditor and attributes every
//! completion's latency exactly — gateway-queue phase included — and
//! admission control rejects saturated shards with a typed error. Shard
//! selection is property-tested to be a pure, deterministic function of
//! the function registry. The gateway routes with the fleet simulation's
//! `Router`: one cursor however many shards route, and the same worker for
//! every group of a scripted sequence under the timing-independent policies.
//! Its platform telemetry is the workers' own counters, summed.

use bytes::Bytes;
use faasbatch::container::ids::InvocationId;
use faasbatch::core::platform::PlatformStats;
use faasbatch::core::routing::{stable_hash, RoutingKind};
use faasbatch::fleet::config::FleetConfig;
use faasbatch::fleet::sim::{run_fleet, run_fleet_traced};
use faasbatch::gateway::{Gateway, GatewayError};
use faasbatch::metrics::analysis::AttributionEngine;
use faasbatch::metrics::events::{
    AuditorSink, EventKind, RecordReducer, SimEvent, TraceSink, VecSink,
};
use faasbatch::metrics::latency::LatencyBreakdown;
use faasbatch::metrics::live::LiveTraceRecorder;
use faasbatch::metrics::telemetry::MetricRegistry;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::trace::function::{FunctionKind, FunctionRegistry};
use faasbatch::trace::workload::{cpu_workload, Invocation, Workload, WorkloadConfig};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const FUNCTIONS: usize = 6;

fn gateway_with(
    policy: RoutingKind,
    workers: usize,
    shards: usize,
    recorder: &LiveTraceRecorder,
) -> Gateway {
    let mut builder = Gateway::builder()
        .workers(workers)
        .shards(shards)
        .window(Duration::from_millis(10))
        .cold_start_delay(Duration::ZERO)
        .policy(policy)
        .trace(recorder.clone());
    for f in 0..FUNCTIONS {
        builder = builder.register(&format!("fn-{f}"), |_env| {});
    }
    builder.start()
}

/// Runs `jobs` invocations round-robin over the registry and returns the
/// recorded event stream.
fn run_burst(gateway: Gateway, recorder: &LiveTraceRecorder, jobs: usize) -> Vec<SimEvent> {
    let tickets: Vec<_> = (0..jobs)
        .map(|i| {
            gateway
                .invoke(&format!("fn-{}", i % FUNCTIONS), Bytes::new())
                .expect("registered, unbounded depth")
        })
        .collect();
    gateway.drain().expect("drain");
    for ticket in tickets {
        ticket.wait();
    }
    drop(gateway);
    recorder.take_trace()
}

/// The member sets of every `GatewayRoute` and every `DispatchDecision` in
/// the stream, sorted for multiset comparison.
fn route_and_batch_sets(events: &[SimEvent]) -> (Vec<BTreeSet<u64>>, Vec<BTreeSet<u64>>) {
    let mut routed = Vec::new();
    let mut batches = Vec::new();
    for event in events {
        match &event.kind {
            EventKind::GatewayRoute { members, .. } => {
                routed.push(members.iter().map(|m| m.value()).collect());
            }
            EventKind::DispatchDecision { members, .. } => {
                batches.push(members.iter().map(|m| m.value()).collect());
            }
            _ => {}
        }
    }
    routed.sort();
    batches.sort();
    (routed, batches)
}

/// Every routed window group lands on a worker as exactly one batch: the
/// platform neither splits nor merges what the gateway grouped.
#[test]
fn live_window_groups_are_never_split_under_any_policy() {
    for kind in RoutingKind::ALL {
        let recorder = LiveTraceRecorder::new();
        let gateway = gateway_with(kind, 4, 3, &recorder);
        let events = run_burst(gateway, &recorder, 60);
        let (routed, batches) = route_and_batch_sets(&events);
        assert!(!routed.is_empty(), "{}: nothing was routed", kind.name());
        assert_eq!(
            routed,
            batches,
            "{}: routed groups and dispatched batches diverge",
            kind.name()
        );
    }
}

/// The gateway stream round-trips through JSONL (what `faasbatch trace
/// --analyze` consumes), passes the auditor with zero violations, and the
/// attribution engine decomposes 100% of every completion's latency —
/// with a non-zero gateway-queue phase, since every invocation sat in a
/// shard for part of a window.
#[test]
fn gateway_stream_audits_clean_and_attributes_exactly() {
    let recorder = LiveTraceRecorder::new();
    let gateway = gateway_with(RoutingKind::LeastLoaded, 3, 2, &recorder);
    let events = run_burst(gateway, &recorder, 48);
    let mut auditor = AuditorSink::new();
    let mut engine = AttributionEngine::new();
    let mut reducer = RecordReducer::new();
    for event in &events {
        let line = serde_json::to_string(event).expect("serialize");
        let parsed: SimEvent = serde_json::from_str(&line).expect("round trip");
        assert_eq!(&parsed, event);
        auditor.record(&parsed);
        engine.record(&parsed);
        reducer.on_event(&parsed);
    }
    let violations = auditor.finish().to_vec();
    assert!(violations.is_empty(), "{violations:?}");
    let report = engine.finish();
    assert_eq!(report.invocations.len(), 48);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.skipped, 0);
    assert!(report.all_exact(), "phases must sum to end-to-end latency");
    // The four-part records are the projection of the same attributions,
    // gateway-queue charged to scheduling.
    let records = reducer.finish().records;
    assert_eq!(records.len(), 48);
    for record in &records {
        let a = report.get(record.id).expect("record is attributed");
        assert_eq!(record.latency, LatencyBreakdown::from(&a.phases));
        assert_eq!(Some(*record), a.record());
    }
    assert!(
        report
            .invocations
            .iter()
            .any(|a| a.phases.gateway_queue > SimDuration::ZERO),
        "gateway-queue phase never attributed"
    );
}

/// Saturation is a typed, non-panicking outcome; rejected invocations are
/// terminal in the event stream, so the auditor stays clean and the
/// attribution engine does not count them as unfinished.
#[test]
fn saturated_shards_reject_typed_and_stay_audit_clean() {
    let recorder = LiveTraceRecorder::new();
    let gateway = Gateway::builder()
        .workers(1)
        .shards(1)
        .shard_depth(3)
        .window(Duration::from_secs(5))
        .cold_start_delay(Duration::ZERO)
        .trace(recorder.clone())
        .register("f", |_env| {})
        .start();
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..10 {
        match gateway.invoke("f", Bytes::new()) {
            Ok(t) => tickets.push(t),
            Err(GatewayError::Rejected { shard: 0, depth: 3 }) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(tickets.len(), 3);
    assert_eq!(rejected, 7);
    assert_eq!(gateway.stats().shards[0].rejected, 7);
    gateway.drain().expect("drain");
    for ticket in tickets {
        ticket.wait();
    }
    drop(gateway);

    let events = recorder.take_trace();
    let mut auditor = AuditorSink::new();
    let mut engine = AttributionEngine::new();
    for event in &events {
        auditor.record(event);
        engine.record(event);
    }
    let violations = auditor.finish().to_vec();
    assert!(violations.is_empty(), "{violations:?}");
    let report = engine.finish();
    assert_eq!(report.invocations.len(), 3);
    assert_eq!(report.unfinished, 0, "rejected invocations are terminal");
}

/// The value of the unlabelled counter `name` in a `render_json` snapshot.
fn json_counter(json: &str, name: &str) -> u64 {
    let prefix = format!("{{\"name\":\"{name}\",\"labels\":{{}},\"type\":\"counter\",\"value\":");
    let start = json.find(&prefix).expect("family registered") + prefix.len();
    let digits = &json[start..];
    let end = digits.find('}').expect("value ends the object");
    digits[..end].parse().expect("an integer counter")
}

/// Telemetry keeps one count per fact: each `faasbatch_platform_*` counter
/// a scrape shows is the workers' own `PlatformStats` field, summed, over
/// batches that started cold (first round), warm (second round) and cold
/// again after keep-alive evicted every container (third round).
#[test]
fn platform_counters_are_the_workers_stats_summed() {
    let registry = MetricRegistry::new();
    let mut builder = Gateway::builder()
        .workers(2)
        .shards(2)
        .window(Duration::from_millis(5))
        .cold_start_delay(Duration::from_millis(1))
        .keep_alive(Duration::from_millis(50))
        .policy(RoutingKind::WarmAffinity)
        .telemetry(&registry);
    for f in 0..FUNCTIONS {
        builder = builder.register(&format!("fn-{f}"), |_env| {});
    }
    let gateway = builder.start();
    let mut jobs = 0u64;
    for round in 0..3 {
        if round == 2 {
            std::thread::sleep(Duration::from_millis(250));
        }
        let tickets: Vec<_> = (0..24)
            .map(|i| {
                gateway
                    .invoke(&format!("fn-{}", i % FUNCTIONS), Bytes::new())
                    .expect("registered, unbounded depth")
            })
            .collect();
        gateway.drain().expect("drain");
        for ticket in tickets {
            ticket.wait();
        }
        jobs += 24;
    }

    let json = registry.render_json();
    let summed = |field: fn(&PlatformStats) -> &AtomicU64| -> u64 {
        gateway
            .worker_stats()
            .iter()
            .map(|stats| field(stats).load(Ordering::Relaxed))
            .sum()
    };
    let counter = |family: &str, field: fn(&PlatformStats) -> &AtomicU64| -> u64 {
        let value = json_counter(&json, family);
        assert_eq!(value, summed(field), "{family}");
        value
    };
    let batches = counter("faasbatch_platform_batches_total", |s| &s.batches);
    let cold = counter("faasbatch_platform_cold_boots_total", |s| {
        &s.containers_created
    });
    let restores = counter("faasbatch_platform_restores_total", |s| {
        &s.containers_restored
    });
    let warm = counter("faasbatch_platform_warm_hits_total", |s| &s.warm_hits);
    let invocations = counter("faasbatch_platform_invocations_total", |s| &s.invocations);
    assert!(warm > 0 && cold > 0, "warm {warm}, cold {cold}");
    assert_eq!(warm + cold + restores, batches);
    assert_eq!(invocations, jobs);

    let text = registry.render_prometheus();
    let families: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE faasbatch_platform_"))
        .collect();
    assert_eq!(families.len(), 8, "{families:?}");
    for family in &families {
        let occurrences = families.iter().filter(|f| *f == family).count();
        assert_eq!(
            occurrences, 1,
            "# TYPE faasbatch_platform_{family} repeated"
        );
    }
}

/// Each worker keeps its own snapshot cache: a function booted cold on
/// its worker, evicted by keep-alive, and invoked again is restored there
/// from that worker's own template. Every worker restores exactly what it
/// booted, and the stream audits clean and attributes exactly.
#[test]
fn gateway_workers_restore_from_their_own_snapshots() {
    let recorder = LiveTraceRecorder::new();
    let mut builder = Gateway::builder()
        .workers(2)
        .shards(2)
        .window(Duration::from_millis(5))
        .cold_start_delay(Duration::from_millis(5))
        .restore_delay(Duration::from_millis(1))
        .snapshots(FUNCTIONS)
        .keep_alive(Duration::from_millis(20))
        .policy(RoutingKind::WarmAffinity)
        .trace(recorder.clone());
    for f in 0..FUNCTIONS {
        builder = builder.register(&format!("fn-{f}"), |_env| {});
    }
    let gateway = builder.start();
    let mut outcomes = Vec::new();
    for round in 0..2 {
        if round == 1 {
            // Long past the keep-alive: every warm container is gone.
            std::thread::sleep(Duration::from_millis(200));
        }
        let tickets: Vec<_> = (0..FUNCTIONS)
            .map(|f| {
                gateway
                    .invoke(&format!("fn-{f}"), Bytes::new())
                    .expect("registered, unbounded depth")
            })
            .collect();
        gateway.drain().expect("drain");
        outcomes.push(tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>());
    }
    assert!(outcomes[0].iter().all(|o| o.cold && !o.restored));
    assert!(outcomes[1].iter().all(|o| o.restored && !o.cold));
    let count = |stats: &PlatformStats, field: fn(&PlatformStats) -> &AtomicU64| {
        field(stats).load(Ordering::Relaxed)
    };
    let mut restored = 0;
    for stats in gateway.worker_stats() {
        let created = count(stats, |s| &s.containers_created);
        assert_eq!(count(stats, |s| &s.containers_restored), created);
        restored += created;
    }
    assert_eq!(restored, FUNCTIONS as u64);
    drop(gateway);

    let events = recorder.take_trace();
    let mut auditor = AuditorSink::new();
    let mut engine = AttributionEngine::new();
    for event in &events {
        auditor.record(event);
        engine.record(event);
    }
    let violations = auditor.finish().to_vec();
    assert!(violations.is_empty(), "{violations:?}");
    let report = engine.finish();
    assert_eq!(report.invocations.len(), 2 * FUNCTIONS);
    assert_eq!(report.unfinished, 0);
    assert!(report.all_exact(), "phases must sum to end-to-end latency");
}

/// A gateway whose window no test outlives: a window ends when the test
/// drains, so the test decides what one window holds.
fn scripted_gateway(
    policy: RoutingKind,
    workers: usize,
    shards: usize,
    recorder: &LiveTraceRecorder,
) -> Gateway {
    let mut builder = Gateway::builder()
        .workers(workers)
        .shards(shards)
        .window(Duration::from_secs(3600))
        .cold_start_delay(Duration::ZERO)
        .policy(policy)
        .trace(recorder.clone());
    for f in 0..FUNCTIONS {
        builder = builder.register(&format!("fn-{f}"), |_env| {});
    }
    builder.start()
}

/// Feeds `gateway` one window per entry of `windows` — every `(function,
/// members)` group of the entry, then a drain — and returns each
/// `GatewayRoute` as `(shard, function, members, worker)`, in routing order.
fn route_windows(
    gateway: Gateway,
    recorder: &LiveTraceRecorder,
    windows: &[&[(usize, usize)]],
) -> Vec<(u64, u32, usize, u64)> {
    for window in windows {
        let tickets: Vec<_> = window
            .iter()
            .flat_map(|&(f, members)| std::iter::repeat_n(format!("fn-{f}"), members))
            .map(|name| gateway.invoke(&name, Bytes::new()).expect("admitted"))
            .collect();
        gateway.drain().expect("drain");
        for ticket in tickets {
            ticket.wait();
        }
    }
    drop(gateway);
    let routes = recorder
        .take_trace()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::GatewayRoute {
                function,
                shard,
                worker,
                members,
            } => Some((shard, function.index(), members.len(), worker)),
            _ => None,
        });
    routes.collect()
}

/// Round-robin is one cursor for the gateway, not one per shard thread:
/// two groups of one window land on different workers even though
/// different shards routed them.
#[test]
fn round_robin_is_one_cursor_however_many_shards_route() {
    const WINDOWS: usize = 5;
    let recorder = LiveTraceRecorder::new();
    let gateway = scripted_gateway(RoutingKind::RoundRobin, 2, 2, &recorder);
    let on_shard = |shard: u64| {
        (0..FUNCTIONS)
            .find(|f| gateway.shard_of(&format!("fn-{f}")) == Some(shard))
            .expect("six functions cover two shards")
    };
    let window = [(on_shard(0), 1), (on_shard(1), 1)];
    let routes = route_windows(gateway, &recorder, &[&window[..]; WINDOWS]);
    assert_eq!(routes.len(), 2 * WINDOWS);
    let mut groups_on = [0usize; 2];
    for pair in routes.chunks(2) {
        let ((shard_a, .., worker_a), (shard_b, .., worker_b)) = (pair[0], pair[1]);
        assert_ne!(shard_a, shard_b, "one group per shard per window");
        assert_ne!(worker_a, worker_b, "two cursors both started at 0");
        groups_on[worker_a as usize] += 1;
        groups_on[worker_b as usize] += 1;
    }
    assert!(groups_on[0].abs_diff(groups_on[1]) <= 1, "{groups_on:?}");
}

/// Sim predicts live, for placement: one group sequence, placed by the fleet
/// simulation and by the live gateway, lands on the same worker group for
/// group under the policies that do not read the clock.
#[test]
fn fleet_sim_and_gateway_place_every_group_on_the_same_worker() {
    const WORKERS: usize = 3;
    // One `(function, members)` group per dispatch window.
    const SCRIPT: [(usize, usize); 10] = [
        (0, 2),
        (3, 1),
        (0, 3),
        (5, 1),
        (1, 2),
        (3, 2),
        (2, 1),
        (0, 1),
        (4, 2),
        (5, 3),
    ];
    for kind in [RoutingKind::RoundRobin, RoutingKind::WarmAffinity] {
        let cfg = FleetConfig {
            workers: WORKERS,
            ..FleetConfig::default()
        };
        let mut registry = FunctionRegistry::new();
        let ids: Vec<_> = (0..FUNCTIONS)
            .map(|f| registry.register(&format!("fn-{f}"), FunctionKind::Cpu { fib_n: 20 }))
            .collect();
        let invocations = SCRIPT
            .iter()
            .enumerate()
            .flat_map(|(window, &(f, members))| {
                let function = ids[f];
                let opens = cfg.setup.faasbatch.window.as_micros() * window as u64;
                (0..members as u64).map(move |m| Invocation {
                    // `Workload::new` renumbers in arrival order.
                    id: InvocationId::new(0),
                    function,
                    arrival: SimTime::from_micros(opens + m),
                    work: SimDuration::from_millis(1),
                })
            });
        let (_, sink) = run_fleet_traced(
            &Workload::new(registry, invocations.collect()),
            &cfg,
            kind.build(),
            "script",
            Box::new(VecSink::new()),
        )
        .expect("no faults configured");
        let sink = sink.as_any().downcast_ref::<VecSink>().expect("vec sink");
        let simulated: Vec<(u32, usize, u64)> = sink
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::GroupFormed {
                    function,
                    size,
                    worker,
                    ..
                } => Some((function.index(), *size as usize, *worker)),
                _ => None,
            })
            .collect();

        let recorder = LiveTraceRecorder::new();
        let gateway = scripted_gateway(kind, WORKERS, 2, &recorder);
        let windows: Vec<&[(usize, usize)]> = SCRIPT.iter().map(std::slice::from_ref).collect();
        let live: Vec<(u32, usize, u64)> = route_windows(gateway, &recorder, &windows)
            .into_iter()
            .map(|(_, function, members, worker)| (function, members, worker))
            .collect();

        assert_eq!(simulated.len(), SCRIPT.len(), "{}", kind.name());
        assert_eq!(simulated, live, "{}", kind.name());
    }
}

proptest! {
    /// Shard selection is `stable_hash(function) % shards` — identical
    /// across gateway instances (hence across runs, builds, machines).
    #[test]
    fn shard_hashing_is_deterministic_across_runs(
        functions in 1usize..12,
        shards in 1usize..9,
    ) {
        let build = || {
            let mut b = Gateway::builder()
                .workers(1)
                .shards(shards)
                .window(Duration::from_millis(2))
                .cold_start_delay(Duration::ZERO);
            for f in 0..functions {
                b = b.register(&format!("fn-{f}"), |_env| {});
            }
            b.start()
        };
        let first = build();
        let second = build();
        for f in 0..functions {
            let name = format!("fn-{f}");
            let shard = first.shard_of(&name).expect("registered");
            prop_assert_eq!(shard, second.shard_of(&name).expect("registered"));
            prop_assert_eq!(shard, stable_hash(f as u64) % shards as u64);
            prop_assert!(shard < shards as u64);
        }
        prop_assert_eq!(first.shard_of("unregistered"), None);
    }
}

proptest! {
    /// The simulated fleet upholds the same never-split invariant under
    /// every routing policy: all invocations of one function arriving in
    /// one dispatch window run on one worker.
    #[test]
    fn sim_window_groups_are_never_split_under_any_policy(
        seed in 0u64..500,
        workers in 1usize..=6,
        policy in 0usize..4,
    ) {
        let w = cpu_workload(
            &DetRng::new(seed),
            &WorkloadConfig {
                total: 80,
                span: SimDuration::from_secs(6),
                functions: 5,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let cfg = FleetConfig { workers, ..FleetConfig::default() };
        let report = run_fleet(&w, &cfg, RoutingKind::ALL[policy].build(), "cpu")
            .expect("no faults configured");
        let mut owner: HashMap<(u32, u64), usize> = HashMap::new();
        for r in &report.records {
            let key = (
                r.record.function.index(),
                r.record.arrival.as_micros() / cfg.setup.faasbatch.window.as_micros(),
            );
            let first = *owner.entry(key).or_insert(r.worker);
            prop_assert_eq!(
                first, r.worker,
                "{}: group {:?} split across workers {} and {}",
                RoutingKind::ALL[policy].name(), key, first, r.worker
            );
        }
    }

    /// Live never-split holds across random worker/shard/burst shapes too,
    /// not just the fixed topology above.
    #[test]
    fn live_window_groups_never_split_random_topologies(
        policy in 0usize..4,
        jobs in 8usize..40,
        workers in 1usize..5,
        shards in 1usize..4,
    ) {
        let recorder = LiveTraceRecorder::new();
        let gateway = gateway_with(RoutingKind::ALL[policy], workers, shards, &recorder);
        let events = run_burst(gateway, &recorder, jobs);
        let (routed, batches) = route_and_batch_sets(&events);
        prop_assert!(!routed.is_empty());
        prop_assert_eq!(routed, batches);
    }
}
