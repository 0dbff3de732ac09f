//! Sharded live gateway: routed dispatch-window groups are never split
//! across workers (live and simulated, all four routing policies), the
//! emitted event stream passes the invariant auditor and attributes every
//! completion's latency exactly — gateway-queue phase included — and
//! admission control rejects saturated shards with a typed error. Shard
//! selection is property-tested to be a pure, deterministic function of
//! the function registry.

use bytes::Bytes;
use faasbatch::core::routing::{stable_hash, RoutingKind};
use faasbatch::fleet::config::FleetConfig;
use faasbatch::fleet::sim::run_fleet;
use faasbatch::gateway::{Gateway, GatewayError};
use faasbatch::metrics::analysis::AttributionEngine;
use faasbatch::metrics::events::{AuditorSink, EventKind, RecordReducer, SimEvent, TraceSink};
use faasbatch::metrics::latency::LatencyBreakdown;
use faasbatch::metrics::live::LiveTraceRecorder;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{cpu_workload, WorkloadConfig};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
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
                r.record.arrival.as_micros() / cfg.window.as_micros(),
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
