//! Cross-validation: the simulated FaaSBatch policy and the live platform
//! implement the same batching logic, so on an equivalent scripted burst
//! they must make equivalent *decisions* (container counts, client
//! creations). Wall-clock timing is NOT compared — only decision outcomes,
//! which are robust to scheduling jitter.
//!
//! The start tier is compared decision for decision: the live dispatch core
//! decides warm → restore → cold on the simulator's own `WarmPool` and
//! `SnapshotCache`, so one scripted sequence of groups driven through a
//! simulated `Cluster` and through a live `DispatchCore` must start every
//! group in the same tier.
//!
//! One deviation is pinned rather than compared: the simulator splits a
//! window's group at `FaasBatchConfig::max_group_size`, while the live
//! platform never splits one and expands it into at most W runs, W being
//! the executor's worker count (DESIGN.md §9).
//!
//! With a trace recorder attached, the live side must emit a [`SimEvent`]
//! stream that passes the
//! auditor clean, attributes exactly, and round-trips through the same
//! JSONL format `faasbatch trace --analyze` consumes.

use bytes::Bytes;
use faasbatch::container::cluster::{Acquired, Cluster};
use faasbatch::container::ids::{FunctionId, InvocationId};
use faasbatch::container::snapshot::SnapshotConfig;
use faasbatch::container::spec::{ColdStartModel, ContainerSpec};
use faasbatch::core::platform::{DispatchCore, PlatformBuilder, PlatformIds, RemoteJob};
use faasbatch::core::policy::{run_faasbatch, FaasBatchConfig, FaasBatchPolicy};
use faasbatch::exec::{Executor, ExecutorConfig};
use faasbatch::metrics::analysis::{parse_events, AttributionEngine};
use faasbatch::metrics::events::{
    AuditorSink, EventKind, RecordReducer, SimEvent, TraceSink, VecSink,
};
use faasbatch::metrics::live::LiveTraceRecorder;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::schedulers::harness::run_simulation_traced;
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::storage::client::ClientConfig;
use faasbatch::storage::object_store::ObjectStore;
use faasbatch::trace::function::{FunctionKind, FunctionRegistry};
use faasbatch::trace::workload::{Invocation, Workload};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const BURST: usize = 24;
const FUNCTIONS: usize = 3;

/// Simulated version: BURST invocations of FUNCTIONS functions, all inside
/// one dispatch window.
fn simulated_counts() -> (u64, u64) {
    let mut reg = FunctionRegistry::new();
    let ids: Vec<FunctionId> = (0..FUNCTIONS)
        .map(|i| {
            reg.register(
                &format!("io-{i}"),
                FunctionKind::Io {
                    bucket: format!("bucket-{i}"),
                    ops: 1,
                },
            )
        })
        .collect();
    let invs: Vec<Invocation> = (0..BURST as u64)
        .map(|n| Invocation {
            id: InvocationId::new(n),
            function: ids[(n as usize) % FUNCTIONS],
            arrival: SimTime::from_millis(1),
            work: SimDuration::from_millis(3),
        })
        .collect();
    let w = Workload::new(reg, invs);
    let report = run_faasbatch(
        &w,
        SimConfig::default(),
        FaasBatchConfig::default(),
        "xcheck",
    );
    (report.provisioned_containers, report.clients_created)
}

fn live_platform(recorder: Option<LiveTraceRecorder>) -> PlatformBuilder {
    let store = ObjectStore::new();
    for i in 0..FUNCTIONS {
        store.create_bucket(&format!("bucket-{i}")).unwrap();
    }
    let mut builder = PlatformBuilder::new()
        .window(Duration::from_millis(60))
        .cold_start_delay(Duration::from_millis(1))
        .store(store);
    if let Some(rec) = recorder {
        builder = builder.trace(rec);
    }
    for i in 0..FUNCTIONS {
        builder = builder.register(&format!("io-{i}"), move |env| {
            let client = env
                .container
                .storage_client(&ClientConfig::for_bucket(&format!("bucket-{i}")));
            client.put("k", Bytes::from_static(b"v")).unwrap();
        });
    }
    builder
}

fn run_burst(platform: &faasbatch::core::platform::FaasBatchPlatform) {
    let tickets: Vec<_> = (0..BURST)
        .map(|n| {
            platform
                .invoke(&format!("io-{}", n % FUNCTIONS), Bytes::new())
                .expect("registered")
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    platform.drain().unwrap();
}

/// Live version: the same burst through the real platform.
fn live_counts() -> (u64, u64) {
    let platform = live_platform(None).start();
    run_burst(&platform);
    (
        platform.stats().containers_created.load(Ordering::Relaxed),
        platform.stats().clients_created.load(Ordering::Relaxed),
    )
}

fn check_live_side(live_containers: u64, live_clients: u64) {
    // The live run races real threads against the window; allow stragglers
    // to have opened one extra batch per function, but the multiplexer must
    // still cap clients at one per container.
    assert!(
        live_containers >= FUNCTIONS as u64 && live_containers <= 2 * FUNCTIONS as u64,
        "live containers: {live_containers}"
    );
    assert!(
        live_clients <= live_containers,
        "live clients {live_clients} exceed containers {live_containers}"
    );
}

#[test]
fn one_window_burst_makes_equivalent_decisions() {
    let (sim_containers, sim_clients) = simulated_counts();
    // The simulated run is deterministic: one container and one client per
    // function.
    assert_eq!(sim_containers, FUNCTIONS as u64);
    assert_eq!(sim_clients, FUNCTIONS as u64);

    let (live_containers, live_clients) = live_counts();
    check_live_side(live_containers, live_clients);
}

#[test]
fn traced_live_burst_audits_clean_and_attributes_exactly() {
    let recorder = LiveTraceRecorder::new();
    let platform = live_platform(Some(recorder.clone())).start();
    run_burst(&platform);
    drop(platform);
    let trace = recorder.take_trace();
    assert!(
        trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Arrival { .. }))
            .count()
            == BURST,
        "every invocation arrives in the trace"
    );

    // The stream must satisfy every simulator invariant.
    let mut auditor = AuditorSink::new();
    for event in &trace {
        auditor.record(event);
    }
    assert!(
        auditor.finish().is_empty(),
        "auditor violations: {:?}",
        auditor.finish()
    );

    // The reducer's latency tiling must hold on wall-clock stamps.
    let mut reducer = RecordReducer::new();
    for event in &trace {
        reducer.on_event(event);
    }
    let reduced = reducer.finish();
    assert_eq!(reduced.records.len(), BURST, "records");
    for record in &reduced.records {
        assert!(record.is_consistent(), "{record:?}");
    }

    // Round-trip through the JSONL wire format `faasbatch trace
    // --analyze` reads, then attribute: every phase sum must equal the
    // end-to-end latency exactly.
    let jsonl: String = trace
        .iter()
        .map(|e| serde_json::to_string(e).expect("serializable") + "\n")
        .collect();
    let reloaded = parse_events(&jsonl).expect("round-trip parse");
    assert_eq!(reloaded.len(), trace.len(), "JSONL round trip");
    let mut engine = AttributionEngine::new();
    engine.consume(&reloaded);
    let report = engine.finish();
    assert_eq!(report.invocations.len(), BURST, "attributions");
    assert_eq!(report.unfinished, 0, "unfinished");
    assert!(report.all_exact(), "attribution must be exact");
}

#[test]
fn seeded_executor_runs_are_decision_deterministic() {
    // Same seed, same fixed-size pool: the platform's decision outcomes
    // must be reproducible run over run (the executor's steal order is
    // derived from the seed, so no scheduling nondeterminism leaks into
    // counts).
    let run = |seed: u64| -> (u64, u64, u64) {
        let exec = Executor::new(ExecutorConfig {
            workers: 4,
            seed,
            ..ExecutorConfig::default()
        });
        assert_eq!(exec.seed(), seed);
        let recorder = LiveTraceRecorder::new();
        let platform = live_platform(Some(recorder.clone()))
            .executor(Arc::clone(&exec))
            .start();
        run_burst(&platform);
        let invocations = platform.stats().invocations.load(Ordering::Relaxed);
        let containers = platform.stats().containers_created.load(Ordering::Relaxed);
        let clients = platform.stats().clients_created.load(Ordering::Relaxed);
        let batches = platform.stats().batches.load(Ordering::Relaxed);
        drop(platform);
        // One task per run: at least one per batch, at most one per worker.
        let spawned = exec.metrics().spawned_total;
        let most: u64 = recorder
            .take_trace()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::DispatchDecision { members, .. } => {
                    Some(members.len().min(exec.workers()) as u64)
                }
                _ => None,
            })
            .sum();
        assert!(
            batches <= spawned && spawned <= most,
            "{batches} <= {spawned} <= {most}"
        );
        exec.shutdown();
        (invocations, containers, clients)
    };
    let first = run(0xFAA5_BA7C);
    let second = run(0xFAA5_BA7C);
    assert_eq!(first.0, BURST as u64);
    assert_eq!(second.0, BURST as u64);
    check_live_side(first.1, first.2);
    check_live_side(second.1, second.2);
}

/// How a group's container started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Warm,
    Restored,
    Cold,
}

/// Whether a group follows the previous one at once or after the warm pool
/// has aged out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gap {
    Within,
    Past,
}

const KEEP_ALIVE_MS: u64 = 50;
const PAST_MS: u64 = 150;

/// `(function, gap since the previous group finished)`, against one snapshot
/// slot, and the tier each group must start in.
const SCRIPT: [((u32, Gap), Tier); 9] = [
    ((0, Gap::Within), Tier::Cold),   // nothing pooled, nothing captured
    ((0, Gap::Within), Tier::Warm),   // warm hit
    ((0, Gap::Past), Tier::Restored), // pool miss with a snapshot
    ((1, Gap::Within), Tier::Cold),   // pool miss without one; its capture evicts fn 0's
    ((0, Gap::Past), Tier::Cold),     // fn 0 lost its snapshot to the capacity bound
    ((0, Gap::Within), Tier::Warm),
    ((1, Gap::Past), Tier::Cold), // ... and took fn 1's in turn
    ((1, Gap::Within), Tier::Warm),
    ((1, Gap::Past), Tier::Restored), // reuse after keep-alive expiry
];

/// The script through the simulator's `Cluster`, at scripted instants.
fn simulated_tiers() -> Vec<Tier> {
    let mut cluster = Cluster::new(
        4.0,
        ColdStartModel::default(),
        SimDuration::from_millis(KEEP_ALIVE_MS),
    );
    cluster.configure_snapshots(SnapshotConfig::with_capacity(1));
    let boot = cluster.cold_model().total();
    let mut now = SimTime::ZERO;
    let mut tiers = Vec::new();
    for ((function, gap), _) in SCRIPT {
        if gap == Gap::Past {
            now += SimDuration::from_millis(PAST_MS);
        }
        let acquired = cluster.acquire(now, &ContainerSpec::new(FunctionId::new(function)));
        let id = acquired.container();
        tiers.push(match acquired {
            Acquired::Warm(_) => Tier::Warm,
            Acquired::Restored { latency, .. } => {
                now += latency;
                cluster.finish_restore(now, id);
                Tier::Restored
            }
            Acquired::Cold(_) => {
                now += boot;
                cluster.finish_cold_start(now, id);
                Tier::Cold
            }
        });
        now += SimDuration::from_millis(1);
        cluster.release(now, id, 1);
    }
    tiers
}

/// The script through a live `DispatchCore`, on the wall clock. Also returns
/// the core's containers (started, evicted) once every one has aged out.
fn live_tiers() -> (Vec<Tier>, (u64, u64)) {
    let ids = Arc::new(PlatformIds::new());
    let core = DispatchCore::fleet(
        PlatformBuilder::new()
            .cold_start_delay(Duration::from_millis(5))
            .restore_delay(Duration::from_millis(1))
            .snapshots(1)
            .keep_alive(Duration::from_millis(KEEP_ALIVE_MS))
            .ids(Arc::clone(&ids))
            .register("f0", |_env| {})
            .register("f1", |_env| {}),
        1,
    )
    .pop()
    .expect("one core");
    let mut tiers = Vec::new();
    for ((function, gap), _) in SCRIPT {
        if gap == Gap::Past {
            std::thread::sleep(Duration::from_millis(PAST_MS));
        }
        let (job, ticket) = RemoteJob::new(ids.next_invocation(), Bytes::new());
        core.dispatch(function as usize, vec![job], None);
        let outcome = ticket.wait();
        tiers.push(match (outcome.cold, outcome.restored) {
            (false, false) => Tier::Warm,
            (false, true) => Tier::Restored,
            (true, false) => Tier::Cold,
            (true, true) => panic!("cold and restored: {outcome:?}"),
        });
        core.wait_idle();
    }
    std::thread::sleep(Duration::from_millis(PAST_MS));
    let stats = core.stats();
    let started = stats.containers_created.load(Ordering::Relaxed)
        + stats.containers_restored.load(Ordering::Relaxed);
    (
        tiers,
        (started, stats.containers_evicted.load(Ordering::Relaxed)),
    )
}

#[test]
fn scripted_groups_start_in_the_same_tier_simulated_and_live() {
    let expected: Vec<Tier> = SCRIPT.iter().map(|&(_, tier)| tier).collect();
    assert_eq!(simulated_tiers(), expected, "simulated");
    let (live, (started, evicted)) = live_tiers();
    assert_eq!(live, expected, "live");
    // Whether the timer or a check-out found its age, every container the
    // live pool dropped was counted.
    assert_eq!(started, 6);
    assert_eq!(evicted, started);
}

/// The member count of every `DispatchDecision` in `events`, in order.
fn decision_sizes(events: &[SimEvent]) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::DispatchDecision { members, .. } => Some(members.len()),
            _ => None,
        })
        .collect()
}

/// One window holding `n` invocations of one function, through the
/// simulated FaaSBatch with group cap `cap`: the sizes of its decisions.
fn simulated_decisions(n: usize, cap: Option<usize>) -> Vec<usize> {
    let mut reg = FunctionRegistry::new();
    let f = reg.register("f0", FunctionKind::Cpu { fib_n: 20 });
    let invs: Vec<Invocation> = (0..n as u64)
        .map(|id| Invocation {
            id: InvocationId::new(id),
            function: f,
            arrival: SimTime::from_millis(1),
            work: SimDuration::from_millis(3),
        })
        .collect();
    let cfg = FaasBatchConfig {
        max_group_size: cap,
        ..FaasBatchConfig::default()
    };
    let window = cfg.window;
    let (_, sink) = run_simulation_traced(
        Box::new(FaasBatchPolicy::new(cfg)),
        &Workload::new(reg, invs),
        SimConfig::default(),
        "xcheck",
        Some(window),
        Box::new(VecSink::new()),
    );
    let sink = sink.as_any().downcast_ref::<VecSink>().expect("vec sink");
    decision_sizes(sink.events())
}

#[test]
fn a_capped_simulated_group_splits_and_a_live_group_expands_into_at_most_w_runs() {
    const N: usize = 40;
    const CAP: usize = 6;
    const W: usize = 4;
    // The simulator: ⌈N / CAP⌉ decisions of at most CAP members, and one
    // decision without a cap.
    let capped = simulated_decisions(N, Some(CAP));
    assert_eq!(capped.len(), N.div_ceil(CAP), "{capped:?}");
    assert!(capped.iter().all(|&size| size <= CAP), "{capped:?}");
    assert_eq!(capped.iter().sum::<usize>(), N);
    assert_eq!(simulated_decisions(N, None), vec![N]);

    // Live: the same window is one decision of all N members, run by at
    // most W executor tasks. There is no cap to set.
    let exec = Executor::new(ExecutorConfig {
        workers: W,
        seed: 38,
        ..ExecutorConfig::default()
    });
    let recorder = LiveTraceRecorder::new();
    let platform = PlatformBuilder::new()
        .window(Duration::from_secs(30))
        .cold_start_delay(Duration::from_millis(1))
        .executor(Arc::clone(&exec))
        .trace(recorder.clone())
        .register("f0", |_env| {})
        .start();
    let before = exec.metrics().spawned_total;
    let tickets: Vec<_> = (0..N)
        .map(|_| platform.invoke("f0", Bytes::new()).expect("registered"))
        .collect();
    // The flush ends the 30 s window: every invocation is in this one.
    platform.drain().unwrap();
    let spawned = exec.metrics().spawned_total - before;
    for ticket in tickets {
        assert!(!ticket.wait().panicked);
    }
    drop(platform);
    assert_eq!(decision_sizes(&recorder.take_trace()), vec![N]);
    assert!(
        (1..=W as u64).contains(&spawned),
        "{spawned} tasks for one group on {W} workers"
    );
    exec.shutdown();
}
