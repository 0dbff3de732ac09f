//! Per-layer drills: one layer's public API called in isolation, a fixed
//! number of operations per batch, the median batch reported as time per
//! operation. They say what a layer costs on its own; the *run* metrics
//! taken around a workload's calls say what it cost there.

use crate::stats::{median, quantile};
use bytes::Bytes;
use faasbatch_container::cluster::{Acquired, Cluster};
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_container::pool::WarmPool;
use faasbatch_container::snapshot::{SnapshotCache, SnapshotConfig};
use faasbatch_container::spec::{ColdStartModel, ContainerSpec};
use faasbatch_core::mapper::InvokeMapper;
use faasbatch_core::multiplexer::ResourceMultiplexer;
use faasbatch_core::platform::{FaasBatchPlatform, PlatformBuilder, PlatformIds, RemoteJob};
use faasbatch_core::routing::{RouterCtx, RoutingKind, WorkerLoad};
use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_exec::{Executor, ExecutorConfig, GroupJob};
use faasbatch_metrics::analysis::AttributionEngine;
use faasbatch_metrics::events::{
    AuditorSink, JsonlSink, RecordReducer, SimEvent, TraceSink, VecSink,
};
use faasbatch_metrics::telemetry::MetricRegistry;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::run_simulation_traced;
use faasbatch_simcore::cpu::CpuModel;
use faasbatch_simcore::engine::{Engine, EventArg};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_storage::client::{ClientConfig, StorageSdk};
use faasbatch_storage::object_store::ObjectStore;
use faasbatch_trace::workload::{cpu_workload, Invocation, WorkloadConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per drill; the median batch is reported.
const BATCHES: usize = 5;

/// Collects drill results under their `BENCHMARK.json` names.
struct Drills {
    out: BTreeMap<String, f64>,
    /// Operation counts are divided by this in `--quick` runs.
    shrink: usize,
}

impl Drills {
    fn ops(&self, full: usize) -> usize {
        (full / self.shrink).max(8)
    }

    /// Runs `batch` [`BATCHES`] times — each call performs `ops` operations
    /// and returns how long the timed part took — and records the median
    /// nanoseconds per operation.
    fn per_op(&mut self, name: &str, ops: usize, mut batch: impl FnMut(usize) -> Duration) {
        let mut ns: Vec<f64> = (0..BATCHES)
            .map(|_| batch(ops).as_nanos() as f64 / ops as f64)
            .collect();
        self.out.insert(name.to_owned(), median(&mut ns));
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn bump(world: &mut u64, _: &mut Engine<u64>, arg: EventArg) {
    *world = world.wrapping_add(arg.a);
}

fn simcore(d: &mut Drills, seed: u64) {
    let ops = d.ops(200_000);
    let mut rng = DetRng::new(seed).fork("drill-engine");
    let delays: Vec<SimDuration> = (0..ops)
        .map(|_| SimDuration::from_micros(rng.uniform_u64(1, 1_000_000)))
        .collect();
    d.per_op("simcore.engine.schedule_run_ns", ops, |_| {
        let mut engine: Engine<u64> = Engine::new();
        let mut world = 0u64;
        timed(|| {
            for (i, &delay) in delays.iter().enumerate() {
                engine.schedule_arg_in(delay, bump, EventArg::one(i as u64));
            }
            black_box(engine.run(&mut world));
        })
    });
    d.per_op("simcore.engine.cancel_ns", ops, |_| {
        let mut engine: Engine<u64> = Engine::new();
        let mut world = 0u64;
        let ids: Vec<_> = delays
            .iter()
            .map(|&delay| engine.schedule_arg_in(delay, bump, EventArg::one(1)))
            .collect();
        // Cancelling is O(1); the stale heap keys are paid for when the
        // queue is next drained, so the drain is part of the price.
        timed(|| {
            for id in ids {
                engine.cancel(id);
            }
            black_box(engine.run(&mut world));
        })
    });

    for (name, runnable, full_ops) in [
        ("simcore.cpu.pump_ns_k64", 64usize, 4_000usize),
        ("simcore.cpu.pump_ns_k4096", 4_096, 200),
    ] {
        let ops = d.ops(full_ops);
        // Filling the model costs more than the drill; do it once.
        let mut loaded = CpuModel::new(32.0);
        let groups: Vec<_> = (0..64).map(|_| loaded.create_group(None)).collect();
        for i in 0..runnable {
            loaded.add_task(
                SimTime::ZERO,
                groups[i % 64],
                SimDuration::from_secs(1_000_000),
            );
        }
        d.per_op(name, ops, |ops| {
            let mut cpu = loaded.clone();
            let mut now = SimTime::ZERO;
            // One operation: a short task joins, the pump finds the next
            // completion, advances to it and retires the task.
            timed(|| {
                for i in 0..ops {
                    cpu.add_task(now, groups[i % 64], SimDuration::from_micros(1));
                    let (at, _) = cpu
                        .next_completion(now)
                        .expect("a runnable task always completes");
                    now = at;
                    black_box(cpu.advance_to(now));
                }
            })
        });
    }
}

fn container(d: &mut Drills) {
    let keep_alive = SimDuration::from_secs(600);
    let spec = ContainerSpec::new(FunctionId::new(0));
    let ops = d.ops(100_000);
    d.per_op("container.cluster.acquire_warm_ns", ops, |ops| {
        let mut cluster = Cluster::new(32.0, ColdStartModel::default(), keep_alive);
        let now = SimTime::ZERO;
        let first = cluster.acquire(now, &spec).container();
        cluster.finish_cold_start(now, first);
        cluster.release(now, first, 1);
        let elapsed = timed(|| {
            for _ in 0..ops {
                let id = cluster.acquire(now, &spec).container();
                cluster.release(now, id, 1);
            }
        });
        black_box(cluster.take_transitions().len());
        elapsed
    });
    // A restored or cold container is created, made ready, released and
    // torn down again, so the pool never turns the next acquire warm. The
    // cluster keeps terminated containers, so the cost grows with the count:
    // the operation count is part of the metric's definition.
    let ops = d.ops(2_000);
    for (name, snapshots) in [
        ("container.cluster.acquire_restore_ns", true),
        ("container.cluster.acquire_cold_ns", false),
    ] {
        d.per_op(name, ops, |ops| {
            let mut cluster = Cluster::new(32.0, ColdStartModel::default(), keep_alive);
            let now = SimTime::ZERO;
            if snapshots {
                cluster.configure_snapshots(SnapshotConfig::with_capacity(64));
                let first = cluster.acquire(now, &spec).container();
                cluster.finish_cold_start(now, first);
                cluster.release(now, first, 1);
                cluster.terminate(now, first);
            }
            let elapsed = timed(|| {
                for _ in 0..ops {
                    let id = match cluster.acquire(now, &spec) {
                        Acquired::Restored { id, .. } => {
                            cluster.finish_restore(now, id);
                            id
                        }
                        Acquired::Cold(id) => {
                            cluster.finish_cold_start(now, id);
                            id
                        }
                        Acquired::Warm(id) => id,
                    };
                    cluster.release(now, id, 1);
                    cluster.terminate(now, id);
                }
            });
            black_box(cluster.take_transitions().len());
            elapsed
        });
    }

    let ops = d.ops(200_000);
    d.per_op("container.pool.checkin_checkout_ns", ops, |ops| {
        let mut pool = WarmPool::new(keep_alive);
        let now = SimTime::ZERO;
        timed(|| {
            for i in 0..ops {
                let function = FunctionId::new((i % 64) as u32);
                pool.check_in(now, function, ContainerId::new(i as u64));
                black_box(pool.check_out(now, function));
            }
        })
    });
    d.per_op("container.pool.expire_ns", ops, |ops| {
        let mut pool = WarmPool::new(keep_alive);
        for i in 0..ops {
            let function = FunctionId::new((i % 64) as u32);
            pool.check_in(SimTime::ZERO, function, ContainerId::new(i as u64));
        }
        timed(|| {
            let expired = pool.expire(SimTime::from_secs(601));
            assert_eq!(
                expired.len(),
                ops,
                "every parked container outlived the TTL"
            );
        })
    });
    d.per_op("container.snapshot.lookup_capture_ns", ops, |ops| {
        let mut cache = SnapshotCache::new(SnapshotConfig::with_capacity(64));
        timed(|| {
            for i in 0..ops {
                let now = SimTime::from_micros(i as u64);
                let function = FunctionId::new((i % 256) as u32);
                if cache.lookup(now, function).is_none() {
                    cache.capture(now, function, SimDuration::from_millis(1_300));
                }
            }
        })
    });
}

fn core_layers(d: &mut Drills, executor: &Arc<Executor>) {
    let invocation = |n: usize, function: u32| Invocation {
        id: InvocationId::new(n as u64),
        function: FunctionId::new(function),
        arrival: SimTime::ZERO,
        work: SimDuration::from_millis(10),
    };
    let ops = d.ops(256_000);
    for (name, group) in [
        ("core.mapper.observe_drain_ns_g1", 1usize),
        ("core.mapper.observe_drain_ns_g256", 256),
    ] {
        d.per_op(name, ops, |ops| {
            let mut mapper = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW);
            // Windows of 256 invocations: 256 groups of one, or one of 256.
            timed(|| {
                for n in 0..ops {
                    mapper.observe(invocation(n, ((n % 256) / group) as u32));
                    if n % 256 == 255 {
                        black_box(mapper.drain());
                    }
                }
                black_box(mapper.drain());
            })
        });
    }

    let config = ClientConfig::for_bucket("drill");
    let ops = d.ops(500_000);
    d.per_op("core.multiplexer.hit_ns", ops, |ops| {
        let mux: ResourceMultiplexer<u64> = ResourceMultiplexer::new();
        mux.get_or_create(&config, || 7);
        timed(|| {
            for _ in 0..ops {
                black_box(mux.get_or_create(&config, || 7));
            }
        })
    });
    let ops = d.ops(100_000);
    d.per_op("core.multiplexer.hit_ns_t2", ops, |ops| {
        let mux: ResourceMultiplexer<u64> = ResourceMultiplexer::new();
        mux.get_or_create(&config, || 7);
        // Two threads, `ops` hits each: wall time per hit of one thread.
        timed(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for _ in 0..ops {
                            black_box(mux.get_or_create(&config, || 7));
                        }
                    });
                }
            });
        })
    });
    let ops = d.ops(100_000);
    d.per_op("core.multiplexer.miss_ns", ops, |ops| {
        let mux: ResourceMultiplexer<u64> = ResourceMultiplexer::new();
        let elapsed = timed(|| {
            for i in 0..ops {
                black_box(mux.get_or_create(&i, || i as u64));
            }
        });
        black_box(mux.take_events().len());
        elapsed
    });

    let ops = d.ops(200_000);
    d.per_op("core.routing.route_ns", ops, |ops| {
        let mut policy = RoutingKind::LeastLoaded.build();
        let alive = [true; 4];
        let mut loads = vec![WorkerLoad::default(); 4];
        let work = SimDuration::from_millis(1);
        // What the gateway does per group: age the estimates, route, charge.
        timed(|| {
            for i in 0..ops {
                let now = SimTime::from_micros(i as u64 * 300);
                for load in &mut loads {
                    load.observe(now);
                }
                let worker = policy.route(&RouterCtx {
                    now,
                    function: FunctionId::new((i % 32) as u32),
                    alive: &alive,
                    load: &loads,
                });
                loads[worker].note(now, work);
            }
        })
    });

    let platform = |ids: Option<Arc<PlatformIds>>| -> FaasBatchPlatform {
        let mut builder = PlatformBuilder::new()
            .window(Duration::from_millis(10))
            .cold_start_delay(Duration::ZERO)
            .executor(Arc::clone(executor))
            .register("noop", |_env| {});
        if let Some(ids) = ids {
            builder = builder.ids(ids);
        }
        builder.start()
    };
    let ops = d.ops(100_000);
    d.per_op("core.platform.invoke_ns", ops, |ops| {
        let platform = platform(None);
        timed(|| {
            for _ in 0..ops {
                // Dropped ticket: `drain` below waits for completion.
                drop(platform.invoke("noop", Bytes::new()));
            }
            platform.drain().expect("platform is running");
        })
    });
    for (name, group, full_ops) in [
        ("core.platform.submit_group_ns_g1", 1usize, 20_000usize),
        ("core.platform.submit_group_ns_g1024", 1_024, 102_400),
    ] {
        let ops = d.ops(full_ops).max(group);
        d.per_op(name, ops, |ops| {
            let ids = Arc::new(PlatformIds::new());
            let platform = platform(Some(Arc::clone(&ids)));
            timed(|| {
                for _ in 0..ops / group {
                    let members = (0..group)
                        .map(|_| RemoteJob::new(ids.next_invocation(), Bytes::new()).0)
                        .collect();
                    platform
                        .submit_group(0, members, None)
                        .expect("platform is running");
                }
                platform.drain().expect("platform is running");
            })
        });
    }
}

fn exec(d: &mut Drills, executor: &Arc<Executor>) {
    // Spawn-to-run: how long after `spawn` returns control does the task
    // body start, one task at a time on an otherwise idle pool.
    let samples = d.ops(2_000);
    let (tx, rx) = mpsc::channel::<u64>();
    let mut waits: Vec<f64> = (0..samples)
        .map(|_| {
            let tx = tx.clone();
            let spawned = Instant::now();
            executor.spawn(async move {
                let _ = tx.send(spawned.elapsed().as_nanos() as u64);
            });
            rx.recv().expect("the spawned task reports back") as f64
        })
        .collect();
    d.out
        .insert("exec.spawn_run_ns_p50".into(), quantile(&mut waits, 0.50));
    d.out
        .insert("exec.spawn_run_ns_p99".into(), quantile(&mut waits, 0.99));

    let ops = d.ops(100_000);
    d.per_op("exec.submit_group_ns_job", ops, |ops| {
        let jobs: Vec<GroupJob> = (0..ops).map(|_| GroupJob::blocking(|| {})).collect();
        timed(|| {
            let report = executor.submit_group(jobs, None).wait();
            assert_eq!(report.failed(), 0, "no-op jobs cannot fail");
        })
    });

    let sleeps = d.ops(400);
    let delay = Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<u64>();
    let jobs: Vec<GroupJob> = (0..sleeps)
        .map(|_| {
            let tx = tx.clone();
            let exec = Arc::clone(executor);
            GroupJob::future(async move {
                let started = Instant::now();
                exec.sleep(delay).await;
                let late = started.elapsed().saturating_sub(delay);
                let _ = tx.send(late.as_micros() as u64);
            })
        })
        .collect();
    executor.submit_group(jobs, None).wait();
    let mut late: Vec<f64> = rx.try_iter().map(|us| us as f64).collect();
    d.out.insert(
        "exec.timer_lateness_us_p99".into(),
        quantile(&mut late, 0.99),
    );
}

/// The event stream of one FaaSBatch replay of a small CPU workload.
fn recorded_stream(seed: u64, total: usize) -> Vec<SimEvent> {
    let workload = cpu_workload(
        &DetRng::new(seed),
        &WorkloadConfig {
            total,
            span: SimDuration::from_secs(60),
            functions: 32,
            ..WorkloadConfig::default()
        },
    );
    let setup = SchedulerSetup::new(SimDuration::from_millis(200));
    let (policy, interval) = SchedulerKind::FaasBatch.build(&setup);
    let (_, sink) = run_simulation_traced(
        policy,
        &workload,
        SimConfig::default(),
        "drill",
        interval,
        Box::new(VecSink::new()),
    );
    sink.as_any()
        .downcast_ref::<VecSink>()
        .expect("the sink handed in is returned")
        .events()
        .to_vec()
}

fn metrics(d: &mut Drills, seed: u64) {
    let events = recorded_stream(seed, d.ops(4_000));
    let n = events.len();
    d.per_op("metrics.events.reducer_ns", n, |_| {
        let mut reducer = RecordReducer::new();
        timed(|| {
            for event in &events {
                black_box(reducer.on_event(event));
            }
        })
    });
    d.per_op("metrics.events.auditor_ns", n, |_| {
        let mut auditor = AuditorSink::new();
        timed(|| {
            auditor.record_batch(&events);
            assert!(auditor.finish().is_empty(), "a recorded stream is clean");
        })
    });
    d.per_op("metrics.events.jsonl_ns", n, |_| {
        let mut sink = JsonlSink::new(Box::new(std::io::sink()));
        timed(|| sink.record_batch(&events))
    });
    d.per_op("metrics.attribution.consume_ns", n, |_| {
        let mut engine = AttributionEngine::new();
        timed(|| {
            engine.consume(&events);
            black_box(engine.finish().invocations.len());
        })
    });

    let registry = MetricRegistry::new();
    let counter = registry.counter("drill_events_total", "Drill counter.");
    let histograms: Vec<_> = (0..64)
        .map(|i| {
            registry.histogram_with(
                "drill_latency_us",
                "Drill histogram.",
                &[("function", &i.to_string())],
            )
        })
        .collect();
    let ops = d.ops(2_000_000);
    d.per_op("metrics.telemetry.counter_inc_ns", ops, |ops| {
        timed(|| {
            for _ in 0..ops {
                counter.inc();
            }
        })
    });
    d.per_op("metrics.telemetry.histogram_record_ns", ops, |ops| {
        timed(|| {
            for i in 0..ops {
                histograms[i % 64].record((i as u64 * 37) % 100_000);
            }
        })
    });
    let mut render_ms: Vec<f64> = (0..BATCHES)
        .map(|_| timed(|| drop(black_box(registry.render_prometheus()))).as_secs_f64() * 1e3)
        .collect();
    d.out.insert(
        "metrics.telemetry.render_prometheus_ms".into(),
        median(&mut render_ms),
    );
}

fn storage(d: &mut Drills) {
    let store = ObjectStore::new();
    store
        .create_bucket("drill")
        .expect("a fresh store has no such bucket");
    let sdk = StorageSdk::new(store);
    let config = ClientConfig::for_bucket("drill");
    // Client creation spins for its modelled cost (0.66 ms by default).
    let connects = d.ops(40);
    let mut connect_us: Vec<f64> = (0..BATCHES)
        .map(|_| {
            timed(|| {
                for _ in 0..connects {
                    black_box(sdk.connect(&config));
                }
            })
            .as_secs_f64()
                * 1e6
                / connects as f64
        })
        .collect();
    d.out
        .insert("storage.connect_us".into(), median(&mut connect_us));

    let client = sdk.connect(&config);
    let payload = Bytes::from(vec![0xA5u8; 64]);
    let keys: Vec<String> = (0..1_024).map(|i| format!("o{i}")).collect();
    let ops = d.ops(200_000);
    d.per_op("storage.put_get_ns", ops, |ops| {
        timed(|| {
            for i in 0..ops {
                let key = &keys[i % keys.len()];
                client.put(key, payload.clone()).expect("bucket exists");
                black_box(client.get(key).expect("object was just written"));
            }
        })
    });
}

/// Runs every drill and returns the per-layer metrics they produce.
pub fn run_all(seed: u64, quick: bool) -> BTreeMap<String, f64> {
    let mut d = Drills {
        out: BTreeMap::new(),
        shrink: if quick { 20 } else { 1 },
    };
    simcore(&mut d, seed);
    container(&mut d);
    let executor = Executor::new(ExecutorConfig {
        workers: 2,
        seed,
        ..ExecutorConfig::default()
    });
    core_layers(&mut d, &executor);
    exec(&mut d, &executor);
    executor.shutdown();
    metrics(&mut d, seed);
    storage(&mut d);
    d.out
}
