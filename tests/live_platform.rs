//! End-to-end tests of the live (real-thread) FaaSBatch platform: batching,
//! warm reuse, the Resource Multiplexer, and storage round-trips under
//! genuine concurrency.

use bytes::Bytes;
use faasbatch::core::platform::{FaasBatchPlatform, PlatformBuilder};
use faasbatch::metrics::events::EventKind;
use faasbatch::metrics::live::LiveTraceRecorder;
use faasbatch::storage::client::ClientConfig;
use faasbatch::storage::object_store::ObjectStore;
use faasbatch::trace::fib::fib;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

fn io_platform(multiplex: bool, store: ObjectStore) -> FaasBatchPlatform {
    PlatformBuilder::new()
        .window(Duration::from_millis(15))
        .multiplex(multiplex)
        .cold_start_delay(Duration::from_millis(2))
        .store(store)
        .register("writer", |env| {
            let client = env
                .container
                .storage_client(&ClientConfig::for_bucket("data"));
            let key = String::from_utf8_lossy(&env.payload).into_owned();
            client
                .put(&key, env.payload.clone())
                .expect("bucket exists");
        })
        .register("fib", |env| {
            let n = env.payload.first().copied().unwrap_or(20) as u32;
            std::hint::black_box(fib(n.clamp(10, 28)));
        })
        .start()
}

#[test]
fn concurrent_writers_all_persist() {
    let store = ObjectStore::new();
    store.create_bucket("data").unwrap();
    let platform = io_platform(true, store.clone());
    let tickets: Vec<_> = (0..40)
        .map(|i| {
            platform
                .invoke("writer", Bytes::from(format!("key-{i}")))
                .expect("registered")
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    platform.drain().unwrap();
    assert_eq!(store.object_count(), 40);
    for i in 0..40 {
        assert!(store.get("data", &format!("key-{i}")).is_ok());
    }
}

#[test]
fn multiplexer_reduces_client_creations_live() {
    let run = |multiplex: bool| -> u64 {
        let store = ObjectStore::new();
        store.create_bucket("data").unwrap();
        let platform = io_platform(multiplex, store);
        let tickets: Vec<_> = (0..30)
            .map(|i| {
                platform
                    .invoke("writer", Bytes::from(format!("k{i}")))
                    .expect("registered")
            })
            .collect();
        for t in tickets {
            t.wait();
        }
        platform.drain().unwrap();
        platform.stats().clients_created.load(Ordering::Relaxed)
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(without, 30, "baseline creates one client per invocation");
    assert!(
        with * 3 < without,
        "multiplexer should slash creations: {with} vs {without}"
    );
}

#[test]
fn mixed_functions_get_separate_containers() {
    let store = ObjectStore::new();
    store.create_bucket("data").unwrap();
    let platform = io_platform(true, store);
    let mut tickets = Vec::new();
    for i in 0..10 {
        tickets.push(
            platform
                .invoke("writer", Bytes::from(format!("w{i}")))
                .unwrap(),
        );
        tickets.push(platform.invoke("fib", Bytes::from_static(&[20])).unwrap());
    }
    for t in tickets {
        t.wait();
    }
    platform.drain().unwrap();
    let containers = platform.stats().containers_created.load(Ordering::Relaxed);
    assert!(
        containers >= 2,
        "two functions need at least two containers"
    );
    assert_eq!(platform.stats().invocations.load(Ordering::Relaxed), 20);
}

#[test]
fn sustained_load_reuses_warm_containers() {
    let store = ObjectStore::new();
    store.create_bucket("data").unwrap();
    let platform = io_platform(true, store);
    for round in 0..5 {
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                platform
                    .invoke("writer", Bytes::from(format!("r{round}-{i}")))
                    .expect("registered")
            })
            .collect();
        for t in tickets {
            t.wait();
        }
    }
    platform.drain().unwrap();
    let containers = platform.stats().containers_created.load(Ordering::Relaxed);
    assert!(
        containers <= 3,
        "5 sequential rounds should reuse containers, created {containers}"
    );
}

#[test]
fn handlers_run_on_many_threads_within_a_batch() {
    // Inline parallelism: a batch's invocations must observe distinct
    // threads (expansion, not serialization).
    let seen = Arc::new(thread_ids());
    let seen2 = seen.clone();
    let platform = PlatformBuilder::new()
        .window(Duration::from_millis(25))
        .register("spy", move |_env| {
            seen2.record();
            std::thread::sleep(Duration::from_millis(5));
        })
        .start();
    let tickets: Vec<_> = (0..12)
        .map(|_| platform.invoke("spy", Bytes::new()).unwrap())
        .collect();
    for t in tickets {
        t.wait();
    }
    assert!(
        seen.distinct() >= 4,
        "expected parallel expansion, saw {} distinct threads",
        seen.distinct()
    );
}

#[test]
fn large_burst_runs_on_executor_workers_without_thread_per_job() {
    // A burst far wider than any sane thread-per-invocation pool: all of it
    // must multiplex onto the fixed executor pool. Handler threads must be
    // executor workers (named "faasbatch-exec-*"), never per-job threads.
    use faasbatch::exec::{Executor, ExecutorConfig};

    const JOBS: usize = 500;
    let exec = Executor::new(ExecutorConfig {
        workers: 8,
        seed: 7,
        ..ExecutorConfig::default()
    });
    let seen = Arc::new(thread_ids());
    let seen2 = seen.clone();
    let on_exec_worker = Arc::new(AtomicUsize::new(0));
    let on_exec2 = on_exec_worker.clone();
    let recorder = LiveTraceRecorder::new();
    let platform = PlatformBuilder::new()
        .window(Duration::from_millis(20))
        .cold_start_delay(Duration::from_millis(1))
        .executor(Arc::clone(&exec))
        .trace(recorder.clone())
        .register("spy", move |_env| {
            seen2.record();
            if std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("faasbatch-exec-"))
            {
                on_exec2.fetch_add(1, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(1));
        })
        .start();
    let tickets: Vec<_> = (0..JOBS)
        .map(|_| platform.invoke("spy", Bytes::new()).unwrap())
        .collect();
    let mut panicked = 0;
    for t in tickets {
        if t.wait().panicked {
            panicked += 1;
        }
    }
    platform.drain().unwrap();
    let batches = platform.stats().batches.load(Ordering::Relaxed);
    drop(platform);
    assert_eq!(panicked, 0);
    assert_eq!(seen.total(), JOBS);
    assert_eq!(
        on_exec_worker.load(Ordering::SeqCst),
        JOBS,
        "every handler must run on an executor worker thread"
    );
    assert!(
        seen.distinct() <= 8,
        "no thread-per-job: {} distinct handler threads for {JOBS} jobs",
        seen.distinct()
    );
    assert!(seen.distinct() >= 2, "the pool must actually parallelize");
    // The batch epilogue releases `drain` from inside the last member's
    // task, just before the executor counts that task finished.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while exec.metrics().in_flight > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let metrics = exec.metrics();
    // One task per run: at least one per batch, at most one per worker.
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
        batches <= metrics.spawned_total && metrics.spawned_total <= most,
        "{batches} <= {} <= {most}",
        metrics.spawned_total
    );
    assert_eq!(metrics.in_flight, 0, "all work drained");
    exec.shutdown();
}

struct ThreadIds {
    ids: Mutex<HashSet<ThreadId>>,
    count: AtomicUsize,
}

fn thread_ids() -> ThreadIds {
    ThreadIds {
        ids: Mutex::new(HashSet::new()),
        count: AtomicUsize::new(0),
    }
}

impl ThreadIds {
    fn lock(&self) -> MutexGuard<'_, HashSet<ThreadId>> {
        self.ids.lock().unwrap_or_else(PoisonError::into_inner)
    }
    fn record(&self) {
        self.lock().insert(std::thread::current().id());
        self.count.fetch_add(1, Ordering::SeqCst);
    }
    fn distinct(&self) -> usize {
        self.lock().len()
    }
    fn total(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }
}
