//! The sharded gateway: front door, shard dispatchers, and stats.

use bytes::Bytes;
use faasbatch_container::ids::FunctionId;
use faasbatch_core::platform::{
    DispatchCore, FunctionTable, InvocationEnv, InvokeTicket, PlatformBuilder, PlatformIds,
    PlatformStats, RemoteJob,
};
use faasbatch_core::routing::{stable_hash, Router, RoutingKind};
use faasbatch_core::window::{PushError, WindowQueue};
use faasbatch_exec::Executor;
use faasbatch_metrics::events::EventKind;
use faasbatch_metrics::live::LiveTraceRecorder;
use faasbatch_metrics::telemetry::{Histogram, MetricRegistry};
use faasbatch_simcore::time::SimDuration;
use faasbatch_storage::object_store::ObjectStore;
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-invocation cost the router charges its load estimator: the gateway
/// cannot see real handler durations.
const ASSUMED_WORK: SimDuration = SimDuration::from_millis(1);

/// Gateway submission failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The function name is not registered.
    UnknownFunction(String),
    /// Admission control refused the invocation: its shard's ingress queue
    /// already holds `depth` jobs this window (back-pressure, not a panic).
    Rejected {
        /// The saturated shard.
        shard: u64,
        /// Queue depth observed at the refusal.
        depth: usize,
    },
    /// The gateway is shutting down.
    ShuttingDown,
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::UnknownFunction(name) => write!(f, "unknown function: {name}"),
            GatewayError::Rejected { shard, depth } => write!(
                f,
                "shard {shard} rejected the invocation: ingress queue saturated at depth {depth}"
            ),
            GatewayError::ShuttingDown => write!(f, "gateway is shutting down"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Monotonic per-shard counters.
#[derive(Debug, Default)]
struct ShardCounters {
    enqueued: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    routed_groups: AtomicU64,
}

/// Live counters shared by the front door and the shard dispatchers.
///
/// In flight is admitted minus completed: `entered` counts admissions, and
/// completions are the workers' own [`PlatformStats::invocations`], bumped
/// once per finished batch, so a group needs no callback into the gateway.
#[derive(Debug)]
struct GatewayStats {
    shards: Vec<ShardCounters>,
    /// Invocations ever admitted ([`GatewayStats::enter`]).
    entered: AtomicUsize,
    peak_in_flight: AtomicUsize,
    cores: Arc<Vec<DispatchCore>>,
}

impl GatewayStats {
    fn new(shards: usize, cores: Arc<Vec<DispatchCore>>) -> GatewayStats {
        GatewayStats {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            entered: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
            cores,
        }
    }

    /// Invocations completed on every worker. `Acquire` pairs with the
    /// `Release` bump at the end of a batch, so an admission count read
    /// after this one includes every member it counts.
    fn completed(&self) -> usize {
        self.cores
            .iter()
            .map(|core| core.stats().invocations.load(Ordering::Acquire) as usize)
            .sum()
    }

    /// Invocations admitted but not yet completed. Completions are read
    /// first, so the difference cannot go below zero.
    fn in_flight(&self) -> usize {
        let completed = self.completed();
        self.entered.load(Ordering::Relaxed) - completed
    }

    /// One invocation admitted to `shard`'s queue: it is now in flight
    /// until its group completes on a worker. Runs under the queue lock,
    /// before the job is visible to the shard ([`Gateway::invoke`]).
    fn enter(&self, shard: usize) {
        self.shards[shard].enqueued.fetch_add(1, Ordering::Relaxed);
        let completed = self.completed();
        let now = self.entered.fetch_add(1, Ordering::Relaxed) + 1 - completed;
        // A plain load first: once the peak is reached, most admissions
        // are below it and skip the read-modify-write.
        if now > self.peak_in_flight.load(Ordering::Relaxed) {
            self.peak_in_flight.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn reject(&self, shard: usize) {
        self.shards[shard].rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn admit(&self, shard: usize) {
        self.shards[shard].admitted.fetch_add(1, Ordering::Relaxed);
    }

    fn routed(&self, shard: usize) {
        self.shards[shard]
            .routed_groups
            .fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> GatewaySnapshot {
        GatewaySnapshot {
            shards: self
                .shards
                .iter()
                .map(|s| ShardSnapshot {
                    enqueued: s.enqueued.load(Ordering::Relaxed),
                    admitted: s.admitted.load(Ordering::Relaxed),
                    rejected: s.rejected.load(Ordering::Relaxed),
                    routed_groups: s.routed_groups.load(Ordering::Relaxed),
                })
                .collect(),
            in_flight: self.in_flight(),
            peak_in_flight: self.peak_in_flight.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counters of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardSnapshot {
    /// Invocations admitted to the ingress queue.
    pub enqueued: u64,
    /// Invocations pulled by the shard dispatcher (≤ `enqueued`).
    pub admitted: u64,
    /// Invocations refused by admission control.
    pub rejected: u64,
    /// Window groups routed to workers.
    pub routed_groups: u64,
}

/// Point-in-time view of the whole gateway ([`Gateway::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GatewaySnapshot {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
    /// Invocations admitted but not yet completed.
    pub in_flight: usize,
    /// High-water mark of `in_flight` over the gateway's lifetime.
    pub peak_in_flight: usize,
}

/// Configures and starts a [`Gateway`].
pub struct GatewayBuilder {
    workers: usize,
    shards: usize,
    shard_depth: usize,
    window: Duration,
    policy: RoutingKind,
    recorder: Option<LiveTraceRecorder>,
    registry: Option<MetricRegistry>,
    /// Everything about the workers: start delays, multiplexer, executor,
    /// store and the registered functions.
    cores: PlatformBuilder,
}

impl fmt::Debug for GatewayBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayBuilder")
            .field("workers", &self.workers)
            .field("shards", &self.shards)
            .field("shard_depth", &self.shard_depth)
            .field("window", &self.window)
            .field("policy", &self.policy)
            .field("cores", &self.cores)
            .finish()
    }
}

impl Default for GatewayBuilder {
    fn default() -> Self {
        GatewayBuilder::new()
    }
}

impl GatewayBuilder {
    /// Starts a builder with the defaults: 8 workers, 4 shards, 65 536-deep
    /// shards, the paper's 200 ms window, least-loaded routing.
    pub fn new() -> GatewayBuilder {
        GatewayBuilder {
            workers: 8,
            shards: 4,
            shard_depth: 65_536,
            window: Duration::from_millis(200),
            policy: RoutingKind::LeastLoaded,
            recorder: None,
            registry: None,
            cores: PlatformBuilder::new(),
        }
    }

    /// Number of live workers (min 1).
    pub fn workers(mut self, workers: usize) -> GatewayBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Number of ingress shards (min 1).
    pub fn shards(mut self, shards: usize) -> GatewayBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Admission bound: jobs one shard may hold per window before it
    /// rejects ([`GatewayError::Rejected`]).
    pub fn shard_depth(mut self, depth: usize) -> GatewayBuilder {
        self.shard_depth = depth.max(1);
        self
    }

    /// Dispatch window each shard accumulates before routing.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero: the shard loops would busy-poll their
    /// queues instead of sleeping out a window.
    pub fn window(mut self, window: Duration) -> GatewayBuilder {
        assert!(!window.is_zero(), "dispatch window must be positive");
        self.window = window;
        self
    }

    /// Routing policy placing window groups on workers. The shards share
    /// one instance ([`Router`]): one cursor, one set of load estimates.
    pub fn policy(mut self, policy: RoutingKind) -> GatewayBuilder {
        self.policy = policy;
        self
    }

    /// Cold-start delay of the workers.
    pub fn cold_start_delay(mut self, delay: Duration) -> GatewayBuilder {
        self.cores = self.cores.cold_start_delay(delay);
        self
    }

    /// Enables or disables the workers' Resource Multiplexer.
    pub fn multiplex(mut self, on: bool) -> GatewayBuilder {
        self.cores = self.cores.multiplex(on);
        self
    }

    /// Warm-pool keep-alive TTL on the workers.
    pub fn keep_alive(mut self, ttl: Duration) -> GatewayBuilder {
        self.cores = self.cores.keep_alive(ttl);
        self
    }

    /// Runs every worker on one specific executor (default: the shared
    /// process-wide pool).
    pub fn executor(mut self, executor: Arc<Executor>) -> GatewayBuilder {
        self.cores = self.cores.executor(executor);
        self
    }

    /// Attaches a wall-clock trace recorder shared by the front door and
    /// all workers; gateway runs then emit the full audited event stream
    /// (arrival → enqueue → admit → route → dispatch → … → completion).
    pub fn trace(mut self, recorder: LiveTraceRecorder) -> GatewayBuilder {
        self.cores = self.cores.trace(recorder.clone());
        self.recorder = Some(recorder);
        self
    }

    /// Attaches live metrics (DESIGN.md §18): per-shard admission counters
    /// and ingress-depth gauges, the in-flight gauge, a route-latency
    /// histogram, and one `faasbatch_platform_*` family set summed over
    /// every worker ([`PlatformBuilder::telemetry`]) — all registered on
    /// `registry`.
    pub fn telemetry(mut self, registry: &MetricRegistry) -> GatewayBuilder {
        self.registry = Some(registry.clone());
        self
    }

    /// Object store shared by every worker's containers.
    pub fn store(mut self, store: ObjectStore) -> GatewayBuilder {
        self.cores = self.cores.store(store);
        self
    }

    /// Registers a function body under `name` on every worker.
    pub fn register(
        mut self,
        name: &str,
        handler: impl Fn(&InvocationEnv<'_>) + Send + Sync + 'static,
    ) -> GatewayBuilder {
        self.cores = self.cores.register(name, handler);
        self
    }

    /// Starts the workers and the shard threads.
    pub fn start(self) -> Gateway {
        let ids = Arc::new(PlatformIds::new());
        let mut cores = self.cores.ids(Arc::clone(&ids));
        if let Some(registry) = &self.registry {
            cores = cores.telemetry(registry);
        }
        let cores = Arc::new(DispatchCore::fleet(cores, self.workers));
        let table = Arc::clone(cores[0].functions());
        let stats = Arc::new(GatewayStats::new(self.shards, Arc::clone(&cores)));
        let router = Arc::new(Mutex::new(Router::new(self.policy.build(), self.workers)));
        let queues: Vec<Arc<WindowQueue>> = (0..self.shards)
            .map(|_| Arc::new(WindowQueue::new(self.shard_depth)))
            .collect();
        let route_latency = self
            .registry
            .as_ref()
            .map(|registry| register_gateway(registry, &stats, &queues));
        let mut shard_threads = Vec::with_capacity(self.shards);
        for (shard, queue) in queues.iter().enumerate() {
            let dispatcher = ShardDispatcher {
                shard: shard as u64,
                queue: Arc::clone(queue),
                window: self.window,
                cores: Arc::clone(&cores),
                router: Arc::clone(&router),
                stats: Arc::clone(&stats),
                recorder: self.recorder.clone(),
                route_latency: route_latency.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("faasbatch-gateway-shard-{shard}"))
                .spawn(move || dispatcher.run())
                .expect("spawn gateway shard dispatcher");
            shard_threads.push(handle);
        }
        Gateway {
            queues,
            shard_threads,
            cores,
            table,
            ids,
            recorder: self.recorder,
            stats,
        }
    }
}

/// Registers the gateway's metric families on `registry` (polled from the
/// existing [`GatewayStats`] atomics and [`WindowQueue`] depths, so the
/// ingress hot path records nothing extra) and returns the route-latency
/// histogram the shard dispatchers feed.
fn register_gateway(
    registry: &MetricRegistry,
    stats: &Arc<GatewayStats>,
    queues: &[Arc<WindowQueue>],
) -> Histogram {
    let s = Arc::clone(stats);
    registry.gauge_fn(
        "faasbatch_gateway_in_flight",
        "Invocations admitted and not yet completed on a worker.",
        move || s.in_flight() as i64,
    );
    let s = Arc::clone(stats);
    registry.gauge_fn(
        "faasbatch_gateway_peak_in_flight",
        "High-water mark of admitted-but-incomplete invocations.",
        move || s.peak_in_flight.load(Ordering::Relaxed) as i64,
    );
    for (shard, queue) in queues.iter().enumerate() {
        let label = shard.to_string();
        let s = Arc::clone(stats);
        registry.counter_fn_with(
            "faasbatch_gateway_enqueued_total",
            "Invocations admitted to each shard's ingress queue.",
            &[("shard", &label)],
            move || s.shards[shard].enqueued.load(Ordering::Relaxed),
        );
        let s = Arc::clone(stats);
        registry.counter_fn_with(
            "faasbatch_gateway_admitted_total",
            "Invocations pulled by each shard's dispatcher.",
            &[("shard", &label)],
            move || s.shards[shard].admitted.load(Ordering::Relaxed),
        );
        let s = Arc::clone(stats);
        registry.counter_fn_with(
            "faasbatch_gateway_rejects_total",
            "Invocations refused by each shard's admission control.",
            &[("shard", &label)],
            move || s.shards[shard].rejected.load(Ordering::Relaxed),
        );
        let s = Arc::clone(stats);
        registry.counter_fn_with(
            "faasbatch_gateway_routed_groups_total",
            "Window groups routed to workers by each shard.",
            &[("shard", &label)],
            move || s.shards[shard].routed_groups.load(Ordering::Relaxed),
        );
        let queue = Arc::clone(queue);
        registry.gauge_fn_with(
            "faasbatch_gateway_shard_depth",
            "Jobs waiting in each shard's ingress queue this window.",
            &[("shard", &label)],
            move || queue.waiting() as i64,
        );
    }
    registry.histogram(
        "faasbatch_gateway_route_latency_us",
        "Per window-group latency from queue drain to worker submission, microseconds.",
    )
}

/// Per-shard routing loop (one thread per shard).
struct ShardDispatcher {
    shard: u64,
    queue: Arc<WindowQueue>,
    window: Duration,
    cores: Arc<Vec<DispatchCore>>,
    router: Arc<Mutex<Router>>,
    stats: Arc<GatewayStats>,
    recorder: Option<LiveTraceRecorder>,
    route_latency: Option<Histogram>,
}

impl ShardDispatcher {
    fn run(self) {
        let alive = vec![true; self.cores.len()];
        // Per worker, the groups of the window being routed; each buffer is
        // drained by its core and kept for the next window.
        let mut shares: Vec<Vec<(usize, Vec<RemoteJob>)>> =
            (0..self.cores.len()).map(|_| Vec::new()).collect();
        self.queue.run(
            self.window,
            |job| {
                if let Some(recorder) = &self.recorder {
                    recorder.record(EventKind::GatewayAdmit {
                        invocation: job.invocation(),
                        shard: self.shard,
                    });
                }
                self.stats.admit(self.shard as usize);
            },
            |groups| {
                // The clock is read only for an attached histogram.
                let drained = self
                    .route_latency
                    .as_ref()
                    .map(|hist| (hist, Instant::now()));
                for (function, members) in groups.drain(..) {
                    // Every core of the fleet reads one clock; any of them
                    // has it.
                    let now = self.cores[0].now();
                    let worker = self.router.lock().expect("router lock poisoned").place(
                        now,
                        FunctionId::new(function as u32),
                        &alive,
                        std::iter::repeat_n(ASSUMED_WORK, members.len()),
                    );
                    if let Some(recorder) = &self.recorder {
                        recorder.record(EventKind::GatewayRoute {
                            function: FunctionId::new(function as u32),
                            shard: self.shard,
                            worker: worker as u64,
                            members: members.iter().map(RemoteJob::invocation).collect(),
                        });
                    }
                    self.stats.routed(self.shard as usize);
                    shares[worker].push((function, members));
                }
                // Each worker gets its share of the window in one call.
                for (core, share) in self.cores.iter().zip(&mut shares) {
                    if share.is_empty() {
                        continue;
                    }
                    let routed = share.len();
                    core.dispatch_window(share);
                    if let Some((hist, drained)) = drained {
                        let latency = drained.elapsed().as_micros() as u64;
                        for _ in 0..routed {
                            hist.record(latency);
                        }
                    }
                }
            },
        );
    }
}

/// A live sharded front door over N worker [`DispatchCore`]s.
///
/// Ingress is sharded by function-id hash; each shard accumulates one
/// dispatch window, groups requests per function, and routes each group
/// **as a unit** to one worker via a [`RoutingKind`] policy. See the crate
/// docs for the full pipeline.
pub struct Gateway {
    queues: Vec<Arc<WindowQueue>>,
    shard_threads: Vec<JoinHandle<()>>,
    cores: Arc<Vec<DispatchCore>>,
    table: Arc<FunctionTable>,
    ids: Arc<PlatformIds>,
    recorder: Option<LiveTraceRecorder>,
    stats: Arc<GatewayStats>,
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("shards", &self.queues.len())
            .field("workers", &self.cores.len())
            .field("functions", &self.table.names().len())
            .finish()
    }
}

impl Gateway {
    /// Starts configuring a gateway.
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder::new()
    }

    /// Submits an invocation of `function` with `payload`.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownFunction`] if the name is not registered;
    /// [`GatewayError::Rejected`] when the function's shard is saturated
    /// (back-pressure — retry after a window); [`GatewayError::ShuttingDown`]
    /// during teardown.
    pub fn invoke(&self, function: &str, payload: Bytes) -> Result<InvokeTicket, GatewayError> {
        let idx = self
            .table
            .index_of(function)
            .ok_or_else(|| GatewayError::UnknownFunction(function.to_owned()))?;
        let shard = self.shard_of_index(idx);
        let invocation = self.ids.next_invocation();
        if let Some(recorder) = &self.recorder {
            recorder.record(EventKind::Arrival {
                invocation,
                function: FunctionId::new(idx as u32),
            });
        }
        let (job, ticket) = RemoteJob::new(invocation, payload);
        // Counted in flight before the job is visible: once it is, the shard
        // thread may dispatch it and its group finish before `try_push_job`
        // even returns.
        let pushed = self.queues[shard as usize].try_push_job(idx, job, || {
            if let Some(recorder) = &self.recorder {
                recorder.record(EventKind::GatewayEnqueue { invocation, shard });
            }
            self.stats.enter(shard as usize);
        });
        match pushed {
            Ok(()) => Ok(ticket),
            Err(PushError::Full { depth }) => {
                if let Some(recorder) = &self.recorder {
                    recorder.record(EventKind::GatewayReject {
                        invocation,
                        shard,
                        depth: depth as u64,
                    });
                }
                self.stats.reject(shard as usize);
                Err(GatewayError::Rejected { shard, depth })
            }
            Err(PushError::Closed) => Err(GatewayError::ShuttingDown),
        }
    }

    /// The shard `function` hashes to, or `None` if unregistered.
    /// Deterministic across runs, builds, and machines ([`stable_hash`]).
    pub fn shard_of(&self, function: &str) -> Option<u64> {
        self.table
            .index_of(function)
            .map(|idx| self.shard_of_index(idx))
    }

    fn shard_of_index(&self, idx: usize) -> u64 {
        stable_hash(idx as u64) % self.queues.len() as u64
    }

    /// Number of ingress shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.cores.len()
    }

    /// Registered function names, in registration order.
    pub fn functions(&self) -> &[String] {
        self.table.names()
    }

    /// Point-in-time counters (per-shard admissions, in-flight, peak).
    pub fn stats(&self) -> GatewaySnapshot {
        self.stats.snapshot()
    }

    /// Invocations admitted but not yet completed, right now.
    pub fn in_flight(&self) -> usize {
        self.stats.in_flight()
    }

    /// High-water mark of [`Gateway::in_flight`].
    pub fn peak_in_flight(&self) -> usize {
        self.stats.peak_in_flight.load(Ordering::Relaxed)
    }

    /// Aggregate counters of each worker, indexed by worker.
    pub fn worker_stats(&self) -> Vec<&PlatformStats> {
        self.cores.iter().map(DispatchCore::stats).collect()
    }

    /// Blocks until every invocation admitted so far has completed: flushes
    /// each shard (everything queued is routed and dispatched), then waits
    /// for each worker's groups.
    ///
    /// # Errors
    ///
    /// [`GatewayError::ShuttingDown`] if the gateway is tearing down.
    pub fn drain(&self) -> Result<(), GatewayError> {
        let acks: Vec<_> = self.queues.iter().map(|queue| queue.flush()).collect();
        for done in acks {
            done.recv().map_err(|_| GatewayError::ShuttingDown)?;
        }
        for core in self.cores.iter() {
            core.wait_idle();
        }
        Ok(())
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // Shard threads exit after a final drain-and-route pass, so
        // everything admitted still reaches a worker; then the cores' groups
        // are waited for here, since a metric registry may keep the cores
        // themselves alive past the gateway.
        for queue in &self.queues {
            queue.close();
        }
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
        for core in self.cores.iter() {
            core.wait_idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_metrics::events::{AuditorSink, TraceSink};

    fn tiny_gateway(policy: RoutingKind) -> Gateway {
        Gateway::builder()
            .workers(2)
            .shards(2)
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::ZERO)
            .policy(policy)
            .register("alpha", |_env| {})
            .register("beta", |_env| {})
            .start()
    }

    #[test]
    #[should_panic(expected = "dispatch window must be positive")]
    fn zero_window_is_rejected_at_the_builder() {
        let _ = Gateway::builder().window(Duration::ZERO);
    }

    #[test]
    fn invokes_complete_through_every_policy() {
        for kind in RoutingKind::ALL {
            let gateway = tiny_gateway(kind);
            let tickets: Vec<_> = (0..16)
                .map(|i| {
                    let name = if i % 2 == 0 { "alpha" } else { "beta" };
                    gateway.invoke(name, Bytes::from_static(b"x")).unwrap()
                })
                .collect();
            gateway.drain().unwrap();
            for ticket in tickets {
                ticket.wait();
            }
            let snap = gateway.stats();
            assert_eq!(snap.in_flight, 0, "{kind:?}");
            assert!(snap.peak_in_flight >= 1, "{kind:?}");
            let admitted: u64 = snap.shards.iter().map(|s| s.admitted).sum();
            assert_eq!(admitted, 16, "{kind:?}");
        }
    }

    #[test]
    fn unknown_function_is_typed() {
        let gateway = tiny_gateway(RoutingKind::RoundRobin);
        let err = gateway.invoke("nope", Bytes::new()).unwrap_err();
        assert_eq!(err, GatewayError::UnknownFunction("nope".to_owned()));
    }

    #[test]
    fn two_thousand_names_resolve_through_the_shared_table() {
        let mut builder = Gateway::builder()
            .workers(3)
            .shards(2)
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::ZERO);
        for f in 0..2_048 {
            builder = builder.register(&format!("fn-{f}"), |_env| {});
        }
        let gateway = builder.start();
        assert_eq!(gateway.functions().len(), 2_048);
        let tickets: Vec<_> = [0, 1_024, 2_047]
            .iter()
            .map(|f| gateway.invoke(&format!("fn-{f}"), Bytes::new()).unwrap())
            .collect();
        gateway.drain().unwrap();
        for ticket in tickets {
            assert!(!ticket.wait().panicked);
        }
        assert_eq!(gateway.shard_of("fn-2047"), Some(stable_hash(2_047) % 2));
        assert_eq!(
            gateway.invoke("fn-2048", Bytes::new()).unwrap_err(),
            GatewayError::UnknownFunction("fn-2048".to_owned())
        );
    }

    /// W workers and S shards run S threads: the workers are thread-less
    /// cores. Nothing in this test binary starts a `FaasBatchPlatform`, so
    /// a window (or, before, a dispatcher) thread anywhere in the process
    /// could only be a per-worker one.
    #[cfg(target_os = "linux")]
    #[test]
    fn workers_own_no_threads() {
        let gateway = Gateway::builder()
            .workers(3)
            .shards(2)
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::ZERO)
            .register("f", |_env| {})
            .start();
        gateway.invoke("f", Bytes::new()).unwrap().wait();
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .collect();
        // `comm` holds the first 15 bytes of the thread name.
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        assert!(count("faasbatch-gatew") >= 2, "shard threads: {names:?}");
        assert_eq!(count("faasbatch-windo"), 0, "{names:?}");
        assert_eq!(count("faasbatch-dispa"), 0, "{names:?}");
    }

    #[test]
    fn saturation_rejects_with_depth_never_panics() {
        let gateway = Gateway::builder()
            .workers(1)
            .shards(1)
            .shard_depth(2)
            // Long window: the burst lands inside one accumulation phase.
            .window(Duration::from_secs(5))
            .cold_start_delay(Duration::ZERO)
            .register("f", |_env| {})
            .start();
        let t1 = gateway.invoke("f", Bytes::new()).unwrap();
        let t2 = gateway.invoke("f", Bytes::new()).unwrap();
        match gateway.invoke("f", Bytes::new()) {
            Err(GatewayError::Rejected { shard: 0, depth: 2 }) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        // Flush cuts the window; the two admitted invocations finish.
        gateway.drain().unwrap();
        t1.wait();
        t2.wait();
        let snap = gateway.stats();
        assert_eq!(snap.shards[0].rejected, 1);
        assert_eq!(snap.in_flight, 0);
    }

    /// A job is in flight from before a shard can see it: the group a shard
    /// drains the instant it is pushed may finish before `invoke` returns,
    /// and its completions must never outrun the admissions they are
    /// subtracted from. In a debug build an underflow panics (admitted minus
    /// completed, in `enter` or `in_flight`); in any build it leaves a
    /// wrapped peak.
    #[test]
    fn in_flight_never_underflows_under_one_member_groups() {
        const FUNCTIONS: usize = 1_000;
        const INVOCATIONS: usize = 20_000;
        let mut builder = Gateway::builder()
            .workers(1)
            .shards(1)
            .window(Duration::from_millis(1))
            .cold_start_delay(Duration::ZERO)
            .executor(Executor::new(faasbatch_exec::ExecutorConfig {
                workers: 1,
                ..faasbatch_exec::ExecutorConfig::default()
            }));
        let names: Vec<String> = (0..FUNCTIONS).map(|f| format!("f{f}")).collect();
        for name in &names {
            builder = builder.register(name, |_env| {});
        }
        let gateway = builder.start();
        // Round-robin over many functions: a window holds about one
        // invocation of each, and after the first pass every group is warm,
        // so it runs the moment its shard dispatches it.
        for name in names.iter().cycle().take(INVOCATIONS) {
            let _ticket = gateway.invoke(name, Bytes::new()).unwrap();
        }
        gateway.drain().unwrap();
        let snap = gateway.stats();
        assert_eq!(snap.in_flight, 0);
        assert!(
            snap.peak_in_flight <= INVOCATIONS,
            "peak {}",
            snap.peak_in_flight
        );
        let admitted: u64 = snap.shards.iter().map(|s| s.admitted).sum();
        assert_eq!(admitted, INVOCATIONS as u64);
    }

    /// In flight is admitted minus what the workers completed: exact while a
    /// long window holds the jobs, zero once `drain` returns, and the peak,
    /// the snapshot and the gauge all read that one count.
    #[test]
    fn in_flight_is_admitted_minus_completed() {
        let registry = MetricRegistry::default();
        let gateway = Gateway::builder()
            .workers(1)
            .shards(1)
            .window(Duration::from_secs(5))
            .cold_start_delay(Duration::ZERO)
            .telemetry(&registry)
            .register("f", |_env| {})
            .start();
        let gauge = |n: usize| {
            let json = registry.render_json();
            let entry = format!(
                "\"name\":\"faasbatch_gateway_in_flight\",\"labels\":{{}},\"type\":\"gauge\",\"value\":{n}"
            );
            assert!(json.contains(&entry), "gauge is not {n}: {json}");
        };
        let invoke = |count: usize| {
            for _ in 0..count {
                gateway.invoke("f", Bytes::new()).unwrap();
            }
        };
        invoke(3);
        assert_eq!((gateway.in_flight(), gateway.peak_in_flight()), (3, 3));
        assert_eq!(gateway.stats().in_flight, 3);
        gauge(3);
        gateway.drain().unwrap();
        assert_eq!(gateway.in_flight(), 0);
        gauge(0);
        invoke(2);
        assert_eq!((gateway.in_flight(), gateway.peak_in_flight()), (2, 3));
        gauge(2);
        gateway.drain().unwrap();
        assert_eq!((gateway.in_flight(), gateway.peak_in_flight()), (0, 3));
        gauge(0);
    }

    #[test]
    fn telemetry_exposes_shard_counters_and_route_latency() {
        let registry = MetricRegistry::default();
        let gateway = Gateway::builder()
            .workers(1)
            .shards(2)
            .shard_depth(1)
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::ZERO)
            .telemetry(&registry)
            .register("f", |_env| {})
            .start();
        let ok = gateway.invoke("f", Bytes::new()).unwrap();
        // Saturate the 1-deep shard so a reject lands before the window
        // drains; depth 1 is observed either way.
        let rejected = gateway.invoke("f", Bytes::new()).is_err();
        gateway.drain().unwrap();
        ok.wait();
        let text = registry.render_prometheus();
        assert!(text.contains("faasbatch_gateway_in_flight 0"));
        assert!(text.contains("faasbatch_gateway_enqueued_total{shard=\"0\"}"));
        assert!(text.contains("faasbatch_gateway_shard_depth{shard=\"1\"} 0"));
        // The pair of invokes usually lands in one window (one routed
        // group), but a window boundary between them may split it in two.
        assert!(text.contains("faasbatch_gateway_route_latency_us_count"));
        assert!(!text.contains("faasbatch_gateway_route_latency_us_count 0"));
        assert!(text.contains("faasbatch_platform_batches_total"));
        assert!(text.contains("faasbatch_platform_e2e_latency_us_count{function=\"0\"}"));
        if rejected {
            let snap = gateway.stats();
            assert_eq!(snap.shards.iter().map(|s| s.rejected).sum::<u64>(), 1);
            assert!(text.contains("faasbatch_gateway_rejects_total"));
        }
    }

    /// One window of six functions on one shard and two round-robin
    /// workers: each worker receives its share, three one-member batches,
    /// and the route-latency histogram still holds one value per group.
    #[test]
    fn a_window_is_shared_out_per_worker_and_timed_per_group() {
        let registry = MetricRegistry::default();
        let mut builder = Gateway::builder()
            .workers(2)
            .shards(1)
            .window(Duration::from_secs(3600))
            .cold_start_delay(Duration::ZERO)
            .policy(RoutingKind::RoundRobin)
            .telemetry(&registry);
        for f in 0..6 {
            builder = builder.register(&format!("f{f}"), |_env| {});
        }
        let gateway = builder.start();
        let tickets: Vec<_> = (0..6)
            .map(|f| gateway.invoke(&format!("f{f}"), Bytes::new()).unwrap())
            .collect();
        gateway.drain().unwrap();
        for ticket in tickets {
            assert!(!ticket.wait().panicked);
        }
        let batches: Vec<u64> = gateway
            .worker_stats()
            .iter()
            .map(|s| s.batches.load(Ordering::Relaxed))
            .collect();
        assert_eq!(batches, [3, 3]);
        assert_eq!(gateway.stats().shards[0].routed_groups, 6);
        let text = registry.render_prometheus();
        assert!(
            text.contains("faasbatch_gateway_route_latency_us_count 6"),
            "{text}"
        );
    }

    #[test]
    fn sharding_is_deterministic_and_rejection_passes_audit() {
        let recorder = LiveTraceRecorder::new();
        let gateway = Gateway::builder()
            .workers(1)
            .shards(3)
            .shard_depth(1)
            .window(Duration::from_secs(5))
            .cold_start_delay(Duration::ZERO)
            .trace(recorder.clone())
            .register("f", |_env| {})
            .register("g", |_env| {})
            .start();
        assert_eq!(gateway.shard_of("f"), Some(stable_hash(0) % 3));
        assert_eq!(gateway.shard_of("g"), Some(stable_hash(1) % 3));
        assert_eq!(gateway.shard_of("h"), None);
        let ok = gateway.invoke("f", Bytes::new()).unwrap();
        assert!(matches!(
            gateway.invoke("f", Bytes::new()),
            Err(GatewayError::Rejected { depth: 1, .. })
        ));
        gateway.drain().unwrap();
        ok.wait();
        drop(gateway);
        let mut auditor = AuditorSink::new();
        for event in recorder.take_trace() {
            auditor.record(&event);
        }
        let violations = auditor.finish().to_vec();
        assert!(violations.is_empty(), "{violations:?}");
    }
}
