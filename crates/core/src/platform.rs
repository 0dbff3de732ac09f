//! A live (real-clock) FaaSBatch platform.
//!
//! This is the runnable counterpart of the simulated policy: a front door
//! that accepts invocations, a dispatcher that batches them per function
//! across a wall-clock window (Invoke Mapper), warm container reuse, group
//! expansion on the shared work-stealing executor (Inline-Parallel
//! Producer), and a per-container [`ResourceMultiplexer`] for storage
//! clients. The examples and the motivation benchmarks (Fig. 1/4/5) run on
//! this.
//!
//! Each dispatched batch becomes one executor **task group**
//! ([`faasbatch_exec::GroupJob`]s behind a completion barrier), so one
//! process multiplexes every in-flight batch over a fixed worker pool
//! instead of spawning a thread per invocation; cold-start delays and
//! warm-pool keep-alive eviction ride the executor's timer wheel rather
//! than sleeping threads.
//!
//! With a [`LiveTraceRecorder`] attached ([`PlatformBuilder::trace`]), every
//! run emits the same typed [`SimEvent`] stream as the simulator — arrivals,
//! dispatch decisions, cold-start spans, container state changes, exec
//! spans, completions — so the auditor and `faasbatch trace --analyze` work
//! on live runs (DESIGN.md §14).

use crate::multiplexer::{mux_trace_events, MultiplexerStats, ResourceMultiplexer};
use crate::telemetry::PlatformTelemetry;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use faasbatch_container::container::ContainerState;
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_exec::{global_executor, Executor, GroupJob, GroupReport};
use faasbatch_metrics::events::{EventKind, SimEvent, TaskKind};
use faasbatch_metrics::live::LiveTraceRecorder;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_storage::client::{ClientConfig, StorageClient, StorageSdk};
use faasbatch_storage::object_store::ObjectStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors returned by the live platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The invoked function name is not registered.
    UnknownFunction(String),
    /// The platform is shutting down and cannot accept work.
    ShuttingDown,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownFunction(name) => write!(f, "unknown function: {name}"),
            PlatformError::ShuttingDown => write!(f, "platform is shutting down"),
        }
    }
}

impl std::error::Error for PlatformError {}

/// Per-invocation outcome reported back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeOutcome {
    /// Time spent waiting for the dispatch window and a container.
    pub queued: Duration,
    /// Time the handler body ran.
    pub execution: Duration,
    /// Whether this batch had to create a fresh container via a full cold
    /// boot.
    pub cold: bool,
    /// Whether this batch's container was restored from a captured
    /// snapshot template instead of booting cold (mutually exclusive with
    /// `cold`; see [`PlatformBuilder::snapshots`]).
    pub restored: bool,
    /// Whether the handler panicked (the platform contains the panic; the
    /// rest of the batch and the container survive).
    pub panicked: bool,
}

impl InvokeOutcome {
    /// Queued + execution.
    pub fn total(&self) -> Duration {
        self.queued + self.execution
    }
}

/// Aggregate view over a set of live outcomes (one burst, one benchmark
/// run, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeSummary {
    /// Outcomes aggregated.
    pub count: usize,
    /// Cold invocations.
    pub cold: usize,
    /// Snapshot-restored invocations.
    pub restored: usize,
    /// Panicked invocations.
    pub panicked: usize,
    /// Mean queued time.
    pub mean_queued: Duration,
    /// Mean execution time.
    pub mean_execution: Duration,
    /// Worst end-to-end time.
    pub max_total: Duration,
}

impl OutcomeSummary {
    /// Summarises `outcomes` (all zeroes when empty).
    pub fn from_outcomes(outcomes: &[InvokeOutcome]) -> OutcomeSummary {
        if outcomes.is_empty() {
            return OutcomeSummary::default();
        }
        let n = outcomes.len() as u32;
        OutcomeSummary {
            count: outcomes.len(),
            cold: outcomes.iter().filter(|o| o.cold).count(),
            restored: outcomes.iter().filter(|o| o.restored).count(),
            panicked: outcomes.iter().filter(|o| o.panicked).count(),
            mean_queued: outcomes.iter().map(|o| o.queued).sum::<Duration>() / n,
            mean_execution: outcomes.iter().map(|o| o.execution).sum::<Duration>() / n,
            max_total: outcomes
                .iter()
                .map(InvokeOutcome::total)
                .max()
                .unwrap_or_default(),
        }
    }
}

/// Handle to a pending invocation.
#[derive(Debug)]
pub struct InvokeTicket {
    rx: Receiver<InvokeOutcome>,
}

impl InvokeTicket {
    /// Blocks until the invocation completes.
    ///
    /// # Panics
    ///
    /// Panics if the platform was torn down before the invocation ran
    /// (cannot happen through the public API, which drains on shutdown).
    pub fn wait(self) -> InvokeOutcome {
        self.rx.recv().expect("invocation dropped by platform")
    }
}

/// The services visible to a handler inside its container.
pub struct ContainerEnv {
    id: u64,
    multiplexer: ResourceMultiplexer<StorageClient>,
    sdk: StorageSdk,
    multiplex: bool,
}

impl fmt::Debug for ContainerEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContainerEnv")
            .field("id", &self.id)
            .finish()
    }
}

impl ContainerEnv {
    /// This container's id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Obtains a storage client for `config` — through the Resource
    /// Multiplexer when it is enabled (one creation per distinct config per
    /// container), or by building a fresh client every time (the baseline
    /// behaviour the paper measures in Fig. 4/5).
    pub fn storage_client(&self, config: &ClientConfig) -> Arc<StorageClient> {
        if self.multiplex {
            self.multiplexer
                .get_or_create(config, || self.sdk.connect(config))
        } else {
            Arc::new(self.sdk.connect(config))
        }
    }

    /// Hit/miss counters of this container's multiplexer.
    pub fn multiplexer_stats(&self) -> MultiplexerStats {
        self.multiplexer.stats()
    }

    /// Drains this container's multiplexer journal as typed trace events
    /// stamped at `at` — live containers run on the wall clock, so the
    /// caller chooses the simulated timestamp under which the history joins
    /// a [`SimEvent`] stream (DESIGN.md §11).
    pub fn take_mux_trace(&self, at: SimTime) -> Vec<SimEvent> {
        let events = self.multiplexer.take_events();
        mux_trace_events(ContainerId::new(self.id), at, &events)
    }
}

/// What a handler sees for one invocation.
pub struct InvocationEnv<'a> {
    /// Caller-supplied payload.
    pub payload: Bytes,
    /// The container's shared services.
    pub container: &'a ContainerEnv,
}

/// A registered function body.
pub type Handler = Arc<dyn Fn(&InvocationEnv<'_>) + Send + Sync>;

struct Request {
    invocation: InvocationId,
    function: usize,
    payload: Bytes,
    enqueued: Instant,
    reply: Sender<InvokeOutcome>,
}

/// Runs after a remotely submitted group fully completes, with the batch
/// size (see [`FaasBatchPlatform::submit_group`]).
pub type GroupDone = Box<dyn FnOnce(usize) + Send + 'static>;

/// One member of a pre-formed batch handed to
/// [`FaasBatchPlatform::submit_group`].
///
/// The caller (the gateway) mints the invocation id from a shared
/// [`PlatformIds`] and keeps the [`InvokeTicket`]; the job carries the reply
/// side. `queued` time in the eventual [`InvokeOutcome`] is measured from
/// the moment this job was created.
pub struct RemoteJob {
    invocation: InvocationId,
    payload: Bytes,
    enqueued: Instant,
    reply: Sender<InvokeOutcome>,
}

impl fmt::Debug for RemoteJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteJob")
            .field("invocation", &self.invocation)
            .finish()
    }
}

impl RemoteJob {
    /// Creates a job plus the ticket its caller waits on.
    pub fn new(invocation: InvocationId, payload: Bytes) -> (RemoteJob, InvokeTicket) {
        let (reply, rx) = channel::bounded(1);
        (
            RemoteJob {
                invocation,
                payload,
                enqueued: Instant::now(),
                reply,
            },
            InvokeTicket { rx },
        )
    }

    /// The invocation this job carries.
    pub fn invocation(&self) -> InvocationId {
        self.invocation
    }

    fn into_request(self, function: usize) -> Request {
        Request {
            invocation: self.invocation,
            function,
            payload: self.payload,
            enqueued: self.enqueued,
            reply: self.reply,
        }
    }
}

enum Message {
    Invoke(Request),
    Group {
        function: usize,
        members: Vec<RemoteJob>,
        on_done: Option<GroupDone>,
    },
    Flush(Sender<()>),
}

/// Shared id counters for invocations, batches, and containers.
///
/// A platform running alone owns a private set; a gateway running N worker
/// platforms against one [`LiveTraceRecorder`] passes one `Arc<PlatformIds>`
/// to every builder ([`PlatformBuilder::ids`]) so ids stay globally unique
/// in the merged event stream.
#[derive(Debug, Default)]
pub struct PlatformIds {
    invocation: AtomicU64,
    batch: AtomicU64,
    container: AtomicU64,
}

impl PlatformIds {
    /// Fresh counters starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints the next invocation id (used by the gateway front door, which
    /// emits `Arrival` before the invocation reaches any worker platform).
    pub fn next_invocation(&self) -> InvocationId {
        InvocationId::new(self.invocation.fetch_add(1, Ordering::Relaxed))
    }

    fn next_batch(&self) -> u64 {
        self.batch.fetch_add(1, Ordering::Relaxed)
    }

    fn next_container(&self) -> u64 {
        self.container.fetch_add(1, Ordering::Relaxed)
    }
}

/// Aggregate counters of a live platform.
#[derive(Debug, Default)]
pub struct PlatformStats {
    /// Containers created (cold starts).
    pub containers_created: AtomicU64,
    /// Containers started by restoring a snapshot template instead of a
    /// full cold boot ([`PlatformBuilder::snapshots`]).
    pub containers_restored: AtomicU64,
    /// Warm containers evicted by keep-alive expiry.
    pub containers_evicted: AtomicU64,
    /// Batches dispatched.
    pub batches: AtomicU64,
    /// Invocations completed.
    pub invocations: AtomicU64,
    /// Storage clients actually built across all containers.
    pub clients_created: AtomicU64,
}

/// A warm container parked in the keep-alive pool. The generation stamp
/// lets the eviction timer recognise whether "its" entry is still the one
/// sitting in the pool (reuse pops the entry; a later return gets a fresh
/// generation, so a stale timer never evicts a just-returned container).
struct WarmEntry {
    env: Arc<ContainerEnv>,
    generation: u64,
}

type WarmPools = Arc<Mutex<HashMap<usize, Vec<WarmEntry>>>>;

/// Counts in-flight batch groups so `drain`/shutdown can wait for work that
/// no longer lives on joinable threads (executor groups, cold-start timers).
#[derive(Default)]
struct PendingGroups {
    count: std::sync::Mutex<usize>,
    cvar: std::sync::Condvar,
}

impl PendingGroups {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.count
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn enter(&self) {
        *self.lock() += 1;
    }

    fn exit(&self) {
        let mut count = self.lock();
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.cvar.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut count = self.lock();
        while *count > 0 {
            count = self
                .cvar
                .wait(count)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Builder for [`FaasBatchPlatform`].
pub struct PlatformBuilder {
    window: Duration,
    multiplex: bool,
    cold_start_delay: Duration,
    snapshots: usize,
    restore_delay: Duration,
    executor: Option<Arc<Executor>>,
    recorder: Option<LiveTraceRecorder>,
    telemetry: Option<Arc<PlatformTelemetry>>,
    keep_alive: Option<Duration>,
    store: ObjectStore,
    ids: Option<Arc<PlatformIds>>,
    functions: Vec<(String, Handler)>,
}

impl fmt::Debug for PlatformBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlatformBuilder")
            .field("window", &self.window)
            .field("multiplex", &self.multiplex)
            .field("functions", &self.functions.len())
            .finish()
    }
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlatformBuilder {
    /// Starts a builder with the paper's defaults (200 ms window,
    /// multiplexer on).
    pub fn new() -> Self {
        PlatformBuilder {
            window: Duration::from_millis(200),
            multiplex: true,
            cold_start_delay: Duration::from_millis(25),
            snapshots: 0,
            restore_delay: Duration::from_millis(2),
            executor: None,
            recorder: None,
            telemetry: None,
            keep_alive: None,
            store: ObjectStore::new(),
            ids: None,
            functions: Vec::new(),
        }
    }

    /// Sets the dispatch window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero: the dispatcher would never block on its
    /// queue and spin a core instead.
    pub fn window(mut self, window: Duration) -> Self {
        assert!(!window.is_zero(), "dispatch window must be positive");
        self.window = window;
        self
    }

    /// Enables or disables the Resource Multiplexer.
    pub fn multiplex(mut self, on: bool) -> Self {
        self.multiplex = on;
        self
    }

    /// Sets the synthetic cold-start delay paid when a fresh container must
    /// be created.
    pub fn cold_start_delay(mut self, delay: Duration) -> Self {
        self.cold_start_delay = delay;
        self
    }

    /// Enables the snapshot-restore start tier with at most `capacity`
    /// templates (0 = disabled, the default).
    ///
    /// The live approximation of snapshot restore: the first cold boot of a
    /// function captures a pre-initialized template; when the warm pool
    /// later misses but a template exists, a fresh container is cloned from
    /// it and becomes ready after the (short) restore delay instead of the
    /// full cold-start delay. Templates are bounded at `capacity` across
    /// all functions, evicting least-recently-used.
    pub fn snapshots(mut self, capacity: usize) -> Self {
        self.snapshots = capacity;
        self
    }

    /// Sets the synthetic restore delay paid when a container starts from a
    /// snapshot template (default 2 ms; compare the 25 ms cold default).
    pub fn restore_delay(mut self, delay: Duration) -> Self {
        self.restore_delay = delay;
        self
    }

    /// Runs batches on a specific executor instance instead of the
    /// process-wide [`global_executor`] — lets tests pick a seeded,
    /// fixed-size pool.
    pub fn executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Attaches a wall-clock trace recorder; the platform then emits the
    /// full typed [`SimEvent`] stream (arrivals, dispatch decisions,
    /// cold-start spans, container state changes, exec spans, completions).
    pub fn trace(mut self, recorder: LiveTraceRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches live metrics (DESIGN.md §18): warm/cold dispatch counters,
    /// batch-size and per-function end-to-end latency histograms, and the
    /// in-flight gauge, all recorded straight into the handle's
    /// [`MetricRegistry`](faasbatch_metrics::MetricRegistry).
    pub fn telemetry(mut self, telemetry: Arc<PlatformTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables warm-pool keep-alive: a container idle for `ttl` after a
    /// batch is evicted by a timer-wheel callback (off by default, so pools
    /// grow monotonically as before).
    pub fn keep_alive(mut self, ttl: Duration) -> Self {
        self.keep_alive = Some(ttl);
        self
    }

    /// Supplies the object store backing the containers' storage SDKs.
    pub fn store(mut self, store: ObjectStore) -> Self {
        self.store = store;
        self
    }

    /// Shares id counters with other platforms (default: a private set).
    ///
    /// Required whenever several platforms feed one trace recorder —
    /// otherwise their dense per-platform batch/container/invocation
    /// counters collide in the merged stream.
    pub fn ids(mut self, ids: Arc<PlatformIds>) -> Self {
        self.ids = Some(ids);
        self
    }

    /// Registers a function body under `name`.
    pub fn register(
        mut self,
        name: &str,
        handler: impl Fn(&InvocationEnv<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.functions.push((name.to_owned(), Arc::new(handler)));
        self
    }

    /// Starts the dispatcher and returns the running platform.
    pub fn start(self) -> FaasBatchPlatform {
        let (tx, rx) = channel::unbounded();
        let stats = Arc::new(PlatformStats::default());
        let names: Vec<String> = self.functions.iter().map(|(n, _)| n.clone()).collect();
        let recorder = self.recorder;
        let telemetry = self.telemetry;
        if let Some(tel) = &telemetry {
            // Pre-register every function's latency family so exposition
            // order is registration order, not first-completion order.
            for function in 0..names.len() {
                tel.ensure_function(function);
            }
        }
        let ids = self.ids.unwrap_or_default();
        let dispatcher = Dispatcher {
            rx,
            window: self.window,
            multiplex: self.multiplex,
            cold_start_delay: self.cold_start_delay,
            snapshots: self.snapshots,
            restore_delay: self.restore_delay,
            templates: HashMap::new(),
            template_clock: 0,
            executor: self.executor.unwrap_or_else(global_executor),
            recorder: recorder.clone(),
            telemetry: telemetry.clone(),
            keep_alive: self.keep_alive,
            store: self.store,
            handlers: self.functions.into_iter().map(|(_, h)| h).collect(),
            warm: Arc::new(Mutex::new(HashMap::new())),
            warm_gen: Arc::new(AtomicU64::new(0)),
            stats: stats.clone(),
            ids: Arc::clone(&ids),
            pending: Arc::new(PendingGroups::default()),
        };
        let handle = std::thread::Builder::new()
            .name("faasbatch-dispatcher".to_owned())
            .spawn(move || dispatcher.run())
            .expect("spawn dispatcher");
        FaasBatchPlatform {
            tx: Some(tx),
            dispatcher: Some(handle),
            names,
            stats,
            recorder,
            telemetry,
            ids,
        }
    }
}

/// How a dispatched batch obtained its container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StartTier {
    /// Pooled warm container, ready immediately.
    Warm,
    /// Fresh container cloned from a captured snapshot template; ready
    /// after the restore delay.
    Restored,
    /// Fresh container via a full cold boot; ready after the cold-start
    /// delay.
    Cold,
}

struct Dispatcher {
    rx: Receiver<Message>,
    window: Duration,
    multiplex: bool,
    cold_start_delay: Duration,
    snapshots: usize,
    restore_delay: Duration,
    /// Snapshot templates: function → last-use stamp (LRU), bounded at
    /// `snapshots` entries. Only touched by the dispatcher thread.
    templates: HashMap<usize, u64>,
    template_clock: u64,
    executor: Arc<Executor>,
    recorder: Option<LiveTraceRecorder>,
    telemetry: Option<Arc<PlatformTelemetry>>,
    keep_alive: Option<Duration>,
    store: ObjectStore,
    handlers: Vec<Handler>,
    warm: WarmPools,
    warm_gen: Arc<AtomicU64>,
    stats: Arc<PlatformStats>,
    ids: Arc<PlatformIds>,
    pending: Arc<PendingGroups>,
}

impl Dispatcher {
    fn run(mut self) {
        let mut open = true;
        while open {
            // Invoke-Mapper phase: buffer one window's worth of requests.
            let deadline = Instant::now() + self.window;
            let mut flushes: Vec<Sender<()>> = Vec::new();
            let mut groups: HashMap<usize, Vec<Request>> = HashMap::new();
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let message = self.rx.recv_timeout(deadline - now);
                match message {
                    Ok(Message::Invoke(req)) => groups.entry(req.function).or_default().push(req),
                    // A remotely built group was already windowed and routed
                    // by the gateway; dispatch it immediately as a unit —
                    // re-windowing here could merge or split it.
                    Ok(Message::Group {
                        function,
                        members,
                        on_done,
                    }) => {
                        let batch = members
                            .into_iter()
                            .map(|job| job.into_request(function))
                            .collect();
                        self.spawn_group(function, batch, on_done);
                    }
                    Ok(Message::Flush(done)) => flushes.push(done),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            // Inline-Parallel-Producer phase: one container per group, every
            // group expanded concurrently on the backend.
            let mut order: Vec<usize> = groups.keys().copied().collect();
            order.sort_unstable();
            for function in order {
                let batch = groups.remove(&function).expect("group exists");
                self.spawn_group(function, batch, None);
            }
            if !flushes.is_empty() {
                // A flush acknowledges only after every in-flight group —
                // including cold ones parked on the timer wheel — resolved.
                self.pending.wait_idle();
                for done in flushes {
                    let _ = done.send(());
                }
            }
        }
        self.pending.wait_idle();
    }

    fn spawn_group(&mut self, function: usize, batch: Vec<Request>, on_done: Option<GroupDone>) {
        let (env, tier) = self.acquire_container(function);
        let cold = tier == StartTier::Cold;
        let restored = tier == StartTier::Restored;
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        if cold {
            self.stats
                .containers_created
                .fetch_add(1, Ordering::Relaxed);
        }
        if restored {
            self.stats
                .containers_restored
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(tel) = &self.telemetry {
            tel.on_batch(batch.len(), cold, restored);
        }
        let batch_id = self.ids.next_batch();
        let container = ContainerId::new(env.id());
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::DispatchDecision {
                batch: batch_id,
                function: FunctionId::new(function as u32),
                container,
                cold,
                restored,
                barrier: false,
                members: batch.iter().map(|r| r.invocation).collect(),
            });
            rec.record(EventKind::TaskStart {
                task: TaskKind::Decision { batch: batch_id },
            });
            rec.record(EventKind::TaskFinish {
                task: TaskKind::Decision { batch: batch_id },
            });
            if cold {
                rec.record(EventKind::ContainerStateChange {
                    container,
                    from: None,
                    to: ContainerState::Provisioning,
                });
                rec.record(EventKind::ColdStartBegin {
                    container,
                    batch: Some(batch_id),
                });
            } else if restored {
                rec.record(EventKind::ContainerStateChange {
                    container,
                    from: None,
                    to: ContainerState::Provisioning,
                });
                rec.record(EventKind::RestoreBegin {
                    container,
                    batch: Some(batch_id),
                });
            }
        }
        self.pending.enter();
        let ctx = GroupCtx {
            handler: self.handlers[function].clone(),
            env,
            requests: batch,
            function,
            batch: batch_id,
            cold,
            restored,
            recorder: self.recorder.clone(),
            telemetry: self.telemetry.clone(),
            warm: Arc::clone(&self.warm),
            warm_gen: Arc::clone(&self.warm_gen),
            keep_alive: self.keep_alive,
            stats: Arc::clone(&self.stats),
            executor: Arc::clone(&self.executor),
            pending: Arc::clone(&self.pending),
            on_done,
        };
        match tier {
            StartTier::Cold => {
                // The cold-start delay rides the timer wheel: the ready
                // events are emitted in the callback *before* the group is
                // submitted, so `ColdStartEnd` strictly precedes every
                // `ExecBegin` of the batch.
                self.executor.schedule(self.cold_start_delay, move || {
                    ctx.mark_ready_after_cold();
                    ctx.submit();
                });
            }
            StartTier::Restored => {
                // Same shape, shorter delay: `RestoreDone` strictly
                // precedes every `ExecBegin`.
                self.executor.schedule(self.restore_delay, move || {
                    ctx.mark_ready_after_restore();
                    ctx.submit();
                });
            }
            StartTier::Warm => {
                ctx.mark_busy_from_warm();
                ctx.submit();
            }
        }
    }

    /// Three start tiers, mirroring the simulator's
    /// [`Cluster::acquire`](faasbatch_container::cluster::Cluster::acquire):
    /// warm-pool hit, then snapshot-template restore, then full cold boot
    /// (which captures a template for later restores when the tier is on).
    fn acquire_container(&mut self, function: usize) -> (Arc<ContainerEnv>, StartTier) {
        if let Some(entry) = self.warm.lock().get_mut(&function).and_then(Vec::pop) {
            return (entry.env, StartTier::Warm);
        }
        let tier = if self.snapshots > 0 {
            self.template_clock += 1;
            let stamp = self.template_clock;
            if let Some(last_used) = self.templates.get_mut(&function) {
                *last_used = stamp;
                StartTier::Restored
            } else {
                // Live approximation of snapshot capture: remember the
                // function at provision time (the simulator captures at
                // boot completion; the dispatcher thread has no ready
                // callback, so capture here and keep the cache
                // single-threaded).
                self.templates.insert(function, stamp);
                while self.templates.len() > self.snapshots {
                    if let Some(victim) = self
                        .templates
                        .iter()
                        .min_by_key(|(_, &t)| t)
                        .map(|(f, _)| *f)
                    {
                        self.templates.remove(&victim);
                    }
                }
                StartTier::Cold
            }
        } else {
            StartTier::Cold
        };
        let id = self.ids.next_container();
        (
            Arc::new(ContainerEnv {
                id,
                multiplexer: ResourceMultiplexer::new(),
                sdk: StorageSdk::new(self.store.clone()),
                multiplex: self.multiplex,
            }),
            tier,
        )
    }
}

/// Everything one dispatched batch needs to run to completion: the
/// members, the container, and the shared platform state the finishing side
/// updates.
struct GroupCtx {
    handler: Handler,
    env: Arc<ContainerEnv>,
    requests: Vec<Request>,
    function: usize,
    batch: u64,
    cold: bool,
    restored: bool,
    recorder: Option<LiveTraceRecorder>,
    telemetry: Option<Arc<PlatformTelemetry>>,
    warm: WarmPools,
    warm_gen: Arc<AtomicU64>,
    keep_alive: Option<Duration>,
    stats: Arc<PlatformStats>,
    executor: Arc<Executor>,
    pending: Arc<PendingGroups>,
    on_done: Option<GroupDone>,
}

impl GroupCtx {
    fn emit(&self, kind: EventKind) {
        if let Some(rec) = &self.recorder {
            rec.record(kind);
        }
    }

    fn container(&self) -> ContainerId {
        ContainerId::new(self.env.id())
    }

    /// Cold path, after the delay elapsed: the container becomes usable and
    /// immediately checks out to this batch.
    fn mark_ready_after_cold(&self) {
        let container = self.container();
        self.emit(EventKind::ColdStartEnd {
            container,
            batch: Some(self.batch),
        });
        self.emit(EventKind::ContainerStateChange {
            container,
            from: Some(ContainerState::Provisioning),
            to: ContainerState::Idle,
        });
        self.emit(EventKind::ContainerStateChange {
            container,
            from: Some(ContainerState::Idle),
            to: ContainerState::Busy,
        });
    }

    /// Restore path, after the (short) delay elapsed: the cloned template
    /// becomes usable and immediately checks out to this batch.
    fn mark_ready_after_restore(&self) {
        let container = self.container();
        self.emit(EventKind::RestoreDone {
            container,
            batch: Some(self.batch),
        });
        self.emit(EventKind::ContainerStateChange {
            container,
            from: Some(ContainerState::Provisioning),
            to: ContainerState::Idle,
        });
        self.emit(EventKind::ContainerStateChange {
            container,
            from: Some(ContainerState::Idle),
            to: ContainerState::Busy,
        });
    }

    /// Warm path: the pooled container checks out to this batch.
    fn mark_busy_from_warm(&self) {
        self.emit(EventKind::ContainerStateChange {
            container: self.container(),
            from: Some(ContainerState::Idle),
            to: ContainerState::Busy,
        });
    }

    /// The batch becomes one executor task group of per-member runs; the
    /// barrier's `on_complete` — run by the last finishing member on its
    /// worker — is the finishing step (no per-batch join thread).
    fn submit(self) {
        let GroupCtx {
            handler,
            env,
            requests,
            function,
            batch,
            cold,
            restored,
            recorder,
            telemetry,
            warm,
            warm_gen,
            keep_alive,
            stats,
            executor,
            pending,
            on_done,
        } = self;
        let batch_size = requests.len() as u64;
        let sdk_creations_before = env.sdk.total_creations() as u64;
        let jobs: Vec<GroupJob> = requests
            .into_iter()
            .enumerate()
            .map(|(index, req)| {
                let member = MemberRun {
                    handler: handler.clone(),
                    env: Arc::clone(&env),
                    req,
                    batch,
                    member: index as u32,
                    cold,
                    restored,
                    recorder: recorder.clone(),
                    telemetry: telemetry.clone(),
                };
                GroupJob::blocking(move || member.run())
            })
            .collect();
        let finisher = GroupFinisher {
            env,
            function,
            batch_size,
            sdk_creations_before,
            recorder,
            warm,
            warm_gen,
            keep_alive,
            stats,
            executor: Arc::clone(&executor),
            pending,
            on_done,
        };
        executor.submit_group_with(
            jobs,
            None,
            Some(Box::new(move |_report: &GroupReport| finisher.finish())),
        );
    }
}

/// One batch member: runs the handler with the panic boundary, reports the
/// outcome, and emits the member's exec/completion events.
struct MemberRun {
    handler: Handler,
    env: Arc<ContainerEnv>,
    req: Request,
    batch: u64,
    member: u32,
    cold: bool,
    restored: bool,
    recorder: Option<LiveTraceRecorder>,
    telemetry: Option<Arc<PlatformTelemetry>>,
}

impl MemberRun {
    fn run(self) {
        let started = Instant::now();
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::ExecBegin {
                batch: self.batch,
                member: self.member,
                // Live handlers have no declared intrinsic work; zero makes
                // the attribution of the observed span exact.
                work: SimDuration::ZERO,
            });
        }
        let ctx = InvocationEnv {
            payload: self.req.payload.clone(),
            container: &self.env,
        };
        // A user function crashing must not take down the container or
        // starve its batch siblings.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| (self.handler)(&ctx)));
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::ExecEnd {
                batch: self.batch,
                member: self.member,
            });
        }
        let outcome = InvokeOutcome {
            queued: started.duration_since(self.req.enqueued),
            execution: started.elapsed(),
            cold: self.cold,
            restored: self.restored,
            panicked: result.is_err(),
        };
        if let Some(tel) = &self.telemetry {
            tel.on_member_done(
                self.req.function,
                u64::try_from(outcome.total().as_micros()).unwrap_or(u64::MAX),
            );
        }
        let _ = self.req.reply.send(outcome);
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::InvocationComplete {
                invocation: self.req.invocation,
                batch: Some(self.batch),
                member: Some(self.member),
            });
        }
    }
}

/// The batch epilogue: fold client/invocation counters into the platform
/// stats, release the container back to the warm pool, and (when keep-alive
/// is on) arm the eviction timer.
struct GroupFinisher {
    env: Arc<ContainerEnv>,
    function: usize,
    batch_size: u64,
    sdk_creations_before: u64,
    recorder: Option<LiveTraceRecorder>,
    warm: WarmPools,
    warm_gen: Arc<AtomicU64>,
    keep_alive: Option<Duration>,
    stats: Arc<PlatformStats>,
    executor: Arc<Executor>,
    pending: Arc<PendingGroups>,
    on_done: Option<GroupDone>,
}

impl GroupFinisher {
    fn finish(self) {
        let created = self.env.sdk.total_creations() as u64 - self.sdk_creations_before;
        self.stats
            .clients_created
            .fetch_add(created, Ordering::Relaxed);
        self.stats
            .invocations
            .fetch_add(self.batch_size, Ordering::Relaxed);
        let container = ContainerId::new(self.env.id());
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::ContainerStateChange {
                container,
                from: Some(ContainerState::Busy),
                to: ContainerState::Idle,
            });
        }
        // Return the container to the warm pool.
        let generation = self.warm_gen.fetch_add(1, Ordering::Relaxed);
        self.warm
            .lock()
            .entry(self.function)
            .or_default()
            .push(WarmEntry {
                env: self.env,
                generation,
            });
        if let Some(ttl) = self.keep_alive {
            let warm = self.warm;
            let function = self.function;
            let stats = self.stats;
            let recorder = self.recorder;
            self.executor.schedule(ttl, move || {
                let evicted = {
                    let mut pools = warm.lock();
                    let Some(pool) = pools.get_mut(&function) else {
                        return;
                    };
                    // Evict only if the exact entry we parked is still
                    // idle; a reused-and-returned container carries a newer
                    // generation and keeps its own timer.
                    let Some(pos) = pool.iter().position(|e| e.generation == generation) else {
                        return;
                    };
                    pool.remove(pos)
                };
                stats.containers_evicted.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = &recorder {
                    rec.record(EventKind::ContainerStateChange {
                        container: ContainerId::new(evicted.env.id()),
                        from: Some(ContainerState::Idle),
                        to: ContainerState::Terminated,
                    });
                }
            });
        }
        if let Some(on_done) = self.on_done {
            on_done(self.batch_size as usize);
        }
        self.pending.exit();
    }
}

/// The running live platform. Dropping it drains in-flight work and joins
/// the dispatcher.
#[derive(Debug)]
pub struct FaasBatchPlatform {
    tx: Option<Sender<Message>>,
    dispatcher: Option<JoinHandle<()>>,
    names: Vec<String>,
    stats: Arc<PlatformStats>,
    recorder: Option<LiveTraceRecorder>,
    telemetry: Option<Arc<PlatformTelemetry>>,
    ids: Arc<PlatformIds>,
}

impl FaasBatchPlatform {
    /// Submits an invocation of `function` with `payload`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownFunction`] if the name is not registered;
    /// [`PlatformError::ShuttingDown`] if the platform is stopping.
    pub fn invoke(&self, function: &str, payload: Bytes) -> Result<InvokeTicket, PlatformError> {
        let idx = self
            .names
            .iter()
            .position(|n| n == function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.to_owned()))?;
        let (reply, rx) = channel::bounded(1);
        let tx = self.tx.as_ref().ok_or(PlatformError::ShuttingDown)?;
        let invocation = self.ids.next_invocation();
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::Arrival {
                invocation,
                function: FunctionId::new(idx as u32),
            });
        }
        if let Some(tel) = &self.telemetry {
            tel.in_flight.add(1);
        }
        let sent = tx.send(Message::Invoke(Request {
            invocation,
            function: idx,
            payload,
            enqueued: Instant::now(),
            reply,
        }));
        if sent.is_err() {
            if let Some(tel) = &self.telemetry {
                tel.in_flight.sub(1);
            }
            return Err(PlatformError::ShuttingDown);
        }
        Ok(InvokeTicket { rx })
    }

    /// Submits a pre-formed batch of `function` (a registry index) for
    /// immediate dispatch as **one** batch, bypassing this platform's own
    /// dispatch window.
    ///
    /// This is the gateway's entry point: the caller already collected a
    /// dispatch window and routed the whole group here, so the platform
    /// must not re-window (which could merge or split it). The caller is
    /// responsible for emitting the members' `Arrival` events, minting
    /// invocation ids from the shared [`PlatformIds`]; the platform emits
    /// everything from the dispatch decision on. `on_done` runs once the
    /// whole group finished, with the batch size.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownFunction`] if `function` is out of range;
    /// [`PlatformError::ShuttingDown`] if the platform is stopping.
    pub fn submit_group(
        &self,
        function: usize,
        members: Vec<RemoteJob>,
        on_done: Option<GroupDone>,
    ) -> Result<(), PlatformError> {
        if function >= self.names.len() {
            return Err(PlatformError::UnknownFunction(format!("fn#{function}")));
        }
        if members.is_empty() {
            if let Some(on_done) = on_done {
                on_done(0);
            }
            return Ok(());
        }
        let tx = self.tx.as_ref().ok_or(PlatformError::ShuttingDown)?;
        let size = members.len() as i64;
        if let Some(tel) = &self.telemetry {
            tel.in_flight.add(size);
        }
        let sent = tx.send(Message::Group {
            function,
            members,
            on_done,
        });
        if sent.is_err() {
            if let Some(tel) = &self.telemetry {
                tel.in_flight.sub(size);
            }
            return Err(PlatformError::ShuttingDown);
        }
        Ok(())
    }

    /// The id counters this platform mints from ([`PlatformBuilder::ids`]).
    pub fn ids(&self) -> &Arc<PlatformIds> {
        &self.ids
    }

    /// Blocks until every invocation submitted so far has completed.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ShuttingDown`] if the platform is stopping.
    pub fn drain(&self) -> Result<(), PlatformError> {
        let (done, rx) = channel::bounded(1);
        let tx = self.tx.as_ref().ok_or(PlatformError::ShuttingDown)?;
        tx.send(Message::Flush(done))
            .map_err(|_| PlatformError::ShuttingDown)?;
        rx.recv().map_err(|_| PlatformError::ShuttingDown)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &PlatformStats {
        &self.stats
    }

    /// Registered function names, in registration order.
    pub fn functions(&self) -> &[String] {
        &self.names
    }

    /// The attached trace recorder, if any ([`PlatformBuilder::trace`]).
    pub fn trace_recorder(&self) -> Option<&LiveTraceRecorder> {
        self.recorder.as_ref()
    }
}

impl Drop for FaasBatchPlatform {
    fn drop(&mut self) {
        // Closing the channel lets the dispatcher drain and exit.
        self.tx.take();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_exec::ExecutorConfig;
    use faasbatch_metrics::events::{AuditorSink, RecordReducer, TraceSink};
    use std::sync::atomic::AtomicUsize;

    fn fast_platform(multiplex: bool) -> (FaasBatchPlatform, Arc<AtomicUsize>) {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let store = ObjectStore::new();
        store.create_bucket("b").unwrap();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(10))
            .multiplex(multiplex)
            .cold_start_delay(Duration::from_millis(1))
            .store(store)
            .register("count", move |_env| {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .register("io", |env| {
                let client = env.container.storage_client(&ClientConfig::for_bucket("b"));
                client.put("k", Bytes::from_static(b"v")).unwrap();
            })
            .start();
        (platform, counter)
    }

    #[test]
    fn invoke_runs_handler_and_reports_timing() {
        let (platform, counter) = fast_platform(true);
        let ticket = platform.invoke("count", Bytes::new()).unwrap();
        let outcome = ticket.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert!(outcome.cold, "first invocation is cold");
        assert!(outcome.total() >= outcome.execution);
    }

    #[test]
    fn unknown_function_is_rejected() {
        let (platform, _) = fast_platform(true);
        assert_eq!(
            platform.invoke("nope", Bytes::new()).unwrap_err(),
            PlatformError::UnknownFunction("nope".into())
        );
    }

    #[test]
    fn concurrent_invocations_batch_into_one_container() {
        let (platform, counter) = fast_platform(true);
        let tickets: Vec<_> = (0..16)
            .map(|_| platform.invoke("count", Bytes::new()).unwrap())
            .collect();
        for t in tickets {
            t.wait();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        // All 16 arrived within one window: at most a couple of containers
        // even under scheduling jitter.
        let containers = platform.stats().containers_created.load(Ordering::Relaxed);
        assert!(containers <= 3, "created {containers} containers");
    }

    #[test]
    fn warm_reuse_after_first_batch() {
        let (platform, _) = fast_platform(true);
        platform.invoke("count", Bytes::new()).unwrap().wait();
        let second = platform.invoke("count", Bytes::new()).unwrap().wait();
        assert!(!second.cold, "second invocation should be warm");
    }

    #[test]
    fn container_env_exports_mux_trace() {
        use faasbatch_metrics::events::EventKind;
        let store = ObjectStore::new();
        store.create_bucket("b").unwrap();
        let env = ContainerEnv {
            id: 3,
            multiplexer: ResourceMultiplexer::new(),
            sdk: StorageSdk::new(store),
            multiplex: true,
        };
        let cfg = ClientConfig::for_bucket("b");
        env.storage_client(&cfg);
        env.storage_client(&cfg);
        let trace = env.take_mux_trace(SimTime::from_secs(1));
        assert_eq!(trace.len(), 2);
        assert!(
            matches!(trace[0].kind, EventKind::ClientCacheMiss { container, .. }
            if container == ContainerId::new(3))
        );
        assert!(matches!(trace[1].kind, EventKind::ClientCacheHit { .. }));
        assert!(env.take_mux_trace(SimTime::from_secs(2)).is_empty());
    }

    #[test]
    fn multiplexer_limits_client_creations() {
        let (platform, _) = fast_platform(true);
        let tickets: Vec<_> = (0..12)
            .map(|_| platform.invoke("io", Bytes::new()).unwrap())
            .collect();
        for t in tickets {
            t.wait();
        }
        platform.drain().unwrap();
        let created = platform.stats().clients_created.load(Ordering::Relaxed);
        let containers = platform.stats().containers_created.load(Ordering::Relaxed);
        assert!(
            created <= containers,
            "multiplexed: {created} clients for {containers} containers"
        );
    }

    #[test]
    fn without_multiplexer_every_invocation_creates() {
        let (platform, _) = fast_platform(false);
        let tickets: Vec<_> = (0..8)
            .map(|_| platform.invoke("io", Bytes::new()).unwrap())
            .collect();
        for t in tickets {
            t.wait();
        }
        platform.drain().unwrap();
        assert_eq!(platform.stats().clients_created.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn outcome_summary_aggregates() {
        let mk = |q: u64, e: u64, cold: bool, panicked: bool| InvokeOutcome {
            queued: Duration::from_millis(q),
            execution: Duration::from_millis(e),
            cold,
            restored: !cold,
            panicked,
        };
        let s = OutcomeSummary::from_outcomes(&[mk(10, 20, true, false), mk(30, 40, false, true)]);
        assert_eq!(s.count, 2);
        assert_eq!(s.cold, 1);
        assert_eq!(s.restored, 1);
        assert_eq!(s.panicked, 1);
        assert_eq!(s.mean_queued, Duration::from_millis(20));
        assert_eq!(s.mean_execution, Duration::from_millis(30));
        assert_eq!(s.max_total, Duration::from_millis(70));
        assert_eq!(
            OutcomeSummary::from_outcomes(&[]),
            OutcomeSummary::default()
        );
    }

    #[test]
    fn panicking_handler_is_contained() {
        let store = ObjectStore::new();
        store.create_bucket("b").unwrap();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(10))
            .store(store)
            .register("boom", |env| {
                if env.payload.is_empty() {
                    panic!("user function crashed");
                }
            })
            .start();
        // Crash and success share one batch; both must report back.
        let crash = platform.invoke("boom", Bytes::new()).unwrap();
        let ok = platform.invoke("boom", Bytes::from_static(b"x")).unwrap();
        assert!(crash.wait().panicked);
        assert!(!ok.wait().panicked);
        // The container survives for the next invocation.
        let again = platform
            .invoke("boom", Bytes::from_static(b"y"))
            .unwrap()
            .wait();
        assert!(!again.panicked);
    }

    #[test]
    fn drop_drains_cleanly() {
        let (platform, counter) = fast_platform(true);
        for _ in 0..4 {
            let _ = platform.invoke("count", Bytes::new()).unwrap();
        }
        drop(platform);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn traced_run_is_auditor_clean_with_exact_attribution() {
        let recorder = LiveTraceRecorder::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(10))
            .cold_start_delay(Duration::from_millis(2))
            .trace(recorder.clone())
            .register("count", move |_env| {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            })
            .start();
        let tickets: Vec<_> = (0..12)
            .map(|_| platform.invoke("count", Bytes::new()).unwrap())
            .collect();
        for t in tickets {
            t.wait();
        }
        platform.drain().unwrap();
        // Second round to cover warm reuse transitions too.
        platform.invoke("count", Bytes::new()).unwrap().wait();
        platform.drain().unwrap();
        drop(platform);

        let trace = recorder.take_trace();
        let mut auditor = AuditorSink::new();
        for event in &trace {
            auditor.record(event);
        }
        assert!(
            auditor.finish().is_empty(),
            "trace has violations: {:?}",
            auditor.finish()
        );
        let mut reducer = RecordReducer::new();
        for event in &trace {
            reducer.on_event(event);
        }
        let reduced = reducer.finish();
        assert_eq!(reduced.records.len(), 13);
        for record in &reduced.records {
            assert!(record.is_consistent(), "{record:?}");
        }
    }

    #[test]
    #[should_panic(expected = "dispatch window must be positive")]
    fn zero_window_is_rejected_at_the_builder() {
        let _ = PlatformBuilder::new().window(Duration::ZERO);
    }

    #[test]
    fn keep_alive_evicts_idle_containers() {
        let recorder = LiveTraceRecorder::new();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::from_millis(1))
            .keep_alive(Duration::from_millis(20))
            .trace(recorder.clone())
            .register("noop", |_env| {})
            .start();
        platform.invoke("noop", Bytes::new()).unwrap().wait();
        platform.drain().unwrap();
        // Let the keep-alive timer fire well past the TTL.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(
            platform.stats().containers_evicted.load(Ordering::Relaxed),
            1
        );
        // The next invocation must cold-start a fresh container.
        let outcome = platform.invoke("noop", Bytes::new()).unwrap().wait();
        assert!(outcome.cold, "evicted container must not be reused");
        assert_eq!(
            platform.stats().containers_created.load(Ordering::Relaxed),
            2
        );
        platform.drain().unwrap();
        drop(platform);
        let trace = recorder.take_trace();
        assert!(
            trace.iter().any(|e| matches!(
                e.kind,
                EventKind::ContainerStateChange {
                    to: ContainerState::Terminated,
                    ..
                }
            )),
            "eviction must emit Idle → Terminated"
        );
    }

    #[test]
    fn snapshot_tier_restores_after_eviction() {
        let recorder = LiveTraceRecorder::new();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::from_millis(10))
            .restore_delay(Duration::from_millis(1))
            .snapshots(4)
            .keep_alive(Duration::from_millis(20))
            .trace(recorder.clone())
            .register("noop", |_env| {})
            .start();
        // First start is a full cold boot; it captures a template.
        let first = platform.invoke("noop", Bytes::new()).unwrap().wait();
        assert!(first.cold && !first.restored);
        platform.drain().unwrap();
        // Let keep-alive evict the warm container, forcing a pool miss.
        std::thread::sleep(Duration::from_millis(120));
        // The next start misses the pool but hits the template: a restore.
        let second = platform.invoke("noop", Bytes::new()).unwrap().wait();
        assert!(second.restored, "pool miss with a template must restore");
        assert!(!second.cold, "a restore is not a full cold boot");
        platform.drain().unwrap();
        assert_eq!(
            platform.stats().containers_restored.load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            platform.stats().containers_created.load(Ordering::Relaxed),
            1,
            "the restore must not count as a cold creation"
        );
        drop(platform);

        let trace = recorder.take_trace();
        let mut auditor = AuditorSink::new();
        for event in &trace {
            auditor.record(event);
        }
        assert!(
            auditor.finish().is_empty(),
            "restored trace has violations: {:?}",
            auditor.finish()
        );
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::RestoreBegin { .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::RestoreDone { .. })));
        let mut reducer = RecordReducer::new();
        for event in &trace {
            reducer.on_event(event);
        }
        let reduced = reducer.finish();
        let restored: Vec<_> = reduced.records.iter().filter(|r| r.restored).collect();
        assert_eq!(restored.len(), 1, "one invocation rode the restore tier");
        assert!(!restored[0].cold);
        assert!(
            !restored[0].latency.cold_start.is_zero(),
            "the restore span lands in the cold_start component"
        );
        assert!(restored[0].is_consistent());
    }

    #[test]
    fn snapshot_templates_are_capacity_bounded() {
        // Capacity 1, two functions: the second function's first boot must
        // evict the first function's template, so re-starting function A
        // after eviction cold-boots again instead of restoring.
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::from_millis(1))
            .restore_delay(Duration::from_millis(1))
            .snapshots(1)
            .keep_alive(Duration::from_millis(15))
            .register("a", |_env| {})
            .register("b", |_env| {})
            .start();
        platform.invoke("a", Bytes::new()).unwrap().wait(); // captures a
        platform.invoke("b", Bytes::new()).unwrap().wait(); // evicts a
        platform.drain().unwrap();
        std::thread::sleep(Duration::from_millis(100)); // both evicted from warm pool
        let again = platform.invoke("a", Bytes::new()).unwrap().wait();
        assert!(
            again.cold && !again.restored,
            "template for 'a' was evicted by the capacity bound"
        );
        platform.drain().unwrap();
    }

    #[test]
    fn seeded_executor_platform_is_usable() {
        let exec = Executor::new(ExecutorConfig {
            workers: 4,
            seed: 2024,
            ..ExecutorConfig::default()
        });
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(10))
            .cold_start_delay(Duration::from_millis(1))
            .executor(Arc::clone(&exec))
            .register("count", move |_env| {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .start();
        let tickets: Vec<_> = (0..20)
            .map(|_| platform.invoke("count", Bytes::new()).unwrap())
            .collect();
        for t in tickets {
            t.wait();
        }
        platform.drain().unwrap();
        drop(platform);
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert!(exec.metrics().spawned_total >= 20, "batch ran on this pool");
    }
}
