//! A live (real-clock) FaaSBatch platform.
//!
//! This is the runnable counterpart of the simulated policy, in two layers:
//!
//! * [`DispatchCore`] — the Inline-Parallel Producer: warm container reuse,
//!   the snapshot-restore and cold start tiers, group expansion on the
//!   shared work-stealing executor, and a per-container
//!   [`ResourceMultiplexer`] for storage clients. The start tier is decided
//!   on the simulator's own structures — a [`WarmPool`] of container
//!   handles and a [`SnapshotCache`], stamped with wall time as
//!   µs-since-origin [`SimTime`]s ([`DispatchCore::now`]) — in the order
//!   `Cluster::acquire` uses, so the two backends cannot drift apart on
//!   what is warm, what restores and what boots (DESIGN.md §19). It owns
//!   no thread:
//!   [`DispatchCore::dispatch_window`] acquires each group's container,
//!   records its decision and hands the window's runs to the executor **on
//!   the caller's thread**, so every batch is on its way when the call
//!   returns.
//! * [`FaasBatchPlatform`] — one core behind a front door: `invoke` pushes
//!   into a [`WindowQueue`], and one window thread groups each wall-clock
//!   window per function (Invoke Mapper) and dispatches the window inline.
//!   The sharded gateway (`faasbatch-gateway`) runs the same queue per
//!   shard over a fleet of cores, handing each core its share of a window
//!   in one call.
//!
//! A group of `n` members is `min(n, workers)` runs, not `n` tasks:
//! contiguous runs whose sizes differ by at most one, each running its
//! members back to back — the paper's expansion capped at the container's
//! `cpu_count`, with the executor's worker count as that cap. Every member
//! keeps its own group index, panic boundary, [`InvokeOutcome`] and exec
//! events, and each run counts itself down on its batch's own `Group`: the
//! last run to finish, on its own worker, runs the batch epilogue.
//!
//! The runs of a window's warm groups reach the executor together, as one
//! `RunList` per core, pulled by at most `workers` plain tasks: each claims
//! the next run off a shared cursor until the list is empty. One process
//! thus multiplexes every in-flight batch over a fixed worker pool, paying
//! for at most one task per worker per window instead of one per group.
//! The list also owns its batches' `Group`s, and a run names its group by
//! index, so a window costs one list allocation, not one per group; a run
//! nobody claimed (a stopping executor dropped the list's tasks) is
//! counted down when the list drops. Claiming is dynamic, so a run that
//! blocks holds back only its own members; the price is skew inside a run,
//! where one task per member would have let an idle worker steal them
//! (DESIGN.md §14). A cold or restored group's runs wait out its start
//! delay on the executor's timer wheel and then go out the same way, as a
//! list of their own; warm-pool keep-alive expiry rides the same wheel.
//!
//! With a [`LiveTraceRecorder`] attached ([`PlatformBuilder::trace`]), every
//! run emits the same typed [`SimEvent`] stream as the simulator — arrivals,
//! dispatch decisions, cold-start spans, container state changes, exec
//! spans, completions — so the auditor and `faasbatch trace --analyze` work
//! on live runs (DESIGN.md §14).
//!
//! [`SimEvent`]: faasbatch_metrics::events::SimEvent

use crate::multiplexer::ResourceMultiplexer;
use crate::telemetry::{Recorded, Registered};
use crate::window::WindowQueue;
use bytes::Bytes;
use faasbatch_container::container::ContainerState;
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_container::pool::WarmPool;
use faasbatch_container::snapshot::{EvictionPolicy, SnapshotCache, SnapshotConfig};
use faasbatch_container::spec::RestoreModel;
use faasbatch_exec::{global_executor, Executor};
use faasbatch_metrics::events::{EventKind, TaskKind};
use faasbatch_metrics::live::LiveTraceRecorder;
use faasbatch_metrics::telemetry::MetricRegistry;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_storage::client::{ClientConfig, StorageClient, StorageSdk};
use faasbatch_storage::object_store::ObjectStore;
use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// Where one invocation's outcome lands: written once through the job's
/// [`Reply`], awaited by its [`InvokeTicket`].
///
/// Purpose-built rather than a `std::sync::mpsc::sync_channel(1)`: a std
/// channel is 864 B per ticket against 112 B here (scratch probe, 200k
/// outstanding tickets — the whole of a burst's peak RSS), and a reply
/// nobody waits on yet costs no wake-up syscall.
#[derive(Debug, Default)]
struct ReplySlot {
    state: Mutex<ReplyState>,
    ready: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct ReplyState {
    /// `Some(None)`: the job was dropped without ever running.
    outcome: Option<Option<InvokeOutcome>>,
    waiting: bool,
}

impl ReplySlot {
    fn lock(&self) -> MutexGuard<'_, ReplyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn put(&self, outcome: Option<InvokeOutcome>) {
        let mut state = self.lock();
        state.outcome = Some(outcome);
        if state.waiting {
            self.ready.notify_one();
        }
    }
}

/// The job's side of a [`ReplySlot`]. Dropped unsent, it releases the
/// ticket empty-handed instead of leaving its caller blocked forever.
struct Reply {
    slot: Arc<ReplySlot>,
    sent: bool,
}

impl Reply {
    fn send(mut self, outcome: InvokeOutcome) {
        self.sent = true;
        self.slot.put(Some(outcome));
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.sent {
            self.slot.put(None);
        }
    }
}

/// Handle to a pending invocation.
#[derive(Debug)]
pub struct InvokeTicket {
    slot: Arc<ReplySlot>,
}

impl InvokeTicket {
    /// Blocks until the invocation completes.
    ///
    /// # Panics
    ///
    /// Panics if the platform was torn down before the invocation ran
    /// (cannot happen through the public API, which drains on shutdown).
    pub fn wait(self) -> InvokeOutcome {
        let mut state = self.slot.lock();
        state.waiting = true;
        let mut state = self
            .slot
            .ready
            .wait_while(state, |state| state.outcome.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        state
            .outcome
            .take()
            .flatten()
            .expect("invocation dropped by platform")
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

/// The registered functions — names and handlers in registration order
/// plus the name → index map — built once per
/// [`PlatformBuilder`] and shared by every front door and
/// [`DispatchCore`] started from it.
pub struct FunctionTable {
    names: Vec<String>,
    handlers: Vec<Handler>,
    index: HashMap<String, usize>,
}

impl FunctionTable {
    fn new(functions: Vec<(String, Handler)>) -> FunctionTable {
        let mut index = HashMap::with_capacity(functions.len());
        for (i, (name, _)) in functions.iter().enumerate() {
            // A name registered twice resolves to its first registration.
            index.entry(name.clone()).or_insert(i);
        }
        let (names, handlers) = functions.into_iter().unzip();
        FunctionTable {
            names,
            handlers,
            index,
        }
    }

    /// The registry index of `name`, or `None` if unregistered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Registered function names, in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Runs after a submitted group fully completes, with the batch size (see
/// [`DispatchCore::dispatch`]).
pub type GroupDone = Box<dyn FnOnce(usize) + Send + 'static>;

/// One accepted invocation on its way to a container: a member of a
/// dispatch-window group.
///
/// Whoever accepts the invocation (`FaasBatchPlatform::invoke`, the
/// gateway) mints its id from the shared [`PlatformIds`] and keeps the
/// [`InvokeTicket`]; the job carries the reply side. `queued` time in the
/// eventual [`InvokeOutcome`] is measured from the moment this job was
/// created.
pub struct RemoteJob {
    invocation: InvocationId,
    payload: Bytes,
    enqueued: Instant,
    reply: Reply,
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
        let slot = Arc::new(ReplySlot::default());
        (
            RemoteJob {
                invocation,
                payload,
                enqueued: Instant::now(),
                reply: Reply {
                    slot: Arc::clone(&slot),
                    sent: false,
                },
            },
            InvokeTicket { slot },
        )
    }

    /// The invocation this job carries.
    pub fn invocation(&self) -> InvocationId {
        self.invocation
    }
}

/// Shared id counters for invocations, batches, and containers.
///
/// A platform running alone owns a private set; a gateway running N
/// dispatch cores against one [`LiveTraceRecorder`] passes one
/// `Arc<PlatformIds>` to the builder ([`PlatformBuilder::ids`]) so ids stay
/// globally unique in the merged event stream.
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

    /// Mints the next invocation id (used by the front door, which emits
    /// `Arrival` before the invocation reaches any dispatch core).
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

/// Aggregate counters of a live platform — the one count of each fact;
/// telemetry polls these rather than recording its own
/// ([`PlatformBuilder::telemetry`]). Every batch starts on exactly one tier,
/// so `warm_hits + containers_created + containers_restored == batches`
/// once no dispatch is mid-flight.
#[derive(Debug, Default)]
pub struct PlatformStats {
    /// Batches dispatched onto a pooled warm container.
    pub warm_hits: AtomicU64,
    /// Containers created (cold starts).
    pub containers_created: AtomicU64,
    /// Containers started by restoring a snapshot template instead of a
    /// full cold boot ([`PlatformBuilder::snapshots`]).
    pub containers_restored: AtomicU64,
    /// Warm containers evicted by keep-alive expiry.
    pub containers_evicted: AtomicU64,
    /// Batches dispatched.
    pub batches: AtomicU64,
    /// Invocations completed, counted when their batch finishes.
    pub invocations: AtomicU64,
    /// Storage clients actually built across all containers.
    pub clients_created: AtomicU64,
}

/// Everything [`CoreShared::acquire_container`] decides from, behind one
/// lock: the structures the simulated
/// [`Cluster`](faasbatch_container::cluster::Cluster) decides from, fed
/// wall-clock stamps ([`DispatchCore::now`]) instead of virtual ones.
/// Callers dispatch concurrently, and a pool miss must consult the
/// snapshots before another group's capture moves them.
struct Tiers {
    warm: WarmPool<Arc<ContainerEnv>>,
    snapshots: SnapshotCache,
}

/// Counts in-flight batch groups so `drain`/shutdown can wait for work that
/// no longer lives on joinable threads (executor groups, cold-start timers).
/// Like `ReplySlot`, reaching zero costs a wake-up syscall only when a
/// `wait_idle` is blocked.
#[derive(Default)]
struct PendingGroups {
    state: Mutex<PendingState>,
    cvar: std::sync::Condvar,
}

#[derive(Default)]
struct PendingState {
    count: usize,
    waiting: bool,
}

impl PendingGroups {
    fn lock(&self) -> MutexGuard<'_, PendingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn enter(&self) {
        self.lock().count += 1;
    }

    fn exit(&self) {
        let mut state = self.lock();
        state.count = state.count.saturating_sub(1);
        if state.count == 0 && std::mem::take(&mut state.waiting) {
            self.cvar.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut state = self.lock();
        while state.count > 0 {
            state.waiting = true;
            state = self
                .cvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
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
    telemetry: Option<Registered>,
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
    /// Panics if `window` is zero: the window thread would never block on
    /// its queue and spin a core instead.
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
    /// snapshots (0 = disabled, the default).
    ///
    /// The simulator's [`SnapshotCache`] on the wall clock: a cold boot that
    /// *completes* captures a snapshot of its function; when the warm pool
    /// later misses but a snapshot exists, a fresh container is restored
    /// from it and becomes ready after the (short) restore delay instead of
    /// the full cold-start delay. Snapshots are bounded at `capacity`
    /// across all functions, evicting least-recently-used.
    pub fn snapshots(mut self, capacity: usize) -> Self {
        self.snapshots = capacity;
        self
    }

    /// Sets the synthetic restore delay paid when a container starts from a
    /// snapshot (default 2 ms; compare the 25 ms cold default) — a
    /// [`RestoreModel`] whose latency band is the single point `delay`.
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
    /// full typed [`SimEvent`](faasbatch_metrics::events::SimEvent) stream
    /// (arrivals, dispatch decisions, cold-start spans, container state
    /// changes, exec spans, completions).
    pub fn trace(mut self, recorder: LiveTraceRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches live metrics (DESIGN.md §18), registering the
    /// `faasbatch_platform_*` families on `registry` now: the batch, tier
    /// and invocation counters are polled from the cores' [`PlatformStats`]
    /// at scrape time; the in-flight gauge and the batch-size and
    /// per-function end-to-end latency histograms (registered when the
    /// platform starts) are recorded. Summed over every core started from
    /// this builder.
    pub fn telemetry(mut self, registry: &MetricRegistry) -> Self {
        self.telemetry = Some(Registered::new(registry));
        self
    }

    /// Enables warm-pool keep-alive: a container idle for longer than `ttl`
    /// after a batch is evicted — by a timer-wheel callback, or by the
    /// check-out that finds it first (off by default, so pools grow
    /// monotonically).
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

    /// Starts the window thread and returns the running platform.
    pub fn start(self) -> FaasBatchPlatform {
        let window = self.window;
        let core = DispatchCore::fleet(self, 1)
            .pop()
            .expect("a fleet of one has one core");
        let queue = Arc::new(WindowQueue::new(usize::MAX));
        let thread = {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&core.shared);
            std::thread::Builder::new()
                .name("faasbatch-window".to_owned())
                .spawn(move || {
                    // Inline-Parallel-Producer phase: one container per
                    // group, every group expanded concurrently.
                    queue.run(window, |_job| {}, |groups| shared.dispatch_window(groups));
                })
                .expect("spawn window thread")
        };
        FaasBatchPlatform {
            queue,
            window_thread: Some(thread),
            core,
        }
    }
}

/// How a dispatched batch obtained its container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StartTier {
    /// Pooled warm container, ready immediately.
    Warm,
    /// Fresh container restored from a captured snapshot; ready after the
    /// restore delay.
    Restored,
    /// Fresh container via a full cold boot; ready after the cold-start
    /// delay.
    Cold,
}

/// One worker's state, shared by every caller dispatching onto it and by
/// every group in flight on it.
struct CoreShared {
    table: Arc<FunctionTable>,
    multiplex: bool,
    cold_start_delay: Duration,
    keep_alive: Option<Duration>,
    /// Whether the snapshot cache has any capacity; a disabled cache is
    /// never consulted, so a cold start takes no lock and reads no clock
    /// for it.
    snapshots: bool,
    store: ObjectStore,
    executor: Arc<Executor>,
    recorder: Option<LiveTraceRecorder>,
    /// Time zero of [`CoreShared::now`] when no recorder is attached.
    origin: Instant,
    telemetry: Option<Arc<Recorded>>,
    ids: Arc<PlatformIds>,
    /// Shared with the telemetry registry's polled counters, if any.
    stats: Arc<PlatformStats>,
    tiers: Mutex<Tiers>,
    pending: PendingGroups,
}

impl CoreShared {
    fn tiers(&self) -> MutexGuard<'_, Tiers> {
        self.tiers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn emit(&self, kind: EventKind) {
        if let Some(rec) = &self.recorder {
            rec.record(kind);
        }
    }

    /// See [`DispatchCore::now`].
    fn now(&self) -> SimTime {
        match &self.recorder {
            Some(rec) => rec.now(),
            None => SimTime::ZERO + SimDuration::from(self.origin.elapsed()),
        }
    }

    /// The stamp a check-out or check-in hands the warm pool. With
    /// keep-alive off nothing ever ages (the TTL is `SimDuration::MAX`), so
    /// no stamp is ever compared and the clock is not read for one: on a
    /// workload of one-member groups those two reads were the measured cost
    /// of the shared pool (EXPERIMENTS.md, "Live start tiers").
    fn pool_stamp(&self) -> SimTime {
        match self.keep_alive {
            Some(_) => self.now(),
            None => SimTime::ZERO,
        }
    }

    /// The warm pool dropped `aged` for outliving the keep-alive: every one
    /// is counted and leaves the trace as `Idle → Terminated`.
    fn evict(&self, aged: Vec<Arc<ContainerEnv>>) {
        for env in aged {
            self.stats
                .containers_evicted
                .fetch_add(1, Ordering::Relaxed);
            self.emit(EventKind::ContainerStateChange {
                container: ContainerId::new(env.id()),
                from: Some(ContainerState::Idle),
                to: ContainerState::Terminated,
            });
        }
    }

    /// Arms the keep-alive timer of a container of `function` parked until
    /// `due`. The reaper sweeps that function's queue only, for whatever has
    /// aged out by then, not "its" entry: a reused-and-returned container
    /// carries a newer stamp and waits for its own timer. The wheel rounds
    /// to its tick and may fire up to one tick early; expiry is strict
    /// (`>`), so a callback that is not yet past `due` re-arms itself.
    fn arm_reaper(self: &Arc<Self>, function: FunctionId, due: SimTime) {
        let core = Arc::clone(self);
        let delay = due.saturating_duration_since(self.now()) + SimDuration::from_micros(1);
        self.executor.schedule(delay.into(), move || {
            let now = core.now();
            if now <= due {
                return core.arm_reaper(function, due);
            }
            let aged = core.tiers().warm.expire_function(now, function);
            core.evict(aged);
        });
    }

    /// Dispatches (and drains) a window's groups onto this core, in order:
    /// each is started ([`CoreShared::start_group`]), and the runs of the
    /// warm ones go to the executor together, as one [`RunList`].
    fn dispatch_window(self: &Arc<Self>, groups: &mut Vec<(usize, Vec<RemoteJob>)>) {
        let mut runs = RunList::new(Arc::clone(self), groups.len());
        for (function, members) in groups.drain(..) {
            self.start_group(function, members, None, &mut runs);
        }
        runs.submit(&self.executor);
    }

    /// Starts one batch: container, decision, then its runs — into `runs`
    /// when the container is warm, or, after the start delay, from the
    /// timer wheel as a list of their own.
    fn start_group(
        self: &Arc<Self>,
        function: usize,
        members: Vec<RemoteJob>,
        on_done: Option<GroupDone>,
        runs: &mut RunList,
    ) {
        let (env, tier, delay) = self.acquire_container(function);
        let cold = tier == StartTier::Cold;
        let restored = tier == StartTier::Restored;
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let started_on = match tier {
            StartTier::Warm => &self.stats.warm_hits,
            StartTier::Restored => &self.stats.containers_restored,
            StartTier::Cold => &self.stats.containers_created,
        };
        started_on.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = &self.telemetry {
            tel.batch_size.record(members.len() as u64);
        }
        let batch = self.ids.next_batch();
        let container = ContainerId::new(env.id());
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::DispatchDecision {
                batch,
                function: FunctionId::new(function as u32),
                container,
                cold,
                restored,
                barrier: false,
                members: members.iter().map(|job| job.invocation).collect(),
            });
            rec.record(EventKind::TaskStart {
                task: TaskKind::Decision { batch },
            });
            rec.record(EventKind::TaskFinish {
                task: TaskKind::Decision { batch },
            });
            if tier != StartTier::Warm {
                rec.record(EventKind::ContainerStateChange {
                    container,
                    from: None,
                    to: ContainerState::Provisioning,
                });
                rec.record(if cold {
                    EventKind::ColdStartBegin {
                        container,
                        batch: Some(batch),
                    }
                } else {
                    EventKind::RestoreBegin {
                        container,
                        batch: Some(batch),
                    }
                });
            }
        }
        self.pending.enter();
        let size = members.len();
        let group = Group {
            sdk_creations_before: env.sdk.total_creations() as u64,
            env,
            function,
            batch,
            tier,
            size,
            runs_left: AtomicUsize::new(size.min(self.executor.workers()).max(1)),
            on_done: Mutex::new(on_done),
        };
        if tier == StartTier::Warm {
            group.mark_ready(self);
            return runs.push(group, members);
        }
        // A start delay rides the timer wheel: the ready events are emitted
        // in the callback *before* the runs are submitted, so
        // `ColdStartEnd`/`RestoreDone` strictly precedes every `ExecBegin`
        // of the batch.
        let core = Arc::clone(self);
        self.executor.schedule(delay, move || {
            group.mark_ready(&core);
            let mut runs = RunList::new(Arc::clone(&core), 1);
            runs.push(group, members);
            runs.submit(&core.executor);
        });
    }

    /// The three start tiers in the order, and on the structures, of the
    /// simulator's
    /// [`Cluster::acquire`](faasbatch_container::cluster::Cluster::acquire):
    /// warm-pool check-out, then snapshot lookup, then full cold boot.
    /// Returns the container, its tier and the start delay to wait out.
    fn acquire_container(&self, function: usize) -> (Arc<ContainerEnv>, StartTier, Duration) {
        let now = self.pool_stamp();
        let function = FunctionId::new(function as u32);
        let mut aged = Vec::new();
        // A warm container, or else what the snapshot cache says of a miss.
        // Its LRU needs the real time: one read, on the path that is about
        // to wait out a restore or a boot. A disabled cache is not asked.
        let checked_out = {
            let mut tiers = self.tiers();
            let warm = tiers.warm.check_out_reaping(now, function, &mut aged);
            warm.ok_or_else(|| {
                if self.snapshots {
                    tiers.snapshots.lookup(self.now(), function)
                } else {
                    None
                }
            })
        };
        self.evict(aged);
        let restore = match checked_out {
            Ok(env) => return (env, StartTier::Warm, Duration::ZERO),
            Err(restore) => restore,
        };
        let env = Arc::new(ContainerEnv {
            id: self.ids.next_container(),
            multiplexer: ResourceMultiplexer::new(),
            sdk: StorageSdk::new(self.store.clone()),
            multiplex: self.multiplex,
        });
        match restore {
            Some(latency) => (env, StartTier::Restored, latency.into()),
            None => (env, StartTier::Cold, self.cold_start_delay),
        }
    }
}

/// One dispatched batch from decision to epilogue: its container and how it
/// started. It lives in the [`RunList`] that carries its runs, and it is the
/// batch's completion count: each run holds a [`RunGuard`], and the last
/// guard to drop runs [`Group::finish`].
struct Group {
    env: Arc<ContainerEnv>,
    function: usize,
    batch: u64,
    tier: StartTier,
    size: usize,
    /// The container's SDK-creation count when the batch took it, read while
    /// the container is still exclusively checked out to it.
    sdk_creations_before: u64,
    /// Runs not yet finished; `min(size, workers)`, at least one.
    runs_left: AtomicUsize,
    on_done: Mutex<Option<GroupDone>>,
}

/// One run's share of its group's completion count, borrowed from the run's
/// list. Dropped when the run returns or unwinds — or, for a run nobody
/// claimed, when the list is dropped — so a batch always finishes exactly
/// once, after its last run.
struct RunGuard<'a> {
    core: &'a Arc<CoreShared>,
    group: &'a Group,
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        // AcqRel: the run that reaches zero sees every other run's members
        // done before it finishes the batch.
        if self.group.runs_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.group.finish(self.core);
        }
    }
}

/// Consecutive members of one batch, run back to back on one worker.
struct Run {
    /// Index of the run's batch in its list's `groups`.
    group: u32,
    /// Group index of the run's first member.
    first: u32,
    members: RunMembers,
}

/// A one-member run carries its job by value. A longer run owns an
/// exact-size slice, never the grouping buffer itself: that buffer is
/// freed on the thread that allocated it, not on a worker (EXPERIMENTS.md,
/// "Runs per worker").
enum RunMembers {
    One(RemoteJob),
    Many(Box<[RemoteJob]>),
}

/// The runs one dispatch hands a core's executor, and the batches they
/// belong to: a window's warm groups, or one cold or restored group after
/// its start delay. It is the one way runs reach the executor
/// ([`RunList::submit`]): at most `workers` tasks, each claiming the next
/// unclaimed run off `next` until none is left. A run is claimed once, so
/// every member runs once; a run that blocks or is preempted holds back
/// only its own members, as the other tasks keep claiming past it. The
/// list is one allocation per dispatch, however many groups it carries.
struct RunList {
    core: Arc<CoreShared>,
    groups: Vec<Group>,
    runs: Vec<Mutex<Option<Run>>>,
    /// Index of the next run to claim.
    next: AtomicUsize,
}

impl RunList {
    /// An empty list for about `groups` batches of `core`.
    fn new(core: Arc<CoreShared>, groups: usize) -> RunList {
        RunList {
            core,
            groups: Vec::with_capacity(groups),
            runs: Vec::with_capacity(groups),
            next: AtomicUsize::new(0),
        }
    }

    /// Adds `group` and its `min(n, workers)` contiguous runs, whose sizes
    /// differ by at most one. Each run holds its members back to back under
    /// their own group indices; the last run to end finishes the batch on
    /// its worker (no per-batch join thread).
    fn push(&mut self, mut group: Group, mut members: Vec<RemoteJob>) {
        let index = self.groups.len() as u32;
        let count = *group.runs_left.get_mut();
        let (base, longer) = (group.size / count, group.size % count);
        // One drain in member order moves every member exactly once.
        let mut rest = members.drain(..);
        let mut first = 0;
        for run in 0..count {
            let len = base + usize::from(run < longer);
            let members = if len == 1 {
                RunMembers::One(rest.next().expect("a run holds a member"))
            } else {
                RunMembers::Many(rest.by_ref().take(len).collect())
            };
            self.runs.push(Mutex::new(Some(Run {
                group: index,
                first: first as u32,
                members,
            })));
            first += len;
        }
        self.groups.push(group);
    }

    /// Spawns `min(runs, workers)` tasks on `executor` that drain the list.
    /// Runs left unclaimed when a stopping executor drops those tasks are
    /// counted down when the list drops: their batches still finish and
    /// their tickets are released.
    fn submit(self, executor: &Executor) {
        let tasks = self.runs.len().min(executor.workers());
        if tasks == 0 {
            return;
        }
        let list = Arc::new(self);
        for _ in 0..tasks {
            let list = Arc::clone(&list);
            executor.spawn(async move { list.drain() });
        }
    }

    fn drain(&self) {
        loop {
            // Relaxed: the cursor only hands out indices; a run reaches its
            // claimer through its slot's lock.
            let claimed = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.runs.get(claimed) else {
                return;
            };
            let run = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(run) = run {
                self.run(run);
            }
        }
    }

    fn run(&self, run: Run) {
        let group = &self.groups[run.group as usize];
        let _guard = RunGuard {
            core: &self.core,
            group,
        };
        match run.members {
            RunMembers::One(job) => group.run_member(&self.core, run.first, job),
            RunMembers::Many(jobs) => {
                for (member, job) in (run.first..).zip(jobs.into_vec()) {
                    group.run_member(&self.core, member, job);
                }
            }
        }
    }
}

impl Drop for RunList {
    /// Counts down the runs nobody claimed — a stopping executor dropped
    /// every task of the list before it ran. Their jobs are dropped first,
    /// which releases their tickets.
    fn drop(&mut self) {
        for slot in &mut self.runs {
            let run = slot
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(run) = run {
                let _guard = RunGuard {
                    core: &self.core,
                    group: &self.groups[run.group as usize],
                };
                drop(run.members);
            }
        }
    }
}

impl Group {
    fn container(&self) -> ContainerId {
        ContainerId::new(self.env.id())
    }

    fn function_id(&self) -> FunctionId {
        FunctionId::new(self.function as u32)
    }

    /// The container checks out to this batch: a pooled one straight from
    /// idle; a cold or restored one after its start delay elapsed, when it
    /// first becomes usable. A cold boot that completes is captured as its
    /// function's snapshot (as `Cluster::finish_cold_start` does) — after
    /// `ColdStartEnd` is recorded, so no restore begins before the boot it
    /// copies ended.
    fn mark_ready(&self, core: &CoreShared) {
        let container = self.container();
        let batch = Some(self.batch);
        if self.tier != StartTier::Warm {
            if self.tier == StartTier::Cold {
                core.emit(EventKind::ColdStartEnd { container, batch });
                if core.snapshots {
                    let (now, boot) = (core.now(), core.cold_start_delay.into());
                    core.tiers()
                        .snapshots
                        .capture(now, self.function_id(), boot);
                }
            } else {
                core.emit(EventKind::RestoreDone { container, batch });
            }
            core.emit(EventKind::ContainerStateChange {
                container,
                from: Some(ContainerState::Provisioning),
                to: ContainerState::Idle,
            });
        }
        core.emit(EventKind::ContainerStateChange {
            container,
            from: Some(ContainerState::Idle),
            to: ContainerState::Busy,
        });
    }

    /// One batch member: runs the handler with the panic boundary, reports
    /// the outcome, and emits the member's exec/completion events.
    fn run_member(&self, core: &CoreShared, member: u32, job: RemoteJob) {
        let started = Instant::now();
        core.emit(EventKind::ExecBegin {
            batch: self.batch,
            member,
            // Live handlers have no declared intrinsic work; zero makes the
            // attribution of the observed span exact.
            work: SimDuration::ZERO,
        });
        let ctx = InvocationEnv {
            payload: job.payload,
            container: &self.env,
        };
        // A user function crashing must not take down the container or
        // starve its batch siblings.
        let handler = &core.table.handlers[self.function];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| handler(&ctx)));
        core.emit(EventKind::ExecEnd {
            batch: self.batch,
            member,
        });
        let outcome = InvokeOutcome {
            queued: started.duration_since(job.enqueued),
            execution: started.elapsed(),
            cold: self.tier == StartTier::Cold,
            restored: self.tier == StartTier::Restored,
            panicked: result.is_err(),
        };
        if let Some(tel) = &core.telemetry {
            tel.in_flight.sub(1);
            tel.e2e[self.function]
                .record(u64::try_from(outcome.total().as_micros()).unwrap_or(u64::MAX));
        }
        job.reply.send(outcome);
        core.emit(EventKind::InvocationComplete {
            invocation: job.invocation,
            batch: Some(self.batch),
            member: Some(member),
        });
    }

    /// The batch epilogue, run once by its last run: fold client/invocation
    /// counters into the worker stats, release the container back to the
    /// warm pool, and (when keep-alive is on) arm the expiry timer.
    fn finish(&self, core: &Arc<CoreShared>) {
        let created = self.env.sdk.total_creations() as u64 - self.sdk_creations_before;
        core.stats
            .clients_created
            .fetch_add(created, Ordering::Relaxed);
        // Release: whoever reads this count with `Acquire` (the gateway's
        // in-flight count) also sees the admissions of these members.
        core.stats
            .invocations
            .fetch_add(self.size as u64, Ordering::Release);
        core.emit(EventKind::ContainerStateChange {
            container: self.container(),
            from: Some(ContainerState::Busy),
            to: ContainerState::Idle,
        });
        // The clock is read before the lock is taken, not under it.
        let now = core.pool_stamp();
        core.tiers()
            .warm
            .check_in(now, self.function_id(), Arc::clone(&self.env));
        if let Some(ttl) = core.keep_alive {
            core.arm_reaper(self.function_id(), now + SimDuration::from(ttl));
        }
        let on_done = self
            .on_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(on_done) = on_done {
            on_done(self.size);
        }
        core.pending.exit();
    }
}

/// One worker's container-dispatch half, with no thread of its own: warm
/// pools, start tiers and group expansion behind
/// [`DispatchCore::dispatch`], which runs on the caller's thread.
///
/// [`FaasBatchPlatform`] is one core behind a window queue; the gateway
/// holds a fleet of them ([`DispatchCore::fleet`]) and dispatches from its
/// shard threads. Dropping a core waits for its in-flight groups.
pub struct DispatchCore {
    shared: Arc<CoreShared>,
}

impl fmt::Debug for DispatchCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DispatchCore")
            .field("functions", &self.shared.table.names.len())
            .finish()
    }
}

impl DispatchCore {
    /// Builds `workers` cores from one builder: they share its function
    /// table, executor, id counters, recorder, clock and telemetry, and each
    /// keeps its own warm pool, snapshot cache and stats. The builder's
    /// dispatch window is not used — a core never windows.
    pub fn fleet(builder: PlatformBuilder, workers: usize) -> Vec<DispatchCore> {
        let table = Arc::new(FunctionTable::new(builder.functions));
        let stats: Vec<Arc<PlatformStats>> = (0..workers).map(|_| Arc::default()).collect();
        let telemetry = builder
            .telemetry
            .map(|registered| Arc::new(registered.attach(stats.clone(), &table)));
        let executor = builder.executor.unwrap_or_else(global_executor);
        let ids = builder.ids.unwrap_or_default();
        let origin = Instant::now();
        let keep_alive = builder
            .keep_alive
            .map_or(SimDuration::MAX, SimDuration::from);
        let restore = builder.restore_delay.into();
        let snapshots = SnapshotConfig {
            capacity: builder.snapshots,
            eviction: EvictionPolicy::Lru,
            model: RestoreModel::new(restore, restore, 0.0).expect("a point is a valid band"),
        };
        stats
            .into_iter()
            .map(|stats| DispatchCore {
                shared: Arc::new(CoreShared {
                    table: Arc::clone(&table),
                    multiplex: builder.multiplex,
                    cold_start_delay: builder.cold_start_delay,
                    keep_alive: builder.keep_alive,
                    snapshots: snapshots.enabled(),
                    store: builder.store.clone(),
                    executor: Arc::clone(&executor),
                    recorder: builder.recorder.clone(),
                    origin,
                    telemetry: telemetry.clone(),
                    ids: Arc::clone(&ids),
                    stats,
                    tiers: Mutex::new(Tiers {
                        warm: WarmPool::new(keep_alive),
                        snapshots: SnapshotCache::new(snapshots.clone()),
                    }),
                    pending: PendingGroups::default(),
                }),
            })
            .collect()
    }

    /// Dispatches this core's share of one dispatch window — `(function,
    /// members)` groups, each non-empty, `function` an index into
    /// [`DispatchCore::functions`] — on the caller's thread, each group as
    /// **one** batch, draining `groups` (the caller keeps its buffer for the
    /// next window): when this returns, every container is acquired, every
    /// `DispatchDecision` is recorded in `groups` order, and the warm
    /// groups' runs are on the executor as one list pulled by at most
    /// `workers` tasks (the others are on their cold/restore timers).
    ///
    /// The caller already collected the window, so nothing here can merge
    /// or split a group. It is also responsible for the members' `Arrival`
    /// events, minting invocation ids from the shared [`PlatformIds`]; the
    /// core emits everything from the dispatch decision on.
    pub fn dispatch_window(&self, groups: &mut Vec<(usize, Vec<RemoteJob>)>) {
        if let Some(tel) = &self.shared.telemetry {
            let members: usize = groups.iter().map(|(_, members)| members.len()).sum();
            tel.in_flight.add(members as i64);
        }
        self.shared.dispatch_window(groups);
    }

    /// Dispatches `members` (non-empty) as **one** batch of `function`, a
    /// one-group [`DispatchCore::dispatch_window`]. `on_done` runs once the
    /// whole group finished, with the batch size.
    pub fn dispatch(&self, function: usize, members: Vec<RemoteJob>, on_done: Option<GroupDone>) {
        if let Some(tel) = &self.shared.telemetry {
            tel.in_flight.add(members.len() as i64);
        }
        let mut runs = RunList::new(Arc::clone(&self.shared), 1);
        self.shared
            .start_group(function, members, on_done, &mut runs);
        runs.submit(&self.shared.executor);
    }

    /// Wall time as a µs-since-origin [`SimTime`] — the stamp this core's
    /// warm pool and snapshot cache age by, and the one the gateway routes
    /// at. The attached recorder's clock ([`LiveTraceRecorder::now`]), so
    /// decisions and trace share a timeline; without one, time since the
    /// fleet was built.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Blocks until every group dispatched so far has completed — cold ones
    /// parked on the timer wheel included.
    pub fn wait_idle(&self) {
        self.shared.pending.wait_idle();
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &PlatformStats {
        &self.shared.stats
    }

    /// The function table this core dispatches from.
    pub fn functions(&self) -> &Arc<FunctionTable> {
        &self.shared.table
    }
}

impl Drop for DispatchCore {
    fn drop(&mut self) {
        self.wait_idle();
    }
}

/// The running live platform. Dropping it drains in-flight work and joins
/// the window thread.
#[derive(Debug)]
pub struct FaasBatchPlatform {
    queue: Arc<WindowQueue>,
    window_thread: Option<JoinHandle<()>>,
    core: DispatchCore,
}

impl FaasBatchPlatform {
    /// Submits an invocation of `function` with `payload`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownFunction`] if the name is not registered;
    /// [`PlatformError::ShuttingDown`] if the platform is stopping.
    pub fn invoke(&self, function: &str, payload: Bytes) -> Result<InvokeTicket, PlatformError> {
        let shared = &self.core.shared;
        let idx = shared
            .table
            .index_of(function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.to_owned()))?;
        let invocation = shared.ids.next_invocation();
        shared.emit(EventKind::Arrival {
            invocation,
            function: FunctionId::new(idx as u32),
        });
        if let Some(tel) = &shared.telemetry {
            tel.in_flight.add(1);
        }
        let (job, ticket) = RemoteJob::new(invocation, payload);
        if self.queue.try_push_job(idx, job, || {}).is_err() {
            if let Some(tel) = &shared.telemetry {
                tel.in_flight.sub(1);
            }
            return Err(PlatformError::ShuttingDown);
        }
        Ok(ticket)
    }

    /// Submits a pre-formed batch of `function` (a registry index) for
    /// immediate dispatch as **one** batch, bypassing this platform's own
    /// dispatch window — [`DispatchCore::dispatch`] behind a bounds check.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownFunction`] if `function` is out of range.
    pub fn submit_group(
        &self,
        function: usize,
        members: Vec<RemoteJob>,
        on_done: Option<GroupDone>,
    ) -> Result<(), PlatformError> {
        if function >= self.functions().len() {
            return Err(PlatformError::UnknownFunction(format!("fn#{function}")));
        }
        if members.is_empty() {
            if let Some(on_done) = on_done {
                on_done(0);
            }
            return Ok(());
        }
        self.core.dispatch(function, members, on_done);
        Ok(())
    }

    /// The id counters this platform mints from ([`PlatformBuilder::ids`]).
    pub fn ids(&self) -> &Arc<PlatformIds> {
        &self.core.shared.ids
    }

    /// Blocks until every invocation submitted so far has completed: ends
    /// the current window early, then waits for every dispatched group.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ShuttingDown`] if the platform is stopping.
    pub fn drain(&self) -> Result<(), PlatformError> {
        self.queue
            .flush()
            .recv()
            .map_err(|_| PlatformError::ShuttingDown)?;
        self.core.wait_idle();
        Ok(())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &PlatformStats {
        self.core.stats()
    }

    /// Registered function names, in registration order.
    pub fn functions(&self) -> &[String] {
        self.core.functions().names()
    }
}

impl Drop for FaasBatchPlatform {
    fn drop(&mut self) {
        // The window thread exits after a final drain-and-dispatch pass;
        // dropping `core` afterwards waits for the groups it dispatched.
        self.queue.close();
        if let Some(h) = self.window_thread.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_exec::ExecutorConfig;
    use faasbatch_metrics::analysis::AttributionEngine;
    use faasbatch_metrics::events::{AuditorSink, RecordReducer, SimEvent, TraceSink};
    use faasbatch_metrics::latency::{InvocationRecord, LatencyBreakdown};
    use std::sync::atomic::AtomicUsize;

    /// The records a live trace reduces to, each checked to be the
    /// four-part projection of its exact eleven-phase attribution.
    fn projected_records(trace: &[SimEvent]) -> Vec<InvocationRecord> {
        let mut reducer = RecordReducer::new();
        let mut engine = AttributionEngine::new();
        for event in trace {
            reducer.on_event(event);
            engine.record(event);
        }
        let report = engine.finish();
        assert_eq!((report.skipped, report.unfinished), (0, 0));
        let records = reducer.finish().records;
        for record in &records {
            let a = report.get(record.id).expect("record is attributed");
            assert!(a.is_exact(), "{a:?}");
            assert_eq!(record.latency, LatencyBreakdown::from(&a.phases));
            assert_eq!(Some(*record), a.record());
        }
        records
    }

    fn assert_audits_clean(trace: &[SimEvent]) {
        let mut auditor = AuditorSink::new();
        for event in trace {
            auditor.record(event);
        }
        assert!(
            auditor.finish().is_empty(),
            "trace has violations: {:?}",
            auditor.finish()
        );
    }

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
        assert_audits_clean(&trace);
        assert_eq!(projected_records(&trace).len(), 13);
    }

    #[test]
    fn submit_group_has_dispatched_when_it_returns() {
        let recorder = LiveTraceRecorder::new();
        // A window no test outlives: nothing here can be the window
        // thread's doing.
        let platform = PlatformBuilder::new()
            .window(Duration::from_secs(3600))
            .cold_start_delay(Duration::from_millis(1))
            .trace(recorder.clone())
            .register("noop", |_env| {})
            .start();
        let (members, tickets): (Vec<_>, Vec<_>) = (0..3)
            .map(|_| RemoteJob::new(platform.ids().next_invocation(), Bytes::new()))
            .unzip();
        let expected: Vec<InvocationId> = members.iter().map(RemoteJob::invocation).collect();
        platform.submit_group(0, members, None).unwrap();
        // No drain, no wait: the decision is already made and recorded.
        assert_eq!(platform.stats().batches.load(Ordering::Relaxed), 1);
        assert_eq!(
            platform.stats().containers_created.load(Ordering::Relaxed),
            1
        );
        let decided = recorder.take_trace().into_iter().any(|e| {
            matches!(e.kind, EventKind::DispatchDecision { members, .. } if members == expected)
        });
        assert!(
            decided,
            "DispatchDecision must precede submit_group's return"
        );
        for ticket in tickets {
            assert!(ticket.wait().cold);
        }
        assert_eq!(
            platform.submit_group(1, Vec::new(), None).unwrap_err(),
            PlatformError::UnknownFunction("fn#1".into())
        );
    }

    #[test]
    #[should_panic(expected = "invocation dropped by platform")]
    fn a_job_dropped_unrun_releases_its_ticket() {
        let (job, ticket) = RemoteJob::new(InvocationId::new(0), Bytes::new());
        drop(job);
        ticket.wait();
    }

    #[test]
    fn drain_ends_the_window_early() {
        let platform = PlatformBuilder::new()
            .window(Duration::from_secs(5))
            .cold_start_delay(Duration::from_millis(1))
            .register("noop", |_env| {})
            .start();
        let started = Instant::now();
        let tickets: Vec<_> = (0..3)
            .map(|_| platform.invoke("noop", Bytes::new()).unwrap())
            .collect();
        platform.drain().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "drain waited out the window: {:?}",
            started.elapsed()
        );
        for ticket in tickets {
            ticket.wait();
        }
        assert_eq!(platform.stats().batches.load(Ordering::Relaxed), 1);
        assert_eq!(platform.stats().invocations.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn two_thousand_names_resolve_through_the_table() {
        let mut builder = PlatformBuilder::new()
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::ZERO);
        for f in 0..2_048 {
            builder = builder.register(&format!("fn-{f}"), |_env| {});
        }
        // A repeated name keeps resolving to its first registration.
        let platform = builder.register("fn-7", |_env| panic!("shadowed")).start();
        assert_eq!(platform.functions().len(), 2_049);
        let tickets: Vec<_> = [0, 7, 1_024, 2_047]
            .iter()
            .map(|f| platform.invoke(&format!("fn-{f}"), Bytes::new()).unwrap())
            .collect();
        for ticket in tickets {
            assert!(!ticket.wait().panicked);
        }
        assert_eq!(
            platform.invoke("fn-2048", Bytes::new()).unwrap_err(),
            PlatformError::UnknownFunction("fn-2048".into())
        );
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
        assert_audits_clean(&trace);
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::RestoreBegin { .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::RestoreDone { .. })));
        let records = projected_records(&trace);
        let restored: Vec<_> = records.iter().filter(|r| r.restored).collect();
        assert_eq!(restored.len(), 1, "one invocation rode the restore tier");
        assert!(!restored[0].cold);
        assert!(
            !restored[0].latency.cold_start.is_zero(),
            "the restore span lands in the cold_start component"
        );
        assert!(restored[0].is_consistent());
    }

    /// Dispatches one single-member group of function 0, as a front door
    /// would (the `Arrival` is the caller's to record), and returns its
    /// ticket.
    fn dispatch_one(core: &DispatchCore, ids: &PlatformIds) -> InvokeTicket {
        let invocation = ids.next_invocation();
        core.shared.emit(EventKind::Arrival {
            invocation,
            function: FunctionId::new(0),
        });
        let (job, ticket) = RemoteJob::new(invocation, Bytes::new());
        core.dispatch(0, vec![job], None);
        ticket
    }

    #[test]
    fn a_restore_never_precedes_the_boot_it_copies() {
        let recorder = LiveTraceRecorder::new();
        let ids = Arc::new(PlatformIds::new());
        let core = DispatchCore::fleet(
            PlatformBuilder::new()
                .cold_start_delay(Duration::from_millis(60))
                .restore_delay(Duration::from_millis(1))
                .snapshots(4)
                .keep_alive(Duration::from_millis(20))
                .ids(Arc::clone(&ids))
                .trace(recorder.clone())
                .register("noop", |_env| {}),
            1,
        )
        .pop()
        .expect("one core");
        // Two pool misses inside one cold-start delay: the first boot has
        // not finished, so there is nothing to restore the second from.
        let first = dispatch_one(&core, &ids);
        let second = dispatch_one(&core, &ids);
        for outcome in [first.wait(), second.wait()] {
            assert!(outcome.cold && !outcome.restored, "{outcome:?}");
        }
        assert_eq!(core.stats().containers_restored.load(Ordering::Relaxed), 0);
        core.wait_idle();
        // Both boots completed and both containers aged out: now there is.
        std::thread::sleep(Duration::from_millis(120));
        let third = dispatch_one(&core, &ids).wait();
        assert!(third.restored && !third.cold, "{third:?}");
        core.wait_idle();
        assert_eq!(core.stats().containers_evicted.load(Ordering::Relaxed), 2);

        let trace = recorder.take_trace();
        assert_audits_clean(&trace);
        let position = |wanted: fn(&EventKind) -> bool| {
            trace
                .iter()
                .position(|e| wanted(&e.kind))
                .expect("event recorded")
        };
        assert!(
            position(|k| matches!(k, EventKind::ColdStartEnd { .. }))
                < position(|k| matches!(k, EventKind::RestoreBegin { .. })),
            "the restore began before any boot had ended"
        );
    }

    /// The keep-alive timer is late (the wheel's driver thread is held up),
    /// so a check-out is what finds the container's age: it must still be
    /// counted and terminated, and the late timer must not count it again.
    #[test]
    fn a_container_aged_out_at_check_out_is_evicted_like_any_other() {
        let recorder = LiveTraceRecorder::new();
        let ids = Arc::new(PlatformIds::new());
        let exec = Executor::new(ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        });
        let core = DispatchCore::fleet(
            PlatformBuilder::new()
                .cold_start_delay(Duration::ZERO)
                .keep_alive(Duration::from_millis(30))
                .executor(Arc::clone(&exec))
                .ids(Arc::clone(&ids))
                .trace(recorder.clone())
                .register("noop", |_env| {}),
            1,
        )
        .pop()
        .expect("one core");
        assert!(dispatch_one(&core, &ids).wait().cold);
        core.wait_idle();
        let (release, held) = std::sync::mpsc::channel::<()>();
        exec.schedule(Duration::ZERO, move || {
            let _ = held.recv();
        });
        std::thread::sleep(Duration::from_millis(80));
        let evicted = || core.stats().containers_evicted.load(Ordering::Relaxed);
        assert_eq!(evicted(), 0, "the timer is stuck behind the held callback");
        let again = dispatch_one(&core, &ids);
        assert_eq!(evicted(), 1, "the check-out met an aged container");
        let terminated = |trace: &[SimEvent]| {
            trace
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::ContainerStateChange {
                            to: ContainerState::Terminated,
                            ..
                        }
                    )
                })
                .count()
        };
        let mut trace = recorder.take_trace();
        assert_eq!(terminated(&trace), 1);
        release.send(()).expect("the driver thread is waiting");
        assert!(again.wait().cold, "an aged container is never reused");
        core.wait_idle();
        // Past the stale timer and the second container's own.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(evicted(), 2, "one eviction per container, no more");
        trace.extend(recorder.take_trace());
        assert_eq!(terminated(&trace), 2);
        assert_audits_clean(&trace);
    }

    /// The timer wheel fires a timer whenever its driver wakes in the
    /// deadline's tick, and an unrelated earlier timer re-phases that wake:
    /// it can come up to one tick before the delay asked for. A TTL that is
    /// no multiple of the tick must still evict with no later traffic to
    /// find the aged container. Here: a 20 ms tick, a check-in ~10 ms into
    /// a tick with a 39 ms TTL (deadline two ticks on), and one unrelated
    /// timer ~2 ms into the next tick — the reaper fires ~7 ms early.
    #[test]
    fn keep_alive_that_is_no_multiple_of_the_timer_tick_still_evicts() {
        let tick_us = 20_000;
        let ids = Arc::new(PlatformIds::new());
        let wheel_start = Instant::now();
        let exec = Executor::new(ExecutorConfig {
            workers: 2,
            timer_tick: Duration::from_micros(tick_us),
            ..ExecutorConfig::default()
        });
        let core = DispatchCore::fleet(
            PlatformBuilder::new()
                .cold_start_delay(Duration::ZERO)
                .keep_alive(Duration::from_millis(39))
                .executor(Arc::clone(&exec))
                .ids(Arc::clone(&ids))
                .register("noop", |_env| {}),
            1,
        )
        .pop()
        .expect("one core");
        let evicted = || core.stats().containers_evicted.load(Ordering::Relaxed);
        for round in 1..=2 {
            // Sleep to the middle of a tick.
            let phase = wheel_start.elapsed().as_micros() as u64 % tick_us;
            std::thread::sleep(Duration::from_micros((tick_us * 3 / 2 - phase) % tick_us));
            assert!(dispatch_one(&core, &ids).wait().cold);
            core.wait_idle();
            std::thread::sleep(Duration::from_millis(12));
            exec.schedule(Duration::ZERO, || {});
            let deadline = Instant::now() + Duration::from_secs(2);
            while evicted() < round {
                assert!(
                    Instant::now() < deadline,
                    "container {round} outlived its keep-alive with no timer left to reap it"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(evicted(), 2);
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

    /// `Σ min(size, workers)` over the batches `trace` dispatched: the most
    /// executor tasks they may spawn, at most one run per worker each.
    fn most_runs(trace: &[SimEvent], workers: usize) -> u64 {
        trace
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::DispatchDecision { members, .. } => {
                    Some(members.len().min(workers) as u64)
                }
                _ => None,
            })
            .sum()
    }

    #[test]
    fn seeded_executor_platform_is_usable() {
        let exec = Executor::new(ExecutorConfig {
            workers: 4,
            seed: 2024,
            ..ExecutorConfig::default()
        });
        let recorder = LiveTraceRecorder::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(10))
            .cold_start_delay(Duration::from_millis(1))
            .executor(Arc::clone(&exec))
            .trace(recorder.clone())
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
        let batches = platform.stats().batches.load(Ordering::Relaxed);
        drop(platform);
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        let spawned = exec.metrics().spawned_total;
        let most = most_runs(&recorder.take_trace(), exec.workers());
        assert!(
            batches <= spawned && spawned <= most,
            "batches ran on this pool as runs: {batches} <= {spawned} <= {most}"
        );
    }

    /// A platform on `exec` whose window no test outlives, and the log of
    /// its one function: the group index each run member carried (its
    /// payload, [`indexed_jobs`]), in execution order. It panics on
    /// `panic_on`.
    fn recording_platform(
        exec: &Arc<Executor>,
        panic_on: Option<u32>,
    ) -> (FaasBatchPlatform, Arc<Mutex<Vec<u32>>>) {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&ran);
        let platform = PlatformBuilder::new()
            .window(Duration::from_secs(3600))
            .cold_start_delay(Duration::ZERO)
            .executor(Arc::clone(exec))
            .register("record", move |env| {
                let member = u32::from_le_bytes(env.payload[..4].try_into().unwrap());
                log.lock().unwrap().push(member);
                if Some(member) == panic_on {
                    panic!("member {member} crashed");
                }
            })
            .start();
        (platform, ran)
    }

    /// `size` jobs whose payload is their group index, and their tickets.
    fn indexed_jobs(ids: &PlatformIds, size: usize) -> (Vec<RemoteJob>, Vec<InvokeTicket>) {
        (0..size as u32)
            .map(|i| RemoteJob::new(ids.next_invocation(), Bytes::from(i.to_le_bytes().to_vec())))
            .unzip()
    }

    #[test]
    fn a_group_expands_into_at_most_one_run_per_worker() {
        let exec = Executor::new(ExecutorConfig {
            workers: 4,
            seed: 28,
            ..ExecutorConfig::default()
        });
        let (platform, ran) = recording_platform(&exec, None);
        for (size, tasks) in [(1, 1), (3, 3), (4, 4), (1_000, 4)] {
            ran.lock().unwrap().clear();
            let before = exec.metrics().spawned_total;
            let (members, tickets) = indexed_jobs(platform.ids(), size);
            platform.submit_group(0, members, None).unwrap();
            for ticket in tickets {
                assert!(!ticket.wait().panicked, "group of {size}");
            }
            platform.drain().unwrap();
            assert_eq!(
                exec.metrics().spawned_total - before,
                tasks,
                "group of {size}"
            );
            let mut ran = std::mem::take(&mut *ran.lock().unwrap());
            ran.sort_unstable();
            assert_eq!(
                ran,
                (0..size as u32).collect::<Vec<_>>(),
                "every member of {size} ran once"
            );
        }
        assert_eq!(platform.stats().invocations.load(Ordering::Relaxed), 1_008);
    }

    #[test]
    fn a_panicking_member_fails_alone_and_its_run_goes_on() {
        let exec = Executor::new(ExecutorConfig {
            workers: 2,
            seed: 28,
            ..ExecutorConfig::default()
        });
        let (platform, ran) = recording_platform(&exec, Some(2));
        let done = Arc::new(Mutex::new(Vec::new()));
        let on_done = {
            let done = Arc::clone(&done);
            Box::new(move |size| done.lock().unwrap().push(size))
        };
        let (members, tickets) = indexed_jobs(platform.ids(), 10);
        platform.submit_group(0, members, Some(on_done)).unwrap();
        let panicked: Vec<bool> = tickets.into_iter().map(|t| t.wait().panicked).collect();
        platform.drain().unwrap();
        let expected: Vec<bool> = (0..10).map(|member| member == 2).collect();
        assert_eq!(panicked, expected);
        // Two runs of five: members 3 and 4 follow the crash in its run.
        let ran = ran.lock().unwrap().clone();
        let first_run: Vec<u32> = ran.iter().copied().filter(|&m| m < 5).collect();
        assert_eq!(first_run, [0, 1, 2, 3, 4]);
        assert_eq!(ran.len(), 10);
        assert_eq!(*done.lock().unwrap(), [10], "on_done fires once");
        assert_eq!(exec.metrics().spawned_total, 2);
    }

    /// A batch is its own completion count: whichever run ends last
    /// finishes it, once, after every member's handler ran and its reply
    /// landed — for groups smaller than, as large as and larger than the
    /// pool.
    #[test]
    fn a_batch_finishes_once_after_its_last_run() {
        for workers in [1, 2, 4] {
            let exec = Executor::new(ExecutorConfig {
                workers,
                seed: 32,
                ..ExecutorConfig::default()
            });
            let ran = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&ran);
            let platform = PlatformBuilder::new()
                .window(Duration::from_secs(3600))
                .cold_start_delay(Duration::ZERO)
                .executor(Arc::clone(&exec))
                .register("count", move |_env| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
                .start();
            let sizes = [1, workers - 1, workers, workers + 1, 1_000];
            // Per group: (size passed to `on_done`, handlers run by then,
            // replies landed by then).
            let finished = Arc::new(Mutex::new(Vec::new()));
            for size in sizes {
                let before = ran.load(Ordering::SeqCst);
                let (members, tickets) = indexed_jobs(platform.ids(), size);
                let slots: Vec<Arc<ReplySlot>> =
                    tickets.iter().map(|t| Arc::clone(&t.slot)).collect();
                let (ran, finished) = (Arc::clone(&ran), Arc::clone(&finished));
                let on_done: GroupDone = Box::new(move |n| {
                    let replied = slots.iter().filter(|s| s.lock().outcome.is_some()).count();
                    let handled = ran.load(Ordering::SeqCst) - before;
                    finished.lock().unwrap().push((n, handled, replied));
                });
                platform.submit_group(0, members, Some(on_done)).unwrap();
                platform.drain().unwrap();
                for ticket in tickets {
                    assert!(!ticket.wait().panicked, "group of {size}");
                }
            }
            let expected: Vec<_> = sizes.iter().map(|&n| (n, n, n)).collect();
            assert_eq!(*finished.lock().unwrap(), expected, "{workers} workers");
            assert_eq!(
                platform.stats().invocations.load(Ordering::Relaxed),
                sizes.iter().sum::<usize>() as u64,
                "{workers} workers"
            );
        }
    }

    /// A platform on `exec` whose window no test outlives, with `functions`
    /// functions `f0`, `f1`, … running `handler`, each function warmed by
    /// one invocation (and so one cold group) of its own.
    fn warmed_platform(
        exec: &Arc<Executor>,
        functions: usize,
        handler: impl Fn(usize) + Send + Sync + 'static,
    ) -> FaasBatchPlatform {
        let handler = Arc::new(handler);
        let mut builder = PlatformBuilder::new()
            .window(Duration::from_secs(3600))
            .cold_start_delay(Duration::ZERO)
            .executor(Arc::clone(exec));
        for f in 0..functions {
            let handler = Arc::clone(&handler);
            builder = builder.register(&format!("f{f}"), move |env| {
                if !env.payload.is_empty() {
                    handler(f);
                }
            });
        }
        let platform = builder.start();
        let warming: Vec<_> = (0..functions)
            .map(|f| platform.invoke(&format!("f{f}"), Bytes::new()).unwrap())
            .collect();
        platform.drain().unwrap();
        for ticket in warming {
            assert!(ticket.wait().cold);
        }
        platform
    }

    /// One window of warm one-member groups A, B and C on two workers,
    /// where A's handler waits for B's: a static split of the window's
    /// runs (A, B | C) would hold B behind A forever. Pulled from one list,
    /// the second task claims B while the first is blocked in A.
    #[test]
    fn a_blocked_member_does_not_hold_back_its_window() {
        let exec = Executor::new(ExecutorConfig {
            workers: 2,
            seed: 33,
            ..ExecutorConfig::default()
        });
        let b_ran = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let flag = Arc::clone(&b_ran);
        let platform = warmed_platform(&exec, 3, move |f| {
            let (ran, cvar) = &*flag;
            match f {
                0 => {
                    let ran = ran.lock().unwrap();
                    let (ran, _) = cvar
                        .wait_timeout_while(ran, Duration::from_secs(10), |ran| !*ran)
                        .unwrap();
                    assert!(*ran, "A waited 10 s for B: B is stuck behind A");
                }
                1 => {
                    *ran.lock().unwrap() = true;
                    cvar.notify_all();
                }
                _ => {}
            }
        });
        let tickets: Vec<_> = ["f0", "f1", "f2"]
            .iter()
            .map(|f| platform.invoke(f, Bytes::from_static(b"x")).unwrap())
            .collect();
        platform.drain().unwrap();
        for (f, ticket) in ["A", "B", "C"].iter().zip(tickets) {
            let outcome = ticket.wait();
            assert!(!outcome.cold && !outcome.panicked, "{f}: {outcome:?}");
        }
        assert_eq!(platform.stats().warm_hits.load(Ordering::Relaxed), 3);
    }

    /// A window of 64 warm one-member groups reaches the executor as one
    /// run list: at most one task per worker, however many groups.
    #[test]
    fn a_window_spawns_at_most_one_task_per_worker() {
        const FUNCTIONS: usize = 64;
        for workers in [1, 2, 4] {
            let exec = Executor::new(ExecutorConfig {
                workers,
                seed: 33,
                ..ExecutorConfig::default()
            });
            let ran: Arc<Vec<AtomicUsize>> =
                Arc::new((0..FUNCTIONS).map(|_| AtomicUsize::new(0)).collect());
            let counts = Arc::clone(&ran);
            let platform = warmed_platform(&exec, FUNCTIONS, move |f| {
                counts[f].fetch_add(1, Ordering::Relaxed);
            });
            let invocations = platform.stats().invocations.load(Ordering::Relaxed);
            let spawned = exec.metrics().spawned_total;
            let tickets: Vec<_> = (0..FUNCTIONS)
                .map(|f| {
                    let ticket = platform.invoke(&format!("f{f}"), Bytes::from_static(b"x"));
                    ticket.unwrap()
                })
                .collect();
            platform.drain().unwrap();
            let spawned = exec.metrics().spawned_total - spawned;
            assert!(
                spawned <= workers as u64,
                "{FUNCTIONS} groups on {workers} workers spawned {spawned} tasks"
            );
            for ticket in tickets {
                let outcome = ticket.wait();
                assert!(!outcome.cold && !outcome.panicked, "{outcome:?}");
            }
            let ran: Vec<usize> = ran.iter().map(|n| n.load(Ordering::Relaxed)).collect();
            assert_eq!(ran, vec![1; FUNCTIONS], "{workers} workers");
            assert_eq!(
                platform.stats().invocations.load(Ordering::Relaxed) - invocations,
                FUNCTIONS as u64,
                "{workers} workers"
            );
        }
    }

    /// A window's list whose tasks a stopped executor drops before any of
    /// them ran: the list counts every unclaimed run down as it drops, so
    /// every batch still finishes exactly once, `wait_idle` returns, every
    /// member is counted and every ticket is released, unrun.
    #[test]
    fn a_list_an_executor_drops_unclaimed_still_finishes_its_batches() {
        for workers in [1, 2, 4] {
            let exec = Executor::new(ExecutorConfig {
                workers,
                seed: 35,
                ..ExecutorConfig::default()
            });
            let sizes = [1, workers, workers + 1, 100];
            // Dropped by hand once every check passed: a batch left
            // unfinished would hang the platform's drop, and so the test,
            // instead of failing it.
            let platform = std::mem::ManuallyDrop::new(warmed_platform(&exec, sizes.len(), |_| {
                panic!("no member of the dropped list may run")
            }));
            let shared = &platform.core.shared;
            let invocations = platform.stats().invocations.load(Ordering::Relaxed);
            let stopped = Executor::new(ExecutorConfig {
                workers,
                seed: 35,
                ..ExecutorConfig::default()
            });
            stopped.shutdown();
            let finished = Arc::new(Mutex::new(Vec::new()));
            let mut runs = RunList::new(Arc::clone(shared), sizes.len());
            let mut tickets = Vec::new();
            for (function, size) in sizes.into_iter().enumerate() {
                let (members, group_tickets) = indexed_jobs(platform.ids(), size);
                tickets.extend(group_tickets);
                let finished = Arc::clone(&finished);
                let on_done: GroupDone =
                    Box::new(move |n| finished.lock().unwrap().push((function, n)));
                shared.start_group(function, members, Some(on_done), &mut runs);
            }
            runs.submit(&stopped);
            assert!(finished.lock().unwrap().is_empty(), "{workers} workers");
            assert_eq!(
                stopped.metrics().spawned_total,
                workers as u64,
                "{workers} workers"
            );
            // The last handle goes: the executor drops its queued tasks, and
            // with them the list, on this thread.
            drop(stopped);
            let mut finished = finished.lock().unwrap().clone();
            finished.sort_unstable();
            let expected: Vec<_> = sizes.into_iter().enumerate().collect();
            assert_eq!(finished, expected, "once per batch; {workers} workers");
            platform.core.wait_idle();
            assert_eq!(
                platform.stats().invocations.load(Ordering::Relaxed) - invocations,
                sizes.iter().sum::<usize>() as u64,
                "{workers} workers"
            );
            for ticket in tickets {
                let outcome = ticket.slot.lock().outcome;
                assert_eq!(outcome, Some(None), "released unrun; {workers} workers");
            }
            drop(std::mem::ManuallyDrop::into_inner(platform));
        }
    }

    #[test]
    fn traced_runs_keep_every_members_index_and_attribute_exactly() {
        const GROUPS: usize = 3;
        const SIZE: usize = 64;
        const WORKERS: usize = 4;
        let recorder = LiveTraceRecorder::new();
        let ids = Arc::new(PlatformIds::new());
        let exec = Executor::new(ExecutorConfig {
            workers: WORKERS,
            seed: 28,
            ..ExecutorConfig::default()
        });
        let core = DispatchCore::fleet(
            PlatformBuilder::new()
                .cold_start_delay(Duration::from_millis(1))
                .executor(Arc::clone(&exec))
                .ids(Arc::clone(&ids))
                .trace(recorder.clone())
                .register("noop", |_env| {}),
            1,
        )
        .pop()
        .expect("one core");
        // One cold group, then warm ones.
        for _ in 0..GROUPS {
            let (members, tickets) = indexed_jobs(&ids, SIZE);
            for job in &members {
                core.shared.emit(EventKind::Arrival {
                    invocation: job.invocation(),
                    function: FunctionId::new(0),
                });
            }
            core.dispatch(0, members, None);
            for ticket in tickets {
                ticket.wait();
            }
            core.wait_idle();
        }
        assert_eq!(exec.metrics().spawned_total, (GROUPS * WORKERS) as u64);
        let trace = recorder.take_trace();
        assert_audits_clean(&trace);
        assert_eq!(projected_records(&trace).len(), GROUPS * SIZE);

        let mut decisions = 0;
        for event in &trace {
            let EventKind::DispatchDecision { batch, members, .. } = &event.kind else {
                continue;
            };
            decisions += 1;
            let begun: Vec<u32> = trace
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::ExecBegin {
                        batch: b, member, ..
                    } if b == *batch => Some(member),
                    _ => None,
                })
                .collect();
            let mut sorted = begun.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..SIZE as u32).collect::<Vec<_>>(), "once each");
            // Four runs of 16, each in member order on its worker.
            for run in sorted.chunks(SIZE / WORKERS) {
                let in_run: Vec<u32> = begun.iter().copied().filter(|m| run.contains(m)).collect();
                assert_eq!(in_run, run, "batch {batch}");
            }
            // A member's index names its invocation in the decision.
            for e in &trace {
                if let EventKind::InvocationComplete {
                    invocation,
                    batch: Some(b),
                    member: Some(member),
                } = e.kind
                {
                    if b == *batch {
                        assert_eq!(members[member as usize], invocation);
                    }
                }
            }
        }
        assert_eq!(decisions, GROUPS);
    }
}
