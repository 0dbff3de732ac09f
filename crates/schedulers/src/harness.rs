//! The shared execution harness: mechanism for every scheduling policy.
//!
//! [`run_simulation`] replays a [`Workload`] under one [`Policy`] on a
//! simulated worker and produces a [`RunReport`]. The harness owns all
//! *mechanism* so that policies differ only in *decisions*:
//!
//! * arrivals are injected at their trace timestamps;
//! * each [`DispatchRequest`] first pays a
//!   decision/launch cost on the container daemon (a capped CPU group —
//!   per-invocation provisioning therefore queues up under bursts, the
//!   root cause of Vanilla's and SFS's scheduling-latency explosion);
//! * cold starts run their two phases (image latency, then runtime-boot CPU
//!   inside the container's group) before the batch executes; a pre-warm
//!   boots through the same pipeline and only parks its container elsewhere;
//! * I/O-function bodies request a storage client first: creations are
//!   serialized per container with Fig. 4's contention-scaled cost, and a
//!   per-container *resource multiplexer* (FaaSBatch only) caches instances
//!   by hashed creation args with single-flight semantics.
//!
//! Every step of that mechanism is *emitted* as a typed
//! [`SimEvent`] into a pluggable
//! [`TraceSink`]: the harness keeps no parallel counters. Invocation
//! records, host samples, and client statistics are all derived from the
//! stream by a [`RecordReducer`] folding alongside the sink, so what a
//! report claims and what a trace shows cannot drift apart
//! (DESIGN.md §11). [`run_simulation_traced`] exposes the stream;
//! [`run_simulation`] wires in the zero-cost no-op sink. A run whose
//! [`SimConfig::autoscaler`] is set folds the same stream into its
//! controller and applies the controller's actions at the sampler tick
//! (DESIGN.md §12); the sink only observes.

use crate::config::SimConfig;
use crate::policy::{Completion, Ctx, DispatchRequest, ExecMode, Policy};
use faasbatch_container::cluster::{Acquired, Cluster};
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_container::spec::ContainerSpec;
use faasbatch_metrics::autoscaler::{Autoscaler, PrewarmTier, ScaleAction};
use faasbatch_metrics::events::{
    EventKind, NoopSink, RecordReducer, SimEvent, TaskKind, TraceSink,
};
use faasbatch_metrics::latency::InvocationRecord;
use faasbatch_metrics::report::RunReport;
use faasbatch_simcore::cpu::{CpuGroupId, CpuTaskId};
use faasbatch_simcore::engine::{Engine, EngineStats, EventArg, EventId};
use faasbatch_simcore::idmap::IdMap;
use faasbatch_simcore::memory::{AllocationId, MemCategory, MemOpKind};
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::function::{FunctionKind, FunctionRegistry};
use faasbatch_trace::stream::InvocationSource;
use faasbatch_trace::workload::{Invocation, Workload};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

/// Identifies one dispatched batch inside the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct BatchId(u64);

/// One simulated cold boot, by what it is for. A dispatched batch's start
/// and a pre-warm of either tier run the same pipeline — a daemon launch
/// task, [`begin_boot`], the image pull, the boot CPU task in the
/// container's group, [`on_boot_done`] — and differ only in where the
/// booted container ends up.
#[derive(Debug, Clone, Copy)]
enum Boot {
    /// The batch runs in the container (bound at dispatch).
    Batch(BatchId),
    /// A pre-warm: the container parks in `tier` — idle in the warm pool,
    /// or captured as a snapshot and terminated.
    Prewarm(ContainerId, PrewarmTier),
}

impl Boot {
    /// The container that boots.
    fn container(self, world: &SimWorld) -> ContainerId {
        match self {
            Boot::Batch(id) => world.batches[&id].start.container(),
            Boot::Prewarm(cid, _) => cid,
        }
    }

    /// The batch the boot serves, as the trace names it.
    fn batch(self) -> Option<u64> {
        match self {
            Boot::Batch(id) => Some(id.0),
            Boot::Prewarm(..) => None,
        }
    }

    /// The boot as an event payload: `a` names the batch or the container,
    /// `b` says which of the three it is.
    fn to_arg(self) -> EventArg {
        match self {
            Boot::Batch(id) => EventArg::new(id.0, 0),
            Boot::Prewarm(cid, PrewarmTier::Warm) => EventArg::new(cid.value(), 1),
            Boot::Prewarm(cid, PrewarmTier::Snapshot) => EventArg::new(cid.value(), 2),
        }
    }

    /// The inverse of [`to_arg`](Self::to_arg).
    fn from_arg(arg: EventArg) -> Self {
        match arg.b {
            0 => Boot::Batch(BatchId(arg.a)),
            1 => Boot::Prewarm(ContainerId::new(arg.a), PrewarmTier::Warm),
            _ => Boot::Prewarm(ContainerId::new(arg.a), PrewarmTier::Snapshot),
        }
    }
}

/// What a running CPU task represents.
#[derive(Debug, Clone, Copy)]
enum WorkKind {
    /// Daemon-side decision / launch processing for a batch.
    Decision(BatchId),
    /// Daemon-side launch processing for a pre-warmed container.
    PrewarmLaunch(ContainerId, PrewarmTier),
    /// CPU phase of a cold boot.
    Boot(Boot),
    /// Storage-client creation for one batch member.
    ClientCreation(BatchId, usize),
    /// The invocation body.
    Body(BatchId, usize),
    /// Fire-and-forget platform overhead (e.g. SFS scheduler bookkeeping).
    Overhead,
}

/// The serializable trace mirror of a [`WorkKind`].
fn task_kind(kind: WorkKind) -> TaskKind {
    match kind {
        WorkKind::Decision(b) => TaskKind::Decision { batch: b.0 },
        WorkKind::PrewarmLaunch(c, _) => TaskKind::PrewarmLaunch { container: c },
        WorkKind::Boot(Boot::Batch(b)) => TaskKind::ColdBoot { batch: b.0 },
        WorkKind::Boot(Boot::Prewarm(c, _)) => TaskKind::PrewarmBoot { container: c },
        WorkKind::ClientCreation(b, i) => TaskKind::ClientCreation {
            batch: b.0,
            member: i as u32,
        },
        WorkKind::Body(b, i) => TaskKind::Body {
            batch: b.0,
            member: i as u32,
        },
        WorkKind::Overhead => TaskKind::Overhead,
    }
}

/// Routing/identity state for one dispatched batch. All *timing* lives in
/// the event stream (the [`RecordReducer`] owns it); the harness only keeps
/// what it needs to drive execution forward.
#[derive(Debug)]
struct Batch {
    mode: ExecMode,
    multiplex: bool,
    group_weight: f64,
    completion: Completion,
    invocations: Vec<Invocation>,
    /// How the batch's container started; the container itself
    /// ([`Acquired::container`]) is bound at dispatch.
    start: Acquired,
    serial_next: usize,
    remaining: usize,
}

/// Per-container harness state that outlives individual batches (warm reuse
/// keeps the multiplexer cache alive, as in the paper's Fig. 8).
#[derive(Debug, Default)]
struct ContainerExt {
    /// Multiplexer cache: hashed creation args → live client allocation.
    client_cache: HashMap<u64, AllocationId>,
    /// Single-flight: args hash → batch members waiting on the in-flight
    /// creation.
    in_flight: HashMap<u64, Vec<(BatchId, usize)>>,
    /// Creations waiting their turn (serialized per container).
    creation_queue: VecDeque<(BatchId, usize)>,
    /// Whether a creation is currently executing.
    creating: bool,
}

/// The full mechanism state of one simulation run.
pub struct SimWorld {
    cfg: SimConfig,
    cluster: Cluster,
    registry: FunctionRegistry,
    daemon_group: CpuGroupId,
    batches: IdMap<BatchId, Batch>,
    next_batch: u64,
    running: IdMap<CpuTaskId, WorkKind>,
    cpu_event: Option<EventId>,
    /// Scratch of `cpu_tick` (the completions it is handling), kept between
    /// ticks for its capacity.
    finished: Vec<CpuTaskId>,
    ext: IdMap<ContainerId, ContainerExt>,
    transient_clients: IdMap<(BatchId, usize), AllocationId>,
    /// Folds the event stream into records, samples, and counters.
    reducer: RecordReducer,
    /// The autoscaling controller, when the config asks for one: it folds
    /// the same events as the reducer and acts at the sampler tick.
    autoscaler: Option<Autoscaler>,
    /// Observer for the same stream the reducer folds.
    trace: Box<dyn TraceSink>,
    /// Debug builds audit every run: the stream folds through an auditor
    /// as well, and [`Worker::finish`] asserts that it is clean.
    #[cfg(debug_assertions)]
    auditor: faasbatch_metrics::events::AuditorSink,
    /// Events folded by the reducer but not yet handed to the sink; flushed
    /// in contiguous batches (the reducer always sees each event first, so
    /// report derivation is unaffected by the buffering).
    pending_events: Vec<SimEvent>,
    /// Invocations injected so far.
    injected: usize,
    /// The caller has no more arrivals to inject. Only then can the run be
    /// done: while the input is open the sampler (and the periodic timers of
    /// Kraken and SFS) keep ticking through idle stretches, exactly as they
    /// do mid-trace. FaaSBatch's window tick is armed by arrivals and needs
    /// no stop condition.
    closed: bool,
}

/// Flush threshold for the buffered event stream.
const EVENT_BATCH: usize = 256;

/// Hands the buffered event run to the sink as one `record_batch` call.
fn flush_events(world: &mut SimWorld) {
    if !world.pending_events.is_empty() {
        world.trace.record_batch(&world.pending_events);
        world.pending_events.clear();
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("completed", &self.reducer.completed())
            .field("injected", &self.injected)
            .field("closed", &self.closed)
            .field("batches", &self.batches.len())
            .finish()
    }
}

impl SimWorld {
    fn new(cfg: SimConfig, registry: FunctionRegistry, trace: Box<dyn TraceSink>) -> Self {
        let mut cluster = Cluster::new(cfg.cores, cfg.cold_start.clone(), cfg.keep_alive);
        cluster.configure_snapshots(cfg.snapshot.clone());
        let daemon_group = cluster.cpu_mut().create_group(Some(cfg.daemon_cores));
        SimWorld {
            cluster,
            registry,
            daemon_group,
            batches: IdMap::default(),
            next_batch: 0,
            running: IdMap::default(),
            cpu_event: None,
            finished: Vec::new(),
            ext: IdMap::default(),
            transient_clients: IdMap::default(),
            reducer: RecordReducer::new(),
            autoscaler: cfg.autoscaler.clone().map(Autoscaler::new),
            trace,
            #[cfg(debug_assertions)]
            auditor: Default::default(),
            pending_events: Vec::with_capacity(EVENT_BATCH),
            injected: 0,
            closed: false,
            cfg,
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The workload's registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Completed invocations (derived from the event stream).
    pub fn completed(&self) -> usize {
        self.reducer.completed()
    }

    /// Idle warm containers for `function`.
    pub fn warm_count(&self, function: FunctionId) -> usize {
        self.cluster.warm_count(function)
    }

    /// True when the input is closed and everything injected has completed.
    pub(crate) fn done(&self) -> bool {
        self.closed && self.reducer.completed() == self.injected
    }
}

/// World + policy: the engine's state type.
pub struct Sim {
    /// Mechanism state.
    pub world: SimWorld,
    /// Decision state.
    pub policy: Box<dyn Policy>,
}

fn hash_key<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Translates journalled lower-layer operations (memory ledger, container
/// lifecycle) into trace events. The two journals are merged by timestamp
/// (memory first on ties, matching causal order inside `Cluster::acquire`)
/// so the stream stays in non-decreasing time order.
fn drain_journals(world: &mut SimWorld) {
    if !world.cluster.transitions_pending() && !world.cluster.mem().journal_pending() {
        return;
    }
    let transitions = world.cluster.take_transitions();
    let mem_ops = world.cluster.mem_mut().take_journal();
    let mut trs = transitions.into_iter().peekable();
    let mut ops = mem_ops.into_iter().peekable();
    loop {
        let take_mem = match (ops.peek(), trs.peek()) {
            (Some(op), Some(tr)) => op.at <= tr.at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let event = if take_mem {
            let op = ops.next().expect("peeked");
            let kind = match op.kind {
                MemOpKind::Alloc => EventKind::MemAlloc {
                    category: op.category,
                    bytes: op.bytes,
                    total: op.total_after,
                },
                MemOpKind::Free => EventKind::MemFree {
                    category: op.category,
                    bytes: op.bytes,
                    total: op.total_after,
                },
            };
            SimEvent::new(op.at, kind)
        } else {
            let tr = trs.next().expect("peeked");
            SimEvent::new(
                tr.at,
                EventKind::ContainerStateChange {
                    container: tr.container,
                    from: tr.from,
                    to: tr.to,
                },
            )
        };
        fold(world, event);
    }
    if world.pending_events.len() >= EVENT_BATCH {
        flush_events(world);
    }
}

/// Folds one event into the reducer and, when the run has one, the
/// controller, then buffers it for the sink. Returns the completed
/// invocation's record when the event completes one.
// Forced: as an outlined call this per-event step cost `sim_azure_day`
// ~4 % of its throughput.
#[inline(always)]
fn fold(world: &mut SimWorld, event: SimEvent) -> Option<InvocationRecord> {
    let record = world.reducer.on_event(&event);
    if let Some(controller) = world.autoscaler.as_mut() {
        controller.observe(&event);
    }
    #[cfg(debug_assertions)]
    world.auditor.record(&event);
    world.pending_events.push(event);
    record
}

/// Emits one semantic event at `at`, after flushing any journalled
/// lower-layer operations so the stream stays causally ordered. Returns the
/// completed invocation's record when the event completes one.
fn emit(world: &mut SimWorld, at: SimTime, kind: EventKind) -> Option<InvocationRecord> {
    drain_journals(world);
    let record = fold(world, SimEvent::new(at, kind));
    if world.pending_events.len() >= EVENT_BATCH {
        flush_events(world);
    }
    record
}

/// Schedules `policy.on_timer(token)` after `delay`.
pub(crate) fn schedule_policy_timer(engine: &mut Engine<Sim>, delay: SimDuration, token: u64) {
    engine.schedule_arg_in(delay, policy_timer_tick, EventArg::one(token));
}

fn policy_timer_tick(sim: &mut Sim, engine: &mut Engine<Sim>, arg: EventArg) {
    {
        let Sim { world, policy } = sim;
        policy.on_timer(&mut Ctx { world, engine }, arg.a);
    }
    pump_cpu(&mut sim.world, engine);
}

/// Adjusts one live container's CPU fair-share weight.
pub(crate) fn set_container_weight(
    world: &mut SimWorld,
    now: SimTime,
    container: ContainerId,
    weight: f64,
) {
    let group = world.cluster.container(container).cpu_group();
    world.cluster.cpu_mut().set_group_weight(now, group, weight);
}

/// Bulk weight adjustment with a single rate recomputation.
pub(crate) fn set_container_weights(
    world: &mut SimWorld,
    now: SimTime,
    updates: impl IntoIterator<Item = (ContainerId, f64)>,
) {
    world.cluster.set_container_weights(now, updates);
}

/// Entry point for [`Ctx::dispatch`]: registers the batch and starts its
/// daemon-side decision work.
pub(crate) fn dispatch(world: &mut SimWorld, engine: &mut Engine<Sim>, req: DispatchRequest) {
    assert!(!req.invocations.is_empty(), "dispatch of empty batch");
    let function = req.invocations[0].function;
    assert!(
        req.invocations.iter().all(|i| i.function == function),
        "batch mixes functions"
    );
    let now = engine.now();
    let id = BatchId(world.next_batch);
    world.next_batch += 1;

    let mut spec = ContainerSpec::new(function).with_base_memory(world.cfg.container_base_memory);
    if let Some(limit) = req.cpu_limit {
        spec = spec.with_cpu_limit(limit);
    }

    // The container binds at dispatch time, as real platforms do: a warm
    // container is reserved immediately; otherwise a new one is committed
    // (and later-arriving requests cannot claim it). Routing to a warm
    // container is cheap; a launch costs real daemon CPU (`docker run`).
    let acq = world.cluster.acquire(now, &spec);
    let cid = acq.container();
    world.ext.entry(cid).or_default();
    // Warm hits are routed for pennies; both a full boot and a snapshot
    // restore launch a fresh container, so the daemon pays the launch cost
    // either way — the tiers differ in what happens after the decision.
    let decision_work = match acq {
        Acquired::Warm(_) => world.cfg.warm_dispatch_work,
        Acquired::Cold(_) | Acquired::Restored { .. } => world.cfg.container_launch_work,
    };
    emit(
        world,
        now,
        EventKind::DispatchDecision {
            batch: id.0,
            function,
            container: cid,
            cold: acq.is_cold(),
            restored: acq.is_restored(),
            barrier: req.completion == Completion::PerBatch,
            members: req.invocations.iter().map(|i| i.id).collect(),
        },
    );
    if !req.extra_platform_work.is_zero() {
        let t = world
            .cluster
            .start_platform_work(now, req.extra_platform_work);
        track_task(world, now, t, WorkKind::Overhead);
    }
    let n = req.invocations.len();
    world.batches.insert(
        id,
        Batch {
            mode: req.mode,
            multiplex: req.multiplex_clients,
            group_weight: req.group_weight,
            completion: req.completion,
            invocations: req.invocations,
            start: acq,
            serial_next: 0,
            remaining: n,
        },
    );
    let task = world
        .cluster
        .cpu_mut()
        .add_task(now, world.daemon_group, decision_work);
    track_task(world, now, task, WorkKind::Decision(id));
    // The caller (arrival/timer/cpu-tick wrapper) pumps the CPU afterwards.
}

/// Registers a started CPU task as `kind` and emits its `TaskStart`.
fn track_task(world: &mut SimWorld, now: SimTime, task: CpuTaskId, kind: WorkKind) {
    world.running.insert(task, kind);
    emit(
        world,
        now,
        EventKind::TaskStart {
            task: task_kind(kind),
        },
    );
}

/// Pre-warms `count` fresh containers for `function` into `tier`: each pays
/// the launch and the cold boot a dispatched batch pays, then parks idle in
/// the warm pool (Kraken's EWMA-driven provisioning, a controller's warm
/// tier) or captures a snapshot and terminates, so warmth persists with no
/// memory held (a controller's snapshot tier).
pub(crate) fn prewarm(
    world: &mut SimWorld,
    engine: &mut Engine<Sim>,
    function: FunctionId,
    count: usize,
    tier: PrewarmTier,
) {
    let now = engine.now();
    for _ in 0..count {
        let spec = ContainerSpec::new(function).with_base_memory(world.cfg.container_base_memory);
        let cid = world.cluster.provision_new(now, &spec);
        world.ext.entry(cid).or_default();
        let task = world.cluster.cpu_mut().add_task(
            now,
            world.daemon_group,
            world.cfg.container_launch_work,
        );
        track_task(world, now, task, WorkKind::PrewarmLaunch(cid, tier));
    }
}

/// (Re)arms the single pending CPU-completion event.
fn pump_cpu(world: &mut SimWorld, engine: &mut Engine<Sim>) {
    if let Some(ev) = world.cpu_event.take() {
        engine.cancel(ev);
    }
    if let Some((when, _)) = world.cluster.cpu().next_completion(engine.now()) {
        let ev = engine.schedule_fn_at(when, cpu_tick);
        world.cpu_event = Some(ev);
    }
}

fn cpu_tick(sim: &mut Sim, engine: &mut Engine<Sim>) {
    let now = engine.now();
    sim.world.cpu_event = None;
    // The handlers below need the whole world, so the completions move to a
    // buffer the world owns between ticks.
    let mut finished = std::mem::take(&mut sim.world.finished);
    finished.clear();
    finished.extend_from_slice(sim.world.cluster.cpu_mut().advance_to(now));
    for &task in &finished {
        let kind = sim
            .world
            .running
            .remove(&task)
            .expect("completed CPU task not registered");
        emit(
            &mut sim.world,
            now,
            EventKind::TaskFinish {
                task: task_kind(kind),
            },
        );
        match kind {
            WorkKind::Decision(b) => on_decision_done(sim, engine, b),
            WorkKind::PrewarmLaunch(cid, tier) => {
                begin_boot(&mut sim.world, engine, Boot::Prewarm(cid, tier));
            }
            WorkKind::Boot(boot) => on_boot_done(sim, engine, boot),
            WorkKind::ClientCreation(b, i) => on_creation_done(sim, engine, b, i),
            WorkKind::Body(b, i) => on_body_done(sim, engine, b, i),
            WorkKind::Overhead => {}
        }
    }
    sim.world.finished = finished;
    pump_cpu(&mut sim.world, engine);
}

fn on_decision_done(sim: &mut Sim, engine: &mut Engine<Sim>, id: BatchId) {
    match sim.world.batches[&id].start {
        Acquired::Warm(_) => batch_ready(sim, engine, id),
        Acquired::Cold(_) => begin_boot(&mut sim.world, engine, Boot::Batch(id)),
        Acquired::Restored { id: cid, latency } => {
            // Snapshot restore: the pre-initialized state is mapped back in —
            // pure latency, no host CPU burned re-running initialization.
            emit(
                &mut sim.world,
                engine.now(),
                EventKind::RestoreBegin {
                    container: cid,
                    batch: Some(id.0),
                },
            );
            engine.schedule_arg_in(latency, restore_finished, EventArg::one(id.0));
        }
    }
}

/// The daemon has processed a launch: the container boots — the image pull
/// as pure delay, then the boot CPU phase inside the container's group.
fn begin_boot(world: &mut SimWorld, engine: &mut Engine<Sim>, boot: Boot) {
    let container = boot.container(world);
    emit(
        world,
        engine.now(),
        EventKind::ColdStartBegin {
            container,
            batch: boot.batch(),
        },
    );
    let image = world.cfg.cold_start.image_latency();
    engine.schedule_arg_in(image, image_pulled, boot.to_arg());
}

/// The image pull finished (`arg` = [`Boot::to_arg`]): start the
/// runtime-boot CPU phase.
fn image_pulled(sim: &mut Sim, engine: &mut Engine<Sim>, arg: EventArg) {
    let boot = Boot::from_arg(arg);
    let now = engine.now();
    let world = &mut sim.world;
    let task = world
        .cluster
        .start_cold_cpu_work(now, boot.container(world));
    track_task(world, now, task, WorkKind::Boot(boot));
    pump_cpu(world, engine);
}

/// The boot CPU phase finished: the container is ready and goes where the
/// boot was for.
fn on_boot_done(sim: &mut Sim, engine: &mut Engine<Sim>, boot: Boot) {
    let now = engine.now();
    let world = &mut sim.world;
    let container = boot.container(world);
    match boot {
        Boot::Batch(_) => world.cluster.finish_cold_start(now, container),
        Boot::Prewarm(_, tier) => world.cluster.finish_prewarm(now, container, tier),
    }
    emit(
        world,
        now,
        EventKind::ColdStartEnd {
            container,
            batch: boot.batch(),
        },
    );
    if let Boot::Batch(id) = boot {
        batch_ready(sim, engine, id);
    }
}

/// Snapshot restore landed (`arg.a` = batch id): the container is ready
/// and the batch executes, exactly as after a cold boot but tens of
/// milliseconds later instead of seconds.
fn restore_finished(sim: &mut Sim, engine: &mut Engine<Sim>, arg: EventArg) {
    let id = BatchId(arg.a);
    let now = engine.now();
    let world = &mut sim.world;
    let cid = world.batches[&id].start.container();
    world.cluster.finish_restore(now, cid);
    emit(
        world,
        now,
        EventKind::RestoreDone {
            container: cid,
            batch: Some(id.0),
        },
    );
    batch_ready(sim, engine, id);
    pump_cpu(&mut sim.world, engine);
}

/// The batch's container is ready — a warm hit, a restore or a boot: weight
/// its CPU group, start the members, tell the policy. The caller pumps the
/// CPU.
fn batch_ready(sim: &mut Sim, engine: &mut Engine<Sim>, id: BatchId) {
    let now = engine.now();
    let world = &mut sim.world;
    let batch = &world.batches[&id];
    let cid = batch.start.container();
    let function = batch.invocations[0].function;
    set_container_weight(world, now, cid, batch.group_weight);
    start_batch_execution(world, now, id);
    let Sim { world, policy } = sim;
    policy.on_batch_ready(&mut Ctx { world, engine }, cid, function);
}

fn start_batch_execution(world: &mut SimWorld, now: SimTime, id: BatchId) {
    let (mode, n) = {
        let batch = &world.batches[&id];
        (batch.mode, batch.invocations.len())
    };
    match mode {
        ExecMode::Parallel => {
            for idx in 0..n {
                start_invocation_chain(world, now, id, idx);
            }
        }
        ExecMode::Serial => {
            world
                .batches
                .get_mut(&id)
                .expect("unknown batch")
                .serial_next = 1;
            start_invocation_chain(world, now, id, 0);
        }
    }
}

/// How an I/O member's client request was routed by the multiplexer.
enum ClientRoute {
    /// Cache hit: proceed straight to the body.
    Hit,
    /// Single-flight wait: parked until the in-flight creation lands.
    Wait,
    /// This member must create the client.
    Create,
}

/// Begins one invocation's execution inside its container: client phase
/// (I/O functions) then body.
fn start_invocation_chain(world: &mut SimWorld, now: SimTime, id: BatchId, idx: usize) {
    let (function, multiplex, cid, work) = {
        let batch = &world.batches[&id];
        (
            batch.invocations[idx].function,
            batch.multiplex,
            batch.start.container(),
            batch.invocations[idx].work,
        )
    };
    emit(
        world,
        now,
        EventKind::ExecBegin {
            batch: id.0,
            member: idx as u32,
            work,
        },
    );
    let kind = world.registry.profile(function).kind.clone();
    match kind {
        FunctionKind::Cpu { .. } => start_body(world, now, id, idx),
        FunctionKind::Io { ref bucket, .. } => {
            let key = hash_key(bucket);
            let route = if multiplex {
                let ext = world.ext.get_mut(&cid).expect("container ext exists");
                if ext.client_cache.contains_key(&key) {
                    ClientRoute::Hit
                } else if let Some(waiters) = ext.in_flight.get_mut(&key) {
                    // Single-flight: someone is already building this client.
                    waiters.push((id, idx));
                    ClientRoute::Wait
                } else {
                    ext.in_flight.insert(key, Vec::new());
                    ClientRoute::Create
                }
            } else {
                ClientRoute::Create
            };
            match route {
                ClientRoute::Hit => {
                    // Multiplexer hit: reuse the cached instance for free.
                    emit(
                        world,
                        now,
                        EventKind::ClientCacheHit {
                            container: cid,
                            key,
                        },
                    );
                    start_body(world, now, id, idx);
                }
                ClientRoute::Wait => {
                    emit(
                        world,
                        now,
                        EventKind::ClientCacheMiss {
                            container: cid,
                            key,
                        },
                    );
                }
                ClientRoute::Create => {
                    emit(
                        world,
                        now,
                        EventKind::ClientCacheMiss {
                            container: cid,
                            key,
                        },
                    );
                    enqueue_creation(world, now, cid, id, idx);
                }
            }
        }
    }
}

fn enqueue_creation(world: &mut SimWorld, now: SimTime, cid: ContainerId, id: BatchId, idx: usize) {
    let ext = world.ext.get_mut(&cid).expect("container ext exists");
    ext.creation_queue.push_back((id, idx));
    start_next_creation(world, now, cid);
}

/// Pops the next queued creation (if none is running) and starts its CPU
/// work; per-creation cost scales with how many creations are simultaneously
/// wanted in this container (Fig. 4's contention curve).
fn start_next_creation(world: &mut SimWorld, now: SimTime, cid: ContainerId) {
    let (id, idx, concurrent) = {
        let ext = world.ext.get_mut(&cid).expect("container ext exists");
        if ext.creating {
            return;
        }
        let Some((id, idx)) = ext.creation_queue.pop_front() else {
            return;
        };
        ext.creating = true;
        (id, idx, ext.creation_queue.len() + 1)
    };
    let work = world.cfg.client_cost.creation_work(concurrent);
    let task = world.cluster.start_invocation_work(now, cid, work);
    emit(
        world,
        now,
        EventKind::ClientCreateBegin {
            container: cid,
            batch: id.0,
            member: idx as u32,
        },
    );
    track_task(world, now, task, WorkKind::ClientCreation(id, idx));
}

fn on_creation_done(sim: &mut Sim, engine: &mut Engine<Sim>, id: BatchId, idx: usize) {
    let now = engine.now();
    let world = &mut sim.world;
    let (cid, multiplex, bucket) = {
        let batch = &world.batches[&id];
        let function = batch.invocations[idx].function;
        let bucket = match &world.registry.profile(function).kind {
            FunctionKind::Io { bucket, .. } => bucket.clone(),
            FunctionKind::Cpu { .. } => unreachable!("creation for CPU function"),
        };
        (batch.start.container(), batch.multiplex, bucket)
    };
    let bytes = world.cfg.client_cost.memory_per_client;
    let alloc = world
        .cluster
        .mem_mut()
        .alloc(now, MemCategory::Client, bytes);
    emit(
        world,
        now,
        EventKind::ClientCreateEnd {
            container: cid,
            batch: id.0,
            member: idx as u32,
            bytes,
        },
    );

    let key = hash_key(&bucket);
    let waiters = {
        let ext = world.ext.get_mut(&cid).expect("container ext exists");
        ext.creating = false;
        if multiplex {
            ext.client_cache.insert(key, alloc);
            ext.in_flight.remove(&key).unwrap_or_default()
        } else {
            world.transient_clients.insert((id, idx), alloc);
            Vec::new()
        }
    };
    // The creator proceeds to its body, as do all single-flight waiters.
    start_body(world, now, id, idx);
    for (wb, wi) in waiters {
        start_body(world, now, wb, wi);
    }
    // Keep the serialized creation pipeline moving.
    start_next_creation(world, now, cid);
}

fn start_body(world: &mut SimWorld, now: SimTime, id: BatchId, idx: usize) {
    let (cid, work) = {
        let batch = &world.batches[&id];
        (batch.start.container(), batch.invocations[idx].work)
    };
    let task = world.cluster.start_invocation_work(now, cid, work);
    track_task(world, now, task, WorkKind::Body(id, idx));
}

fn on_body_done(sim: &mut Sim, engine: &mut Engine<Sim>, id: BatchId, idx: usize) {
    let function = sim.world.batches[&id].invocations[idx].function;
    let kind = sim.world.registry.profile(function).kind.clone();
    match kind {
        FunctionKind::Io { ops, .. } => {
            // Object operations are service latency, not host CPU.
            let delay = sim.world.cfg.client_cost.op_latency * ops as u64;
            if delay.is_zero() {
                finish_invocation(sim, engine, id, idx);
            } else {
                engine.schedule_arg_in(delay, io_ops_done, EventArg::new(id.0, idx as u64));
            }
        }
        FunctionKind::Cpu { .. } => finish_invocation(sim, engine, id, idx),
    }
}

/// Object-store round-trips finished (`arg.a` = batch id, `arg.b` = member
/// index): the invocation is done.
fn io_ops_done(sim: &mut Sim, engine: &mut Engine<Sim>, arg: EventArg) {
    finish_invocation(sim, engine, BatchId(arg.a), arg.b as usize);
    pump_cpu(&mut sim.world, engine);
}

/// Completes member `idx`'s own chain and, depending on the batch's
/// [`Completion`] mode, releases its response now or at the batch barrier.
/// The record itself is built by the [`RecordReducer`] from the emitted
/// `ExecEnd`/`InvocationComplete` events — under [`Completion::PerBatch`]
/// the barrier wait between a member's own finish and the batch end lands
/// in queuing, keeping the components contiguous.
fn finish_invocation(sim: &mut Sim, engine: &mut Engine<Sim>, id: BatchId, idx: usize) {
    let now = engine.now();
    let record = {
        let world = &mut sim.world;
        if let Some(alloc) = world.transient_clients.remove(&(id, idx)) {
            // Non-multiplexed clients die with their invocation (garbage
            // collected when the handler returns).
            world.cluster.mem_mut().free(now, alloc);
        }
        emit(
            world,
            now,
            EventKind::ExecEnd {
                batch: id.0,
                member: idx as u32,
            },
        );
        let batch = world.batches.get(&id).expect("unknown batch");
        match batch.completion {
            Completion::PerInvocation => {
                let invocation = batch.invocations[idx].id;
                Some(
                    emit(
                        world,
                        now,
                        EventKind::InvocationComplete {
                            invocation,
                            batch: Some(id.0),
                            member: Some(idx as u32),
                        },
                    )
                    .expect("completion event yields a record"),
                )
            }
            // The response is held until the whole group returns.
            Completion::PerBatch => None,
        }
    };
    if let Some(record) = record {
        let Sim { world, policy } = sim;
        policy.on_invocation_done(&mut Ctx { world, engine }, &record);
    }
    // Serial batches: hand the container to the next queued member.
    let (serial_next, batch_finished, cid, n) = {
        let batch = sim.world.batches.get_mut(&id).expect("unknown batch");
        batch.remaining -= 1;
        let next = if batch.mode == ExecMode::Serial && batch.serial_next < batch.invocations.len()
        {
            let i = batch.serial_next;
            batch.serial_next += 1;
            Some(i)
        } else {
            None
        };
        (
            next,
            batch.remaining == 0,
            batch.start.container(),
            batch.invocations.len() as u64,
        )
    };
    if let Some(next_idx) = serial_next {
        start_invocation_chain(&mut sim.world, now, id, next_idx);
    }
    if batch_finished {
        // Nothing looks a finished batch up again: drop it, so a long run
        // holds only what is in flight. Barrier-held responses are released
        // in member order.
        let batch = sim.world.batches.remove(&id).expect("unknown batch");
        let held: &[Invocation] = match batch.completion {
            Completion::PerBatch => &batch.invocations,
            Completion::PerInvocation => &[],
        };
        for (i, member) in held.iter().enumerate() {
            let record = emit(
                &mut sim.world,
                now,
                EventKind::InvocationComplete {
                    invocation: member.id,
                    batch: Some(id.0),
                    member: Some(i as u32),
                },
            )
            .expect("completion event yields a record");
            let Sim { world, policy } = sim;
            policy.on_invocation_done(&mut Ctx { world, engine }, &record);
        }
        sim.world.cluster.release(now, cid, n);
        let Sim { world, policy } = sim;
        policy.on_batch_done(&mut Ctx { world, engine }, cid);
    }
}

fn sampler_tick(sim: &mut Sim, engine: &mut Engine<Sim>) {
    if sim.world.done() {
        // The workload is complete; this tick only fires while the
        // harness drains in-flight pre-warm boots. Don't sample or act.
        return;
    }
    record_sample(&mut sim.world, engine.now());
    // Not an ordering requirement (the controller folds events as they are
    // emitted): in sparse simulated time the buffer would otherwise hold
    // its events for many seconds, and handing them over once per sample
    // keeps it small and hot — dropping this flush cost `sim_azure_day`
    // ~4 % of its throughput and ~6 % on its p50.
    flush_events(&mut sim.world);
    apply_scale_actions(&mut sim.world, engine);
    let period = sim.world.cfg.sample_period;
    engine.schedule_fn_in(period, sampler_tick);
}

/// Polls the controller, if the run has one, and applies its actions. The
/// sampler tick is the designated safe point: no CPU task or policy
/// callback is mid-flight, so pre-warm launches and keep-alive changes slot
/// in exactly like policy-initiated ones, and the controller has already
/// folded every event up to now. With no controller, or no action due, the
/// function is a strict no-op — it must not touch the engine in that case,
/// because re-arming the CPU event would reorder same-instant callbacks and
/// perturb the run.
fn apply_scale_actions(world: &mut SimWorld, engine: &mut Engine<Sim>) {
    let Some(controller) = world.autoscaler.as_mut() else {
        return;
    };
    let actions = controller.poll();
    if actions.is_empty() {
        return;
    }
    let now = engine.now();
    for action in actions {
        match action {
            ScaleAction::PrewarmTier {
                function,
                count,
                tier,
            } if count > 0 => {
                emit(
                    world,
                    now,
                    EventKind::ScalePrewarm {
                        function,
                        count: count as u64,
                    },
                );
                prewarm(world, engine, function, count, tier);
            }
            ScaleAction::PrewarmTier { .. } => {}
            ScaleAction::SetKeepAlive {
                function,
                keep_alive,
            } => {
                emit(
                    world,
                    now,
                    EventKind::ScaleKeepAlive {
                        function,
                        keep_alive,
                    },
                );
                world.cluster.set_keep_alive(function, keep_alive);
            }
        }
    }
    pump_cpu(world, engine);
}

fn record_sample(world: &mut SimWorld, now: SimTime) {
    debug_assert_eq!(
        world.cluster.live_containers(),
        world.cluster.recount_live_containers(),
        "the live-container counter drifted from the container table"
    );
    let kind = EventKind::HostSample {
        memory_bytes: world.cluster.mem().current_bytes(),
        busy_cores: world.cluster.cpu().busy_cores(),
        live_containers: world.cluster.live_containers(),
    };
    emit(world, now, kind);
}

/// Replays `workload` under `policy` and returns the run's report.
///
/// The run is deterministic: identical `(policy, workload, cfg)` inputs
/// produce identical reports. Every report quantity is derived from the
/// trace stream; this entry point discards the stream via the zero-cost
/// no-op sink — use [`run_simulation_traced`] to observe it.
///
/// # Panics
///
/// Panics if the simulation stalls (a policy dropped invocations) — every
/// workload invocation must eventually complete — and, in debug builds, if
/// the stream breaks an auditor invariant ([`Worker::finish`]).
pub fn run_simulation(
    policy: Box<dyn Policy>,
    workload: &Workload,
    cfg: SimConfig,
    workload_label: &str,
    dispatch_interval: Option<SimDuration>,
) -> RunReport {
    run_simulation_traced(
        policy,
        workload,
        cfg,
        workload_label,
        dispatch_interval,
        Box::new(NoopSink),
    )
    .0
}

/// [`run_simulation`] with an observable event stream: every event the run
/// derives its report from also flows through `sink`, which is returned for
/// downcasting (e.g. back to a
/// [`VecSink`](faasbatch_metrics::events::VecSink) or
/// [`AuditorSink`](faasbatch_metrics::events::AuditorSink)).
pub fn run_simulation_traced(
    policy: Box<dyn Policy>,
    workload: &Workload,
    cfg: SimConfig,
    workload_label: &str,
    dispatch_interval: Option<SimDuration>,
    sink: Box<dyn TraceSink>,
) -> (RunReport, Box<dyn TraceSink>) {
    run_source_traced(
        policy,
        workload.cursor(),
        cfg,
        workload_label,
        dispatch_interval,
        sink,
    )
}

/// [`run_simulation_traced`] over any [`InvocationSource`] — a materialised
/// [`Workload`] cursor or an on-demand
/// [`WorkloadStream`](faasbatch_trace::stream::WorkloadStream). Arrivals are
/// pulled one at a time, so memory stays bounded by in-flight state rather
/// than trace length. This is the short driver over a [`Worker`]: inject
/// every arrival in order, close the input, take the report.
pub fn run_source_traced(
    policy: Box<dyn Policy>,
    mut source: impl InvocationSource,
    cfg: SimConfig,
    workload_label: &str,
    dispatch_interval: Option<SimDuration>,
    sink: Box<dyn TraceSink>,
) -> (RunReport, Box<dyn TraceSink>) {
    let mut worker = Worker::new(
        policy,
        source.registry().clone(),
        cfg,
        workload_label,
        dispatch_interval,
        sink,
    );
    while let Some(inv) = source.next_invocation() {
        worker.inject(&inv);
    }
    worker.finish()
}

/// One simulated worker stepped from outside: the caller injects arrivals
/// in time order and the worker runs its own event queue only as far as
/// each injection needs. [`run_source_traced`] drives one worker over one
/// source; the fleet drives N of them in one time-ordered loop, so both
/// paths share this mechanism.
///
/// The worker cannot know that an idle stretch is the end of the run, so
/// the sampler and any periodic policy timer (Kraken's rounds, SFS's sweeps)
/// keep ticking until the input is closed: [`finish`](Worker::finish)
/// closes it and runs to completion, [`abandon`](Worker::abandon) stops the
/// worker dead at a crash instant. What an idle stretch costs is those
/// ticks only — FaaSBatch's window tick exists only for a window that holds
/// an arrival.
pub struct Worker {
    engine: Engine<Sim>,
    sim: Sim,
    label: String,
    dispatch_interval: Option<SimDuration>,
}

impl Worker {
    /// A worker at `t = 0` with nothing injected: first host sample taken,
    /// sampler armed, the policy's start hook run.
    pub fn new(
        policy: Box<dyn Policy>,
        registry: FunctionRegistry,
        cfg: SimConfig,
        workload_label: &str,
        dispatch_interval: Option<SimDuration>,
        sink: Box<dyn TraceSink>,
    ) -> Self {
        let mut engine: Engine<Sim> = Engine::new();
        let mut sim = Sim {
            world: SimWorld::new(cfg, registry, sink),
            policy,
        };

        // First host sample at t = 0, then every period.
        record_sample(&mut sim.world, SimTime::ZERO);
        let period = sim.world.cfg.sample_period;
        engine.schedule_fn_in(period, sampler_tick);

        {
            let Sim { world, policy } = &mut sim;
            policy.on_start(&mut Ctx {
                world,
                engine: &mut engine,
            });
        }
        pump_cpu(&mut sim.world, &mut engine);
        Worker {
            engine,
            sim,
            label: workload_label.to_owned(),
            dispatch_interval,
        }
    }

    /// The event engine's work counters: how many events this worker has
    /// scheduled, run and cancelled so far. A profile reading, not a result
    /// — it is not part of the [`RunReport`].
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Runs every queued event strictly before `inv.arrival`, then delivers
    /// the arrival — so an arrival goes ahead of events queued for its own
    /// instant, the tie order of pre-scheduled arrivals (which always held
    /// the lowest sequence numbers at their timestamp).
    ///
    /// # Panics
    ///
    /// Panics if `inv.arrival` is earlier than a previous injection.
    pub fn inject(&mut self, inv: &Invocation) {
        while self
            .engine
            .next_event_time()
            .is_some_and(|t| t < inv.arrival)
        {
            self.engine.step(&mut self.sim);
        }
        self.sim.world.injected += 1;
        self.engine.advance_to(inv.arrival);
        emit(
            &mut self.sim.world,
            inv.arrival,
            EventKind::Arrival {
                invocation: inv.id,
                function: inv.function,
            },
        );
        {
            let Sim { world, policy } = &mut self.sim;
            policy.on_arrival(
                &mut Ctx {
                    world,
                    engine: &mut self.engine,
                },
                inv,
            );
        }
        pump_cpu(&mut self.sim.world, &mut self.engine);
    }

    /// Closes the input, runs until everything injected has completed, and
    /// returns the report and the sink.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stalls (a policy dropped invocations) —
    /// every injected invocation must eventually complete — and, in debug
    /// builds, if the run's event stream breaks an
    /// [`AuditorSink`](faasbatch_metrics::events::AuditorSink) invariant.
    pub fn finish(mut self) -> (RunReport, Box<dyn TraceSink>) {
        self.close();
        #[cfg(debug_assertions)]
        {
            drain_journals(&mut self.sim.world);
            let violations = self.sim.world.auditor.finish();
            assert!(
                violations.is_empty(),
                "the run's event stream broke an invariant: {violations:?}"
            );
        }
        self.into_report()
    }

    /// The running half of [`finish`](Self::finish): closes the input and
    /// runs to completion, leaving the worker readable (its
    /// [`engine_stats`](Self::engine_stats) are then the whole run's).
    ///
    /// # Panics
    ///
    /// As [`finish`](Self::finish).
    pub fn close(&mut self) {
        self.sim.world.closed = true;
        // Safety horizon, a day past the last arrival (where the clock
        // stands): a healthy run finishes long before this.
        self.engine
            .set_horizon(self.engine.now() + SimDuration::from_secs(24 * 3600));
        // Work can outlive the last completion: a speculative pre-warm
        // still booting, a fire-and-forget overhead task still on the CPU.
        // Step until every span the stream opened has closed as well; a run
        // with nothing in flight takes no extra step.
        let settled = |world: &SimWorld| world.done() && world.reducer.open_spans() == 0;
        while !settled(&self.sim.world) && self.engine.step(&mut self.sim) {}
        assert!(
            settled(&self.sim.world),
            "simulation stalled: {}/{} invocations completed, {} span(s) open",
            self.sim.world.completed(),
            self.sim.world.injected,
            self.sim.world.reducer.open_spans()
        );
    }

    /// Stops the worker dead at `at` (a crash): events up to and including
    /// `at` run, nothing after. Returns the report as it stands at that
    /// instant — records, samples and resource counters of work that
    /// really ran — and the ids of invocations accepted but not completed,
    /// ascending.
    pub fn abandon(mut self, at: SimTime) -> (RunReport, Vec<InvocationId>) {
        while self.engine.next_event_time().is_some_and(|t| t <= at) {
            self.engine.step(&mut self.sim);
        }
        self.engine.advance_to(at);
        // Charge the CPU consumed since the last event; nothing completes,
        // or its event would have run above.
        self.sim.world.cluster.cpu_mut().advance_to(at);
        let open = self.sim.world.reducer.open_invocations();
        (self.into_report().0, open)
    }

    /// Folds the stream into the run's report.
    fn into_report(mut self) -> (RunReport, Box<dyn TraceSink>) {
        // Flush trailing journalled operations (e.g. the final release).
        drain_journals(&mut self.sim.world);
        flush_events(&mut self.sim.world);

        let world = self.sim.world;
        let stats = world.cluster.stats();
        let reduced = world.reducer.finish();
        let mut records = reduced.records;
        records.sort_by_key(|r| r.id);
        let makespan = reduced
            .last_completion
            .saturating_duration_since(reduced.first_arrival);
        let report = RunReport {
            scheduler: self.sim.policy.name(),
            workload: self.label,
            dispatch_interval: self.dispatch_interval,
            records,
            sampler: reduced.sampler,
            provisioned_containers: stats.provisioned,
            warm_hits: stats.warm_hits,
            restored_starts: stats.restored_starts,
            snapshot_stats: world.cluster.snapshot_stats(),
            peak_live_containers: stats.peak_live,
            core_seconds: world.cluster.cpu().core_seconds(),
            core_seconds_daemon: world.cluster.cpu().group_core_seconds(world.daemon_group),
            core_seconds_platform: world
                .cluster
                .cpu()
                .group_core_seconds(world.cluster.platform_group()),
            host_cores: world.cfg.cores,
            makespan,
            clients_created: reduced.clients_created,
            client_requests: reduced.client_requests,
            client_bytes_allocated: reduced.client_bytes_allocated,
            autoscaler: world.autoscaler.as_ref().map(Autoscaler::stats),
        };
        (report, world.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_metrics::events::{AuditorSink, VecSink};
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

    fn tiny_workload() -> Workload {
        cpu_workload(
            &DetRng::new(3),
            &WorkloadConfig {
                total: 8,
                // Spread well past the ~1.3 s cold start so pre-warmed
                // containers have time to become warm.
                span: SimDuration::from_secs(20),
                functions: 1,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        )
    }

    /// A policy that pre-warms before any arrival, so the whole workload is
    /// served warm.
    struct PrewarmEverything {
        done: bool,
    }

    impl Policy for PrewarmEverything {
        fn name(&self) -> String {
            "prewarmer".to_owned()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let f = ctx
                .registry()
                .iter()
                .next()
                .map(|(id, _)| id)
                .expect("one function");
            ctx.prewarm(f, 5);
            self.done = true;
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>, invocation: &Invocation) {
            ctx.dispatch(DispatchRequest::new(
                vec![invocation.clone()],
                ExecMode::Serial,
            ));
        }
    }

    #[test]
    fn prewarmed_containers_serve_warm() {
        let w = tiny_workload();
        let report = run_simulation(
            Box::new(PrewarmEverything { done: false }),
            &w,
            crate::config::SimConfig::default(),
            "t",
            None,
        );
        assert_eq!(report.records.len(), 8);
        // Five containers pre-warmed at t = 0; arrivals after the ~1.3 s
        // boot find them warm. Each cold-served arrival adds one container
        // beyond the 5 pre-warms.
        let warm_served = report.records.iter().filter(|r| !r.cold).count();
        assert!(warm_served >= 1, "nothing was served warm");
        assert_eq!(
            report.provisioned_containers,
            5 + (report.records.len() - warm_served) as u64
        );
    }

    /// Launches one warm-tier and one snapshot-tier pre-warm of the same
    /// function at t = 0 — both boot at once — and dispatches each arrival
    /// alone.
    struct PrewarmBothTiers;

    impl Policy for PrewarmBothTiers {
        fn name(&self) -> String {
            "prewarm-both-tiers".to_owned()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let f = FunctionId::new(0);
            prewarm(ctx.world, ctx.engine, f, 1, PrewarmTier::Warm);
            prewarm(ctx.world, ctx.engine, f, 1, PrewarmTier::Snapshot);
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>, invocation: &Invocation) {
            ctx.dispatch(DispatchRequest::new(
                vec![invocation.clone()],
                ExecMode::Serial,
            ));
        }
    }

    #[test]
    fn both_prewarm_tiers_in_flight_land_where_their_tier_says() {
        use faasbatch_container::container::ContainerState;
        use faasbatch_container::snapshot::SnapshotConfig;
        use faasbatch_metrics::events::MultiSink;

        let registry = tiny_workload().registry().clone();
        let f = FunctionId::new(0);
        // One arrival long after both boots landed.
        let w = Workload::new(
            registry,
            vec![Invocation {
                id: InvocationId::new(0),
                function: f,
                arrival: SimTime::from_secs(10),
                work: SimDuration::from_millis(10),
            }],
        );
        let cfg = SimConfig {
            snapshot: SnapshotConfig::with_capacity(4),
            ..SimConfig::default()
        };
        let (report, mut sink) = run_simulation_traced(
            Box::new(PrewarmBothTiers),
            &w,
            cfg,
            "t",
            None,
            Box::new(MultiSink::new(vec![
                Box::new(VecSink::new()),
                Box::new(AuditorSink::new()),
            ])),
        );
        let mut sinks = sink
            .as_any_mut()
            .downcast_mut::<MultiSink>()
            .map(std::mem::take)
            .expect("fan-out comes back")
            .into_sinks();
        let auditor = sinks[1]
            .as_any_mut()
            .downcast_mut::<AuditorSink>()
            .expect("auditor");
        assert_eq!(auditor.finish(), &[] as &[String]);
        let events = sinks[0]
            .as_any()
            .downcast_ref::<VecSink>()
            .expect("vec sink")
            .events();

        // Launched in order: the warm pre-warm first.
        let (warm, snap) = (ContainerId::new(0), ContainerId::new(1));
        let states = |c: ContainerId| -> Vec<ContainerState> {
            events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::ContainerStateChange { container, to, .. } if container == c => {
                        Some(to)
                    }
                    _ => None,
                })
                .collect()
        };
        use ContainerState::{Busy, Idle, Provisioning, Terminated};
        // The warm one parks Idle and serves the batch warm; the snapshot
        // one is captured and terminated.
        assert_eq!(states(warm), [Provisioning, Idle, Busy, Idle]);
        assert_eq!(states(snap), [Provisioning, Idle, Terminated]);
        let decision = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::DispatchDecision {
                    container,
                    cold,
                    restored,
                    ..
                } => Some((*container, *cold, *restored)),
                _ => None,
            })
            .expect("one dispatch");
        assert_eq!(decision, (warm, false, false));
        assert_eq!((report.warm_hits, report.provisioned_containers), (1, 2));
        assert_eq!(report.snapshot_stats.captures, 2, "both boots capture");

        // Each pre-warm's launch and boot tasks pair with one boot-phase
        // pair of its own container, and the two boots overlap.
        let count = |p: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| p(&e.kind)).count();
        let mut boot_spans = Vec::new();
        for c in [warm, snap] {
            for task in [
                TaskKind::PrewarmLaunch { container: c },
                TaskKind::PrewarmBoot { container: c },
            ] {
                assert_eq!(count(&|k| *k == EventKind::TaskStart { task }), 1);
                assert_eq!(count(&|k| *k == EventKind::TaskFinish { task }), 1);
            }
            let at = |kind: EventKind| {
                let mut hits = events.iter().filter(|e| e.kind == kind);
                let at = hits.next().expect("boot phase").at;
                assert!(hits.next().is_none(), "{kind:?} twice");
                at
            };
            boot_spans.push((
                at(EventKind::ColdStartBegin {
                    container: c,
                    batch: None,
                }),
                at(EventKind::ColdStartEnd {
                    container: c,
                    batch: None,
                }),
            ));
        }
        assert!(boot_spans[1].0 < boot_spans[0].1, "boots overlap");
    }

    #[test]
    fn traced_run_matches_untraced_and_audits_clean() {
        let w = tiny_workload();
        let untraced = run_simulation(
            Box::new(PrewarmEverything { done: false }),
            &w,
            crate::config::SimConfig::default(),
            "t",
            None,
        );
        let (traced, sink) = run_simulation_traced(
            Box::new(PrewarmEverything { done: false }),
            &w,
            crate::config::SimConfig::default(),
            "t",
            None,
            Box::new(AuditorSink::new()),
        );
        assert_eq!(untraced, traced, "sink choice must not affect the report");
        let mut sink = sink;
        let auditor = sink
            .as_any_mut()
            .downcast_mut::<AuditorSink>()
            .expect("auditor comes back");
        assert_eq!(auditor.finish(), &[] as &[String]);
    }

    #[test]
    fn event_stream_is_deterministic_and_time_ordered() {
        let run = || {
            let w = tiny_workload();
            let (_, sink) = run_simulation_traced(
                Box::new(PrewarmEverything { done: false }),
                &w,
                crate::config::SimConfig::default(),
                "t",
                None,
                Box::new(VecSink::new()),
            );
            sink.as_any()
                .downcast_ref::<VecSink>()
                .expect("vec sink")
                .events()
                .to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed+config must give a bit-identical stream");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, EventKind::ColdStartEnd { .. })));
    }

    #[test]
    #[should_panic(expected = "dispatch of empty batch")]
    fn empty_dispatch_panics() {
        struct Bad;
        impl Policy for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn on_arrival(&mut self, ctx: &mut Ctx<'_>, _inv: &Invocation) {
                ctx.dispatch(DispatchRequest::new(Vec::new(), ExecMode::Serial));
            }
        }
        let w = tiny_workload();
        run_simulation(
            Box::new(Bad),
            &w,
            crate::config::SimConfig::default(),
            "t",
            None,
        );
    }

    #[test]
    #[should_panic(expected = "batch mixes functions")]
    fn mixed_function_batch_panics() {
        struct Mixer {
            held: Vec<Invocation>,
        }
        impl Policy for Mixer {
            fn name(&self) -> String {
                "mixer".into()
            }
            fn on_arrival(&mut self, ctx: &mut Ctx<'_>, inv: &Invocation) {
                self.held.push(inv.clone());
                if self.held.len() == 2 {
                    ctx.dispatch(DispatchRequest::new(
                        std::mem::take(&mut self.held),
                        ExecMode::Parallel,
                    ));
                }
            }
        }
        let w = cpu_workload(
            &DetRng::new(4),
            &WorkloadConfig {
                total: 16,
                span: SimDuration::from_secs(1),
                functions: 4,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        run_simulation(
            Box::new(Mixer { held: Vec::new() }),
            &w,
            crate::config::SimConfig::default(),
            "t",
            None,
        );
    }

    /// Buffers everything and dispatches one Serial batch with
    /// batch-granularity responses after all arrivals.
    struct OneSerialBatch {
        held: Vec<Invocation>,
    }

    impl Policy for OneSerialBatch {
        fn name(&self) -> String {
            "one-serial-batch".into()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(30), 0);
        }
        fn on_arrival(&mut self, _ctx: &mut Ctx<'_>, inv: &Invocation) {
            self.held.push(inv.clone());
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let mut req = DispatchRequest::new(std::mem::take(&mut self.held), ExecMode::Serial);
            req.completion = crate::policy::Completion::PerBatch;
            ctx.dispatch(req);
        }
    }

    #[test]
    fn per_batch_serial_holds_all_responses_to_the_end() {
        let w = tiny_workload();
        let report = run_simulation(
            Box::new(OneSerialBatch { held: Vec::new() }),
            &w,
            crate::config::SimConfig::default(),
            "t",
            None,
        );
        assert_eq!(report.records.len(), 8);
        let completions: std::collections::HashSet<_> =
            report.records.iter().map(|r| r.completion).collect();
        assert_eq!(
            completions.len(),
            1,
            "all responses released at the barrier"
        );
        for r in &report.records {
            assert!(r.is_consistent(), "{r:?}");
        }
        // Exactly one container, serially reused by the whole batch.
        assert_eq!(report.provisioned_containers, 1);
    }
}
