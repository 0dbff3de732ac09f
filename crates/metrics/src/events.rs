//! The event-sourced observability spine.
//!
//! Every simulation layer — engine hooks, container cluster, scheduler
//! harness, multiplexer, and fleet — emits typed, timestamped [`SimEvent`]s
//! into a pluggable [`TraceSink`]. All run-level outputs (invocation
//! records, resource samples, client counters) are *derived* from this
//! stream by [`RecordReducer`]; there are no parallel hand-maintained
//! counters. Sinks range from the zero-cost [`NoopSink`] to the
//! [`AuditorSink`], which checks conservation, container state-machine
//! legality, memory-ledger non-negativity, and chain integrity online as
//! the stream flows. The state machine that follows an invocation's event
//! chain lives once, in `crate::chain`; reducer and auditor both hold it.
//!
//! See DESIGN.md §11 for the taxonomy and the emission contract.

use crate::chain::{ChainFold, Step, NO_ARRIVAL};
use crate::latency::InvocationRecord;
use crate::sampler::{ResourceSample, ResourceSampler};
use faasbatch_container::container::ContainerState;
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_simcore::idmap::IdMap;
use faasbatch_simcore::memory::MemCategory;
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;

/// What a simulated CPU task was doing.
///
/// This is the serializable mirror of the scheduler harness's internal work
/// kinds; fleet- and platform-level emitters use the same vocabulary so one
/// exporter serves every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Daemon-side dispatch/launch processing for a batch.
    Decision {
        /// Batch the decision serves.
        batch: u64,
    },
    /// CPU phase of a cold start serving a batch.
    ColdBoot {
        /// Batch waiting on the boot.
        batch: u64,
    },
    /// Storage-client creation on behalf of one batch member.
    ClientCreation {
        /// Batch the member belongs to.
        batch: u64,
        /// Member index within the batch.
        member: u32,
    },
    /// An invocation body (the function's own work).
    Body {
        /// Batch the member belongs to.
        batch: u64,
        /// Member index within the batch.
        member: u32,
    },
    /// Daemon-side launch processing for a pre-warmed container.
    PrewarmLaunch {
        /// Container being pre-warmed.
        container: ContainerId,
    },
    /// CPU phase of a pre-warming cold start.
    PrewarmBoot {
        /// Container being pre-warmed.
        container: ContainerId,
    },
    /// Fire-and-forget platform overhead charged to the daemon group.
    Overhead,
}

/// The payload of one trace event.
///
/// Externally tagged on serialization, so a JSONL line reads
/// `{"at":…,"kind":{"Arrival":{…}}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// An invocation entered the system.
    Arrival {
        /// The invocation.
        invocation: InvocationId,
        /// Function it targets.
        function: FunctionId,
    },
    /// The fleet router bound a same-key group of invocations to a worker.
    GroupFormed {
        /// Function shared by every member.
        function: FunctionId,
        /// Number of invocations in the group.
        size: u64,
        /// Worker the group was routed to.
        worker: u64,
        /// Fleet-level ids of the grouped invocations (`size` entries).
        members: Vec<InvocationId>,
    },
    /// A scheduler bound a batch of invocations to a container.
    DispatchDecision {
        /// Dense batch id within the run.
        batch: u64,
        /// Function served by the batch.
        function: FunctionId,
        /// Container chosen for the batch.
        container: ContainerId,
        /// Whether the container must cold-start first.
        cold: bool,
        /// Whether the container starts by restoring a snapshot instead of
        /// a full cold boot (mutually exclusive with `cold`). Absent from
        /// logs written before the snapshot tier existed; those runs could
        /// only boot or warm-hit, so it defaults to `false`.
        #[serde(default)]
        restored: bool,
        /// Whether responses are held to a per-batch barrier.
        barrier: bool,
        /// Members in batch order (member index = position here).
        members: Vec<InvocationId>,
    },
    /// A container began its cold-start sequence (image pull + boot).
    ColdStartBegin {
        /// Container starting up.
        container: ContainerId,
        /// Batch waiting on it, if any (`None` for pre-warming).
        batch: Option<u64>,
    },
    /// A container finished cold-starting and is usable.
    ColdStartEnd {
        /// Container now ready.
        container: ContainerId,
        /// Batch that was waiting, if any.
        batch: Option<u64>,
    },
    /// A container began restoring from a captured snapshot — the middle
    /// start tier, replacing the two-phase boot with a short pure delay.
    RestoreBegin {
        /// Container restoring.
        container: ContainerId,
        /// Batch waiting on it, if any.
        batch: Option<u64>,
    },
    /// A container finished its snapshot restore and is usable.
    RestoreDone {
        /// Container now ready.
        container: ContainerId,
        /// Batch that was waiting, if any.
        batch: Option<u64>,
    },
    /// A container moved between lifecycle states.
    ContainerStateChange {
        /// Container affected.
        container: ContainerId,
        /// Previous state (`None` when the container is first provisioned).
        from: Option<ContainerState>,
        /// New state.
        to: ContainerState,
    },
    /// A CPU task was admitted to the processor-sharing model.
    TaskStart {
        /// What the task computes.
        task: TaskKind,
    },
    /// A CPU task retired all of its work.
    TaskFinish {
        /// What the task computed.
        task: TaskKind,
    },
    /// One batch member began executing (its per-invocation chain started).
    ExecBegin {
        /// Batch the member belongs to.
        batch: u64,
        /// Member index within the batch.
        member: u32,
        /// The member's intrinsic work (uncontended body duration) — lets
        /// trace analysis split the observed body span into execution vs
        /// CPU-contention stretch.
        work: SimDuration,
    },
    /// One batch member finished its own work (before any barrier wait).
    ExecEnd {
        /// Batch the member belongs to.
        batch: u64,
        /// Member index within the batch.
        member: u32,
    },
    /// A storage-client request was served from the multiplexer cache.
    ClientCacheHit {
        /// Container whose cache was consulted.
        container: ContainerId,
        /// Hash key of the requested client.
        key: u64,
    },
    /// A storage-client request missed the cache (a creation must run or
    /// is already in flight).
    ClientCacheMiss {
        /// Container whose cache was consulted.
        container: ContainerId,
        /// Hash key of the requested client.
        key: u64,
    },
    /// A storage-client creation started executing.
    ClientCreateBegin {
        /// Container the client is created in.
        container: ContainerId,
        /// Batch of the requesting member.
        batch: u64,
        /// Member index of the requester.
        member: u32,
    },
    /// A storage-client creation finished and the client is usable.
    ClientCreateEnd {
        /// Container the client now lives in.
        container: ContainerId,
        /// Batch of the requesting member.
        batch: u64,
        /// Member index of the requester.
        member: u32,
        /// Bytes the client pins in memory.
        bytes: u64,
    },
    /// Memory was allocated in the host ledger.
    MemAlloc {
        /// Ledger category (`"container"`, `"client"` or `"platform"`).
        category: MemCategory,
        /// Bytes allocated.
        bytes: u64,
        /// Ledger total after the allocation.
        total: u64,
    },
    /// Memory was returned to the host ledger.
    MemFree {
        /// Ledger category the bytes belonged to.
        category: MemCategory,
        /// Bytes freed.
        bytes: u64,
        /// Ledger total after the free.
        total: u64,
    },
    /// A fleet worker crashed and lost its in-flight work.
    WorkerCrash {
        /// Worker that crashed.
        worker: u64,
    },
    /// An invocation lost in a crash was queued for another worker.
    Redispatch {
        /// The invocation being retried.
        invocation: InvocationId,
        /// Worker whose crash triggered the retry.
        from_worker: u64,
        /// Retry count after this re-dispatch.
        retries: u32,
    },
    /// A periodic host resource sample.
    HostSample {
        /// Resident ledger bytes.
        memory_bytes: u64,
        /// Busy cores (processor-sharing load).
        busy_cores: f64,
        /// Containers alive (not terminated).
        live_containers: u64,
    },
    /// An invocation's response was released to the caller.
    InvocationComplete {
        /// The invocation.
        invocation: InvocationId,
        /// Batch it ran in (`None` in fleet-level streams).
        batch: Option<u64>,
        /// Member index within the batch (`None` in fleet-level streams).
        member: Option<u32>,
    },
    /// An autoscaling controller requested `count` pre-warmed containers for
    /// `function`. The harness applies the action immediately, so the event
    /// is followed (at the same instant) by `count` `PrewarmLaunch` task
    /// starts — the auditor enforces the pairing.
    ScalePrewarm {
        /// Function being pre-warmed.
        function: FunctionId,
        /// Containers requested.
        count: u64,
    },
    /// An autoscaling controller changed one function's keep-alive TTL.
    ScaleKeepAlive {
        /// Function whose warm-pool TTL changed.
        function: FunctionId,
        /// The new keep-alive TTL.
        keep_alive: SimDuration,
    },
    /// The gateway admitted an invocation into a shard's ingress queue.
    GatewayEnqueue {
        /// The invocation.
        invocation: InvocationId,
        /// Shard (by function-id hash) the invocation was queued on.
        shard: u64,
    },
    /// A shard dispatcher pulled an invocation out of its ingress queue
    /// into the open dispatch window.
    GatewayAdmit {
        /// The invocation.
        invocation: InvocationId,
        /// Shard that admitted it.
        shard: u64,
    },
    /// The gateway refused an invocation because its shard queue was at its
    /// depth bound (back-pressure). Terminal for the invocation: no
    /// completion will follow.
    GatewayReject {
        /// The invocation.
        invocation: InvocationId,
        /// Shard that was saturated.
        shard: u64,
        /// Queue depth observed at rejection (the configured bound).
        depth: u64,
    },
    /// A shard dispatcher routed one whole dispatch-window group to a live
    /// worker (the live counterpart of `GroupFormed`).
    GatewayRoute {
        /// Function shared by every member.
        function: FunctionId,
        /// Shard that formed the group.
        shard: u64,
        /// Worker platform the group was routed to.
        worker: u64,
        /// The grouped invocations, in batch order.
        members: Vec<InvocationId>,
    },
}

impl EventKind {
    /// Stable name of the variant, used by counters and exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "Arrival",
            EventKind::GroupFormed { .. } => "GroupFormed",
            EventKind::DispatchDecision { .. } => "DispatchDecision",
            EventKind::ColdStartBegin { .. } => "ColdStartBegin",
            EventKind::ColdStartEnd { .. } => "ColdStartEnd",
            EventKind::RestoreBegin { .. } => "RestoreBegin",
            EventKind::RestoreDone { .. } => "RestoreDone",
            EventKind::ContainerStateChange { .. } => "ContainerStateChange",
            EventKind::TaskStart { .. } => "TaskStart",
            EventKind::TaskFinish { .. } => "TaskFinish",
            EventKind::ExecBegin { .. } => "ExecBegin",
            EventKind::ExecEnd { .. } => "ExecEnd",
            EventKind::ClientCacheHit { .. } => "ClientCacheHit",
            EventKind::ClientCacheMiss { .. } => "ClientCacheMiss",
            EventKind::ClientCreateBegin { .. } => "ClientCreateBegin",
            EventKind::ClientCreateEnd { .. } => "ClientCreateEnd",
            EventKind::MemAlloc { .. } => "MemAlloc",
            EventKind::MemFree { .. } => "MemFree",
            EventKind::WorkerCrash { .. } => "WorkerCrash",
            EventKind::Redispatch { .. } => "Redispatch",
            EventKind::HostSample { .. } => "HostSample",
            EventKind::InvocationComplete { .. } => "InvocationComplete",
            EventKind::ScalePrewarm { .. } => "ScalePrewarm",
            EventKind::ScaleKeepAlive { .. } => "ScaleKeepAlive",
            EventKind::GatewayEnqueue { .. } => "GatewayEnqueue",
            EventKind::GatewayAdmit { .. } => "GatewayAdmit",
            EventKind::GatewayReject { .. } => "GatewayReject",
            EventKind::GatewayRoute { .. } => "GatewayRoute",
        }
    }
}

/// One typed, timestamped trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Simulated time the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl SimEvent {
    /// Convenience constructor.
    pub fn new(at: SimTime, kind: EventKind) -> Self {
        SimEvent { at, kind }
    }
}

/// Where trace events go.
///
/// Implementations must be cheap enough to sit on the simulation hot path;
/// [`NoopSink`] in particular must cost nothing beyond the virtual call.
/// A sink only observes: nothing it returns reaches the run that feeds it.
/// A controller that acts on the stream is worker state instead
/// ([`Autoscaler`](crate::autoscaler::Autoscaler)).
pub trait TraceSink {
    /// Observes one event. Events arrive in non-decreasing time order.
    fn record(&mut self, event: &SimEvent);

    /// Observes a batch of events at once. The batch is a contiguous slice
    /// of the stream: events within and across batches arrive in the same
    /// non-decreasing time order [`record`](Self::record) guarantees, so a
    /// sink may treat `record_batch(&[a, b])` exactly like `record(a);
    /// record(b)` — which is the default. Emitters batch to amortise the
    /// virtual call; sinks with a cheaper bulk path (e.g.
    /// [`VecSink`]'s `extend_from_slice`, [`NoopSink`]'s nothing-at-all)
    /// override it.
    fn record_batch(&mut self, events: &[SimEvent]) {
        for event in events {
            self.record(event);
        }
    }

    /// Downcast support: recover the concrete sink after a traced run
    /// returns it as `Box<dyn TraceSink>`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Discards every event. The default sink for untraced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline]
    fn record(&mut self, _event: &SimEvent) {}
    #[inline]
    fn record_batch(&mut self, _events: &[SimEvent]) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Collects every event in order. The workhorse for tests and exporters.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<SimEvent>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The collected events, oldest first.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &SimEvent) {
        self.events.push(event.clone());
    }
    fn record_batch(&mut self, events: &[SimEvent]) {
        self.events.extend_from_slice(events);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Renders `events` as JSON Lines — one object per line, the format
/// [`JsonlSink`] streams and `analysis::load_events` reads back.
pub fn to_jsonl(events: &[SimEvent]) -> serde_json::Result<String> {
    let mut jsonl = String::new();
    for event in events {
        jsonl.push_str(&serde_json::to_string(event)?);
        jsonl.push('\n');
    }
    Ok(jsonl)
}

/// Streams events as JSON Lines to any writer.
pub struct JsonlSink {
    out: Box<dyn Write>,
    lines: u64,
    io_errors: u64,
}

impl JsonlSink {
    /// Wraps a writer; one JSON object per line, flushed on drop.
    pub fn new(out: Box<dyn Write>) -> Self {
        JsonlSink {
            out,
            lines: 0,
            io_errors: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write failures observed (events are dropped, not retried).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("io_errors", &self.io_errors)
            .finish()
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &SimEvent) {
        let Ok(line) = serde_json::to_string(event) else {
            self.io_errors += 1;
            return;
        };
        match writeln!(self.out, "{line}") {
            Ok(()) => self.lines += 1,
            Err(_) => self.io_errors += 1,
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Fans every event out to several sinks in order.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl MultiSink {
    /// Builds a fan-out over `sinks`.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        MultiSink { sinks }
    }

    /// Consumes the fan-out, yielding the inner sinks.
    pub fn into_sinks(self) -> Vec<Box<dyn TraceSink>> {
        self.sinks
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for MultiSink {
    fn record(&mut self, event: &SimEvent) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }
    fn record_batch(&mut self, events: &[SimEvent]) {
        for sink in &mut self.sinks {
            sink.record_batch(events);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Everything a run derives from its event stream.
///
/// Produced by [`RecordReducer::finish`]; the harness folds this into its
/// `RunReport`.
#[derive(Debug)]
pub struct ReducedRun {
    /// Per-invocation records in completion order (callers sort by id).
    pub records: Vec<InvocationRecord>,
    /// Host resource samples.
    pub sampler: ResourceSampler,
    /// Earliest arrival seen (`SimTime::ZERO` when the run was empty).
    pub first_arrival: SimTime,
    /// Latest completion seen (`SimTime::ZERO` when nothing completed).
    pub last_completion: SimTime,
    /// Storage-client requests issued (cache hits + misses).
    pub client_requests: u64,
    /// Storage clients actually created.
    pub clients_created: u64,
    /// Bytes pinned by created clients.
    pub client_bytes_allocated: u64,
}

/// Folds the event stream into invocation records and run counters.
///
/// The records are the four-part projection
/// ([`LatencyBreakdown::from`](crate::latency::LatencyBreakdown)) of the
/// attributions the shared chain fold (`crate::chain`) yields; the reducer
/// adds only the run counters. It never panics: a completion on an
/// incomplete chain yields no record (the [`AuditorSink`] names it).
#[derive(Debug, Default)]
pub struct RecordReducer {
    fold: ChainFold,
    records: Vec<InvocationRecord>,
    sampler: ResourceSampler,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    client_requests: u64,
    clients_created: u64,
    client_bytes_allocated: u64,
}

impl RecordReducer {
    /// A reducer with no state.
    pub fn new() -> Self {
        RecordReducer::default()
    }

    /// Invocations completed so far.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Records produced so far, in completion order.
    pub fn records(&self) -> &[InvocationRecord] {
        &self.records
    }

    /// Ids that have arrived but not completed, ascending — what a worker
    /// stopped mid-run still held. Linear in what is open.
    pub fn open_invocations(&self) -> Vec<InvocationId> {
        self.fold.open_invocations()
    }

    /// Folds one event. Returns the invocation record when the event
    /// completes an invocation (so callers can fire policy callbacks
    /// without re-deriving it).
    pub fn on_event(&mut self, event: &SimEvent) -> Option<InvocationRecord> {
        match &event.kind {
            EventKind::Arrival { .. } => {
                let first = self.first_arrival.map_or(event.at, |t| t.min(event.at));
                self.first_arrival = Some(first);
            }
            EventKind::ClientCacheHit { .. } | EventKind::ClientCacheMiss { .. } => {
                self.client_requests += 1;
            }
            EventKind::ClientCreateEnd { bytes, .. } => {
                self.clients_created += 1;
                self.client_bytes_allocated += bytes;
            }
            EventKind::HostSample {
                memory_bytes,
                busy_cores,
                live_containers,
            } => {
                self.sampler.record(ResourceSample {
                    at: event.at,
                    memory_bytes: *memory_bytes,
                    busy_cores: *busy_cores,
                    live_containers: *live_containers,
                });
            }
            _ => {}
        }
        let Step::Complete(attribution) = self.fold.on_event(event) else {
            return None;
        };
        self.last_completion = self.last_completion.max(attribution.completion);
        // Fleet-level completions carry no container: their records come
        // from worker merges.
        let record = attribution.record()?;
        self.records.push(record);
        Some(record)
    }

    /// Finishes the fold, yielding everything derived from the stream.
    pub fn finish(self) -> ReducedRun {
        ReducedRun {
            records: self.records,
            sampler: self.sampler,
            first_arrival: self.first_arrival.unwrap_or(SimTime::ZERO),
            last_completion: self.last_completion,
            client_requests: self.client_requests,
            clients_created: self.clients_created,
            client_bytes_allocated: self.client_bytes_allocated,
        }
    }
}

/// Upper bound on retained violation messages before truncation.
const MAX_VIOLATIONS: usize = 64;

/// Online invariant auditor.
///
/// Checks, as the stream flows:
///
/// * **time order** — event timestamps never decrease;
/// * **conservation** — every completion matches exactly one arrival, and
///   (at [`AuditorSink::finish`]) every arrival completed;
/// * **container legality** — state changes follow
///   `∅ → Provisioning → Idle ⇄ Busy`, with `Idle → Terminated` the only
///   exit, and each event's `from` matches the tracked state;
/// * **memory ledger** — per-category and global totals never go negative,
///   frees match live allocations, and the event's `total` agrees with the
///   running sum;
/// * **chain integrity** — every completion closes a whole event chain
///   (arrival, dispatch decision, decision finish, container ready,
///   `ExecBegin`, `ExecEnd`), member indices fit their batch, and the
///   eleven phases read off the chain sum exactly to the end-to-end span
///   ([`InvocationAttribution::is_exact`](crate::analysis::InvocationAttribution::is_exact));
/// * **task pairing** — `TaskFinish`/`ColdStartEnd`/`RestoreDone` match an
///   open `TaskStart`/`ColdStartBegin`/`RestoreBegin`.
#[derive(Debug, Default)]
pub struct AuditorSink {
    violations: Vec<String>,
    truncated: u64,
    last_at: Option<SimTime>,
    /// arrival time → completion count per invocation.
    seen: IdMap<InvocationId, u32>,
    containers: IdMap<ContainerId, ContainerState>,
    mem_by_category: HashMap<MemCategory, i128>,
    mem_total: i128,
    open_tasks: IdMap<TaskKind, u32>,
    open_cold_starts: IdMap<ContainerId, u32>,
    open_restores: IdMap<ContainerId, u32>,
    /// Scale-prewarm requests not yet matched by a `PrewarmLaunch` start.
    pending_scale_prewarms: u64,
    /// Gateway enqueues not yet matched by an admit, per invocation.
    gateway_open: IdMap<InvocationId, u32>,
    fold: ChainFold,
    finished: bool,
}

impl AuditorSink {
    /// A fresh auditor.
    pub fn new() -> Self {
        AuditorSink::default()
    }

    /// Records one violation. Takes the message *lazily*: on the hot path
    /// every check calls this conditionally, but once the retention cap is
    /// hit (or in the common all-clean case, never at all) the `format!`
    /// must not run — clean runs pay a branch, not an allocation.
    fn violate(&mut self, at: SimTime, message: impl FnOnce() -> String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!("[{at}] {}", message()));
        } else {
            self.truncated += 1;
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Runs end-of-stream checks (unfinished arrivals, unbalanced tasks)
    /// once, then returns all violations.
    pub fn finish(&mut self) -> &[String] {
        if !self.finished {
            self.finished = true;
            let mut unfinished: Vec<InvocationId> = self
                .seen
                .iter()
                .filter(|(_, n)| **n == 0)
                .map(|(id, _)| *id)
                .collect();
            unfinished.sort();
            for id in unfinished {
                self.violate(SimTime::ZERO, || {
                    format!("{id} arrived but never completed")
                });
            }
            let mut open: Vec<String> = self
                .open_tasks
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(task, n)| format!("task {task:?} left open {n} time(s)"))
                .collect();
            open.sort();
            for msg in open {
                self.violate(SimTime::ZERO, || msg);
            }
            let mut cold: Vec<ContainerId> = self
                .open_cold_starts
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(c, _)| *c)
                .collect();
            cold.sort();
            for c in cold {
                self.violate(SimTime::ZERO, || format!("{c} cold start never ended"));
            }
            let mut restores: Vec<ContainerId> = self
                .open_restores
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(c, _)| *c)
                .collect();
            restores.sort();
            for c in restores {
                self.violate(SimTime::ZERO, || format!("{c} restore never ended"));
            }
            if self.pending_scale_prewarms > 0 {
                let n = self.pending_scale_prewarms;
                self.violate(SimTime::ZERO, || {
                    format!("{n} scale-prewarm request(s) never launched a container")
                });
            }
            let mut stuck: Vec<InvocationId> = self
                .gateway_open
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(id, _)| *id)
                .collect();
            stuck.sort();
            for id in stuck {
                self.violate(SimTime::ZERO, || {
                    format!("{id} enqueued on a gateway shard but never admitted")
                });
            }
            if self.truncated > 0 {
                let n = self.truncated;
                self.violations
                    .push(format!("… {n} further violations truncated"));
            }
        }
        &self.violations
    }

    fn check_container(&mut self, at: SimTime, event: &EventKind) {
        let EventKind::ContainerStateChange {
            container,
            from,
            to,
        } = event
        else {
            return;
        };
        let tracked = self.containers.get(container).copied();
        if tracked != *from {
            self.violate(at, || {
                format!(
                    "{container} claims transition from {from:?} but tracked state is {tracked:?}"
                )
            });
        }
        let legal = matches!(
            (tracked, to),
            (None, ContainerState::Provisioning)
                | (Some(ContainerState::Provisioning), ContainerState::Idle)
                | (Some(ContainerState::Idle), ContainerState::Busy)
                | (Some(ContainerState::Busy), ContainerState::Idle)
                | (Some(ContainerState::Idle), ContainerState::Terminated)
        );
        if !legal {
            self.violate(at, || {
                format!("{container} illegal transition {tracked:?} → {to:?}")
            });
        }
        self.containers.insert(*container, *to);
    }

    fn check_memory(&mut self, at: SimTime, event: &EventKind) {
        match event {
            EventKind::MemAlloc {
                category,
                bytes,
                total,
            } => {
                *self.mem_by_category.entry(*category).or_insert(0) += i128::from(*bytes);
                self.mem_total += i128::from(*bytes);
                if self.mem_total != i128::from(*total) {
                    let tracked = self.mem_total;
                    self.violate(at, || {
                        format!("ledger total {total} disagrees with audited sum {tracked}")
                    });
                }
            }
            EventKind::MemFree {
                category,
                bytes,
                total,
            } => {
                let cat = self.mem_by_category.entry(*category).or_insert(0);
                *cat -= i128::from(*bytes);
                if *cat < 0 {
                    let v = *cat;
                    self.violate(at, || format!("category `{category}` went negative ({v})"));
                }
                self.mem_total -= i128::from(*bytes);
                if self.mem_total < 0 {
                    let v = self.mem_total;
                    self.violate(at, || format!("ledger total went negative ({v})"));
                }
                if self.mem_total != i128::from(*total) {
                    let tracked = self.mem_total;
                    self.violate(at, || {
                        format!("ledger total {total} disagrees with audited sum {tracked}")
                    });
                }
            }
            _ => {}
        }
    }
}

impl TraceSink for AuditorSink {
    fn record(&mut self, event: &SimEvent) {
        let at = event.at;
        if let Some(last) = self.last_at {
            if at < last {
                self.violate(at, || {
                    format!("time went backwards (previous event at {last})")
                });
            }
        }
        self.last_at = Some(at);

        match &event.kind {
            EventKind::Arrival { invocation, .. } if self.seen.insert(*invocation, 0).is_some() => {
                self.violate(at, || format!("{invocation} arrived twice"));
            }
            EventKind::InvocationComplete { invocation, .. } => {
                match self.seen.get_mut(invocation) {
                    Some(n) => {
                        *n += 1;
                        if *n > 1 {
                            let n = *n;
                            self.violate(at, || format!("{invocation} completed {n} times"));
                        }
                    }
                    None => self.violate(at, || format!("{invocation} completed without arriving")),
                }
            }
            EventKind::TaskStart { task } => {
                *self.open_tasks.entry(*task).or_insert(0) += 1;
                // A pre-warm launch consumes one outstanding scale-prewarm
                // request (policy-initiated pre-warms simply don't consume).
                if matches!(task, TaskKind::PrewarmLaunch { .. }) && self.pending_scale_prewarms > 0
                {
                    self.pending_scale_prewarms -= 1;
                }
            }
            EventKind::ScalePrewarm { count, .. } => {
                if *count == 0 {
                    self.violate(at, || "scale-prewarm requested zero containers".to_owned());
                }
                self.pending_scale_prewarms += count;
            }
            EventKind::ScaleKeepAlive { keep_alive, .. } if keep_alive.is_zero() => {
                self.violate(at, || "scale action set a zero keep-alive TTL".to_owned());
            }
            EventKind::TaskFinish { task } => {
                let open = self.open_tasks.entry(*task).or_insert(0);
                if *open == 0 {
                    self.violate(at, || format!("task {task:?} finished without starting"));
                } else {
                    *open -= 1;
                }
            }
            EventKind::ColdStartBegin { container, .. } => {
                *self.open_cold_starts.entry(*container).or_insert(0) += 1;
            }
            EventKind::ColdStartEnd { container, .. } => {
                let open = self.open_cold_starts.entry(*container).or_insert(0);
                if *open == 0 {
                    self.violate(at, || {
                        format!("{container} cold start ended without beginning")
                    });
                } else {
                    *open -= 1;
                }
            }
            EventKind::RestoreBegin { container, .. } => {
                *self.open_restores.entry(*container).or_insert(0) += 1;
            }
            EventKind::RestoreDone { container, .. } => {
                let open = self.open_restores.entry(*container).or_insert(0);
                if *open == 0 {
                    self.violate(at, || {
                        format!("{container} restore ended without beginning")
                    });
                } else {
                    *open -= 1;
                }
            }
            EventKind::GatewayEnqueue { invocation, shard } => {
                if !self.seen.contains_key(invocation) {
                    self.violate(at, || {
                        format!("{invocation} enqueued on shard {shard} without arriving")
                    });
                }
                let open = self.gateway_open.entry(*invocation).or_insert(0);
                *open += 1;
                if *open > 1 {
                    self.violate(at, || format!("{invocation} enqueued twice"));
                }
            }
            EventKind::GatewayAdmit { invocation, shard } => {
                let open = self.gateway_open.entry(*invocation).or_insert(0);
                if *open == 0 {
                    self.violate(at, || {
                        format!("{invocation} admitted by shard {shard} without an enqueue")
                    });
                } else {
                    *open -= 1;
                }
            }
            EventKind::GatewayReject { invocation, .. } => {
                // Rejection is terminal and must come straight from the
                // front door — a queued (enqueued) invocation is committed.
                if self.gateway_open.get(invocation).copied().unwrap_or(0) > 0 {
                    self.violate(at, || format!("{invocation} rejected after being enqueued"));
                }
                match self.seen.get_mut(invocation) {
                    Some(n) => {
                        *n += 1;
                        if *n > 1 {
                            let n = *n;
                            self.violate(at, || {
                                format!("{invocation} rejected but terminated {n} times")
                            });
                        }
                    }
                    None => self.violate(at, || format!("{invocation} rejected without arriving")),
                }
            }
            EventKind::GatewayRoute { members, .. } => {
                if members.is_empty() {
                    self.violate(at, || "gateway routed an empty group".to_owned());
                }
                for member in members {
                    if !self.seen.contains_key(member) {
                        self.violate(at, || format!("{member} routed without arriving"));
                    }
                }
            }
            _ => {}
        }
        self.check_container(at, &event.kind);
        self.check_memory(at, &event.kind);

        match self.fold.on_event(event) {
            // The conservation check above already named it.
            Step::Quiet
            | Step::Incomplete {
                missing: NO_ARRIVAL,
                ..
            } => {}
            Step::Complete(a) => {
                let id = a.id;
                if !a.is_exact() {
                    self.violate(at, || {
                        format!("{id} latency components do not tile its span")
                    });
                }
                if a.completion < a.arrival {
                    self.violate(at, || format!("{id} completed before it arrived"));
                }
            }
            Step::Incomplete {
                invocation,
                missing,
            } => self.violate(at, || {
                format!("{invocation} completed on an incomplete chain (no {missing})")
            }),
            Step::OutOfBatch {
                batch,
                member,
                size,
            } => self.violate(at, || {
                format!("batch #{batch} member {member} outside a batch of {size}")
            }),
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Renders an event stream in Chrome `about:tracing` / Perfetto JSON.
///
/// CPU tasks, cold starts, and snapshot restores become complete (`"X"`)
/// duration slices by pairing their begin/end events; everything else becomes an instant
/// (`"i"`) event. Timestamps are microseconds, which is exactly
/// [`SimTime::as_micros`], so the trace plays back at simulated time.
///
/// Two higher-level overlays live on pid 1: every invocation gets an
/// arrival→completion slice (its own lane), and each fleet `GroupFormed`
/// becomes a marker slice on the router lane with flow arrows (`ph` `s`/`f`)
/// to every member's invocation slice, so group expansion renders as arrows
/// in `about:tracing`.
pub fn chrome_trace(events: &[SimEvent]) -> String {
    let mut buf = Vec::new();
    chrome_trace_to(events, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("chrome trace is valid UTF-8")
}

/// Streaming form of [`chrome_trace`]: renders straight into `out` line by
/// line, so exporting a full-day log never builds (or doubles) the whole
/// JSON document in memory.
pub fn chrome_trace_to(events: &[SimEvent], out: &mut dyn Write) -> std::io::Result<()> {
    fn push(
        out: &mut dyn Write,
        first: &mut bool,
        line: std::fmt::Arguments<'_>,
    ) -> std::io::Result<()> {
        if !*first {
            out.write_all(b",\n")?;
        }
        *first = false;
        out.write_fmt(line)
    }
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut first = true;
    let mut open_tasks: HashMap<TaskKind, SimTime> = HashMap::new();
    let mut open_cold: HashMap<ContainerId, SimTime> = HashMap::new();
    let mut open_restores: HashMap<ContainerId, SimTime> = HashMap::new();
    let mut arrivals: HashMap<InvocationId, SimTime> = HashMap::new();
    // member → every (flow id, formation time) of a group it was routed in.
    let mut member_groups: HashMap<InvocationId, Vec<(u64, SimTime)>> = HashMap::new();
    let mut group_seq = 0u64;
    for event in events {
        let ts = event.at.as_micros();
        match &event.kind {
            EventKind::Arrival { invocation, .. } => {
                arrivals.insert(*invocation, event.at);
                let mut args = String::new();
                instant_args(&event.kind, &mut args);
                push(out, &mut first, format_args!(
                        "{{\"name\":\"Arrival\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{{args}}}}}"
                    ))?;
            }
            EventKind::GroupFormed {
                function,
                size,
                worker,
                members,
            } => {
                let id = group_seq;
                group_seq += 1;
                for m in members {
                    member_groups.entry(*m).or_default().push((id, event.at));
                }
                // Marker slice on the router lane (pid 1, tid 0) anchoring
                // the outgoing flow arrow.
                push(out, &mut first, format_args!(
                        "{{\"name\":\"GroupFormed\",\"cat\":\"fleet\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\"pid\":1,\"tid\":0,\"args\":{{\"function\":{},\"size\":{size},\"worker\":{worker}}}}}",
                        function.index()
                    ))?;
                push(out, &mut first, format_args!(
                        "{{\"name\":\"group\",\"cat\":\"fleet\",\"ph\":\"s\",\"id\":{id},\"ts\":{ts},\"pid\":1,\"tid\":0}}"
                    ))?;
            }
            EventKind::InvocationComplete { invocation, .. } => {
                if let Some(arrival) = arrivals.get(invocation) {
                    // Invocation lane on pid 1; tid 0 is the router lane,
                    // so invocation lanes start at 1.
                    let tid = invocation.value() + 1;
                    let begin = arrival.as_micros();
                    push(out, &mut first, format_args!(
                            "{{\"name\":\"Invocation\",\"cat\":\"invocation\",\"ph\":\"X\",\"ts\":{begin},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"invocation\":{}}}}}",
                            ts - begin,
                            invocation.value(),
                        ))?;
                    for (id, formed) in member_groups.remove(invocation).unwrap_or_default() {
                        // Bind the arrow inside the invocation slice: the
                        // group formed at or before this completion, so the
                        // clamp keeps the flow terminus enclosed.
                        let bind = formed.max(*arrival).as_micros().min(ts);
                        push(out, &mut first, format_args!(
                                "{{\"name\":\"group\",\"cat\":\"fleet\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{bind},\"pid\":1,\"tid\":{tid}}}"
                            ))?;
                    }
                }
                let mut args = String::new();
                instant_args(&event.kind, &mut args);
                push(out, &mut first, format_args!(
                        "{{\"name\":\"InvocationComplete\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{{args}}}}}"
                    ))?;
            }
            EventKind::TaskStart { task } => {
                open_tasks.insert(*task, event.at);
            }
            EventKind::TaskFinish { task } => {
                if let Some(begin) = open_tasks.remove(task) {
                    let dur = ts - begin.as_micros();
                    let (name, args) = task_name_args(task);
                    push(out, &mut first, format_args!(
                            "{{\"name\":\"{name}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                            begin.as_micros(),
                            task_tid(task),
                        ))?;
                }
            }
            EventKind::ColdStartBegin { container, .. } => {
                open_cold.insert(*container, event.at);
            }
            EventKind::ColdStartEnd { container, .. } => {
                if let Some(begin) = open_cold.remove(container) {
                    let dur = ts - begin.as_micros();
                    push(out, &mut first, format_args!(
                            "{{\"name\":\"ColdStart\",\"cat\":\"container\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":0,\"tid\":{},\"args\":{{\"container\":{}}}}}",
                            begin.as_micros(),
                            container.value(),
                            container.value(),
                        ))?;
                }
            }
            EventKind::RestoreBegin { container, .. } => {
                open_restores.insert(*container, event.at);
            }
            EventKind::RestoreDone { container, .. } => {
                if let Some(begin) = open_restores.remove(container) {
                    let dur = ts - begin.as_micros();
                    push(out, &mut first, format_args!(
                            "{{\"name\":\"Restore\",\"cat\":\"container\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":0,\"tid\":{},\"args\":{{\"container\":{}}}}}",
                            begin.as_micros(),
                            container.value(),
                            container.value(),
                        ))?;
                }
            }
            EventKind::HostSample {
                memory_bytes,
                busy_cores,
                live_containers,
            } => {
                push(out, &mut first, format_args!(
                        "{{\"name\":\"host\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"memory_bytes\":{memory_bytes},\"busy_cores\":{busy_cores},\"live_containers\":{live_containers}}}}}"
                    ))?;
            }
            other => {
                let name = other.name();
                let mut args = String::new();
                instant_args(other, &mut args);
                push(out, &mut first, format_args!(
                        "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{{args}}}}}"
                    ))?;
            }
        }
    }
    out.write_all(b"\n]}\n")?;
    Ok(())
}

/// Chrome trace thread id for a task: containers get their own lane,
/// daemon-side work shares lane 0.
fn task_tid(task: &TaskKind) -> u64 {
    match task {
        TaskKind::PrewarmLaunch { container } | TaskKind::PrewarmBoot { container } => {
            container.value()
        }
        _ => 0,
    }
}

/// Name and `args` body for a task slice.
fn task_name_args(task: &TaskKind) -> (&'static str, String) {
    match task {
        TaskKind::Decision { batch } => ("Decision", format!("\"batch\":{batch}")),
        TaskKind::ColdBoot { batch } => ("ColdBoot", format!("\"batch\":{batch}")),
        TaskKind::ClientCreation { batch, member } => (
            "ClientCreation",
            format!("\"batch\":{batch},\"member\":{member}"),
        ),
        TaskKind::Body { batch, member } => {
            ("Body", format!("\"batch\":{batch},\"member\":{member}"))
        }
        TaskKind::PrewarmLaunch { container } => (
            "PrewarmLaunch",
            format!("\"container\":{}", container.value()),
        ),
        TaskKind::PrewarmBoot { container } => (
            "PrewarmBoot",
            format!("\"container\":{}", container.value()),
        ),
        TaskKind::Overhead => ("Overhead", String::new()),
    }
}

/// Key numeric fields for an instant event's `args` body.
fn instant_args(kind: &EventKind, out: &mut String) {
    match kind {
        EventKind::Arrival {
            invocation,
            function,
        } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"function\":{}",
                invocation.value(),
                function.index()
            );
        }
        EventKind::DispatchDecision {
            batch,
            container,
            cold,
            restored,
            ..
        } => {
            let _ = write!(
                out,
                "\"batch\":{batch},\"container\":{},\"cold\":{cold},\"restored\":{restored}",
                container.value()
            );
        }
        EventKind::InvocationComplete { invocation, .. } => {
            let _ = write!(out, "\"invocation\":{}", invocation.value());
        }
        EventKind::ContainerStateChange { container, to, .. } => {
            let _ = write!(out, "\"container\":{},\"to\":\"{to:?}\"", container.value());
        }
        EventKind::WorkerCrash { worker } => {
            let _ = write!(out, "\"worker\":{worker}");
        }
        EventKind::Redispatch {
            invocation,
            from_worker,
            retries,
        } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"from_worker\":{from_worker},\"retries\":{retries}",
                invocation.value()
            );
        }
        EventKind::GroupFormed {
            function,
            size,
            worker,
            ..
        } => {
            let _ = write!(
                out,
                "\"function\":{},\"size\":{size},\"worker\":{worker}",
                function.index()
            );
        }
        EventKind::MemAlloc { bytes, total, .. } | EventKind::MemFree { bytes, total, .. } => {
            let _ = write!(out, "\"bytes\":{bytes},\"total\":{total}");
        }
        EventKind::ScalePrewarm { function, count } => {
            let _ = write!(out, "\"function\":{},\"count\":{count}", function.index());
        }
        EventKind::ScaleKeepAlive {
            function,
            keep_alive,
        } => {
            let _ = write!(
                out,
                "\"function\":{},\"keep_alive_us\":{}",
                function.index(),
                keep_alive.as_micros()
            );
        }
        EventKind::GatewayEnqueue { invocation, shard }
        | EventKind::GatewayAdmit { invocation, shard } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"shard\":{shard}",
                invocation.value()
            );
        }
        EventKind::GatewayReject {
            invocation,
            shard,
            depth,
        } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"shard\":{shard},\"depth\":{depth}",
                invocation.value()
            );
        }
        EventKind::GatewayRoute {
            function,
            shard,
            worker,
            members,
        } => {
            let _ = write!(
                out,
                "\"function\":{},\"shard\":{shard},\"worker\":{worker},\"size\":{}",
                function.index(),
                members.len()
            );
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, kind: EventKind) -> SimEvent {
        SimEvent::new(SimTime::from_micros(us), kind)
    }

    fn arrival(us: u64, inv: u64) -> SimEvent {
        ev(
            us,
            EventKind::Arrival {
                invocation: InvocationId::new(inv),
                function: FunctionId::new(0),
            },
        )
    }

    /// A minimal warm single-member batch: arrive, dispatch, decide,
    /// execute, complete. Returns the full stream.
    fn tiny_run() -> Vec<SimEvent> {
        vec![
            arrival(0, 7),
            ev(
                0,
                EventKind::DispatchDecision {
                    batch: 0,
                    function: FunctionId::new(0),
                    container: ContainerId::new(1),
                    cold: false,
                    restored: false,
                    barrier: false,
                    members: vec![InvocationId::new(7)],
                },
            ),
            ev(
                0,
                EventKind::TaskStart {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                100,
                EventKind::TaskFinish {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                150,
                EventKind::ExecBegin {
                    batch: 0,
                    member: 0,
                    work: SimDuration::from_micros(750),
                },
            ),
            ev(
                900,
                EventKind::ExecEnd {
                    batch: 0,
                    member: 0,
                },
            ),
            ev(
                900,
                EventKind::InvocationComplete {
                    invocation: InvocationId::new(7),
                    batch: Some(0),
                    member: Some(0),
                },
            ),
        ]
    }

    #[test]
    fn reducer_reproduces_latency_decomposition() {
        let mut reducer = RecordReducer::new();
        let mut record = None;
        for event in tiny_run() {
            if let Some(r) = reducer.on_event(&event) {
                record = Some(r);
            }
        }
        let r = record.expect("record produced");
        assert_eq!(r.id, InvocationId::new(7));
        assert_eq!(r.latency.scheduling, SimDuration::from_micros(100));
        assert_eq!(r.latency.cold_start, SimDuration::ZERO);
        assert_eq!(r.latency.queuing, SimDuration::from_micros(50));
        assert_eq!(r.latency.execution, SimDuration::from_micros(750));
        assert!(r.is_consistent());
        let reduced = reducer.finish();
        assert_eq!(reduced.records.len(), 1);
        assert_eq!(reduced.first_arrival, SimTime::ZERO);
        assert_eq!(reduced.last_completion, SimTime::from_micros(900));
    }

    #[test]
    fn cold_start_component_spans_decision_to_ready() {
        let mut reducer = RecordReducer::new();
        let stream = vec![
            arrival(0, 1),
            ev(
                0,
                EventKind::DispatchDecision {
                    batch: 0,
                    function: FunctionId::new(0),
                    container: ContainerId::new(1),
                    cold: true,
                    restored: false,
                    barrier: false,
                    members: vec![InvocationId::new(1)],
                },
            ),
            ev(
                50,
                EventKind::TaskFinish {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                450,
                EventKind::ColdStartEnd {
                    container: ContainerId::new(1),
                    batch: Some(0),
                },
            ),
            ev(
                450,
                EventKind::ExecBegin {
                    batch: 0,
                    member: 0,
                    work: SimDuration::from_micros(200),
                },
            ),
            ev(
                650,
                EventKind::ExecEnd {
                    batch: 0,
                    member: 0,
                },
            ),
            ev(
                650,
                EventKind::InvocationComplete {
                    invocation: InvocationId::new(1),
                    batch: Some(0),
                    member: Some(0),
                },
            ),
        ];
        let mut record = None;
        for event in &stream {
            if let Some(r) = reducer.on_event(event) {
                record = Some(r);
            }
        }
        let r = record.unwrap();
        assert!(r.cold);
        assert_eq!(r.latency.cold_start, SimDuration::from_micros(400));
        assert_eq!(r.latency.queuing, SimDuration::ZERO);
    }

    #[test]
    fn restore_fills_the_cold_start_component_with_a_short_span() {
        let mut reducer = RecordReducer::new();
        let stream = vec![
            arrival(0, 1),
            ev(
                0,
                EventKind::DispatchDecision {
                    batch: 0,
                    function: FunctionId::new(0),
                    container: ContainerId::new(1),
                    cold: false,
                    restored: true,
                    barrier: false,
                    members: vec![InvocationId::new(1)],
                },
            ),
            ev(
                0,
                EventKind::TaskStart {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                50,
                EventKind::TaskFinish {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                50,
                EventKind::RestoreBegin {
                    container: ContainerId::new(1),
                    batch: Some(0),
                },
            ),
            ev(
                89,
                EventKind::RestoreDone {
                    container: ContainerId::new(1),
                    batch: Some(0),
                },
            ),
            ev(
                89,
                EventKind::ExecBegin {
                    batch: 0,
                    member: 0,
                    work: SimDuration::from_micros(200),
                },
            ),
            ev(
                289,
                EventKind::ExecEnd {
                    batch: 0,
                    member: 0,
                },
            ),
            ev(
                289,
                EventKind::InvocationComplete {
                    invocation: InvocationId::new(1),
                    batch: Some(0),
                    member: Some(0),
                },
            ),
        ];
        let mut record = None;
        for event in &stream {
            if let Some(r) = reducer.on_event(event) {
                record = Some(r);
            }
        }
        let r = record.unwrap();
        assert!(!r.cold, "a restore is not a full cold boot");
        assert!(r.restored);
        assert_eq!(r.latency.cold_start, SimDuration::from_micros(39));
        assert_eq!(r.latency.queuing, SimDuration::ZERO);
        assert!(r.is_consistent());

        let mut auditor = AuditorSink::new();
        for event in &stream {
            auditor.record(event);
        }
        assert_eq!(auditor.finish(), &[] as &[String]);
    }

    #[test]
    fn auditor_flags_unbalanced_restores() {
        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::RestoreBegin {
                container: ContainerId::new(4),
                batch: Some(0),
            },
        ));
        let violations = auditor.finish();
        assert!(
            violations.iter().any(|v| v.contains("restore never ended")),
            "{violations:?}"
        );

        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::RestoreDone {
                container: ContainerId::new(4),
                batch: Some(0),
            },
        ));
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.contains("restore ended without beginning")));
    }

    #[test]
    fn pre_snapshot_logs_deserialize_with_restored_false() {
        // A DispatchDecision line written before the `restored` field
        // existed must still parse (defaulting to a non-restored start).
        let old = r#"{"at":0,"kind":{"DispatchDecision":{"batch":0,"function":0,"container":1,"cold":true,"barrier":false,"members":[7]}}}"#;
        let event: SimEvent = serde_json::from_str(old).expect("old log line parses");
        assert!(matches!(
            event.kind,
            EventKind::DispatchDecision {
                cold: true,
                restored: false,
                ..
            }
        ));
    }

    #[test]
    fn chrome_trace_pairs_restore_slices() {
        let stream = vec![
            ev(
                10,
                EventKind::RestoreBegin {
                    container: ContainerId::new(2),
                    batch: Some(0),
                },
            ),
            ev(
                49,
                EventKind::RestoreDone {
                    container: ContainerId::new(2),
                    batch: Some(0),
                },
            ),
        ];
        let json = chrome_trace(&stream);
        assert!(json.contains("\"name\":\"Restore\""));
        assert!(json.contains("\"dur\":39"));
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let buffer: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new(Box::new(buffer));
        for event in tiny_run() {
            sink.record(&event);
        }
        assert_eq!(sink.lines(), 7);
        assert_eq!(sink.io_errors(), 0);
    }

    #[test]
    fn auditor_passes_a_clean_stream() {
        let mut auditor = AuditorSink::new();
        for event in tiny_run() {
            auditor.record(&event);
        }
        assert_eq!(auditor.finish(), &[] as &[String]);
    }

    #[test]
    fn auditor_flags_missing_completion() {
        let mut auditor = AuditorSink::new();
        auditor.record(&arrival(0, 3));
        let violations = auditor.finish();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("never completed"));
    }

    #[test]
    fn auditor_flags_double_completion_and_time_reversal() {
        let mut auditor = AuditorSink::new();
        for event in tiny_run() {
            auditor.record(&event);
        }
        auditor.record(&ev(
            800, // < 900: time reversal
            EventKind::InvocationComplete {
                invocation: InvocationId::new(7),
                batch: None,
                member: None,
            },
        ));
        let violations = auditor.finish();
        assert!(violations.iter().any(|v| v.contains("time went backwards")));
        assert!(violations.iter().any(|v| v.contains("completed 2 times")));
    }

    #[test]
    fn auditor_flags_illegal_container_transition() {
        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::ContainerStateChange {
                container: ContainerId::new(1),
                from: None,
                to: ContainerState::Busy,
            },
        ));
        assert!(auditor.violations()[0].contains("illegal transition"));
    }

    #[test]
    fn auditor_flags_negative_memory() {
        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::MemFree {
                category: MemCategory::Client,
                bytes: 64,
                total: 0,
            },
        ));
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.contains("went negative")));
    }

    #[test]
    fn auditor_matches_scale_prewarms_to_launches() {
        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::ScalePrewarm {
                function: FunctionId::new(0),
                count: 2,
            },
        ));
        for c in [1, 2] {
            auditor.record(&ev(
                0,
                EventKind::TaskStart {
                    task: TaskKind::PrewarmLaunch {
                        container: ContainerId::new(c),
                    },
                },
            ));
        }
        for c in [1, 2] {
            auditor.record(&ev(
                5,
                EventKind::TaskFinish {
                    task: TaskKind::PrewarmLaunch {
                        container: ContainerId::new(c),
                    },
                },
            ));
        }
        assert_eq!(auditor.finish(), &[] as &[String]);
    }

    #[test]
    fn auditor_flags_unmatched_scale_prewarm() {
        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::ScalePrewarm {
                function: FunctionId::new(0),
                count: 3,
            },
        ));
        let violations = auditor.finish();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("never launched a container")),
            "{violations:?}"
        );
    }

    #[test]
    fn auditor_flags_degenerate_scale_actions() {
        let mut auditor = AuditorSink::new();
        auditor.record(&ev(
            0,
            EventKind::ScalePrewarm {
                function: FunctionId::new(0),
                count: 0,
            },
        ));
        auditor.record(&ev(
            1,
            EventKind::ScaleKeepAlive {
                function: FunctionId::new(0),
                keep_alive: SimDuration::ZERO,
            },
        ));
        let violations = auditor.finish();
        assert!(violations.iter().any(|v| v.contains("zero containers")));
        assert!(violations.iter().any(|v| v.contains("zero keep-alive")));
    }

    #[test]
    fn multi_sink_fans_out() {
        let mut multi = MultiSink::new(vec![Box::new(VecSink::new()), Box::new(VecSink::new())]);
        for event in tiny_run() {
            multi.record(&event);
        }
        for sink in multi.into_sinks() {
            let vec = sink.as_any().downcast_ref::<VecSink>().expect("vec");
            assert_eq!(vec.events(), tiny_run());
        }
    }

    #[test]
    fn chrome_trace_pairs_task_slices() {
        let stream = vec![
            ev(
                10,
                EventKind::TaskStart {
                    task: TaskKind::Body {
                        batch: 0,
                        member: 0,
                    },
                },
            ),
            ev(
                60,
                EventKind::TaskFinish {
                    task: TaskKind::Body {
                        batch: 0,
                        member: 0,
                    },
                },
            ),
            arrival(70, 1),
        ];
        let json = chrome_trace(&stream);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":50"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn events_serialize_deterministically() {
        let a = serde_json::to_string(&tiny_run()).unwrap();
        let b = serde_json::to_string(&tiny_run()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"Arrival\""));
    }

    /// One event per `EventKind` variant, every field non-default.
    fn every_variant() -> Vec<SimEvent> {
        let f = FunctionId::new(3);
        let c = ContainerId::new(9);
        let i = InvocationId::new(41);
        let kinds = vec![
            EventKind::Arrival {
                invocation: i,
                function: f,
            },
            EventKind::GroupFormed {
                function: f,
                size: 2,
                worker: 1,
                members: vec![i, InvocationId::new(42)],
            },
            EventKind::DispatchDecision {
                batch: 5,
                function: f,
                container: c,
                cold: true,
                restored: true,
                barrier: true,
                members: vec![i],
            },
            EventKind::ColdStartBegin {
                container: c,
                batch: Some(5),
            },
            EventKind::ColdStartEnd {
                container: c,
                batch: None,
            },
            EventKind::RestoreBegin {
                container: c,
                batch: Some(5),
            },
            EventKind::RestoreDone {
                container: c,
                batch: None,
            },
            EventKind::ContainerStateChange {
                container: c,
                from: Some(ContainerState::Provisioning),
                to: ContainerState::Idle,
            },
            EventKind::TaskStart {
                task: TaskKind::Decision { batch: 5 },
            },
            EventKind::TaskFinish {
                task: TaskKind::ColdBoot { batch: 5 },
            },
            EventKind::TaskFinish {
                task: TaskKind::ClientCreation {
                    batch: 5,
                    member: 1,
                },
            },
            EventKind::TaskFinish {
                task: TaskKind::Body {
                    batch: 5,
                    member: 1,
                },
            },
            EventKind::TaskFinish {
                task: TaskKind::PrewarmLaunch { container: c },
            },
            EventKind::TaskFinish {
                task: TaskKind::PrewarmBoot { container: c },
            },
            EventKind::TaskFinish {
                task: TaskKind::Overhead,
            },
            EventKind::ExecBegin {
                batch: 5,
                member: 1,
                work: SimDuration::from_micros(123),
            },
            EventKind::ExecEnd {
                batch: 5,
                member: 1,
            },
            EventKind::ClientCacheHit {
                container: c,
                key: 77,
            },
            EventKind::ClientCacheMiss {
                container: c,
                key: 77,
            },
            EventKind::ClientCreateBegin {
                container: c,
                batch: 5,
                member: 1,
            },
            EventKind::ClientCreateEnd {
                container: c,
                batch: 5,
                member: 1,
                bytes: 4096,
            },
            EventKind::MemAlloc {
                category: MemCategory::Client,
                bytes: 4096,
                total: 8192,
            },
            EventKind::MemFree {
                category: MemCategory::Container,
                bytes: 4096,
                total: 4096,
            },
            EventKind::WorkerCrash { worker: 2 },
            EventKind::Redispatch {
                invocation: i,
                from_worker: 2,
                retries: 1,
            },
            EventKind::HostSample {
                memory_bytes: 1 << 20,
                busy_cores: 3.5,
                live_containers: 4,
            },
            EventKind::InvocationComplete {
                invocation: i,
                batch: Some(5),
                member: Some(1),
            },
            EventKind::ScalePrewarm {
                function: f,
                count: 2,
            },
            EventKind::ScaleKeepAlive {
                function: f,
                keep_alive: SimDuration::from_secs(30),
            },
            EventKind::GatewayEnqueue {
                invocation: i,
                shard: 3,
            },
            EventKind::GatewayAdmit {
                invocation: i,
                shard: 3,
            },
            EventKind::GatewayReject {
                invocation: InvocationId::new(43),
                shard: 3,
                depth: 1024,
            },
            EventKind::GatewayRoute {
                function: f,
                shard: 3,
                worker: 1,
                members: vec![i, InvocationId::new(42)],
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(n, kind)| ev(n as u64, kind))
            .collect()
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        for event in every_variant() {
            let json = serde_json::to_string(&event).unwrap();
            let back: SimEvent = serde_json::from_str(&json).unwrap_or_else(|e| {
                panic!("event {json} failed to parse: {e}");
            });
            assert_eq!(back, event, "round trip changed {json}");
        }
    }

    #[test]
    fn deserialize_rejects_an_unknown_variant() {
        let bad_variant = r#"{"at":0,"kind":{"Nonsense":{"x":1}}}"#;
        let err = serde_json::from_str::<SimEvent>(bad_variant).unwrap_err();
        assert!(err
            .to_string()
            .contains("unknown variant `Nonsense` of `EventKind`"));
    }

    #[test]
    fn deserialize_rejects_an_unknown_memory_category() {
        let bad_category =
            r#"{"at":0,"kind":{"MemAlloc":{"category":"heap","bytes":1,"total":1}}}"#;
        let err = serde_json::from_str::<SimEvent>(bad_category).unwrap_err();
        assert!(err.to_string().contains("unknown memory category `heap`"));
        // The serialised form is the bare lower-case name, not a variant tag.
        let good = bad_category.replace("heap", "platform");
        let event: SimEvent = serde_json::from_str(&good).unwrap();
        assert_eq!(serde_json::to_string(&event).unwrap(), good);
    }

    #[test]
    fn chrome_trace_links_groups_to_invocation_slices() {
        let group = ev(
            5,
            EventKind::GroupFormed {
                function: FunctionId::new(0),
                size: 1,
                worker: 0,
                members: vec![InvocationId::new(7)],
            },
        );
        let complete = ev(
            900,
            EventKind::InvocationComplete {
                invocation: InvocationId::new(7),
                batch: None,
                member: None,
            },
        );
        let json = chrome_trace(&[arrival(0, 7), group, complete]);
        assert!(json.contains("\"ph\":\"s\""), "flow start missing: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish missing: {json}");
        assert!(json.contains("\"name\":\"Invocation\""));
        // The flow terminus binds inside the invocation slice's span.
        assert!(json.contains("\"bp\":\"e\""));
    }
}
