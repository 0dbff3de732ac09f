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
//! Which events open and close a span (a CPU task, a cold start, a restore,
//! a gateway enqueue) is said once too, in `span.rs`: the auditor and
//! [`chrome_trace`] pair through its ledger, and the reducer counts open
//! spans with it.
//!
//! See DESIGN.md §11 for the taxonomy and the emission contract.

mod auditor;
mod chrome;
mod reducer;
mod sink;
mod span;

pub use auditor::AuditorSink;
pub use chrome::{chrome_trace, chrome_trace_to};
pub use reducer::{RecordReducer, ReducedRun};
pub use sink::{to_jsonl, JsonlSink, MultiSink, NoopSink, TraceSink, VecSink};

use faasbatch_container::container::ContainerState;
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_simcore::memory::MemCategory;
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What a simulated CPU task was doing.
///
/// This is the serializable mirror of the scheduler harness's internal work
/// kinds; fleet- and platform-level emitters use the same vocabulary so one
/// exporter serves every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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

#[cfg(test)]
mod tests;
