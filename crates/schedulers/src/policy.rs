//! The scheduling-policy abstraction.
//!
//! A [`Policy`] is the *decision* half of a scheduler: it reacts to
//! invocation arrivals and timers and issues [`DispatchRequest`]s. The
//! *mechanism* half — containers, cold starts, CPU contention, client
//! creation, metrics — lives in the shared [`crate::harness`] so every
//! policy pays identical costs for identical decisions.

use crate::config::SimConfig;
use crate::harness::{Sim, SimWorld};
use faasbatch_container::cluster::PrewarmTier;
use faasbatch_container::ids::{ContainerId, FunctionId};
use faasbatch_metrics::latency::InvocationRecord;
use faasbatch_simcore::engine::Engine;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::function::FunctionRegistry;
use faasbatch_trace::workload::Invocation;

/// How the invocations of one dispatched batch execute inside their
/// container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All invocations expand as concurrent threads (FaaSBatch's
    /// inline-parallel strategy); queuing latency is zero.
    Parallel,
    /// Invocations run one after another (Kraken-style batching); later
    /// batch members accrue queuing latency.
    Serial,
}

/// When a batch member's response is released to the caller.
///
/// The paper's prototype (like every batch scheme it cites) returns the
/// batch's HTTP request only once **all** invocations of the group have
/// completed, and leaves early return as future work — both are available
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// Each invocation completes the moment its own chain finishes (the
    /// paper's future-work "early return"; also how its per-invocation
    /// execution CDFs are measured).
    #[default]
    PerInvocation,
    /// Every member completes when the whole batch does; the barrier wait
    /// after a member's own execution is accounted as queuing latency.
    PerBatch,
}

/// A batch of invocations to place into one container.
#[derive(Debug, Clone)]
pub struct DispatchRequest {
    /// The invocations (all of the same function).
    pub invocations: Vec<Invocation>,
    /// Execution style inside the container.
    pub mode: ExecMode,
    /// Route client creations through a per-container resource multiplexer
    /// (FaaSBatch's Resource Multiplexer; baselines leave this off).
    pub multiplex_clients: bool,
    /// Optional CPU restriction for the container.
    pub cpu_limit: Option<f64>,
    /// Fair-share weight of the container's CPU group (SFS priorities).
    pub group_weight: f64,
    /// Extra platform CPU charged for this decision (e.g. SFS's user-space
    /// scheduler bookkeeping).
    pub extra_platform_work: SimDuration,
    /// Response-release semantics for the batch.
    pub completion: Completion,
}

impl DispatchRequest {
    /// A plain one-container batch with default knobs.
    pub fn new(invocations: Vec<Invocation>, mode: ExecMode) -> Self {
        DispatchRequest {
            invocations,
            mode,
            multiplex_clients: false,
            cpu_limit: None,
            group_weight: 1.0,
            extra_platform_work: SimDuration::ZERO,
            completion: Completion::PerInvocation,
        }
    }
}

/// Mutable view handed to policy callbacks.
///
/// Exposes the simulation clock, timer registration, dispatching, and
/// read-only platform state. All costs (decision work, cold starts,
/// container execution) are charged by the harness when
/// [`dispatch`](Ctx::dispatch) is called.
pub struct Ctx<'a> {
    pub(crate) world: &'a mut SimWorld,
    pub(crate) engine: &'a mut Engine<Sim>,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The shared configuration.
    pub fn config(&self) -> &SimConfig {
        self.world.config()
    }

    /// The workload's function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        self.world.registry()
    }

    /// True when the run's input is closed and every injected invocation
    /// has completed — the point past which a periodic timer (Kraken's
    /// provisioning round, SFS's sweep) need not re-arm. A timer armed only
    /// by arrivals, like FaaSBatch's window tick, never needs to ask.
    pub fn all_done(&self) -> bool {
        self.world.done()
    }

    /// Idle warm containers currently available for `function`.
    pub fn warm_count(&self, function: FunctionId) -> usize {
        self.world.warm_count(function)
    }

    /// Schedules `policy.on_timer(token)` after `delay`. A policy keeps at
    /// most one timer pending: the worker holds it as an engine alarm, not
    /// a heap event. Re-arm from [`Policy::on_timer`], where the timer that
    /// fired is no longer pending.
    ///
    /// # Panics
    ///
    /// Panics if the policy's timer is already pending.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        crate::harness::set_policy_timer(self.world, self.engine, delay, token);
    }

    /// Adjusts the CPU fair-share weights of live containers mid-run — the
    /// hook an SFS-style user-space scheduler uses to demote tasks the
    /// longer they run — with one CPU-model recomputation for the whole
    /// sweep.
    ///
    /// # Panics
    ///
    /// Panics if a container is unknown or terminated, or a weight is not
    /// positive finite.
    pub fn set_container_weights(&mut self, updates: impl IntoIterator<Item = (ContainerId, f64)>) {
        crate::harness::set_container_weights(self.world, self.engine.now(), updates);
    }

    /// Pre-warms `count` fresh containers for `function`; each pays the
    /// full launch and cold-start cost and joins the warm pool when ready.
    /// This is the mechanism behind Kraken's EWMA-driven provisioning.
    pub fn prewarm(&mut self, function: FunctionId, count: usize) {
        crate::harness::prewarm(self.world, self.engine, function, count, PrewarmTier::Warm);
    }

    /// Dispatches a batch: charges the decision work, acquires a container
    /// (cold-starting if needed), executes the invocations under the
    /// requested mode, and releases the container when the whole batch is
    /// done. The harness reports per-invocation latency records.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or mixes functions.
    pub fn dispatch(&mut self, request: DispatchRequest) {
        crate::harness::dispatch(self.world, self.engine, request);
    }
}

/// A scheduling policy (Vanilla, Kraken, SFS, FaaSBatch, …).
///
/// Implementations hold only decision state; all platform state lives in
/// the harness. Callbacks run deterministically inside the event loop.
pub trait Policy {
    /// Human-readable name used in reports (`vanilla`, `kraken`, …).
    fn name(&self) -> String;

    /// Called once at simulation start (register timers here).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when an invocation arrives at the platform.
    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, invocation: &Invocation);

    /// Called when the timer registered via [`Ctx::set_timer`] fires. It is
    /// no longer pending here, so this may set the next one.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Called when a dispatched batch begins executing in `container`
    /// (after any cold start).
    fn on_batch_ready(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _container: ContainerId,
        _function: FunctionId,
    ) {
    }

    /// Called when a dispatched batch has fully completed and its container
    /// returned to the warm pool.
    fn on_batch_done(&mut self, _ctx: &mut Ctx<'_>, _container: ContainerId) {}

    /// Called when one invocation completes, with its final record.
    fn on_invocation_done(&mut self, _ctx: &mut Ctx<'_>, _record: &InvocationRecord) {}
}
