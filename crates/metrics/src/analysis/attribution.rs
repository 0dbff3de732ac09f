//! Per-invocation latency attribution from the event stream.
//!
//! [`AttributionEngine`] folds a [`SimEvent`] stream — through the one
//! chain fold it shares with `RecordReducer` and `AuditorSink`
//! (`crate::chain`, DESIGN.md §11) — into one
//! [`InvocationAttribution`] per completed invocation: an eleven-phase
//! [`PhaseBreakdown`] whose components *sum exactly* to the recorded
//! end-to-end latency. Exactness is by construction — each phase is the gap
//! between two consecutive timestamps on the invocation's event chain, so
//! the sum telescopes to completion − arrival with no residual
//! (DESIGN.md §13 lists the chain and the phase ↔ event-pair mapping).
//!
//! Two stream shapes are understood:
//!
//! * **single-worker** streams (from `run_simulation_traced` /
//!   `run_source_traced`) carry the full mechanism chain — window wait,
//!   dispatch work, cold start, in-container queue, multiplexer wait, body
//!   execution with CPU-contention stretch, and the batch-barrier wait;
//! * **fleet-level** streams (from `run_fleet_traced`) are coarser — retry
//!   delay, routing/window wait, and the on-worker remainder — because the
//!   fleet layer narrates routing, not per-worker mechanism.
//!
//! The engine is the lenient reading of the fold where the auditor is the
//! strict one: a truncated log yields attributions for every invocation
//! whose chain is complete and counts the rest (`skipped`, `unfinished`),
//! so offline analysis of a partial trace still works.
//! [`InvocationAttribution::record`] is the paper's four-part record of the
//! same invocation — the projection `RunReport`s are made of.

use crate::chain::{ChainFold, Step};
use crate::events::{SimEvent, TraceSink};
use crate::latency::{InvocationRecord, LatencyBreakdown};
use crate::stats::Cdf;
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named slice of one invocation's end-to-end latency.
///
/// Phases are listed in pipeline order; [`PhaseBreakdown`] holds one
/// duration per phase and [`PhaseBreakdown::total`] is exactly the
/// invocation's end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Fleet re-dispatch delay after worker crashes (arrival → last retry).
    RetryDelay,
    /// Arrival → the gateway routed the invocation's window group to a
    /// worker (shard ingress-queue residence; zero for streams without a
    /// gateway front door).
    GatewayQueue,
    /// Arrival → the scheduler bound the invocation to a container
    /// (batching-window residence; fleet streams: routing-group formation;
    /// gateway streams: routing → dispatch decision).
    WindowWait,
    /// Daemon-side dispatch/launch processing for the batch.
    Dispatch,
    /// Container cold start the batch waited on (zero when served warm or
    /// restored from a snapshot).
    ColdStart,
    /// Snapshot restore the batch waited on (zero when booted cold or
    /// served warm) — the same decided → ready gap as [`Phase::ColdStart`],
    /// attributed here when the start came from the snapshot tier.
    Restore,
    /// Container ready → this member's chain started (in-container queue;
    /// serial batch members accrue it while predecessors run).
    Queue,
    /// Chain start → body start: multiplexer wait (client creation or
    /// single-flight wait on another member's creation).
    MuxWait,
    /// The body's intrinsic work plus any post-body I/O operation latency.
    Execution,
    /// Body-span stretch beyond the intrinsic work — processor-sharing
    /// slowdown under CPU contention.
    CpuContention,
    /// Own finish → response release (per-batch barrier wait).
    Barrier,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 11] = [
        Phase::RetryDelay,
        Phase::GatewayQueue,
        Phase::WindowWait,
        Phase::Dispatch,
        Phase::ColdStart,
        Phase::Restore,
        Phase::Queue,
        Phase::MuxWait,
        Phase::Execution,
        Phase::CpuContention,
        Phase::Barrier,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::RetryDelay => "retry-delay",
            Phase::GatewayQueue => "gateway-queue",
            Phase::WindowWait => "window-wait",
            Phase::Dispatch => "dispatch",
            Phase::ColdStart => "cold-start",
            Phase::Restore => "restore",
            Phase::Queue => "queue",
            Phase::MuxWait => "mux-wait",
            Phase::Execution => "execution",
            Phase::CpuContention => "cpu-contention",
            Phase::Barrier => "barrier",
        }
    }

    /// The resource a critical phase points at — what to scale or fix when
    /// this phase dominates.
    pub fn resource(self) -> &'static str {
        match self {
            Phase::RetryDelay => "fleet",
            Phase::GatewayQueue => "gateway",
            Phase::WindowWait => "scheduler",
            Phase::Dispatch => "daemon",
            Phase::ColdStart | Phase::Restore => "container",
            Phase::Queue | Phase::CpuContention => "cpu",
            Phase::MuxWait => "multiplexer",
            Phase::Execution => "function",
            Phase::Barrier => "batch",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One duration per [`Phase`]; sums exactly to end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// [`Phase::RetryDelay`].
    pub retry_delay: SimDuration,
    /// [`Phase::GatewayQueue`].
    pub gateway_queue: SimDuration,
    /// [`Phase::WindowWait`].
    pub window_wait: SimDuration,
    /// [`Phase::Dispatch`].
    pub dispatch: SimDuration,
    /// [`Phase::ColdStart`].
    pub cold_start: SimDuration,
    /// [`Phase::Restore`].
    #[serde(default)]
    pub restore: SimDuration,
    /// [`Phase::Queue`].
    pub queue: SimDuration,
    /// [`Phase::MuxWait`].
    pub mux_wait: SimDuration,
    /// [`Phase::Execution`].
    pub execution: SimDuration,
    /// [`Phase::CpuContention`].
    pub cpu_contention: SimDuration,
    /// [`Phase::Barrier`].
    pub barrier: SimDuration,
}

impl PhaseBreakdown {
    /// The duration attributed to one phase.
    pub fn get(&self, phase: Phase) -> SimDuration {
        match phase {
            Phase::RetryDelay => self.retry_delay,
            Phase::GatewayQueue => self.gateway_queue,
            Phase::WindowWait => self.window_wait,
            Phase::Dispatch => self.dispatch,
            Phase::ColdStart => self.cold_start,
            Phase::Restore => self.restore,
            Phase::Queue => self.queue,
            Phase::MuxWait => self.mux_wait,
            Phase::Execution => self.execution,
            Phase::CpuContention => self.cpu_contention,
            Phase::Barrier => self.barrier,
        }
    }

    /// Mutable access by phase.
    pub fn get_mut(&mut self, phase: Phase) -> &mut SimDuration {
        match phase {
            Phase::RetryDelay => &mut self.retry_delay,
            Phase::GatewayQueue => &mut self.gateway_queue,
            Phase::WindowWait => &mut self.window_wait,
            Phase::Dispatch => &mut self.dispatch,
            Phase::ColdStart => &mut self.cold_start,
            Phase::Restore => &mut self.restore,
            Phase::Queue => &mut self.queue,
            Phase::MuxWait => &mut self.mux_wait,
            Phase::Execution => &mut self.execution,
            Phase::CpuContention => &mut self.cpu_contention,
            Phase::Barrier => &mut self.barrier,
        }
    }

    /// Sum of every phase — the attributed end-to-end latency.
    pub fn total(&self) -> SimDuration {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// The longest phase (ties break toward the earlier pipeline phase).
    pub fn critical(&self) -> Phase {
        let mut best = Phase::ALL[0];
        for &p in &Phase::ALL[1..] {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }
}

/// One invocation's attributed latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationAttribution {
    /// The invocation.
    pub id: InvocationId,
    /// Its function.
    pub function: FunctionId,
    /// Container that served it (`None` in fleet-level streams, which do
    /// not narrate container binding).
    pub container: Option<ContainerId>,
    /// Batch it ran in (`None` in fleet-level streams).
    pub batch: Option<u64>,
    /// Whether it waited on a full cold boot (always `false` in fleet
    /// streams).
    pub cold: bool,
    /// Whether it waited on a snapshot restore (mutually exclusive with
    /// `cold`; always `false` in fleet streams).
    #[serde(default)]
    pub restored: bool,
    /// Crash-driven re-dispatches it survived.
    pub retries: u32,
    /// Arrival at the platform.
    pub arrival: SimTime,
    /// Response release.
    pub completion: SimTime,
    /// The phase decomposition.
    pub phases: PhaseBreakdown,
}

impl InvocationAttribution {
    /// End-to-end latency (completion − arrival).
    pub fn end_to_end(&self) -> SimDuration {
        self.completion.saturating_duration_since(self.arrival)
    }

    /// True when the phases sum *exactly* (to the microsecond) to the
    /// end-to-end latency — the attribution invariant.
    pub fn is_exact(&self) -> bool {
        self.phases.total() == self.end_to_end()
    }

    /// The bottleneck: longest phase and the resource it points at.
    pub fn critical_path(&self) -> (Phase, &'static str) {
        let phase = self.phases.critical();
        (phase, phase.resource())
    }

    /// The paper's four-part record of this invocation: the same stamps,
    /// with the phases projected by [`LatencyBreakdown::from`]. `None` for a
    /// fleet-level attribution, which names no container.
    pub fn record(&self) -> Option<InvocationRecord> {
        Some(InvocationRecord {
            id: self.id,
            function: self.function,
            container: self.container?,
            arrival: self.arrival,
            completion: self.completion,
            cold: self.cold,
            restored: self.restored,
            latency: LatencyBreakdown::from(&self.phases),
        })
    }
}

/// Per-function aggregate of attributed invocations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FunctionPhaseSummary {
    /// The function.
    pub function: FunctionId,
    /// Invocations attributed.
    pub count: usize,
    /// How many waited on a full cold boot.
    pub cold: usize,
    /// How many waited on a snapshot restore.
    pub restored: usize,
    /// Mean end-to-end latency.
    pub mean_end_to_end: SimDuration,
    /// Per-phase mean durations.
    pub mean: PhaseBreakdown,
    /// The phase that is critical for the most invocations.
    pub critical: Phase,
}

/// Everything the engine derives from one stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct AttributionReport {
    /// Attributions in invocation-id order.
    pub invocations: Vec<InvocationAttribution>,
    /// Completions whose event chain was incomplete (truncated log).
    pub skipped: u64,
    /// Arrivals that never completed (truncated log or lost work).
    pub unfinished: u64,
}

impl AttributionReport {
    /// True when every attribution satisfies the sum-to-total invariant.
    pub fn all_exact(&self) -> bool {
        self.invocations.iter().all(InvocationAttribution::is_exact)
    }

    /// Looks up one invocation's attribution.
    pub fn get(&self, id: InvocationId) -> Option<&InvocationAttribution> {
        self.invocations
            .binary_search_by_key(&id, |a| a.id)
            .ok()
            .map(|i| &self.invocations[i])
    }

    /// Mean duration of each phase across all invocations.
    pub fn mean_phases(&self) -> PhaseBreakdown {
        let n = self.invocations.len() as u64;
        let mut mean = PhaseBreakdown::default();
        if n == 0 {
            return mean;
        }
        for &phase in &Phase::ALL {
            let total: SimDuration = self.invocations.iter().map(|a| a.phases.get(phase)).sum();
            *mean.get_mut(phase) = total / n;
        }
        mean
    }

    /// Distribution of one phase across all invocations (the per-phase
    /// histogram backing Fig.-11-style plots).
    pub fn phase_cdf(&self, phase: Phase) -> Cdf {
        Cdf::from_samples(
            self.invocations
                .iter()
                .map(|a| a.phases.get(phase))
                .collect(),
        )
    }

    /// End-to-end latency distribution.
    pub fn end_to_end_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.invocations
                .iter()
                .map(InvocationAttribution::end_to_end)
                .collect(),
        )
    }

    /// Per-function summaries, ordered by function id.
    pub fn function_summaries(&self) -> Vec<FunctionPhaseSummary> {
        let mut by_function: BTreeMap<FunctionId, Vec<&InvocationAttribution>> = BTreeMap::new();
        for a in &self.invocations {
            by_function.entry(a.function).or_default().push(a);
        }
        by_function
            .into_iter()
            .map(|(function, attrs)| {
                let n = attrs.len() as u64;
                let mut mean = PhaseBreakdown::default();
                for &phase in &Phase::ALL {
                    let total: SimDuration = attrs.iter().map(|a| a.phases.get(phase)).sum();
                    *mean.get_mut(phase) = total / n;
                }
                let e2e: SimDuration = attrs.iter().map(|a| a.end_to_end()).sum();
                let mut census: BTreeMap<Phase, usize> = BTreeMap::new();
                for a in &attrs {
                    *census.entry(a.phases.critical()).or_insert(0) += 1;
                }
                let critical = census
                    .into_iter()
                    .max_by_key(|&(_, n)| n)
                    .map(|(p, _)| p)
                    .unwrap_or(Phase::Execution);
                FunctionPhaseSummary {
                    function,
                    count: attrs.len(),
                    cold: attrs.iter().filter(|a| a.cold).count(),
                    restored: attrs.iter().filter(|a| a.restored).count(),
                    mean_end_to_end: e2e / n,
                    mean,
                    critical,
                }
            })
            .collect()
    }

    /// How often each phase is the per-invocation bottleneck, most common
    /// first.
    pub fn critical_census(&self) -> Vec<(Phase, usize)> {
        let mut census: BTreeMap<Phase, usize> = BTreeMap::new();
        for a in &self.invocations {
            *census.entry(a.phases.critical()).or_insert(0) += 1;
        }
        let mut out: Vec<(Phase, usize)> = census.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Human-readable attribution summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let n = self.invocations.len();
        let _ = writeln!(
            out,
            "attributed {n} invocation(s) ({} skipped, {} unfinished)",
            self.skipped, self.unfinished
        );
        if n == 0 {
            return out;
        }
        let e2e = self.end_to_end_cdf();
        let _ = writeln!(
            out,
            "end-to-end: mean {} | p50 {} | p99 {}",
            e2e.mean(),
            e2e.quantile(0.5),
            e2e.quantile(0.99)
        );
        let mean = self.mean_phases();
        let total = mean.total().as_micros().max(1);
        let _ = writeln!(out, "mean phase breakdown:");
        for &phase in &Phase::ALL {
            let d = mean.get(phase);
            if d.is_zero() {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<15} {:>12} ({:>5.1}%)",
                phase.name(),
                d.to_string(),
                100.0 * d.as_micros() as f64 / total as f64
            );
        }
        let _ = writeln!(out, "critical-path census (bottleneck → resource):");
        for (phase, count) in self.critical_census() {
            let _ = writeln!(
                out,
                "  {:<15} {:>6} invocation(s) → {}",
                phase.name(),
                count,
                phase.resource()
            );
        }
        out
    }
}

/// Streaming fold from events to [`AttributionReport`]: the shared chain
/// fold plus the attributions it yielded and a count of those it could not.
///
/// Implements [`TraceSink`], so it can ride a live run, or be fed an
/// offline stream with [`AttributionEngine::consume`].
#[derive(Debug, Default)]
pub struct AttributionEngine {
    fold: ChainFold,
    attributions: Vec<InvocationAttribution>,
    skipped: u64,
}

impl AttributionEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        AttributionEngine::default()
    }

    /// Folds a whole pre-collected stream.
    pub fn consume(&mut self, events: &[SimEvent]) {
        for event in events {
            self.record(event);
        }
    }

    /// Finishes the fold: sorts attributions by invocation id and counts
    /// the invocations still open (arrived, never completed or rejected).
    pub fn finish(mut self) -> AttributionReport {
        self.attributions.sort_by_key(|a| a.id);
        AttributionReport {
            invocations: self.attributions,
            skipped: self.skipped,
            unfinished: self.fold.open_count() as u64,
        }
    }
}

impl TraceSink for AttributionEngine {
    fn record(&mut self, event: &SimEvent) {
        match self.fold.on_event(event) {
            Step::Complete(attribution) => self.attributions.push(attribution),
            Step::Incomplete { .. } => self.skipped += 1,
            Step::Quiet | Step::OutOfBatch { .. } => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, TaskKind};

    fn ev(us: u64, kind: EventKind) -> SimEvent {
        SimEvent::new(SimTime::from_micros(us), kind)
    }

    /// Warm single-member batch with a 100 µs decision, 50 µs queue, body
    /// stretched 250 µs past its 500 µs work, and a 100 µs barrier.
    fn detailed_stream() -> Vec<SimEvent> {
        vec![
            ev(
                0,
                EventKind::Arrival {
                    invocation: InvocationId::new(7),
                    function: FunctionId::new(2),
                },
            ),
            ev(
                40,
                EventKind::DispatchDecision {
                    batch: 0,
                    function: FunctionId::new(2),
                    container: ContainerId::new(1),
                    cold: false,
                    restored: false,
                    barrier: true,
                    members: vec![InvocationId::new(7)],
                },
            ),
            ev(
                40,
                EventKind::TaskStart {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                140,
                EventKind::TaskFinish {
                    task: TaskKind::Decision { batch: 0 },
                },
            ),
            ev(
                190,
                EventKind::ExecBegin {
                    batch: 0,
                    member: 0,
                    work: SimDuration::from_micros(500),
                },
            ),
            ev(
                210,
                EventKind::TaskStart {
                    task: TaskKind::Body {
                        batch: 0,
                        member: 0,
                    },
                },
            ),
            ev(
                960,
                EventKind::TaskFinish {
                    task: TaskKind::Body {
                        batch: 0,
                        member: 0,
                    },
                },
            ),
            ev(
                960,
                EventKind::ExecEnd {
                    batch: 0,
                    member: 0,
                },
            ),
            ev(
                1060,
                EventKind::InvocationComplete {
                    invocation: InvocationId::new(7),
                    batch: Some(0),
                    member: Some(0),
                },
            ),
        ]
    }

    #[test]
    fn detailed_phases_sum_exactly_and_split_contention() {
        let mut engine = AttributionEngine::new();
        engine.consume(&detailed_stream());
        let report = engine.finish();
        assert_eq!(report.invocations.len(), 1);
        assert_eq!(report.skipped, 0);
        let a = &report.invocations[0];
        assert!(a.is_exact());
        assert_eq!(a.phases.window_wait, SimDuration::from_micros(40));
        assert_eq!(a.phases.dispatch, SimDuration::from_micros(100));
        assert_eq!(a.phases.cold_start, SimDuration::ZERO);
        assert_eq!(a.phases.queue, SimDuration::from_micros(50));
        assert_eq!(a.phases.mux_wait, SimDuration::from_micros(20));
        // Body span 750 µs over 500 µs of work: 250 µs of contention.
        assert_eq!(a.phases.execution, SimDuration::from_micros(500));
        assert_eq!(a.phases.cpu_contention, SimDuration::from_micros(250));
        assert_eq!(a.phases.barrier, SimDuration::from_micros(100));
        assert_eq!(a.end_to_end(), SimDuration::from_micros(1060));
    }

    #[test]
    fn restored_start_lands_in_the_restore_phase() {
        let inv = InvocationId::new(9);
        let stream = vec![
            ev(
                0,
                EventKind::Arrival {
                    invocation: inv,
                    function: FunctionId::new(1),
                },
            ),
            ev(
                20,
                EventKind::DispatchDecision {
                    batch: 3,
                    function: FunctionId::new(1),
                    container: ContainerId::new(8),
                    cold: false,
                    restored: true,
                    barrier: false,
                    members: vec![inv],
                },
            ),
            ev(
                70,
                EventKind::TaskFinish {
                    task: TaskKind::Decision { batch: 3 },
                },
            ),
            ev(
                70,
                EventKind::RestoreBegin {
                    container: ContainerId::new(8),
                    batch: Some(3),
                },
            ),
            ev(
                109,
                EventKind::RestoreDone {
                    container: ContainerId::new(8),
                    batch: Some(3),
                },
            ),
            ev(
                109,
                EventKind::ExecBegin {
                    batch: 3,
                    member: 0,
                    work: SimDuration::from_micros(300),
                },
            ),
            ev(
                409,
                EventKind::ExecEnd {
                    batch: 3,
                    member: 0,
                },
            ),
            ev(
                409,
                EventKind::InvocationComplete {
                    invocation: inv,
                    batch: Some(3),
                    member: Some(0),
                },
            ),
        ];
        let mut engine = AttributionEngine::new();
        engine.consume(&stream);
        let report = engine.finish();
        assert!(report.all_exact());
        let a = &report.invocations[0];
        assert!(a.restored && !a.cold);
        assert_eq!(a.phases.restore, SimDuration::from_micros(39));
        assert_eq!(a.phases.cold_start, SimDuration::ZERO);
        assert_eq!(a.critical_path(), (Phase::Execution, "function"));
        let summary = &report.function_summaries()[0];
        assert_eq!(summary.restored, 1);
        assert_eq!(summary.cold, 0);
    }

    #[test]
    fn critical_path_names_the_bottleneck() {
        let mut engine = AttributionEngine::new();
        engine.consume(&detailed_stream());
        let report = engine.finish();
        let (phase, resource) = report.invocations[0].critical_path();
        assert_eq!(phase, Phase::Execution);
        assert_eq!(resource, "function");
        assert_eq!(report.critical_census()[0].0, Phase::Execution);
    }

    #[test]
    fn fleet_stream_attributes_retry_delay() {
        let inv = InvocationId::new(3);
        let stream = vec![
            ev(
                0,
                EventKind::Arrival {
                    invocation: inv,
                    function: FunctionId::new(0),
                },
            ),
            ev(
                100,
                EventKind::GroupFormed {
                    function: FunctionId::new(0),
                    size: 1,
                    worker: 0,
                    members: vec![inv],
                },
            ),
            ev(500, EventKind::WorkerCrash { worker: 0 }),
            ev(
                550,
                EventKind::Redispatch {
                    invocation: inv,
                    from_worker: 0,
                    retries: 1,
                },
            ),
            ev(
                550,
                EventKind::GroupFormed {
                    function: FunctionId::new(0),
                    size: 1,
                    worker: 1,
                    members: vec![inv],
                },
            ),
            ev(
                900,
                EventKind::InvocationComplete {
                    invocation: inv,
                    batch: None,
                    member: None,
                },
            ),
        ];
        let mut engine = AttributionEngine::new();
        engine.consume(&stream);
        let report = engine.finish();
        let a = &report.invocations[0];
        assert!(a.is_exact());
        assert_eq!(a.retries, 1);
        assert_eq!(a.phases.retry_delay, SimDuration::from_micros(550));
        assert_eq!(a.phases.window_wait, SimDuration::ZERO);
        assert_eq!(a.phases.execution, SimDuration::from_micros(350));
    }

    #[test]
    fn truncated_chain_is_skipped_not_fatal() {
        // Completion without a dispatch decision: count, don't panic.
        let stream = vec![
            ev(
                0,
                EventKind::Arrival {
                    invocation: InvocationId::new(1),
                    function: FunctionId::new(0),
                },
            ),
            ev(
                10,
                EventKind::InvocationComplete {
                    invocation: InvocationId::new(1),
                    batch: Some(0),
                    member: Some(0),
                },
            ),
            ev(
                20,
                EventKind::Arrival {
                    invocation: InvocationId::new(2),
                    function: FunctionId::new(0),
                },
            ),
        ];
        let mut engine = AttributionEngine::new();
        engine.consume(&stream);
        let report = engine.finish();
        assert!(report.invocations.is_empty());
        assert_eq!(report.skipped, 1);
        assert_eq!(report.unfinished, 2);
    }

    #[test]
    fn render_mentions_phases_and_census() {
        let mut engine = AttributionEngine::new();
        engine.consume(&detailed_stream());
        let text = engine.finish().render();
        assert!(text.contains("attributed 1 invocation(s)"));
        assert!(text.contains("execution"));
        assert!(text.contains("critical-path census"));
    }
}
