//! What the three live workloads share: the gateway + executor under test,
//! sized by constants, the exactly-once completion slots the handlers stamp,
//! and the counters read from the program's public stats after a section.

pub mod burst;
pub mod paced;

use crate::measure::RunCtx;
use crate::spans::SpanLog;
use crate::stats::{median, quantile_sorted};
use faasbatch_core::platform::InvocationEnv;
use faasbatch_core::telemetry::register_executor;
use faasbatch_exec::{Executor, ExecutorConfig, ExecutorMetrics};
use faasbatch_gateway::{Gateway, GatewaySnapshot};
use faasbatch_metrics::analysis::{AttributionEngine, AttributionReport, Phase};
use faasbatch_metrics::events::{AuditorSink, EventKind, SimEvent, TraceSink};
use faasbatch_metrics::live::LiveTraceRecorder;
use faasbatch_metrics::telemetry::MetricRegistry;
use faasbatch_storage::object_store::ObjectStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attribution phases reported per live workload, in pipeline order.
pub const REPORTED_PHASES: [Phase; 8] = [
    Phase::GatewayQueue,
    Phase::WindowWait,
    Phase::Dispatch,
    Phase::ColdStart,
    Phase::Queue,
    Phase::MuxWait,
    Phase::Execution,
    Phase::Barrier,
];

/// One slot per attempted invocation: how often its handler ran and when.
/// Handlers index it by the sequence number carried in their payload.
#[derive(Debug)]
pub struct Slots {
    runs: Vec<AtomicU32>,
    start_ns: Vec<AtomicU64>,
    end_ns: Vec<AtomicU64>,
}

/// What [`Slots::audit`] found among the first `attempted` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotAudit {
    /// Indices whose handler never ran.
    pub missing: u64,
    /// Indices whose handler ran more than once.
    pub duplicated: u64,
}

impl SlotAudit {
    pub fn failed(self) -> u64 {
        self.missing + self.duplicated
    }
}

impl Slots {
    pub fn new(len: usize) -> Slots {
        Slots {
            runs: (0..len).map(|_| AtomicU32::new(0)).collect(),
            start_ns: (0..len).map(|_| AtomicU64::new(0)).collect(),
            end_ns: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A handler ran for `index` over `start_ns..end_ns`. Out-of-range
    /// indices (a corrupted payload) are ignored and show up as missing.
    pub fn complete(&self, index: usize, start_ns: u64, end_ns: u64) {
        if let Some(runs) = self.runs.get(index) {
            self.start_ns[index].store(start_ns, Ordering::Relaxed);
            self.end_ns[index].store(end_ns, Ordering::Relaxed);
            // Release: pairs with the Acquire in `audit`, publishing the
            // stamps to the thread that reads them after `drain` returned.
            runs.fetch_add(1, Ordering::Release);
        }
    }

    /// Checks that each of the first `attempted` indices ran exactly once.
    pub fn audit(&self, attempted: usize) -> SlotAudit {
        let mut audit = SlotAudit::default();
        for runs in &self.runs[..attempted] {
            match runs.load(Ordering::Acquire) {
                0 => audit.missing += 1,
                1 => {}
                _ => audit.duplicated += 1,
            }
        }
        audit
    }

    pub fn start_ns(&self, index: usize) -> u64 {
        self.start_ns[index].load(Ordering::Relaxed)
    }

    pub fn end_ns(&self, index: usize) -> u64 {
        self.end_ns[index].load(Ordering::Relaxed)
    }

    /// Clears the first `attempted` slots for the next round.
    pub fn reset(&self, attempted: usize) {
        for runs in &self.runs[..attempted] {
            runs.store(0, Ordering::Relaxed);
        }
    }
}

/// The sequence number a payload starts with.
pub fn payload_index(payload: &[u8]) -> usize {
    payload
        .get(..4)
        .and_then(|b| b.try_into().ok())
        .map_or(usize::MAX, |b| u32::from_le_bytes(b) as usize)
}

/// A registered function body, as `GatewayBuilder::register` takes it.
pub type HandlerFn = Box<dyn Fn(&InvocationEnv<'_>) + Send + Sync + 'static>;

/// Recorder and registry attached to a traced system.
#[derive(Debug, Clone)]
pub struct Tracing {
    pub recorder: LiveTraceRecorder,
    pub registry: MetricRegistry,
}

/// The program under test: one executor shared by the gateway's workers.
pub struct LiveSystem {
    // Dropped before `executor` is shut down: the gateway drains on drop.
    gateway: Option<Gateway>,
    executor: Arc<Executor>,
    pub names: Vec<String>,
    pub tracing: Option<Tracing>,
    pub store: ObjectStore,
    pub origin: Instant,
}

impl LiveSystem {
    /// Starts an executor of `workers` threads and a gateway of `workers`
    /// platforms and as many shards, registering `functions` bodies named
    /// `f0..`; `handler(i)` builds the body of function `i`.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        ctx: &RunCtx,
        workers: usize,
        functions: usize,
        window: Duration,
        traced: bool,
        store: ObjectStore,
        origin: Instant,
        handler: impl Fn(usize) -> HandlerFn,
    ) -> LiveSystem {
        let sizing = &ctx.sizing;
        let executor = Executor::new(ExecutorConfig {
            workers,
            seed: ctx.seed,
            ..ExecutorConfig::default()
        });
        let tracing = traced.then(|| Tracing {
            recorder: LiveTraceRecorder::new(),
            registry: MetricRegistry::new(),
        });
        let mut builder = Gateway::builder()
            .workers(workers)
            .shards(workers)
            .shard_depth(sizing.shard_depth)
            .window(window)
            .cold_start_delay(Duration::ZERO)
            .multiplex(true)
            .store(store.clone())
            .executor(Arc::clone(&executor));
        if let Some(tracing) = &tracing {
            register_executor(&tracing.registry, &executor);
            builder = builder
                .trace(tracing.recorder.clone())
                .telemetry(&tracing.registry);
        }
        let names: Vec<String> = (0..functions).map(|i| format!("f{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            let body = handler(i);
            builder = builder.register(name, move |env| body(env));
        }
        LiveSystem {
            gateway: Some(builder.start()),
            executor,
            names,
            tracing,
            store,
            origin,
        }
    }

    pub fn gateway(&self) -> &Gateway {
        self.gateway.as_ref().expect("gateway lives until drop")
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Counters of the gateway, its workers and the executor, now.
    pub fn counters(&self) -> Counters {
        let gateway = self.gateway();
        let (mut batches, mut containers, mut clients, mut invocations) = (0, 0, 0, 0);
        for stats in gateway.worker_stats() {
            batches += stats.batches.load(Ordering::Relaxed);
            containers += stats.containers_created.load(Ordering::Relaxed);
            clients += stats.clients_created.load(Ordering::Relaxed);
            invocations += stats.invocations.load(Ordering::Relaxed);
        }
        Counters {
            gateway: gateway.stats(),
            executor: self.executor.metrics(),
            batches,
            containers_created: containers,
            clients_created: clients,
            invocations,
        }
    }
}

impl Drop for LiveSystem {
    fn drop(&mut self) {
        drop(self.gateway.take());
        self.executor.shutdown();
    }
}

/// Point-in-time counters of a [`LiveSystem`].
#[derive(Debug, Clone)]
pub struct Counters {
    pub gateway: GatewaySnapshot,
    pub executor: ExecutorMetrics,
    pub batches: u64,
    pub containers_created: u64,
    pub clients_created: u64,
    pub invocations: u64,
}

impl Counters {
    pub fn rejected(&self) -> u64 {
        self.gateway.shards.iter().map(|s| s.rejected).sum()
    }

    /// The gateway, platform and executor rows of the per-layer ledger, for
    /// the section between `before` and `self`. Created-containers and
    /// created-clients count from the system's start (most are made by the
    /// warm-up), everything else over the section.
    pub fn layer_rows(&self, before: &Counters, into: &mut BTreeMap<String, f64>) {
        let admitted: Vec<u64> = self
            .gateway
            .shards
            .iter()
            .zip(&before.gateway.shards)
            .map(|(now, then)| now.admitted - then.admitted)
            .collect();
        let groups: u64 = self
            .gateway
            .shards
            .iter()
            .zip(&before.gateway.shards)
            .map(|(now, then)| now.routed_groups - then.routed_groups)
            .sum();
        let total_admitted: u64 = admitted.iter().sum();
        let max = admitted.iter().copied().max().unwrap_or(0);
        let min = admitted.iter().copied().min().unwrap_or(0);
        let delta =
            |now: &[u64], then: &[u64]| -> u64 { now.iter().zip(then).map(|(n, t)| n - t).sum() };
        let executed = delta(
            &self.executor.executed_per_worker,
            &before.executor.executed_per_worker,
        );
        let stolen = delta(
            &self.executor.stolen_per_worker,
            &before.executor.stolen_per_worker,
        );
        let parked = delta(
            &self.executor.parked_per_worker,
            &before.executor.parked_per_worker,
        );
        let jobs = self.invocations - before.invocations;
        let mut put = |name: &str, value: f64| {
            into.insert(name.to_owned(), value);
        };
        put(
            "gateway.mean_group_size",
            total_admitted as f64 / groups.max(1) as f64,
        );
        put("gateway.shard_spread", max as f64 / min.max(1) as f64);
        put("gateway.peak_in_flight", self.gateway.peak_in_flight as f64);
        put(
            "gateway.rejected",
            (self.rejected() - before.rejected()) as f64,
        );
        put(
            "core.platform.batches",
            (self.batches - before.batches) as f64,
        );
        put(
            "core.platform.containers_created",
            self.containers_created as f64,
        );
        put("core.platform.clients_created", self.clients_created as f64);
        put("exec.steal_share", stolen as f64 / executed.max(1) as f64);
        put(
            "exec.parks_per_kjob",
            parked as f64 * 1e3 / jobs.max(1) as f64,
        );
        put(
            "exec.shed_total",
            (self.executor.shed_total - before.executor.shed_total) as f64,
        );
    }
}

/// Audits and attributes the event stream of a traced section, one drained
/// slice at a time: the auditor follows the whole stream (container state
/// outlives a round), attribution starts afresh per slice so memory stays
/// bounded by one round.
#[derive(Default)]
pub struct StreamCheck {
    auditor: AuditorSink,
    /// Per reported phase: each slice's p50 and p99, in ms.
    phases: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
    attributed: u64,
    inexact: u64,
    /// Invocations the slices fed so far should have attributed.
    expected: u64,
}

impl StreamCheck {
    /// Starts checking a traced system's stream with what its warm-up
    /// recorded: the auditor must see the containers being created.
    pub fn after_warmup(recorder: &LiveTraceRecorder) -> StreamCheck {
        let warmup = recorder.take_trace();
        let completed = warmup
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InvocationComplete { .. }))
            .count() as u64;
        let mut check = StreamCheck::default();
        check.feed(&warmup, completed);
        check
    }

    /// Feeds the next time-ordered slice of the stream, in which `completed`
    /// invocations ran. Every invocation that arrived in the slice must also
    /// have completed in it.
    pub fn feed(&mut self, events: &[SimEvent], completed: u64) {
        self.expected += completed;
        self.auditor.record_batch(events);
        let mut engine = AttributionEngine::new();
        engine.consume(events);
        let report: AttributionReport = engine.finish();
        self.attributed += report.invocations.len() as u64;
        self.inexact += report.invocations.iter().filter(|a| !a.is_exact()).count() as u64
            + report.skipped
            + report.unfinished;
        for phase in REPORTED_PHASES {
            let cdf = report.phase_cdf(phase);
            if cdf.is_empty() {
                continue;
            }
            let (p50s, p99s) = self.phases.entry(phase.name()).or_default();
            p50s.push(cdf.quantile(0.50).as_micros() as f64 / 1e3);
            p99s.push(cdf.quantile(0.99).as_micros() as f64 / 1e3);
        }
    }

    /// Ends the stream: `phase.<p>.p50_ms` / `p99_ms` rows (medians over the
    /// slices) go to `layer`, violations and inexact attributions to
    /// `errors`; returns how many invocations were not attributed exactly.
    pub fn finish(mut self, layer: &mut BTreeMap<String, f64>, errors: &mut Vec<String>) -> u64 {
        let expected = self.expected;
        let violations = self.auditor.finish().len();
        if violations > 0 {
            errors.push(format!(
                "{violations} auditor violations in the live stream"
            ));
        }
        if self.inexact > 0 || self.attributed != expected {
            errors.push(format!(
                "{} of {expected} invocations attributed, {} inexact or unfinished",
                self.attributed, self.inexact
            ));
        }
        for phase in REPORTED_PHASES {
            let (p50, p99) = match self.phases.get_mut(phase.name()) {
                Some((p50s, p99s)) => (median(p50s), median(p99s)),
                None => (0.0, 0.0),
            };
            layer.insert(format!("phase.{}.p50_ms", phase.name()), p50);
            layer.insert(format!("phase.{}.p99_ms", phase.name()), p99);
        }
        self.inexact + expected.saturating_sub(self.attributed)
    }
}

/// Generator-side figures of one traced round or section.
#[derive(Debug, Clone, Copy)]
pub struct SectionFigures {
    /// Time inside `Gateway::invoke`, ns.
    pub invoke_p50_ns: f64,
    pub invoke_p99_ns: f64,
    /// Last `invoke` returning to `drain` returning.
    pub drain_s: f64,
    /// Mean handler span per invocation, us.
    pub handler_us: f64,
}

/// Records the spans of one traced round or section under a root span called
/// `name` — an `invoke` and a handler span per invocation (the handler's from
/// its slot), one `drain` span — and returns its generator-side figures.
/// `stamps[i]` is when `invoke` number `i` began and the last entry when the
/// last one returned; an `invoke` span ends when the next began, but no
/// later than `max_invoke_ns` after its start (a paced generator sleeps in
/// between).
pub fn record_section(
    log: &mut SpanLog,
    name: &'static str,
    slots: &Slots,
    stamps: &[u64],
    drained_ns: u64,
    max_invoke_ns: u64,
) -> SectionFigures {
    let n = stamps.len() - 1;
    let root = log.push(name, stamps[0], drained_ns, None, 0);
    let mut invoke_ns = Vec::with_capacity(n);
    let mut handler_ns = 0u64;
    for i in 0..n {
        let start = stamps[i];
        let end = stamps[i + 1].min(start.saturating_add(max_invoke_ns));
        log.push("gateway.invoke", start, end, Some(root), i as u64);
        invoke_ns.push(end - start);
        let (h0, h1) = (slots.start_ns(i), slots.end_ns(i));
        log.push("loadgen.handler", h0, h1, Some(root), i as u64);
        handler_ns += h1.saturating_sub(h0);
    }
    log.push("gateway.drain", stamps[n], drained_ns, Some(root), 0);
    let (p50, p99) = p50_p99(&mut invoke_ns);
    SectionFigures {
        invoke_p50_ns: p50 as f64,
        invoke_p99_ns: p99 as f64,
        drain_s: drained_ns.saturating_sub(stamps[n]) as f64 / 1e9,
        handler_us: handler_ns as f64 / 1e3 / n.max(1) as f64,
    }
}

/// p50 and p99 of `values` (sorted in place), or zeros when empty.
pub fn p50_p99(values: &mut [u64]) -> (u64, u64) {
    if values.is_empty() {
        return (0, 0);
    }
    values.sort_unstable();
    (quantile_sorted(values, 0.50), quantile_sorted(values, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_audit_catches_a_dropped_and_a_double_run_index() {
        let slots = Slots::new(8);
        for i in 0..8 {
            slots.complete(i, 1, 2);
        }
        assert_eq!(slots.audit(8), SlotAudit::default());

        slots.reset(8);
        for i in 0..8 {
            if i != 3 {
                slots.complete(i, 1, 2);
            }
        }
        slots.complete(5, 3, 4);
        let audit = slots.audit(8);
        assert_eq!(audit.missing, 1, "index 3 was dropped");
        assert_eq!(audit.duplicated, 1, "index 5 ran twice");
        assert_eq!(audit.failed(), 2);
        // Only the attempted prefix is judged.
        assert_eq!(slots.audit(3), SlotAudit::default());
    }

    #[test]
    fn corrupted_payload_index_is_out_of_range() {
        assert_eq!(payload_index(&7u32.to_le_bytes()), 7);
        assert_eq!(payload_index(&[1, 2]), usize::MAX);
        let slots = Slots::new(2);
        slots.complete(payload_index(&[1, 2]), 0, 0);
        assert_eq!(slots.audit(2).missing, 2);
    }
}
