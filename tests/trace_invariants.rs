//! Event-stream properties: the online auditor finds zero violations across
//! every scheduler (and the fleet under crash injection), tracing never
//! perturbs the simulation itself, the serialized event log is
//! bit-identical run to run, and a mutated stream is reported, never
//! panicked on, by every consumer of the chain fold.

use faasbatch::core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch::fleet::config::{FaultKind, FleetConfig, WorkerFault};
use faasbatch::fleet::routing::RoutingKind;
use faasbatch::fleet::sim::run_fleet_traced;
use faasbatch::metrics::analysis::{AttributionEngine, AttributionReport};
use faasbatch::metrics::autoscaler::AutoscalerConfig;
use faasbatch::metrics::events::{
    AuditorSink, EventKind, RecordReducer, SimEvent, TraceSink, VecSink,
};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::schedulers::harness::run_simulation_traced;
use faasbatch::schedulers::policy::Policy;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use proptest::prelude::*;

const SCHEDULERS: [&str; 6] = [
    "vanilla",
    "sfs",
    "kraken",
    "hiku",
    "core-late-bind",
    "faasbatch",
];

fn wl(seed: u64, io: bool) -> Workload {
    let cfg = WorkloadConfig {
        total: 40,
        span: SimDuration::from_secs(4),
        functions: 3,
        bursts: 2,
        ..WorkloadConfig::default()
    };
    let rng = DetRng::new(seed);
    if io {
        io_workload(&rng, &cfg)
    } else {
        cpu_workload(&rng, &cfg)
    }
}

/// Builds `scheduler` by name through the typed registry — an unknown name
/// fails with the `UnknownScheduler` error listing the valid names.
fn build(scheduler: &str) -> (Box<dyn Policy>, Option<SimDuration>) {
    let kind = SchedulerKind::parse(scheduler).unwrap_or_else(|e| panic!("{e}"));
    kind.build(&SchedulerSetup::new(SimDuration::from_millis(200)))
}

/// Runs `scheduler` over `w` under `cfg` with a vec capture, replays the
/// stream through the auditor, and returns (report, captured events,
/// violations).
fn traced_cfg(
    scheduler: &str,
    w: &Workload,
    cfg: SimConfig,
) -> (RunReport, Vec<SimEvent>, Vec<String>) {
    let (policy, interval) = build(scheduler);
    let (report, sink) =
        run_simulation_traced(policy, w, cfg, "t", interval, Box::new(VecSink::new()));
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink round-trips")
        .events()
        .to_vec();
    let mut auditor = AuditorSink::new();
    for e in &events {
        auditor.record(e);
    }
    let violations = auditor.finish().to_vec();
    (report, events, violations)
}

/// [`traced_cfg`] under the default worker.
fn traced(scheduler: &str, w: &Workload) -> (RunReport, Vec<SimEvent>, Vec<String>) {
    traced_cfg(scheduler, w, SimConfig::default())
}

/// Like [`traced`], but with the autoscaling controller enabled: a short
/// static keep-alive, pre-warming on, and the keep-alive band open. The
/// violations come from replaying the captured stream — now containing
/// `ScalePrewarm` / `ScaleKeepAlive` events — through the auditor.
fn traced_autoscaled(scheduler: &str, w: &Workload) -> (RunReport, Vec<SimEvent>, Vec<String>) {
    let cfg = SimConfig {
        keep_alive: SimDuration::from_secs(2),
        autoscaler: Some(AutoscalerConfig {
            prewarm_cap: 3,
            keepalive_floor: SimDuration::from_secs(2),
            keepalive_ceiling: SimDuration::from_secs(30),
            base_keep_alive: SimDuration::from_secs(2),
            ..AutoscalerConfig::default()
        }),
        ..SimConfig::default()
    };
    traced_cfg(scheduler, w, cfg)
}

/// Feeds `events` to the three consumers of the chain fold: the auditor's
/// violations, the reducer's record count, the engine's report.
fn consume(events: &[SimEvent]) -> (Vec<String>, usize, AttributionReport) {
    let mut auditor = AuditorSink::new();
    let mut reducer = RecordReducer::new();
    let mut engine = AttributionEngine::new();
    for e in events {
        auditor.record(e);
        reducer.on_event(e);
        engine.record(e);
    }
    let violations = auditor.finish().to_vec();
    (violations, reducer.completed(), engine.finish())
}

/// One event-level mutation of a recorded stream at position `at`: drop
/// the event, duplicate it, swap it with its successor, or cut the stream
/// there.
fn mutate(events: &[SimEvent], kind: usize, at: usize) -> Vec<SimEvent> {
    let mut out = events.to_vec();
    let i = at % out.len();
    match kind {
        0 => drop(out.remove(i)),
        1 => out.insert(i, events[i].clone()),
        2 => out.swap(i, (i + 1).min(events.len() - 1)),
        _ => out.truncate(i),
    }
    out
}

fn serialize(events: &[SimEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("events serialize"));
        out.push('\n');
    }
    out
}

proptest! {
    /// The auditor never fires on any scheduler, workload shape, or seed.
    #[test]
    fn auditor_is_clean_for_every_scheduler(
        seed in 0u64..500,
        io in 0usize..2,
        scheduler in 0usize..6,
    ) {
        let w = wl(seed, io == 1);
        let (report, events, violations) = traced(SCHEDULERS[scheduler], &w);
        prop_assert!(
            violations.is_empty(),
            "{} violated: {:?}",
            SCHEDULERS[scheduler],
            violations
        );
        prop_assert_eq!(report.records.len(), w.len());
        prop_assert!(!events.is_empty());
    }

    /// The chain fold is lenient and its auditor strict: a recorded stream
    /// is clean through all three consumers; any single-event mutation of
    /// it is folded without a panic; and dropping one link of a completed
    /// invocation's chain — its `Arrival`, its batch's `DispatchDecision`,
    /// its `ExecBegin` — is always reported.
    #[test]
    fn mutated_streams_are_reported_never_panicked_on(
        seed in 0u64..500,
        io in 0usize..2,
        scheduler in 0usize..6,
        kind in 0usize..4,
        at in 0usize..1_000_000,
    ) {
        let w = wl(seed, io == 1);
        let (_, events, _) = traced(SCHEDULERS[scheduler], &w);
        let (violations, records, report) = consume(&events);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        prop_assert_eq!((records, report.skipped, report.unfinished), (w.len(), 0, 0));

        consume(&mutate(&events, kind, at));

        let completions: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::InvocationComplete {
                    invocation,
                    batch: Some(batch),
                    member: Some(member),
                } => Some((invocation, batch, member)),
                _ => None,
            })
            .collect();
        let (victim, its_batch, its_member) = completions[at % completions.len()];
        for link in ["Arrival", "DispatchDecision", "ExecBegin"] {
            let is_link = |k: &EventKind| match k {
                EventKind::Arrival { invocation, .. } => link == "Arrival" && *invocation == victim,
                EventKind::DispatchDecision { batch, .. } => {
                    link == "DispatchDecision" && *batch == its_batch
                }
                EventKind::ExecBegin { batch, member, .. } => {
                    link == "ExecBegin" && (*batch, *member) == (its_batch, its_member)
                }
                _ => false,
            };
            let cut: Vec<SimEvent> = events.iter().filter(|e| !is_link(&e.kind)).cloned().collect();
            prop_assert_eq!(cut.len() + 1, events.len(), "one {} of {}", link, victim);
            let (violations, _, report) = consume(&cut);
            prop_assert!(
                !violations.is_empty() && report.skipped >= 1,
                "{}: dropping the {} of {} went unreported",
                SCHEDULERS[scheduler], link, victim
            );
        }
    }

    /// Same seed + config ⇒ the serialized event log is bit-identical.
    #[test]
    fn serialized_event_log_is_deterministic(
        seed in 0u64..500,
        scheduler in 0usize..6,
    ) {
        let w = wl(seed, false);
        let (report_a, events_a, _) = traced(SCHEDULERS[scheduler], &w);
        let (report_b, events_b, _) = traced(SCHEDULERS[scheduler], &w);
        prop_assert_eq!(report_a, report_b);
        prop_assert_eq!(serialize(&events_a), serialize(&events_b));
    }

    /// With the autoscaling controller enabled the auditor still never
    /// fires: every `ScalePrewarm` is matched by container launches, no
    /// degenerate scale actions are emitted, and the base invariants
    /// (conservation, state machine, ledger) all hold.
    #[test]
    fn auditor_is_clean_with_controller_enabled(
        seed in 0u64..300,
        io in 0usize..2,
        scheduler in 0usize..6,
    ) {
        let w = wl(seed, io == 1);
        let (report, events, violations) = traced_autoscaled(SCHEDULERS[scheduler], &w);
        prop_assert!(
            violations.is_empty(),
            "{} violated under the controller: {:?}",
            SCHEDULERS[scheduler],
            violations
        );
        prop_assert_eq!(report.records.len(), w.len());
        prop_assert!(!events.is_empty());
    }

    /// The fleet narration audits clean too, including crash + re-dispatch.
    #[test]
    fn fleet_stream_is_clean_under_crashes(
        seed in 0u64..200,
        workers in 2usize..=4,
        policy in 0usize..4,
    ) {
        let w = wl(seed, false);
        let mut cfg = FleetConfig {
            workers,
            max_retries: 5,
            ..FleetConfig::default()
        };
        cfg.faults.push(WorkerFault {
            worker: 0,
            at: SimTime::from_secs(1),
            kind: FaultKind::Crash,
        });
        let (report, sink) = run_fleet_traced(
            &w,
            &cfg,
            RoutingKind::ALL[policy].build(),
            "t",
            Box::new(VecSink::new()),
        )
        .expect("survivors absorb the crash within the retry budget");
        let events = sink
            .as_any()
            .downcast_ref::<VecSink>()
            .expect("vec sink round-trips")
            .events()
            .to_vec();
        prop_assert_eq!(report.records.len(), w.len());
        // The fleet stream carries arrivals and completions but no container
        // or task detail, so only the conservation/monotonicity checks bite.
        let mut auditor = AuditorSink::new();
        for e in &events {
            auditor.record(e);
        }
        let violations = auditor.finish().to_vec();
        prop_assert!(violations.is_empty(), "fleet violated: {:?}", violations);
        prop_assert!(events.windows(2).all(|p| p[0].at <= p[1].at));
    }
}

/// The acceptance sweep: across all six schedulers × three seeds, the
/// controller genuinely acts (the stream carries scale events) and the
/// auditor — which pairs every `ScalePrewarm` with container launches —
/// reports zero violations.
#[test]
fn controller_sweep_acts_and_audits_clean() {
    let mut scale_events = 0usize;
    for seed in [1u64, 2, 3] {
        for scheduler in SCHEDULERS {
            let w = wl(seed, false);
            let (report, events, violations) = traced_autoscaled(scheduler, &w);
            assert!(
                violations.is_empty(),
                "{scheduler} seed {seed} violated: {violations:?}"
            );
            assert_eq!(report.records.len(), w.len());
            scale_events += events
                .iter()
                .filter(|e| matches!(e.kind.name(), "ScalePrewarm" | "ScaleKeepAlive"))
                .count();
        }
    }
    assert!(
        scale_events > 0,
        "the sweep never exercised a scale action — the auditor check is vacuous"
    );
}

/// Tracing is an observer: the traced run's report equals the untraced one.
/// (Exhaustive over schedulers at one seed; the proptest above covers seeds.)
#[test]
fn tracing_never_perturbs_the_report() {
    use faasbatch::schedulers::harness::run_simulation;
    let w = wl(7, false);
    for scheduler in SCHEDULERS {
        let (traced_report, _, _) = traced(scheduler, &w);
        let (policy, interval) = build(scheduler);
        let plain = run_simulation(policy, &w, SimConfig::default(), "t", interval);
        assert_eq!(traced_report, plain, "{scheduler} diverged under tracing");
    }
}

/// The test matrix's name list and the typed registry agree exactly, and an
/// unknown name is a typed error listing every valid scheduler.
#[test]
fn scheduler_names_match_the_typed_registry() {
    let registry: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(SCHEDULERS.to_vec(), registry);
    let err = SchedulerKind::parse("bogus").expect_err("bogus is not a scheduler");
    let msg = err.to_string();
    for name in SCHEDULERS {
        assert!(msg.contains(name), "error should list `{name}`: {msg}");
    }
}
