//! Trace-analysis properties: attribution phases sum *exactly* to
//! end-to-end latency for every invocation, across every scheduler, seed,
//! and workload kind; a log diffed against itself reports zero deltas;
//! fleet retry chains are attributed; and malformed JSONL input surfaces as
//! a typed error, never a panic.

use faasbatch::core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch::fleet::config::{FaultKind, FleetConfig, WorkerFault};
use faasbatch::fleet::routing::RoutingKind;
use faasbatch::fleet::sim::run_fleet_traced;
use faasbatch::metrics::analysis::{
    diff_reports, parse_events, AttributionEngine, AttributionReport, Phase, TraceLoadError,
};
use faasbatch::metrics::events::{chrome_trace, SimEvent, TraceSink, VecSink};
use faasbatch::metrics::latency::LatencyBreakdown;
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::schedulers::harness::run_simulation_traced;
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

fn traced(scheduler: &str, w: &Workload) -> (RunReport, Vec<SimEvent>) {
    let kind = SchedulerKind::parse(scheduler).unwrap_or_else(|e| panic!("{e}"));
    let (policy, interval) = kind.build(&SchedulerSetup::new(SimDuration::from_millis(200)));
    let sink: Box<dyn TraceSink> = Box::new(VecSink::new());
    let (report, sink) =
        run_simulation_traced(policy, w, SimConfig::default(), "t", interval, sink);
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink round-trips")
        .events()
        .to_vec();
    (report, events)
}

fn attribute(events: &[SimEvent]) -> AttributionReport {
    let mut engine = AttributionEngine::new();
    engine.consume(events);
    engine.finish()
}

fn serialize(events: &[SimEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("event serializes"));
        out.push('\n');
    }
    out
}

proptest! {
    /// The tentpole invariant: for every scheduler × workload kind × seed,
    /// every invocation's phase breakdown sums *exactly* (to the
    /// microsecond) to its end-to-end latency, nothing is skipped, and the
    /// run report's record of it (latency, cold, restored, container,
    /// arrival, completion) is the four-part projection of the attribution.
    #[test]
    fn phases_sum_exactly_for_every_scheduler(
        seed in 0u64..500,
        io in 0usize..2,
        scheduler in 0usize..6,
    ) {
        let w = wl(seed, io == 1);
        let (report, events) = traced(SCHEDULERS[scheduler], &w);
        let attribution = attribute(&events);
        prop_assert_eq!(attribution.skipped, 0);
        prop_assert_eq!(attribution.unfinished, 0);
        prop_assert_eq!(attribution.invocations.len(), report.records.len());
        for a in &attribution.invocations {
            prop_assert!(
                a.is_exact(),
                "{}: {} phases sum to {} but end-to-end is {}",
                SCHEDULERS[scheduler],
                a.id,
                a.phases.total(),
                a.end_to_end()
            );
        }
        // The paper's four parts are a projection of the eleven phases:
        // the harness's record is the attribution's, field for field.
        for record in &report.records {
            let a = attribution.get(record.id).expect("record is attributed");
            prop_assert_eq!(record.latency, LatencyBreakdown::from(&a.phases));
            prop_assert_eq!(Some(*record), a.record());
        }
    }

    /// A JSONL log diffed against itself reports zero deltas — after a
    /// full serialize → parse round trip, so the offline path is what is
    /// being tested.
    #[test]
    fn self_diff_is_zero(
        seed in 0u64..500,
        scheduler in 0usize..6,
    ) {
        let w = wl(seed, false);
        let (_, events) = traced(SCHEDULERS[scheduler], &w);
        let parsed = parse_events(&serialize(&events)).expect("log parses back");
        prop_assert_eq!(&parsed, &events);
        let a = attribute(&parsed);
        let diff = diff_reports(&a, &a);
        prop_assert!(diff.is_zero());
        prop_assert_eq!(diff.mean_delta_micros, 0);
        prop_assert_eq!(diff.matched.len(), a.invocations.len());
        prop_assert!((diff.attributed_fraction() - 1.0).abs() < 1e-12);
    }

    /// Two different schedulers' logs align completely (same invocation
    /// ids) and the phase deltas explain 100 % of every latency delta.
    #[test]
    fn cross_scheduler_diff_attributes_everything(
        seed in 0u64..200,
        io in 0usize..2,
    ) {
        let w = wl(seed, io == 1);
        let (_, ev_a) = traced("vanilla", &w);
        let (_, ev_b) = traced("faasbatch", &w);
        let diff = diff_reports(&attribute(&ev_a), &attribute(&ev_b));
        prop_assert_eq!(diff.matched.len(), w.len());
        prop_assert!(diff.only_a.is_empty());
        prop_assert!(diff.only_b.is_empty());
        for m in &diff.matched {
            prop_assert_eq!(m.phases.total(), m.delta_micros);
        }
        prop_assert!((diff.attributed_fraction() - 1.0).abs() < 1e-12);
    }
}

/// Fleet streams under crash injection: every completed invocation is
/// attributed exactly, and retried invocations carry a positive
/// retry-delay phase.
#[test]
fn fleet_crash_retries_are_attributed() {
    let w = wl(11, false);
    let cfg = FleetConfig {
        workers: 3,
        max_retries: 5,
        faults: vec![WorkerFault {
            worker: 0,
            at: SimTime::from_secs(1),
            kind: FaultKind::Crash,
        }],
        ..FleetConfig::default()
    };
    let (report, sink) = run_fleet_traced(
        &w,
        &cfg,
        RoutingKind::RoundRobin.build(),
        "t",
        Box::new(VecSink::new()),
    )
    .expect("fleet run succeeds");
    let events = sink
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink")
        .events()
        .to_vec();
    let attribution = attribute(&events);
    assert_eq!(attribution.skipped, 0);
    assert_eq!(
        attribution.invocations.len(),
        report.workers.iter().map(|wr| wr.completed).sum::<usize>()
    );
    assert!(attribution.all_exact());
    assert!(report.retries > 0, "the crash must force re-dispatches");
    let retried: Vec<_> = attribution
        .invocations
        .iter()
        .filter(|a| a.retries > 0)
        .collect();
    assert!(!retried.is_empty(), "retried invocations are attributed");
    for a in &retried {
        assert!(a.phases.retry_delay > SimDuration::ZERO);
        assert_eq!(
            a.critical_path().0.resource(),
            a.phases.critical().resource()
        );
    }
    // Round-robin ignores warmth, so groups form; the chrome export links
    // them to invocation slices with flow arrows.
    let chrome = chrome_trace(&events);
    assert!(chrome.contains("\"ph\":\"s\""), "flow start markers");
    assert!(chrome.contains("\"ph\":\"f\""), "flow finish markers");
    assert!(chrome.contains("\"name\":\"Invocation\""));
}

/// Corrupted logs are typed errors, never panics: garbage lines and
/// truncated tails report the line number, empty input reports `Empty`.
#[test]
fn corrupted_logs_yield_typed_errors() {
    let (_, events) = traced("faasbatch", &wl(3, false));
    let good = serialize(&events);

    // A garbage line in the middle.
    let mut lines: Vec<&str> = good.lines().collect();
    let middle = lines.len() / 2;
    lines.insert(middle, "{\"at\":12,\"kind\":{\"Nonsense\":[]}}");
    let corrupted = lines.join("\n");
    match parse_events(&corrupted) {
        Err(TraceLoadError::Malformed { line, .. }) => assert_eq!(line, middle + 1),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // A tail truncated mid-record (a crashed writer).
    let truncated = &good[..good.len() - good.len() / 3];
    assert!(matches!(
        parse_events(truncated),
        Err(TraceLoadError::Malformed { .. })
    ));

    // Truncation on a line boundary parses, with the missing completions
    // counted instead of invented.
    let boundary: String = good
        .lines()
        .take(events.len() / 2)
        .collect::<Vec<_>>()
        .join("\n");
    let partial = attribute(&parse_events(&boundary).expect("whole lines parse"));
    assert!(partial.all_exact());

    // No events at all.
    assert!(matches!(parse_events(""), Err(TraceLoadError::Empty)));
}

/// The ten phases cover every resource the critical path can point at.
#[test]
fn phase_vocabulary_is_closed() {
    for phase in Phase::ALL {
        assert!(!phase.name().is_empty());
        assert!(!phase.resource().is_empty());
        assert_eq!(format!("{phase}"), phase.name());
    }
}
