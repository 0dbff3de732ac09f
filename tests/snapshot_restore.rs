//! Snapshot-restore tier invariants (DESIGN.md §19), end to end.
//!
//! With the capacity-bounded snapshot cache enabled, every scheduler must
//! keep the full observability contract: the auditor stays silent (restore
//! begin/done pairing included), the eleven-phase attribution still sums
//! exactly to each invocation's end-to-end latency, runs stay bit-for-bit
//! deterministic, and under a churning warm pool the restore tier actually
//! serves starts. The tier-aware autoscaling controller rides the same
//! stream and splits its prewarms across the warm and snapshot tiers.

use faasbatch::container::snapshot::{EvictionPolicy, SnapshotConfig};
use faasbatch::core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch::metrics::analysis::AttributionEngine;
use faasbatch::metrics::autoscaler::{AutoscalerConfig, AutoscalerStats};
use faasbatch::metrics::events::{AuditorSink, EventKind, SimEvent, TraceSink, VecSink};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::schedulers::harness::run_simulation_traced;
use faasbatch::schedulers::policy::Policy;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
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

/// A churn-inducing workload: three bursts across ten seconds, so the 2 s
/// keep-alive reaps every warm container between bursts and later bursts
/// must either re-boot or restore.
fn churn_wl(seed: u64) -> Workload {
    cpu_workload(
        &DetRng::new(seed),
        &WorkloadConfig {
            total: 60,
            span: SimDuration::from_secs(10),
            functions: 3,
            bursts: 3,
            ..WorkloadConfig::default()
        },
    )
}

/// Short keep-alive + an enabled snapshot cache: the regime the tier
/// targets.
fn snapshot_cfg(capacity: usize, eviction: EvictionPolicy) -> SimConfig {
    SimConfig {
        keep_alive: SimDuration::from_secs(2),
        snapshot: SnapshotConfig {
            capacity,
            eviction,
            ..SnapshotConfig::default()
        },
        ..SimConfig::default()
    }
}

fn build(scheduler: &str) -> (Box<dyn Policy>, Option<SimDuration>) {
    let kind = SchedulerKind::parse(scheduler).unwrap_or_else(|e| panic!("{e}"));
    kind.build(&SchedulerSetup::new(SimDuration::from_millis(200)))
}

/// Runs `scheduler` over `w` under `cfg` with a vec capture, replays the
/// stream through the auditor, and returns (report, events, violations).
fn traced(
    scheduler: &str,
    w: &Workload,
    cfg: &SimConfig,
) -> (RunReport, Vec<SimEvent>, Vec<String>) {
    let (policy, interval) = build(scheduler);
    let (report, sink) = run_simulation_traced(
        policy,
        w,
        cfg.clone(),
        "t",
        interval,
        Box::new(VecSink::new()),
    );
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

fn serialize(events: &[SimEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("events serialize"));
        out.push('\n');
    }
    out
}

fn count_kind(events: &[SimEvent], pred: impl Fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| pred(&e.kind)).count()
}

proptest! {
    /// With snapshots enabled, the auditor never fires and the eleven-phase
    /// attribution sums exactly to end-to-end latency, for every scheduler,
    /// workload shape, seed, and eviction policy.
    #[test]
    fn attribution_stays_exact_with_snapshots_enabled(
        seed in 0u64..200,
        io in 0usize..2,
        scheduler in 0usize..6,
        eviction in 0usize..2,
    ) {
        let w = wl(seed, io == 1);
        let cfg = snapshot_cfg(4, EvictionPolicy::ALL[eviction]);
        let (report, events, violations) = traced(SCHEDULERS[scheduler], &w, &cfg);
        prop_assert!(
            violations.is_empty(),
            "{} violated with snapshots on: {:?}",
            SCHEDULERS[scheduler],
            violations
        );
        prop_assert_eq!(report.records.len(), w.len());

        let mut engine = AttributionEngine::new();
        engine.consume(&events);
        let attribution = engine.finish();
        prop_assert_eq!(attribution.invocations.len(), w.len());
        prop_assert!(
            attribution.all_exact(),
            "{}: eleven phases must telescope exactly",
            SCHEDULERS[scheduler]
        );
    }

    /// Same seed + snapshot config ⇒ identical report and bit-identical
    /// serialized event log; the cache adds no nondeterminism.
    #[test]
    fn snapshot_runs_are_deterministic(
        seed in 0u64..200,
        scheduler in 0usize..6,
    ) {
        let w = wl(seed, false);
        let cfg = snapshot_cfg(2, EvictionPolicy::CostAware);
        let (report_a, events_a, _) = traced(SCHEDULERS[scheduler], &w, &cfg);
        let (report_b, events_b, _) = traced(SCHEDULERS[scheduler], &w, &cfg);
        prop_assert_eq!(report_a, report_b);
        prop_assert_eq!(serialize(&events_a), serialize(&events_b));
    }
}

/// Under a churning pool, the tier actually serves restores: the report
/// counts them, the stream narrates a balanced RestoreBegin/RestoreDone
/// pair per restore, and every restored record is attributed to the restore
/// tier (not cold, with a non-zero decided → ready gap).
#[test]
fn restores_are_counted_narrated_and_flagged() {
    let w = churn_wl(11);
    let cfg = snapshot_cfg(4, EvictionPolicy::Lru);
    for scheduler in ["vanilla", "faasbatch"] {
        let (report, events, violations) = traced(scheduler, &w, &cfg);
        assert!(violations.is_empty(), "{scheduler}: {violations:?}");
        assert!(
            report.restored_starts > 0,
            "{scheduler}: churn must produce restores"
        );

        let begins = count_kind(&events, |k| matches!(k, EventKind::RestoreBegin { .. }));
        let dones = count_kind(&events, |k| matches!(k, EventKind::RestoreDone { .. }));
        assert_eq!(begins, report.restored_starts as usize, "{scheduler}");
        assert_eq!(dones, report.restored_starts as usize, "{scheduler}");

        let restored_records = report.records.iter().filter(|r| r.restored);
        let mut n = 0u64;
        for rec in restored_records {
            assert!(!rec.cold, "{scheduler}: tiers are exclusive");
            assert!(
                !rec.latency.cold_start.is_zero(),
                "{scheduler}: a restore still waits on the decided→ready gap"
            );
            n += 1;
        }
        assert!(n > 0, "{scheduler}: some record must be restore-attributed");

        // Cache accounting lines up with the report.
        assert_eq!(
            report.snapshot_stats.hits, report.restored_starts,
            "{scheduler}"
        );
        assert!(report.snapshot_stats.captures > 0, "{scheduler}");
    }
}

/// With the cache disabled (the default), nothing restores and no restore
/// events appear — the tier is strictly opt-in.
#[test]
fn disabled_cache_never_restores() {
    let w = churn_wl(11);
    let cfg = SimConfig {
        keep_alive: SimDuration::from_secs(2),
        ..SimConfig::default()
    };
    let (report, events, violations) = traced("vanilla", &w, &cfg);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(report.restored_starts, 0);
    assert_eq!(report.snapshot_stats, Default::default());
    assert_eq!(
        count_kind(&events, |k| matches!(
            k,
            EventKind::RestoreBegin { .. } | EventKind::RestoreDone { .. }
        )),
        0
    );
    assert!(report.records.iter().all(|r| !r.restored));
}

/// Runs vanilla over `w` with the tier-aware controller switched on and
/// returns (report, controller stats, auditor violations).
fn run_tiered(
    w: &Workload,
    cfg: SimConfig,
    ac: AutoscalerConfig,
) -> (RunReport, AutoscalerStats, Vec<String>) {
    let cfg = SimConfig {
        autoscaler: Some(ac),
        ..cfg
    };
    let (report, _, violations) = traced("vanilla", w, &cfg);
    let stats = report.autoscaler.expect("the controller reports");
    (report, stats, violations)
}

/// The tier-aware controller splits its prewarm actions across the warm and
/// snapshot tiers by the predicted re-use horizon, the split accounts for
/// every prewarm, and the audited stream stays clean.
#[test]
fn tier_aware_controller_splits_prewarms_and_audits_clean() {
    // Bursty traffic: intra-burst gaps dominate the EWMA, so the predicted
    // re-use horizon sits inside the keep-alive and prewarms park warm
    // containers.
    let bursty = churn_wl(11);
    let ac = AutoscalerConfig {
        prewarm_cap: 3,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        snapshot_prewarm: true,
        ..AutoscalerConfig::default()
    };
    let (report, stats, violations) = run_tiered(&bursty, snapshot_cfg(4, EvictionPolicy::Lru), ac);
    assert_eq!(report.records.len(), bursty.len());
    assert!(violations.is_empty(), "{violations:?}");
    assert!(stats.prewarm_actions > 0, "controller must act under churn");
    assert!(
        stats.warm_tier_prewarms > 0,
        "intra-burst horizons fit the keep-alive: the warm tier must win"
    );
    assert_eq!(
        stats.snapshot_tier_prewarms + stats.warm_tier_prewarms,
        stats.prewarm_actions,
        "every tiered prewarm lands in exactly one tier"
    );
}

/// A sparse drip — one-invocation bursts spaced far past the keep-alive —
/// pushes the gap EWMA over the keep-alive in force, so the controller
/// parks snapshots (no memory held) instead of warm containers.
#[test]
fn sparse_traffic_routes_prewarms_to_the_snapshot_tier() {
    let drip = cpu_workload(
        &DetRng::new(3),
        &WorkloadConfig {
            total: 10,
            span: SimDuration::from_secs(50),
            functions: 1,
            bursts: 10,
            ..WorkloadConfig::default()
        },
    );
    // Pin keep-alive to 2 s at both ends of the band so the horizon
    // comparison is against a fixed TTL.
    let ac = AutoscalerConfig {
        prewarm_cap: 2,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(2),
        base_keep_alive: SimDuration::from_secs(2),
        snapshot_prewarm: true,
        ..AutoscalerConfig::default()
    };
    let (report, stats, violations) = run_tiered(&drip, snapshot_cfg(4, EvictionPolicy::Lru), ac);
    assert_eq!(report.records.len(), drip.len());
    assert!(violations.is_empty(), "{violations:?}");
    assert!(
        stats.snapshot_tier_prewarms > 0,
        "multi-second gaps against a 2 s keep-alive must route prewarms to \
         the snapshot tier (snapshot {}, warm {})",
        stats.snapshot_tier_prewarms,
        stats.warm_tier_prewarms
    );
    assert_eq!(
        stats.snapshot_tier_prewarms + stats.warm_tier_prewarms,
        stats.prewarm_actions
    );
}
