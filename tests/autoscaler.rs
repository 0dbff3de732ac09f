//! Properties of the trace-driven autoscaling controller (DESIGN.md §12):
//! a no-op controller never perturbs the run, the pre-warm budget respects
//! its cap, and keep-alive honours the floor while work is queued.

use faasbatch::core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
use faasbatch::metrics::autoscaler::AutoscalerConfig;
use faasbatch::metrics::events::{EventKind, SimEvent, TraceSink, VecSink};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use proptest::prelude::*;

const SCHEDULERS: [&str; 4] = ["vanilla", "sfs", "kraken", "faasbatch"];
const WINDOW: SimDuration = SimDuration::from_millis(200);

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

/// A short static keep-alive so the controller has something to improve.
fn sim_cfg() -> SimConfig {
    SimConfig {
        keep_alive: SimDuration::from_secs(2),
        ..SimConfig::default()
    }
}

/// An active controller matched to [`sim_cfg`].
fn active_cfg() -> AutoscalerConfig {
    AutoscalerConfig {
        prewarm_cap: 3,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        ..AutoscalerConfig::default()
    }
}

/// Runs `scheduler` over `w` under `cfg` with an event capture, and returns
/// (report, captured events). Kraken is calibrated from a Vanilla run of the
/// same workload under the same `cfg`, controller included.
fn run_with(scheduler: &str, w: &Workload, cfg: &SimConfig) -> (RunReport, Vec<SimEvent>) {
    let kind = SchedulerKind::parse(scheduler).expect("known scheduler");
    let (mut reports, sinks) =
        run_comparison(&[kind], w, "t", cfg, &SchedulerSetup::new(WINDOW), |_| {
            Box::new(VecSink::new())
        });
    (reports.remove(0), vec_events(sinks[0].as_ref()))
}

fn vec_events(sink: &dyn TraceSink) -> Vec<SimEvent> {
    sink.as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink round-trips")
        .events()
        .to_vec()
}

/// [`run_with`] under `cfg` with the controller `ac` switched on.
fn run_autoscaled(
    scheduler: &str,
    w: &Workload,
    cfg: &SimConfig,
    ac: &AutoscalerConfig,
) -> (RunReport, Vec<SimEvent>) {
    let cfg = SimConfig {
        autoscaler: Some(ac.clone()),
        ..cfg.clone()
    };
    run_with(scheduler, w, &cfg)
}

/// The `count` of every `ScalePrewarm` the controller's actions narrated.
fn prewarm_counts(events: &[SimEvent]) -> impl Iterator<Item = u64> + '_ {
    events.iter().filter_map(|e| match e.kind {
        EventKind::ScalePrewarm { count, .. } => Some(count),
        _ => None,
    })
}

proptest! {
    /// (a) A controller whose actions are all no-ops (pre-warm disabled,
    /// keep-alive band pinned to the static TTL) leaves the event stream
    /// bit-identical to a run without one, and the report too — apart from
    /// the controller's own (all-zero) counters.
    #[test]
    fn noop_controller_never_perturbs(
        seed in 0u64..300,
        io in 0usize..2,
        scheduler in 0usize..4,
    ) {
        let w = wl(seed, io == 1);
        let cfg = sim_cfg();
        let noop = AutoscalerConfig::noop(cfg.keep_alive);
        let (plain, plain_events) = run_with(SCHEDULERS[scheduler], &w, &cfg);
        let (mut auto_report, auto_events) =
            run_autoscaled(SCHEDULERS[scheduler], &w, &cfg, &noop);
        prop_assert_eq!(plain.autoscaler, None);
        prop_assert_eq!(auto_report.autoscaler.take(), Some(Default::default()));
        prop_assert!(
            plain_events == auto_events,
            "{}: a no-op controller changed the event stream", SCHEDULERS[scheduler]
        );
        prop_assert_eq!(
            plain, auto_report,
            "{} perturbed by a no-op controller", SCHEDULERS[scheduler]
        );
    }

    /// (b) The outstanding pre-warm budget never exceeds the configured cap,
    /// on any scheduler or seed.
    #[test]
    fn prewarm_budget_never_exceeds_cap(
        seed in 0u64..300,
        scheduler in 0usize..4,
        cap in 1usize..5,
    ) {
        let w = wl(seed, false);
        let cfg = sim_cfg();
        let ac = AutoscalerConfig { prewarm_cap: cap, ..active_cfg() };
        let (_, events) = run_autoscaled(SCHEDULERS[scheduler], &w, &cfg, &ac);
        for count in prewarm_counts(&events) {
            prop_assert!(
                count <= cap as u64,
                "a single prewarm burst ({count}) exceeded the cap ({cap})"
            );
        }
    }

    /// (c) Keep-alive never drops below the floor — and while a function
    /// still has queued (arrived but undispatched) invocations the
    /// controller holds the ceiling, never the floor.
    #[test]
    fn keepalive_respects_floor_under_backlog(
        seed in 0u64..300,
        scheduler in 0usize..4,
    ) {
        let w = wl(seed, false);
        let cfg = sim_cfg();
        let ac = active_cfg();
        let (_, events) = run_autoscaled(SCHEDULERS[scheduler], &w, &cfg, &ac);
        use std::collections::HashMap;
        let mut backlog: HashMap<u32, i64> = HashMap::new();
        for e in &events {
            match &e.kind {
                EventKind::Arrival { function, .. } => {
                    *backlog.entry(function.index()).or_insert(0) += 1;
                }
                EventKind::DispatchDecision { function, members, .. } => {
                    *backlog.entry(function.index()).or_insert(0) -= members.len() as i64;
                }
                EventKind::ScaleKeepAlive { function, keep_alive } => {
                    prop_assert!(
                        *keep_alive >= ac.keepalive_floor,
                        "keep-alive {keep_alive} fell below the floor {}",
                        ac.keepalive_floor
                    );
                    if backlog.get(&function.index()).copied().unwrap_or(0) > 0 {
                        prop_assert_eq!(
                            *keep_alive, ac.keepalive_ceiling,
                            "fn#{} had queued work but keep-alive was lowered",
                            function.index()
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// The watermark the controller reports never exceeds the cap either —
/// exhaustive over schedulers at a fixed seed, checking the controller's
/// own accounting rather than the emitted events.
#[test]
fn max_outstanding_watermark_respects_cap() {
    let w = wl(11, false);
    let cfg = sim_cfg();
    for cap in [1usize, 2, 4] {
        let ac = AutoscalerConfig {
            prewarm_cap: cap,
            ..active_cfg()
        };
        for scheduler in SCHEDULERS {
            let (report, _) = run_autoscaled(scheduler, &w, &cfg, &ac);
            let stats = report.autoscaler.expect("the controller reports");
            assert!(
                stats.max_outstanding_prewarm <= cap,
                "{scheduler}: watermark {} exceeded cap {cap}",
                stats.max_outstanding_prewarm
            );
        }
    }
}

/// An active controller is itself deterministic: identical inputs produce
/// identical reports and event streams, scale actions included.
#[test]
fn controller_actions_are_deterministic() {
    let w = wl(5, false);
    let cfg = sim_cfg();
    let ac = active_cfg();
    for scheduler in SCHEDULERS {
        let (ra, ea) = run_autoscaled(scheduler, &w, &cfg, &ac);
        let (rb, eb) = run_autoscaled(scheduler, &w, &cfg, &ac);
        assert_eq!(ra, rb, "{scheduler} report diverged");
        assert_eq!(ea, eb, "{scheduler} event stream diverged");
    }
}
