//! The fleet replay: deterministic trace-splitting over N workers.
//!
//! The router walks the workload in arrival order, forms function groups
//! (same function, same dispatch window), and places each group on one
//! worker via the [`RoutingPolicy`]. Each
//! worker then replays its sub-trace through the unchanged single-worker
//! harness (`run_simulation_traced`), so per-worker behaviour is identical
//! to the paper's single-node evaluation.
//!
//! Faults are applied afterwards, crash by crash in chronological order: a
//! crashed worker keeps every record that completed before the crash
//! instant, and its in-flight invocations are re-dispatched to surviving
//! workers after a configurable delay, under a bounded per-invocation retry
//! budget. The re-dispatch gap is folded into the record's scheduling
//! latency, so fleet records satisfy the same consistency invariant as
//! single-worker records.

use crate::config::{FleetConfig, WorkerScheduler};
use crate::error::FleetError;
use crate::report::{FleetRecord, FleetReport, WorkerReport};
use crate::routing::{RouterCtx, RoutingPolicy, WorkerLoad};
use faasbatch_container::ids::{FunctionId, InvocationId};
use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_metrics::autoscaler::AutoscalerSink;
use faasbatch_metrics::events::{EventKind, NoopSink, SimEvent, TraceSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_metrics::sampler::ResourceSampler;
use faasbatch_schedulers::harness::run_simulation_traced;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::workload::{Invocation, Workload};
use std::collections::{BTreeSet, HashMap};

/// One invocation as the router tracks it across placements.
#[derive(Debug, Clone)]
struct Pending {
    /// Dense id in the original fleet workload.
    fleet_id: u64,
    function: FunctionId,
    original_arrival: SimTime,
    /// Arrival used for the current placement; moves forward on re-dispatch.
    effective_arrival: SimTime,
    work: SimDuration,
    retries: u32,
}

/// Group identity: (function index, dispatch-window epoch, attempt). All
/// members route to one worker as a unit.
type GroupKey = (u32, u64, u32);

/// Replays `workload` over a fleet configured by `cfg` under `policy`.
///
/// Deterministic: the same workload, configuration, and policy produce a
/// bit-identical [`FleetReport`].
///
/// # Errors
///
/// [`FleetError::InvalidConfig`] when [`FleetConfig::validate`] rejects the
/// configuration; [`FleetError::NoLiveWorker`] when every worker has
/// crashed or drained before a group arrives;
/// [`FleetError::RetryBudgetExhausted`] when a crash strands an invocation
/// that has no re-dispatch budget left — the scenario cannot complete the
/// workload exactly-once.
pub fn run_fleet(
    workload: &Workload,
    cfg: &FleetConfig,
    policy: Box<dyn RoutingPolicy>,
    label: &str,
) -> Result<FleetReport, FleetError> {
    run_fleet_impl(workload, cfg, policy, label, None).map(|(report, _)| report)
}

/// [`run_fleet`] with an observable fleet-level event stream.
///
/// The stream narrates the *fleet* layer — one `Arrival` per workload
/// invocation at its original arrival, `GroupFormed` per routed group,
/// `WorkerCrash` / `Redispatch` for the fault path, and one
/// `InvocationComplete` (with no batch identity) per merged record — sorted
/// by time and fed through `sink`, which is returned for downcasting.
/// Per-worker mechanism detail lives in the single-worker streams; this
/// layer is what the fleet adds on top.
///
/// # Errors
///
/// Same as [`run_fleet`]; on error the sink is dropped with whatever prefix
/// it had seen (nothing — events are flushed only on success, so a failed
/// scenario never emits a partial stream).
pub fn run_fleet_traced(
    workload: &Workload,
    cfg: &FleetConfig,
    policy: Box<dyn RoutingPolicy>,
    label: &str,
    mut sink: Box<dyn TraceSink>,
) -> Result<(FleetReport, Box<dyn TraceSink>), FleetError> {
    let (report, events) = run_fleet_impl(workload, cfg, policy, label, Some(Vec::new()))?;
    let mut events = events.unwrap_or_default();
    // Collection order is per-phase; present one time-ordered stream (the
    // sort is stable, so causal order within a timestamp is preserved).
    events.sort_by_key(|e| e.at);
    for event in &events {
        sink.record(event);
    }
    Ok((report, sink))
}

/// Appends `event` when the run is being traced.
fn trace(events: &mut Option<Vec<SimEvent>>, at: SimTime, kind: EventKind) {
    if let Some(buf) = events.as_mut() {
        buf.push(SimEvent::new(at, kind));
    }
}

fn run_fleet_impl(
    workload: &Workload,
    cfg: &FleetConfig,
    mut policy: Box<dyn RoutingPolicy>,
    label: &str,
    mut events: Option<Vec<SimEvent>>,
) -> Result<(FleetReport, Option<Vec<SimEvent>>), FleetError> {
    cfg.validate()?;
    let n = cfg.workers;

    for inv in workload.invocations() {
        trace(
            &mut events,
            inv.arrival,
            EventKind::Arrival {
                invocation: inv.id,
                function: inv.function,
            },
        );
    }

    let mut pending: Vec<Pending> = workload
        .invocations()
        .iter()
        .map(|inv| Pending {
            fleet_id: inv.id.value(),
            function: inv.function,
            original_arrival: inv.arrival,
            effective_arrival: inv.arrival,
            work: inv.work,
            retries: 0,
        })
        .collect();

    // Crashes, processed in chronological order. Retried arrivals always
    // land strictly after the crash that produced them, so a processed
    // worker's assignment is final — each crash is evaluated exactly once.
    let mut crashes: Vec<(SimTime, usize)> = (0..n)
        .filter_map(|w| cfg.crash_at(w).map(|t| (t, w)))
        .collect();
    crashes.sort_unstable();

    let mut assigned: Vec<Vec<Pending>> = vec![Vec::new(); n];
    let mut load: Vec<WorkerLoad> = vec![WorkerLoad::default(); n];
    let mut runs: Vec<Option<(RunReport, Vec<Pending>)>> = (0..n).map(|_| None).collect();
    let mut lost: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    let mut total_retries = 0u64;
    let mut retry_delay_total = SimDuration::ZERO;

    let mut next_crash = 0;
    loop {
        route_round(
            &mut pending,
            policy.as_mut(),
            cfg,
            &mut load,
            &mut assigned,
            &mut runs,
            &mut events,
        )?;
        let Some(&(crash_time, w)) = crashes.get(next_crash) else {
            break;
        };
        next_crash += 1;
        trace(
            &mut events,
            crash_time,
            EventKind::WorkerCrash { worker: w as u64 },
        );
        if runs[w].is_none() {
            runs[w] = Some(replay_worker(workload, cfg, label, &assigned[w]));
        }
        let (report, metas) = runs[w].as_ref().expect("replay just computed");
        let mut retries: Vec<Pending> = Vec::new();
        for (rec, meta) in report.records.iter().zip(metas) {
            if rec.completion <= crash_time {
                continue;
            }
            // In flight at the crash: lost here, re-dispatched elsewhere.
            if meta.retries >= cfg.max_retries {
                return Err(FleetError::RetryBudgetExhausted {
                    invocation: meta.fleet_id,
                    worker: w,
                    max_retries: cfg.max_retries,
                });
            }
            let mut retry = meta.clone();
            retry.retries += 1;
            retry.effective_arrival = crash_time + cfg.redispatch_delay;
            retry_delay_total += retry.effective_arrival - meta.effective_arrival;
            total_retries += 1;
            retries.push(retry);
        }
        for retry in retries {
            trace(
                &mut events,
                retry.effective_arrival,
                EventKind::Redispatch {
                    invocation: InvocationId::new(retry.fleet_id),
                    from_worker: w as u64,
                    retries: retry.retries,
                },
            );
            lost[w].insert(retry.fleet_id);
            pending.push(retry);
        }
    }

    for w in 0..n {
        if runs[w].is_none() {
            runs[w] = Some(replay_worker(workload, cfg, label, &assigned[w]));
        }
    }

    // Merge: every record not lost to a crash is a fleet completion. Restore
    // the fleet identity and charge any re-dispatch gap to scheduling.
    let mut records: Vec<FleetRecord> = Vec::with_capacity(workload.len());
    for (w, run) in runs.iter().enumerate() {
        let (report, metas) = run.as_ref().expect("every worker replayed");
        for (rec, meta) in report.records.iter().zip(metas) {
            if lost[w].contains(&meta.fleet_id) {
                continue;
            }
            let mut record = *rec;
            let gap = meta.effective_arrival - meta.original_arrival;
            record.id = InvocationId::new(meta.fleet_id);
            record.arrival = meta.original_arrival;
            record.latency.scheduling += gap;
            trace(
                &mut events,
                record.completion,
                EventKind::InvocationComplete {
                    invocation: record.id,
                    batch: None,
                    member: None,
                },
            );
            records.push(FleetRecord {
                record,
                worker: w,
                retries: meta.retries,
                retry_delay: gap,
            });
        }
    }
    records.sort_by_key(|r| r.record.id);
    assert_eq!(
        records.len(),
        workload.len(),
        "fleet replay lost or duplicated invocations"
    );
    for (i, r) in records.iter().enumerate() {
        assert_eq!(
            r.record.id.value(),
            i as u64,
            "fleet records are not dense (exactly-once violated)"
        );
    }

    let makespan = records
        .iter()
        .map(|r| r.record.completion)
        .max()
        .unwrap_or(SimTime::ZERO)
        .saturating_duration_since(
            records
                .iter()
                .map(|r| r.record.arrival)
                .min()
                .unwrap_or(SimTime::ZERO),
        );

    let workers = runs
        .into_iter()
        .enumerate()
        .map(|(w, run)| {
            let (mut report, _) = run.expect("every worker replayed");
            if let Some(t) = cfg.crash_at(w) {
                truncate_at(&mut report, t);
            }
            WorkerReport {
                worker: w,
                fault: cfg.faults.iter().find(|f| f.worker == w).copied(),
                completed: report.records.len(),
                lost: lost[w].len(),
                report,
            }
        })
        .collect();

    Ok((
        FleetReport {
            policy: policy.name(),
            scheduler: cfg.scheduler.name().to_owned(),
            workload: label.to_owned(),
            workers,
            records,
            retries: total_retries,
            retry_delay_total,
            makespan,
        },
        events,
    ))
}

/// Routes everything in `pending` (drained), sticky per function group.
fn route_round(
    pending: &mut Vec<Pending>,
    policy: &mut dyn RoutingPolicy,
    cfg: &FleetConfig,
    load: &mut [WorkerLoad],
    assigned: &mut [Vec<Pending>],
    runs: &mut [Option<(RunReport, Vec<Pending>)>],
    events: &mut Option<Vec<SimEvent>>,
) -> Result<(), FleetError> {
    pending.sort_by_key(|p| (p.effective_arrival, p.fleet_id));
    // Group by (function, window epoch, attempt), preserving the order in
    // which groups first appear — the router places groups, never members.
    let window = cfg.window.as_micros();
    let mut order: Vec<(GroupKey, Vec<Pending>)> = Vec::new();
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    for p in pending.drain(..) {
        let key: GroupKey = (
            p.function.index(),
            p.effective_arrival.as_micros() / window,
            p.retries,
        );
        match index.get(&key) {
            Some(&i) => order[i].1.push(p),
            None => {
                index.insert(key, order.len());
                order.push((key, vec![p]));
            }
        }
    }
    for (key, members) in order {
        let now = members[0].effective_arrival;
        let alive: Vec<bool> = (0..cfg.workers).map(|w| cfg.accepting(w, now)).collect();
        if !alive.iter().any(|&a| a) {
            return Err(FleetError::NoLiveWorker {
                function: key.0,
                at: now,
            });
        }
        for l in load.iter_mut() {
            l.observe(now);
        }
        let ctx = RouterCtx {
            now,
            function: FunctionId::new(key.0),
            alive: &alive,
            load,
        };
        let w = policy.route(&ctx);
        assert!(
            alive[w],
            "routing policy `{}` picked dead worker {w}",
            policy.name()
        );
        trace(
            events,
            now,
            EventKind::GroupFormed {
                function: FunctionId::new(key.0),
                size: members.len() as u64,
                worker: w as u64,
                members: members
                    .iter()
                    .map(|m| InvocationId::new(m.fleet_id))
                    .collect(),
            },
        );
        for m in &members {
            load[w].note(now, m.work);
        }
        runs[w] = None;
        assigned[w].extend(members);
    }
    Ok(())
}

/// Replays one worker's assignment through the single-worker harness.
/// Returns the report plus the assignment sorted to match record order
/// (records are dense and id-sorted, ids assigned in arrival order).
fn replay_worker(
    workload: &Workload,
    cfg: &FleetConfig,
    label: &str,
    assignment: &[Pending],
) -> (RunReport, Vec<Pending>) {
    let mut metas = assignment.to_vec();
    // `Workload::new` stable-sorts by arrival; pre-sorting with the fleet id
    // as tiebreak makes local id <-> meta index alignment unambiguous.
    metas.sort_by_key(|p| (p.effective_arrival, p.fleet_id));
    if metas.is_empty() {
        return (empty_report(cfg, label), metas);
    }
    let invocations: Vec<Invocation> = metas
        .iter()
        .enumerate()
        .map(|(i, p)| Invocation {
            id: InvocationId::new(i as u64),
            function: p.function,
            arrival: p.effective_arrival,
            work: p.work,
        })
        .collect();
    let sub = Workload::new(workload.registry().clone(), invocations);
    let (kind, setup) = match &cfg.scheduler {
        WorkerScheduler::Vanilla => (SchedulerKind::Vanilla, SchedulerSetup::new(cfg.window)),
        WorkerScheduler::FaasBatch(fb) => (
            SchedulerKind::FaasBatch,
            SchedulerSetup::new(fb.window).with_faasbatch_config(fb.clone()),
        ),
    };
    let (policy, interval) = kind.build(&setup);
    // With a controller configured, every worker runs its own fresh
    // `AutoscalerSink` — the fleet-level stream is synthesized post-hoc, so
    // per-worker control loops are the only honest placement.
    let sink: Box<dyn TraceSink> = match &cfg.autoscaler {
        Some(ac) => Box::new(AutoscalerSink::new(ac.clone())),
        None => Box::new(NoopSink),
    };
    let (report, _) = run_simulation_traced(policy, &sub, cfg.sim.clone(), label, interval, sink);
    (report, metas)
}

/// An idle worker's report (no invocations routed to it).
fn empty_report(cfg: &FleetConfig, label: &str) -> RunReport {
    RunReport {
        scheduler: cfg.scheduler.name().to_owned(),
        workload: label.to_owned(),
        dispatch_interval: match &cfg.scheduler {
            WorkerScheduler::Vanilla => None,
            WorkerScheduler::FaasBatch(fb) => Some(fb.window),
        },
        records: Vec::new(),
        sampler: ResourceSampler::new(),
        provisioned_containers: 0,
        warm_hits: 0,
        restored_starts: 0,
        snapshot_stats: Default::default(),
        peak_live_containers: 0,
        core_seconds: 0.0,
        core_seconds_daemon: 0.0,
        core_seconds_platform: 0.0,
        host_cores: cfg.sim.cores,
        makespan: SimDuration::ZERO,
        clients_created: 0,
        client_requests: 0,
        client_bytes_allocated: 0,
    }
}

/// Truncates a crashed worker's report at the crash instant: records that
/// completed and samples taken before the crash stand; the rest is gone.
fn truncate_at(report: &mut RunReport, t: SimTime) {
    report.records.retain(|r| r.completion <= t);
    let mut sampler = ResourceSampler::new();
    for s in report.sampler.samples() {
        if s.at <= t {
            sampler.record(*s);
        }
    }
    report.sampler = sampler;
    report.makespan = report
        .records
        .iter()
        .map(|r| r.completion)
        .max()
        .unwrap_or(SimTime::ZERO)
        .saturating_duration_since(
            report
                .records
                .iter()
                .map(|r| r.arrival)
                .min()
                .unwrap_or(SimTime::ZERO),
        );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultKind, WorkerFault};
    use crate::routing::RoutingKind;
    use faasbatch_core::policy::run_faasbatch;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

    fn small_workload(seed: u64) -> Workload {
        cpu_workload(
            &DetRng::new(seed),
            &WorkloadConfig {
                total: 120,
                span: SimDuration::from_secs(10),
                functions: 4,
                bursts: 3,
                ..WorkloadConfig::default()
            },
        )
    }

    fn fleet_cfg(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            ..FleetConfig::default()
        }
    }

    fn assert_conserved(workload: &Workload, report: &FleetReport) {
        assert_eq!(report.records.len(), workload.len());
        assert!(
            report.inconsistencies().is_empty(),
            "inconsistent: {:?}",
            report.inconsistencies()
        );
        let completed: usize = report.workers.iter().map(|w| w.completed).sum();
        assert_eq!(completed, workload.len());
    }

    fn run_ok(
        w: &Workload,
        cfg: &FleetConfig,
        policy: Box<dyn RoutingPolicy>,
        label: &str,
    ) -> FleetReport {
        run_fleet(w, cfg, policy, label).expect("fleet run succeeds")
    }

    #[test]
    fn single_worker_fleet_matches_direct_run() {
        let w = small_workload(1);
        let cfg = fleet_cfg(1);
        let fleet = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        let WorkerScheduler::FaasBatch(fb) = &cfg.scheduler else {
            panic!("default scheduler is faasbatch");
        };
        let direct = run_faasbatch(&w, cfg.sim.clone(), fb.clone(), "cpu");
        assert_conserved(&w, &fleet);
        assert_eq!(fleet.workers[0].report, direct);
        assert_eq!(fleet.records.len(), direct.records.len());
        for (f, d) in fleet.records.iter().zip(&direct.records) {
            assert_eq!(&f.record, d);
        }
    }

    #[test]
    fn every_policy_conserves_invocations() {
        let w = small_workload(2);
        for kind in RoutingKind::ALL {
            for workers in [1, 2, 4] {
                let report = run_ok(&w, &fleet_cfg(workers), kind.build(), "cpu");
                assert_conserved(&w, &report);
                assert_eq!(report.policy, kind.name());
                assert_eq!(report.retries, 0);
            }
        }
    }

    #[test]
    fn groups_are_never_split_across_workers() {
        let w = small_workload(3);
        let cfg = fleet_cfg(4);
        for kind in RoutingKind::ALL {
            let report = run_ok(&w, &cfg, kind.build(), "cpu");
            let mut owner: HashMap<(u32, u64), usize> = HashMap::new();
            for r in &report.records {
                let key = (
                    r.record.function.index(),
                    r.record.arrival.as_micros() / cfg.window.as_micros(),
                );
                let w0 = *owner.entry(key).or_insert(r.worker);
                assert_eq!(
                    w0,
                    r.worker,
                    "{}: group {key:?} split across workers {w0} and {}",
                    kind.name(),
                    r.worker
                );
            }
        }
    }

    #[test]
    fn warm_affinity_pins_functions_to_workers() {
        let w = small_workload(4);
        let report = run_ok(&w, &fleet_cfg(4), RoutingKind::WarmAffinity.build(), "cpu");
        let mut owner: HashMap<u32, usize> = HashMap::new();
        for r in &report.records {
            let w0 = *owner.entry(r.record.function.index()).or_insert(r.worker);
            assert_eq!(w0, r.worker, "warm-affinity moved a function");
        }
    }

    #[test]
    fn drain_stops_new_work_but_loses_nothing() {
        let w = small_workload(5);
        let drain_at = SimTime::from_secs(4);
        let cfg = FleetConfig {
            workers: 2,
            faults: vec![WorkerFault {
                worker: 0,
                at: drain_at,
                kind: FaultKind::Drain,
            }],
            ..FleetConfig::default()
        };
        let report = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        assert_conserved(&w, &report);
        assert_eq!(report.retries, 0);
        assert_eq!(report.workers[0].lost, 0);
        for r in &report.records {
            if r.worker == 0 {
                assert!(
                    r.record.arrival < drain_at,
                    "drained worker accepted a post-drain arrival"
                );
            }
        }
        // The drained worker really did hold work before the fault.
        assert!(report.workers[0].completed > 0);
    }

    #[test]
    fn crash_redispatches_in_flight_work_exactly_once() {
        let w = small_workload(6);
        let crash_at = SimTime::from_secs(3);
        let cfg = FleetConfig {
            workers: 3,
            faults: vec![WorkerFault {
                worker: 1,
                at: crash_at,
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let report = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        assert_conserved(&w, &report);
        assert!(report.retries > 0, "the crash must strand someone");
        assert_eq!(report.workers[1].lost as u64, report.retries);
        // Crashed worker's surviving records all predate the crash.
        for r in &report.workers[1].report.records {
            assert!(r.completion <= crash_at);
        }
        // Retried records carry the re-dispatch delay in scheduling latency
        // and completed on a surviving worker.
        let retried: Vec<&FleetRecord> = report.records.iter().filter(|r| r.retries > 0).collect();
        assert_eq!(retried.len() as u64, report.retries);
        for r in retried {
            assert_ne!(r.worker, 1);
            assert!(!r.retry_delay.is_zero());
            assert!(r.record.latency.scheduling >= r.retry_delay);
            assert!(r.record.is_consistent());
        }
        assert!(!report.retry_delay_total.is_zero());
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let w = small_workload(7);
        let cfg = FleetConfig {
            workers: 3,
            faults: vec![WorkerFault {
                worker: 0,
                at: SimTime::from_secs(2),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let a = run_ok(&w, &cfg, RoutingKind::LeastLoaded.build(), "cpu");
        let b = run_ok(&w, &cfg, RoutingKind::LeastLoaded.build(), "cpu");
        assert_eq!(a, b);
    }

    #[test]
    fn vanilla_workers_are_supported() {
        let w = small_workload(8);
        let cfg = FleetConfig {
            workers: 2,
            scheduler: WorkerScheduler::Vanilla,
            ..FleetConfig::default()
        };
        let report = run_ok(&w, &cfg, RoutingKind::PullBased.build(), "cpu");
        assert_conserved(&w, &report);
        assert_eq!(report.scheduler, "vanilla");
    }

    #[test]
    fn traced_fleet_matches_untraced_and_narrates_faults() {
        use faasbatch_metrics::events::VecSink;
        let w = small_workload(6);
        let cfg = FleetConfig {
            workers: 3,
            faults: vec![WorkerFault {
                worker: 1,
                at: SimTime::from_secs(3),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let untraced = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        let (traced, sink) = run_fleet_traced(
            &w,
            &cfg,
            RoutingKind::RoundRobin.build(),
            "cpu",
            Box::new(VecSink::new()),
        )
        .expect("traced fleet run succeeds");
        assert_eq!(untraced, traced, "tracing must not change the report");
        let events = sink
            .as_any()
            .downcast_ref::<VecSink>()
            .expect("vec sink")
            .events();
        assert!(
            events.windows(2).all(|p| p[0].at <= p[1].at),
            "time-ordered"
        );
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
        assert_eq!(count("Arrival"), w.len());
        assert_eq!(count("InvocationComplete"), w.len());
        assert_eq!(count("WorkerCrash"), 1);
        assert_eq!(count("Redispatch") as u64, traced.retries);
        assert!(count("GroupFormed") > 0);
    }

    #[test]
    fn autoscaled_fleet_conserves_and_is_deterministic() {
        use faasbatch_metrics::autoscaler::AutoscalerConfig;
        let w = small_workload(10);
        let cfg = FleetConfig {
            workers: 3,
            autoscaler: Some(AutoscalerConfig::default()),
            faults: vec![WorkerFault {
                worker: 0,
                at: SimTime::from_secs(2),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let a = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        let b = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        assert_conserved(&w, &a);
        assert_eq!(a, b, "controller must not break determinism");
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        // One hot function bursting inside half a second, batched in 200 ms
        // windows: both workers hold one of its groups. Worker 0 crashes at
        // 600 ms while the last window is still executing; the stranded
        // group retries on worker 1 at 650 ms, whose next dispatch window
        // opens at 800 ms — after worker 1's own 700 ms crash. The retried
        // invocations are in flight there with no budget left.
        let w = cpu_workload(
            &DetRng::new(9),
            &WorkloadConfig {
                total: 40,
                span: SimDuration::from_millis(500),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let cfg = FleetConfig {
            workers: 2,
            max_retries: 1,
            faults: vec![
                WorkerFault {
                    worker: 0,
                    at: SimTime::from_millis(600),
                    kind: FaultKind::Crash,
                },
                WorkerFault {
                    worker: 1,
                    at: SimTime::from_millis(700),
                    kind: FaultKind::Crash,
                },
            ],
            ..FleetConfig::default()
        };
        let err = run_fleet(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu")
            .expect_err("budget must run out");
        let FleetError::RetryBudgetExhausted {
            worker,
            max_retries,
            ..
        } = &err
        else {
            panic!("expected RetryBudgetExhausted, got {err:?}");
        };
        assert_eq!(*worker, 1, "the second crash strands the retries");
        assert_eq!(*max_retries, 1);
        assert!(err.to_string().contains("retry budget"), "{err}");
    }

    #[test]
    fn draining_every_worker_is_a_typed_error() {
        let w = small_workload(3);
        let cfg = FleetConfig {
            workers: 1,
            faults: vec![WorkerFault {
                worker: 0,
                at: SimTime::from_millis(100),
                kind: FaultKind::Drain,
            }],
            ..FleetConfig::default()
        };
        let err = run_fleet(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu")
            .expect_err("nobody is left to accept arrivals");
        let FleetError::NoLiveWorker { at, .. } = err else {
            panic!("expected NoLiveWorker, got {err:?}");
        };
        assert!(at >= SimTime::from_millis(100));
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let cfg = FleetConfig {
            workers: 0,
            ..FleetConfig::default()
        };
        let err = run_fleet(
            &small_workload(1),
            &cfg,
            RoutingKind::RoundRobin.build(),
            "cpu",
        )
        .expect_err("zero workers cannot replay anything");
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err:?}");
    }
}
