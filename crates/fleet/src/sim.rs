//! The fleet replay: route the whole workload in time order, then replay
//! each worker from what it was handed.
//!
//! Three sorted inputs are merged by instant — the workload, a small heap
//! of re-dispatches, and the fault list — and every injection is appended
//! to its worker's pending list as `(fleet id, effective arrival)`. The
//! contract that makes this exact: a [`Worker`] is a pure function of its
//! injection list, and a crash is the only point where the loop reads a
//! worker. There the worker is built, fed its list and stopped at the crash
//! instant, on the loop's thread, before anything later is routed. After
//! the last arrival every surviving worker is built, fed and finished on a
//! scoped pool of `min(available_parallelism, survivors)` threads, the
//! calling one included. Reports merge in seat order, so every result is
//! byte-identical at any thread count, and one thread is the same pool with
//! no helpers.
//!
//! * **Arrival.** The first member of a function group — key `(function,
//!   arrival / window, attempt)` — places the whole group: the [`Router`]
//!   (the same one the live gateway routes with) picks a worker from the
//!   liveness flags and its load estimates *as they stand at that instant*,
//!   and the group's work — the rest of its window in the trace — is
//!   charged to the pick. Later members follow the group; each is handed to
//!   its worker under its fleet id at its arrival.
//! * **Drain.** The worker's liveness flag drops: it is offered no new
//!   group, finishes what it holds, and keeps receiving the members of
//!   groups it was already given (a group is never split).
//! * **Crash.** The worker runs up to the crash instant and stops; its
//!   report ends there. What it had accepted but not completed is
//!   harvested, charged one retry each (a spent budget is
//!   [`FleetError::RetryBudgetExhausted`]), and queued per function for
//!   `crash + redispatch_delay`, where it is an arrival like any other:
//!   grouped by its effective window and attempt, routed on the state of
//!   that instant. A fault more than [`Worker::HORIZON`] past the last
//!   arrival is [`FleetError::InvalidConfig`]: no run lasts that long.
//! * **Late member.** A member whose group sits on a worker that is dead
//!   when the member arrives is lost on arrival and re-dispatched at
//!   `max(arrival, crash + redispatch_delay)` — never before it exists.
//!
//! The re-dispatch gap is folded into the record's scheduling latency, so
//! fleet records satisfy the same consistency invariant as single-worker
//! records. Routing reads estimates, not worker state — a front door
//! cannot see inside its workers, and leaving the policy inputs alone is
//! what holds every fault-free result byte-identical. A router that read
//! worker state would have to route on state taken at synchronisation
//! points, with the workers advanced in parallel between them.

use crate::config::{FaultKind, FleetConfig, WorkerFault, WorkerScheduler};
use crate::error::FleetError;
use crate::report::{FleetRecord, FleetReport, WorkerReport};
use crate::routing::{Router, RoutingPolicy};
use faasbatch_container::ids::{FunctionId, InvocationId};
use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_metrics::events::{EventKind, NoopSink, SimEvent, TraceSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::harness::Worker;
use faasbatch_simcore::engine::EngineStats;
use faasbatch_simcore::idmap::IdMap;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::workload::{Invocation, Workload};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    run_fleet_with_workers(workload, cfg, policy, label, &|| {
        new_worker(workload, cfg, label)
    })
}

/// [`run_fleet`] over workers the caller builds: `new_worker` is called
/// once per seat, on whichever thread replays that seat, and
/// `cfg.scheduler` is not consulted. This is the seam that lets a test run
/// the real loop — routing, crashes, drains, re-dispatch — over a
/// reference policy and compare reports.
///
/// # Errors
///
/// Same as [`run_fleet`].
pub fn run_fleet_with_workers(
    workload: &Workload,
    cfg: &FleetConfig,
    policy: Box<dyn RoutingPolicy>,
    label: &str,
    new_worker: &(dyn Fn() -> Worker + Sync),
) -> Result<FleetReport, FleetError> {
    run_fleet_impl(
        workload,
        cfg,
        policy,
        label,
        new_worker,
        None,
        machine_threads(),
    )
    .map(|(report, ..)| report)
}

/// [`run_fleet`] with an observable fleet-level event stream.
///
/// The stream narrates the *fleet* layer — one `Arrival` per workload
/// invocation at its original arrival, `GroupFormed` per placed group
/// (carrying the members known at placement), `WorkerCrash` / `Redispatch`
/// for the fault path, and one `InvocationComplete` (with no batch
/// identity) per merged record — sorted by time and fed through `sink`,
/// which is returned for downcasting. Per-worker mechanism detail lives in
/// the single-worker streams; this layer is what the fleet adds on top.
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
    let (report, events, _) = run_fleet_impl(
        workload,
        cfg,
        policy,
        label,
        &|| new_worker(workload, cfg, label),
        Some(Vec::new()),
        machine_threads(),
    )?;
    let mut events = events.unwrap_or_default();
    // Completions are read worker by worker, so they surface out of order;
    // present one time-ordered stream (the sort is stable, so causal order
    // within a timestamp is preserved).
    events.sort_by_key(|e| e.at);
    for event in &events {
        sink.record(event);
    }
    Ok((report, sink))
}

/// One injection handed to a seat: fleet id and effective arrival. The
/// rest of the invocation is `invs[id]`.
type Injection = (u64, SimTime);

/// One worker's seat in the loop.
struct Seat {
    /// What the worker was handed, in order; emptied by its crash.
    pending: Vec<Injection>,
    /// Crash instant, and the report as it stood then.
    crashed: Option<(SimTime, RunReport)>,
    /// Invocations lost to the crash: harvested from the worker, or owed to
    /// it by a group placed before the crash and arriving after.
    lost: usize,
}

/// The loop's state: everything an arrival, a re-dispatch or a fault touches.
struct Fleet<'a> {
    cfg: &'a FleetConfig,
    /// The workload; a fleet id is an index into it.
    invs: &'a [Invocation],
    new_worker: &'a (dyn Fn() -> Worker + Sync),
    router: Router,
    seats: Vec<Seat>,
    /// Workers the router may still pick: no crash or drain has taken effect.
    accepting: Vec<bool>,
    /// Groups placed in the current window epoch: (function, attempt) →
    /// worker. Time only moves forward, so older epochs are dropped whole.
    placed: IdMap<(FunctionId, u32), usize>,
    epoch: u64,
    /// Re-dispatches waiting for their instant, earliest first: (effective
    /// arrival, fleet ids sharing one function and attempt — what one crash
    /// harvested of a function, or one late member). Empty in a fault-free
    /// run.
    queue: BinaryHeap<Reverse<(SimTime, Vec<u64>)>>,
    /// Re-dispatches consumed, per invocation that has been lost at all.
    attempts: IdMap<u64, u32>,
    retries: u64,
    events: Option<Vec<SimEvent>>,
}

impl Fleet<'_> {
    /// Appends `kind` when the run is being traced.
    fn trace(&mut self, at: SimTime, kind: EventKind) {
        if let Some(buf) = self.events.as_mut() {
            buf.push(SimEvent::new(at, kind));
        }
    }

    /// Hands `ids` — one fresh arrival, or one queued re-dispatch entry — to
    /// their group's worker at `at`, placing the group first when they are
    /// its first members.
    fn dispatch(&mut self, at: SimTime, ids: &[u64]) -> Result<(), FleetError> {
        let invs = self.invs;
        let first = &invs[ids[0] as usize];
        let epoch = at.as_micros() / self.cfg.window.as_micros();
        if epoch != self.epoch {
            self.placed.clear();
            self.epoch = epoch;
        }
        let attempt = self.attempts.get(&ids[0]).copied().unwrap_or(0);
        let key = (first.function, attempt);
        let w = match self.placed.get(&key) {
            Some(&w) => {
                // A fresh member was charged by look-ahead when its group
                // was placed; a re-dispatch that joins a placed group is
                // charged as it joins.
                if attempt > 0 {
                    for &id in ids {
                        self.router.charge(w, at, invs[id as usize].work);
                    }
                }
                w
            }
            None => {
                let w = self.place(at, attempt, ids)?;
                self.placed.insert(key, w);
                w
            }
        };
        for &id in ids {
            let seat = &mut self.seats[w];
            let Some((crashed, _)) = seat.crashed.as_ref() else {
                seat.pending.push((id, at));
                continue;
            };
            // A late member: its group's worker died before it arrived.
            let due = at.max(*crashed + self.cfg.redispatch_delay);
            self.lose(id, w, due)?;
            self.queue.push(Reverse((due, vec![id])));
        }
        Ok(())
    }

    /// Routes the group whose first members `ids` arrive at `at`, and
    /// charges every member the router can see to the chosen worker: the
    /// rest of a fresh group's window in the trace, or the re-dispatch
    /// entry `ids`.
    fn place(&mut self, at: SimTime, attempt: u32, ids: &[u64]) -> Result<usize, FleetError> {
        let first = ids[0] as usize;
        let function = self.invs[first].function;
        if !self.accepting.contains(&true) {
            return Err(FleetError::NoLiveWorker {
                function: function.index(),
                at,
            });
        }
        let (invs, window, epoch) = (self.invs, self.cfg.window.as_micros(), self.epoch);
        // What the router can see of the group: a fresh one is the rest of
        // its window in the trace, a re-dispatched one is the entry `ids`.
        let (fresh, retried) = if attempt == 0 {
            (&invs[first..], &[][..])
        } else {
            (&[][..], ids)
        };
        let members = || {
            let fresh = fresh
                .iter()
                .take_while(|m| m.arrival.as_micros() / window == epoch)
                .filter(|m| m.function == function);
            fresh.chain(retried.iter().map(|&id| &invs[id as usize]))
        };
        let w = self
            .router
            .place(at, function, &self.accepting, members().map(|m| m.work));
        if self.events.is_some() {
            let members: Vec<InvocationId> = members().map(|m| m.id).collect();
            self.trace(
                at,
                EventKind::GroupFormed {
                    function,
                    size: members.len() as u64,
                    worker: w as u64,
                    members,
                },
            );
        }
        Ok(w)
    }

    /// Invocation `id` is lost on crashed worker `w`: charges one retry and
    /// returns the attempt its re-dispatch at `due` will be.
    fn lose(&mut self, id: u64, w: usize, due: SimTime) -> Result<u32, FleetError> {
        let attempt = self.attempts.entry(id).or_insert(0);
        if *attempt >= self.cfg.max_retries {
            return Err(FleetError::RetryBudgetExhausted {
                invocation: id,
                worker: w,
                max_retries: self.cfg.max_retries,
            });
        }
        *attempt += 1;
        let retries = *attempt;
        self.seats[w].lost += 1;
        self.retries += 1;
        self.trace(
            due,
            EventKind::Redispatch {
                invocation: InvocationId::new(id),
                from_worker: w as u64,
                retries,
            },
        );
        Ok(retries)
    }

    /// Worker `w` dies at `at`: it is replayed up to that instant, and what
    /// it still held is queued for re-dispatch, one entry per function
    /// group.
    fn crash(&mut self, w: usize, at: SimTime) -> Result<(), FleetError> {
        self.trace(at, EventKind::WorkerCrash { worker: w as u64 });
        let seat = &mut self.seats[w];
        assert!(
            seat.crashed.is_none(),
            "validate() allows one crash per worker"
        );
        let pending = std::mem::take(&mut seat.pending);
        let (report, open) = replay(self.new_worker, self.invs, &pending).abandon(at);
        seat.crashed = Some((at, report));
        let due = at + self.cfg.redispatch_delay;
        let mut groups: BTreeMap<(FunctionId, u32), Vec<u64>> = BTreeMap::new();
        for id in open.into_iter().map(InvocationId::value) {
            let key = (self.invs[id as usize].function, self.lose(id, w, due)?);
            groups.entry(key).or_default().push(id);
        }
        self.queue
            .extend(groups.into_values().map(|ids| Reverse((due, ids))));
        Ok(())
    }
}

/// A fresh worker for one seat, running the fleet's scheduler — and, when
/// `cfg.sim` configures one, its own controller.
fn new_worker(workload: &Workload, cfg: &FleetConfig, label: &str) -> Worker {
    let (kind, setup) = match &cfg.scheduler {
        WorkerScheduler::Vanilla => (SchedulerKind::Vanilla, SchedulerSetup::new(cfg.window)),
        WorkerScheduler::FaasBatch(fb) => (SchedulerKind::FaasBatch, fb.clone().into()),
    };
    let (policy, interval) = kind.build(&setup);
    let registry = workload.registry().clone();
    Worker::new(
        policy,
        registry,
        cfg.sim.clone(),
        label,
        interval,
        Box::new(NoopSink),
    )
}

/// A worker built by `new_worker` and fed `pending` in order.
fn replay(new_worker: &dyn Fn() -> Worker, invs: &[Invocation], pending: &[Injection]) -> Worker {
    let mut worker = new_worker();
    for &(id, arrival) in pending {
        worker.inject(&Invocation {
            arrival,
            ..invs[id as usize]
        });
    }
    worker
}

/// The threads a replay may use: the machine's.
fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Replays each pending list in `lists` to its end on `min(threads,
/// lists.len())` threads — the calling one pulls lists too — and returns
/// each worker's report and engine counters in list order. A worker that
/// panics (a stalled simulation) panics the caller with its own payload.
fn finish_all(
    new_worker: &(dyn Fn() -> Worker + Sync),
    invs: &[Invocation],
    lists: &[&[Injection]],
    threads: usize,
) -> Vec<(RunReport, EngineStats)> {
    // Hands out list indices and publishes nothing else: the lists are
    // read-only, and the results come back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(pending) = lists.get(i) else {
                return done;
            };
            let mut worker = replay(new_worker, invs, pending);
            worker.close();
            let engine = worker.engine_stats();
            done.push((i, worker.finish().0, engine));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(lists.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, ..)| i);
    done.into_iter()
        .map(|(_, report, engine)| (report, engine))
        .collect()
}

/// What [`run_fleet_impl`] returns: the report, the fleet-level events when
/// they were asked for, and the summed engine counters of the workers that
/// ran to the end (a profile reading, not a result).
type FleetRun = (FleetReport, Option<Vec<SimEvent>>, EngineStats);

/// The replay behind every entry point; surviving workers are finished on
/// up to `threads` threads, and nothing it returns depends on how many.
fn run_fleet_impl(
    workload: &Workload,
    cfg: &FleetConfig,
    policy: Box<dyn RoutingPolicy>,
    label: &str,
    new_worker: &(dyn Fn() -> Worker + Sync),
    events: Option<Vec<SimEvent>>,
    threads: usize,
) -> Result<FleetRun, FleetError> {
    cfg.validate()?;
    let n = cfg.workers;
    let invs = workload.invocations();
    let last = invs.last().map_or(SimTime::ZERO, |inv| inv.arrival);
    let beyond = |f: &&WorkerFault| f.at.saturating_duration_since(last) > Worker::HORIZON;
    if let Some(f) = cfg.faults.iter().find(beyond) {
        let kind = format!("{:?}", f.kind).to_lowercase();
        return Err(FleetError::InvalidConfig(format!(
            "faults: the {kind} of worker {} at {} lies more than {} past the last arrival ({last})",
            f.worker,
            f.at,
            Worker::HORIZON,
        )));
    }
    let mut fleet = Fleet {
        cfg,
        invs,
        new_worker,
        router: Router::new(policy, n),
        seats: (0..n)
            .map(|_| Seat {
                pending: Vec::new(),
                crashed: None,
                lost: 0,
            })
            .collect(),
        accepting: vec![true; n],
        placed: IdMap::default(),
        epoch: 0,
        queue: BinaryHeap::new(),
        attempts: IdMap::default(),
        retries: 0,
        events,
    };
    for inv in invs {
        fleet.trace(
            inv.arrival,
            EventKind::Arrival {
                invocation: inv.id,
                function: inv.function,
            },
        );
    }

    // The one fault list, in time order (list order on ties).
    let mut schedule = cfg.faults.clone();
    schedule.sort_by_key(|f| f.at);
    let mut faults = schedule.iter().peekable();
    let mut arrivals = invs.iter().peekable();
    loop {
        let fresh = arrivals.peek().map(|inv| (inv.arrival, inv.id.value()));
        let retry = fleet.queue.peek().map(|Reverse((due, ids))| (*due, ids[0]));
        let next = [fresh, retry].into_iter().flatten().min();
        // A fault takes effect before anything that arrives at its instant.
        if let Some(fault) = faults.next_if(|f| next.is_none_or(|(at, _)| f.at <= at)) {
            fleet.accepting[fault.worker] = false;
            if fault.kind == FaultKind::Crash {
                fleet.crash(fault.worker, fault.at)?;
            }
            continue;
        }
        let Some((at, id)) = next else { break };
        if retry == next {
            let Reverse((_, ids)) = fleet.queue.pop().expect("peeked");
            fleet.dispatch(at, &ids)?;
        } else {
            arrivals.next();
            fleet.dispatch(at, &[id])?;
        }
    }

    // Replay every surviving worker to its end, then merge: each record
    // regains its original arrival, and the re-dispatch gap is charged to
    // scheduling. Ids are dense, so each record goes to the slot of its id.
    let seats = std::mem::take(&mut fleet.seats);
    let survivors: Vec<&[Injection]> = seats
        .iter()
        .filter(|seat| seat.crashed.is_none())
        .map(|seat| seat.pending.as_slice())
        .collect();
    let mut finished = finish_all(new_worker, invs, &survivors, threads).into_iter();
    let mut slots: Vec<Option<FleetRecord>> = vec![None; invs.len()];
    let mut retry_delay_total = SimDuration::ZERO;
    let mut workers: Vec<WorkerReport> = Vec::with_capacity(n);
    let mut engine = EngineStats::default();
    for (w, seat) in seats.into_iter().enumerate() {
        let report = match seat.crashed {
            Some((_, report)) => report,
            None => {
                let (report, stats) = finished.next().expect("one report per survivor");
                engine += stats;
                report
            }
        };
        for rec in &report.records {
            let id = rec.id.value();
            let original = invs[id as usize].arrival;
            // Never inverts: every effective arrival is the original or a
            // later instant `max`ed against it.
            let gap = rec.arrival - original;
            let mut record = *rec;
            record.arrival = original;
            record.latency.scheduling += gap;
            retry_delay_total += gap;
            fleet.trace(
                record.completion,
                EventKind::InvocationComplete {
                    invocation: record.id,
                    batch: None,
                    member: None,
                },
            );
            place(
                &mut slots,
                FleetRecord {
                    record,
                    worker: w,
                    retries: fleet.attempts.get(&id).copied().unwrap_or(0),
                    retry_delay: gap,
                },
            );
        }
        workers.push(WorkerReport {
            worker: w,
            fault: schedule.iter().find(|f| f.worker == w).copied(),
            completed: report.records.len(),
            lost: seat.lost,
            report,
        });
    }
    let records: Vec<FleetRecord> = slots
        .into_iter()
        .map(|slot| slot.expect(EXACTLY_ONCE))
        .collect();
    // Ids are dense in arrival order, so the first record arrived first.
    let first = invs.first().map_or(SimTime::ZERO, |inv| inv.arrival);
    let last = records.iter().map(|r| r.record.completion).max();
    let makespan = last.unwrap_or(first).saturating_duration_since(first);

    Ok((
        FleetReport {
            policy: fleet.router.policy_name(),
            scheduler: cfg.scheduler.name().to_owned(),
            workload: label.to_owned(),
            workers,
            records,
            retries: fleet.retries,
            retry_delay_total,
            makespan,
        },
        fleet.events,
        engine,
    ))
}

const EXACTLY_ONCE: &str = "fleet replay lost or duplicated invocations (exactly-once violated)";

/// Puts `record` in the slot of its fleet id. A slot filled twice, or an id
/// past the workload, breaks exactly-once; a slot left empty is caught when
/// the slots are collected.
fn place(slots: &mut [Option<FleetRecord>], record: FleetRecord) {
    let slot = slots
        .get_mut(record.record.id.value() as usize)
        .expect(EXACTLY_ONCE);
    assert!(slot.replace(record).is_none(), "{EXACTLY_ONCE}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultKind, WorkerFault};
    use crate::routing::RoutingKind;
    use faasbatch_core::policy::run_faasbatch;
    use faasbatch_metrics::sampler::ResourceSampler;
    use faasbatch_schedulers::config::SimConfig;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
    use std::collections::HashMap;

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

    /// One function at 400 invocations/s: every router window is one group.
    fn hot_function_workload() -> Workload {
        cpu_workload(
            &DetRng::new(42),
            &WorkloadConfig {
                total: 4000,
                span: SimDuration::from_secs(10),
                functions: 1,
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

    /// Hour 9 (a peak hour) of the seeded synthetic Azure day, rebased to
    /// its origin and renumbered dense, as the day replay chunks it.
    fn azure_peak_hour() -> Workload {
        use faasbatch_container::ids::InvocationId;
        use faasbatch_trace::stream::{AzureDayConfig, InvocationSource, WorkloadStream};
        let cfg = AzureDayConfig {
            total: 250_000,
            ..AzureDayConfig::default()
        };
        let stream = WorkloadStream::azure_day(&DetRng::new(7), &cfg);
        let registry = stream.registry().clone();
        let origin = SimTime::from_secs(9 * 3_600);
        let hour: Vec<Invocation> = stream
            .filter(|inv| {
                inv.arrival >= origin && inv.arrival < origin + SimDuration::from_secs(3_600)
            })
            .enumerate()
            .map(|(i, inv)| Invocation {
                id: InvocationId::new(i as u64),
                arrival: SimTime::ZERO + (inv.arrival - origin),
                ..inv
            })
            .collect();
        Workload::from_sorted(registry, hour)
    }

    #[test]
    fn a_fleet_hour_keeps_its_standing_timers_off_the_heap() {
        // The CPU completion, the sampler and the window tick are engine
        // alarms; what is left on the heap is image pulls and the like.
        let w = azure_peak_hour();
        let cfg = fleet_cfg(4);
        let policy = RoutingKind::LeastLoaded.build();
        let new = || new_worker(&w, &cfg, "hour");
        let (report, _, engine) = run_fleet_impl(&w, &cfg, policy, "hour", &new, None, 1).unwrap();
        assert_conserved(&w, &report);
        assert!(w.len() > 1_000, "a peak hour: {}", w.len());
        let per_invocation = |count: u64| count as f64 / w.len() as f64;
        assert!(
            per_invocation(engine.heap_pushed) <= 0.05,
            "{} heap pushes per invocation: {engine:?}",
            per_invocation(engine.heap_pushed)
        );
        assert_eq!(engine.stale_skipped, 0, "{engine:?}");
        assert!(per_invocation(engine.executed) > 2.0, "{engine:?}");
    }

    #[test]
    #[should_panic(expected = "exactly-once violated")]
    fn a_record_placed_twice_breaks_exactly_once() {
        let w = small_workload(3);
        let report = run_ok(&w, &fleet_cfg(2), RoutingKind::RoundRobin.build(), "t");
        let mut slots = vec![None; w.len()];
        place(&mut slots, report.records[5].clone());
        place(&mut slots, report.records[5].clone());
    }

    #[test]
    #[should_panic(expected = "exactly-once violated")]
    fn a_record_past_the_workload_breaks_exactly_once() {
        let w = small_workload(3);
        let report = run_ok(&w, &fleet_cfg(2), RoutingKind::RoundRobin.build(), "t");
        let mut slots = vec![None; w.len() - 1];
        place(&mut slots, report.records[w.len() - 1].clone());
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

    /// The reproducer of the splice's time-travel panic: one hot function,
    /// every 200 ms window one group. Worker 0 dies 100 ms into a window it
    /// holds and the re-dispatch delay (20 ms) is shorter than the rest of
    /// that window, so most of the group arrives after `crash + delay`.
    #[test]
    fn late_member_of_a_crashed_group_is_rerouted_never_time_travelled() {
        let w = hot_function_workload();
        let crash_at = SimTime::from_millis(1300);
        let cfg = FleetConfig {
            workers: 2,
            redispatch_delay: SimDuration::from_millis(20),
            faults: vec![WorkerFault {
                worker: 0,
                at: crash_at,
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let report = run_ok(&w, &cfg, RoutingKind::RoundRobin.build(), "cpu");
        assert_conserved(&w, &report);
        let redispatched = crash_at + cfg.redispatch_delay;
        let mut late = 0;
        for (r, inv) in report.records.iter().zip(w.invocations()) {
            assert_eq!(r.record.arrival, inv.arrival, "original arrival restored");
            if r.retries == 0 {
                assert!(r.retry_delay.is_zero());
                continue;
            }
            assert_eq!(r.worker, 1);
            // Re-dispatched at max(arrival, crash + delay): the gap is what
            // is left of the delay when the member arrives, possibly zero.
            assert!(r.retry_delay >= redispatched.saturating_duration_since(inv.arrival));
            assert!(r.record.latency.scheduling >= r.retry_delay);
            late += usize::from(inv.arrival > redispatched);
        }
        assert!(late > 0, "no member arrived after crash + delay");
        assert_eq!(report.workers[0].lost as u64, report.retries);
    }

    /// Retries are routed on the state at re-dispatch time: under
    /// round-robin the retried group lands on the worker the cursor points
    /// at *then* — the live worker after the one that took the last group
    /// placed before the re-dispatch — not wherever the cursor would sit
    /// after the whole trace.
    #[test]
    fn retried_group_takes_the_round_robin_slot_of_its_redispatch_instant() {
        use faasbatch_metrics::events::VecSink;
        let w = small_workload(6);
        let crashed = 1u64;
        let cfg = FleetConfig {
            workers: 3,
            faults: vec![WorkerFault {
                worker: crashed as usize,
                at: SimTime::from_secs(3),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let (report, sink) = run_fleet_traced(
            &w,
            &cfg,
            RoutingKind::RoundRobin.build(),
            "cpu",
            Box::new(VecSink::new()),
        )
        .expect("traced fleet run succeeds");
        let events = sink.as_any().downcast_ref::<VecSink>().expect("vec sink");
        let retried = report
            .records
            .iter()
            .find(|r| r.retries > 0)
            .expect("the crash strands someone");
        let groups: Vec<(u64, &Vec<InvocationId>)> = events
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::GroupFormed {
                    worker, members, ..
                } => Some((*worker, members)),
                _ => None,
            })
            .collect();
        let retry_group = groups
            .iter()
            .rposition(|(_, members)| members.contains(&retried.record.id))
            .expect("the retry was placed");
        let (previous, _) = groups[retry_group - 1];
        let mut expected = (previous + 1) % 3;
        if expected == crashed {
            expected = (expected + 1) % 3;
        }
        assert_eq!(groups[retry_group].0, expected);
        assert_eq!(retried.worker as u64, expected);
        assert_eq!(expected, 0, "pinned for seed 6");
    }

    /// A crashed worker's report ends at the crash: no sample after it, no
    /// more containers than the same worker had in the fault-free run
    /// (routing is identical up to the crash instant), and — dying before
    /// its first cold start lands — less CPU than the bodies it lost would
    /// have burned had they run.
    #[test]
    fn crashed_workers_report_ends_at_the_crash() {
        let w = hot_function_workload();
        let crash_at = SimTime::from_millis(1200);
        let healthy = fleet_cfg(2);
        let faulty = FleetConfig {
            faults: vec![WorkerFault {
                worker: 0,
                at: crash_at,
                kind: FaultKind::Crash,
            }],
            ..healthy.clone()
        };
        let whole = run_ok(&w, &healthy, RoutingKind::RoundRobin.build(), "cpu");
        let cut = run_ok(&w, &faulty, RoutingKind::RoundRobin.build(), "cpu");
        assert_conserved(&w, &cut);
        let lost_work: SimDuration = cut
            .records
            .iter()
            .zip(w.invocations())
            .filter(|(r, _)| r.retries > 0)
            .map(|(_, inv)| inv.work)
            .sum();
        let (whole, cut) = (&whole.workers[0].report, &cut.workers[0].report);
        let last = cut.sampler.samples().last().expect("sampled from t = 0");
        assert!(last.at <= crash_at);
        assert!(crash_at.saturating_duration_since(last.at) <= ResourceSampler::PERIOD);
        assert!(
            cut.records.is_empty(),
            "nothing finishes a cold start by 1.2 s"
        );
        assert!(cut.provisioned_containers <= whole.provisioned_containers);
        assert!(cut.core_seconds < whole.core_seconds);
        assert!(
            cut.core_seconds < lost_work.as_secs_f64(),
            "{} core-seconds charged, but the lost bodies ({lost_work}) never ran",
            cut.core_seconds
        );
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
            sim: SimConfig {
                autoscaler: Some(AutoscalerConfig::default()),
                ..SimConfig::default()
            },
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

    /// Every result is the same at any thread count: four policies × both
    /// worker schedulers × {fault-free, a crash with late members, a drain,
    /// an autoscaled config}, at 1, 2, 3 and workers + 2 threads. The
    /// fleet events are compared as the loop and the merge produced them,
    /// before `run_fleet_traced` sorts them.
    #[test]
    fn every_result_is_independent_of_the_thread_count() {
        use faasbatch_metrics::autoscaler::AutoscalerConfig;
        // Two hot functions, so each 200 ms window is a group of ~40.
        let w = cpu_workload(
            &DetRng::new(12),
            &WorkloadConfig {
                total: 600,
                span: SimDuration::from_secs(3),
                functions: 2,
                ..WorkloadConfig::default()
            },
        );
        let crash_at = SimTime::from_millis(1_300);
        let fault = |worker, kind| WorkerFault {
            worker,
            at: crash_at,
            kind,
        };
        let autoscaled = SimConfig {
            autoscaler: Some(AutoscalerConfig::default()),
            ..SimConfig::default()
        };
        let workers = 3;
        let mut late = 0;
        for scheduler in [
            WorkerScheduler::FaasBatch(Default::default()),
            WorkerScheduler::Vanilla,
        ] {
            let base = FleetConfig {
                workers,
                scheduler,
                redispatch_delay: SimDuration::from_millis(20),
                ..FleetConfig::default()
            };
            let scenarios = [
                base.clone(),
                FleetConfig {
                    faults: vec![fault(0, FaultKind::Crash)],
                    ..base.clone()
                },
                FleetConfig {
                    faults: vec![fault(1, FaultKind::Drain)],
                    ..base.clone()
                },
                FleetConfig {
                    sim: autoscaled.clone(),
                    ..base.clone()
                },
            ];
            for cfg in &scenarios {
                for kind in RoutingKind::ALL {
                    let new = || new_worker(&w, cfg, "threads");
                    let run = |threads| {
                        let (report, events, _) = run_fleet_impl(
                            &w,
                            cfg,
                            kind.build(),
                            "threads",
                            &new,
                            Some(Vec::new()),
                            threads,
                        )
                        .expect("fleet run succeeds");
                        (report, events.expect("traced"))
                    };
                    let (one, one_events) = run(1);
                    assert_conserved(&w, &one);
                    late += one
                        .records
                        .iter()
                        .filter(|r| r.retries > 0 && r.record.arrival > crash_at)
                        .count();
                    for threads in [2, 3, workers + 2] {
                        let (report, events) = run(threads);
                        let case = format!("{}, {threads} threads: {cfg:?}", kind.name());
                        assert!(report == one, "{case}: reports differ");
                        assert!(events == one_events, "{case}: event streams differ");
                    }
                }
            }
        }
        assert!(
            late > 0,
            "no member of a crashed group arrived after the crash"
        );
    }

    /// A policy that accepts every arrival and dispatches none.
    struct Dropper;

    impl faasbatch_schedulers::policy::Policy for Dropper {
        fn name(&self) -> String {
            "dropper".to_owned()
        }

        fn on_arrival(
            &mut self,
            _ctx: &mut faasbatch_schedulers::policy::Ctx<'_>,
            _invocation: &Invocation,
        ) {
        }
    }

    /// A worker replayed on a helper thread that stalls panics the replay
    /// with the harness's own message, not the scope's generic one. The
    /// barrier holds each of the two threads at its first worker until the
    /// other has taken one, so the helper replays exactly one seat.
    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn a_helper_threads_panic_surfaces_as_its_own() {
        let w = small_workload(3);
        let cfg = fleet_cfg(2);
        let caller = std::thread::current().id();
        let both_started = std::sync::Barrier::new(2);
        let new = || {
            both_started.wait();
            if std::thread::current().id() == caller {
                return new_worker(&w, &cfg, "t");
            }
            let registry = w.registry().clone();
            Worker::new(
                Box::new(Dropper),
                registry,
                SimConfig::default(),
                "t",
                None,
                Box::new(NoopSink),
            )
        };
        let policy = RoutingKind::RoundRobin.build();
        let _ = run_fleet_impl(&w, &cfg, policy, "t", &new, None, 2);
    }

    #[test]
    fn a_fault_past_the_safety_horizon_is_a_typed_error() {
        let w = small_workload(3);
        for (kind, name) in [(FaultKind::Crash, "crash"), (FaultKind::Drain, "drain")] {
            let fault = |at| FleetConfig {
                workers: 2,
                faults: vec![WorkerFault {
                    worker: 1,
                    at,
                    kind,
                }],
                ..FleetConfig::default()
            };
            let last = w.last_arrival();
            let edge = fault(last + Worker::HORIZON);
            assert!(run_fleet(&w, &edge, RoutingKind::RoundRobin.build(), "t").is_ok());
            let beyond = fault(last + Worker::HORIZON + SimDuration::from_micros(1));
            let err = run_fleet(&w, &beyond, RoutingKind::RoundRobin.build(), "t")
                .expect_err("a fault past the horizon is refused");
            let FleetError::InvalidConfig(why) = &err else {
                panic!("expected InvalidConfig, got {err:?}");
            };
            assert!(why.contains(&format!("the {name} of worker 1")), "{why}");
        }
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
