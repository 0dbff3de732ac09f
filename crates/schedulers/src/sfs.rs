//! The SFS baseline (user-space CPU scheduling for serverless functions).
//!
//! SFS ports into this framework as described in §IV: every invocation still
//! gets its own container (its contribution is CPU *scheduling*, not
//! placement), and a user-space scheduler prioritises short functions —
//! "improving the performance of short functions at the expense of
//! increasing the execution time of long functions". SFS perceives function
//! behaviour *while it runs* through adaptive time slices: a task that keeps
//! running keeps getting demoted.
//!
//! We express that with the CPU model's weighted fair sharing plus an aging
//! sweep: a freshly dispatched container starts at high priority (new work
//! is assumed short), and a periodic timer demotes containers the longer
//! their current batch has been executing — a smooth equivalent of
//! multi-level-feedback-queue demotion. The sweep itself burns platform CPU,
//! modelling SFS's scheduler overhead.

use crate::policy::{Ctx, DispatchRequest, ExecMode, Policy};
use faasbatch_container::ids::{ContainerId, FunctionId};
use faasbatch_metrics::latency::InvocationRecord;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::workload::Invocation;
use std::collections::BTreeMap;

/// SFS: per-invocation containers + aging-based short-function priority.
#[derive(Debug, Clone)]
pub struct Sfs {
    /// Containers currently executing, with their batch start time.
    running: BTreeMap<ContainerId, SimTime>,
    /// How often the aging sweep re-weights running containers.
    sweep_period: SimDuration,
    /// Platform CPU burned per dispatch decision (scheduler bookkeeping).
    decision_overhead: SimDuration,
    /// Age at which a task still counts as "short" (first MLFQ level); the
    /// weight decays once execution outlives it.
    short_slice: SimDuration,
    sweeping: bool,
}

impl Default for Sfs {
    fn default() -> Self {
        Sfs {
            running: BTreeMap::new(),
            sweep_period: SimDuration::from_millis(50),
            decision_overhead: SimDuration::from_millis(5),
            short_slice: SimDuration::from_millis(50),
            sweeping: false,
        }
    }
}

impl Sfs {
    /// Aging-sweep timer token.
    const SWEEP: u64 = 1;
    /// Weight of a task within its first slice.
    const HOT_WEIGHT: f64 = 20.0;
    /// Weight floor for long-running tasks.
    const COLD_WEIGHT: f64 = 0.05;

    /// Creates the policy with default parameters.
    pub fn new() -> Self {
        Sfs::default()
    }

    /// Weight for a task that has been executing for `age`: flat and high
    /// within the first slice, then decaying inversely with age (each
    /// doubling of runtime roughly halves priority, like successive MLFQ
    /// demotions).
    fn weight_for_age(&self, age: SimDuration) -> f64 {
        let slice = self.short_slice.as_millis_f64();
        let age_ms = age.as_millis_f64();
        if age_ms <= slice {
            Self::HOT_WEIGHT
        } else {
            (Self::HOT_WEIGHT * slice / age_ms).max(Self::COLD_WEIGHT)
        }
    }

    fn ensure_sweeping(&mut self, ctx: &mut Ctx<'_>) {
        if !self.sweeping {
            self.sweeping = true;
            ctx.set_timer(self.sweep_period, Self::SWEEP);
        }
    }
}

impl Policy for Sfs {
    fn name(&self) -> String {
        "sfs".to_owned()
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, invocation: &Invocation) {
        let mut req = DispatchRequest::new(vec![invocation.clone()], ExecMode::Serial);
        req.group_weight = Self::HOT_WEIGHT;
        req.extra_platform_work = self.decision_overhead;
        ctx.dispatch(req);
        self.ensure_sweeping(ctx);
    }

    fn on_batch_ready(&mut self, _ctx: &mut Ctx<'_>, container: ContainerId, _f: FunctionId) {
        self.running.insert(container, _ctx.now());
    }

    fn on_batch_done(&mut self, _ctx: &mut Ctx<'_>, container: ContainerId) {
        self.running.remove(&container);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        debug_assert_eq!(token, Self::SWEEP);
        let now = ctx.now();
        ctx.set_container_weights(self.running.iter().map(|(&cid, &started)| {
            (
                cid,
                self.weight_for_age(now.saturating_duration_since(started)),
            )
        }));
        if ctx.all_done() {
            self.sweeping = false;
        } else {
            ctx.set_timer(self.sweep_period, Self::SWEEP);
        }
    }

    fn on_invocation_done(&mut self, _ctx: &mut Ctx<'_>, _record: &InvocationRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::harness::run_simulation;
    use crate::vanilla::Vanilla;
    use faasbatch_container::ids::InvocationId;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::function::{FunctionKind, FunctionRegistry};
    use faasbatch_trace::workload::{cpu_workload, Workload, WorkloadConfig};

    #[test]
    fn weight_decays_with_age() {
        let sfs = Sfs::new();
        let young = sfs.weight_for_age(SimDuration::from_millis(10));
        let mid = sfs.weight_for_age(SimDuration::from_millis(200));
        let old = sfs.weight_for_age(SimDuration::from_secs(20));
        assert_eq!(young, Sfs::HOT_WEIGHT);
        assert!(mid < young);
        assert!(old < mid);
        assert!(old >= Sfs::COLD_WEIGHT);
    }

    #[test]
    fn completes_workload_without_queuing() {
        let w = cpu_workload(
            &DetRng::new(5),
            &WorkloadConfig {
                total: 40,
                span: SimDuration::from_secs(10),
                functions: 4,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let report = run_simulation(Box::new(Sfs::new()), &w, SimConfig::default(), "cpu", None);
        assert_eq!(report.records.len(), 40);
        assert!(report.inconsistencies().is_empty());
        assert!(report.records.iter().all(|r| r.latency.queuing.is_zero()));
    }

    /// A saturating two-function workload: a steady stream of very short
    /// invocations competing with long ones. SFS should beat Vanilla on the
    /// short function and lose on the long one — the SFS paper's signature
    /// trade-off.
    fn contended_workload() -> Workload {
        let mut reg = FunctionRegistry::new();
        let short = reg.register("short", FunctionKind::Cpu { fib_n: 22 });
        let long = reg.register("long", FunctionKind::Cpu { fib_n: 33 });
        let mut invs = Vec::new();
        let mut n = 0;
        // 4 long tasks at t=0 …
        for _ in 0..4 {
            invs.push(Invocation {
                id: InvocationId::new(n),
                function: long,
                arrival: SimTime::ZERO,
                work: SimDuration::from_millis(2_000),
            });
            n += 1;
        }
        // … fighting a steady stream of short tasks (8 every 100 ms for
        // 6 s ≈ 1.6 cores of demand on the 4-core host — sustainable, so
        // containers stay warm after the opening wave).
        for round in 0..60u64 {
            for _ in 0..8 {
                invs.push(Invocation {
                    id: InvocationId::new(n),
                    function: short,
                    arrival: SimTime::from_millis(round * 100),
                    work: SimDuration::from_millis(20),
                });
                n += 1;
            }
        }
        Workload::new(reg, invs)
    }

    #[test]
    fn favours_short_functions_under_contention() {
        let w = contended_workload();
        // Light cold starts isolate the CPU-scheduling effect from
        // provisioning turbulence (SFS's contribution is scheduling).
        let cfg = SimConfig {
            cores: 4.0,
            cold_start: faasbatch_container::spec::ColdStartModel::new(
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            ),
            container_launch_work: SimDuration::from_millis(5),
            ..SimConfig::default()
        };
        let sfs = run_simulation(Box::new(Sfs::new()), &w, cfg.clone(), "cpu", None);
        let vanilla = run_simulation(Box::new(Vanilla::new()), &w, cfg, "cpu", None);
        let mean_exec = |report: &faasbatch_metrics::report::RunReport, name: &str| {
            let fid = w
                .registry()
                .iter()
                .find(|(_, p)| p.name == name)
                .map(|(id, _)| id)
                .unwrap();
            // Skip the opening cold-start wave (identical turbulence in both
            // systems) so the steady-state scheduling effect is visible.
            let samples: Vec<SimDuration> = report
                .records
                .iter()
                .filter(|r| r.function == fid && r.arrival >= SimTime::from_secs(2))
                .map(|r| r.latency.execution)
                .collect();
            let all: Vec<SimDuration> = if samples.is_empty() {
                report
                    .records
                    .iter()
                    .filter(|r| r.function == fid)
                    .map(|r| r.latency.execution)
                    .collect()
            } else {
                samples
            };
            faasbatch_metrics::stats::Cdf::from_samples(all).mean()
        };
        let sfs_short = mean_exec(&sfs, "short");
        let van_short = mean_exec(&vanilla, "short");
        let sfs_long = mean_exec(&sfs, "long");
        let van_long = mean_exec(&vanilla, "long");
        assert!(
            sfs_short < van_short,
            "short functions should improve: sfs {sfs_short} vs vanilla {van_short}"
        );
        assert!(
            sfs_long > van_long,
            "long functions should pay: sfs {sfs_long} vs vanilla {van_long}"
        );
    }

    #[test]
    fn sweep_stops_after_completion() {
        // If the sweep timer kept re-arming forever the run would hit the
        // harness horizon; completing is the assertion.
        let w = cpu_workload(
            &DetRng::new(6),
            &WorkloadConfig {
                total: 10,
                span: SimDuration::from_secs(2),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let report = run_simulation(Box::new(Sfs::new()), &w, SimConfig::default(), "cpu", None);
        assert_eq!(report.records.len(), 10);
    }
}
