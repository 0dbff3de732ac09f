//! Core-granular late binding.
//!
//! Kaffes et al. (arXiv:2111.07226) argue serverless schedulers should
//! operate at *core* granularity and bind work to cores as late as
//! possible: instead of queuing invocations behind a chosen core (or
//! container) at arrival, hold them centrally and commit an invocation
//! to a core only at the instant that core is actually free. Early
//! binding gambles on a queue staying short; late binding never loses
//! that bet, eliminating head-of-line blocking behind long invocations.
//!
//! Here each user-visible core is a run slot. Queued invocations are
//! held in one central FIFO; when a core frees up, the head invocation
//! binds to it and runs as a batch of one pinned to a single core
//! (`cpu_limit = 1.0`), so execution never experiences cross-container
//! CPU contention — the cost shows up as binding wait (the window-wait
//! attribution phase) instead, which is exactly the trade `trace-diff`
//! is built to expose.

use crate::policy::{Ctx, DispatchRequest, ExecMode, Policy};
use faasbatch_container::ids::ContainerId;
use faasbatch_trace::workload::Invocation;
use std::collections::VecDeque;

/// Per-core late binding: invocations bind to a core only when it is free.
///
/// # Examples
///
/// ```
/// use faasbatch_schedulers::late_bind::CoreLateBind;
/// use faasbatch_schedulers::policy::Policy;
///
/// assert_eq!(CoreLateBind::new().name(), "core-late-bind");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreLateBind {
    /// Cores currently free.
    free: usize,
    /// Centrally held invocations not yet bound to any core.
    queue: VecDeque<Invocation>,
}

impl CoreLateBind {
    /// Creates the policy over every user-visible core (machine cores
    /// minus [`crate::config::SimConfig::daemon_cores`], resolved when
    /// the run starts).
    pub fn new() -> Self {
        CoreLateBind::default()
    }

    /// Binds queued invocations to free cores, oldest first. Each bound
    /// invocation is pinned to exactly one core.
    fn bind(&mut self, ctx: &mut Ctx<'_>) {
        while self.free > 0 {
            let Some(invocation) = self.queue.pop_front() else {
                return;
            };
            self.free -= 1;
            let mut request = DispatchRequest::new(vec![invocation], ExecMode::Serial);
            request.cpu_limit = Some(1.0);
            ctx.dispatch(request);
        }
    }
}

impl Policy for CoreLateBind {
    fn name(&self) -> String {
        "core-late-bind".to_owned()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let cfg = ctx.config();
        self.free = ((cfg.cores - cfg.daemon_cores).floor() as usize).max(1);
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, invocation: &Invocation) {
        self.queue.push_back(invocation.clone());
        self.bind(ctx);
    }

    fn on_batch_done(&mut self, ctx: &mut Ctx<'_>, _container: ContainerId) {
        // The core this batch occupied is free; bind the next invocation.
        self.free += 1;
        self.bind(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::harness::run_simulation;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_simcore::time::SimDuration;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

    /// A host whose user-visible cores (machine minus daemon) number `n`.
    fn user_cores(n: usize) -> SimConfig {
        let daemon_cores = SimConfig::default().daemon_cores;
        SimConfig {
            cores: n as f64 + daemon_cores,
            daemon_cores,
            ..SimConfig::default()
        }
    }

    #[test]
    fn completes_small_cpu_workload() {
        let w = cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 40,
                span: SimDuration::from_secs(10),
                functions: 3,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let report = run_simulation(
            Box::new(CoreLateBind::new()),
            &w,
            SimConfig::default(),
            "cpu",
            None,
        );
        assert_eq!(report.records.len(), 40);
        assert!(report.inconsistencies().is_empty());
        assert_eq!(report.scheduler, "core-late-bind");
    }

    #[test]
    fn run_is_deterministic() {
        let w = cpu_workload(
            &DetRng::new(4),
            &WorkloadConfig {
                total: 25,
                span: SimDuration::from_secs(5),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let a = run_simulation(
            Box::new(CoreLateBind::new()),
            &w,
            SimConfig::default(),
            "cpu",
            None,
        );
        let b = run_simulation(
            Box::new(CoreLateBind::new()),
            &w,
            SimConfig::default(),
            "cpu",
            None,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn never_runs_more_batches_than_cores() {
        // Everything arrives at once; with 2 cores at most 2 batches are
        // in flight, so at most 2 containers are ever provisioned.
        let w = cpu_workload(
            &DetRng::new(2),
            &WorkloadConfig {
                total: 20,
                span: SimDuration::from_millis(10),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let report = run_simulation(
            Box::new(CoreLateBind::new()),
            &w,
            user_cores(2),
            "cpu",
            None,
        );
        assert_eq!(report.records.len(), 20);
        assert!(
            report.provisioned_containers <= 2,
            "2 cores provisioned {} containers",
            report.provisioned_containers
        );
    }

    #[test]
    fn binds_in_arrival_order() {
        // Single core: strict FIFO binding means completions follow
        // arrival order exactly.
        let w = cpu_workload(
            &DetRng::new(7),
            &WorkloadConfig {
                total: 12,
                span: SimDuration::from_millis(50),
                functions: 2,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let report = run_simulation(
            Box::new(CoreLateBind::new()),
            &w,
            user_cores(1),
            "cpu",
            None,
        );
        let mut records = report.records.clone();
        records.sort_by_key(|r| r.completion);
        let ids: Vec<_> = records.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "single-core late binding must be FIFO");
    }
}
