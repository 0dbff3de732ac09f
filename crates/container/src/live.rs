//! Live (real-clock) execution backend.
//!
//! The paper's prototype expands a batched function group inside one Docker
//! container as Python threads. Here a *live container* is a process-local
//! execution domain that runs a batch of real Rust closures — used by the
//! motivation experiments (Fig. 1/4/5), the live platform, and the live
//! examples, where wall-clock behaviour matters and simulated time does not.
//!
//! A batch becomes a task group on the shared work-stealing executor
//! (`faasbatch-exec`, DESIGN.md §14). Jobs are tasks, a `max_parallelism`
//! bound becomes a cpuset pin (the executor-level
//! `cpu_count`/`cpuset_cpus`), and the group-completion barrier replaces a
//! per-batch thread join — one process can keep thousands of invocations in
//! flight on a fixed worker pool.
//!
//! Job panics are contained: a panicking job fails only its own invocation,
//! surfaced as a typed [`JobError`](faasbatch_exec::JobError) in
//! [`LiveContainer::run_batch_reports`], and the batch barrier still
//! resolves.

use faasbatch_exec::{global_executor, Executor, GroupJob, GroupReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-job timing produced by a live batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Delay between batch start and the job starting.
    pub queued: Duration,
    /// Time the job body took.
    pub execution: Duration,
}

/// Result of executing one batch in a live container.
#[derive(Debug, Clone)]
pub struct BatchTiming {
    /// Wall-clock time from batch start until every job finished (the
    /// paper's batch-granularity HTTP response time).
    pub makespan: Duration,
    /// Per-job timings, in job submission order.
    pub jobs: Vec<JobTiming>,
}

impl BatchTiming {
    /// Mean per-job execution time.
    pub fn mean_execution(&self) -> Duration {
        if self.jobs.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.jobs.iter().map(|j| j.execution).sum();
        total / self.jobs.len() as u32
    }
}

/// Execution strategies for a batch of jobs, mirroring Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandMode {
    /// *Sharing*: all jobs expand inside one container as concurrent tasks
    /// (FaaSBatch's inline-parallel strategy).
    Sharing,
    /// *Monopoly*: one (warm) container per job — each job is an isolated
    /// execution domain.
    Monopoly,
}

/// A live, process-local container that executes batches of closures.
///
/// # Examples
///
/// ```
/// use faasbatch_container::live::LiveContainer;
///
/// let container = LiveContainer::new();
/// let timing = container.run_batch(vec![
///     Box::new(|| { std::hint::black_box(40u64 + 2); }),
///     Box::new(|| { std::hint::black_box(40u64 * 2); }),
/// ]);
/// assert_eq!(timing.jobs.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct LiveContainer {
    /// Maximum jobs running at once (`None` = full inline expansion, the
    /// paper's unbounded `cpu_count`).
    max_parallelism: Option<usize>,
    /// Executor override; `None` means the process-wide [`global_executor`].
    executor: Option<Arc<Executor>>,
}

/// A unit of work for the live backend.
pub type Job = Box<dyn FnOnce() + Send>;

impl LiveContainer {
    /// Creates a live container with unbounded expansion.
    pub fn new() -> Self {
        LiveContainer::default()
    }

    /// Creates a live container that runs at most `max` jobs concurrently —
    /// the live analogue of a `cpu_count` restriction: the bound becomes a
    /// cpuset pin of `max` executor workers.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max_parallelism(max: usize) -> Self {
        assert!(max > 0, "parallelism must be positive");
        LiveContainer {
            max_parallelism: Some(max),
            ..LiveContainer::default()
        }
    }

    /// Runs batches on `executor` instead of the process-wide global one
    /// (tests use this for seeded, isolated instances).
    pub fn on_executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The executor this container submits to.
    pub fn executor(&self) -> Arc<Executor> {
        self.executor.clone().unwrap_or_else(global_executor)
    }

    /// Expands `jobs` and blocks until all finish — the inline-parallel
    /// semantics of the paper (the "HTTP request" returns only when the
    /// whole group is done). With a parallelism bound, excess jobs wait
    /// their turn (the wait shows up as `queued`).
    pub fn run_batch(&self, jobs: Vec<Job>) -> BatchTiming {
        let report = self.run_batch_reports(jobs);
        BatchTiming {
            makespan: report.makespan,
            jobs: report
                .jobs
                .iter()
                .map(|j| JobTiming {
                    queued: j.queued,
                    execution: j.execution,
                })
                .collect(),
        }
    }

    /// Like [`LiveContainer::run_batch`] but keeps per-job outcomes: a
    /// panicking job fails only its own invocation — its slot carries a
    /// typed [`JobError::Panicked`](faasbatch_exec::JobError::Panicked)
    /// while the batch barrier still resolves and every other job completes
    /// normally.
    pub fn run_batch_reports(&self, jobs: Vec<Job>) -> GroupReport {
        let executor = self.executor();
        let cpuset = self
            .max_parallelism
            .and_then(|max| executor.pick_cpuset(max));
        let group_jobs: Vec<GroupJob> = jobs.into_iter().map(GroupJob::Blocking).collect();
        executor.submit_group(group_jobs, cpuset).wait()
    }
}

/// Runs `jobs` under the chosen [`ExpandMode`] and reports batch timing.
///
/// Under [`ExpandMode::Sharing`] all jobs run in one [`LiveContainer`];
/// under [`ExpandMode::Monopoly`] each job gets its own container (its own
/// task group on the executor). On a real host both degenerate to the same
/// set of runnable tasks — which is exactly the paper's Fig. 1 observation
/// that the two perform comparably; the difference is the
/// provisioned-container count (and hence memory), which the caller
/// accounts separately.
pub fn run_expanded(mode: ExpandMode, jobs: Vec<Job>) -> BatchTiming {
    match mode {
        ExpandMode::Sharing => LiveContainer::new().run_batch(jobs),
        ExpandMode::Monopoly => {
            let n = jobs.len();
            let batch_start = Instant::now();
            let executor = global_executor();
            // One isolated "container" (task group) per job.
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| executor.submit_group(vec![GroupJob::Blocking(job)], None))
                .collect();
            let mut jobs_out = Vec::with_capacity(n);
            for handle in handles {
                let report = handle.wait();
                jobs_out.push(JobTiming {
                    queued: report.jobs[0].queued,
                    execution: report.jobs[0].execution,
                });
            }
            BatchTiming {
                makespan: batch_start.elapsed(),
                jobs: jobs_out,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn batch_runs_every_job_exactly_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..16)
            .map(|_| {
                let c = counter.clone();
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        let timing = LiveContainer::new().run_batch(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(timing.jobs.len(), 16);
    }

    #[test]
    fn makespan_covers_all_jobs() {
        let jobs: Vec<Job> = (0..4)
            .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(10))) as Job)
            .collect();
        let timing = LiveContainer::new().run_batch(jobs);
        assert!(timing.makespan >= Duration::from_millis(10));
        for j in &timing.jobs {
            assert!(j.execution >= Duration::from_millis(10));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let timing = LiveContainer::new().run_batch(Vec::new());
        assert!(timing.jobs.is_empty());
        assert_eq!(timing.mean_execution(), Duration::ZERO);
    }

    #[test]
    fn jobs_actually_overlap() {
        // With parallel expansion, total makespan of k sleeping jobs is far
        // below the serial sum.
        let jobs: Vec<Job> = (0..8)
            .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(20))) as Job)
            .collect();
        let timing = LiveContainer::new().run_batch(jobs);
        assert!(
            timing.makespan < Duration::from_millis(120),
            "jobs appear to have run serially: {:?}",
            timing.makespan
        );
    }

    #[test]
    fn bounded_parallelism_serializes_excess_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                let in_flight = in_flight.clone();
                let peak = peak.clone();
                Box::new(move || {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        let container = LiveContainer::with_max_parallelism(2);
        let timing = container.run_batch(jobs);
        assert_eq!(timing.jobs.len(), 8);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "parallelism bound violated: {}",
            peak.load(Ordering::SeqCst)
        );
        // 8 jobs × 10 ms at parallelism 2 ⇒ at least ~40 ms.
        assert!(timing.makespan >= Duration::from_millis(35));
    }

    #[test]
    #[should_panic(expected = "parallelism must be positive")]
    fn zero_parallelism_panics() {
        let _ = LiveContainer::with_max_parallelism(0);
    }

    #[test]
    fn monopoly_and_sharing_both_complete() {
        for mode in [ExpandMode::Sharing, ExpandMode::Monopoly] {
            let counter = Arc::new(AtomicU64::new(0));
            let jobs: Vec<Job> = (0..8)
                .map(|_| {
                    let c = counter.clone();
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Job
                })
                .collect();
            let timing = run_expanded(mode, jobs);
            assert_eq!(counter.load(Ordering::SeqCst), 8, "{mode:?}");
            assert_eq!(timing.jobs.len(), 8, "{mode:?}");
        }
    }

    #[test]
    fn panicking_job_fails_only_its_invocation() {
        use faasbatch_exec::JobError;
        let jobs: Vec<Job> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("handler exploded")),
            Box::new(|| std::thread::sleep(Duration::from_millis(2))),
        ];
        let report = LiveContainer::new().run_batch_reports(jobs);
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.failed(), 1);
        assert_eq!(
            report.jobs[1].result,
            Err(JobError::Panicked("handler exploded".to_string()))
        );
        assert!(report.jobs[0].result.is_ok());
        assert!(report.jobs[2].result.is_ok());
    }

    #[test]
    fn mean_execution_averages() {
        let timing = BatchTiming {
            makespan: Duration::from_millis(30),
            jobs: vec![
                JobTiming {
                    queued: Duration::ZERO,
                    execution: Duration::from_millis(10),
                },
                JobTiming {
                    queued: Duration::ZERO,
                    execution: Duration::from_millis(30),
                },
            ],
        };
        assert_eq!(timing.mean_execution(), Duration::from_millis(20));
    }
}
