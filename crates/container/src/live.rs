//! Live (real-clock) execution backend.
//!
//! The paper's prototype expands a batched function group inside one Docker
//! container as Python threads. Here a batch of real Rust closures is
//! expanded by [`run_expanded`] — used by the motivation experiments
//! (Fig. 1) and the live examples, where wall-clock behaviour matters and
//! simulated time does not.
//!
//! A "container" is a task group on the shared work-stealing executor
//! (`faasbatch-exec`, DESIGN.md §14): jobs are tasks, and the
//! group-completion barrier replaces a per-batch thread join. Job-panic
//! containment is the executor's business and is tested there. Every job
//! is its own task, so a batch runs on as many workers as the executor
//! has. The barrier only counts, so the timing Fig. 1 reports is stamped
//! here, around each job body.

use faasbatch_exec::{global_executor, GroupJob};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-job timing produced by a live batch run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// A unit of work for the live backend.
pub type Job = Box<dyn FnOnce() + Send>;

/// Runs `jobs` under the chosen [`ExpandMode`], blocks until all finish
/// (the "HTTP request" returns only when the whole group is done), and
/// reports batch timing, stamped around each job from the batch start (a
/// job that panics reports zero).
///
/// Under [`ExpandMode::Sharing`] all jobs run in one container (one task
/// group on the executor); under [`ExpandMode::Monopoly`] each job gets its
/// own. On a real host both degenerate to the same set of runnable tasks —
/// which is exactly the paper's Fig. 1 observation that the two perform
/// comparably; the difference is the provisioned-container count (and
/// hence memory), which the caller accounts separately.
///
/// # Examples
///
/// ```
/// use faasbatch_container::live::{run_expanded, ExpandMode};
///
/// let timing = run_expanded(ExpandMode::Sharing, vec![
///     Box::new(|| { std::hint::black_box(40u64 + 2); }),
///     Box::new(|| { std::hint::black_box(40u64 * 2); }),
/// ]);
/// assert_eq!(timing.jobs.len(), 2);
/// ```
pub fn run_expanded(mode: ExpandMode, jobs: Vec<Job>) -> BatchTiming {
    let executor = global_executor();
    let timings = Arc::new(Mutex::new(vec![JobTiming::default(); jobs.len()]));
    let batch_start = Instant::now();
    let jobs = jobs.into_iter().enumerate().map(|(index, job)| {
        let timings = Arc::clone(&timings);
        GroupJob::blocking(move || {
            let started = Instant::now();
            job();
            let timing = JobTiming {
                queued: started - batch_start,
                execution: started.elapsed(),
            };
            timings.lock().unwrap_or_else(PoisonError::into_inner)[index] = timing;
        })
    });
    let handles: Vec<_> = match mode {
        ExpandMode::Sharing => vec![executor.submit_group(jobs.collect(), None)],
        // One isolated "container" (task group) per job.
        ExpandMode::Monopoly => jobs
            .map(|job| executor.submit_group(vec![job], None))
            .collect(),
    };
    for handle in handles {
        handle.wait();
    }
    let makespan = batch_start.elapsed();
    let jobs = std::mem::take(&mut *timings.lock().unwrap_or_else(PoisonError::into_inner));
    BatchTiming { makespan, jobs }
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
        let timing = run_expanded(ExpandMode::Sharing, jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(timing.jobs.len(), 16);
    }

    #[test]
    fn makespan_covers_all_jobs() {
        let jobs: Vec<Job> = (0..4)
            .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(10))) as Job)
            .collect();
        let timing = run_expanded(ExpandMode::Sharing, jobs);
        assert!(timing.makespan >= Duration::from_millis(10));
        for j in &timing.jobs {
            assert!(j.execution >= Duration::from_millis(10));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let timing = run_expanded(ExpandMode::Sharing, Vec::new());
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
        let timing = run_expanded(ExpandMode::Sharing, jobs);
        assert!(
            timing.makespan < Duration::from_millis(120),
            "jobs appear to have run serially: {:?}",
            timing.makespan
        );
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
