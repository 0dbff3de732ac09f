//! Task groups: the executor-level unit a live container's batch maps onto.
//!
//! A group is a set of jobs submitted together, optionally pinned to a
//! [`CpuSet`](crate::CpuSet). A **group-completion barrier** replaces the
//! per-batch thread join of the old live backend: the submitter can block on
//! [`GroupHandle::wait`], or attach an `on_complete` callback that the last
//! finishing job runs (which is how the platform returns containers to the
//! warm pool without dedicating a thread to each batch).
//!
//! Jobs come in two shapes ([`GroupJob`]): a **blocking** closure that
//! occupies its worker for the duration (the paper's CPU-bound expanded
//! handler), or an **async future** whose worker is released while it waits
//! (I/O-shaped handlers — this is what lets thousands of invocations stay
//! in flight on a handful of workers).
//!
//! A panicking job fails only its own invocation: the panic is caught at
//! the job boundary, surfaced as a typed [`JobError::Panicked`] in that
//! job's [`JobReport`], and the barrier still resolves.

use crate::park::lock_unpoisoned;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// A boxed blocking job body.
pub type BlockingJob = Box<dyn FnOnce() + Send + 'static>;

/// A boxed async job body.
pub type FutureJob = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One member job of a group.
pub enum GroupJob {
    /// A blocking closure; occupies its worker until it returns.
    Blocking(BlockingJob),
    /// An async future; the worker is free while it is pending.
    Future(FutureJob),
}

impl GroupJob {
    /// Convenience constructor for a blocking closure.
    pub fn blocking(job: impl FnOnce() + Send + 'static) -> Self {
        GroupJob::Blocking(Box::new(job))
    }

    /// Convenience constructor for an async body.
    pub fn future(job: impl Future<Output = ()> + Send + 'static) -> Self {
        GroupJob::Future(Box::pin(job))
    }
}

impl std::fmt::Debug for GroupJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupJob::Blocking(_) => f.write_str("GroupJob::Blocking"),
            GroupJob::Future(_) => f.write_str("GroupJob::Future"),
        }
    }
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job body panicked; carries the panic message. Only this job's
    /// invocation fails — the rest of the group runs to completion.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job timing and outcome, mirroring the old live backend's `JobTiming`.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Time from group submission until the job first ran.
    pub queued: Duration,
    /// Time the job spent executing (first poll to completion).
    pub execution: Duration,
    /// `Ok` or a typed failure.
    pub result: Result<(), JobError>,
}

/// The resolved barrier: every member's report, in submission order.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Submission-to-last-completion span.
    pub makespan: Duration,
    /// Per-job reports, indexed like the submitted job vector.
    pub jobs: Vec<JobReport>,
}

impl GroupReport {
    /// Number of jobs that failed.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_err()).count()
    }
}

/// Callback run by the last finishing job, with the assembled report.
pub type OnComplete = Box<dyn FnOnce(&GroupReport) + Send + 'static>;

struct GroupState {
    remaining: usize,
    reports: Vec<Option<JobReport>>,
    finished_at: Option<Instant>,
    on_complete: Option<OnComplete>,
}

/// Shared core of one group; jobs hold an `Arc` to it.
pub(crate) struct GroupCore {
    submitted: Instant,
    state: Mutex<GroupState>,
    cvar: Condvar,
}

impl GroupCore {
    pub(crate) fn new(members: usize, on_complete: Option<OnComplete>) -> Arc<Self> {
        let core = Arc::new(GroupCore {
            submitted: Instant::now(),
            state: Mutex::new(GroupState {
                remaining: members,
                reports: (0..members).map(|_| None).collect(),
                finished_at: None,
                on_complete,
            }),
            cvar: Condvar::new(),
        });
        if members == 0 {
            core.resolve_if_empty();
        }
        core
    }

    fn resolve_if_empty(self: &Arc<Self>) {
        let callback = {
            let mut state = lock_unpoisoned(&self.state);
            state.finished_at = Some(Instant::now());
            state.on_complete.take()
        };
        self.cvar.notify_all();
        if let Some(callback) = callback {
            callback(&self.assemble());
        }
    }

    pub(crate) fn submitted_at(&self) -> Instant {
        self.submitted
    }

    /// Records one member's report; the last member resolves the barrier
    /// and runs the `on_complete` callback on its own worker thread.
    pub(crate) fn complete(self: &Arc<Self>, index: usize, report: JobReport) {
        let (finished, callback) = {
            let mut state = lock_unpoisoned(&self.state);
            debug_assert!(state.reports[index].is_none(), "job completed twice");
            state.reports[index] = Some(report);
            state.remaining = state.remaining.saturating_sub(1);
            if state.remaining == 0 {
                state.finished_at = Some(Instant::now());
                (true, state.on_complete.take())
            } else {
                (false, None)
            }
        };
        if finished {
            self.cvar.notify_all();
        }
        if let Some(callback) = callback {
            callback(&self.assemble());
        }
    }

    fn assemble(&self) -> GroupReport {
        let state = lock_unpoisoned(&self.state);
        let finished = state.finished_at.unwrap_or_else(Instant::now);
        GroupReport {
            makespan: finished.duration_since(self.submitted),
            jobs: state
                .reports
                .iter()
                .map(|r| {
                    r.clone().unwrap_or(JobReport {
                        queued: Duration::ZERO,
                        execution: Duration::ZERO,
                        result: Err(JobError::Panicked("job report missing".into())),
                    })
                })
                .collect(),
        }
    }
}

/// Handle to a submitted group: the barrier.
#[derive(Clone)]
pub struct GroupHandle {
    core: Arc<GroupCore>,
}

impl std::fmt::Debug for GroupHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl GroupHandle {
    pub(crate) fn new(core: Arc<GroupCore>) -> Self {
        GroupHandle { core }
    }

    /// Whether every member has completed.
    pub fn is_done(&self) -> bool {
        lock_unpoisoned(&self.core.state).finished_at.is_some()
    }

    /// Blocks until the barrier resolves and returns the assembled report.
    pub fn wait(&self) -> GroupReport {
        let mut state = lock_unpoisoned(&self.core.state);
        while state.finished_at.is_none() {
            state = self
                .core
                .cvar
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        drop(state);
        self.core.assemble()
    }

    /// Non-blocking report fetch; `None` while members are still running.
    pub fn try_report(&self) -> Option<GroupReport> {
        if self.is_done() {
            Some(self.core.assemble())
        } else {
            None
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "job panicked".to_string()
    }
}

/// The future wrapping one member job. Blocking jobs complete in a single
/// poll; async jobs are re-polled on wake with the panic boundary held at
/// every poll.
pub(crate) struct MemberFuture {
    job: Option<GroupJob>,
    group: Arc<GroupCore>,
    index: usize,
    /// First-poll instant; set lazily so `queued` measures real queue time.
    started: Option<Instant>,
}

impl MemberFuture {
    pub(crate) fn new(job: GroupJob, group: Arc<GroupCore>, index: usize) -> Self {
        MemberFuture {
            job: Some(job),
            group,
            index,
            started: None,
        }
    }

    fn finish(&mut self, started: Instant, result: Result<(), JobError>) {
        let report = JobReport {
            queued: started.duration_since(self.group.submitted_at()),
            execution: started.elapsed(),
            result,
        };
        self.group.complete(self.index, report);
    }
}

impl Future for MemberFuture {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let started = *self.started.get_or_insert_with(Instant::now);
        match self.job.take() {
            None => Poll::Ready(()), // completed on an earlier poll
            Some(GroupJob::Blocking(body)) => {
                let outcome = catch_unwind(AssertUnwindSafe(body))
                    .map_err(|payload| JobError::Panicked(panic_message(payload)));
                self.finish(started, outcome);
                Poll::Ready(())
            }
            Some(GroupJob::Future(mut body)) => {
                match catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(cx))) {
                    Ok(Poll::Pending) => {
                        self.job = Some(GroupJob::Future(body));
                        Poll::Pending
                    }
                    Ok(Poll::Ready(())) => {
                        self.finish(started, Ok(()));
                        Poll::Ready(())
                    }
                    Err(payload) => {
                        self.finish(started, Err(JobError::Panicked(panic_message(payload))));
                        Poll::Ready(())
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_group_resolves_immediately() {
        let fired = Arc::new(Mutex::new(false));
        let core = GroupCore::new(0, {
            let fired = Arc::clone(&fired);
            Some(Box::new(move |report: &GroupReport| {
                assert!(report.jobs.is_empty());
                *fired.lock().expect("fired lock") = true;
            }))
        });
        let handle = GroupHandle::new(core);
        assert!(handle.is_done());
        assert_eq!(handle.wait().jobs.len(), 0);
        assert!(*fired.lock().expect("fired lock"));
    }

    #[test]
    fn last_completion_fires_callback_once() {
        let count = Arc::new(Mutex::new(0u32));
        let core = GroupCore::new(2, {
            let count = Arc::clone(&count);
            Some(Box::new(move |_: &GroupReport| {
                *count.lock().expect("count lock") += 1;
            }))
        });
        let ok = || JobReport {
            queued: Duration::ZERO,
            execution: Duration::ZERO,
            result: Ok(()),
        };
        core.complete(1, ok());
        assert_eq!(*count.lock().expect("count lock"), 0);
        core.complete(0, ok());
        assert_eq!(*count.lock().expect("count lock"), 1);
        let report = GroupHandle::new(core).wait();
        assert_eq!(report.failed(), 0);
    }
}
