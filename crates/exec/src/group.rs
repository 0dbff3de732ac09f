//! Task groups: a set of jobs submitted together, one executor task per job.
//!
//! A **group-completion barrier** stands in for a thread join: the
//! submitter can block on [`GroupHandle::wait`], or pass an `on_complete`
//! callback that the last finishing job runs on its own worker. The live
//! platform does not use groups (a batch counts down its own runs); the
//! benchmark's executor drills and this crate's tests do.
//!
//! Jobs come in two shapes ([`GroupJob`]): a **blocking** closure that
//! occupies its worker for the duration (the paper's CPU-bound expanded
//! handler), or an **async future** whose worker is released while it waits
//! (I/O-shaped handlers — this is what lets thousands of invocations stay
//! in flight on a handful of workers).
//!
//! A panicking job fails only its own invocation: the panic is caught at
//! the job boundary, surfaced as a typed [`JobError::Panicked`] in the
//! group's [`GroupReport::failures`], and the barrier still resolves.
//!
//! The barrier only counts. It reads no clock and keeps nothing per job
//! but a failure; callers that want timing stamp it themselves (as the
//! platform's `InvokeOutcome` does). It wakes
//! a condvar only when [`GroupHandle::wait`] is actually blocked on it,
//! so a group nobody waits for costs no wake-up syscall.

use crate::park::lock_unpoisoned;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};

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

/// The resolved barrier: which members failed, and why.
#[derive(Debug, Clone, Default)]
pub struct GroupReport {
    /// `(member index, error)` for every failed member, in completion
    /// order. Empty — and unallocated — when every member succeeded.
    pub failures: Vec<(usize, JobError)>,
}

impl GroupReport {
    /// Number of jobs that failed.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// Callback run by the last finishing job, with the resolved report.
pub type OnComplete = Box<dyn FnOnce(&GroupReport) + Send + 'static>;

struct GroupState {
    /// Members still running; the barrier is resolved at zero.
    remaining: usize,
    on_complete: Option<OnComplete>,
    /// Set by a blocked [`GroupHandle::wait`]; only then does the last
    /// member pay for a condvar wake-up.
    waiting: bool,
    /// Pushed only when a member panics.
    failures: Vec<(usize, JobError)>,
}

/// Shared core of one group; jobs hold an `Arc` to it.
pub(crate) struct GroupCore {
    state: Mutex<GroupState>,
    cvar: Condvar,
}

impl GroupCore {
    /// A barrier over `members` jobs. An empty group is resolved at once,
    /// running `on_complete` on the caller.
    pub(crate) fn new(members: usize, mut on_complete: Option<OnComplete>) -> Arc<Self> {
        if members == 0 {
            if let Some(callback) = on_complete.take() {
                callback(&GroupReport::default());
            }
        }
        Arc::new(GroupCore {
            state: Mutex::new(GroupState {
                remaining: members,
                on_complete,
                waiting: false,
                failures: Vec::new(),
            }),
            cvar: Condvar::new(),
        })
    }

    /// Counts one member down; the last member resolves the barrier, wakes
    /// a blocked waiter if there is one, and runs the `on_complete`
    /// callback on its own worker thread.
    pub(crate) fn complete(&self, index: usize, result: Result<(), JobError>) {
        let (wake, callback) = {
            let mut state = lock_unpoisoned(&self.state);
            if let Err(error) = result {
                state.failures.push((index, error));
            }
            debug_assert!(state.remaining > 0, "more completions than members");
            state.remaining = state.remaining.saturating_sub(1);
            if state.remaining > 0 {
                return;
            }
            let callback = state.on_complete.take().map(|callback| {
                let report = GroupReport {
                    failures: state.failures.clone(),
                };
                (callback, report)
            });
            (std::mem::take(&mut state.waiting), callback)
        };
        if wake {
            self.cvar.notify_all();
        }
        if let Some((callback, report)) = callback {
            callback(&report);
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
        lock_unpoisoned(&self.core.state).remaining == 0
    }

    /// Blocks until the barrier resolves and returns its report.
    pub fn wait(&self) -> GroupReport {
        let mut state = lock_unpoisoned(&self.core.state);
        while state.remaining > 0 {
            state.waiting = true;
            state = self
                .core
                .cvar
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        GroupReport {
            failures: state.failures.clone(),
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
}

impl MemberFuture {
    pub(crate) fn new(job: GroupJob, group: Arc<GroupCore>, index: usize) -> Self {
        MemberFuture {
            job: Some(job),
            group,
            index,
        }
    }
}

impl Future for MemberFuture {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let outcome = match self.job.take() {
            None => return Poll::Ready(()), // completed on an earlier poll
            Some(GroupJob::Blocking(body)) => catch_unwind(AssertUnwindSafe(body)),
            Some(GroupJob::Future(mut body)) => {
                match catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(cx))) {
                    Ok(Poll::Pending) => {
                        self.job = Some(GroupJob::Future(body));
                        return Poll::Pending;
                    }
                    Ok(Poll::Ready(())) => Ok(()),
                    Err(payload) => Err(payload),
                }
            }
        };
        let result = outcome.map_err(|payload| JobError::Panicked(panic_message(payload)));
        self.group.complete(self.index, result);
        Poll::Ready(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, ExecutorConfig};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn empty_group_resolves_immediately() {
        let fired = Arc::new(Mutex::new(false));
        let core = GroupCore::new(0, {
            let fired = Arc::clone(&fired);
            Some(Box::new(move |report: &GroupReport| {
                assert!(report.failures.is_empty());
                *fired.lock().expect("fired lock") = true;
            }))
        });
        let handle = GroupHandle::new(core);
        assert!(handle.is_done());
        assert_eq!(handle.wait().failed(), 0);
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
        core.complete(1, Ok(()));
        assert_eq!(*count.lock().expect("count lock"), 0);
        core.complete(0, Ok(()));
        assert_eq!(*count.lock().expect("count lock"), 1);
        let report = GroupHandle::new(core).wait();
        assert_eq!(report.failed(), 0);
    }

    /// The conditional wake-up must not lose a waiter: one that blocked
    /// before the last member finished is woken, and a `wait` after the
    /// barrier resolved returns without blocking or asking for a wake-up —
    /// on one worker (members run in turn) and on four (they race).
    #[test]
    fn a_blocked_waiter_is_woken_and_a_late_wait_returns_at_once() {
        for workers in [1, 4] {
            let exec = Executor::new(ExecutorConfig {
                workers,
                seed: 42,
                ..ExecutorConfig::default()
            });
            let (release, gate) = mpsc::channel::<()>();
            let jobs = vec![
                GroupJob::blocking(|| {}),
                GroupJob::blocking(move || {
                    gate.recv_timeout(Duration::from_secs(10))
                        .expect("the test releases the gate");
                }),
            ];
            let handle = exec.submit_group(jobs, None);
            let (woken, woken_rx) = mpsc::channel();
            let waiter = {
                let handle = handle.clone();
                std::thread::spawn(move || woken.send(handle.wait().failed()).expect("send"))
            };
            // Open the gate only once the waiter is blocked on the barrier.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !lock_unpoisoned(&handle.core.state).waiting {
                assert!(
                    Instant::now() < deadline,
                    "{workers} worker(s): waiter never blocked"
                );
                std::thread::yield_now();
            }
            release.send(()).expect("gate");
            let failed = woken_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{workers} worker(s): blocked waiter never woken"));
            assert_eq!(failed, 0, "{workers} worker(s)");
            waiter.join().expect("waiter thread");

            assert!(handle.is_done());
            let started = Instant::now();
            assert_eq!(handle.wait().failed(), 0);
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "late wait blocked"
            );
            assert!(
                !lock_unpoisoned(&handle.core.state).waiting,
                "a resolved barrier asks for no wake-up"
            );
            exec.shutdown();
        }
    }
}
