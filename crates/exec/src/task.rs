//! The task layer: a minimal `Future`/`Waker` runtime built on
//! [`std::task::Wake`] — no `unsafe`, no vtable hand-rolling.
//!
//! Each spawned future lives in an [`Arc<TaskCore>`]; the `Arc` itself is
//! the waker (via the blanket `From<Arc<W: Wake>> for Waker` impl). A small
//! atomic state machine keeps every transition race-free:
//!
//! ```text
//!        spawn            pop             Ready
//! IDLE ───────▶ QUEUED ───────▶ RUNNING ───────▶ DONE
//!   ▲                              │ ▲
//!   │ Pending (no wake mid-poll)   │ │ wake mid-poll
//!   └──────────────────────────────┘ └──▶ NOTIFIED ──▶ QUEUED (requeue)
//! ```
//!
//! A wake after completion (`DONE`) is a no-op — the future slot has been
//! emptied, so stale wakers held by timers or channels are always safe.

use crate::park::lock_unpoisoned;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};

/// A boxed future as stored inside a task.
pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Scheduling hooks a task needs from its executor. Implemented by
/// `executor::Shared`; a trait keeps the dependency edge one-directional.
pub(crate) trait Schedule: Send + Sync {
    /// Requeue a task that has been woken.
    fn reschedule(&self, task: Arc<TaskCore>);
    /// A task reached `DONE` (completed or abandoned after a panic).
    fn task_finished(&self);
}

/// One spawned task: the future and its scheduling state.
pub(crate) struct TaskCore {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    scheduler: Weak<dyn Schedule>,
}

impl TaskCore {
    /// Creates a task in the `IDLE` state; the caller transitions it to
    /// `QUEUED` via [`TaskCore::transition_to_queued`] before enqueueing.
    pub(crate) fn new(future: BoxFuture, scheduler: Weak<dyn Schedule>) -> Arc<Self> {
        Arc::new(TaskCore {
            future: Mutex::new(Some(future)),
            state: AtomicU8::new(IDLE),
            scheduler,
        })
    }

    /// Marks a freshly created task as queued (pre-enqueue).
    pub(crate) fn transition_to_queued(&self) {
        self.state.store(QUEUED, Ordering::Release);
    }

    /// Polls the task once on the calling worker thread.
    pub(crate) fn run(self: &Arc<Self>) {
        self.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        let completed = {
            let mut slot = lock_unpoisoned(&self.future);
            match slot.as_mut() {
                // Woken after completion: nothing left to poll.
                None => true,
                Some(future) => match future.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        *slot = None;
                        true
                    }
                    Poll::Pending => false,
                },
            }
        };
        if completed {
            let was_done = self.state.swap(DONE, Ordering::AcqRel) == DONE;
            if !was_done {
                if let Some(scheduler) = self.scheduler.upgrade() {
                    scheduler.task_finished();
                }
            }
            return;
        }
        // Pending: return to IDLE unless a wake arrived mid-poll.
        if self
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // NOTIFIED during the poll — requeue immediately.
            self.state.store(QUEUED, Ordering::Release);
            if let Some(scheduler) = self.scheduler.upgrade() {
                scheduler.reschedule(Arc::clone(self));
            }
        }
    }

    /// Tears down a task whose `poll` panicked: the future is dropped and
    /// the task is marked `DONE` so stale wakers become no-ops.
    pub(crate) fn abandon(&self) {
        *lock_unpoisoned(&self.future) = None;
        let was_done = self.state.swap(DONE, Ordering::AcqRel) == DONE;
        if !was_done {
            if let Some(scheduler) = self.scheduler.upgrade() {
                scheduler.task_finished();
            }
        }
    }
}

impl Wake for TaskCore {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(scheduler) = self.scheduler.upgrade() {
                            scheduler.reschedule(Arc::clone(self));
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or done: nothing to do.
                _ => return,
            }
        }
    }
}
