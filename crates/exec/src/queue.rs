//! Task queues: per-worker bounded local deques with a LIFO slot, and the
//! global injector.
//!
//! Layout follows the classic work-stealing shape (cf. tokio/go):
//!
//! - The **LIFO slot** holds the single freshest task pushed by the owning
//!   worker; running it next keeps producer→consumer chains cache-hot.
//! - The **FIFO deque** holds the backlog. The owner pops from the front,
//!   and thieves also steal from the front — oldest-first stealing moves the
//!   coldest work, which is the work least likely to hit the owner's cache.
//! - The deque is **soft-bounded** at [`LOCAL_CAPACITY`]: an owner push past
//!   it sheds the oldest entry to the global injector, so one flooded worker
//!   cannot hoard the whole backlog. A thief takes the oldest half.
//!
//! Everything is a plain mutex-guarded `VecDeque`: this crate forbids
//! `unsafe`, so the lock-free Chase–Lev array is out of reach — but at the
//! batch sizes the live platform sees (tens of tasks per lock hold), the
//! mutex is never the bottleneck and the *topology* (local-first, steal-half,
//! injector refill) is what delivers the scaling.

use crate::park::lock_unpoisoned;
use crate::task::TaskCore;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Soft bound on each worker's FIFO backlog; an owner push past it sheds
/// the oldest entry to the injector.
pub(crate) const LOCAL_CAPACITY: usize = 256;

#[derive(Default)]
struct LocalInner {
    lifo: Option<Arc<TaskCore>>,
    fifo: VecDeque<Arc<TaskCore>>,
}

/// One worker's local queue.
#[derive(Default)]
pub(crate) struct LocalQueue {
    inner: Mutex<LocalInner>,
}

impl LocalQueue {
    /// Push from the owning worker: the task takes the LIFO slot, displacing
    /// any previous occupant to the back of the FIFO deque.
    ///
    /// Returns the oldest backlog entry when the deque exceeds
    /// [`LOCAL_CAPACITY`]; the caller must route it to the injector.
    pub(crate) fn push_owner(&self, task: Arc<TaskCore>) -> Option<Arc<TaskCore>> {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(displaced) = inner.lifo.replace(task) {
            inner.fifo.push_back(displaced);
        }
        if inner.fifo.len() > LOCAL_CAPACITY {
            return inner.fifo.pop_front();
        }
        None
    }

    /// Push from outside the owning worker (injector refill or a steal's
    /// remainder). Goes to the back of the FIFO deque; never shed, because
    /// the caller chose this worker deliberately.
    pub(crate) fn push_remote(&self, task: Arc<TaskCore>) {
        lock_unpoisoned(&self.inner).fifo.push_back(task);
    }

    /// Owner pop: LIFO slot first (freshest), then the front of the deque
    /// (oldest backlog, FIFO fairness).
    pub(crate) fn pop(&self) -> Option<Arc<TaskCore>> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.lifo.take().or_else(|| inner.fifo.pop_front())
    }

    /// Steals the oldest half of the backlog, rounded up. The LIFO slot is
    /// never stolen — it is the owner's cache-locality reserve.
    pub(crate) fn steal(&self) -> Vec<Arc<TaskCore>> {
        let mut inner = lock_unpoisoned(&self.inner);
        let take = inner.fifo.len().div_ceil(2);
        inner.fifo.drain(..take).collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        let inner = lock_unpoisoned(&self.inner);
        inner.lifo.is_none() && inner.fifo.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        let inner = lock_unpoisoned(&self.inner);
        usize::from(inner.lifo.is_some()) + inner.fifo.len()
    }
}

/// The global injector: tasks submitted from outside a worker, and
/// local-queue overflow.
#[derive(Default)]
pub(crate) struct Injector {
    inner: Mutex<VecDeque<Arc<TaskCore>>>,
}

impl Injector {
    pub(crate) fn push(&self, task: Arc<TaskCore>) {
        lock_unpoisoned(&self.inner).push_back(task);
    }

    /// Pop up to `max` tasks for an idle worker to refill its local queue.
    pub(crate) fn pop_batch(&self, max: usize) -> Vec<Arc<TaskCore>> {
        let mut inner = lock_unpoisoned(&self.inner);
        let take = max.max(1).min(inner.len());
        inner.drain(..take).collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.inner).is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Schedule;
    use std::sync::Weak;

    struct Unscheduled;

    impl Schedule for Unscheduled {
        fn reschedule(&self, _task: Arc<TaskCore>) {}
        fn task_finished(&self) {}
    }

    fn tasks(n: usize) -> Vec<Arc<TaskCore>> {
        (0..n)
            .map(|_| TaskCore::new(Box::pin(async {}), Weak::<Unscheduled>::new()))
            .collect()
    }

    fn same(a: &[Arc<TaskCore>], b: &[Arc<TaskCore>]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    /// Owner-pushes `tasks` in order; the last one holds the LIFO slot.
    fn owned(tasks: &[Arc<TaskCore>]) -> LocalQueue {
        let queue = LocalQueue::default();
        for task in tasks {
            assert!(queue.push_owner(Arc::clone(task)).is_none());
        }
        queue
    }

    #[test]
    fn an_owner_push_displaces_the_slot_to_the_back_of_the_fifo() {
        let t = tasks(3);
        let queue = owned(&t);
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert!(same(&order, &[t[2].clone(), t[0].clone(), t[1].clone()]));
    }

    #[test]
    fn a_push_past_the_bound_sheds_the_oldest_backlog_entry() {
        // The slot plus a full backlog, then one more push.
        let t = tasks(LOCAL_CAPACITY + 2);
        let queue = owned(&t[..=LOCAL_CAPACITY]);
        let shed = queue
            .push_owner(Arc::clone(&t[LOCAL_CAPACITY + 1]))
            .expect("the backlog is past its bound");
        assert!(Arc::ptr_eq(&shed, &t[0]));
        assert_eq!(queue.len(), LOCAL_CAPACITY + 1);
    }

    #[test]
    fn steal_takes_the_oldest_half_rounded_up_and_never_the_slot() {
        // Five in the backlog, one in the slot: a thief takes three.
        let t = tasks(6);
        let queue = owned(&t);
        assert!(same(&queue.steal(), &t[..3]));
        assert!(same(&queue.steal(), &t[3..4]));
        assert!(same(&queue.steal(), &t[4..5]));
        assert!(queue.steal().is_empty(), "only the slot is left");
        assert!(Arc::ptr_eq(&queue.pop().expect("the slot"), &t[5]));
    }

    #[test]
    fn len_and_is_empty_count_the_slot() {
        let queue = LocalQueue::default();
        assert!(queue.is_empty());
        assert_eq!(queue.len(), 0);
        let t = tasks(2);
        queue.push_owner(Arc::clone(&t[0]));
        assert!(!queue.is_empty());
        assert_eq!(queue.len(), 1);
        queue.push_owner(Arc::clone(&t[1]));
        assert_eq!(queue.len(), 2);
        queue.pop();
        queue.pop();
        assert!(queue.is_empty());
    }

    #[test]
    fn pop_batch_is_bounded_by_what_the_injector_holds() {
        let injector = Injector::default();
        assert!(injector.pop_batch(4).is_empty());
        let t = tasks(3);
        for task in &t {
            injector.push(Arc::clone(task));
        }
        assert_eq!(injector.len(), 3);
        assert!(same(&injector.pop_batch(0), &t[..1]), "at least one");
        assert!(
            same(&injector.pop_batch(8), &t[1..]),
            "never more than held"
        );
        assert!(injector.is_empty());
    }
}
