//! Task queues: per-worker local FIFO deques, and the global injector.
//!
//! Every push lands in the **injector**. An idle worker refills its
//! **local deque** from it in a batch of up to [`REFILL_BATCH`] tasks, and
//! pops that backlog from the front. A worker that finds both empty steals
//! the oldest half of another worker's backlog: oldest-first stealing
//! moves the coldest work, the work least likely to hit the owner's cache,
//! and spreads one worker's refill over the idle ones.
//!
//! Everything is a plain mutex-guarded `VecDeque`: this crate forbids
//! `unsafe`, so the lock-free Chase–Lev array is out of reach — but at the
//! batch sizes the live platform sees (tens of tasks per lock hold), the
//! mutex is never the bottleneck and the *topology* (injector refill,
//! local-first, steal-half) is what delivers the scaling.

use crate::park::lock_unpoisoned;
use crate::task::TaskCore;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Most tasks one injector refill moves to a worker's local queue.
pub(crate) const REFILL_BATCH: usize = 128;

/// One worker's local queue: the backlog of its last refill or steal.
#[derive(Default)]
pub(crate) struct LocalQueue {
    fifo: Mutex<VecDeque<Arc<TaskCore>>>,
}

impl LocalQueue {
    /// Push to the back (an injector refill or a steal's remainder).
    pub(crate) fn push(&self, task: Arc<TaskCore>) {
        lock_unpoisoned(&self.fifo).push_back(task);
    }

    /// Owner pop: the oldest backlog entry (FIFO fairness).
    pub(crate) fn pop(&self) -> Option<Arc<TaskCore>> {
        lock_unpoisoned(&self.fifo).pop_front()
    }

    /// Steals the oldest half of the backlog, rounded up.
    pub(crate) fn steal(&self) -> Vec<Arc<TaskCore>> {
        let mut fifo = lock_unpoisoned(&self.fifo);
        let take = fifo.len().div_ceil(2);
        fifo.drain(..take).collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.fifo).is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.fifo).len()
    }
}

/// The global injector: every spawned, woken or rescheduled task.
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

    /// Pushes `tasks` in order, as a refill does.
    fn filled(tasks: &[Arc<TaskCore>]) -> LocalQueue {
        let queue = LocalQueue::default();
        for task in tasks {
            queue.push(Arc::clone(task));
        }
        queue
    }

    #[test]
    fn steal_takes_the_oldest_half_rounded_up() {
        // Five in the backlog: a thief takes three, then one, then one.
        let t = tasks(5);
        let queue = filled(&t);
        assert!(same(&queue.steal(), &t[..3]));
        assert!(same(&queue.steal(), &t[3..4]));
        assert!(same(&queue.steal(), &t[4..]));
        assert!(queue.steal().is_empty(), "nothing is left");
        // The owner pops what a steal leaves, oldest first.
        let queue = filled(&t);
        queue.steal();
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert!(same(&order, &t[3..]));
    }

    #[test]
    fn len_and_is_empty_count_the_backlog() {
        let queue = LocalQueue::default();
        assert!(queue.is_empty());
        assert_eq!(queue.len(), 0);
        let t = tasks(2);
        queue.push(Arc::clone(&t[0]));
        assert!(!queue.is_empty());
        assert_eq!(queue.len(), 1);
        queue.push(Arc::clone(&t[1]));
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
