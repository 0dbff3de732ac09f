//! The dispatch-window queue: the one place a window is collected.
//!
//! A deliberately simple, `unsafe`-free swap-drain design: producers push
//! under a mutex, and at the dispatch-window boundary the one window thread
//! swaps the queue's buffer for an empty spare of its own — O(1) under the
//! lock, whatever the window holds — and groups the drained buffer outside
//! it. Both buffers keep their capacity, so a steady load drains without
//! allocating. Job pushes never signal the condvar — the window thread
//! wakes at the deadline anyway, so the hot ingress path is one lock + one
//! `VecDeque` push. Only control messages (flush) and shutdown wake it
//! early.
//!
//! Both front doors run on it: [`FaasBatchPlatform::invoke`] pushes into one
//! unbounded-depth queue, each gateway shard into a depth-bounded one, and
//! both serve it with [`WindowQueue::run`] — collect a window, group it per
//! function (the Invoke Mapper), hand the whole window's groups to the
//! caller's dispatch in one call. One call per window, not per group, is
//! what lets a dispatch core hand each executor worker the window as one
//! run list instead of a task per group. Grouping is [`WindowGroups`], the
//! one the simulator's Invoke Mapper uses: no map is built per window.
//!
//! Admission control lives here: [`WindowQueue::try_push_job`] refuses the
//! push once a window has accumulated `depth` jobs, returning the observed
//! depth so the gateway can surface a typed `Rejected` outcome — saturation
//! is an error value, never a panic or an unbounded buffer.
//!
//! [`FaasBatchPlatform::invoke`]: crate::platform::FaasBatchPlatform::invoke

use crate::platform::RemoteJob;
use faasbatch_simcore::group::WindowGroups;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

enum Msg {
    /// An admitted invocation, tagged with its function registry index.
    Job { function: usize, job: RemoteJob },
    /// A flush marker: acknowledged once everything queued before it has
    /// been dispatched.
    Flush(SyncSender<()>),
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue already holds `depth` undrained jobs this window.
    Full {
        /// Queue depth observed at the refusal.
        depth: usize,
    },
    /// The queue is closed: its owner is shutting down.
    Closed,
}

struct Inner {
    queue: VecDeque<Msg>,
    /// Undrained `Job` entries (the admission-controlled population;
    /// `Flush` markers are exempt so a flush always makes progress).
    jobs: usize,
    /// Undrained `Flush` entries — their presence ends the window early.
    controls: usize,
    closed: bool,
}

/// The dispatch-window queue (see module docs).
pub struct WindowQueue {
    inner: Mutex<Inner>,
    wake: Condvar,
    depth: usize,
}

impl std::fmt::Debug for WindowQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowQueue")
            .field("depth", &self.depth)
            .finish()
    }
}

impl WindowQueue {
    /// An empty queue admitting at most `depth` jobs per window
    /// (`usize::MAX`: unbounded).
    pub fn new(depth: usize) -> WindowQueue {
        WindowQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: 0,
                controls: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("window queue poisoned")
    }

    /// Admits `job` unless the queue is saturated or closed.
    ///
    /// `before_visible` runs under the queue lock after the capacity check
    /// passes and before the job can be drained — the gateway records the
    /// `GatewayEnqueue` event there, so the window thread's `GatewayAdmit`
    /// can never be observed first.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] with the observed depth when `depth` jobs are
    /// already waiting; [`PushError::Closed`] after [`WindowQueue::close`].
    pub fn try_push_job(
        &self,
        function: usize,
        job: RemoteJob,
        before_visible: impl FnOnce(),
    ) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs >= self.depth {
            return Err(PushError::Full { depth: inner.jobs });
        }
        before_visible();
        inner.queue.push_back(Msg::Job { function, job });
        inner.jobs += 1;
        Ok(())
    }

    /// Queues a flush marker and ends the current window early. The
    /// returned channel yields once every job queued before the marker has
    /// been handed to `dispatch` (it disconnects instead if the window
    /// thread is gone).
    pub fn flush(&self) -> Receiver<()> {
        let (ack, done) = sync_channel(1);
        let mut inner = self.lock();
        inner.queue.push_back(Msg::Flush(ack));
        inner.controls += 1;
        drop(inner);
        self.wake.notify_all();
        done
    }

    /// Marks the queue closed and wakes the window thread for its final
    /// drain-and-dispatch pass.
    pub fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Jobs admitted this window and not yet drained — the population the
    /// admission bound counts. Scrape-path only.
    pub fn waiting(&self) -> usize {
        self.lock().jobs
    }

    /// Sleeps until `deadline` (or an early flush/close wake-up), then
    /// drains the whole queue into `drained` (empty on entry) by swapping
    /// buffers, and returns whether the queue has been closed. The messages
    /// stay in arrival order.
    fn collect_window(&self, deadline: Instant, drained: &mut VecDeque<Msg>) -> bool {
        let mut inner = self.lock();
        loop {
            if inner.closed || inner.controls > 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = self
                .wake
                .wait_timeout(inner, deadline - now)
                .expect("window queue poisoned");
            inner = guard;
        }
        inner.jobs = 0;
        inner.controls = 0;
        std::mem::swap(&mut inner.queue, drained);
        inner.closed
    }

    /// The window loop, run by the queue's one window thread until
    /// [`WindowQueue::close`]: every `window`, drain the queue (`admit`
    /// sees each job, in arrival order), call `dispatch` once with the
    /// window's `(function, members)` groups — ascending function order, so
    /// dispatch order is deterministic per window; members in arrival
    /// order; a window with no job is not dispatched — then acknowledge the
    /// flushes that were queued behind those jobs. `dispatch` may drain the
    /// groups it is lent; what it leaves is dropped before the next window.
    /// The pass after `close` still dispatches everything admitted.
    pub fn run(
        &self,
        window: Duration,
        mut admit: impl FnMut(&RemoteJob),
        mut dispatch: impl FnMut(&mut Vec<(usize, Vec<RemoteJob>)>),
    ) {
        let mut deadline = Instant::now() + window;
        // Kept across windows, with their capacity: the spare the queue's
        // buffer is swapped with, and the grouping of the window's jobs.
        let mut drained = VecDeque::new();
        let mut groups = WindowGroups::default();
        loop {
            let closed = self.collect_window(deadline, &mut drained);
            // The next window runs from this drain, not from the end of the
            // dispatch pass below: the pass is inline work on this thread,
            // and the period between drains stays `window`.
            deadline = Instant::now() + window;
            let mut flushes = Vec::new();
            for msg in drained.drain(..) {
                match msg {
                    Msg::Job { function, job } => {
                        admit(&job);
                        groups.push(function, job);
                    }
                    Msg::Flush(ack) => flushes.push(ack),
                }
            }
            if !groups.is_empty() {
                groups.close(&mut dispatch);
            }
            for ack in flushes {
                let _ = ack.send(());
            }
            if closed {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use faasbatch_container::ids::InvocationId;
    use faasbatch_simcore::rng::DetRng;
    use std::collections::BTreeMap;

    fn job(n: u64) -> RemoteJob {
        RemoteJob::new(InvocationId::new(n), Bytes::new()).0
    }

    /// A dispatched window as `(function, invocation ids)` groups.
    fn ids(window: &mut Vec<(usize, Vec<RemoteJob>)>) -> Vec<(usize, Vec<u64>)> {
        window
            .drain(..)
            .map(|(function, members)| {
                let ids = members.iter().map(|j| j.invocation().value()).collect();
                (function, ids)
            })
            .collect()
    }

    #[test]
    fn depth_refusal_returns_the_observed_depth() {
        let queue = WindowQueue::new(2);
        assert_eq!(queue.try_push_job(0, job(0), || {}), Ok(()));
        assert_eq!(queue.try_push_job(1, job(1), || {}), Ok(()));
        let mut ran = false;
        assert_eq!(
            queue.try_push_job(0, job(2), || ran = true),
            Err(PushError::Full { depth: 2 })
        );
        assert!(!ran, "a refused job must not run its visibility hook");
        assert_eq!(queue.waiting(), 2);
        // Draining the window resets the admission count.
        let mut drained = VecDeque::new();
        let closed = queue.collect_window(Instant::now(), &mut drained);
        assert_eq!((drained.len(), closed), (2, false));
        assert_eq!(queue.waiting(), 0);
        assert_eq!(queue.try_push_job(0, job(3), || {}), Ok(()));
    }

    #[test]
    fn window_groups_by_function_in_arrival_order() {
        let queue = WindowQueue::new(usize::MAX);
        for (n, function) in [2usize, 0, 2, 1, 0].into_iter().enumerate() {
            queue.try_push_job(function, job(n as u64), || {}).unwrap();
        }
        queue.close();
        let (mut admitted, mut windows) = (Vec::new(), Vec::new());
        queue.run(
            Duration::from_secs(30),
            |j| admitted.push(j.invocation().value()),
            |window| windows.push(ids(window)),
        );
        assert_eq!(admitted, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            windows,
            vec![vec![(0, vec![1, 4]), (1, vec![3]), (2, vec![0, 2])]],
            "one call for the window; ascending function order, members in arrival order"
        );
    }

    #[test]
    fn flush_ends_the_window_early_and_acks_after_dispatch() {
        let queue = WindowQueue::new(usize::MAX);
        queue.try_push_job(0, job(7), || {}).unwrap();
        let started = Instant::now();
        let mut dispatched = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                queue.run(
                    Duration::from_secs(30),
                    |_| {},
                    |window| dispatched.extend(ids(window)),
                );
            });
            queue.flush().recv().expect("window thread acks the flush");
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "the flush must not wait out the 30 s window"
            );
            queue.close();
        });
        assert_eq!(dispatched, vec![(0, vec![7])]);
    }

    #[test]
    fn close_drains_what_was_admitted_and_refuses_the_rest() {
        let queue = WindowQueue::new(usize::MAX);
        queue.try_push_job(3, job(1), || {}).unwrap();
        queue.close();
        assert_eq!(queue.try_push_job(3, job(2), || {}), Err(PushError::Closed));
        let mut dispatched = Vec::new();
        // Returns without a window thread ever sleeping: closed ends `run`.
        queue.run(
            Duration::from_secs(30),
            |_| {},
            |window| dispatched.extend(ids(window)),
        );
        assert_eq!(dispatched, vec![(3, vec![1])]);
    }

    /// Consecutive windows of seeded random pushes over sparse function ids
    /// (up to ~5,000), each ended by a flush, against a `BTreeMap` grouping
    /// of the same pushes: the same `(function, invocation ids)` groups, in
    /// the same order, one dispatch per non-empty window. A slot index left
    /// stale by one window would merge the next window's members into a
    /// group of the wrong window.
    #[test]
    fn dense_grouping_matches_a_btreemap_over_consecutive_windows() {
        for seed in 0..16 {
            let mut rng = DetRng::new(seed);
            let functions: Vec<usize> = (0..24)
                .map(|_| rng.uniform_u64(0, 5_000) as usize)
                .collect();
            let queue = WindowQueue::new(usize::MAX);
            let (mut expected, mut dispatched) = (Vec::new(), Vec::new());
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    queue.run(
                        Duration::from_secs(3600),
                        |_| {},
                        |window| dispatched.push(ids(window)),
                    );
                });
                let mut next = 0;
                for _ in 0..12 {
                    let mut reference: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                    for _ in 0..rng.uniform_u64(0, 200) {
                        let function =
                            functions[rng.uniform_u64(0, functions.len() as u64) as usize];
                        queue.try_push_job(function, job(next), || {}).unwrap();
                        reference.entry(function).or_default().push(next);
                        next += 1;
                    }
                    queue.flush().recv().expect("window thread acks the flush");
                    if !reference.is_empty() {
                        expected.push(reference.into_iter().collect::<Vec<_>>());
                    }
                }
                queue.close();
            });
            assert_eq!(dispatched, expected, "seed {seed}");
        }
    }
}
