//! The executor: worker threads, scheduling policy, and the public API.
//!
//! Scheduling policy, in the order a worker looks for work:
//!
//! 1. **Own local queue** — the FIFO backlog a refill or a steal left.
//! 2. **Injector refill** — take a batch of up to 128 queued tasks.
//! 3. **Steal** — visit the other workers in a seeded-random order
//!    ([`crate::steal`]) and take the oldest half of one victim's backlog.
//! 4. **Park** — sleep on the per-worker `Parker` (`park`) until new
//!    work is pushed (bounded by a timeout heartbeat).
//!
//! There is one enqueue path: every spawn and every wake, from any thread,
//! pushes to the injector and unparks one sleeper. A local queue is only
//! ever filled by its own worker's refill or steal.
//!
//! Every task may run on any worker. The paper's `cpu_count`-style cap on
//! a group's parallelism is the caller's: the live platform submits a batch
//! as at most [`Executor::workers`] runs.

use crate::group::{GroupCore, GroupHandle, GroupJob, MemberFuture, OnComplete};
use crate::park::{lock_unpoisoned, Parker};
use crate::queue::{Injector, LocalQueue, REFILL_BATCH};
use crate::steal;
use crate::task::{BoxFuture, Schedule, TaskCore};
use crate::timer::{Sleep, TimerWheel};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Environment variable overriding the default worker count (used by CI to
/// stay friendly on 2-vCPU runners).
pub const WORKERS_ENV: &str = "FAASBATCH_EXEC_WORKERS";

/// Number of timer-wheel slots.
const TIMER_SLOTS: usize = 256;

/// Idle-park heartbeat: the upper bound on how long a worker sleeps before
/// re-scanning for stealable work.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Executor construction parameters.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Seed for the randomized steal order (forked per worker through
    /// `simcore`'s `DetRng`, so steal behaviour is reproducible).
    pub seed: u64,
    /// Timer-wheel tick granularity.
    pub timer_tick: Duration,
}

fn default_workers() -> usize {
    if let Ok(raw) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    // Blocking handler bodies park their worker, so oversubscribing small
    // machines is deliberate: 8 workers on a 1-2 vCPU box keeps sleep-heavy
    // batches overlapping, which is what the live tests exercise.
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(8)
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: default_workers(),
            seed: 0xFAA5_BA7C,
            timer_tick: Duration::from_millis(1),
        }
    }
}

/// Point-in-time executor counters, for benches and the `live` CLI.
#[derive(Debug, Clone)]
pub struct ExecutorMetrics {
    /// Worker thread count.
    pub workers: usize,
    /// Tasks currently alive (spawned, not yet completed).
    pub in_flight: usize,
    /// High-water mark of `in_flight` since start (or the last reset).
    pub peak_in_flight: usize,
    /// Total tasks ever spawned.
    pub spawned_total: u64,
    /// Poll invocations per worker.
    pub executed_per_worker: Vec<u64>,
    /// Tasks stolen per (thief) worker.
    pub stolen_per_worker: Vec<u64>,
    /// Times each worker parked (went idle) since start.
    pub parked_per_worker: Vec<u64>,
    /// Current local-queue depth per worker.
    pub queue_depths: Vec<usize>,
    /// Tasks currently waiting in the global injector.
    pub injector_depth: usize,
    /// Entries currently occupying the timer wheel (pending sleeps,
    /// cold-start delays, keep-alive evictions).
    pub timer_occupancy: usize,
    /// Total timers ever scheduled on the wheel.
    pub timer_scheduled_total: u64,
    /// Local-queue overflows shed to the injector. Always 0: every push
    /// lands in the injector, so a local queue never overflows.
    pub shed_total: u64,
}

impl ExecutorMetrics {
    /// Total successful steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.stolen_per_worker.iter().sum()
    }
}

struct WorkerShared {
    queue: LocalQueue,
    parker: Parker,
    executed: AtomicU64,
    stolen: AtomicU64,
    parked: AtomicU64,
}

pub(crate) struct Shared {
    config: ExecutorConfig,
    injector: Injector,
    workers: Vec<WorkerShared>,
    timer: Arc<TimerWheel>,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
    spawned_total: AtomicU64,
    unpark_hint: AtomicUsize,
}

impl Shared {
    fn enqueue(&self, task: Arc<TaskCore>) {
        self.injector.push(task);
        self.unpark_one();
    }

    fn unpark_one(&self) {
        let n = self.workers.len();
        let start = self.unpark_hint.fetch_add(1, Ordering::Relaxed);
        for offset in 0..n {
            if self.workers[(start + offset) % n].parker.unpark() {
                return;
            }
        }
    }

    fn unpark_all(&self) {
        for worker in &self.workers {
            worker.parker.unpark();
        }
    }

    fn next_task(
        &self,
        index: usize,
        rng: &mut faasbatch_simcore::rng::DetRng,
    ) -> Option<Arc<TaskCore>> {
        if let Some(task) = self.workers[index].queue.pop() {
            return Some(task);
        }
        // Refill from the injector in a batch (amortizes the global lock).
        let mut batch = self.injector.pop_batch(REFILL_BATCH);
        if !batch.is_empty() {
            let first = batch.remove(0);
            for task in batch {
                self.workers[index].queue.push(task);
            }
            if !self.injector.is_empty() {
                self.unpark_one();
            }
            return Some(first);
        }
        // Steal: seeded-random victim order, half of one victim's backlog.
        for victim in steal::next_victim_round(rng, index, self.workers.len()) {
            let mut stolen = self.workers[victim].queue.steal();
            if stolen.is_empty() {
                continue;
            }
            self.workers[index]
                .stolen
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
            let first = stolen.remove(0);
            for task in stolen {
                self.workers[index].queue.push(task);
            }
            return Some(first);
        }
        None
    }

    fn worker_loop(self: &Arc<Self>, index: usize) {
        let mut rng = steal::steal_rng(self.config.seed, index);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(task) = self.next_task(index, &mut rng) {
                self.workers[index].executed.fetch_add(1, Ordering::Relaxed);
                // A panic here means a raw spawned future panicked (group
                // jobs catch at the job boundary); contain it to this task.
                if catch_unwind(AssertUnwindSafe(|| task.run())).is_err() {
                    task.abandon();
                }
                continue;
            }
            self.workers[index].parked.fetch_add(1, Ordering::Relaxed);
            self.workers[index].parker.park_timeout(PARK_TIMEOUT, || {
                !self.injector.is_empty()
                    || !self.workers[index].queue.is_empty()
                    || self.shutdown.load(Ordering::Acquire)
            });
        }
    }
}

impl Schedule for Shared {
    fn reschedule(&self, task: Arc<TaskCore>) {
        self.enqueue(task);
    }

    fn task_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A work-stealing executor instance. Most callers share one process-wide
/// instance via [`global_executor`]; tests build their own with a fixed
/// seed and worker count.
pub struct Executor {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    timer_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.shared.workers.len())
            .field("seed", &self.shared.config.seed)
            .finish()
    }
}

impl Executor {
    /// Builds an executor and starts its worker + timer-driver threads.
    pub fn new(config: ExecutorConfig) -> Arc<Executor> {
        let workers = config.workers.max(1);
        let timer = Arc::new(TimerWheel::new(TIMER_SLOTS, config.timer_tick));
        let shared = Arc::new(Shared {
            workers: (0..workers)
                .map(|_| WorkerShared {
                    queue: LocalQueue::default(),
                    parker: Parker::default(),
                    executed: AtomicU64::new(0),
                    stolen: AtomicU64::new(0),
                    parked: AtomicU64::new(0),
                })
                .collect(),
            config,
            injector: Injector::default(),
            timer: Arc::clone(&timer),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
            spawned_total: AtomicU64::new(0),
            unpark_hint: AtomicUsize::new(0),
        });
        let threads = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("faasbatch-exec-{index}"))
                    .spawn(move || shared.worker_loop(index))
                    .expect("spawn executor worker thread")
            })
            .collect();
        let timer_thread = std::thread::Builder::new()
            .name("faasbatch-exec-timer".to_string())
            .spawn(move || timer.driver_loop())
            .expect("spawn executor timer thread");
        Arc::new(Executor {
            shared,
            threads: Mutex::new(threads),
            timer_thread: Mutex::new(Some(timer_thread)),
            stopped: AtomicBool::new(false),
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers.len()
    }

    /// The steal-order seed this executor was built with.
    pub fn seed(&self) -> u64 {
        self.shared.config.seed
    }

    fn spawn_task(&self, future: BoxFuture) {
        let weak: Weak<dyn Schedule> = Arc::downgrade(&self.shared) as Weak<dyn Schedule>;
        let task = TaskCore::new(future, weak);
        self.shared.spawned_total.fetch_add(1, Ordering::Relaxed);
        let now = self.shared.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared.peak_in_flight.fetch_max(now, Ordering::AcqRel);
        task.transition_to_queued();
        self.shared.enqueue(task);
    }

    /// Spawns a detached future.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        self.spawn_task(Box::pin(future));
    }

    /// Submits a job group, one task per job; the returned handle is the
    /// completion barrier. `on_complete`, if any, is run by the last
    /// finishing job with the group's report.
    pub fn submit_group(
        &self,
        jobs: Vec<GroupJob>,
        on_complete: Option<OnComplete>,
    ) -> GroupHandle {
        let core = GroupCore::new(jobs.len(), on_complete);
        let handle = GroupHandle::new(Arc::clone(&core));
        for (index, job) in jobs.into_iter().enumerate() {
            self.spawn_task(Box::pin(MemberFuture::new(job, Arc::clone(&core), index)));
        }
        handle
    }

    /// Runs `callback` after `delay` on the timer-driver thread. Used for
    /// cold-start delays and warm-container keep-alive eviction. A timer
    /// cannot be cancelled; a callback that finds its work gone returns.
    pub fn schedule(&self, delay: Duration, callback: impl FnOnce() + Send + 'static) {
        self.shared.timer.schedule(delay, Box::new(callback));
    }

    /// A leaf future completing after `delay`, driven by the timer wheel.
    pub fn sleep(&self, delay: Duration) -> Sleep {
        Sleep::new(Arc::clone(&self.shared.timer), delay)
    }

    /// Current counters.
    pub fn metrics(&self) -> ExecutorMetrics {
        ExecutorMetrics {
            workers: self.workers(),
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
            peak_in_flight: self.shared.peak_in_flight.load(Ordering::Acquire),
            spawned_total: self.shared.spawned_total.load(Ordering::Acquire),
            executed_per_worker: self
                .shared
                .workers
                .iter()
                .map(|w| w.executed.load(Ordering::Acquire))
                .collect(),
            stolen_per_worker: self
                .shared
                .workers
                .iter()
                .map(|w| w.stolen.load(Ordering::Acquire))
                .collect(),
            parked_per_worker: self
                .shared
                .workers
                .iter()
                .map(|w| w.parked.load(Ordering::Acquire))
                .collect(),
            queue_depths: self.shared.workers.iter().map(|w| w.queue.len()).collect(),
            injector_depth: self.shared.injector.len(),
            timer_occupancy: self.shared.timer.occupancy(),
            timer_scheduled_total: self.shared.timer.scheduled_total(),
            shed_total: 0,
        }
    }

    /// Stops worker and timer threads. Does not drain: callers are expected
    /// to wait on their group barriers first. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.unpark_all();
        self.shared.timer.shutdown();
        for handle in lock_unpoisoned(&self.threads).drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = lock_unpoisoned(&self.timer_thread).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

static GLOBAL: OnceLock<Arc<Executor>> = OnceLock::new();

/// The process-wide shared executor: one pool of workers multiplexing every
/// live batch, sized from [`WORKERS_ENV`] or `available_parallelism()`.
pub fn global_executor() -> Arc<Executor> {
    Arc::clone(GLOBAL.get_or_init(|| Executor::new(ExecutorConfig::default())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupReport, JobError};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Condvar};
    use std::task::Waker;
    use std::time::Instant;

    fn test_executor(workers: usize) -> Arc<Executor> {
        Executor::new(ExecutorConfig {
            workers,
            seed: 42,
            ..ExecutorConfig::default()
        })
    }

    /// Metrics once nothing is in flight. The last member opens the group
    /// barrier — releasing `GroupHandle::wait` — before its task returns and
    /// `Schedule::task_finished` decrements `in_flight`, so a read right
    /// after `wait()` races that decrement; poll for quiescence, bounded.
    fn quiescent_metrics(exec: &Executor) -> ExecutorMetrics {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let metrics = exec.metrics();
            if metrics.in_flight == 0 || Instant::now() >= deadline {
                return metrics;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn spawn_runs_detached_future() {
        let exec = test_executor(2);
        let (tx, rx) = mpsc::channel();
        exec.spawn(async move {
            tx.send(7u32).expect("send");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).expect("recv"), 7);
    }

    #[test]
    fn group_barrier_resolves_with_all_jobs() {
        let exec = test_executor(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<GroupJob> = (0..16)
            .map(|_| {
                let counter = Arc::clone(&counter);
                GroupJob::blocking(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let report = exec.submit_group(jobs, None).wait();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn steal_balances_skewed_submission() {
        // Both workers are held while a backlog is queued from outside the
        // pool, so all of it waits in the injector. Once released, the first
        // worker to look refills the whole backlog (64 < REFILL_BATCH); the
        // other finds the injector empty and can only get work by stealing.
        // Every backlog task holds its worker until two threads have run
        // one, so without a steal the test fails instead of passing late.
        let exec = test_executor(2);
        let (started, holding) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate));
        for _ in 0..2 {
            let (started, gate) = (started.clone(), Arc::clone(&gate));
            exec.spawn(async move {
                started.send(()).expect("send");
                lock_unpoisoned(&gate)
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the test releases the workers");
            });
        }
        for _ in 0..2 {
            holding
                .recv_timeout(Duration::from_secs(5))
                .expect("both workers are held");
        }
        let threads = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let (done, finished) = mpsc::channel();
        for _ in 0..64 {
            let (threads, done) = (Arc::clone(&threads), done.clone());
            exec.spawn(async move {
                let (seen, cvar) = &*threads;
                let mut seen = lock_unpoisoned(seen);
                let me = std::thread::current().id();
                if !seen.contains(&me) {
                    seen.push(me);
                    cvar.notify_all();
                }
                let (seen, _) = cvar
                    .wait_timeout_while(seen, Duration::from_secs(5), |seen| seen.len() < 2)
                    .expect("threads lock");
                done.send(seen.len()).expect("send");
            });
        }
        let queued = exec.metrics();
        assert_eq!(queued.injector_depth, 64, "a spawn from outside the pool");
        assert!(queued.queue_depths.iter().all(|&d| d == 0));
        // One release per held worker.
        release.send(()).expect("release");
        release.send(()).expect("release");
        for _ in 0..64 {
            let seen = finished
                .recv_timeout(Duration::from_secs(10))
                .expect("every backlog task runs");
            assert_eq!(seen, 2, "a backlog task ran before a second worker did");
        }
        let metrics = quiescent_metrics(&exec);
        assert!(
            metrics.total_steals() > queued.total_steals(),
            "one worker's refill must be spread by stealing: {:?}",
            metrics.stolen_per_worker
        );
        assert!(
            metrics.executed_per_worker.iter().all(|&n| n > 0),
            "{:?}",
            metrics.executed_per_worker
        );
    }

    #[test]
    fn waker_is_safe_after_task_completion() {
        let exec = test_executor(2);
        let stash: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let polls = Arc::new(AtomicUsize::new(0));
        let (stash2, polls2) = (Arc::clone(&stash), Arc::clone(&polls));
        let handle = exec.submit_group(
            vec![GroupJob::future(std::future::poll_fn(move |cx| {
                polls2.fetch_add(1, Ordering::SeqCst);
                *stash2.lock().expect("stash") = Some(cx.waker().clone());
                std::task::Poll::Ready(())
            }))],
            None,
        );
        handle.wait();
        let waker = stash.lock().expect("stash").take().expect("waker stashed");
        // The task is done and its future dropped: waking must be a no-op.
        waker.wake_by_ref();
        waker.wake();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(polls.load(Ordering::SeqCst), 1, "completed task re-polled");
        assert_eq!(quiescent_metrics(&exec).in_flight, 0);
    }

    #[test]
    fn panicking_job_fails_only_its_own_invocation() {
        let exec = test_executor(2);
        let siblings_done = Arc::new(AtomicUsize::new(0));
        let sibling = |pause: u64| {
            let done = Arc::clone(&siblings_done);
            GroupJob::blocking(move || {
                std::thread::sleep(Duration::from_millis(pause));
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        let jobs = vec![
            sibling(0),
            GroupJob::blocking(|| panic!("boom")),
            sibling(5),
            sibling(0),
        ];
        // The last member wakes `wait` before it runs `on_complete`, so the
        // callback reports on a channel rather than a counter read later.
        let (fired, callbacks) = mpsc::channel();
        let report = exec
            .submit_group(
                jobs,
                Some(Box::new(move |report: &GroupReport| {
                    fired.send(report.failed()).expect("send");
                })),
            )
            .wait();
        assert_eq!(
            report.failures,
            vec![(1, JobError::Panicked("boom".to_string()))]
        );
        assert_eq!(siblings_done.load(Ordering::SeqCst), 3, "siblings poisoned");
        assert_eq!(
            callbacks.recv_timeout(Duration::from_secs(5)),
            Ok(1),
            "on_complete runs with the report"
        );
        // Running the callback consumed it: its sender is gone, and no
        // second signal ever arrived.
        assert_eq!(
            callbacks.recv_timeout(Duration::from_secs(5)),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "on_complete runs once"
        );
        // The executor is still fully functional afterwards.
        let again = exec.submit_group((0..4).map(|_| GroupJob::blocking(|| {})).collect(), None);
        assert_eq!(again.wait().failed(), 0);
    }

    #[test]
    fn async_sleep_group_holds_hundreds_in_flight_on_two_workers() {
        let exec = test_executor(2);
        let jobs: Vec<GroupJob> = (0..500)
            .map(|_| {
                let exec = Arc::clone(&exec);
                GroupJob::future(async move {
                    exec.sleep(Duration::from_millis(40)).await;
                })
            })
            .collect();
        let started = Instant::now();
        let report = exec.submit_group(jobs, None).wait();
        assert_eq!(report.failed(), 0);
        let metrics = exec.metrics();
        assert!(
            metrics.peak_in_flight >= 400,
            "pending sleeps should pile up in flight, peak {}",
            metrics.peak_in_flight
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "500 overlapping 40 ms sleeps took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn empty_group_is_fine() {
        let exec = test_executor(1);
        let handle = exec.submit_group(Vec::new(), None);
        assert!(handle.is_done());
        assert!(handle.wait().failures.is_empty());
    }

    #[test]
    fn timer_schedule_fires_callback() {
        let exec = test_executor(1);
        let (tx, rx) = mpsc::channel();
        exec.schedule(Duration::from_millis(5), move || {
            tx.send(()).expect("send");
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("timer fired");
    }

    #[test]
    fn on_complete_runs_with_report() {
        let exec = test_executor(2);
        let (tx, rx) = mpsc::channel();
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<GroupJob> = (0..3)
            .map(|_| {
                let ran = Arc::clone(&ran);
                GroupJob::blocking(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let seen = Arc::clone(&ran);
        exec.submit_group(
            jobs,
            Some(Box::new(move |report: &GroupReport| {
                // The callback runs after every member, never before.
                tx.send((seen.load(Ordering::SeqCst), report.failed()))
                    .expect("send");
            })),
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("recv"),
            (3, 0)
        );
    }

    #[test]
    fn metrics_report_parks_depths_and_timer_occupancy() {
        let exec = test_executor(2);
        // A pending sleep occupies the timer wheel while we look.
        let inner = Arc::clone(&exec);
        let handle = exec.submit_group(
            vec![GroupJob::future(async move {
                inner.sleep(Duration::from_millis(50)).await;
            })],
            None,
        );
        std::thread::sleep(Duration::from_millis(15));
        let metrics = exec.metrics();
        assert_eq!(metrics.queue_depths.len(), 2);
        assert_eq!(metrics.parked_per_worker.len(), 2);
        assert!(metrics.timer_scheduled_total >= 1);
        assert!(metrics.timer_occupancy >= 1, "pending sleep should occupy");
        assert!(
            metrics.parked_per_worker.iter().sum::<u64>() >= 1,
            "idle workers park while the sleep is pending"
        );
        handle.wait();
        let after = quiescent_metrics(&exec);
        assert_eq!(after.in_flight, 0);
        assert!(after.queue_depths.iter().all(|&d| d == 0));
        assert_eq!(after.injector_depth, 0);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let exec = test_executor(2);
        exec.submit_group(vec![GroupJob::blocking(|| {})], None)
            .wait();
        exec.shutdown();
        exec.shutdown();
    }
}
