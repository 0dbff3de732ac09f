//! Hashed timer wheel: deadlines, keep-alive eviction, and the [`Sleep`]
//! leaf future.
//!
//! Insertions hash the absolute deadline tick into a fixed ring of slots
//! (`slot = deadline_ticks % slots`), so `schedule` is O(1) regardless of
//! how far out the deadline lies. Entries carry their absolute tick, so a
//! drain at tick `t` only fires entries whose deadline has actually passed
//! — later "rounds" that hash into the same slot stay put. Ties fire in
//! schedule order via a monotone sequence number, which makes fire order
//! deterministic and testable.
//!
//! A dedicated driver thread sleeps on a condvar until the earliest pending
//! deadline (or a new, earlier `schedule` pokes it), drains due entries,
//! and runs their callbacks. Callbacks are expected to be cheap: wake a
//! task, submit a delayed group, evict a warm container.

use crate::park::lock_unpoisoned;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// A timer callback, run on the driver thread when the deadline passes.
pub(crate) type TimerCallback = Box<dyn FnOnce() + Send + 'static>;

pub(crate) struct TimerEntry {
    deadline_ticks: u64,
    seq: u64,
    callback: TimerCallback,
}

struct DriverState {
    /// Earliest pending deadline the driver should wake for.
    next_wake_tick: Option<u64>,
    shutdown: bool,
}

/// The wheel itself. Shared between the executor (insertions) and the
/// driver thread (drains).
pub(crate) struct TimerWheel {
    slots: Vec<Mutex<Vec<TimerEntry>>>,
    tick: Duration,
    start: Instant,
    seq: AtomicU64,
    driver: Mutex<DriverState>,
    cvar: Condvar,
}

impl TimerWheel {
    /// Total timers ever scheduled (the `seq` mint doubles as the count).
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Entries currently occupying the wheel. Walks every slot lock —
    /// snapshot/scrape cost, not hot-path cost.
    pub(crate) fn occupancy(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| lock_unpoisoned(slot).len())
            .sum()
    }
}

impl TimerWheel {
    pub(crate) fn new(slots: usize, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "timer tick must be positive");
        TimerWheel {
            slots: (0..slots.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            tick,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            driver: Mutex::new(DriverState {
                next_wake_tick: None,
                shutdown: false,
            }),
            cvar: Condvar::new(),
        }
    }

    fn now_ticks(&self) -> u64 {
        let elapsed = self.start.elapsed().as_nanos();
        (elapsed / self.tick.as_nanos().max(1)) as u64
    }

    fn delay_to_deadline(&self, delay: Duration) -> u64 {
        let delay_ticks = delay.as_nanos().div_ceil(self.tick.as_nanos().max(1)) as u64;
        self.now_ticks() + delay_ticks
    }

    /// Schedules `callback` to run after `delay` (rounded up to the tick).
    pub(crate) fn schedule(&self, delay: Duration, callback: TimerCallback) {
        let deadline_ticks = self.delay_to_deadline(delay);
        let entry = TimerEntry {
            deadline_ticks,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            callback,
        };
        let slot = (deadline_ticks % self.slots.len() as u64) as usize;
        lock_unpoisoned(&self.slots[slot]).push(entry);
        // Poke the driver if this deadline is earlier than what it waits on.
        let mut driver = lock_unpoisoned(&self.driver);
        if driver.next_wake_tick.is_none_or(|t| deadline_ticks < t) {
            driver.next_wake_tick = Some(deadline_ticks);
            self.cvar.notify_all();
        }
    }

    /// Removes every entry due at or before `now_ticks`, sorted by
    /// `(deadline, schedule order)`.
    /// Separated from the driver loop so tests can drain deterministically.
    pub(crate) fn drain_due(&self, now_ticks: u64) -> Vec<TimerEntry> {
        let mut due = Vec::new();
        for slot in &self.slots {
            let mut entries = lock_unpoisoned(slot);
            let mut index = 0;
            while index < entries.len() {
                if entries[index].deadline_ticks <= now_ticks {
                    due.push(entries.swap_remove(index));
                } else {
                    index += 1;
                }
            }
        }
        due.sort_by_key(|e| (e.deadline_ticks, e.seq));
        due
    }

    /// Earliest pending deadline across all slots.
    fn min_pending(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|slot| lock_unpoisoned(slot).iter().map(|e| e.deadline_ticks).min())
            .min()
    }

    /// Fires one batch of due entries; callbacks run on the calling thread.
    pub(crate) fn fire(entries: Vec<TimerEntry>) {
        for entry in entries {
            (entry.callback)();
        }
    }

    /// The driver thread body: sleep until the earliest deadline, drain,
    /// fire, repeat. Exits when [`TimerWheel::shutdown`] is called.
    pub(crate) fn driver_loop(&self) {
        let mut driver = lock_unpoisoned(&self.driver);
        loop {
            if driver.shutdown {
                return;
            }
            let now = self.now_ticks();
            match driver.next_wake_tick {
                Some(target) if now >= target => {
                    drop(driver);
                    let due = self.drain_due(now);
                    TimerWheel::fire(due);
                    driver = lock_unpoisoned(&self.driver);
                    // Recompute while holding the driver lock: a concurrent
                    // schedule() either lands in this scan or blocks on the
                    // lock and applies its own (earlier) poke right after —
                    // scanning before re-locking could clobber that poke and
                    // strand its entry until the next unrelated schedule.
                    driver.next_wake_tick = self.min_pending();
                }
                Some(target) => {
                    let wait = self
                        .tick
                        .saturating_mul((target - now) as u32)
                        .max(self.tick);
                    let (next, _timeout) = self
                        .cvar
                        .wait_timeout(driver, wait)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    driver = next;
                }
                None => {
                    driver = self
                        .cvar
                        .wait(driver)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Stops the driver loop.
    pub(crate) fn shutdown(&self) {
        lock_unpoisoned(&self.driver).shutdown = true;
        self.cvar.notify_all();
    }
}

struct SleepState {
    fired: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

/// Leaf future that completes after a wall-clock delay, driven by the
/// executor's timer wheel — the worker is free while the sleep is pending,
/// which is what lets thousands of I/O-shaped invocations stay in flight
/// on a handful of workers.
pub struct Sleep {
    wheel: Arc<TimerWheel>,
    delay: Duration,
    deadline: Instant,
    state: Arc<SleepState>,
    registered: bool,
}

impl Sleep {
    pub(crate) fn new(wheel: Arc<TimerWheel>, delay: Duration) -> Self {
        Sleep {
            wheel,
            delay,
            deadline: Instant::now() + delay,
            state: Arc::new(SleepState {
                fired: AtomicBool::new(false),
                waker: Mutex::new(None),
            }),
            registered: false,
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Publish the waker before checking `fired`: if the timer callback
        // runs in between, it either sees this waker (and wakes us) or we
        // see `fired` (and complete) — never neither.
        *lock_unpoisoned(&self.state.waker) = Some(cx.waker().clone());
        if self.state.fired.load(Ordering::Acquire) || Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            let state = Arc::clone(&self.state);
            let delay = self.delay;
            self.wheel.schedule(
                delay,
                Box::new(move || {
                    state.fired.store(true, Ordering::Release);
                    if let Some(waker) = lock_unpoisoned(&state.waker).take() {
                        waker.wake();
                    }
                }),
            );
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn recording_callback(log: &Arc<Mutex<Vec<u32>>>, id: u32) -> TimerCallback {
        let log = Arc::clone(log);
        Box::new(move || log.lock().expect("log lock").push(id))
    }

    #[test]
    fn drain_fires_in_deadline_then_schedule_order() {
        let wheel = TimerWheel::new(8, Duration::from_millis(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        wheel.schedule(Duration::from_millis(30), recording_callback(&log, 30));
        wheel.schedule(Duration::from_millis(10), recording_callback(&log, 10));
        wheel.schedule(Duration::from_millis(20), recording_callback(&log, 20));
        wheel.schedule(Duration::from_millis(10), recording_callback(&log, 11));
        TimerWheel::fire(wheel.drain_due(1_000));
        assert_eq!(*log.lock().expect("log lock"), vec![10, 11, 20, 30]);
    }

    #[test]
    fn drain_respects_deadlines_not_slots() {
        // 8 slots, 1 ms tick: 3 ms and 11 ms hash to the same slot (3 % 8).
        let wheel = TimerWheel::new(8, Duration::from_millis(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        wheel.schedule(Duration::from_millis(3), recording_callback(&log, 3));
        wheel.schedule(Duration::from_millis(11), recording_callback(&log, 11));
        TimerWheel::fire(wheel.drain_due(5));
        assert_eq!(
            *log.lock().expect("log lock"),
            vec![3],
            "same-slot entry with a later round must not fire early"
        );
        TimerWheel::fire(wheel.drain_due(20));
        assert_eq!(*log.lock().expect("log lock"), vec![3, 11]);
    }

    #[test]
    fn driver_thread_fires_and_shuts_down() {
        let wheel = Arc::new(TimerWheel::new(64, Duration::from_millis(1)));
        let driver = {
            let wheel = Arc::clone(&wheel);
            std::thread::spawn(move || wheel.driver_loop())
        };
        let fired = Arc::new(AtomicUsize::new(0));
        for delay_ms in [5u64, 1, 9] {
            let fired = Arc::clone(&fired);
            wheel.schedule(
                Duration::from_millis(delay_ms),
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 3);
        wheel.shutdown();
        driver.join().expect("driver thread");
    }
}
