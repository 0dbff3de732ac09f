//! Deterministic discrete-event engine.
//!
//! The engine owns a priority queue of scheduled events. Each event is a
//! handler that receives mutable access to the experiment's *world* state
//! `W` and to the engine itself (so handlers can schedule follow-up
//! events). Ties at equal timestamps are broken by insertion order, which
//! makes runs bit-reproducible.
//!
//! # Hot-path design
//!
//! The heap holds only small `Copy` keys (`time`, `seq`, `slot`); handlers
//! live in a slab of pooled slots with a free list, so steady-state
//! scheduling reuses freed entries instead of heap-allocating per event.
//! A handler has one shape: a `fn` pointer plus a fixed two-word
//! [`EventArg`] payload ([`Engine::schedule_arg_at`]), which carries every
//! identity an event needs (batch ids, container ids, member indices, timer
//! tokens) by value. Nothing is boxed, so scheduling never allocates once
//! the slab has grown to the run's peak.
//!
//! Cancellation is O(1) and allocation-free: each slot is tagged with the
//! owning event's sequence number, so a cancelled or already-executed
//! [`EventId`] simply fails the tag check and its stale heap key is
//! discarded when it reaches the top.
//!
//! # Alarms
//!
//! A standing timer that is re-armed on every step — a completion instant
//! that moves whenever the work under it changes, a periodic sampler —
//! would cost a heap push per re-arm and leave a stale key behind each
//! cancel. Such a timer is an *alarm* instead: a `fn` handler registered
//! once ([`Engine::add_alarm`]) with at most one pending instance, kept in
//! a small array beside the heap. [`Engine::arm`] takes the next sequence
//! number, exactly as a schedule would, and replaces any pending instance;
//! [`Engine::disarm`] drops it. The run loop executes the earliest of the
//! heap's top and the armed alarms by `(time, seq)`, so an alarm runs in
//! exactly the place a cancel-and-reschedule of the same handler would.
//!
//! # Examples
//!
//! ```
//! use faasbatch_simcore::engine::{Engine, EventArg};
//! use faasbatch_simcore::time::SimDuration;
//!
//! fn log(w: &mut Vec<(u64, u64)>, e: &mut Engine<Vec<(u64, u64)>>, arg: EventArg) {
//!     w.push((arg.a, e.now().as_micros()));
//! }
//!
//! let mut engine = Engine::new();
//! let mut world = Vec::new();
//! engine.schedule_arg_in(SimDuration::from_millis(5), log, EventArg::one(7));
//! engine.run(&mut world);
//! assert_eq!(world, vec![(7, 5_000)]);
//! ```

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// Names an alarm registered with [`Engine::add_alarm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlarmId(u32);

/// Fixed two-word payload for [`Engine::schedule_arg_at`] handlers.
///
/// Carrying identities (batch ids, container ids, indices, tokens) by value
/// keeps hot-path events free of boxed captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventArg {
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl EventArg {
    /// Payload with both words set.
    pub const fn new(a: u64, b: u64) -> Self {
        EventArg { a, b }
    }

    /// Payload with only the first word set.
    pub const fn one(a: u64) -> Self {
        EventArg { a, b: 0 }
    }
}

/// Small copyable heap key; the handler lives in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

// Ordering for the max-heap (wrapped in `Reverse` for min-heap behaviour):
// earliest time first, then lowest sequence number. The slot index carries
// no ordering information.
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An event's handler; scheduled events and alarms share the shape.
type Handler<W> = fn(&mut W, &mut Engine<W>, EventArg);

/// One slab entry: either a live handler and its payload, tagged with the
/// owning sequence number, or a link in the free list.
enum SlotEntry<W> {
    Free {
        next_free: u32,
    },
    Live {
        seq: u64,
        handler: Handler<W>,
        arg: EventArg,
    },
}

const NO_FREE_SLOT: u32 = u32::MAX;

/// One registered alarm and its pending instance, if armed.
struct Alarm<W> {
    handler: Handler<W>,
    /// `(time, seq, payload)` of the pending instance.
    armed: Option<(SimTime, u64, EventArg)>,
}

/// Counts of the engine's own work since it was created. They depend only
/// on the calls made, so they repeat exactly from run to run.
///
/// An [`Engine::arm`] counts as scheduled; replacing or disarming a pending
/// alarm counts as cancelled, and a firing as executed. So the events still
/// pending are `scheduled - executed - cancelled` whether they wait on the
/// heap or in an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events scheduled or alarms armed.
    pub scheduled: u64,
    /// Handlers run.
    pub executed: u64,
    /// Events cancelled, and alarm instances replaced or disarmed, before
    /// they ran.
    pub cancelled: u64,
    /// Heap keys of cancelled events discarded when they surfaced.
    pub stale_skipped: u64,
    /// Keys pushed onto the heap: the scheduled events that were not alarm
    /// arms.
    pub heap_pushed: u64,
}

/// Counters of several engines (a fleet's workers) add up field by field.
impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, other: Self) {
        self.scheduled += other.scheduled;
        self.executed += other.executed;
        self.cancelled += other.cancelled;
        self.stale_skipped += other.stale_skipped;
        self.heap_pushed += other.heap_pushed;
    }
}

/// A deterministic discrete-event simulation engine over world state `W`.
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<SlotEntry<W>>,
    free_head: u32,
    stats: EngineStats,
    /// Heap keys popped and run (the rest of `executed` are alarm firings).
    heap_executed: u64,
    alarms: Vec<Alarm<W>>,
    horizon: Option<SimTime>,
}

impl<W> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Creates an engine whose clock starts at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: NO_FREE_SLOT,
            stats: EngineStats::default(),
            heap_executed: 0,
            alarms: Vec::new(),
            horizon: None,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's work counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Stops the run loop once the clock would pass `t`; events at exactly
    /// `t` still execute.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = Some(t);
    }

    /// Claims a slab slot (reusing the free list) and stores `handler` and
    /// `arg` in it.
    fn claim_slot(&mut self, seq: u64, handler: Handler<W>, arg: EventArg) -> u32 {
        if self.free_head != NO_FREE_SLOT {
            let slot = self.free_head;
            let entry = &mut self.slots[slot as usize];
            let SlotEntry::Free { next_free } = *entry else {
                unreachable!("free-list head points at a live slot");
            };
            self.free_head = next_free;
            *entry = SlotEntry::Live { seq, handler, arg };
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NO_FREE_SLOT, "event slab exhausted");
            self.slots.push(SlotEntry::Live { seq, handler, arg });
            slot
        }
    }

    /// Returns `slot` to the free list.
    fn release_slot(&mut self, slot: u32) {
        self.slots[slot as usize] = SlotEntry::Free {
            next_free: self.free_head,
        };
        self.free_head = slot;
    }

    /// Takes the next sequence number for an event at `at`.
    fn next_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.stats.scheduled += 1;
        seq
    }

    /// Schedules a `fn` handler carrying a fixed [`EventArg`] payload at
    /// absolute time `at` — allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_arg_at(&mut self, at: SimTime, handler: Handler<W>, arg: EventArg) -> EventId {
        let seq = self.next_seq(at);
        self.stats.heap_pushed += 1;
        let slot = self.claim_slot(seq, handler, arg);
        self.queue.push(Reverse(HeapKey {
            time: at,
            seq,
            slot,
        }));
        EventId { seq, slot }
    }

    /// Schedules a `fn` handler carrying a fixed [`EventArg`] payload after
    /// `delay` — allocation-free.
    pub fn schedule_arg_in(
        &mut self,
        delay: SimDuration,
        handler: Handler<W>,
        arg: EventArg,
    ) -> EventId {
        self.schedule_arg_at(self.now + delay, handler, arg)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet run (cancellation succeeded).
    /// Cancelling an already-executed or already-cancelled event returns
    /// `false` and is otherwise harmless. O(1): the slot is freed now and
    /// the stale heap key is discarded when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(SlotEntry::Live { seq, .. }) if *seq == id.seq => {
                self.release_slot(id.slot);
                self.stats.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Registers `handler` as an alarm, disarmed. Alarms live as long as
    /// the engine.
    pub fn add_alarm(&mut self, handler: Handler<W>) -> AlarmId {
        self.alarms.push(Alarm {
            handler,
            armed: None,
        });
        AlarmId(self.alarms.len() as u32 - 1)
    }

    /// Arms `alarm` to run its handler with `arg` at `at`, replacing the
    /// pending instance if there is one. The instance takes the next
    /// sequence number, exactly as [`schedule_arg_at`](Self::schedule_arg_at)
    /// would, so it runs where a cancel-and-reschedule would have put it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn arm(&mut self, alarm: AlarmId, at: SimTime, arg: EventArg) {
        let seq = self.next_seq(at);
        let armed = &mut self.alarms[alarm.0 as usize].armed;
        if armed.replace((at, seq, arg)).is_some() {
            self.stats.cancelled += 1;
        }
    }

    /// Drops `alarm`'s pending instance. Returns `true` if one was pending.
    pub fn disarm(&mut self, alarm: AlarmId) -> bool {
        let cancelled = self.alarms[alarm.0 as usize].armed.take().is_some();
        self.stats.cancelled += u64::from(cancelled);
        cancelled
    }

    /// When `alarm`'s pending instance runs; `None` while it is disarmed.
    pub fn armed_at(&self, alarm: AlarmId) -> Option<SimTime> {
        self.alarms[alarm.0 as usize].armed.map(|(at, _, _)| at)
    }

    /// The armed alarm that runs first: its `(time, seq)` and index.
    fn next_alarm(&self) -> Option<((SimTime, u64), usize)> {
        let mut next: Option<((SimTime, u64), usize)> = None;
        for (i, alarm) in self.alarms.iter().enumerate() {
            if let Some((at, seq, _)) = alarm.armed {
                if next.is_none_or(|(first, _)| (at, seq) < first) {
                    next = Some(((at, seq), i));
                }
            }
        }
        next
    }

    /// The heap's first live key, after discarding the stale (cancelled)
    /// keys above it.
    fn live_top(&mut self) -> Option<HeapKey> {
        while let Some(Reverse(key)) = self.queue.peek().copied() {
            if self.key_is_live(&key) {
                return Some(key);
            }
            self.queue.pop();
            self.stats.stale_skipped += 1;
        }
        None
    }

    /// True when `key` still owns its slot (not cancelled, not executed).
    fn key_is_live(&self, key: &HeapKey) -> bool {
        matches!(
            self.slots.get(key.slot as usize),
            Some(SlotEntry::Live { seq, .. }) if *seq == key.seq
        )
    }

    /// Time of the next live event — the heap's or an armed alarm's —
    /// discarding stale (cancelled) heap keys from the top. Ignores the
    /// horizon. `None` when nothing is pending.
    ///
    /// This is the peek a caller driving external arrivals needs: skipping
    /// cancelled keys matters, because a stale key can carry an *earlier*
    /// time than the next real event and would otherwise make the caller
    /// miss its injection window.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let heap = self.live_top().map(|key| key.time);
        let alarm = self.next_alarm().map(|((at, _), _)| at);
        heap.into_iter().chain(alarm).min()
    }

    /// Advances the clock to `t` without executing anything — the hook for
    /// callers that interleave externally sourced work (e.g. streamed
    /// workload arrivals) with queued events.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past, or (debug builds) if a queued live
    /// event would be skipped over.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot advance clock backwards: {t} < {}",
            self.now
        );
        debug_assert!(
            self.next_event_time().is_none_or(|next| next >= t),
            "advance_to({t}) would skip a queued event"
        );
        self.now = t;
    }

    /// Runs events until the queue is empty or the horizon is reached.
    ///
    /// Returns the number of events executed by this call.
    pub fn run(&mut self, world: &mut W) -> u64 {
        let before = self.stats.executed;
        while self.step(world) {}
        self.stats.executed - before
    }

    /// Executes the single next event: the earliest of the heap's top and
    /// the armed alarms, by `(time, seq)`.
    ///
    /// Returns `false` when there is nothing left to do (nothing pending or
    /// horizon reached).
    pub fn step(&mut self, world: &mut W) -> bool {
        // Every key pushed leaves the heap executed or skipped as stale.
        debug_assert_eq!(
            self.queue.len() as u64,
            self.stats.heap_pushed - self.heap_executed - self.stats.stale_skipped
        );
        let top = self.live_top();
        // The first armed alarm, when it runs before the heap's top.
        let alarm = self
            .next_alarm()
            .filter(|&(first, _)| top.is_none_or(|key| first < (key.time, key.seq)));
        let Some(time) = alarm.map(|((at, _), _)| at).or(top.map(|key| key.time)) else {
            return false;
        };
        if self.horizon.is_some_and(|h| time > h) {
            return false;
        }
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.stats.executed += 1;
        if let Some((_, i)) = alarm {
            let alarm = &mut self.alarms[i];
            let (_, _, arg) = alarm.armed.take().expect("the alarm is armed");
            let handler = alarm.handler;
            handler(world, self, arg);
            return true;
        }
        let key = top.expect("the heap's top runs");
        self.queue.pop();
        self.heap_executed += 1;
        let entry = std::mem::replace(
            &mut self.slots[key.slot as usize],
            SlotEntry::Free {
                next_free: self.free_head,
            },
        );
        self.free_head = key.slot;
        let SlotEntry::Live { handler, arg, .. } = entry else {
            unreachable!("live key lost its slot");
        };
        handler(world, self, arg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records the payload's first word.
    fn push(w: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, arg: EventArg) {
        w.push(arg.a);
    }

    /// Records the instant it runs at, in µs.
    fn push_now(w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>, _: EventArg) {
        w.push(e.now().as_micros());
    }

    fn nop<W>(_: &mut W, _: &mut Engine<W>, _: EventArg) {}

    /// Events waiting to run or to surface as stale: armed alarms and heap
    /// keys, including the keys of cancelled events not yet popped.
    fn pending<W>(e: &Engine<W>) -> usize {
        e.queue.len() + e.alarms.iter().filter(|a| a.armed.is_some()).count()
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        e.schedule_arg_at(SimTime::from_millis(30), push, EventArg::one(3));
        e.schedule_arg_at(SimTime::from_millis(10), push, EventArg::one(1));
        e.schedule_arg_at(SimTime::from_millis(20), push, EventArg::one(2));
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            e.schedule_arg_at(t, push, EventArg::one(i));
        }
        e.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_insertion_order_across_handler_kinds() {
        // The two kinds of pending instance: a heap event and an alarm.
        let mut e = Engine::new();
        let mut w = Vec::new();
        let t = SimTime::from_millis(5);
        let alarm = e.add_alarm(push);
        e.schedule_arg_at(t, push, EventArg::one(0));
        e.arm(alarm, t, EventArg::one(1));
        e.schedule_arg_at(t, push, EventArg::one(2));
        e.schedule_arg_at(t, push, EventArg::one(3));
        e.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 3]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        fn tick(w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>, _: EventArg) {
            w.push(e.now().as_micros());
            if w.len() < 4 {
                e.schedule_arg_in(SimDuration::from_millis(1), tick, EventArg::default());
            }
        }
        let mut e = Engine::new();
        let mut w = Vec::new();
        e.schedule_arg_at(SimTime::ZERO, tick, EventArg::default());
        e.run(&mut w);
        assert_eq!(w, vec![0, 1_000, 2_000, 3_000]);
    }

    #[test]
    fn arg_payload_round_trips() {
        fn record(w: &mut Vec<(u64, u64)>, _: &mut Engine<Vec<(u64, u64)>>, arg: EventArg) {
            w.push((arg.a, arg.b));
        }
        let mut e: Engine<Vec<(u64, u64)>> = Engine::new();
        let mut w = Vec::new();
        e.schedule_arg_at(SimTime::from_millis(1), record, EventArg::new(7, 9));
        e.schedule_arg_in(SimDuration::from_millis(2), record, EventArg::one(42));
        e.run(&mut w);
        assert_eq!(w, vec![(7, 9), (42, 0)]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        let id = e.schedule_arg_at(SimTime::from_millis(1), push, EventArg::one(1));
        e.schedule_arg_at(SimTime::from_millis(2), push, EventArg::one(2));
        assert!(e.cancel(id));
        assert!(!e.cancel(id), "double cancel reports false");
        e.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn cancel_executed_id_is_harmless() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        let id = e.schedule_arg_at(SimTime::from_millis(1), push, EventArg::one(1));
        e.run(&mut w);
        assert_eq!(w, vec![1]);
        assert!(!e.cancel(id), "executed events cannot be cancelled");
    }

    #[test]
    fn cancelled_slot_reuse_does_not_resurrect_the_old_event() {
        // Cancel an event, schedule a new one (reusing the slab slot), and
        // make sure only the new one runs — the stale heap key must fail
        // its sequence check even though the slot is live again.
        let mut e = Engine::new();
        let mut w = Vec::new();
        let id = e.schedule_arg_at(SimTime::from_millis(1), push, EventArg::one(1));
        assert!(e.cancel(id));
        e.schedule_arg_at(SimTime::from_millis(2), push, EventArg::one(2));
        assert!(!e.cancel(id), "stale id must not cancel the reused slot");
        e.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        // Steady-state cycle: one event pending at a time. The slab must
        // stay at one slot no matter how many events run.
        fn tick(w: &mut u64, e: &mut Engine<u64>, _: EventArg) {
            *w += 1;
            if *w < 1000 {
                e.schedule_arg_in(SimDuration::from_millis(1), tick, EventArg::default());
            }
        }
        let mut e = Engine::new();
        let mut w = 0u64;
        e.schedule_arg_at(SimTime::ZERO, tick, EventArg::default());
        e.run(&mut w);
        assert_eq!(w, 1000);
        assert_eq!(e.slots.len(), 1, "steady-state scheduling must pool slots");
    }

    #[test]
    fn next_event_time_skips_cancelled_keys() {
        let mut e: Engine<()> = Engine::new();
        let early = e.schedule_arg_at(SimTime::from_millis(1), nop, EventArg::default());
        e.schedule_arg_at(SimTime::from_millis(5), nop, EventArg::default());
        assert_eq!(e.next_event_time(), Some(SimTime::from_millis(1)));
        e.cancel(early);
        // The stale key at 1 ms must not mask the real next event at 5 ms.
        assert_eq!(e.next_event_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn advance_to_moves_the_clock_between_events() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        e.schedule_arg_at(SimTime::from_millis(10), push_now, EventArg::default());
        e.advance_to(SimTime::from_millis(4));
        assert_eq!(e.now(), SimTime::from_millis(4));
        e.run(&mut w);
        assert_eq!(w, vec![10_000]);
    }

    #[test]
    #[should_panic(expected = "cannot advance clock backwards")]
    fn advance_to_rejects_the_past() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_arg_at(SimTime::from_secs(1), nop, EventArg::default());
        e.run(&mut ());
        e.advance_to(SimTime::ZERO);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        e.schedule_arg_at(SimTime::from_secs(1), push, EventArg::one(1));
        e.schedule_arg_at(SimTime::from_secs(3), push, EventArg::one(3));
        e.set_horizon(SimTime::from_secs(2));
        let n = e.run(&mut w);
        assert_eq!(n, 1);
        assert_eq!(w, vec![1]);
        assert_eq!(pending(&e), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_arg_at(SimTime::from_secs(1), nop, EventArg::default());
        e.run(&mut ());
        e.schedule_arg_at(SimTime::ZERO, nop, EventArg::default());
    }

    #[test]
    fn step_returns_false_when_drained() {
        let mut e = Engine::new();
        let mut w = Vec::new();
        e.schedule_arg_at(SimTime::ZERO, push, EventArg::one(1));
        assert!(e.step(&mut w));
        assert!(!e.step(&mut w));
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn executed_counts_across_runs() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_arg_at(SimTime::from_secs(1), nop, EventArg::default());
        e.run(&mut ());
        e.schedule_arg_at(SimTime::from_secs(2), nop, EventArg::default());
        e.run(&mut ());
        assert_eq!(e.stats().executed, 2);
    }

    #[test]
    fn stats_account_for_every_key_on_the_heap() {
        let mut e: Engine<()> = Engine::new();
        let ids: Vec<EventId> = (1..=6)
            .map(|ms| e.schedule_arg_at(SimTime::from_millis(ms), nop, EventArg::default()))
            .collect();
        assert!(e.cancel(ids[0]));
        assert!(e.cancel(ids[3]));
        assert!(!e.cancel(ids[3]), "a failed cancel is not counted");
        let live = |s: EngineStats| s.scheduled - s.executed - s.cancelled;
        let stale = |s: EngineStats| s.cancelled - s.stale_skipped;
        assert_eq!(live(e.stats()), 4);
        assert_eq!(pending(&e) as u64, live(e.stats()) + stale(e.stats()));
        // The peek discards the cancelled key at the top, and only that one.
        assert_eq!(e.next_event_time(), Some(SimTime::from_millis(2)));
        assert_eq!(e.stats().stale_skipped, 1);
        assert_eq!(pending(&e) as u64, live(e.stats()) + stale(e.stats()));
        e.run(&mut ());
        assert_eq!(
            e.stats(),
            EngineStats {
                scheduled: 6,
                executed: 4,
                cancelled: 2,
                stale_skipped: 2,
                heap_pushed: 6,
            }
        );
        assert_eq!(pending(&e), 0);
    }

    #[test]
    fn an_alarm_runs_where_a_reschedule_would_and_counts_as_one() {
        fn log(w: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, arg: EventArg) {
            w.push(arg.a);
        }
        let mut e: Engine<Vec<u64>> = Engine::new();
        let mut w = Vec::new();
        let alarm = e.add_alarm(log);
        let t = SimTime::from_millis(5);
        e.schedule_arg_at(t, log, EventArg::one(0));
        e.arm(alarm, t, EventArg::one(99));
        e.schedule_arg_at(t, log, EventArg::one(2));
        // The re-arm takes a later sequence number, as a reschedule would.
        e.arm(alarm, t, EventArg::one(3));
        assert_eq!(e.armed_at(alarm), Some(t));
        assert_eq!(e.next_event_time(), Some(t));
        assert_eq!(pending(&e), 3);
        e.run(&mut w);
        assert_eq!(w, vec![0, 2, 3]);
        assert_eq!(e.armed_at(alarm), None);
        assert!(!e.disarm(alarm), "a fired alarm is not pending");
        let s = e.stats();
        assert_eq!((s.scheduled, s.executed, s.cancelled), (4, 3, 1));
        assert_eq!((s.heap_pushed, s.stale_skipped), (2, 0));
    }

    #[test]
    fn a_disarmed_alarm_does_not_run_and_the_horizon_holds_an_armed_one() {
        fn bump(w: &mut u32, _: &mut Engine<u32>, _: EventArg) {
            *w += 1;
        }
        let mut e: Engine<u32> = Engine::new();
        let mut w = 0;
        let alarm = e.add_alarm(bump);
        e.arm(alarm, SimTime::from_secs(1), EventArg::default());
        assert!(e.disarm(alarm));
        assert_eq!(e.next_event_time(), None);
        assert!(!e.step(&mut w));
        e.arm(alarm, SimTime::from_secs(3), EventArg::default());
        e.set_horizon(SimTime::from_secs(2));
        assert_eq!(e.run(&mut w), 0);
        assert_eq!((w, pending(&e)), (0, 1));
        assert_eq!(e.stats().cancelled, 1);
    }

    /// The property's alarms: the engine's own, or the reference — heap
    /// events cancelled and rescheduled by hand, as the harness drove its
    /// standing timers before alarms existed.
    enum Timers {
        Alarms(Vec<AlarmId>),
        Heap(Vec<Option<EventId>>),
    }

    struct Prop {
        timers: Timers,
        /// Ids of the plain events scheduled, for the cancel op.
        events: Vec<EventId>,
        /// `(label, now)` of every handler run, in order.
        log: Vec<(u64, SimTime)>,
    }

    const ALARMS: usize = 3;

    /// Payload `b` of an alarm instance: which alarm, and whether its
    /// handler re-arms it `delay − 1` µs later (0: no re-arm).
    fn alarm_arg(label: u64, k: usize, rearm: u64) -> EventArg {
        EventArg::new(label, k as u64 | rearm << 8)
    }

    fn arm(w: &mut Prop, e: &mut Engine<Prop>, k: usize, at: SimTime, arg: EventArg) {
        match &mut w.timers {
            Timers::Alarms(ids) => e.arm(ids[k], at, arg),
            Timers::Heap(ids) => {
                if let Some(id) = ids[k].take() {
                    e.cancel(id);
                }
                ids[k] = Some(e.schedule_arg_at(at, alarm_fired, arg));
            }
        }
    }

    fn disarm(w: &mut Prop, e: &mut Engine<Prop>, k: usize) -> bool {
        match &mut w.timers {
            Timers::Alarms(ids) => e.disarm(ids[k]),
            Timers::Heap(ids) => ids[k].take().is_some_and(|id| e.cancel(id)),
        }
    }

    fn alarm_fired(w: &mut Prop, e: &mut Engine<Prop>, arg: EventArg) {
        let k = (arg.b & 0xff) as usize;
        if let Timers::Heap(ids) = &mut w.timers {
            ids[k] = None;
        }
        w.log.push((arg.a, e.now()));
        let rearm = arg.b >> 8;
        if rearm > 0 {
            let at = e.now() + SimDuration::from_micros(rearm - 1);
            arm(w, e, k, at, alarm_arg(arg.a + 1_000_000, k, 0));
        }
    }

    /// A plain event; `b`, when non-zero, arms alarm `b & 0xff` (minus one)
    /// `b >> 8` µs later from inside the handler, or disarms it when that
    /// is `u64::MAX >> 8`.
    fn event_fired(w: &mut Prop, e: &mut Engine<Prop>, arg: EventArg) {
        w.log.push((arg.a, e.now()));
        if arg.b > 0 {
            let k = (arg.b & 0xff) as usize - 1;
            match arg.b >> 8 {
                u if u == u64::MAX >> 8 => {
                    disarm(w, e, k);
                }
                delay => {
                    let at = e.now() + SimDuration::from_micros(delay);
                    arm(w, e, k, at, alarm_arg(arg.a + 2_000_000, k, 0));
                }
            }
        }
    }

    fn prop_engine(alarms: bool) -> (Engine<Prop>, Prop) {
        let mut e = Engine::new();
        let timers = if alarms {
            Timers::Alarms((0..ALARMS).map(|_| e.add_alarm(alarm_fired)).collect())
        } else {
            Timers::Heap(vec![None; ALARMS])
        };
        let w = Prop {
            timers,
            events: Vec::new(),
            log: Vec::new(),
        };
        (e, w)
    }

    fn counts(s: EngineStats) -> (u64, u64, u64) {
        (s.scheduled, s.executed, s.cancelled)
    }

    use proptest::prelude::*;

    proptest! {
        /// Random sequences of schedule, cancel, arm, re-arm, disarm and
        /// step — delays of a few µs, so most instants are ties — with
        /// alarms re-armed and disarmed from inside handlers and a horizon
        /// set part-way. Alarms and the cancel-and-reschedule reference run
        /// the same handlers in the same order at the same instants, report
        /// the same next event, and count the same scheduled, executed and
        /// cancelled events; the alarms push no heap key and leave none
        /// stale.
        #[test]
        fn alarms_run_as_cancel_and_reschedule_does(
            ops in proptest::collection::vec((0u8..10, 0u32..1_000, 0u32..1_000), 1..200),
        ) {
            let (mut ea, mut wa) = prop_engine(true);
            let (mut er, mut wr) = prop_engine(false);
            let mut label = 0u64;
            let mut plain_cancels = 0;
            for (op, a, b) in ops {
                label += 1;
                let delay = SimDuration::from_micros(u64::from(a % 4));
                let k = b as usize % ALARMS;
                match op {
                    0 | 1 => {
                        // A plain event, half of them touching an alarm.
                        let touch = match b % 4 {
                            0 | 1 => 0,
                            2 => (k as u64 + 1) | u64::from(a % 3) << 8,
                            _ => (k as u64 + 1) | (u64::MAX >> 8) << 8,
                        };
                        for (e, w) in [(&mut ea, &mut wa), (&mut er, &mut wr)] {
                            let at = e.now() + delay;
                            let id = e.schedule_arg_at(at, event_fired, EventArg::new(label, touch));
                            w.events.push(id);
                        }
                    }
                    2 if !wa.events.is_empty() => {
                        let i = b as usize % wa.events.len();
                        let cancelled = ea.cancel(wa.events[i]);
                        prop_assert_eq!(cancelled, er.cancel(wr.events[i]));
                        plain_cancels += u64::from(cancelled);
                    }
                    3 | 4 => {
                        // Arm or re-arm; a third of them re-arm from their
                        // own handler.
                        let rearm = if a % 3 == 0 { u64::from(b % 3) + 1 } else { 0 };
                        for (e, w) in [(&mut ea, &mut wa), (&mut er, &mut wr)] {
                            let at = e.now() + delay;
                            arm(w, e, k, at, alarm_arg(label, k, rearm));
                        }
                    }
                    5 => prop_assert_eq!(disarm(&mut wa, &mut ea, k), disarm(&mut wr, &mut er, k)),
                    6 if a % 8 == 0 => {
                        let at = ea.now() + SimDuration::from_micros(u64::from(b % 20));
                        ea.set_horizon(at);
                        er.set_horizon(at);
                    }
                    _ => prop_assert_eq!(ea.step(&mut wa), er.step(&mut wr)),
                }
                prop_assert_eq!(ea.now(), er.now());
                prop_assert_eq!(&wa.log, &wr.log);
                prop_assert_eq!(ea.next_event_time(), er.next_event_time());
                prop_assert_eq!(counts(ea.stats()), counts(er.stats()));
            }
            loop {
                let (ran_a, ran_r) = (ea.step(&mut wa), er.step(&mut wr));
                prop_assert_eq!(ran_a, ran_r);
                prop_assert_eq!(ea.now(), er.now());
                prop_assert_eq!(&wa.log, &wr.log);
                if !ran_a {
                    break;
                }
            }
            prop_assert_eq!(counts(ea.stats()), counts(er.stats()));
            prop_assert_eq!(ea.stats().heap_pushed as usize, wa.events.len());
            prop_assert!(ea.stats().stale_skipped <= plain_cancels);
        }
    }

    #[test]
    fn world_shared_state_via_rc_works() {
        // The world may be a shared handle; the engine itself stays single
        // threaded and deterministic.
        fn log(
            w: &mut Rc<RefCell<Vec<u64>>>,
            _: &mut Engine<Rc<RefCell<Vec<u64>>>>,
            arg: EventArg,
        ) {
            w.borrow_mut().push(arg.a);
        }
        let log_handle: Rc<RefCell<Vec<u64>>> = Rc::default();
        let mut world = log_handle.clone();
        let mut e = Engine::new();
        e.schedule_arg_at(SimTime::from_millis(2), log, EventArg::one(2));
        e.schedule_arg_at(SimTime::from_millis(1), log, EventArg::one(1));
        e.run(&mut world);
        assert_eq!(*log_handle.borrow(), vec![1, 2]);
    }
}
