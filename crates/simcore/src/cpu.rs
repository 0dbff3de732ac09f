//! Processor-sharing multicore CPU model.
//!
//! The model hosts *tasks* (single-threaded pieces of work, e.g. one function
//! invocation or one container start) grouped into *groups* (containers, or
//! the platform itself). A task demands at most one core; a group may be
//! capped (Docker's `cpu_count` / `cpuset_cpus`). Cores are divided between
//! groups by max-min fairness and equally among a group's tasks, which is the
//! standard first-order model of the Linux completely-fair scheduler at the
//! cgroup level.
//!
//! The model is *passive*: callers [`advance_to`](CpuModel::advance_to) it to
//! accrue progress and ask for [`next_completion`](CpuModel::next_completion)
//! to know when to advance next. The simulation driver owns the event loop.
//!
//! Progress lives on the group, in integers. Every member of a group runs at
//! the same rate, so a group carries one *service clock* — the service each
//! member has received, in ticks of 2⁻³² core·µs — and a member is a finish
//! tag (`clock at arrival + work`) in the group's min-heap. A group's entry
//! in the active list holds the service gained since its clock was last
//! written and the ticks its next finisher still needs; an event writes the
//! clock of a group only if a member arrived in it or finished, and never
//! touches a task that did neither.
//!
//! The host is divided lazily. An arrival, a retirement or a moved weight
//! only marks the division stale; the first read that needs rates (an
//! accrual over elapsed time, [`next_completion`](CpuModel::next_completion),
//! [`busy_cores`](CpuModel::busy_cores), [`task_rate`](CpuModel::task_rate))
//! divides once, however many changes came before it, and that division
//! also finds the earliest completion. Until a clock reaches a tag that
//! instant cannot move, so `next_completion` answers from it and scans the
//! groups again only once the accrual point has reached it. Only the
//! division itself (the weighted water-filling of `water_fill`) is floating
//! point and a pure function of the sorted active list; everything it feeds
//! is integer addition, so no result depends on when the division runs or
//! a clock is written, nor on the order or the grouping of the sums
//! (DESIGN.md §16).
//!
//! # Examples
//!
//! ```
//! use faasbatch_simcore::cpu::CpuModel;
//! use faasbatch_simcore::time::{SimDuration, SimTime};
//!
//! let mut cpu = CpuModel::new(2.0);
//! let g = cpu.create_group(None);
//! let t0 = SimTime::ZERO;
//! cpu.add_task(t0, g, SimDuration::from_secs(1));
//! cpu.add_task(t0, g, SimDuration::from_secs(1));
//! // Two tasks, two cores: both finish after exactly one second.
//! let (when, _) = cpu.next_completion(t0).unwrap();
//! assert_eq!(when, SimTime::from_secs(1));
//! ```

// Ticks cross between `u128`, `u64` and `f64` in a handful of places; each
// one is a `try_from`, a checked operation or an `#[allow]` stating its bound.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Identifies a task inside a [`CpuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuTaskId(u64);

/// Identifies a scheduling group (e.g. one container) inside a [`CpuModel`].
///
/// Ordered by creation (`seq` compares first): that order breaks ties in the
/// water-filling order, so it must not depend on which slab slot was reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuGroupId {
    seq: u64,
    slot: usize,
}

/// Counts of the model's own work since it was created. They depend only on
/// the operations applied, so they repeat exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuStats {
    /// Times the host was divided between the active groups: at most once
    /// between two changes, at the first read that needed rates.
    pub recomputes: u64,
    /// Active groups those divisions walked, summed.
    pub group_visits: u64,
    /// Finish tags pushed onto and popped off group heaps.
    pub heap_ops: u64,
    /// Tasks retired by [`CpuModel::advance_to`].
    pub completions: u64,
}

/// Ticks (of 2⁻³² core·µs) a task gains per microsecond on a core of its own:
/// the largest rate.
const ONE: u64 = 1 << 32;
/// [`ONE`] as a float (2³² exactly), so that no cast is needed to use it.
const ONE_F64: f64 = 4_294_967_296.0;

/// `Group::seq` of a slab slot that is on the free list.
const FREE: u64 = u64::MAX;

/// One group with runnable members, as the water-filling sees it. The model
/// keeps these sorted by [`Fill::order`]; the test reference rebuilds them.
///
/// The entry also carries the group's service since its clock was last
/// written, so that an event touches no group that neither gained nor lost
/// a member: the service accrues here, at `rate` from `since`, and reaches
/// the group only when a member joins or leaves it.
#[derive(Debug, Clone)]
pub(crate) struct Fill {
    /// `demand / weight`: groups are filled in ascending order of it.
    key: f64,
    seq: u64,
    pub(crate) slot: usize,
    /// Cores the group could use: one per member, up to its cap.
    demand: f64,
    weight: f64,
    pub(crate) members: usize,
    /// Ticks per microsecond each member gains (at most [`ONE`]); the output
    /// of [`water_fill`].
    pub(crate) rate: u64,
    /// The instant, in µs, up to which `gained` and `left` are counted.
    since: u64,
    /// Service each member gained since the group's clock was written.
    gained: u128,
    /// Ticks the group's next finisher still needs, as of `since`.
    left: u128,
    /// The group's next finisher (see [`Group::next_finisher`]).
    next: CpuTaskId,
}

impl Fill {
    pub(crate) fn new(
        seq: u64,
        slot: usize,
        cap: Option<f64>,
        weight: f64,
        members: usize,
    ) -> Self {
        #[allow(clippy::cast_precision_loss)] // exact below 2^53 members
        let demand = members as f64;
        let demand = cap.map_or(demand, |cap| demand.min(cap));
        Fill {
            key: demand / weight,
            seq,
            slot,
            demand,
            weight,
            members,
            rate: 0,
            since: 0,
            gained: 0,
            left: 0,
            next: CpuTaskId(0),
        }
    }

    /// Service each member gains from `since` to `now` (in µs).
    fn gain_until(&self, now: u64) -> u128 {
        u128::from(self.rate) * u128::from(now - self.since)
    }

    /// Counts the service up to `now` at the current rate.
    fn catch_up(&mut self, now: u64) {
        let gained = self.gain_until(now);
        self.gained += gained;
        self.left = self.left.saturating_sub(gained);
        self.since = now;
    }

    /// Water-filling order: ascending `demand / weight`, ties by creation —
    /// never by slab slot. Keys are unique, so an unstable sort is exact.
    pub(crate) fn order(&self, other: &Fill) -> Ordering {
        let keys = self.key.partial_cmp(&other.key).expect("finite ratios");
        keys.then(self.seq.cmp(&other.seq))
    }

    /// The per-member rate of a group allotted `cores`, rounded down to a
    /// whole tick: the members of a group never receive more than its
    /// allocation, and lose less than 2⁻³² of a core each.
    fn set_rate(&mut self, cores: f64) {
        #[allow(clippy::cast_precision_loss)] // exact below 2^53 members
        let per_member = cores / self.members as f64;
        // A float-to-integer `as` floors a positive value and saturates; the
        // value is at most 2^32 up to rounding, which the `min` absorbs.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ticks = (per_member * ONE_F64) as u64;
        self.rate = ticks.min(ONE);
    }
}

/// Weighted max-min fair division of `cores` over `order`, which must be
/// sorted by [`Fill::order`]; writes every entry's `rate`.
///
/// Progressive filling: visiting groups in ascending demand/weight order, a
/// group is pinned at its demand if that is below its proportional share of
/// what remains; once one group's share falls short, all later groups (larger
/// demand/weight) also fall short, so the remainder is split proportionally.
/// These f64 sums are the only order-dependent arithmetic of the model.
pub(crate) fn water_fill(cores: f64, order: &mut [Fill]) {
    let mut weight_left: f64 = order.iter().map(|f| f.weight).sum();
    let mut remaining = cores;
    for i in 0..order.len() {
        let f = &mut order[i];
        let share = remaining * f.weight / weight_left;
        if f.demand <= share + 1e-12 {
            remaining -= f.demand;
            weight_left -= f.weight;
            f.set_rate(f.demand);
        } else {
            // Everyone from here on is share-limited. A share-limited rate
            // depends on the entry's weight and member count alone, so an
            // entry like the one before it takes that entry's rate: the
            // same f64 expression, hence the same bits, without its two
            // divisions. Neighbours are alike when single-task containers
            // share a weight (99 % of vanilla's tail entries, 78 % of SFS's).
            let pool = remaining.max(0.0);
            let mut last: Option<(f64, usize, u64)> = None;
            for f in &mut order[i..] {
                match last {
                    Some((weight, members, rate)) if weight == f.weight && members == f.members => {
                        f.rate = rate;
                    }
                    _ => f.set_rate(pool * f.weight / weight_left),
                }
                last = Some((f.weight, f.members, f.rate));
            }
            break;
        }
    }
}

/// Microseconds until a service clock running at `rate` ticks per µs has
/// covered `left` ticks, rounded up; `None` if it never does.
fn micros_to_cover(left: u128, rate: u64) -> Option<u64> {
    if rate == 0 {
        return (left == 0).then_some(0);
    }
    Some(match u64::try_from(left) {
        // Under 2^64 ticks — 4,294 s of work on a whole core — outstanding:
        // a hardware divide.
        Ok(left) => left.div_ceil(rate),
        Err(_) => u64::try_from(left.div_ceil(u128::from(rate))).unwrap_or(u64::MAX),
    })
}

/// Core-ticks read out as core-seconds.
fn core_seconds_of(ticks: u128) -> f64 {
    #[allow(clippy::cast_precision_loss)] // read-out only: 2^-53 relative
    let ticks = ticks as f64;
    ticks / (ONE_F64 * 1e6)
}

#[derive(Debug, Clone)]
struct Group {
    /// Creation-order id of the occupant, [`FREE`] for a vacant slot.
    seq: u64,
    /// Maximum cores this group may use (`None` = host limit).
    cap: Option<f64>,
    /// Fair-share weight (default 1.0). Under contention a group receives
    /// cores proportional to its weight — the hook that lets an SFS-style
    /// scheduler prioritise short functions.
    weight: f64,
    /// Service, in ticks, every member has received since the group was
    /// created (a day on a whole core is 2^68: it does not wrap), short of
    /// what its entry in the active list holds as `gained`.
    clock: u128,
    /// Core-ticks this group has consumed, short of its entry's `gained`.
    ticks: u128,
    /// Runnable members as `(finish tag, id)`, least first: a member is done
    /// once `clock` reaches its tag. The allocation outlives the occupant.
    heap: BinaryHeap<Reverse<(u128, CpuTaskId)>>,
}

impl Group {
    /// The member that finishes first and the ticks it has left: the least
    /// tag, or, once the clock has passed a tag, the lowest id among the
    /// finished members, none of which has work left.
    fn next_finisher(&self, clock: u128) -> (u128, CpuTaskId) {
        let &Reverse((tag, id)) = self.heap.peek().expect("active groups have members");
        if tag > clock {
            return (tag - clock, id);
        }
        let finished = self.heap.iter().filter(|t| t.0 .0 <= clock);
        (0, finished.map(|t| t.0 .1).min().unwrap_or(id))
    }
}

/// Deterministic processor-sharing model of a `cores`-core host.
#[derive(Debug, Clone)]
pub struct CpuModel {
    cores: f64,
    groups: Vec<Group>,
    /// Vacant slots of `groups`.
    free: Vec<usize>,
    /// The groups with runnable members, sorted by [`Fill::order`] and kept
    /// so one entry at a time as members come and go. Their rates are the
    /// division of this list only while `divided` holds.
    active: Vec<Fill>,
    divided: bool,
    /// The earliest completion `(instant, task)` as of the latest division
    /// or scan; current while the instant lies past `last_accrual`.
    due: Option<(SimTime, CpuTaskId)>,
    /// Reused buffer: the tasks retired by the latest `advance_to`.
    done: Vec<CpuTaskId>,
    last_accrual: SimTime,
    /// Core-ticks the host has consumed, short of what the active entries
    /// hold.
    ticks: u128,
    next_task: u64,
    next_group: u64,
    stats: CpuStats,
}

impl CpuModel {
    /// Creates a model of a host with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not a positive finite number.
    pub fn new(cores: f64) -> Self {
        assert!(
            cores.is_finite() && cores > 0.0,
            "invalid core count: {cores}"
        );
        CpuModel {
            cores,
            groups: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            divided: true,
            due: None,
            done: Vec::new(),
            last_accrual: SimTime::ZERO,
            ticks: 0,
            next_task: 0,
            next_group: 0,
            stats: CpuStats::default(),
        }
    }

    /// Total cores of the modelled host.
    pub fn cores(&self) -> f64 {
        self.cores
    }

    /// Creates a scheduling group with an optional core cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is non-positive or not finite.
    pub fn create_group(&mut self, cap: Option<f64>) -> CpuGroupId {
        if let Some(c) = cap {
            assert!(c.is_finite() && c > 0.0, "invalid group cap: {c}");
        }
        let seq = self.next_group;
        self.next_group += 1;
        let slot = self.free.pop().unwrap_or(self.groups.len());
        if slot == self.groups.len() {
            self.groups.push(Group {
                seq,
                cap,
                weight: 1.0,
                clock: 0,
                ticks: 0,
                heap: BinaryHeap::new(),
            });
        } else {
            // A vacated slot's heap is empty and keeps its allocation.
            let g = &mut self.groups[slot];
            (g.seq, g.cap, g.weight, g.clock, g.ticks) = (seq, cap, 1.0, 0, 0);
        }
        CpuGroupId { seq, slot }
    }

    fn group(&self, id: CpuGroupId) -> &Group {
        self.groups
            .get(id.slot)
            .filter(|g| g.seq == id.seq)
            .expect("unknown CPU group")
    }

    fn group_mut(&mut self, id: CpuGroupId) -> &mut Group {
        self.groups
            .get_mut(id.slot)
            .filter(|g| g.seq == id.seq)
            .expect("unknown CPU group")
    }

    /// Sets a group's fair-share weight (default 1.0). Higher-weighted
    /// groups receive proportionally more cores under contention.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist, `weight` is not positive finite,
    /// or `now` precedes the last accrual.
    pub fn set_group_weight(&mut self, now: SimTime, group: CpuGroupId, weight: f64) {
        self.set_group_weights(now, [(group, weight)]);
    }

    /// A group's current fair-share weight.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist.
    pub fn group_weight(&self, group: CpuGroupId) -> f64 {
        self.group(group).weight
    }

    /// Updates many group weights with at most one re-sort of the active
    /// groups (none if no group with runnable members changes weight); the
    /// host is re-divided at the next read that needs rates. Use this for
    /// periodic re-prioritisation sweeps (e.g. SFS aging).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`set_group_weight`]
    /// (unknown group, non-positive weight, time moving backwards).
    ///
    /// [`set_group_weight`]: CpuModel::set_group_weight
    pub fn set_group_weights(
        &mut self,
        now: SimTime,
        updates: impl IntoIterator<Item = (CpuGroupId, f64)>,
    ) {
        self.accrue(now);
        let mut moved = false;
        for (group, weight) in updates {
            assert!(
                weight.is_finite() && weight > 0.0,
                "invalid group weight: {weight}"
            );
            let g = self.group_mut(group);
            moved |= !g.heap.is_empty() && g.weight != weight;
            g.weight = weight;
        }
        if moved {
            // Re-keyed in place: an entry keeps the service it holds, and
            // its old rate, which applies up to the next division.
            for f in &mut self.active {
                f.weight = self.groups[f.slot].weight;
                f.key = f.demand / f.weight;
            }
            self.active.sort_unstable_by(Fill::order);
            self.divided = false;
        }
    }

    /// Removes an empty group; its slab slot is reused by a later
    /// [`create_group`](Self::create_group).
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist, still has tasks, or `now`
    /// precedes the last accrual.
    pub fn remove_group(&mut self, now: SimTime, group: CpuGroupId) {
        self.accrue(now);
        let g = self.group_mut(group);
        assert!(g.heap.is_empty(), "cannot remove non-empty CPU group");
        g.seq = FREE;
        self.free.push(group.slot);
    }

    /// Adds a task with `work` core-seconds of computation to `group`.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or `now` precedes the last accrual.
    pub fn add_task(&mut self, now: SimTime, group: CpuGroupId, work: SimDuration) -> CpuTaskId {
        self.accrue(now);
        let id = CpuTaskId(self.next_task);
        self.next_task += 1;
        self.stats.heap_ops += 1;
        let work = u128::from(work.as_micros()) * u128::from(ONE);
        let before = self.group(group).heap.len();
        if before == 0 {
            let g = &mut self.groups[group.slot];
            g.heap.push(Reverse((g.clock + work, id)));
            self.file(group.slot);
            return id;
        }
        // The group's entry takes the member in place. The tag counts from
        // the clock as of now, and the service held so far is charged to
        // the members that earned it.
        let at = self.position(group.slot, before);
        self.write_clock(at);
        let f = &mut self.active[at];
        let g = &mut self.groups[group.slot];
        if f.left == 0 {
            f.next = g.next_finisher(g.clock).1;
        }
        g.heap.push(Reverse((g.clock + work, id)));
        // The newcomer has the highest id: it goes first only with less
        // work left than the current next finisher.
        if work < f.left {
            (f.left, f.next) = (work, id);
        }
        self.resize(at);
        id
    }

    /// Advances the clock to `now`, accruing progress, and removes every task
    /// that finished by then. Completed task ids are returned in ascending
    /// id order (deterministic); the slice is valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous accrual point.
    pub fn advance_to(&mut self, now: SimTime) -> &[CpuTaskId] {
        self.accrue(now);
        let now = now.as_micros();
        self.done.clear();
        // Only a group whose next finisher is covered by now is touched.
        let mut i = 0;
        while i < self.active.len() {
            let f = &self.active[i];
            if f.gain_until(now) < f.left {
                i += 1;
                continue;
            }
            let slot = f.slot;
            self.write_clock(i);
            let g = &mut self.groups[slot];
            while let Some(&Reverse((tag, id))) = g.heap.peek().filter(|t| t.0 .0 <= g.clock) {
                g.heap.pop();
                // The task was charged up to `clock` but stopped at its tag.
                let unused = g.clock - tag;
                g.ticks -= unused;
                self.ticks -= unused;
                self.done.push(id);
            }
            if g.heap.is_empty() {
                self.active.remove(i);
                continue;
            }
            // The entry gives the members up in place. Fewer members never
            // raise `demand / weight`, so it moves left, if at all, past
            // entries already visited.
            (self.active[i].left, self.active[i].next) = g.next_finisher(g.clock);
            self.resize(i);
            i += 1;
        }
        if !self.done.is_empty() {
            self.divided = false;
            self.done.sort_unstable();
            let retired = self.done.len() as u64;
            self.stats.heap_ops += retired;
            self.stats.completions += retired;
        }
        &self.done
    }

    /// The earliest upcoming task completion given current allocations.
    ///
    /// Returns the absolute completion instant (rounded *up* to the next
    /// microsecond so the task is guaranteed done when the caller advances to
    /// it) and a task completing then: of each group's next finisher (least
    /// work left, then lowest id; a finished task has none left), the lowest
    /// id among those due first. The instant does not depend on `now`, which
    /// only bounds it from below. `None` when no runnable task will ever
    /// complete.
    ///
    /// Divides the host if a change is pending; otherwise answers from the
    /// latest division, unless the accrual point has since reached the
    /// instant it found, in which case it scans the groups again.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, CpuTaskId)> {
        debug_assert!(now >= self.last_accrual);
        if !self.divided {
            self.divide();
        } else if self.due.is_some_and(|(at, _)| at <= self.last_accrual) {
            self.catch_up();
            self.scan_completions();
        }
        self.due.map(|(at, id)| (at.max(now), id))
    }

    /// Instantaneous busy-core count (sum of task rates).
    pub fn busy_cores(&mut self) -> f64 {
        self.divide_if_stale();
        let ticks_per_micro: u128 = self
            .active
            .iter()
            .map(|f| u128::from(f.rate) * f.members as u128)
            .sum();
        #[allow(clippy::cast_precision_loss)] // exact below 2^21 cores
        let ticks_per_micro = ticks_per_micro as f64;
        ticks_per_micro / ONE_F64
    }

    /// Cumulative core-seconds consumed up to the last accrual point. A task
    /// that is past its finish tag but not yet retired by
    /// [`advance_to`](Self::advance_to) is charged as if still running; the
    /// excess is returned when it retires.
    pub fn core_seconds(&self) -> f64 {
        core_seconds_of(self.core_ticks())
    }

    /// Core-seconds consumed by one group up to the last accrual.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist (it may have been removed — query
    /// before [`remove_group`](Self::remove_group)).
    pub fn group_core_seconds(&self, group: CpuGroupId) -> f64 {
        core_seconds_of(self.group_core_ticks(group))
    }

    /// [`core_seconds`](Self::core_seconds) in ticks of 2⁻³² core·µs.
    pub(crate) fn core_ticks(&self) -> u128 {
        let held: u128 = self.active.iter().map(|f| self.held_ticks(f)).sum();
        self.ticks + held
    }

    /// [`group_core_seconds`](Self::group_core_seconds) in ticks.
    pub(crate) fn group_core_ticks(&self, group: CpuGroupId) -> u128 {
        let entry = self.active.iter().find(|f| f.slot == group.slot);
        self.group(group).ticks + entry.map_or(0, |f| self.held_ticks(f))
    }

    /// Core-ticks an active entry holds for its group up to the accrual
    /// point.
    fn held_ticks(&self, f: &Fill) -> u128 {
        (f.gained + f.gain_until(self.last_accrual.as_micros())) * f.members as u128
    }

    /// Number of runnable tasks.
    pub fn task_count(&self) -> usize {
        self.active.iter().map(|f| f.members).sum()
    }

    /// Current core allocation of a task, if it is still running. The model
    /// keeps no per-task table, so this searches the group heaps.
    pub fn task_rate(&mut self, task: CpuTaskId) -> Option<f64> {
        self.divide_if_stale();
        let holds = |f: &&Fill| self.groups[f.slot].heap.iter().any(|t| t.0 .1 == task);
        #[allow(clippy::cast_precision_loss)] // a rate is at most 2^32
        self.active
            .iter()
            .find(holds)
            .map(|f| f.rate as f64 / ONE_F64)
    }

    /// Counts of the model's own work so far.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Moves the accrual point to `now`. The service of the interval stays
    /// in the active entries until their groups are next touched, but it
    /// accrues at the current rates, so a pending change is divided first,
    /// at the old accrual point.
    fn accrue(&mut self, now: SimTime) {
        assert!(
            now >= self.last_accrual,
            "CPU model cannot move backwards: {now} < {}",
            self.last_accrual
        );
        if now > self.last_accrual {
            self.divide_if_stale();
            self.last_accrual = now;
        }
    }

    /// Writes the service active entry `i` holds up to the accrual point
    /// into its group's clock and core-ticks.
    fn write_clock(&mut self, i: usize) {
        let f = &mut self.active[i];
        f.catch_up(self.last_accrual.as_micros());
        let g = &mut self.groups[f.slot];
        let charged = f.gained * f.members as u128;
        g.clock += f.gained;
        g.ticks += charged;
        self.ticks += charged;
        f.gained = 0;
    }

    /// Where a group's entry, filed with `members`, lies in the active list.
    fn position(&self, slot: usize, members: usize) -> usize {
        let g = &self.groups[slot];
        let filed = Fill::new(g.seq, slot, g.cap, g.weight, members);
        let at = self.active.binary_search_by(|f| f.order(&filed));
        at.expect("a group with members is filed")
    }

    /// Re-sizes active entry `at` to its group's member count, in place: it
    /// keeps the service it holds and its old rate, which applies up to the
    /// next division, and moves to its place in the water-filling order.
    fn resize(&mut self, at: usize) {
        let f = &mut self.active[at];
        let g = &self.groups[f.slot];
        let sized = Fill::new(g.seq, f.slot, g.cap, g.weight, g.heap.len());
        (f.key, f.demand, f.members) = (sized.key, sized.demand, sized.members);
        self.divided = false;
        let mut at = at;
        while at > 0 && self.active[at].order(&self.active[at - 1]).is_lt() {
            self.active.swap(at - 1, at);
            at -= 1;
        }
        while at + 1 < self.active.len() && self.active[at + 1].order(&self.active[at]).is_lt() {
            self.active.swap(at, at + 1);
            at += 1;
        }
    }

    /// Files a group that has just gained its first member in the active
    /// list, as of the accrual point, leaving the division stale.
    fn file(&mut self, slot: usize) {
        let g = &self.groups[slot];
        let mut new = Fill::new(g.seq, slot, g.cap, g.weight, g.heap.len());
        new.since = self.last_accrual.as_micros();
        (new.left, new.next) = g.next_finisher(g.clock);
        let at = self.active.binary_search_by(|f| f.order(&new));
        self.active
            .insert(at.expect_err("group ids are unique"), new);
        self.divided = false;
    }

    /// Brings every active entry up to the accrual point at its current
    /// rate. A next finisher that the clock has reached is looked up again:
    /// of the finished members, the lowest id goes first.
    fn catch_up(&mut self) {
        let now = self.last_accrual.as_micros();
        for f in &mut self.active {
            if f.since == now {
                continue;
            }
            f.catch_up(now);
            if f.left == 0 {
                let g = &self.groups[f.slot];
                f.next = g.next_finisher(g.clock + f.gained).1;
            }
        }
    }

    fn divide_if_stale(&mut self) {
        if !self.divided {
            self.divide();
        }
    }

    /// Divides the host between the active groups and finds the earliest
    /// completion under the new rates.
    fn divide(&mut self) {
        self.stats.recomputes += 1;
        self.stats.group_visits += self.active.len() as u64;
        // The old rates hold up to the accrual point.
        self.catch_up();
        water_fill(self.cores, &mut self.active);
        self.divided = true;
        self.scan_completions();
    }

    /// Sets `due` to the least `⌈left / rate⌉` over the groups' next
    /// finishers, ties to the lower id. Every entry must be caught up.
    fn scan_completions(&mut self) {
        let mut best: Option<(u64, CpuTaskId)> = None;
        for f in &self.active {
            // `left > best · rate` means `⌈left / rate⌉ > best`: no divide.
            if best.is_some_and(|(micros, _)| f.left > u128::from(micros) * u128::from(f.rate)) {
                continue;
            }
            let Some(micros) = micros_to_cover(f.left, f.rate) else {
                continue;
            };
            if best.is_none_or(|b| (micros, f.next) < b) {
                best = Some((micros, f.next));
            }
        }
        self.due = best.map(|(micros, id)| {
            let at = self.last_accrual.as_micros().saturating_add(micros);
            (SimTime::from_micros(at), id)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    /// Drives the model to completion, returning (task, finish time) pairs.
    fn drain(cpu: &mut CpuModel, mut now: SimTime) -> Vec<(CpuTaskId, SimTime)> {
        let mut finished = Vec::new();
        while let Some((when, _)) = cpu.next_completion(now) {
            now = when;
            for &id in cpu.advance_to(now) {
                finished.push((id, now));
            }
        }
        finished
    }

    #[test]
    fn micros_to_cover_agrees_across_the_u64_boundary() {
        let wide = |left: u128, rate: u64| {
            u64::try_from(left.div_ceil(u128::from(rate))).unwrap_or(u64::MAX)
        };
        let edge = u128::from(u64::MAX);
        for rate in [1, 3, ONE - 1, ONE, u64::MAX] {
            for left in [
                1,
                2,
                edge - 1,
                edge,
                edge + 1,
                edge + 2,
                edge * 3,
                u128::MAX,
            ] {
                assert_eq!(
                    micros_to_cover(left, rate),
                    Some(wide(left, rate)),
                    "{left} / {rate}"
                );
            }
            assert_eq!(micros_to_cover(0, rate), Some(0));
        }
        // Exact at the boundary: 2^64 ticks at one tick per µs is 2^64 µs,
        // one more than a u64 holds.
        assert_eq!(micros_to_cover(edge, 1), Some(u64::MAX));
        assert_eq!(micros_to_cover(edge + 1, 1), Some(u64::MAX));
        assert_eq!(micros_to_cover(edge + 1, 2), Some(1 << 63));
        assert_eq!(micros_to_cover(0, 0), Some(0));
        assert_eq!(micros_to_cover(1, 0), None);
        assert_eq!(micros_to_cover(edge + 1, 0), None);
    }

    #[test]
    fn single_task_runs_at_full_speed() {
        let mut cpu = CpuModel::new(4.0);
        let g = cpu.create_group(None);
        let t = cpu.add_task(SimTime::ZERO, g, secs(2.0));
        let (when, id) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(id, t);
        assert_eq!(when, SimTime::from_secs(2));
    }

    #[test]
    fn undersubscribed_tasks_do_not_interfere() {
        // 4 cores, 3 tasks: everyone gets a whole core.
        let mut cpu = CpuModel::new(4.0);
        let g = cpu.create_group(None);
        for _ in 0..3 {
            cpu.add_task(SimTime::ZERO, g, secs(1.0));
        }
        let done = drain(&mut cpu, SimTime::ZERO);
        assert!(done.iter().all(|&(_, t)| t == SimTime::from_secs(1)));
    }

    #[test]
    fn oversubscription_shares_fairly() {
        // 2 cores, 4 equal tasks: each runs at 0.5 cores, finishing in 2 s.
        let mut cpu = CpuModel::new(2.0);
        let g = cpu.create_group(None);
        for _ in 0..4 {
            cpu.add_task(SimTime::ZERO, g, secs(1.0));
        }
        assert!((cpu.busy_cores() - 2.0).abs() < 1e-12);
        let done = drain(&mut cpu, SimTime::ZERO);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|&(_, t)| t == SimTime::from_secs(2)));
    }

    #[test]
    fn group_cap_limits_throughput() {
        // Host has 8 cores but the container is capped at 1: two 1-core-second
        // tasks take 2 seconds total.
        let mut cpu = CpuModel::new(8.0);
        let g = cpu.create_group(Some(1.0));
        cpu.add_task(SimTime::ZERO, g, secs(1.0));
        cpu.add_task(SimTime::ZERO, g, secs(1.0));
        let done = drain(&mut cpu, SimTime::ZERO);
        assert!(done.iter().all(|&(_, t)| t == SimTime::from_secs(2)));
    }

    #[test]
    fn capped_group_leaves_cores_for_others() {
        // Group A capped at 1 core with many tasks; group B uncapped.
        // B's task must still get a full core.
        let mut cpu = CpuModel::new(2.0);
        let a = cpu.create_group(Some(1.0));
        let b = cpu.create_group(None);
        for _ in 0..10 {
            cpu.add_task(SimTime::ZERO, a, secs(1.0));
        }
        let tb = cpu.add_task(SimTime::ZERO, b, secs(1.0));
        assert!((cpu.task_rate(tb).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_fairness_between_groups() {
        // 3 cores; group A has 1 task (demand 1), groups B has 4 tasks
        // (demand 4, uncapped). A gets 1 core, B gets 2.
        let mut cpu = CpuModel::new(3.0);
        let a = cpu.create_group(None);
        let b = cpu.create_group(None);
        let ta = cpu.add_task(SimTime::ZERO, a, secs(1.0));
        let mut bts = Vec::new();
        for _ in 0..4 {
            bts.push(cpu.add_task(SimTime::ZERO, b, secs(1.0)));
        }
        assert!((cpu.task_rate(ta).unwrap() - 1.0).abs() < 1e-12);
        for t in bts {
            assert!((cpu.task_rate(t).unwrap() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn late_arrival_slows_existing_task() {
        // 1 core. Task A (2 core-seconds) runs alone for 1 s, then task B
        // (0.5 core-seconds) arrives and they share. B finishes at t=2,
        // A at t=2.5.
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        let a = cpu.add_task(SimTime::ZERO, g, secs(2.0));
        let t1 = SimTime::from_secs(1);
        let b = cpu.add_task(t1, g, secs(0.5));
        let mut done = drain(&mut cpu, t1);
        done.sort_by_key(|&(_, t)| t);
        assert_eq!(done[0], (b, SimTime::from_secs(2)));
        assert_eq!(done[1], (a, SimTime::from_secs_f64(2.5)));
    }

    #[test]
    fn core_seconds_accumulate() {
        let mut cpu = CpuModel::new(4.0);
        let g = cpu.create_group(None);
        for _ in 0..2 {
            cpu.add_task(SimTime::ZERO, g, secs(1.0));
        }
        drain(&mut cpu, SimTime::ZERO);
        assert!((cpu.core_seconds() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn per_group_core_seconds_sum_to_total() {
        let mut cpu = CpuModel::new(2.0);
        let a = cpu.create_group(None);
        let b = cpu.create_group(Some(0.5));
        cpu.add_task(SimTime::ZERO, a, secs(1.0));
        cpu.add_task(SimTime::ZERO, b, secs(0.25));
        drain(&mut cpu, SimTime::ZERO);
        let ga = cpu.group_core_seconds(a);
        let gb = cpu.group_core_seconds(b);
        assert!((ga - 1.0).abs() < 1e-6, "group a burned {ga}");
        assert!((gb - 0.25).abs() < 1e-6, "group b burned {gb}");
        assert!((ga + gb - cpu.core_seconds()).abs() < 1e-6);
    }

    #[test]
    fn work_conservation_under_load() {
        // More tasks than cores: the host must be fully busy.
        let mut cpu = CpuModel::new(4.0);
        let g = cpu.create_group(None);
        for _ in 0..16 {
            cpu.add_task(SimTime::ZERO, g, secs(0.1));
        }
        assert!((cpu.busy_cores() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_task_completes_immediately() {
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        let t = cpu.add_task(SimTime::ZERO, g, SimDuration::ZERO);
        assert_eq!(cpu.advance_to(SimTime::ZERO), [t]);
    }

    #[test]
    #[should_panic(expected = "cannot remove non-empty")]
    fn removing_busy_group_panics() {
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        cpu.add_task(SimTime::ZERO, g, secs(1.0));
        cpu.remove_group(SimTime::ZERO, g);
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn accruing_backwards_panics() {
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        cpu.add_task(SimTime::from_secs(5), g, secs(1.0));
        cpu.advance_to(SimTime::from_secs(1));
    }

    #[test]
    fn weights_skew_allocation_under_contention() {
        // 1 core, two single-task groups, weights 3:1 → rates 0.75 / 0.25.
        let mut cpu = CpuModel::new(1.0);
        let a = cpu.create_group(None);
        let b = cpu.create_group(None);
        cpu.set_group_weight(SimTime::ZERO, a, 3.0);
        let ta = cpu.add_task(SimTime::ZERO, a, secs(1.0));
        let tb = cpu.add_task(SimTime::ZERO, b, secs(1.0));
        assert!((cpu.task_rate(ta).unwrap() - 0.75).abs() < 1e-9);
        assert!((cpu.task_rate(tb).unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn weights_are_irrelevant_without_contention() {
        // 4 cores, two single-task groups: both get a full core regardless.
        let mut cpu = CpuModel::new(4.0);
        let a = cpu.create_group(None);
        let b = cpu.create_group(None);
        cpu.set_group_weight(SimTime::ZERO, a, 100.0);
        let ta = cpu.add_task(SimTime::ZERO, a, secs(1.0));
        let tb = cpu.add_task(SimTime::ZERO, b, secs(1.0));
        assert!((cpu.task_rate(ta).unwrap() - 1.0).abs() < 1e-9);
        assert!((cpu.task_rate(tb).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_high_priority_finishes_first() {
        // SFS-style: short task weighted 10 finishes well before an equal-
        // work task weighted 1 on one core.
        let mut cpu = CpuModel::new(1.0);
        let short = cpu.create_group(None);
        let long = cpu.create_group(None);
        cpu.set_group_weight(SimTime::ZERO, short, 10.0);
        let ts = cpu.add_task(SimTime::ZERO, short, secs(0.5));
        let tl = cpu.add_task(SimTime::ZERO, long, secs(0.5));
        let done = drain(&mut cpu, SimTime::ZERO);
        let find = |id| done.iter().find(|&&(d, _)| d == id).unwrap().1;
        assert!(find(ts) < find(tl));
        // Work conservation: the long task still finishes at 1 s — plus the
        // microsecond the short one's completion was rounded up to (10/11 of
        // a core is not a whole number of ticks, so 0.5 s takes 550,001 µs).
        assert_eq!(find(ts), SimTime::from_micros(550_001));
        assert_eq!(find(tl), SimTime::from_micros(1_000_001));
    }

    #[test]
    fn group_weight_accessor_roundtrips() {
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        assert_eq!(cpu.group_weight(g), 1.0);
        cpu.set_group_weight(SimTime::ZERO, g, 2.5);
        assert_eq!(cpu.group_weight(g), 2.5);
    }

    #[test]
    #[should_panic(expected = "invalid group weight")]
    fn non_positive_weight_panics() {
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        cpu.set_group_weight(SimTime::ZERO, g, 0.0);
    }

    #[test]
    fn next_completion_is_stable_between_accruals() {
        // Asking for next_completion at a later `now` (without membership
        // change) returns the same absolute instant, shared core or not.
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        for work in [1.0, 0.7, 0.3] {
            cpu.add_task(SimTime::ZERO, g, secs(work));
            let asked_at_once = cpu.next_completion(SimTime::ZERO).unwrap();
            for later in [1, 400, 899] {
                let now = SimTime::from_millis(later);
                assert_eq!(cpu.next_completion(now).unwrap(), asked_at_once);
            }
        }
    }

    #[test]
    fn a_tie_between_finished_tasks_names_the_lowest_id() {
        // Two members of one group are both past their finish tags and not
        // yet retired. Neither has work left, so the lower id is named, not
        // the member with the least tag (the later, shorter task).
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        let long = cpu.add_task(SimTime::ZERO, g, SimDuration::from_micros(30));
        let short = cpu.add_task(SimTime::ZERO, g, SimDuration::from_micros(10));
        assert_eq!(cpu.next_completion(SimTime::ZERO).unwrap().1, short);
        // An empty sweep moves the accrual point past both finishes.
        let late = SimTime::from_micros(100);
        cpu.set_group_weights(late, []);
        assert_eq!(cpu.next_completion(late), Some((late, long)));
        assert_eq!(cpu.advance_to(late), [long, short]);
    }

    #[test]
    fn a_member_joining_finished_ones_leaves_the_lowest_id_named() {
        // The same two finished members, but a third joins their group
        // before anything asks: the group's entry takes it in place and
        // must still name the lower id of the two finished ones.
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        let long = cpu.add_task(SimTime::ZERO, g, SimDuration::from_micros(30));
        let short = cpu.add_task(SimTime::ZERO, g, SimDuration::from_micros(10));
        assert_eq!(cpu.next_completion(SimTime::ZERO).unwrap().1, short);
        let late = SimTime::from_micros(100);
        cpu.set_group_weights(late, []);
        let joiner = cpu.add_task(late, g, SimDuration::from_micros(5));
        assert_eq!(cpu.next_completion(late), Some((late, long)));
        assert_eq!(cpu.advance_to(late), [long, short]);
        assert_eq!(cpu.next_completion(late).unwrap().1, joiner);
    }

    #[test]
    fn a_burst_of_changes_costs_one_division_at_the_first_read() {
        let mut cpu = CpuModel::new(4.0);
        let groups: Vec<_> = (0..8).map(|_| cpu.create_group(None)).collect();
        for (i, &g) in groups.iter().cycle().take(40).enumerate() {
            cpu.add_task(SimTime::ZERO, g, SimDuration::from_micros(100 + i as u64));
        }
        cpu.set_group_weights(SimTime::ZERO, [(groups[3], 2.0)]);
        assert_eq!(cpu.stats().recomputes, 0);
        let first = cpu.next_completion(SimTime::ZERO);
        assert!((cpu.busy_cores() - 4.0).abs() < 1e-6);
        let stats = cpu.stats();
        assert_eq!((stats.recomputes, stats.group_visits), (1, 8));
        // Accrual short of the completion keeps the answer, with no scan
        // or division; reaching it retires the task and leaves one pending.
        let (at, id) = first.unwrap();
        let before = SimTime::from_micros(at.as_micros() - 1);
        assert!(cpu.advance_to(before).is_empty());
        assert_eq!(cpu.next_completion(before), first);
        assert_eq!(cpu.advance_to(at), [id]);
        assert_eq!(cpu.stats().recomputes, 1);
        cpu.next_completion(at);
        assert_eq!(cpu.stats().recomputes, 2);
    }

    #[test]
    fn uncontended_task_completes_at_exactly_start_plus_work() {
        // Plenty of cores: however many arrivals and completions in other
        // groups move the accrual point in between, every task — the long
        // watched one included — is done at its start plus its work to the
        // microsecond, and is announced for that instant all along.
        for others in [0u64, 1, 100] {
            let mut cpu = CpuModel::new(256.0);
            let start = |cpu: &mut CpuModel, at: SimTime, work: u64| {
                let g = cpu.create_group(None);
                let work = SimDuration::from_micros(work);
                (cpu.add_task(at, g, work), at + work)
            };
            let mut now = SimTime::from_micros(17);
            let mut due = std::collections::BTreeMap::from([start(&mut cpu, now, 1_234_567)]);
            for i in 0..others {
                // Short and long neighbours, so some overlap the next arrival.
                let arrival = now + SimDuration::from_micros(7 + 13 * i);
                while let Some((at, _)) = cpu.next_completion(now).filter(|c| c.0 <= arrival) {
                    now = at;
                    for id in cpu.advance_to(now).to_vec() {
                        assert_eq!(due.remove(&id), Some(now), "{others} others");
                    }
                }
                now = arrival;
                due.extend([start(&mut cpu, now, 3 + 997 * (i % 9))]);
                let (at, id) = cpu.next_completion(now).unwrap();
                assert_eq!(due[&id], at, "{others} others");
            }
            for (id, at) in drain(&mut cpu, now) {
                assert_eq!(due.remove(&id), Some(at), "{others} others");
            }
            assert!(due.is_empty());
        }
    }

    #[test]
    fn work_longer_than_2_pow_32_micros_does_not_overflow() {
        // The benchmark's drill parks 1,000,000 s tasks in the model.
        let mut cpu = CpuModel::new(2.0);
        let g = cpu.create_group(None);
        let work = SimDuration::from_secs(1_000_000);
        assert!(work.as_micros() > 1 << 32);
        for _ in 0..4 {
            cpu.add_task(SimTime::ZERO, g, work);
        }
        let (due, _) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(due, SimTime::from_secs(2_000_000));
        assert_eq!(cpu.advance_to(due).len(), 4);
        assert_eq!(cpu.core_seconds(), 4e6);
    }

    #[test]
    fn a_task_that_can_never_finish_has_no_completion() {
        // A weight ratio beyond 2^32 rounds the starved group's rate to zero.
        let mut cpu = CpuModel::new(1.0);
        let (hog, starved) = (cpu.create_group(None), cpu.create_group(None));
        cpu.set_group_weight(SimTime::ZERO, hog, 1e12);
        let t = cpu.add_task(SimTime::ZERO, starved, secs(1.0));
        assert_eq!(
            cpu.next_completion(SimTime::ZERO),
            Some((SimTime::from_secs(1), t))
        );
        let h = cpu.add_task(SimTime::ZERO, hog, secs(1.0));
        assert_eq!(cpu.task_rate(t), Some(0.0));
        assert_eq!(
            cpu.next_completion(SimTime::ZERO).map(|(_, id)| id),
            Some(h)
        );
    }
}
