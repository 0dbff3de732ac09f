//! Reference processor-sharing model for the differential test below.
//!
//! This is the `BTreeMap` implementation [`crate::cpu`] replaced, kept
//! verbatim (including the per-task demand knob nothing else uses any more):
//! it rebuilds every temporary on every membership change, which makes it
//! slow and easy to read. The flat model must agree with it bit for bit on
//! every rate, every running sum and every completion.

#![allow(dead_code)]

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifies a task inside a [`CpuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuTaskId(u64);

/// Identifies a scheduling group (e.g. one container) inside a [`CpuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuGroupId(u64);

/// Work remaining below this many core-seconds counts as complete; it absorbs
/// floating-point residue from rate integration.
const WORK_EPSILON: f64 = 1e-9;

#[derive(Debug, Clone)]
struct Task {
    group: CpuGroupId,
    /// Core-seconds of work left.
    remaining: f64,
    /// Current core allocation, recomputed on every membership change.
    rate: f64,
    /// Per-task demand cap in cores (1.0 for ordinary single-threaded work).
    demand: f64,
}

#[derive(Debug, Clone)]
struct Group {
    /// Maximum cores this group may use (`None` = host limit).
    cap: Option<f64>,
    /// Fair-share weight (default 1.0). Under contention a group receives
    /// cores proportional to its weight — the hook that lets an SFS-style
    /// scheduler prioritise short functions.
    weight: f64,
    members: u64,
    /// Core-seconds this group has consumed.
    core_seconds: f64,
}

/// Deterministic processor-sharing model of a `cores`-core host.
#[derive(Debug, Clone)]
pub struct CpuModel {
    cores: f64,
    tasks: BTreeMap<CpuTaskId, Task>,
    groups: BTreeMap<CpuGroupId, Group>,
    last_accrual: SimTime,
    core_seconds: f64,
    next_task: u64,
    next_group: u64,
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
            tasks: BTreeMap::new(),
            groups: BTreeMap::new(),
            last_accrual: SimTime::ZERO,
            core_seconds: 0.0,
            next_task: 0,
            next_group: 0,
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
        let id = CpuGroupId(self.next_group);
        self.next_group += 1;
        self.groups.insert(
            id,
            Group {
                cap,
                weight: 1.0,
                members: 0,
                core_seconds: 0.0,
            },
        );
        id
    }

    /// Sets a group's fair-share weight (default 1.0). Higher-weighted
    /// groups receive proportionally more cores under contention.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist, `weight` is not positive finite,
    /// or `now` precedes the last accrual.
    pub fn set_group_weight(&mut self, now: SimTime, group: CpuGroupId, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "invalid group weight: {weight}"
        );
        self.accrue(now);
        self.groups
            .get_mut(&group)
            .expect("unknown CPU group")
            .weight = weight;
        self.recompute_rates();
    }

    /// A group's current fair-share weight.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist.
    pub fn group_weight(&self, group: CpuGroupId) -> f64 {
        self.groups.get(&group).expect("unknown CPU group").weight
    }

    /// Updates many group weights with a single rate recomputation —
    /// O(groups log groups) total instead of per call. Use this for periodic
    /// re-prioritisation sweeps (e.g. SFS aging).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`set_group_weight`]
    /// (unknown group, non-positive weight, time moving backwards).
    ///
    /// [`set_group_weight`]: CpuModel::set_group_weight
    pub fn set_group_weights(&mut self, now: SimTime, updates: &[(CpuGroupId, f64)]) {
        if updates.is_empty() {
            return;
        }
        self.accrue(now);
        for &(group, weight) in updates {
            assert!(
                weight.is_finite() && weight > 0.0,
                "invalid group weight: {weight}"
            );
            self.groups
                .get_mut(&group)
                .expect("unknown CPU group")
                .weight = weight;
        }
        self.recompute_rates();
    }

    /// Removes an empty group.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or still has tasks.
    pub fn remove_group(&mut self, now: SimTime, group: CpuGroupId) {
        self.accrue(now);
        let g = self.groups.get(&group).expect("unknown CPU group");
        assert_eq!(g.members, 0, "cannot remove non-empty CPU group");
        self.groups.remove(&group);
    }

    /// Adds a task with `work` core-seconds of computation to `group`.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or `now` precedes the last accrual.
    pub fn add_task(&mut self, now: SimTime, group: CpuGroupId, work: SimDuration) -> CpuTaskId {
        self.add_task_with_demand(now, group, work, 1.0)
    }

    /// Adds a task that can consume up to `demand` cores at once (e.g. an
    /// internally parallel runtime activity).
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist, `demand` is not positive finite,
    /// or `now` precedes the last accrual.
    pub fn add_task_with_demand(
        &mut self,
        now: SimTime,
        group: CpuGroupId,
        work: SimDuration,
        demand: f64,
    ) -> CpuTaskId {
        assert!(
            demand.is_finite() && demand > 0.0,
            "invalid demand: {demand}"
        );
        self.accrue(now);
        let g = self.groups.get_mut(&group).expect("unknown CPU group");
        g.members += 1;
        let id = CpuTaskId(self.next_task);
        self.next_task += 1;
        self.tasks.insert(
            id,
            Task {
                group,
                remaining: work.as_secs_f64(),
                rate: 0.0,
                demand,
            },
        );
        self.recompute_rates();
        id
    }

    /// Cancels a task, discarding its remaining work.
    ///
    /// Returns the unfinished core-seconds, or `None` if the task is unknown
    /// (e.g. already completed).
    pub fn cancel_task(&mut self, now: SimTime, task: CpuTaskId) -> Option<SimDuration> {
        self.accrue(now);
        let t = self.tasks.remove(&task)?;
        self.groups
            .get_mut(&t.group)
            .expect("task pointed at missing group")
            .members -= 1;
        self.recompute_rates();
        Some(SimDuration::from_secs_f64(t.remaining.max(0.0)))
    }

    /// Advances the clock to `now`, accruing progress, and removes every task
    /// that finished by then. Completed task ids are returned in ascending
    /// id order (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous accrual point.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<CpuTaskId> {
        self.accrue(now);
        let done: Vec<CpuTaskId> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.remaining <= WORK_EPSILON)
            .map(|(id, _)| *id)
            .collect();
        for id in &done {
            let t = self.tasks.remove(id).expect("completed task vanished");
            self.groups
                .get_mut(&t.group)
                .expect("task pointed at missing group")
                .members -= 1;
        }
        if !done.is_empty() {
            self.recompute_rates();
        }
        done
    }

    /// The earliest upcoming task completion given current allocations.
    ///
    /// Returns the absolute completion instant (rounded *up* to the next
    /// microsecond so the task is guaranteed done when the caller advances to
    /// it) and the completing task. `None` when no runnable task exists.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, CpuTaskId)> {
        debug_assert!(now >= self.last_accrual);
        let elapsed = now
            .saturating_duration_since(self.last_accrual)
            .as_secs_f64();
        let mut best: Option<(f64, CpuTaskId)> = None;
        for (id, t) in &self.tasks {
            if t.rate <= 0.0 {
                continue;
            }
            let remaining_at_now = (t.remaining - elapsed * t.rate).max(0.0);
            let secs = remaining_at_now / t.rate;
            if best.is_none_or(|(b, _)| secs < b) {
                best = Some((secs, *id));
            }
        }
        best.map(|(secs, id)| {
            let micros = (secs * 1e6).ceil() as u64;
            (now + SimDuration::from_micros(micros), id)
        })
    }

    /// Instantaneous busy-core count (sum of task rates).
    pub fn busy_cores(&self) -> f64 {
        self.tasks.values().map(|t| t.rate).sum()
    }

    /// Instantaneous utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.busy_cores() / self.cores
    }

    /// Cumulative core-seconds consumed up to the last accrual point.
    pub fn core_seconds(&self) -> f64 {
        self.core_seconds
    }

    /// Core-seconds consumed by one group up to the last accrual.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist (it may have been removed — query
    /// before [`remove_group`](Self::remove_group)).
    pub fn group_core_seconds(&self, group: CpuGroupId) -> f64 {
        self.groups
            .get(&group)
            .expect("unknown CPU group")
            .core_seconds
    }

    /// Number of runnable tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks in `group` (0 if the group is unknown).
    pub fn group_task_count(&self, group: CpuGroupId) -> u64 {
        self.groups.get(&group).map_or(0, |g| g.members)
    }

    /// Remaining work of a task, if it is still running.
    pub fn task_remaining(&self, task: CpuTaskId) -> Option<SimDuration> {
        self.tasks
            .get(&task)
            .map(|t| SimDuration::from_secs_f64(t.remaining.max(0.0)))
    }

    /// Current core allocation of a task, if it is still running.
    pub fn task_rate(&self, task: CpuTaskId) -> Option<f64> {
        self.tasks.get(&task).map(|t| t.rate)
    }

    fn accrue(&mut self, now: SimTime) {
        assert!(
            now >= self.last_accrual,
            "CPU model cannot move backwards: {now} < {}",
            self.last_accrual
        );
        let dt = now
            .saturating_duration_since(self.last_accrual)
            .as_secs_f64();
        if dt > 0.0 {
            for t in self.tasks.values_mut() {
                let burned = t.rate * dt;
                let counted = burned.min(t.remaining.max(0.0));
                self.core_seconds += counted;
                self.groups
                    .get_mut(&t.group)
                    .expect("task pointed at missing group")
                    .core_seconds += counted;
                t.remaining -= burned;
            }
        }
        self.last_accrual = now;
    }

    /// Weighted max-min fair allocation of `self.cores` across groups
    /// (demand = min(cap, sum of member demands)), then equal split within
    /// each group capped by per-task demand.
    fn recompute_rates(&mut self) {
        // Per-group demand.
        let mut demand: BTreeMap<CpuGroupId, f64> = BTreeMap::new();
        for t in self.tasks.values() {
            *demand.entry(t.group).or_insert(0.0) += t.demand;
        }
        for (gid, d) in demand.iter_mut() {
            if let Some(cap) = self.groups[gid].cap {
                *d = d.min(cap);
            }
        }
        // Weighted max-min (progressive filling): visiting groups in
        // ascending demand/weight order, a group is pinned at its demand if
        // that is below its proportional share of what remains; once one
        // group's share falls short, all later groups (larger demand/weight)
        // also fall short, so the remainder is split proportionally.
        let mut alloc: BTreeMap<CpuGroupId, f64> = BTreeMap::new();
        let mut order: Vec<(CpuGroupId, f64, f64)> = demand
            .iter()
            .map(|(&g, &d)| (g, d, self.groups[&g].weight))
            .collect();
        order.sort_by(|a, b| {
            let ra = a.1 / a.2;
            let rb = b.1 / b.2;
            ra.partial_cmp(&rb)
                .expect("finite ratios")
                .then(a.0.cmp(&b.0))
        });
        let mut remaining = self.cores;
        let mut weight_left: f64 = order.iter().map(|&(_, _, w)| w).sum();
        let mut i = 0;
        while i < order.len() {
            let (g, d, w) = order[i];
            let share = remaining * w / weight_left;
            if d <= share + 1e-12 {
                alloc.insert(g, d);
                remaining -= d;
                weight_left -= w;
                i += 1;
            } else {
                // Everyone from here on is share-limited.
                let pool = remaining.max(0.0);
                for &(g2, _, w2) in &order[i..] {
                    alloc.insert(g2, pool * w2 / weight_left);
                }
                break;
            }
        }
        // Within each group: equal split capped by per-task demand, water-
        // filled the same way over the member tasks.
        let mut members: BTreeMap<CpuGroupId, Vec<CpuTaskId>> = BTreeMap::new();
        for (id, t) in &self.tasks {
            members.entry(t.group).or_default().push(*id);
        }
        for (gid, ids) in members {
            let mut budget = alloc[&gid];
            let mut tasks: Vec<(CpuTaskId, f64)> =
                ids.iter().map(|id| (*id, self.tasks[id].demand)).collect();
            tasks.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("demand is finite")
                    .then(a.0.cmp(&b.0))
            });
            let mut left = tasks.len();
            for (tid, d) in tasks {
                let fair = budget / left as f64;
                let r = d.min(fair);
                self.tasks.get_mut(&tid).expect("member task exists").rate = r;
                budget -= r;
                left -= 1;
            }
        }
    }
}

#[cfg(test)]
mod differential {
    use super::CpuModel as Oracle;
    use crate::cpu::{self, CpuModel};
    use crate::time::{SimDuration, SimTime};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    type Outcome = Result<(), TestCaseError>;

    /// The two models under one op sequence. Task and group ids pair up by
    /// creation order; `tasks` holds only the runnable ones, in id order.
    struct Pair {
        flat: CpuModel,
        oracle: Oracle,
        groups: Vec<(cpu::CpuGroupId, super::CpuGroupId)>,
        tasks: Vec<(cpu::CpuTaskId, super::CpuTaskId)>,
        now: SimTime,
    }

    impl Pair {
        fn new(cores: f64) -> Self {
            Pair {
                flat: CpuModel::new(cores),
                oracle: Oracle::new(cores),
                groups: Vec::new(),
                tasks: Vec::new(),
                now: SimTime::ZERO,
            }
        }

        fn create_group(&mut self, cap: Option<f64>) {
            self.groups
                .push((self.flat.create_group(cap), self.oracle.create_group(cap)));
        }

        fn add_task(&mut self, group: usize, work: SimDuration) {
            let (g, og) = self.groups[group % self.groups.len()];
            self.tasks.push((
                self.flat.add_task(self.now, g, work),
                self.oracle.add_task(self.now, og, work),
            ));
        }

        /// Advances both models and checks they retire the same tasks in
        /// the same order.
        fn advance(&mut self, to: SimTime) -> Outcome {
            self.now = to;
            let done = self.flat.advance_to(to).to_vec();
            let oracle_done = self.oracle.advance_to(to);
            prop_assert_eq!(done.len(), oracle_done.len(), "completions at {to}");
            for (id, oid) in done.iter().zip(&oracle_done) {
                let at = self.tasks.binary_search_by_key(id, |p| p.0);
                prop_assert!(at.is_ok(), "flat model retired unknown {id:?}");
                let (_, paired) = self.tasks.remove(at.unwrap());
                prop_assert_eq!(paired, *oid, "completion order at {to}");
            }
            Ok(())
        }

        fn next_completion(&self, at: SimTime) -> Outcome {
            let flat = self.flat.next_completion(at);
            let oracle = self.oracle.next_completion(at);
            prop_assert_eq!(flat.map(|(t, _)| t), oracle.map(|(t, _)| t));
            if let (Some((_, id)), Some((_, oid))) = (flat, oracle) {
                let pair = self.tasks.iter().find(|p| p.0 == id);
                prop_assert_eq!(pair.map(|p| p.1), Some(oid), "completing task at {at}");
            }
            Ok(())
        }

        /// Every observable f64 of the two models, compared by bit pattern.
        fn check(&self) -> Outcome {
            let (flat, oracle) = (&self.flat, &self.oracle);
            prop_assert_eq!(flat.task_count(), oracle.task_count());
            prop_assert_eq!(flat.task_count(), self.tasks.len());
            for &(t, ot) in &self.tasks {
                prop_assert_eq!(
                    flat.task_rate(t).map(f64::to_bits),
                    oracle.task_rate(ot).map(f64::to_bits),
                    "rate of {t:?}"
                );
                prop_assert_eq!(flat.task_remaining(t), oracle.task_remaining(ot));
            }
            prop_assert_eq!(flat.busy_cores().to_bits(), oracle.busy_cores().to_bits());
            prop_assert_eq!(
                flat.core_seconds().to_bits(),
                oracle.core_seconds().to_bits()
            );
            for &(g, og) in &self.groups {
                prop_assert_eq!(flat.group_task_count(g), oracle.group_task_count(og));
                prop_assert_eq!(
                    flat.group_core_seconds(g).to_bits(),
                    oracle.group_core_seconds(og).to_bits(),
                    "core-seconds of {g:?}"
                );
                prop_assert_eq!(
                    flat.group_weight(g).to_bits(),
                    oracle.group_weight(og).to_bits()
                );
            }
            self.next_completion(self.now)
        }
    }

    /// A recycled slab slot must not change the water-filling order: groups
    /// with equal `demand / weight` sort by creation, and with unequal
    /// weights that order shows in the last bit of `weight_left`.
    #[test]
    fn ratio_ties_break_by_creation_order_after_slot_reuse() -> Outcome {
        for tenths in 1..60 {
            let mut pair = Pair::new(1.0);
            for _ in 0..3 {
                pair.create_group(None);
            }
            // Free the middle slot and hand it to the youngest group.
            let (g, og) = pair.groups.remove(1);
            pair.flat.remove_group(pair.now, g);
            pair.oracle.remove_group(pair.now, og);
            pair.create_group(None);
            // Group 0 sorts first; groups 1 and 2 tie at 1/0.3 == 2/0.6.
            for (group, weight, members) in
                [(0, f64::from(tenths) / 10.0, 1), (1, 0.3, 1), (2, 0.6, 2)]
            {
                let (g, og) = pair.groups[group];
                pair.flat.set_group_weight(pair.now, g, weight);
                pair.oracle.set_group_weight(pair.now, og, weight);
                for _ in 0..members {
                    pair.add_task(group, SimDuration::from_millis(10));
                }
            }
            pair.check()?;
        }
        Ok(())
    }

    proptest! {
        /// Random op sequences over 1–2,000 runnable tasks: capped and
        /// uncapped groups, single and bulk re-weighting, bursts of equal
        /// tasks (simultaneous completions), zero-work tasks, cancellation,
        /// `next_completion` ahead of the accrual point, and group removal
        /// with slot reuse.
        #[test]
        fn flat_model_is_bit_identical_to_the_reference(
            cores in 1u32..33,
            scale in 0u32..12,
            ops in proptest::collection::vec((0u8..12, 0u32..1_000_000, 0u32..1_000_000), 1..120),
        ) {
            // Log-uniform sizes: the reference costs O(n) per operation.
            let max_runnable = (1usize << scale).min(2_000);
            let mut pair = Pair::new(f64::from(cores) / 2.0);
            pair.create_group(None);
            for (op, a, b) in ops {
                let (a, b) = (a as usize, u64::from(b));
                let room = max_runnable.saturating_sub(pair.tasks.len());
                if matches!(op, 2 | 3 | 10 | 11) {
                    // These accrue on their own (an empty sweep must not),
                    // so let them meet an accrual point in the past.
                    pair.now += SimDuration::from_micros(b % 100);
                }
                match op {
                    0 => pair.create_group(None),
                    1 => pair.create_group(Some((a % 16 + 1) as f64 / 4.0)),
                    2 => {
                        let (g, og) = pair.groups[a % pair.groups.len()];
                        let weight = (b % 400 + 1) as f64 / 8.0;
                        pair.flat.set_group_weight(pair.now, g, weight);
                        pair.oracle.set_group_weight(pair.now, og, weight);
                    }
                    3 => {
                        // Every `stride`-th group, so the sweep is sometimes
                        // empty and sometimes the whole host.
                        let stride = a % 4 + 1;
                        let picked = pair.groups.iter().skip(a % 3).step_by(stride);
                        let weight = |i: usize| ((b as usize + 37 * i) % 400 + 1) as f64 / 8.0;
                        let sweep: Vec<_> = picked.clone().enumerate()
                            .map(|(i, &(_, og))| (og, weight(i)))
                            .collect();
                        pair.flat.set_group_weights(
                            pair.now,
                            picked.enumerate().map(|(i, &(g, _))| (g, weight(i))),
                        );
                        pair.oracle.set_group_weights(pair.now, &sweep);
                    }
                    4 | 5 if room > 0 => {
                        let work = if b % 7 == 0 { 0 } else { b % 50_000 };
                        pair.add_task(a, SimDuration::from_micros(work));
                    }
                    6 if room > 0 => {
                        // A burst of equal tasks spread over a few groups.
                        let spread = a % 5 + 1;
                        for i in 0..(a % max_runnable + 1).min(room) {
                            pair.add_task(a + i % spread, SimDuration::from_micros(b % 20_000));
                        }
                    }
                    7 => {
                        let to = pair.now + SimDuration::from_micros(b % 5_000);
                        pair.advance(to)?;
                    }
                    8 => {
                        // The pump: advance to exactly the next completion.
                        if let Some((when, _)) = pair.flat.next_completion(pair.now) {
                            pair.advance(when)?;
                        }
                    }
                    9 => pair.next_completion(pair.now + SimDuration::from_micros(b % 3_000 + 1))?,
                    10 if !pair.tasks.is_empty() => {
                        let (t, ot) = pair.tasks.remove(a % pair.tasks.len());
                        prop_assert_eq!(
                            pair.flat.cancel_task(pair.now, t),
                            pair.oracle.cancel_task(pair.now, ot)
                        );
                    }
                    11 => {
                        let empty = pair.groups.iter()
                            .position(|&(g, _)| pair.flat.group_task_count(g) == 0);
                        if let Some(at) = empty.filter(|_| pair.groups.len() > 1) {
                            let (g, og) = pair.groups.remove(at);
                            pair.flat.remove_group(pair.now, g);
                            pair.oracle.remove_group(pair.now, og);
                            prop_assert_eq!(pair.flat.group_task_count(g), 0);
                        }
                    }
                    _ => {}
                }
                pair.check()?;
            }
            // Drain: pump for a while, then let everything left run out.
            for _ in 0..200 {
                let Some((when, _)) = pair.flat.next_completion(pair.now) else { break };
                pair.advance(when)?;
                pair.check()?;
            }
            pair.advance(pair.now + SimDuration::from_secs(3_600))?;
            pair.check()?;
            prop_assert!(pair.tasks.is_empty());
        }
    }
}
