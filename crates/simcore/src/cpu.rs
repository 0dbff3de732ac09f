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
//! Tasks live in one id-ordered table, groups in a slab, and every temporary
//! is owned by the model, so the steady state allocates nothing. The *order*
//! of every floating-point sum here is simulated semantics (DESIGN.md §16).
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

use crate::time::{SimDuration, SimTime};

/// Identifies a task inside a [`CpuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuTaskId(u64);

/// Identifies a scheduling group (e.g. one container) inside a [`CpuModel`].
///
/// Ordered by creation (`seq` compares first): that order breaks ties in the
/// water-filling sort, so it must not depend on which slab slot was reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuGroupId {
    seq: u64,
    slot: usize,
}

/// Work remaining below this many core-seconds counts as complete; it absorbs
/// floating-point residue from rate integration.
const WORK_EPSILON: f64 = 1e-9;

/// `Group::seq` of a slab slot that is on the free list.
const FREE: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Task {
    id: CpuTaskId,
    /// Slab slot of the task's group.
    slot: usize,
    /// Core-seconds of work left.
    remaining: f64,
    /// Current core allocation, recomputed on every membership change.
    rate: f64,
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
    members: u64,
    /// Core-seconds this group has consumed.
    core_seconds: f64,
    /// Scratch of `recompute_rates`: cores the group may use (its demand,
    /// cut to its share when the host falls short) that no member has been
    /// given yet, and the members still waiting for theirs.
    budget: f64,
    left: u64,
}

/// Deterministic processor-sharing model of a `cores`-core host.
#[derive(Debug, Clone)]
pub struct CpuModel {
    cores: f64,
    /// Runnable tasks in ascending id order (ids are monotone, so insertion
    /// is a push).
    tasks: Vec<Task>,
    groups: Vec<Group>,
    /// Vacant slots of `groups`.
    free: Vec<usize>,
    /// Reused buffers: the groups with runnable tasks in water-filling order
    /// (`demand / weight`, ties by creation), and the tasks retired by the
    /// latest `advance_to`.
    order: Vec<(f64, CpuGroupId)>,
    done: Vec<CpuTaskId>,
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
            tasks: Vec::new(),
            groups: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            done: Vec::new(),
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
        let seq = self.next_group;
        self.next_group += 1;
        let group = Group {
            seq,
            cap,
            weight: 1.0,
            members: 0,
            core_seconds: 0.0,
            budget: 0.0,
            left: 0,
        };
        let slot = self.free.pop().unwrap_or(self.groups.len());
        if slot == self.groups.len() {
            self.groups.push(group);
        } else {
            self.groups[slot] = group;
        }
        CpuGroupId { seq, slot }
    }

    fn group(&self, id: CpuGroupId) -> Option<&Group> {
        self.groups.get(id.slot).filter(|g| g.seq == id.seq)
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
        self.group(group).expect("unknown CPU group").weight
    }

    /// Updates many group weights with a single rate recomputation. Use
    /// this for periodic re-prioritisation sweeps (e.g. SFS aging). An empty
    /// sweep does nothing, not even accrue.
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
        let mut updates = updates.into_iter().peekable();
        if updates.peek().is_none() {
            return;
        }
        self.accrue(now, false);
        for (group, weight) in updates {
            assert!(
                weight.is_finite() && weight > 0.0,
                "invalid group weight: {weight}"
            );
            self.group_mut(group).weight = weight;
        }
        self.recompute_rates();
    }

    /// Removes an empty group; its slab slot is reused by a later
    /// [`create_group`](Self::create_group).
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or still has tasks.
    pub fn remove_group(&mut self, now: SimTime, group: CpuGroupId) {
        self.accrue(now, false);
        let g = self.group_mut(group);
        assert_eq!(g.members, 0, "cannot remove non-empty CPU group");
        g.seq = FREE;
        self.free.push(group.slot);
    }

    /// Adds a task with `work` core-seconds of computation to `group`.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or `now` precedes the last accrual.
    pub fn add_task(&mut self, now: SimTime, group: CpuGroupId, work: SimDuration) -> CpuTaskId {
        self.accrue(now, false);
        self.group_mut(group).members += 1;
        let id = CpuTaskId(self.next_task);
        self.next_task += 1;
        self.tasks.push(Task {
            id,
            slot: group.slot,
            remaining: work.as_secs_f64(),
            rate: 0.0,
        });
        self.recompute_rates();
        id
    }

    fn task(&self, id: CpuTaskId) -> Option<usize> {
        self.tasks.binary_search_by_key(&id, |t| t.id).ok()
    }

    /// Cancels a task, discarding its remaining work.
    ///
    /// Returns the unfinished core-seconds, or `None` if the task is unknown
    /// (e.g. already completed).
    pub fn cancel_task(&mut self, now: SimTime, task: CpuTaskId) -> Option<SimDuration> {
        self.accrue(now, false);
        let t = self.tasks.remove(self.task(task)?);
        self.groups[t.slot].members -= 1;
        self.recompute_rates();
        Some(SimDuration::from_secs_f64(t.remaining.max(0.0)))
    }

    /// Advances the clock to `now`, accruing progress, and removes every task
    /// that finished by then. Completed task ids are returned in ascending
    /// id order (deterministic); the slice is valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous accrual point.
    pub fn advance_to(&mut self, now: SimTime) -> &[CpuTaskId] {
        self.done.clear();
        self.accrue(now, true);
        if !self.done.is_empty() {
            self.recompute_rates();
        }
        &self.done
    }

    /// The earliest upcoming task completion given current allocations.
    ///
    /// Returns the absolute completion instant (rounded *up* to the next
    /// microsecond so the task is guaranteed done when the caller advances to
    /// it) and the completing task — the lowest id among equals. `None` when
    /// no runnable task exists.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, CpuTaskId)> {
        debug_assert!(now >= self.last_accrual);
        let elapsed = now
            .saturating_duration_since(self.last_accrual)
            .as_secs_f64();
        let mut best: Option<(f64, CpuTaskId)> = None;
        for t in &self.tasks {
            if t.rate <= 0.0 {
                continue;
            }
            let remaining_at_now = (t.remaining - elapsed * t.rate).max(0.0);
            let secs = remaining_at_now / t.rate;
            if best.is_none_or(|(b, _)| secs < b) {
                best = Some((secs, t.id));
            }
        }
        best.map(|(secs, id)| {
            let micros = (secs * 1e6).ceil() as u64;
            (now + SimDuration::from_micros(micros), id)
        })
    }

    /// Instantaneous busy-core count (sum of task rates).
    pub fn busy_cores(&self) -> f64 {
        self.tasks.iter().map(|t| t.rate).sum()
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
        self.group(group).expect("unknown CPU group").core_seconds
    }

    /// Number of runnable tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks in `group` (0 if the group is unknown).
    pub fn group_task_count(&self, group: CpuGroupId) -> u64 {
        self.group(group).map_or(0, |g| g.members)
    }

    /// Remaining work of a task, if it is still running.
    pub fn task_remaining(&self, task: CpuTaskId) -> Option<SimDuration> {
        let t = &self.tasks[self.task(task)?];
        Some(SimDuration::from_secs_f64(t.remaining.max(0.0)))
    }

    /// Current core allocation of a task, if it is still running.
    pub fn task_rate(&self, task: CpuTaskId) -> Option<f64> {
        Some(self.tasks[self.task(task)?].rate)
    }

    /// Moves the accrual point to `now`, charging every task its progress in
    /// ascending id order; with `retire`, the same pass moves the tasks that
    /// are finished by then to `self.done`.
    fn accrue(&mut self, now: SimTime, retire: bool) {
        assert!(
            now >= self.last_accrual,
            "CPU model cannot move backwards: {now} < {}",
            self.last_accrual
        );
        let dt = now
            .saturating_duration_since(self.last_accrual)
            .as_secs_f64();
        self.last_accrual = now;
        if dt <= 0.0 && !retire {
            return;
        }
        self.tasks.retain_mut(|t| {
            let g = &mut self.groups[t.slot];
            if dt > 0.0 {
                let burned = t.rate * dt;
                let counted = burned.min(t.remaining.max(0.0));
                self.core_seconds += counted;
                g.core_seconds += counted;
                t.remaining -= burned;
            }
            let finished = retire && t.remaining <= WORK_EPSILON;
            if finished {
                g.members -= 1;
                self.done.push(t.id);
            }
            !finished
        });
    }

    /// Weighted max-min fair allocation of `self.cores` across groups
    /// (demand = min(cap, members): every task demands one core), then a
    /// sequential equal split within each group.
    fn recompute_rates(&mut self) {
        self.order.clear();
        for (slot, g) in self.groups.iter_mut().enumerate() {
            if g.members > 0 {
                let members = g.members as f64;
                g.budget = g.cap.map_or(members, |cap| members.min(cap));
                g.left = g.members;
                let id = CpuGroupId { seq: g.seq, slot };
                self.order.push((g.budget / g.weight, id));
            }
        }
        // Weighted max-min (progressive filling): visiting groups in
        // ascending demand/weight order, a group is pinned at its demand if
        // that is below its proportional share of what remains; once one
        // group's share falls short, all later groups (larger demand/weight)
        // also fall short, so the remainder is split proportionally. Keys
        // are unique (they end in the group id), so an unstable sort is exact.
        self.order
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let weights = self
            .order
            .iter()
            .map(|&(_, id)| self.groups[id.slot].weight);
        let mut weight_left: f64 = weights.sum();
        let mut remaining = self.cores;
        for (i, &(_, id)) in self.order.iter().enumerate() {
            let g = &self.groups[id.slot];
            let share = remaining * g.weight / weight_left;
            if g.budget <= share + 1e-12 {
                remaining -= g.budget;
                weight_left -= g.weight;
            } else {
                // Everyone from here on is share-limited.
                let pool = remaining.max(0.0);
                for &(_, id) in &self.order[i..] {
                    let g = &mut self.groups[id.slot];
                    g.budget = pool * g.weight / weight_left;
                }
                break;
            }
        }
        // Within each group: the budget is handed out member by member in
        // ascending task id, each taking an equal part of what is left.
        for t in &mut self.tasks {
            let g = &mut self.groups[t.slot];
            t.rate = 1.0f64.min(g.budget / g.left as f64);
            g.budget -= t.rate;
            g.left -= 1;
        }
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
    fn cancel_returns_remaining_work() {
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        let t = cpu.add_task(SimTime::ZERO, g, secs(2.0));
        let left = cpu.cancel_task(SimTime::from_secs(1), t).unwrap();
        assert!((left.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(cpu.task_count(), 0);
        assert!(cpu.cancel_task(SimTime::from_secs(1), t).is_none());
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
        assert!((cpu.utilization() - 1.0).abs() < 1e-9);
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
        // Work conservation: the long task still finishes at exactly 1 s.
        assert_eq!(find(tl), SimTime::from_secs(1));
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
        // change) must return the same absolute instant.
        let mut cpu = CpuModel::new(1.0);
        let g = cpu.create_group(None);
        cpu.add_task(SimTime::ZERO, g, secs(1.0));
        let (a, _) = cpu.next_completion(SimTime::ZERO).unwrap();
        let (b, _) = cpu.next_completion(SimTime::from_millis(400)).unwrap();
        assert!(a.saturating_duration_since(b).as_micros() <= 1);
        assert!(b.saturating_duration_since(a).as_micros() <= 1);
    }
}
