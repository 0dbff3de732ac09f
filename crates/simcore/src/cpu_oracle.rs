//! Naive reference for [`crate::cpu`]: the same processor-sharing semantics
//! with progress kept per *task*, for the differential tests below.
//!
//! Every task carries its own remaining work in ticks, and every operation
//! walks every task and re-divides the host from scratch. The reference
//! shares the f64 water-filling ([`water_fill`] over [`Fill`] entries, the
//! one order-dependent computation) with the model and nothing else; group
//! clocks, finish-tag heaps and the incrementally sorted active list must
//! reproduce it exactly — `==` on integers, no tolerance.

use crate::cpu::{water_fill, Fill};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

struct Group {
    cap: Option<f64>,
    weight: f64,
    /// Ticks per microsecond each member gains.
    rate: u64,
    /// Core-ticks consumed.
    ticks: u128,
}

struct Task {
    id: u64,
    group: usize,
    /// Ticks of work left.
    remaining: u128,
}

/// Groups and tasks are numbered in creation order, as in the model.
#[derive(Default)]
struct Reference {
    cores: f64,
    /// Removed groups stay, memberless.
    groups: Vec<Group>,
    /// Runnable tasks in ascending id.
    tasks: Vec<Task>,
    last_accrual: SimTime,
    ticks: u128,
    next_task: u64,
}

impl Reference {
    fn create_group(&mut self, cap: Option<f64>) -> usize {
        let (weight, rate, ticks) = (1.0, 0, 0);
        self.groups.push(Group {
            cap,
            weight,
            rate,
            ticks,
        });
        self.groups.len() - 1
    }

    fn set_group_weights(&mut self, now: SimTime, updates: &[(usize, f64)]) {
        self.accrue(now);
        for &(group, weight) in updates {
            self.groups[group].weight = weight;
        }
        self.refill();
    }

    fn idle(&self, group: usize) -> bool {
        self.tasks.iter().all(|t| t.group != group)
    }

    fn remove_group(&mut self, now: SimTime, group: usize) {
        self.accrue(now);
        assert!(self.idle(group));
    }

    fn add_task(&mut self, now: SimTime, group: usize, work: SimDuration) -> u64 {
        self.accrue(now);
        let (id, remaining) = (self.next_task, u128::from(work.as_micros()) << 32);
        self.next_task += 1;
        self.tasks.push(Task {
            id,
            group,
            remaining,
        });
        self.refill();
        id
    }

    /// Retires the tasks with no work left, in ascending id.
    fn advance_to(&mut self, now: SimTime) -> Vec<u64> {
        self.accrue(now);
        let done = self.tasks.iter().filter(|t| t.remaining == 0);
        let done: Vec<u64> = done.map(|t| t.id).collect();
        self.tasks.retain(|t| t.remaining > 0);
        self.refill();
        done
    }

    /// When `task` finishes at its current rate, rounded up to a microsecond.
    fn completion_of(&self, task: &Task) -> Option<SimTime> {
        let micros = match (task.remaining, u128::from(self.groups[task.group].rate)) {
            (0, _) => 0,
            (_, 0) => return None,
            (left, rate) => u64::try_from(left.div_ceil(rate)).unwrap_or(u64::MAX),
        };
        let at = self.last_accrual.as_micros().saturating_add(micros);
        Some(SimTime::from_micros(at))
    }

    /// The earliest completion and the task announced for it: of each
    /// group's next finisher (least work left, then lowest id), the lowest id
    /// among those due first.
    fn next_completion(&self) -> Option<(SimTime, u64)> {
        let mut first: BTreeMap<usize, &Task> = BTreeMap::new();
        for t in &self.tasks {
            let first = first.entry(t.group).or_insert(t);
            if (t.remaining, t.id) < (first.remaining, first.id) {
                *first = t;
            }
        }
        let due = first.values();
        due.filter_map(|t| Some((self.completion_of(t)?, t.id)))
            .min()
    }

    fn accrue(&mut self, now: SimTime) {
        let dt = u128::from((now - self.last_accrual).as_micros());
        self.last_accrual = now;
        for t in &mut self.tasks {
            let g = &mut self.groups[t.group];
            let burned = (u128::from(g.rate) * dt).min(t.remaining);
            t.remaining -= burned;
            g.ticks += burned;
            self.ticks += burned;
        }
    }

    fn refill(&mut self) {
        let mut members = vec![0usize; self.groups.len()];
        for t in &self.tasks {
            members[t.group] += 1;
        }
        let mut order: Vec<Fill> = (0..self.groups.len())
            .filter(|&g| members[g] > 0)
            .map(|g| {
                Fill::new(
                    g as u64,
                    g,
                    self.groups[g].cap,
                    self.groups[g].weight,
                    members[g],
                )
            })
            .collect();
        order.sort_by(Fill::order);
        water_fill(self.cores, &mut order);
        for f in order {
            self.groups[f.slot].rate = f.rate;
        }
    }
}

#[cfg(test)]
mod differential {
    use super::Reference;
    use crate::cpu::{CpuGroupId, CpuModel, CpuTaskId};
    use crate::time::{SimDuration, SimTime};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    type Outcome = Result<(), TestCaseError>;

    /// The two models under one op sequence. Task and group ids pair up by
    /// creation order; `tasks` holds only the runnable ones, in id order.
    struct Pair {
        model: CpuModel,
        reference: Reference,
        groups: Vec<(CpuGroupId, usize)>,
        tasks: Vec<(CpuTaskId, u64)>,
        now: SimTime,
    }

    impl Pair {
        fn new(cores: f64) -> Self {
            Pair {
                model: CpuModel::new(cores),
                reference: Reference {
                    cores,
                    ..Reference::default()
                },
                groups: Vec::new(),
                tasks: Vec::new(),
                now: SimTime::ZERO,
            }
        }

        fn create_group(&mut self, cap: Option<f64>) {
            let pair = (
                self.model.create_group(cap),
                self.reference.create_group(cap),
            );
            self.groups.push(pair);
        }

        fn remove_group(&mut self, at: usize) {
            let (g, rg) = self.groups.remove(at);
            self.model.remove_group(self.now, g);
            self.reference.remove_group(self.now, rg);
        }

        fn add_task(&mut self, group: usize, work: SimDuration) {
            let (g, rg) = self.groups[group % self.groups.len()];
            self.tasks.push((
                self.model.add_task(self.now, g, work),
                self.reference.add_task(self.now, rg, work),
            ));
        }

        /// Re-weights the groups at `picked` (indices into `self.groups`).
        fn set_weights(&mut self, picked: &[usize], weight: impl Fn(usize) -> f64) {
            let sweep: Vec<_> = picked
                .iter()
                .map(|&i| (self.groups[i].1, weight(i)))
                .collect();
            self.model.set_group_weights(
                self.now,
                picked.iter().map(|&i| (self.groups[i].0, weight(i))),
            );
            self.reference.set_group_weights(self.now, &sweep);
        }

        /// Advances both models and checks they retire the same tasks in
        /// the same order; returns how many.
        fn advance(&mut self, to: SimTime) -> Result<usize, TestCaseError> {
            self.now = to;
            let done = self.model.advance_to(to).to_vec();
            let reference_done = self.reference.advance_to(to);
            prop_assert_eq!(done.len(), reference_done.len(), "completions at {to}");
            for (id, rid) in done.iter().zip(&reference_done) {
                let at = self.tasks.binary_search_by_key(id, |p| p.0);
                prop_assert!(at.is_ok(), "model retired unknown {id:?}");
                let (_, paired) = self.tasks.remove(at.unwrap());
                prop_assert_eq!(paired, *rid, "completion order at {to}");
            }
            Ok(done.len())
        }

        /// Same instant (no earlier than the asking `at`), same task.
        fn next_completion(&mut self, at: SimTime) -> Outcome {
            let model = self.model.next_completion(at);
            let paired = model.map(|(when, id)| {
                let pair = self.tasks.iter().find(|p| p.0 == id);
                (when, pair.map(|p| p.1))
            });
            let reference = self.reference.next_completion();
            prop_assert_eq!(paired, reference.map(|(when, id)| (when.max(at), Some(id))));
            Ok(())
        }

        /// Every observable of the two models, compared with `==`.
        fn check(&mut self) -> Outcome {
            let (model, reference) = (&mut self.model, &self.reference);
            prop_assert_eq!(model.task_count(), self.tasks.len());
            prop_assert_eq!(reference.tasks.len(), self.tasks.len());
            for (&(t, rt), task) in self.tasks.iter().zip(&reference.tasks) {
                prop_assert_eq!(rt, task.id);
                let rate = reference.groups[task.group].rate as f64 / (1u64 << 32) as f64;
                prop_assert_eq!(model.task_rate(t), Some(rate), "rate of {t:?}");
            }
            // The model charges a finished task until `advance_to` retires
            // it and gives the excess back then; the reference stops at once.
            if reference.tasks.iter().all(|t| t.remaining > 0) {
                prop_assert_eq!(model.core_ticks(), reference.ticks);
                for &(g, rg) in &self.groups {
                    let ticks = reference.groups[rg].ticks;
                    prop_assert_eq!(model.group_core_ticks(g), ticks, "core-ticks of {g:?}");
                }
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
            pair.remove_group(1);
            pair.create_group(None);
            // Group 0 sorts first; groups 1 and 2 tie at 1/0.3 == 2/0.6.
            let weights = [f64::from(tenths) / 10.0, 0.3, 0.6];
            for (group, members) in [(0, 1), (1, 1), (2, 2)] {
                pair.set_weights(&[group], |i| weights[i]);
                for _ in 0..members {
                    pair.add_task(group, SimDuration::from_millis(10));
                }
            }
            pair.check()?;
        }
        Ok(())
    }

    /// The traffic a contended replay puts on the model (`sim_six_contended`
    /// under vanilla and SFS): one capped daemon group holding `launches`
    /// tasks beside `containers` single-task groups, every finished task
    /// replaced in kind (a container's in a fresh group on the vacated
    /// slot), and an SFS-style aging sweep over the containers every few
    /// completions. The two models are compared every `check_every` steps
    /// and at the end.
    fn contended_traffic(
        pair: &mut Pair,
        launches: usize,
        containers: usize,
        steps: usize,
        check_every: usize,
    ) -> Outcome {
        let work = |i: usize| SimDuration::from_micros(1_000 + (i as u64 * 7_919) % 90_000);
        pair.create_group(Some(4.0));
        for i in 0..launches {
            pair.add_task(0, work(i));
        }
        for i in 0..containers {
            pair.create_group(None);
            pair.add_task(1 + i, work(i));
        }
        pair.check()?;
        for step in 0..steps {
            let (when, _) = pair
                .model
                .next_completion(pair.now)
                .expect("tasks are runnable");
            pair.advance(when)?;
            let idle: Vec<_> = (1..pair.groups.len())
                .filter(|&at| pair.reference.idle(pair.groups[at].1))
                .collect();
            let relaunched = launches + containers - pair.tasks.len() - idle.len();
            for at in idle.into_iter().rev() {
                pair.remove_group(at);
            }
            for i in 0..relaunched {
                pair.add_task(0, work(step + i));
            }
            while pair.groups.len() <= containers {
                pair.create_group(None);
                pair.add_task(pair.groups.len() - 1, work(step));
            }
            if step % 5 == 0 {
                pair.now += SimDuration::from_micros(step as u64 % 3);
                let aged: Vec<_> = (1..pair.groups.len()).collect();
                pair.set_weights(&aged, |i| [1.0, 1.0, 4.0, 16.0][(i + step) % 4]);
            }
            if step % check_every == 0 {
                pair.check()?;
            }
        }
        pair.check()
    }

    /// `group_visits / recomputes` is the number of active groups, however
    /// many tasks are runnable in them — and, being a count, repeats exactly.
    /// The host is divided at reads, not per change: filling it with 600
    /// tasks at one instant costs one division, and a step of the traffic
    /// (retirements, removals, re-launches, an aging sweep) costs one more
    /// where a sweep moves the clock over changes not yet divided.
    #[test]
    fn a_recompute_visits_active_groups_not_runnable_tasks() -> Outcome {
        let (launches, containers, steps) = (500, 100, 300);
        let mut filled = Pair::new(32.0);
        contended_traffic(&mut filled, launches, containers, 0, 1)?;
        let stats = filled.model.stats();
        assert_eq!(
            (stats.recomputes, stats.group_visits),
            (1, containers as u64 + 1),
            "600 adds at one instant cost one division"
        );

        let mut pair = Pair::new(32.0);
        contended_traffic(&mut pair, launches, containers, steps, 1)?;
        let stats = pair.model.stats();
        let sweeps_in_time = (0..steps).filter(|s| s % 5 == 0 && s % 3 != 0).count();
        assert!(stats.recomputes > steps as u64, "{stats:?}");
        assert!(
            stats.recomputes <= (1 + steps + sweeps_in_time) as u64,
            "{stats:?}"
        );
        let per_recompute = stats.group_visits as f64 / stats.recomputes as f64;
        assert!(
            per_recompute <= (containers + 1) as f64,
            "{per_recompute} {stats:?}"
        );
        assert!(
            per_recompute >= (containers / 2) as f64,
            "{per_recompute} {stats:?}"
        );
        assert_eq!(pair.model.task_count(), launches + containers);
        assert_eq!(
            stats.heap_ops,
            2 * stats.completions + (launches + containers) as u64
        );
        Ok(())
    }

    proptest! {
        /// Random op sequences over 1–2,000 runnable tasks: capped and
        /// uncapped groups, single, bulk and empty re-weighting at an
        /// accrual point in the past, bursts of equal tasks (simultaneous
        /// completions), zero-work tasks, work beyond 2^32 µs,
        /// `next_completion` ahead of the accrual point, advancing past a
        /// completion, and group removal with slot reuse.
        ///
        /// Every read of rates divides the host, so half the cases
        /// (`check_each` 1) compare the two models after every operation and
        /// the rest only after the quarter of operations drawn `checked` 0.
        /// Between two comparisons changes pile up undivided, re-keyed
        /// entries keep their old rates, and accruals and adds at later
        /// instants run over a stale division.
        #[test]
        fn flat_model_is_bit_identical_to_the_reference(
            cores in 1u32..33,
            scale in 0u32..12,
            check_each in 0u8..2,
            ops in proptest::collection::vec(
                (0u8..12, 0u32..1_000_000, 0u32..1_000_000, 0u8..4),
                1..120,
            ),
        ) {
            // Log-uniform sizes: the reference costs O(n) per operation.
            let max_runnable = (1usize << scale).min(2_000);
            let mut pair = Pair::new(f64::from(cores) / 2.0);
            pair.create_group(None);
            for (op, a, b, checked) in ops {
                let (a, b) = (a as usize, u64::from(b));
                let room = max_runnable.saturating_sub(pair.tasks.len());
                if matches!(op, 2 | 3 | 11) {
                    // These move the accrual point on their own.
                    pair.now += SimDuration::from_micros(b % 100);
                }
                match op {
                    0 => pair.create_group(None),
                    1 => pair.create_group(Some((a % 16 + 1) as f64 / 4.0)),
                    2 => pair.set_weights(&[a % pair.groups.len()], |_| (b % 400 + 1) as f64 / 8.0),
                    3 => {
                        // Every `stride`-th group, so the sweep is sometimes
                        // empty and sometimes the whole host.
                        let picked: Vec<_> = (0..pair.groups.len()).skip(a % 3).step_by(a % 4 + 1).collect();
                        pair.set_weights(&picked, |i| ((b as usize + 37 * i) % 400 + 1) as f64 / 8.0);
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
                        pair.advance(pair.now + SimDuration::from_micros(b % 5_000))?;
                    }
                    8 => {
                        // The pump: advance to exactly the next completion.
                        if let Some((when, _)) = pair.model.next_completion(pair.now) {
                            prop_assert!(pair.advance(when)? > 0, "nothing completed at {when}");
                        }
                    }
                    9 => pair.next_completion(pair.now + SimDuration::from_micros(b % 3_000 + 1))?,
                    10 if room > 0 => pair.add_task(a, SimDuration::from_micros(b << 14)),
                    11 => {
                        let idle = (0..pair.groups.len())
                            .position(|at| pair.reference.idle(pair.groups[at].1));
                        if let Some(at) = idle.filter(|_| pair.groups.len() > 1) {
                            pair.remove_group(at);
                        }
                    }
                    _ => {}
                }
                if check_each == 1 || checked == 0 {
                    pair.check()?;
                }
            }
            pair.check()?;
            // Drain: pump for a while, then let everything left run out.
            for _ in 0..200 {
                let Some((when, _)) = pair.model.next_completion(pair.now) else { break };
                pair.advance(when)?;
                pair.check()?;
            }
            pair.advance(pair.now + SimDuration::from_secs(1_000_000_000))?;
            pair.check()?;
            prop_assert!(pair.tasks.is_empty());
        }

        /// The same differential at the measured traffic shape.
        #[test]
        fn group_clocks_match_the_reference_under_contended_traffic(
            cores in 8u32..65,
            launches in 100usize..601,
            containers in 50usize..151,
            check_every in 1usize..5,
        ) {
            let mut pair = Pair::new(f64::from(cores) / 2.0);
            contended_traffic(&mut pair, launches, containers, 60, check_every)?;
        }
    }
}
