//! Keep-alive (warm) container pool.
//!
//! Serverless platforms keep finished containers around for a while so that a
//! subsequent invocation of the same function gets a *warm start*. The pool
//! tracks idle containers per function with a time-to-live, handing the most
//! recently used one back first (LIFO — the standard keep-alive policy, it
//! maximises the number of containers that age out).
//!
//! There is one pool for both backends. The simulator parks
//! [`ContainerId`]s at virtual instants; the live dispatch core
//! (`faasbatch_core::platform`) parks its container handles at wall-clock
//! instants stamped as µs-since-origin [`SimTime`]s — the pool only ever
//! compares the stamps it is given, so it needs no clock of its own.

use crate::ids::{ContainerId, FunctionId};
use faasbatch_simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Per-function LIFO pool of idle containers `C` with TTL expiry.
///
/// # Examples
///
/// ```
/// use faasbatch_container::ids::{ContainerId, FunctionId};
/// use faasbatch_container::pool::WarmPool;
/// use faasbatch_simcore::time::{SimDuration, SimTime};
///
/// let mut pool = WarmPool::new(SimDuration::from_secs(600));
/// let f = FunctionId::new(0);
/// pool.check_in(SimTime::ZERO, f, ContainerId::new(1));
/// assert_eq!(pool.check_out(SimTime::from_secs(1), f), Some(ContainerId::new(1)));
/// assert_eq!(pool.check_out(SimTime::from_secs(1), f), None);
/// ```
#[derive(Debug, Clone)]
pub struct WarmPool<C = ContainerId> {
    ttl: SimDuration,
    /// Per-function keep-alive overrides set by an autoscaling controller;
    /// functions without an entry use the base `ttl`.
    overrides: BTreeMap<FunctionId, SimDuration>,
    // Indexed by `FunctionId::index()`: a check-out or check-in is one
    // bounds-checked index, and `expire`, `next_expiry` and `remove` walk
    // the functions in ascending id order, so their output is deterministic.
    // A function's queue stays once it has held a container: the steady
    // state of a warm function is one check-out that empties it and one
    // check-in that refills it, and neither should free or allocate.
    idle: Vec<VecDeque<(SimTime, C)>>,
}

impl<C> WarmPool<C> {
    /// Creates a pool whose idle containers expire after `ttl`.
    pub fn new(ttl: SimDuration) -> Self {
        WarmPool {
            ttl,
            overrides: BTreeMap::new(),
            idle: Vec::new(),
        }
    }

    /// The base keep-alive TTL (functions may carry overrides, see
    /// [`ttl_for`](Self::ttl_for)).
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// The keep-alive TTL in force for `function`.
    pub fn ttl_for(&self, function: FunctionId) -> SimDuration {
        self.overrides.get(&function).copied().unwrap_or(self.ttl)
    }

    /// Overrides the keep-alive TTL for one function (autoscaler hook). The
    /// new TTL applies to containers already parked as well as future
    /// check-ins; it is evaluated lazily at check-out / expiry time.
    pub fn set_ttl(&mut self, function: FunctionId, ttl: SimDuration) {
        if ttl == self.ttl {
            self.overrides.remove(&function);
        } else {
            self.overrides.insert(function, ttl);
        }
    }

    /// Parks an idle container.
    pub fn check_in(&mut self, now: SimTime, function: FunctionId, container: C) {
        let index = function.index() as usize;
        if index >= self.idle.len() {
            self.idle.resize_with(index + 1, VecDeque::new);
        }
        self.idle[index].push_back((now, container));
    }

    /// Takes the most recently used warm container for `function`; it never
    /// returns one that has outlived the TTL.
    ///
    /// Stale entries met on the way are dropped from the pool *silently* —
    /// the caller never learns which containers to terminate. The simulated
    /// [`Cluster`](crate::cluster::Cluster) still calls this one (the gap
    /// recorded at [`Cluster::expire_idle`](crate::cluster::Cluster::expire_idle));
    /// a caller that keeps exact teardown accounting uses
    /// [`check_out_reaping`](Self::check_out_reaping).
    pub fn check_out(&mut self, now: SimTime, function: FunctionId) -> Option<C> {
        self.check_out_reaping(now, function, &mut Vec::new())
    }

    /// [`check_out`](Self::check_out), handing every stale entry it drops
    /// to the caller through `stale` (newest first) instead of losing it.
    pub fn check_out_reaping(
        &mut self,
        now: SimTime,
        function: FunctionId,
        stale: &mut Vec<C>,
    ) -> Option<C> {
        let ttl = self.ttl_for(function);
        let q = self.idle.get_mut(function.index() as usize)?;
        while let Some((parked_at, container)) = q.pop_back() {
            if now.saturating_duration_since(parked_at) <= ttl {
                return Some(container);
            }
            stale.push(container);
        }
        None
    }

    /// Removes and returns every container whose idle time exceeded the TTL,
    /// in deterministic order.
    pub fn expire(&mut self, now: SimTime) -> Vec<C> {
        let mut expired = Vec::new();
        for (f, q) in self.idle.iter_mut().enumerate() {
            if q.is_empty() {
                continue;
            }
            let f = FunctionId::new(f as u32);
            let ttl = self.overrides.get(&f).copied().unwrap_or(self.ttl);
            drain_expired(q, now, ttl, &mut expired);
        }
        expired
    }

    /// [`expire`](Self::expire) for one function's queue, oldest first: what
    /// a per-container reaper timer calls, so its cost does not grow with
    /// the number of functions the pool has seen.
    pub fn expire_function(&mut self, now: SimTime, function: FunctionId) -> Vec<C> {
        let mut expired = Vec::new();
        let ttl = self.ttl_for(function);
        if let Some(q) = self.idle.get_mut(function.index() as usize) {
            drain_expired(q, now, ttl, &mut expired);
        }
        expired
    }

    /// Removes a specific container (e.g. when force-terminating), returning
    /// whether it was present.
    pub fn remove(&mut self, container: C) -> bool
    where
        C: PartialEq,
    {
        self.idle.iter_mut().any(|q| {
            let pos = q.iter().position(|(_, c)| *c == container);
            pos.is_some_and(|pos| q.remove(pos).is_some())
        })
    }

    /// Number of idle containers for `function`.
    pub fn idle_count(&self, function: FunctionId) -> usize {
        self.idle
            .get(function.index() as usize)
            .map_or(0, VecDeque::len)
    }

    /// Earliest instant at which some idle container will have exceeded the
    /// TTL, for scheduling reaper events. `None` when the pool is empty.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.idle
            .iter()
            .enumerate()
            .filter_map(|(f, q)| {
                let &(parked_at, _) = q.front()?;
                let ttl = self.ttl_for(FunctionId::new(f as u32));
                Some(parked_at + ttl)
            })
            .min()
    }
}

/// Pops every front (oldest) entry of `q` that has been idle longer than
/// `ttl` at `now` into `expired`.
fn drain_expired<C>(
    q: &mut VecDeque<(SimTime, C)>,
    now: SimTime,
    ttl: SimDuration,
    expired: &mut Vec<C>,
) {
    while let Some(&(parked_at, _)) = q.front() {
        if now.saturating_duration_since(parked_at) <= ttl {
            break;
        }
        expired.extend(q.pop_front().map(|(_, container)| container));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_simcore::rng::DetRng;

    impl<C> WarmPool<C> {
        /// Total idle containers across functions.
        fn total_idle(&self) -> usize {
            self.idle.iter().map(VecDeque::len).sum()
        }
    }

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn c(i: u64) -> ContainerId {
        ContainerId::new(i)
    }

    #[test]
    fn lifo_checkout() {
        let mut p = WarmPool::new(SimDuration::from_secs(10));
        p.check_in(SimTime::ZERO, f(0), c(1));
        p.check_in(SimTime::from_secs(1), f(0), c(2));
        assert_eq!(p.check_out(SimTime::from_secs(2), f(0)), Some(c(2)));
        assert_eq!(p.check_out(SimTime::from_secs(2), f(0)), Some(c(1)));
        assert_eq!(p.check_out(SimTime::from_secs(2), f(0)), None);
    }

    #[test]
    fn functions_are_isolated() {
        let mut p = WarmPool::new(SimDuration::from_secs(10));
        p.check_in(SimTime::ZERO, f(0), c(1));
        assert_eq!(p.check_out(SimTime::ZERO, f(1)), None);
        assert_eq!(p.idle_count(f(0)), 1);
    }

    #[test]
    fn checkout_skips_expired() {
        let mut p = WarmPool::new(SimDuration::from_secs(5));
        p.check_in(SimTime::ZERO, f(0), c(1));
        assert_eq!(p.check_out(SimTime::from_secs(6), f(0)), None);
        assert_eq!(p.total_idle(), 0);
    }

    #[test]
    fn reaping_checkout_hands_back_what_plain_checkout_loses() {
        // The item is whatever the caller parks — here a live-style handle.
        let mut p: WarmPool<std::rc::Rc<str>> = WarmPool::new(SimDuration::from_secs(5));
        p.check_in(SimTime::ZERO, f(0), "old".into());
        p.check_in(SimTime::from_secs(1), f(0), "older-than-ttl".into());
        p.check_in(SimTime::from_secs(4), f(0), "fresh".into());
        let mut stale = Vec::new();
        let got = p.check_out_reaping(SimTime::from_secs(7), f(0), &mut stale);
        assert_eq!(got.as_deref(), Some("fresh"));
        assert!(stale.is_empty(), "nothing stale sits above a fresh entry");
        let got = p.check_out_reaping(SimTime::from_secs(7), f(0), &mut stale);
        assert_eq!(got, None);
        let stale: Vec<&str> = stale.iter().map(|c| &**c).collect();
        assert_eq!(stale, ["older-than-ttl", "old"], "newest first");
        // The emptied function reads as empty everywhere.
        assert_eq!((p.idle_count(f(0)), p.total_idle()), (0, 0));
        assert_eq!(p.next_expiry(), None);
        assert!(p.expire(SimTime::from_secs(99)).is_empty());
    }

    #[test]
    fn boundary_is_inclusive() {
        // Exactly at TTL the container is still warm (expiry is strict `>`).
        let mut p = WarmPool::new(SimDuration::from_secs(5));
        p.check_in(SimTime::ZERO, f(0), c(1));
        assert_eq!(p.check_out(SimTime::from_secs(5), f(0)), Some(c(1)));
    }

    #[test]
    fn expire_reaps_in_order() {
        let mut p = WarmPool::new(SimDuration::from_secs(5));
        p.check_in(SimTime::ZERO, f(0), c(1));
        p.check_in(SimTime::from_secs(1), f(0), c(2));
        p.check_in(SimTime::from_secs(9), f(1), c(3));
        let expired = p.expire(SimTime::from_secs(7));
        assert_eq!(expired, vec![c(1), c(2)]);
        assert_eq!(p.total_idle(), 1);
    }

    #[test]
    fn expire_function_leaves_other_functions_alone() {
        let mut p = WarmPool::new(SimDuration::from_secs(5));
        p.set_ttl(f(1), SimDuration::from_secs(1));
        p.check_in(SimTime::ZERO, f(0), c(1));
        p.check_in(SimTime::from_secs(4), f(0), c(2));
        p.check_in(SimTime::ZERO, f(1), c(3));
        assert!(p.expire_function(SimTime::from_secs(7), f(2)).is_empty());
        assert_eq!(p.expire_function(SimTime::from_secs(7), f(0)), vec![c(1)]);
        assert_eq!((p.idle_count(f(0)), p.idle_count(f(1))), (1, 1));
        // The per-function override governs it as it does `expire`.
        assert_eq!(p.expire_function(SimTime::from_secs(2), f(1)), vec![c(3)]);
    }

    #[test]
    fn next_expiry_tracks_oldest() {
        let mut p = WarmPool::new(SimDuration::from_secs(5));
        assert_eq!(p.next_expiry(), None);
        p.check_in(SimTime::from_secs(2), f(0), c(1));
        p.check_in(SimTime::from_secs(1), f(1), c(2));
        assert_eq!(p.next_expiry(), Some(SimTime::from_secs(6)));
    }

    #[test]
    fn per_function_ttl_override_governs_checkout_and_expiry() {
        let mut p = WarmPool::new(SimDuration::from_secs(10));
        p.set_ttl(f(0), SimDuration::from_secs(2));
        assert_eq!(p.ttl_for(f(0)), SimDuration::from_secs(2));
        assert_eq!(p.ttl_for(f(1)), SimDuration::from_secs(10));
        p.check_in(SimTime::ZERO, f(0), c(1));
        p.check_in(SimTime::ZERO, f(1), c(2));
        // Shrunk TTL applies to the already-parked container.
        assert_eq!(p.next_expiry(), Some(SimTime::from_secs(2)));
        assert_eq!(p.check_out(SimTime::from_secs(3), f(0)), None);
        assert_eq!(p.check_out(SimTime::from_secs(3), f(1)), Some(c(2)));
        // Extending keeps a container warm past the base TTL.
        p.set_ttl(f(1), SimDuration::from_secs(100));
        p.check_in(SimTime::from_secs(3), f(1), c(3));
        let expired = p.expire(SimTime::from_secs(20));
        assert!(expired.is_empty());
        assert_eq!(p.check_out(SimTime::from_secs(50), f(1)), Some(c(3)));
    }

    #[test]
    fn mid_run_ttl_override_rebinds_already_pooled_containers() {
        // Containers parked under the base TTL, then the controller changes
        // the TTL mid-run: the override is evaluated lazily, so it governs
        // containers that were already idle when it landed — in both
        // directions.
        let mut p = WarmPool::new(SimDuration::from_secs(10));
        p.check_in(SimTime::ZERO, f(0), c(1));
        p.check_in(SimTime::ZERO, f(1), c(2));
        assert_eq!(p.next_expiry(), Some(SimTime::from_secs(10)));

        // Shrink f(0): its parked container now dies at 3 s, not 10 s.
        p.set_ttl(f(0), SimDuration::from_secs(3));
        assert_eq!(p.next_expiry(), Some(SimTime::from_secs(3)));
        assert_eq!(p.expire(SimTime::from_secs(4)), vec![c(1)]);
        assert_eq!(p.check_out(SimTime::from_secs(4), f(0)), None);

        // Extend f(1): its parked container survives past the base TTL.
        p.set_ttl(f(1), SimDuration::from_secs(60));
        assert_eq!(p.next_expiry(), Some(SimTime::from_secs(60)));
        assert!(p.expire(SimTime::from_secs(20)).is_empty());
        assert_eq!(p.check_out(SimTime::from_secs(50), f(1)), Some(c(2)));

        // Clearing the override mid-run re-binds parked containers to the
        // base TTL just as lazily.
        p.check_in(SimTime::from_secs(50), f(1), c(3));
        p.set_ttl(f(1), SimDuration::from_secs(10));
        assert_eq!(p.next_expiry(), Some(SimTime::from_secs(60)));
        assert_eq!(p.expire(SimTime::from_secs(61)), vec![c(3)]);
    }

    #[test]
    fn expiry_at_the_exact_boundary_is_deterministic() {
        // `now == parked_at + ttl` keeps the container warm everywhere the
        // TTL is consulted (expiry is strict `>`); one microsecond later it
        // is gone everywhere. The three views — expire(), check_out(), and
        // next_expiry() — must agree on the boundary exactly.
        let ttl = SimDuration::from_secs(5);
        let boundary = SimTime::ZERO + ttl;
        let after = boundary + SimDuration::from_micros(1);

        let mut p = WarmPool::new(ttl);
        p.check_in(SimTime::ZERO, f(0), c(1));
        assert_eq!(p.next_expiry(), Some(boundary));
        assert!(p.expire(boundary).is_empty(), "still warm at the boundary");
        assert_eq!(p.idle_count(f(0)), 1);
        let mut q = p.clone();
        assert_eq!(q.check_out(boundary, f(0)), Some(c(1)));
        assert_eq!(p.expire(after), vec![c(1)]);
        assert_eq!(p.total_idle(), 0);

        // The same strict boundary holds under a per-function override.
        let mut p = WarmPool::new(SimDuration::from_secs(100));
        p.set_ttl(f(0), ttl);
        p.check_in(SimTime::ZERO, f(0), c(2));
        assert_eq!(p.next_expiry(), Some(boundary));
        assert!(p.expire(boundary).is_empty());
        assert_eq!(p.check_out(boundary, f(0)), Some(c(2)));
        p.check_in(SimTime::ZERO, f(0), c(3));
        assert_eq!(p.check_out(after, f(0)), None, "one µs past: reaped");
    }

    #[test]
    fn resetting_ttl_to_base_clears_the_override() {
        let mut p: WarmPool = WarmPool::new(SimDuration::from_secs(10));
        p.set_ttl(f(0), SimDuration::from_secs(2));
        p.set_ttl(f(0), SimDuration::from_secs(10));
        assert_eq!(p.ttl_for(f(0)), SimDuration::from_secs(10));
    }

    #[test]
    fn remove_targets_one_container() {
        let mut p = WarmPool::new(SimDuration::from_secs(50));
        p.check_in(SimTime::ZERO, f(0), c(1));
        p.check_in(SimTime::ZERO, f(0), c(2));
        assert!(p.remove(c(1)));
        assert!(!p.remove(c(1)));
        assert_eq!(p.check_out(SimTime::ZERO, f(0)), Some(c(2)));
        assert_eq!(p.check_out(SimTime::ZERO, f(0)), None);
    }

    /// The pool as it was before its queues went dense: a `BTreeMap` keyed
    /// by function, walked in key order. The reference the dense pool must
    /// match, call for call.
    struct OraclePool {
        ttl: SimDuration,
        overrides: BTreeMap<FunctionId, SimDuration>,
        idle: BTreeMap<FunctionId, VecDeque<(SimTime, ContainerId)>>,
    }

    impl OraclePool {
        fn ttl_for(&self, function: FunctionId) -> SimDuration {
            self.overrides.get(&function).copied().unwrap_or(self.ttl)
        }

        fn set_ttl(&mut self, function: FunctionId, ttl: SimDuration) {
            if ttl == self.ttl {
                self.overrides.remove(&function);
            } else {
                self.overrides.insert(function, ttl);
            }
        }

        fn check_in(&mut self, now: SimTime, function: FunctionId, container: ContainerId) {
            let q = self.idle.entry(function).or_default();
            q.push_back((now, container));
        }

        fn check_out_reaping(
            &mut self,
            now: SimTime,
            function: FunctionId,
            stale: &mut Vec<ContainerId>,
        ) -> Option<ContainerId> {
            let ttl = self.ttl_for(function);
            let q = self.idle.get_mut(&function)?;
            while let Some((parked_at, container)) = q.pop_back() {
                if now.saturating_duration_since(parked_at) <= ttl {
                    return Some(container);
                }
                stale.push(container);
            }
            None
        }

        fn expire(&mut self, now: SimTime) -> Vec<ContainerId> {
            let mut expired = Vec::new();
            for (f, q) in self.idle.iter_mut() {
                let ttl = self.overrides.get(f).copied().unwrap_or(self.ttl);
                drain_expired(q, now, ttl, &mut expired);
            }
            expired
        }

        fn expire_function(&mut self, now: SimTime, function: FunctionId) -> Vec<ContainerId> {
            let mut expired = Vec::new();
            let ttl = self.ttl_for(function);
            if let Some(q) = self.idle.get_mut(&function) {
                drain_expired(q, now, ttl, &mut expired);
            }
            expired
        }

        fn remove(&mut self, container: ContainerId) -> bool {
            self.idle.values_mut().any(|q| {
                let pos = q.iter().position(|(_, c)| *c == container);
                pos.is_some_and(|pos| q.remove(pos).is_some())
            })
        }

        fn idle_count(&self, function: FunctionId) -> usize {
            self.idle.get(&function).map_or(0, VecDeque::len)
        }

        fn total_idle(&self) -> usize {
            self.idle.values().map(VecDeque::len).sum()
        }

        fn next_expiry(&self) -> Option<SimTime> {
            self.idle
                .iter()
                .filter_map(|(f, q)| {
                    let ttl = self.overrides.get(f).copied().unwrap_or(self.ttl);
                    q.front().map(|&(parked_at, _)| parked_at + ttl)
                })
                .min()
        }
    }

    /// Seeded random op sequences over a few sparse function ids (up to
    /// ~5,000), every TTL knob and every query, against [`OraclePool`]:
    /// each return value, and each stale list, must be equal. Walking the
    /// functions in any order but ascending id fails it.
    #[test]
    fn dense_pool_matches_the_btreemap_oracle() {
        let base = SimDuration::from_secs(10);
        for seed in 0..64 {
            let mut rng = DetRng::new(seed);
            let functions: Vec<FunctionId> = (0..12)
                .map(|_| f(rng.uniform_u64(0, 5_000) as u32))
                .collect();
            let ttls = [1, 3, 10, 30].map(SimDuration::from_secs);
            let mut pool = WarmPool::new(base);
            let mut oracle = OraclePool {
                ttl: base,
                overrides: BTreeMap::new(),
                idle: BTreeMap::new(),
            };
            let (mut now, mut next_container) = (SimTime::ZERO, 0);
            for op in 0..2_000 {
                let at = format!("seed {seed}, op {op}");
                now += SimDuration::from_millis(rng.uniform_u64(0, 1_500));
                let function = functions[rng.uniform_u64(0, functions.len() as u64) as usize];
                match rng.uniform_u64(0, 11) {
                    0..=3 => {
                        // Now and then a container id parked before, maybe
                        // under another function: that is what makes the
                        // order `remove` walks the functions in observable.
                        let container = if next_container > 0 && rng.uniform_u64(0, 4) == 0 {
                            c(rng.uniform_u64(1, next_container + 1))
                        } else {
                            next_container += 1;
                            c(next_container)
                        };
                        pool.check_in(now, function, container);
                        oracle.check_in(now, function, container);
                    }
                    4 => assert_eq!(
                        pool.check_out(now, function),
                        oracle.check_out_reaping(now, function, &mut Vec::new()),
                        "{at}"
                    ),
                    5 => {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        assert_eq!(
                            pool.check_out_reaping(now, function, &mut got),
                            oracle.check_out_reaping(now, function, &mut want),
                            "{at}"
                        );
                        assert_eq!(got, want, "{at}");
                    }
                    6 => assert_eq!(pool.expire(now), oracle.expire(now), "{at}"),
                    7 => assert_eq!(
                        pool.expire_function(now, function),
                        oracle.expire_function(now, function),
                        "{at}"
                    ),
                    8 => {
                        let ttl = ttls[rng.uniform_u64(0, ttls.len() as u64) as usize];
                        pool.set_ttl(function, ttl);
                        oracle.set_ttl(function, ttl);
                    }
                    9 => {
                        let container = c(rng.uniform_u64(0, next_container + 2));
                        assert_eq!(pool.remove(container), oracle.remove(container), "{at}");
                    }
                    _ => assert_eq!(pool.next_expiry(), oracle.next_expiry(), "{at}"),
                }
                assert_eq!(
                    pool.idle_count(function),
                    oracle.idle_count(function),
                    "{at}"
                );
                assert_eq!(pool.total_idle(), oracle.total_idle(), "{at}");
                assert_eq!(pool.ttl_for(function), oracle.ttl_for(function), "{at}");
            }
        }
    }
}
