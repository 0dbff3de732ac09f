//! Pluggable routing policies, shared by the simulated fleet and the live
//! gateway.
//!
//! The router places *function groups* (all invocations of one function
//! arriving within one dispatch window), never individual invocations, so
//! the Invoke Mapper's never-split invariant extends to the fleet: a group
//! lands on exactly one worker and is batched there as usual. One
//! [`Router`] — a policy plus the load estimates it reads — drives both
//! `faasbatch-fleet` (simulated replay) and `faasbatch-gateway` (live
//! sharded front door, its shard threads sharing one behind a mutex):
//! [`Router::place`] builds the [`RouterCtx`] a policy sees, so what is
//! routed on is decided in one place for both clocks.
//!
//! Policies see only worker liveness plus router-side load *estimates* —
//! mirroring a real front door that cannot inspect worker internals. All
//! estimator state is deterministic, so routing (and hence the whole fleet
//! replay) is bit-reproducible.

use faasbatch_container::ids::FunctionId;
use faasbatch_simcore::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Router-side load estimate for one worker.
///
/// The router charges each assignment to the estimate at routing time and
/// lets it decay as estimated completions pass — it never reads the worker's
/// actual simulation state.
#[derive(Debug, Clone, Default)]
pub struct WorkerLoad {
    /// Estimated completion instants of assigned, not-yet-finished
    /// invocations, earliest on top (pruned lazily against the routing
    /// clock: [`WorkerLoad::observe`] pops only what has completed, where a
    /// scan would visit every estimate still pending).
    pending: BinaryHeap<Reverse<SimTime>>,
    /// When the worker is estimated to drain everything assigned so far,
    /// treating its capacity as serial (a deliberate, deterministic proxy).
    busy_until: SimTime,
    /// Invocations ever assigned to this worker.
    assigned: u64,
}

impl WorkerLoad {
    /// Estimated invocations still runnable on the worker.
    pub fn runnable(&self) -> usize {
        self.pending.len()
    }

    /// Estimated instant the worker drains its queue.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Invocations ever assigned to this worker.
    pub fn assigned(&self) -> u64 {
        self.assigned
    }

    /// Drops estimates that have completed by `now`.
    pub fn observe(&mut self, now: SimTime) {
        while let Some(&Reverse(done)) = self.pending.peek() {
            if done > now {
                break;
            }
            self.pending.pop();
        }
    }

    /// Charges one invocation of `work` assigned at `now`.
    pub fn note(&mut self, now: SimTime, work: SimDuration) {
        self.busy_until = self.busy_until.max(now) + work;
        self.pending.push(Reverse(now + work));
        self.assigned += 1;
    }
}

/// What a routing policy sees when placing one function group.
#[derive(Debug)]
pub struct RouterCtx<'a> {
    /// First (effective) arrival of the group being placed.
    pub now: SimTime,
    /// The function whose group is being placed.
    pub function: FunctionId,
    /// Liveness per worker at `now`; dead or drained workers are not
    /// eligible and policies must not pick them.
    pub alive: &'a [bool],
    /// Router-side load estimates, one per worker.
    pub load: &'a [WorkerLoad],
}

impl RouterCtx<'_> {
    /// Indices of workers that may receive the group.
    pub fn eligible(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(w, _)| w)
    }
}

/// A fleet routing policy: places one function group on one worker.
/// `Send`, because the live gateway's shard threads share one [`Router`].
pub trait RoutingPolicy: Send {
    /// Policy name as it appears in reports.
    fn name(&self) -> String;

    /// Picks a worker for the group described by `ctx`. Must return an index
    /// with `ctx.alive[index]` true; at least one worker is always alive
    /// when this is called.
    fn route(&mut self, ctx: &RouterCtx<'_>) -> usize;
}

/// The router both backends place groups with: one policy instance — one
/// round-robin cursor, however many threads route — over one set of
/// [`WorkerLoad`] estimates.
///
/// `fleet::sim` owns one per replay; the live gateway shares one behind a
/// mutex between its shard threads. [`Router::place`] is the only place a
/// [`RouterCtx`] is built, so whatever a policy is shown (closed-loop
/// routing would add real queue depth and warm sets) is decided here for
/// both.
pub struct Router {
    policy: Box<dyn RoutingPolicy>,
    load: Vec<WorkerLoad>,
}

impl Router {
    /// A router placing onto `workers` idle workers under `policy`.
    pub fn new(policy: Box<dyn RoutingPolicy>, workers: usize) -> Router {
        Router {
            policy,
            load: vec![WorkerLoad::default(); workers],
        }
    }

    /// The policy's name as it appears in reports.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Places one group of `function` arriving at `now` on a worker with
    /// `alive[worker]` set — at least one must be — and charges it the
    /// estimated work of every member the caller can see: decay every
    /// estimate to `now`, route, charge.
    ///
    /// # Panics
    ///
    /// Panics if the policy picks a worker that is not alive.
    pub fn place(
        &mut self,
        now: SimTime,
        function: FunctionId,
        alive: &[bool],
        members: impl IntoIterator<Item = SimDuration>,
    ) -> usize {
        for load in &mut self.load {
            load.observe(now);
        }
        let worker = self.policy.route(&RouterCtx {
            now,
            function,
            alive,
            load: &self.load,
        });
        assert!(
            alive[worker],
            "routing policy `{}` picked dead worker {worker}",
            self.policy.name()
        );
        for work in members {
            self.charge(worker, now, work);
        }
        worker
    }

    /// Charges one more invocation of `work` to `worker` at `now` — a member
    /// that joins a group after it was placed.
    pub fn charge(&mut self, worker: usize, now: SimTime, work: SimDuration) {
        self.load[worker].note(now, work);
    }
}

/// Cycles through live workers in index order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the policy starting at worker 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> String {
        "round-robin".to_owned()
    }

    fn route(&mut self, ctx: &RouterCtx<'_>) -> usize {
        let n = ctx.alive.len();
        for step in 0..n {
            let w = (self.next + step) % n;
            if ctx.alive[w] {
                self.next = (w + 1) % n;
                return w;
            }
        }
        unreachable!("route called with no live workers")
    }
}

/// Picks the worker with the least runnable-task pressure (fewest estimated
/// in-flight invocations; ties broken by estimated drain time, then index).
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl RoutingPolicy for LeastLoaded {
    fn name(&self) -> String {
        "least-loaded".to_owned()
    }

    fn route(&mut self, ctx: &RouterCtx<'_>) -> usize {
        ctx.eligible()
            .min_by_key(|&w| (ctx.load[w].runnable(), ctx.load[w].busy_until(), w))
            .expect("route called with no live workers")
    }
}

/// Routes each function to a stable hash-derived worker, maximising warm
/// container and multiplexer-cache reuse. When workers fail, the function
/// re-hashes over the surviving set (rendezvous-free but deterministic).
#[derive(Debug, Clone, Default)]
pub struct WarmAffinity;

impl WarmAffinity {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

/// splitmix64 finalizer — a stable, platform-independent hash.
///
/// Used by [`WarmAffinity`] for function→worker placement and by the live
/// gateway for function→shard selection, so the mapping is identical across
/// runs, builds, and machines.
pub fn stable_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RoutingPolicy for WarmAffinity {
    fn name(&self) -> String {
        "warm-affinity".to_owned()
    }

    fn route(&mut self, ctx: &RouterCtx<'_>) -> usize {
        let live: Vec<usize> = ctx.eligible().collect();
        assert!(!live.is_empty(), "route called with no live workers");
        let h = stable_hash(u64::from(ctx.function.index()));
        live[(h % live.len() as u64) as usize]
    }
}

/// Hiku-style pull routing: the worker that has been idle longest (earliest
/// estimated drain instant) pulls the next group from the shared queue.
#[derive(Debug, Clone, Default)]
pub struct PullBased;

impl PullBased {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl RoutingPolicy for PullBased {
    fn name(&self) -> String {
        "pull-based".to_owned()
    }

    fn route(&mut self, ctx: &RouterCtx<'_>) -> usize {
        ctx.eligible()
            .min_by_key(|&w| (ctx.load[w].busy_until(), ctx.load[w].runnable(), w))
            .expect("route called with no live workers")
    }
}

/// Error returned by [`RoutingKind::parse`] for an unrecognised policy name.
///
/// Its [`Display`](fmt::Display) lists every valid name, so CLI users see
/// the menu instead of a bare failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownRoutingPolicy {
    /// The name that failed to parse.
    pub input: String,
}

impl fmt::Display for UnknownRoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown routing policy `{}`; valid policies: ",
            self.input
        )?;
        for (i, kind) in RoutingKind::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", kind.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownRoutingPolicy {}

/// Enumerates the built-in policies, for CLI / bench sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`WarmAffinity`].
    WarmAffinity,
    /// [`PullBased`].
    PullBased,
}

impl RoutingKind {
    /// All built-in policies, in sweep order.
    pub const ALL: [RoutingKind; 4] = [
        RoutingKind::RoundRobin,
        RoutingKind::LeastLoaded,
        RoutingKind::WarmAffinity,
        RoutingKind::PullBased,
    ];

    /// CLI name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            RoutingKind::RoundRobin => "round-robin",
            RoutingKind::LeastLoaded => "least-loaded",
            RoutingKind::WarmAffinity => "warm-affinity",
            RoutingKind::PullBased => "pull-based",
        }
    }

    /// Parses a CLI name; the error lists the valid names.
    pub fn parse(s: &str) -> Result<RoutingKind, UnknownRoutingPolicy> {
        RoutingKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| UnknownRoutingPolicy {
                input: s.to_owned(),
            })
    }

    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn RoutingPolicy> {
        match self {
            RoutingKind::RoundRobin => Box::new(RoundRobin::new()),
            RoutingKind::LeastLoaded => Box::new(LeastLoaded::new()),
            RoutingKind::WarmAffinity => Box::new(WarmAffinity::new()),
            RoutingKind::PullBased => Box::new(PullBased::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(alive: &'a [bool], load: &'a [WorkerLoad], f: u32) -> RouterCtx<'a> {
        RouterCtx {
            now: SimTime::from_secs(1),
            function: FunctionId::new(f),
            alive,
            load,
        }
    }

    #[test]
    fn round_robin_cycles_and_skips_dead() {
        let mut p = RoundRobin::new();
        let load = vec![WorkerLoad::default(); 3];
        let alive = [true, false, true];
        let picks: Vec<usize> = (0..4).map(|_| p.route(&ctx(&alive, &load, 0))).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn least_loaded_prefers_fewest_runnable() {
        let mut p = LeastLoaded::new();
        let mut load = vec![WorkerLoad::default(); 2];
        load[0].note(SimTime::ZERO, SimDuration::from_secs(10));
        let alive = [true, true];
        assert_eq!(p.route(&ctx(&alive, &load, 0)), 1);
    }

    #[test]
    fn warm_affinity_is_stable_per_function() {
        let mut p = WarmAffinity::new();
        let load = vec![WorkerLoad::default(); 4];
        let alive = [true; 4];
        let w1 = p.route(&ctx(&alive, &load, 7));
        let w2 = p.route(&ctx(&alive, &load, 7));
        assert_eq!(w1, w2);
        // With workers down, the function still maps somewhere live.
        let degraded = [false, true, true, false];
        let w3 = p.route(&ctx(&degraded, &load, 7));
        assert!(degraded[w3]);
    }

    #[test]
    fn pull_based_prefers_earliest_idle() {
        let mut p = PullBased::new();
        let mut load = vec![WorkerLoad::default(); 2];
        load[0].note(SimTime::ZERO, SimDuration::from_secs(5));
        load[1].note(SimTime::ZERO, SimDuration::from_secs(1));
        let alive = [true, true];
        assert_eq!(p.route(&ctx(&alive, &load, 0)), 1);
    }

    #[test]
    fn router_keeps_one_cursor_and_charges_what_it_places() {
        let mut router = Router::new(RoutingKind::RoundRobin.build(), 3);
        let alive = [true, false, true];
        let ms = SimDuration::from_millis;
        let f = FunctionId::new(0);
        assert_eq!(router.place(SimTime::ZERO, f, &alive, [ms(10), ms(30)]), 0);
        assert_eq!(router.place(SimTime::ZERO, f, &alive, [ms(5)]), 2);
        assert_eq!(router.place(SimTime::ZERO, f, &alive, []), 0);
        router.charge(2, SimTime::ZERO, ms(50));
        assert_eq!(router.load[0].assigned(), 2);
        assert_eq!(router.load[0].busy_until(), SimTime::from_millis(40));
        assert_eq!(router.load[2].runnable(), 2);
        // Placing observes every worker first: estimates decay to `now`.
        router.place(SimTime::from_millis(20), f, &alive, []);
        assert_eq!(
            (router.load[0].runnable(), router.load[2].runnable()),
            (1, 1)
        );
        assert_eq!(router.policy_name(), "round-robin");
    }

    #[test]
    #[should_panic(expected = "picked dead worker 1")]
    fn router_rejects_a_policy_that_picks_a_dead_worker() {
        struct Stuck;
        impl RoutingPolicy for Stuck {
            fn name(&self) -> String {
                "stuck".to_owned()
            }
            fn route(&mut self, _ctx: &RouterCtx<'_>) -> usize {
                1
            }
        }
        let mut router = Router::new(Box::new(Stuck), 2);
        router.place(SimTime::ZERO, FunctionId::new(0), &[true, false], []);
    }

    #[test]
    fn load_estimates_decay() {
        let mut l = WorkerLoad::default();
        l.note(SimTime::ZERO, SimDuration::from_secs(1));
        l.note(SimTime::ZERO, SimDuration::from_secs(3));
        assert_eq!(l.runnable(), 2);
        l.observe(SimTime::from_secs(2));
        assert_eq!(l.runnable(), 1);
        assert_eq!(l.assigned(), 2);
        assert_eq!(l.busy_until(), SimTime::from_secs(4));
    }

    /// The heap against the scan it replaced: per worker a `Vec` pruned
    /// with `retain(done > now)` wherever the router observes, fed the same
    /// seeded `place`/`charge` steps — zero work and repeated instants
    /// included. Every step must leave the same estimates behind.
    #[test]
    fn heap_estimates_match_the_scan() {
        const WORKERS: usize = 3;
        let alive = [true; WORKERS];
        for seed in 0..64u64 {
            let mut router = Router::new(RoutingKind::LeastLoaded.build(), WORKERS);
            // (pending completions, busy_until) per worker.
            let mut scan = vec![(Vec::<SimTime>::new(), SimTime::ZERO); WORKERS];
            let mut now = SimTime::ZERO;
            for step in 0..500u64 {
                let r = stable_hash(seed << 32 | step);
                // A third of the steps repeat the previous instant.
                if !r.is_multiple_of(3) {
                    now += SimDuration::from_micros((r >> 8) % 1_500);
                }
                // 0, 0.5, 1 or 1.5 ms of work per member.
                let work = |k: u64| SimDuration::from_micros(stable_hash(r ^ k) % 4 * 500);
                let charge = |(pending, busy_until): &mut (Vec<SimTime>, SimTime),
                              work: SimDuration| {
                    *busy_until = (*busy_until).max(now) + work;
                    pending.push(now + work);
                };
                if r & 16 == 0 {
                    let works: Vec<SimDuration> = (0..(r >> 5) % 4).map(work).collect();
                    let worker = router.place(
                        now,
                        FunctionId::new((r >> 12) as u32 % 8),
                        &alive,
                        works.iter().copied(),
                    );
                    for (pending, _) in &mut scan {
                        pending.retain(|&done| done > now);
                    }
                    for work in works {
                        charge(&mut scan[worker], work);
                    }
                } else {
                    let worker = (r >> 5) as usize % WORKERS;
                    router.charge(worker, now, work(0));
                    charge(&mut scan[worker], work(0));
                }
                for (w, (load, (pending, busy_until))) in router.load.iter().zip(&scan).enumerate()
                {
                    let at = format!("seed {seed} step {step} worker {w}");
                    assert_eq!(load.runnable(), pending.len(), "{at}");
                    assert_eq!(load.busy_until(), *busy_until, "{at}");
                    let mut heap: Vec<SimTime> = load.pending.iter().map(|r| r.0).collect();
                    let mut pending = pending.clone();
                    heap.sort_unstable();
                    pending.sort_unstable();
                    assert_eq!(heap, pending, "{at}");
                }
            }
        }
    }

    #[test]
    fn kind_round_trips_names() {
        for k in RoutingKind::ALL {
            assert_eq!(RoutingKind::parse(k.name()), Ok(k));
            assert_eq!(k.build().name(), k.name());
        }
        let err = RoutingKind::parse("nope").unwrap_err();
        assert_eq!(err.input, "nope");
        let msg = err.to_string();
        for k in RoutingKind::ALL {
            assert!(msg.contains(k.name()), "error should list {}", k.name());
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        for x in 0..64 {
            assert_eq!(stable_hash(x), stable_hash(x));
        }
        let distinct: std::collections::HashSet<u64> = (0..64).map(stable_hash).collect();
        assert_eq!(distinct.len(), 64);
    }
}
