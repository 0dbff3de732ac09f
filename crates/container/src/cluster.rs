//! The worker-node facade shared by every scheduler.
//!
//! A [`Cluster`] bundles the host resources (CPU model + memory ledger), the
//! container table, and the warm pool behind one API, so Vanilla, Kraken,
//! SFS, and FaaSBatch all pay identical costs for identical decisions — the
//! comparison then measures *policy*, not modelling differences.
//!
//! The cluster is passive: callers supply the current [`SimTime`] and drive
//! cold-start phases and CPU completions from their own event loop.

use crate::container::{Container, ContainerState};
use crate::ids::{ContainerId, FunctionId};
use crate::pool::WarmPool;
use crate::snapshot::{SnapshotCache, SnapshotConfig, SnapshotStats};
use crate::spec::{ColdStartModel, ContainerSpec};
use faasbatch_simcore::cpu::{CpuGroupId, CpuModel, CpuTaskId};
use faasbatch_simcore::memory::{MemCategory, MemoryLedger};
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of asking the cluster for a container — the three-tier start
/// model: warm hit / snapshot restore / full cold boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// A warm container was checked out of the pool; it is already Busy and
    /// can serve the batch immediately.
    Warm(ContainerId),
    /// A cold start began; the caller must run the two phases (image latency,
    /// then CPU work) and call [`Cluster::finish_cold_start`].
    Cold(ContainerId),
    /// A snapshot restore began: the container exists in Provisioning but
    /// skips the two-phase boot — the caller waits `latency` (pure delay,
    /// no host CPU: the snapshot is mapped back in, not re-executed) and
    /// then calls [`Cluster::finish_restore`].
    Restored {
        /// The restoring container.
        id: ContainerId,
        /// Priced restore latency for this snapshot.
        latency: SimDuration,
    },
}

impl Acquired {
    /// The container id regardless of temperature.
    pub fn container(self) -> ContainerId {
        match self {
            Acquired::Warm(id) | Acquired::Cold(id) | Acquired::Restored { id, .. } => id,
        }
    }

    /// True for a full cold boot (a snapshot restore is *not* cold).
    pub fn is_cold(self) -> bool {
        matches!(self, Acquired::Cold(_))
    }

    /// True for a snapshot restore.
    pub fn is_restored(self) -> bool {
        matches!(self, Acquired::Restored { .. })
    }
}

/// Aggregate counters for resource-cost reporting (Fig. 13/14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Containers ever provisioned (full cold boots + snapshot restores).
    pub provisioned: u64,
    /// Peak simultaneously live (non-terminated) containers.
    pub peak_live: u64,
    /// Warm-pool hits.
    pub warm_hits: u64,
    /// Containers reaped by keep-alive expiry.
    pub expired: u64,
    /// Containers started by restoring a snapshot instead of a full boot.
    #[serde(default)]
    pub restored_starts: u64,
}

/// One journalled container state transition, for trace emission.
///
/// The cluster sits below the metrics crate in the dependency graph, so it
/// cannot emit trace events itself; it journals every lifecycle transition
/// and the scheduler harness drains the journal (via
/// [`Cluster::take_transitions`]) into `ContainerStateChange` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerTransition {
    /// When the transition happened.
    pub at: SimTime,
    /// Container affected.
    pub container: ContainerId,
    /// Previous state (`None` when the container is first provisioned).
    pub from: Option<ContainerState>,
    /// New state.
    pub to: ContainerState,
}

/// A simulated worker node: CPU + memory + containers + warm pool.
#[derive(Debug)]
pub struct Cluster {
    cpu: CpuModel,
    mem: MemoryLedger,
    containers: BTreeMap<ContainerId, Container>,
    pool: WarmPool,
    snapshots: SnapshotCache,
    cold_model: ColdStartModel,
    platform_group: CpuGroupId,
    next_container: u64,
    /// Containers not yet terminated: +1 in `provision_new`, −1 in
    /// `terminate`, the only two places a container enters or leaves that
    /// set (the table itself keeps terminated containers).
    live: u64,
    stats: ClusterStats,
    transitions: Vec<ContainerTransition>,
}

impl Cluster {
    /// Creates a worker with `cores` CPUs, the given cold-start model, and
    /// keep-alive TTL.
    pub fn new(cores: f64, cold_model: ColdStartModel, keep_alive: SimDuration) -> Self {
        let mut cpu = CpuModel::new(cores);
        let platform_group = cpu.create_group(None);
        Cluster {
            cpu,
            mem: MemoryLedger::new(),
            containers: BTreeMap::new(),
            pool: WarmPool::new(keep_alive),
            snapshots: SnapshotCache::new(SnapshotConfig::default()),
            cold_model,
            platform_group,
            next_container: 0,
            live: 0,
            stats: ClusterStats::default(),
            transitions: Vec::new(),
        }
    }

    fn log_transition(
        &mut self,
        at: SimTime,
        container: ContainerId,
        from: Option<ContainerState>,
        to: ContainerState,
    ) {
        self.transitions.push(ContainerTransition {
            at,
            container,
            from,
            to,
        });
    }

    /// Whether any journalled transitions await
    /// [`take_transitions`](Self::take_transitions).
    pub fn transitions_pending(&self) -> bool {
        !self.transitions.is_empty()
    }

    /// Drains the transition journal, oldest first.
    pub fn take_transitions(&mut self) -> Vec<ContainerTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// The CPU model (immutable).
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// The CPU model (mutable) — for completion pumping by the driver.
    pub fn cpu_mut(&mut self) -> &mut CpuModel {
        &mut self.cpu
    }

    /// The memory ledger (immutable).
    pub fn mem(&self) -> &MemoryLedger {
        &self.mem
    }

    /// The memory ledger (mutable) — for workload-specific allocations such
    /// as storage clients.
    pub fn mem_mut(&mut self) -> &mut MemoryLedger {
        &mut self.mem
    }

    /// The cold-start cost model.
    pub fn cold_model(&self) -> &ColdStartModel {
        &self.cold_model
    }

    /// Replaces the snapshot-tier configuration. Existing snapshots are
    /// dropped; call before the run starts.
    pub fn configure_snapshots(&mut self, cfg: SnapshotConfig) {
        self.snapshots = SnapshotCache::new(cfg);
    }

    /// The snapshot cache (read-only; counters, occupancy, config).
    pub fn snapshots(&self) -> &SnapshotCache {
        &self.snapshots
    }

    /// Snapshot-cache lifetime counters.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshots.stats()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// CPU group for platform-side work (scheduler overhead, daemons).
    pub fn platform_group(&self) -> CpuGroupId {
        self.platform_group
    }

    /// Looks up a container.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown; container ids are never reused, so this
    /// indicates a driver bug.
    pub fn container(&self, id: ContainerId) -> &Container {
        self.containers.get(&id).expect("unknown container id")
    }

    /// Number of live (non-terminated) containers.
    pub fn live_containers(&self) -> u64 {
        self.live
    }

    /// [`live_containers`](Self::live_containers) counted the slow way, by
    /// walking the container table — what the counter is checked against.
    pub fn recount_live_containers(&self) -> u64 {
        self.containers
            .values()
            .filter(|c| c.state() != ContainerState::Terminated)
            .count() as u64
    }

    /// Number of idle containers parked in the warm pool.
    pub fn idle_containers(&self) -> usize {
        self.pool.total_idle()
    }

    /// Idle warm containers available for `function`.
    pub fn warm_count(&self, function: FunctionId) -> usize {
        self.pool.idle_count(function)
    }

    /// Overrides the keep-alive TTL for one function — the autoscaler's
    /// extend/shrink hook. Applies to containers already idle in the warm
    /// pool as well as future check-ins.
    pub fn set_keep_alive(&mut self, function: FunctionId, ttl: SimDuration) {
        self.pool.set_ttl(function, ttl);
    }

    /// Acquires a container for `spec`, walking the three start tiers:
    /// warm hit, then snapshot restore, then full cold boot.
    ///
    /// A warm acquisition transitions the container to Busy immediately. A
    /// restored acquisition creates the container in Provisioning and returns
    /// the priced restore latency; the caller waits it out as pure delay and
    /// calls [`Cluster::finish_restore`]. A cold acquisition creates the
    /// container in Provisioning and counts a cold start; the caller runs the
    /// cold-start phases ([`ColdStartModel::image_latency`] as an event
    /// delay, then [`Cluster::start_cold_cpu_work`]) and finally
    /// [`Cluster::finish_cold_start`].
    pub fn acquire(&mut self, now: SimTime, spec: &ContainerSpec) -> Acquired {
        // `check_out` drops TTL-stale entries without terminating them; see
        // `expire_idle`.
        if let Some(id) = self.pool.check_out(now, spec.function()) {
            let c = self
                .containers
                .get_mut(&id)
                .expect("pooled container exists");
            c.mark_busy();
            self.stats.warm_hits += 1;
            self.log_transition(now, id, Some(ContainerState::Idle), ContainerState::Busy);
            return Acquired::Warm(id);
        }
        let restore = self.snapshots.lookup(now, spec.function());
        let id = self.provision_new(now, spec);
        match restore {
            Some(latency) => {
                self.stats.restored_starts += 1;
                Acquired::Restored { id, latency }
            }
            None => Acquired::Cold(id),
        }
    }

    /// Creates a container in Provisioning, charging memory and a CPU group.
    fn provision_new(&mut self, now: SimTime, spec: &ContainerSpec) -> ContainerId {
        let id = ContainerId::new(self.next_container);
        self.next_container += 1;
        let group = self.cpu.create_group(spec.cpu_limit());
        let memory = self
            .mem
            .alloc(now, MemCategory::Container, spec.base_memory_bytes());
        self.containers.insert(
            id,
            Container::provisioning(id, spec.clone(), group, memory, now),
        );
        self.stats.provisioned += 1;
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        self.log_transition(now, id, None, ContainerState::Provisioning);
        id
    }

    /// Starts the CPU phase of a cold start (daemon bookkeeping + runtime
    /// boot) inside the container's group; returns the task to watch.
    ///
    /// # Panics
    ///
    /// Panics if the container is not provisioning.
    pub fn start_cold_cpu_work(&mut self, now: SimTime, id: ContainerId) -> CpuTaskId {
        let c = self.container(id);
        assert_eq!(
            c.state(),
            ContainerState::Provisioning,
            "{id}: not provisioning"
        );
        let group = c.cpu_group();
        self.cpu.add_task(now, group, self.cold_model.cpu_work())
    }

    /// Captures (or refreshes) a snapshot of `id`'s function, priced by the
    /// observed wall-clock boot that just completed at `now`.
    fn capture_snapshot(&mut self, now: SimTime, id: ContainerId) {
        let c = self.container(id);
        let function = c.function();
        let boot = now.saturating_duration_since(c.created_at());
        self.snapshots.capture(now, function, boot);
    }

    /// Completes a cold start, leaving the container Busy (it was acquired
    /// for a pending batch). With the snapshot tier enabled, the freshly
    /// initialized state is also captured as the function's snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the container is not provisioning.
    pub fn finish_cold_start(&mut self, now: SimTime, id: ContainerId) {
        let c = self.containers.get_mut(&id).expect("unknown container id");
        c.mark_ready(now);
        c.mark_busy();
        self.capture_snapshot(now, id);
        self.log_transition(
            now,
            id,
            Some(ContainerState::Provisioning),
            ContainerState::Idle,
        );
        self.log_transition(now, id, Some(ContainerState::Idle), ContainerState::Busy);
    }

    /// Completes a snapshot restore begun by an [`Acquired::Restored`]
    /// acquisition, leaving the container Busy for its pending batch.
    ///
    /// # Panics
    ///
    /// Panics if the container is not provisioning.
    pub fn finish_restore(&mut self, now: SimTime, id: ContainerId) {
        let c = self.containers.get_mut(&id).expect("unknown container id");
        c.mark_ready(now);
        c.mark_busy();
        self.log_transition(
            now,
            id,
            Some(ContainerState::Provisioning),
            ContainerState::Idle,
        );
        self.log_transition(now, id, Some(ContainerState::Idle), ContainerState::Busy);
    }

    /// Provisions a fresh container unconditionally (pre-warming): unlike
    /// [`acquire`](Self::acquire) it never consults the warm pool, so the
    /// caller controls exactly how many containers exist.
    pub fn provision_cold(&mut self, now: SimTime, spec: &ContainerSpec) -> ContainerId {
        self.provision_new(now, spec)
    }

    /// Completes a pre-warming cold start: the container goes straight into
    /// the warm pool instead of serving a batch, and (with the snapshot tier
    /// enabled) its initialized state is captured as the function's snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the container is not provisioning.
    pub fn finish_cold_start_idle(&mut self, now: SimTime, id: ContainerId) {
        let c = self.containers.get_mut(&id).expect("unknown container id");
        c.mark_ready(now);
        let function = c.function();
        self.pool.check_in(now, function, id);
        self.capture_snapshot(now, id);
        self.log_transition(
            now,
            id,
            Some(ContainerState::Provisioning),
            ContainerState::Idle,
        );
    }

    /// Completes a snapshot-tier prewarm: the boot's initialized state is
    /// captured as the function's snapshot and the container is torn down
    /// immediately — the snapshot outlives it at zero memory cost, which is
    /// the whole point of prewarming to the snapshot tier instead of the
    /// warm tier.
    ///
    /// # Panics
    ///
    /// Panics if the container is not provisioning.
    pub fn finish_cold_start_snapshot(&mut self, now: SimTime, id: ContainerId) {
        let c = self.containers.get_mut(&id).expect("unknown container id");
        c.mark_ready(now);
        self.capture_snapshot(now, id);
        self.log_transition(
            now,
            id,
            Some(ContainerState::Provisioning),
            ContainerState::Idle,
        );
        self.terminate(now, id);
    }

    /// Adds `work` core-seconds of invocation execution to a Busy container.
    ///
    /// # Panics
    ///
    /// Panics if the container is not busy.
    pub fn start_invocation_work(
        &mut self,
        now: SimTime,
        id: ContainerId,
        work: SimDuration,
    ) -> CpuTaskId {
        let c = self.container(id);
        assert_eq!(c.state(), ContainerState::Busy, "{id}: not busy");
        let group = c.cpu_group();
        self.cpu.add_task(now, group, work)
    }

    /// Sets the CPU fair-share weight of many containers with a single rate
    /// recomputation.
    ///
    /// # Panics
    ///
    /// Panics if a container is unknown or terminated, or a weight is not
    /// positive finite.
    pub fn set_container_weights(
        &mut self,
        now: SimTime,
        updates: impl IntoIterator<Item = (ContainerId, f64)>,
    ) {
        let containers = &self.containers;
        self.cpu.set_group_weights(
            now,
            updates.into_iter().map(|(id, weight)| {
                let c = containers.get(&id).expect("unknown container id");
                (c.cpu_group(), weight)
            }),
        );
    }

    /// Adds platform-side CPU work (scheduling decisions, daemons).
    pub fn start_platform_work(&mut self, now: SimTime, work: SimDuration) -> CpuTaskId {
        self.cpu.add_task(now, self.platform_group, work)
    }

    /// Returns a Busy container to the warm pool after its batch finished.
    ///
    /// # Panics
    ///
    /// Panics if the container is not busy.
    pub fn release(&mut self, now: SimTime, id: ContainerId, invocations_completed: u64) {
        let c = self.containers.get_mut(&id).expect("unknown container id");
        c.mark_released(now, invocations_completed);
        let function = c.function();
        self.pool.check_in(now, function, id);
        self.log_transition(now, id, Some(ContainerState::Busy), ContainerState::Idle);
    }

    /// Reaps idle containers that outlived the keep-alive TTL.
    ///
    /// Known gap (ROADMAP item 5): no scheduler harness calls this or
    /// [`next_expiry`](Self::next_expiry), so in a simulated run a container
    /// that outlives its keep-alive is never terminated — its memory and CPU
    /// group stay charged, [`warm_count`](Self::warm_count) sees it until a
    /// check-out pops it, and a later keep-alive raise resurrects it. Fixing
    /// that moves committed results, so it is its own re-baselining PR.
    pub fn expire_idle(&mut self, now: SimTime) -> Vec<ContainerId> {
        let expired = self.pool.expire(now);
        for &id in &expired {
            self.terminate(now, id);
            self.stats.expired += 1;
        }
        expired
    }

    /// Earliest upcoming keep-alive expiry, for reaper scheduling.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.pool.next_expiry()
    }

    /// Terminates an idle container, releasing its memory and CPU group.
    ///
    /// # Panics
    ///
    /// Panics if the container is busy or provisioning.
    pub fn terminate(&mut self, now: SimTime, id: ContainerId) {
        self.pool.remove(id);
        let c = self.containers.get_mut(&id).expect("unknown container id");
        c.mark_terminated();
        self.live -= 1;
        let group = c.cpu_group();
        let memory = c.memory();
        self.mem.free(now, memory);
        self.cpu.remove_group(now, group);
        self.log_transition(
            now,
            id,
            Some(ContainerState::Idle),
            ContainerState::Terminated,
        );
    }

    /// Terminates every idle container (end-of-run teardown) and returns how
    /// many were reaped.
    ///
    /// # Panics
    ///
    /// Panics if any container is still busy or provisioning.
    pub fn drain(&mut self, now: SimTime) -> u64 {
        let idle: Vec<ContainerId> = self
            .containers
            .values()
            .filter(|c| c.state() == ContainerState::Idle)
            .map(Container::id)
            .collect();
        let n = idle.len() as u64;
        for id in idle {
            self.terminate(now, id);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(4.0, ColdStartModel::default(), SimDuration::from_secs(600))
    }

    fn spec() -> ContainerSpec {
        ContainerSpec::new(FunctionId::new(0))
    }

    /// Runs a full cold start at `now`, returning the busy container.
    fn cold_start(c: &mut Cluster, now: SimTime) -> ContainerId {
        let acq = c.acquire(now, &spec());
        let Acquired::Cold(id) = acq else {
            panic!("expected cold")
        };
        let after_image = now + c.cold_model().image_latency();
        let task = c.start_cold_cpu_work(after_image, id);
        let (done, t) = c.cpu().next_completion(after_image).unwrap();
        assert_eq!(t, task);
        c.cpu_mut().advance_to(done);
        c.finish_cold_start(done, id);
        id
    }

    #[test]
    fn cold_then_warm() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        assert_eq!(c.stats().provisioned, 1);
        let t1 = SimTime::from_secs(2);
        c.release(t1, id, 1);
        assert_eq!(c.idle_containers(), 1);
        // Second acquisition within TTL is warm and reuses the container.
        match c.acquire(t1, &spec()) {
            Acquired::Warm(w) => assert_eq!(w, id),
            other => panic!("expected warm, got {other:?}"),
        }
        assert_eq!(c.stats().warm_hits, 1);
        assert_eq!(c.stats().provisioned, 1);
    }

    #[test]
    fn cold_start_charges_memory_immediately() {
        let mut c = cluster();
        let before = c.mem().current_bytes();
        let _ = c.acquire(SimTime::ZERO, &spec());
        assert_eq!(
            c.mem().current_bytes() - before,
            ContainerSpec::DEFAULT_BASE_MEMORY
        );
    }

    #[test]
    fn different_functions_do_not_share_warm_containers() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        c.release(SimTime::from_secs(1), id, 1);
        let other = ContainerSpec::new(FunctionId::new(1));
        assert!(c.acquire(SimTime::from_secs(1), &other).is_cold());
    }

    #[test]
    fn expiry_releases_resources() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        c.release(SimTime::from_secs(1), id, 1);
        let mem_idle = c.mem().current_bytes();
        assert!(mem_idle > 0);
        let expired = c.expire_idle(SimTime::from_secs(1) + SimDuration::from_secs(601));
        assert_eq!(expired, vec![id]);
        assert_eq!(c.mem().current_bytes(), 0);
        assert_eq!(c.live_containers(), 0);
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn invocation_work_runs_in_container_group() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        let t = c.container(id).ready_at().unwrap();
        let task = c.start_invocation_work(t, id, SimDuration::from_secs(1));
        let (done, tid) = c.cpu().next_completion(t).unwrap();
        assert_eq!(tid, task);
        assert_eq!(done, t + SimDuration::from_secs(1));
    }

    #[test]
    fn cpu_limit_propagates_to_group() {
        let mut c = cluster();
        let limited = ContainerSpec::new(FunctionId::new(0)).with_cpu_limit(1.0);
        let acq = c.acquire(SimTime::ZERO, &limited);
        let id = acq.container();
        let after = SimTime::ZERO + c.cold_model().image_latency();
        c.start_cold_cpu_work(after, id);
        let (done, _) = c.cpu().next_completion(after).unwrap();
        c.cpu_mut().advance_to(done);
        c.finish_cold_start(done, id);
        // Two 1s tasks in a 1-core-capped group on a 4-core host: 2s each.
        c.start_invocation_work(done, id, SimDuration::from_secs(1));
        c.start_invocation_work(done, id, SimDuration::from_secs(1));
        let (fin, _) = c.cpu().next_completion(done).unwrap();
        assert_eq!(fin, done + SimDuration::from_secs(2));
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut c = cluster();
        let a = cold_start(&mut c, SimTime::ZERO);
        let _b = c.acquire(SimTime::from_secs(1), &spec());
        assert_eq!(c.stats().peak_live, 2);
        c.release(SimTime::from_secs(2), a, 1);
        c.expire_idle(SimTime::from_secs(2) + SimDuration::from_secs(601));
        assert_eq!(c.stats().peak_live, 2);
    }

    #[test]
    fn drain_reaps_only_idle() {
        let mut c = cluster();
        let a = cold_start(&mut c, SimTime::ZERO);
        c.release(SimTime::from_secs(2), a, 1);
        assert_eq!(c.drain(SimTime::from_secs(2)), 1);
        assert_eq!(c.live_containers(), 0);
    }

    #[test]
    fn keep_alive_override_changes_warm_window() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        let t1 = SimTime::from_secs(2);
        c.release(t1, id, 1);
        // Shrink the function's keep-alive to 1 s: the parked container is
        // stale 3 s later and the acquire goes cold.
        c.set_keep_alive(FunctionId::new(0), SimDuration::from_secs(1));
        assert!(c.acquire(SimTime::from_secs(5), &spec()).is_cold());
        assert_eq!(c.stats().warm_hits, 0);
    }

    #[test]
    fn prewarm_provisions_into_pool() {
        let mut c = cluster();
        // provision_cold never consults the pool.
        let id1 = c.provision_cold(SimTime::ZERO, &spec());
        let id2 = c.provision_cold(SimTime::ZERO, &spec());
        assert_ne!(id1, id2);
        assert_eq!(c.stats().provisioned, 2);
        assert_eq!(c.idle_containers(), 0, "still provisioning");
        // Finish them idle: both land in the warm pool.
        let t = SimTime::from_secs(2);
        c.cpu_mut().advance_to(t);
        c.finish_cold_start_idle(t, id1);
        c.finish_cold_start_idle(t, id2);
        assert_eq!(c.warm_count(FunctionId::new(0)), 2);
        // A subsequent acquire is warm (LIFO: most recent first).
        match c.acquire(t, &spec()) {
            Acquired::Warm(w) => assert_eq!(w, id2),
            other => panic!("expected warm, got {other:?}"),
        }
        assert_eq!(c.stats().provisioned, 2, "no extra cold start");
    }

    #[test]
    fn prewarmed_container_serves_and_releases_normally() {
        let mut c = cluster();
        let id = c.provision_cold(SimTime::ZERO, &spec());
        let boot = c.start_cold_cpu_work(SimTime::ZERO, id);
        let (done, t) = c.cpu().next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t, boot);
        c.cpu_mut().advance_to(done);
        c.finish_cold_start_idle(done, id);
        let acq = c.acquire(done, &spec());
        assert!(!acq.is_cold());
        c.start_invocation_work(done, id, SimDuration::from_millis(10));
        let (fin, _) = c.cpu().next_completion(done).unwrap();
        c.cpu_mut().advance_to(fin);
        c.release(fin, id, 1);
        assert_eq!(c.idle_containers(), 1);
    }

    #[test]
    fn transition_journal_covers_full_lifecycle() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        let t1 = SimTime::from_secs(2);
        c.release(t1, id, 1);
        c.terminate(t1, id);
        let states: Vec<(Option<ContainerState>, ContainerState)> = c
            .take_transitions()
            .into_iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(
            states,
            vec![
                (None, ContainerState::Provisioning),
                (Some(ContainerState::Provisioning), ContainerState::Idle),
                (Some(ContainerState::Idle), ContainerState::Busy),
                (Some(ContainerState::Busy), ContainerState::Idle),
                (Some(ContainerState::Idle), ContainerState::Terminated),
            ]
        );
        assert!(!c.transitions_pending());
    }

    #[test]
    #[should_panic(expected = "mark_ready from Idle")]
    fn finishing_idle_twice_panics() {
        let mut c = cluster();
        let id = c.provision_cold(SimTime::ZERO, &spec());
        c.finish_cold_start_idle(SimTime::ZERO, id);
        c.finish_cold_start_idle(SimTime::ZERO, id);
    }

    #[test]
    fn snapshot_restore_tier_between_warm_and_cold() {
        let mut c = cluster();
        c.configure_snapshots(SnapshotConfig::with_capacity(4));
        // First boot captures a snapshot as a side effect.
        let first = cold_start(&mut c, SimTime::ZERO);
        assert!(c.snapshots().contains(FunctionId::new(0)));
        // `first` is still Busy, so the pool is empty — but the snapshot
        // serves the second acquire as a restore, not a cold boot.
        let t2 = SimTime::from_secs(2);
        let acq = c.acquire(t2, &spec());
        let Acquired::Restored { id, latency } = acq else {
            panic!("expected restored, got {acq:?}")
        };
        assert_ne!(id, first);
        assert!(!acq.is_cold());
        assert!(acq.is_restored());
        // 3% of the observed 1.3 s boot = 39 ms, inside the default band.
        assert_eq!(latency, SimDuration::from_millis(39));
        c.finish_restore(t2 + latency, id);
        assert_eq!(c.stats().restored_starts, 1);
        assert_eq!(c.snapshot_stats().hits, 1);
        // A released restored container is a normal warm container: the
        // warm tier still outranks the snapshot tier.
        let t3 = t2 + SimDuration::from_secs(1);
        c.release(t3, id, 1);
        assert!(matches!(c.acquire(t3, &spec()), Acquired::Warm(w) if w == id));
    }

    #[test]
    fn snapshot_prewarm_captures_then_frees_resources() {
        let mut c = cluster();
        c.configure_snapshots(SnapshotConfig::with_capacity(2));
        let id = c.provision_cold(SimTime::ZERO, &spec());
        let t = SimTime::from_millis(1300);
        c.finish_cold_start_snapshot(t, id);
        assert_eq!(c.live_containers(), 0, "container torn down after capture");
        assert_eq!(c.mem().current_bytes(), 0, "base memory freed");
        assert_eq!(c.idle_containers(), 0, "nothing parked in the warm pool");
        assert!(c.snapshots().contains(FunctionId::new(0)));
        assert_eq!(c.snapshot_stats().captures, 1);
        // The snapshot outlives the container: the next acquire restores.
        assert!(c.acquire(t, &spec()).is_restored());
    }

    #[test]
    fn snapshots_disabled_by_default() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        let _ = id;
        assert!(c.snapshots().is_empty());
        assert!(c.acquire(SimTime::from_secs(2), &spec()).is_cold());
        assert_eq!(c.stats().restored_starts, 0);
    }

    proptest::proptest! {
        /// The live count is a counter; the walk it replaced is its oracle.
        #[test]
        fn live_counter_matches_a_recount_after_any_operation(
            ops in proptest::collection::vec((0u8..9, 0u32..4000), 1..160),
        ) {
            let mut c = Cluster::new(4.0, ColdStartModel::default(), SimDuration::from_secs(5));
            c.configure_snapshots(SnapshotConfig::with_capacity(2));
            let mut now = SimTime::ZERO;
            // Containers by what may legally happen to them next. `idle`
            // includes the ones a check-out dropped as stale: still Idle,
            // no longer pooled.
            let mut booting: Vec<(ContainerId, bool)> = Vec::new();
            let mut prewarming: Vec<ContainerId> = Vec::new();
            let mut busy: Vec<ContainerId> = Vec::new();
            let mut idle: Vec<ContainerId> = Vec::new();
            fn take<T>(from: &mut Vec<T>, pick: u32) -> Option<T> {
                (!from.is_empty()).then(|| from.swap_remove(pick as usize % from.len()))
            }
            for (op, pick) in ops {
                now += SimDuration::from_millis(u64::from(pick));
                let spec = ContainerSpec::new(FunctionId::new(pick % 3));
                match op {
                    0 | 1 => match c.acquire(now, &spec) {
                        Acquired::Warm(id) => {
                            idle.retain(|&i| i != id);
                            busy.push(id);
                        }
                        Acquired::Cold(id) => booting.push((id, false)),
                        Acquired::Restored { id, .. } => booting.push((id, true)),
                    },
                    2 => prewarming.push(c.provision_cold(now, &spec)),
                    3 => {
                        if let Some((id, restored)) = take(&mut booting, pick) {
                            if restored {
                                c.finish_restore(now, id);
                            } else {
                                c.finish_cold_start(now, id);
                            }
                            busy.push(id);
                        }
                    }
                    4 => {
                        if let Some(id) = take(&mut prewarming, pick) {
                            if pick % 2 == 0 {
                                c.finish_cold_start_idle(now, id);
                                idle.push(id);
                            } else {
                                c.finish_cold_start_snapshot(now, id);
                            }
                        }
                    }
                    5 => {
                        if let Some(id) = take(&mut busy, pick) {
                            c.release(now, id, 1);
                            idle.push(id);
                        }
                    }
                    6 => {
                        if let Some(id) = take(&mut idle, pick) {
                            c.terminate(now, id);
                        }
                    }
                    7 => {
                        let expired = c.expire_idle(now);
                        idle.retain(|id| !expired.contains(id));
                    }
                    _ => {
                        c.drain(now);
                        idle.clear();
                    }
                }
                proptest::prop_assert_eq!(c.live_containers(), c.recount_live_containers());
                proptest::prop_assert_eq!(
                    c.live_containers() as usize,
                    booting.len() + prewarming.len() + busy.len() + idle.len()
                );
                proptest::prop_assert!(c.stats().peak_live >= c.live_containers());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn work_on_idle_container_panics() {
        let mut c = cluster();
        let id = cold_start(&mut c, SimTime::ZERO);
        let t = SimTime::from_secs(2);
        c.release(t, id, 1);
        c.start_invocation_work(t, id, SimDuration::from_secs(1));
    }
}
