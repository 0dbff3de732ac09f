//! The container state machine.

use crate::ids::{ContainerId, FunctionId};
use crate::spec::ContainerSpec;
use faasbatch_simcore::cpu::CpuGroupId;
use faasbatch_simcore::memory::AllocationId;
use faasbatch_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Lifecycle state of a container.
///
/// ```text
/// Provisioning ──ready──▶ Idle ──checkout──▶ Busy
///                          ▲                  │
///                          └──────release─────┘
///  Idle ──ttl expiry / shutdown──▶ Terminated
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContainerState {
    /// Cold start in progress; cannot serve invocations yet.
    Provisioning,
    /// Warm and free — parked in the keep-alive pool.
    Idle,
    /// Executing one dispatched batch (one or more invocations).
    Busy,
    /// Torn down; resources released.
    Terminated,
}

/// A (simulated) container instance.
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    spec: ContainerSpec,
    state: ContainerState,
    /// CPU scheduling group; present from provisioning until termination.
    cpu_group: CpuGroupId,
    /// Base-memory allocation handle; released on termination.
    memory: AllocationId,
    created_at: SimTime,
    ready_at: Option<SimTime>,
    last_released_at: Option<SimTime>,
    batches_served: u64,
    invocations_served: u64,
}

impl Container {
    /// Creates a container entering [`ContainerState::Provisioning`].
    pub fn provisioning(
        id: ContainerId,
        spec: ContainerSpec,
        cpu_group: CpuGroupId,
        memory: AllocationId,
        created_at: SimTime,
    ) -> Self {
        Container {
            id,
            spec,
            state: ContainerState::Provisioning,
            cpu_group,
            memory,
            created_at,
            ready_at: None,
            last_released_at: None,
            batches_served: 0,
            invocations_served: 0,
        }
    }

    /// The container id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The provisioning spec.
    pub fn spec(&self) -> &ContainerSpec {
        &self.spec
    }

    /// The function this container serves.
    pub fn function(&self) -> FunctionId {
        self.spec.function()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// CPU group backing this container.
    pub fn cpu_group(&self) -> CpuGroupId {
        self.cpu_group
    }

    /// Handle of the base-memory allocation.
    pub fn memory(&self) -> AllocationId {
        self.memory
    }

    /// When the cold start began.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// When the container became warm, if it has.
    pub fn ready_at(&self) -> Option<SimTime> {
        self.ready_at
    }

    /// When the container last went idle, if ever.
    pub fn last_released_at(&self) -> Option<SimTime> {
        self.last_released_at
    }

    /// Number of dispatched batches this container has completed.
    pub fn batches_served(&self) -> u64 {
        self.batches_served
    }

    /// Number of invocations this container has completed.
    pub fn invocations_served(&self) -> u64 {
        self.invocations_served
    }

    /// Completes the cold start: Provisioning → Idle.
    ///
    /// # Panics
    ///
    /// Panics if the container is not provisioning.
    pub fn mark_ready(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            ContainerState::Provisioning,
            "{}: mark_ready from {:?}",
            self.id,
            self.state
        );
        self.state = ContainerState::Idle;
        self.ready_at = Some(now);
        self.last_released_at = Some(now);
    }

    /// Checks the container out for a batch: Idle → Busy.
    ///
    /// # Panics
    ///
    /// Panics if the container is not idle.
    pub fn mark_busy(&mut self) {
        assert_eq!(
            self.state,
            ContainerState::Idle,
            "{}: mark_busy from {:?}",
            self.id,
            self.state
        );
        self.state = ContainerState::Busy;
    }

    /// Returns the container to the pool: Busy → Idle, recording the batch.
    ///
    /// # Panics
    ///
    /// Panics if the container is not busy.
    pub fn mark_released(&mut self, now: SimTime, invocations_completed: u64) {
        assert_eq!(
            self.state,
            ContainerState::Busy,
            "{}: mark_released from {:?}",
            self.id,
            self.state
        );
        self.state = ContainerState::Idle;
        self.last_released_at = Some(now);
        self.batches_served += 1;
        self.invocations_served += invocations_completed;
    }

    /// Tears the container down: Idle → Terminated.
    ///
    /// # Panics
    ///
    /// Panics if the container is busy or provisioning — running work must
    /// finish or be cancelled first.
    pub fn mark_terminated(&mut self) {
        assert_eq!(
            self.state,
            ContainerState::Idle,
            "{}: mark_terminated from {:?}",
            self.id,
            self.state
        );
        self.state = ContainerState::Terminated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_simcore::cpu::CpuModel;
    use faasbatch_simcore::memory::{MemCategory, MemoryLedger};

    fn make() -> Container {
        let mut cpu = CpuModel::new(4.0);
        let mut mem = MemoryLedger::new();
        let g = cpu.create_group(None);
        let a = mem.alloc(SimTime::ZERO, MemCategory::Container, 1);
        Container::provisioning(
            ContainerId::new(1),
            ContainerSpec::new(FunctionId::new(0)),
            g,
            a,
            SimTime::ZERO,
        )
    }

    #[test]
    fn full_lifecycle() {
        let mut c = make();
        assert_eq!(c.state(), ContainerState::Provisioning);
        c.mark_ready(SimTime::from_millis(700));
        assert_eq!(c.state(), ContainerState::Idle);
        assert_eq!(c.ready_at(), Some(SimTime::from_millis(700)));
        c.mark_busy();
        assert_eq!(c.state(), ContainerState::Busy);
        c.mark_released(SimTime::from_secs(1), 5);
        assert_eq!(c.state(), ContainerState::Idle);
        assert_eq!(c.batches_served(), 1);
        assert_eq!(c.invocations_served(), 5);
        c.mark_terminated();
        assert_eq!(c.state(), ContainerState::Terminated);
    }

    #[test]
    #[should_panic(expected = "mark_busy from Provisioning")]
    fn busy_before_ready_panics() {
        make().mark_busy();
    }

    #[test]
    #[should_panic(expected = "mark_terminated from Busy")]
    fn terminate_while_busy_panics() {
        let mut c = make();
        c.mark_ready(SimTime::ZERO);
        c.mark_busy();
        c.mark_terminated();
    }

    #[test]
    #[should_panic(expected = "mark_released from Idle")]
    fn release_idle_panics() {
        let mut c = make();
        c.mark_ready(SimTime::ZERO);
        c.mark_released(SimTime::ZERO, 0);
    }
}
