//! # faasbatch-container
//!
//! Container runtime substrate for the FaaSBatch reproduction: the paper runs
//! Docker containers on a 32-vCPU VM; this crate supplies the equivalent
//! model that every scheduler (Vanilla, Kraken, SFS, FaaSBatch) drives.
//!
//! * [`ids`] — `FunctionId` / `InvocationId` / `ContainerId` newtypes.
//! * [`spec`] — [`spec::ContainerSpec`] (CPU limits à la `cpu_count` /
//!   `cpuset_cpus`, base memory) and the two-phase
//!   [`spec::ColdStartModel`].
//! * [`container`] — the per-container state machine
//!   (Provisioning → Idle ⇄ Busy → Terminated).
//! * [`pool`] — keep-alive [`pool::WarmPool`] with TTL expiry.
//! * [`snapshot`] — capacity-bounded [`snapshot::SnapshotCache`] backing the
//!   snapshot-restore start tier (boot once, restore in tens of ms).
//! * [`cluster`] — [`cluster::Cluster`], the worker-node facade bundling the
//!   CPU model, memory ledger, container table and warm pool; all schedulers
//!   pay identical costs for identical decisions.
//! * [`live`] — real-thread batch execution ([`live::run_expanded`]) for the
//!   motivation experiments and live examples.
//!
//! # Examples
//!
//! Cold-start a container and reuse it warm:
//!
//! ```
//! use faasbatch_container::cluster::{Acquired, Cluster};
//! use faasbatch_container::ids::FunctionId;
//! use faasbatch_container::spec::{ColdStartModel, ContainerSpec};
//! use faasbatch_simcore::time::{SimDuration, SimTime};
//!
//! let mut cluster = Cluster::new(32.0, ColdStartModel::default(), SimDuration::from_secs(600));
//! let spec = ContainerSpec::new(FunctionId::new(0));
//! let acq = cluster.acquire(SimTime::ZERO, &spec);
//! assert!(acq.is_cold(), "nothing is warm yet");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod container;
pub mod ids;
pub mod live;
pub mod pool;
pub mod snapshot;
pub mod spec;

pub use cluster::{Acquired, Cluster, ClusterStats, ContainerTransition};
pub use container::{Container, ContainerState};
pub use ids::{ContainerId, FunctionId, InvocationId};
pub use pool::WarmPool;
pub use snapshot::{EvictionPolicy, SnapshotCache, SnapshotConfig, SnapshotStats};
pub use spec::{ColdStartModel, ContainerSpec, ModelError, RestoreModel};
