//! # faasbatch-simcore
//!
//! Deterministic discrete-event simulation substrate for the FaaSBatch
//! reproduction (Wu et al., ICDCS 2023).
//!
//! The paper evaluates schedulers on a real 32-vCPU VM running Docker; this
//! crate supplies the laptop-scale stand-in: a reproducible event engine
//! ([`engine::Engine`]), microsecond-resolution clocks ([`time`]), a
//! processor-sharing multicore model with container-style group caps
//! ([`cpu::CpuModel`]), per-category memory accounting
//! ([`memory::MemoryLedger`]), forkable seeded randomness
//! ([`rng::DetRng`]), and the one grouping of a dispatch window's members
//! by function ([`group::WindowGroups`]).
//!
//! Everything here is *passive and single-threaded by design*: higher layers
//! (containers, schedulers, the FaaSBatch platform) own the control flow, so
//! a run is a pure function of `(seed, configuration)`.
//!
//! # Examples
//!
//! Simulate two jobs racing on one core:
//!
//! ```
//! use faasbatch_simcore::cpu::CpuModel;
//! use faasbatch_simcore::time::{SimDuration, SimTime};
//!
//! let mut cpu = CpuModel::new(1.0);
//! let g = cpu.create_group(None);
//! cpu.add_task(SimTime::ZERO, g, SimDuration::from_secs(1));
//! cpu.add_task(SimTime::ZERO, g, SimDuration::from_secs(1));
//! let (first_done, _) = cpu.next_completion(SimTime::ZERO).unwrap();
//! assert_eq!(first_done, SimTime::from_secs(2)); // they share the core
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path crates reject avoidable allocations outright.
#![deny(
    clippy::unnecessary_to_owned,
    clippy::assigning_clones,
    clippy::inefficient_to_string,
    clippy::format_collect
)]

pub mod cpu;
#[cfg(test)]
mod cpu_oracle;
pub mod engine;
pub mod group;
pub mod idmap;
pub mod memory;
pub mod rng;
pub mod time;

pub use cpu::{CpuGroupId, CpuModel, CpuStats, CpuTaskId};
pub use engine::{AlarmId, Engine, EngineStats, EventId};
pub use group::WindowGroups;
pub use idmap::{IdMap, IdSet};
pub use memory::{AllocationId, MemCategory, MemOp, MemOpKind, MemoryLedger};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
