//! # faasbatch
//!
//! A from-scratch Rust reproduction of **FaaSBatch: Enhancing the Efficiency
//! of Serverless Computing by Batching and Expanding Functions**
//! (Wu, Deng, Zhou, Li, Pang — ICDCS 2023).
//!
//! FaaSBatch groups the concurrent invocations of an identical function that
//! arrive within one dispatch window, places each group in a **single**
//! container, *expands* the group inside it as parallel threads, and caches
//! the redundant resources (cloud-storage clients) those threads would
//! otherwise re-create. Against Vanilla (container-per-invocation), Kraken
//! (slack-driven batching), SFS (short-function CPU priority), and two
//! pull-based baselines beyond the paper — Hiku (warm-preferring pull from a
//! shared queue) and core-late-bind (bind to a core only when it is free) —
//! this cuts invocation latency and resource cost dramatically on bursty
//! Azure-style workloads.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | Invoke Mapper, Resource Multiplexer, FaaSBatch policy, live platform |
//! | [`fleet`] | multi-worker fleet simulation: pluggable routing, faults, aggregate reports |
//! | [`gateway`] | live sharded front door: admission control, window routing over N workers |
//! | [`schedulers`] | shared simulation harness + Vanilla / Kraken / SFS / Hiku / core-late-bind |
//! | [`container`] | container lifecycle, warm pool, snapshot cache, cold-start model |
//! | [`exec`] | dependency-free work-stealing executor: injector, deques, task groups, timer wheel |
//! | [`storage`] | in-memory object store + costly-client SDK (the multiplexed resource) |
//! | [`trace`] | Azure-style workload generators and trace parsers |
//! | [`metrics`] | latency decomposition, CDFs, resource sampling, run reports |
//! | [`simcore`] | deterministic event engine, CPU/memory models, seeded RNG |
//!
//! # Quick start
//!
//! Run FaaSBatch against a baseline on the same workload (the six-way
//! comparison — all of [`core::scheduler_kind::SchedulerKind::ALL`] — is
//! [`core::scheduler_kind::run_comparison`] or the `six_schedulers` binary):
//!
//! ```
//! use faasbatch::core::policy::{run_faasbatch, FaasBatchConfig};
//! use faasbatch::schedulers::config::SimConfig;
//! use faasbatch::schedulers::harness::run_simulation;
//! use faasbatch::schedulers::vanilla::Vanilla;
//! use faasbatch::simcore::rng::DetRng;
//! use faasbatch::simcore::time::SimDuration;
//! use faasbatch::trace::workload::{cpu_workload, WorkloadConfig};
//!
//! let workload = cpu_workload(&DetRng::new(42), &WorkloadConfig {
//!     total: 60,
//!     span: SimDuration::from_secs(5),
//!     functions: 3,
//!     bursts: 2,
//!     ..WorkloadConfig::default()
//! });
//! let fb = run_faasbatch(&workload, SimConfig::default(), FaasBatchConfig::default(), "cpu");
//! let van = run_simulation(Box::new(Vanilla::new()), &workload, SimConfig::default(), "cpu", None);
//! assert!(fb.provisioned_containers <= van.provisioned_containers);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faasbatch_container as container;
pub use faasbatch_core as core;
pub use faasbatch_exec as exec;
pub use faasbatch_fleet as fleet;
pub use faasbatch_gateway as gateway;
pub use faasbatch_metrics as metrics;
pub use faasbatch_schedulers as schedulers;
pub use faasbatch_simcore as simcore;
pub use faasbatch_storage as storage;
pub use faasbatch_trace as trace;
