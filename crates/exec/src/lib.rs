//! Work-stealing async executor for the live platform.
//!
//! `live.rs` used to spawn one OS thread per job per batch, which caps a
//! single process at a few hundred concurrent in-flight invocations. This
//! crate is the replacement runtime layer: a hand-rolled, dependency-free
//! work-stealing executor in the shape of an inference-server scheduler.
//!
//! Architecture (DESIGN.md §14):
//!
//! - **Per-worker local queues** (`queue`) — a LIFO slot for the freshest
//!   task plus a FIFO deque bounded at 256; overflow sheds its oldest task
//!   to the global injector, and a thief takes the oldest half.
//! - **Global injector** — tasks submitted from outside a worker land
//!   here; idle workers refill from it in batches.
//! - **Randomized stealing** ([`steal`]) — victim order is a Fisher–Yates
//!   permutation drawn from the existing `simcore` [`DetRng`], forked
//!   per-worker, so steal order is a pure function of `(seed, worker)` and
//!   tests are reproducible.
//! - **Hashed timer wheel** ([`timer`]) — O(1) insert, per-tick slot scan;
//!   drives cold-start delays, warm-container keep-alive and the [`Sleep`]
//!   leaf future. A timer cannot be cancelled: its callback always runs.
//! - **Parker/unparker** (`park`) — idle workers sleep on a condvar with
//!   a lost-wakeup-free hand-off protocol.
//! - **Task groups** ([`group`]) — a live container's batch becomes a group
//!   of tasks, one per job; a group-completion barrier replaces the
//!   per-batch thread join, and a panicking job fails only its own
//!   invocation (typed [`JobError`]). How many tasks a batch becomes, and
//!   so how many of its jobs run at once, is the caller's choice. The
//!   barrier is a countdown: it reads no clock, records only failures, and
//!   wakes a waiter only when one is blocked. Per-job timing belongs to the
//!   callers that want it.
//!
//! No tokio, no new external dependencies: the `Future`/`Waker` layer is
//! built on [`std::task::Wake`] and the whole crate forbids `unsafe`.
//!
//! # Examples
//!
//! ```
//! use faasbatch_exec::{Executor, ExecutorConfig, GroupJob};
//!
//! let exec = Executor::new(ExecutorConfig {
//!     workers: 2,
//!     ..ExecutorConfig::default()
//! });
//! let jobs: Vec<GroupJob> = (0..4)
//!     .map(|i| GroupJob::blocking(move || assert!(i != 2, "member {i} fails")))
//!     .collect();
//! let report = exec.submit_group(jobs, None).wait();
//! assert_eq!(report.failed(), 1);
//! assert_eq!(report.failures[0].0, 2);
//! ```
//!
//! [`DetRng`]: faasbatch_simcore::rng::DetRng
//! [`Sleep`]: timer::Sleep
//! [`JobError`]: group::JobError

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub(crate) mod park;
pub(crate) mod queue;
pub(crate) mod task;

pub mod executor;
pub mod group;
pub mod steal;
pub mod timer;

pub use executor::{global_executor, Executor, ExecutorConfig, ExecutorMetrics};
pub use group::{GroupHandle, GroupJob, GroupReport, JobError, OnComplete};
pub use timer::Sleep;
