//! Work-stealing async executor for the live platform.
//!
//! One OS thread per job caps a process at a few hundred concurrent
//! in-flight invocations. This crate is the runtime layer the live
//! platform runs on instead: a hand-rolled, dependency-free work-stealing
//! executor in the shape of an inference-server scheduler.
//!
//! Architecture (DESIGN.md §14):
//!
//! - **Global injector** (`queue`) — the one enqueue path: every spawn and
//!   every wake, from any thread, lands here and unparks one sleeper.
//! - **Per-worker local queues** — a FIFO deque an idle worker fills by
//!   taking a batch of up to 128 tasks from the injector; a thief takes
//!   the oldest half of another worker's deque.
//! - **Randomized stealing** ([`steal`]) — victim order is a Fisher–Yates
//!   permutation drawn from the existing `simcore` [`DetRng`], forked
//!   per-worker, so steal order is a pure function of `(seed, worker)` and
//!   tests are reproducible.
//! - **Hashed timer wheel** ([`timer`]) — O(1) insert, per-tick slot scan;
//!   drives cold-start delays, warm-container keep-alive and the [`Sleep`]
//!   leaf future. A timer cannot be cancelled: its callback always runs.
//! - **Parker/unparker** (`park`) — idle workers sleep on a condvar with
//!   a lost-wakeup-free hand-off protocol.
//! - **Task groups** ([`group`]) — a set of jobs, one task each, behind a
//!   completion barrier; a panicking job fails only its own member (typed
//!   [`JobError`]). The barrier is a countdown: it reads no clock, records
//!   only failures, and wakes a waiter only when one is blocked. The live
//!   platform does not use groups (its batches count down their own runs);
//!   the benchmark's executor drills do.
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
