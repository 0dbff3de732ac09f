//! The live telemetry plane (DESIGN.md §18).
//!
//! The trace spine (§11–§13) explains a run *after* it ends; this module
//! watches the live stack *while* it runs, without slowing it down:
//!
//! * [`MetricRegistry`] — build-time registration of [`Counter`]s,
//!   [`Gauge`]s, polled closures, and [`Histogram`]s whose hot path is an
//!   index plus a relaxed `fetch_add` on per-thread-sharded,
//!   cache-line-padded atomics;
//! * [`Histogram`] — log-bucketed HDR-style latency histograms over fixed
//!   `AtomicU64` arrays, mergeable across threads, quantiles exact within
//!   6.25% bucket resolution;
//! * [`TelemetryServer`] / [`http_get`] — a dependency-free HTTP endpoint
//!   serving Prometheus text (`/metrics`) and a byte-deterministic JSON
//!   snapshot (`/json`), plus the matching one-shot client behind
//!   `faasbatch top`;
//! * [`FlightRecorder`] — a bounded sharded ring of recent
//!   [`SimEvent`](crate::events::SimEvent)s that dumps a causally-ordered
//!   JSONL post-mortem (readable by `faasbatch trace --analyze`) on
//!   panic, auditor violation, or shutdown.
//!
//! Each live layer registers its families once and keeps one count per
//! fact: the gateway, the platform cores and the executor expose the
//! atomics they already keep as polled closures; only what nothing else
//! counts (the platform's in-flight gauge, latency and batch-size
//! histograms) is recorded through a handle. Nothing folds the event stream into a
//! second set of counters — explaining a run after it ends is the chain
//! fold's job (DESIGN.md §11).

mod expose;
mod flight;
mod histogram;
mod registry;

pub use expose::{http_get, TelemetryServer};
pub use flight::FlightRecorder;
pub use histogram::{bucket_max, bucket_of, Histogram, HistogramSnapshot, BUCKETS, SUB_BITS};
pub use registry::{Counter, Gauge, MetricRegistry};
