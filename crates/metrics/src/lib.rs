//! # faasbatch-metrics
//!
//! Measurement plumbing for the FaaSBatch reproduction.
//!
//! The paper evaluates two axes — *invocation latency* (decomposed into
//! scheduling, cold-start, queuing, and execution; Fig. 11/12) and *resource
//! cost* (memory, container counts, CPU utilization sampled once per second;
//! Fig. 13/14). This crate provides:
//!
//! * [`latency`] — [`latency::LatencyBreakdown`] (the paper's four parts, a
//!   projection of the eleven attribution phases) and per-invocation
//!   [`latency::InvocationRecord`]s with consistency checks;
//! * [`stats`] — [`stats::Cdf`], nearest-rank quantiles (the p98 Kraken SLO
//!   anchor), [`stats::Summary`];
//! * [`sampler`] — the 1 Hz [`sampler::ResourceSampler`];
//! * [`report`] — [`report::RunReport`], the serialisable bundle each
//!   scheduler run produces and every figure harness consumes, plus
//!   [`report::text_table`] rendering;
//! * [`events`] — the typed [`events::SimEvent`] trace stream every
//!   simulation layer emits into, the pluggable [`events::TraceSink`]s
//!   (no-op, collector, JSONL, fan-out, invariant auditor), and the
//!   [`events::RecordReducer`] that derives records and samples from the
//!   stream. One crate-private chain fold (`chain.rs`) follows each
//!   invocation's event chain; reducer, auditor and attribution engine are
//!   that fold plus their own counters (DESIGN.md §11);
//! * [`autoscaler`] — the trace-driven [`autoscaler::Autoscaler`]
//!   controller that folds a simulated worker's stream into per-function
//!   cold-start-rate / backlog / occupancy estimates and emits
//!   [`autoscaler::ScaleAction`]s the worker applies between engine steps.
//!   It is worker state configured per run, not a sink (DESIGN.md §12);
//! * [`analysis`] — trace analysis over the event stream: per-invocation
//!   latency attribution whose phases provably sum to end-to-end latency,
//!   critical-path extraction, trace diffing (`faasbatch trace-diff`), and
//!   typed-error JSONL loading (DESIGN.md §13);
//! * [`live`] — the wall-clock [`live::LiveTraceRecorder`] adapter that lets
//!   the live platform emit the same typed stream, so auditing and
//!   attribution work on real runs (DESIGN.md §14);
//! * [`telemetry`] — the live metrics plane: the lock-free
//!   [`telemetry::MetricRegistry`] of sharded counters/gauges/HDR-style
//!   histograms, the Prometheus/JSON [`telemetry::TelemetryServer`], and
//!   the post-mortem [`telemetry::FlightRecorder`] (DESIGN.md §18).
//!
//! # Examples
//!
//! ```
//! use faasbatch_metrics::stats::Cdf;
//! use faasbatch_simcore::time::SimDuration;
//!
//! let cdf = Cdf::from_samples((1..=100).map(SimDuration::from_millis).collect());
//! assert_eq!(cdf.quantile(0.98), SimDuration::from_millis(98));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The metrics pipeline sits on every event's path: reject avoidable
// allocations outright.
#![deny(
    clippy::unnecessary_to_owned,
    clippy::assigning_clones,
    clippy::inefficient_to_string,
    clippy::format_collect
)]

pub mod analysis;
pub mod autoscaler;
mod chain;
pub mod events;
pub mod latency;
pub mod live;
pub mod report;
pub mod sampler;
pub mod stats;
pub mod telemetry;
pub mod timeline;

pub use analysis::{
    diff_reports, load_events, parse_events, AttributionEngine, AttributionReport,
    InvocationAttribution, InvocationDelta, Phase, PhaseBreakdown, PhaseDelta, QuantileShift,
    TraceDiff, TraceLoadError,
};
pub use autoscaler::{Autoscaler, AutoscalerConfig, AutoscalerStats, PrewarmTier, ScaleAction};
pub use events::{
    chrome_trace, chrome_trace_to, AuditorSink, EventKind, JsonlSink, MultiSink, NoopSink,
    RecordReducer, ReducedRun, SimEvent, TaskKind, TraceSink, VecSink,
};
pub use latency::{InvocationRecord, LatencyBreakdown};
pub use live::LiveTraceRecorder;
pub use report::{percent_reduction, text_table, RunReport};
pub use sampler::{ResourceSample, ResourceSampler};
pub use stats::{Cdf, Summary};
pub use telemetry::{Counter, FlightRecorder, Gauge, Histogram, MetricRegistry, TelemetryServer};
pub use timeline::{Series, Timeline};
