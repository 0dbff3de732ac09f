//! Trace analysis: the layer that turns the event spine into an
//! *explanation*.
//!
//! The event stream (DESIGN.md §11) narrates what happened; this module
//! answers *where the time went* and *why one run beats another* — the
//! paper's headline claims (batching removes cold starts, expansion removes
//! queueing, the multiplexer removes client-creation latency) are exactly
//! such claims. Three submodules:
//!
//! * [`attribution`] — folds a [`SimEvent`](crate::events::SimEvent) stream
//!   (live, as a [`TraceSink`](crate::events::TraceSink), or offline from a
//!   JSONL file) into per-invocation [`PhaseBreakdown`]s that provably sum
//!   to end-to-end latency, plus per-function aggregates and critical-path
//!   extraction (DESIGN.md §13);
//! * [`diff`] — aligns two attributed runs by invocation id and explains
//!   the latency delta phase by phase (`faasbatch trace-diff`);
//! * [`load`] — typed-error JSONL loading for offline analysis.

pub mod attribution;
pub mod diff;
pub mod load;

pub use attribution::{
    AttributionEngine, AttributionReport, InvocationAttribution, Phase, PhaseBreakdown,
};
pub use diff::{diff_reports, InvocationDelta, PhaseDelta, QuantileShift, TraceDiff};
pub use load::{load_events, parse_events, TraceLoadError};
