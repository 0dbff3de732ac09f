//! Invocation-latency decomposition (paper §IV, "Evaluation Metrics").
//!
//! The paper splits invocation latency into four parts and evaluates each
//! CDF separately (Fig. 11/12):
//!
//! 1. **scheduling** — platform receives the invocation → it is sent to a
//!    container (the paper *subtracts* cold start from this; we record the
//!    two separately from the start);
//! 2. **cold start** — time to start the selected container (zero on warm);
//! 3. **queuing** — waiting inside the container before execution begins
//!    (only batching-with-slack policies like Kraken have it);
//! 4. **execution** — CPU time to run the invocation body.
//!
//! The four parts are not measured separately: they are a projection of the
//! eleven [`Phase`](crate::analysis::Phase)s the chain fold reads off the
//! event stream ([`LatencyBreakdown::from`] is the one place that builds
//! them; DESIGN.md §13 has the table):
//!
//! | part | phases |
//! |---|---|
//! | scheduling | retry-delay + gateway-queue + window-wait + dispatch |
//! | cold start | cold-start + restore |
//! | queuing | queue + barrier |
//! | execution | mux-wait + execution + cpu-contention |

use crate::analysis::PhaseBreakdown;
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The four latency components of one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Platform receive → dispatched toward a container (cold start already
    /// gouged out, per the paper's accounting).
    pub scheduling: SimDuration,
    /// Container start overhead attributed to this invocation (zero when
    /// served warm).
    pub cold_start: SimDuration,
    /// Wait inside the container before execution began.
    pub queuing: SimDuration,
    /// Execution time of the body.
    pub execution: SimDuration,
}

impl From<&PhaseBreakdown> for LatencyBreakdown {
    /// Projects the eleven phases onto the paper's four parts (module docs
    /// have the table). Every phase lands in exactly one part, so
    /// `end_to_end()` equals [`PhaseBreakdown::total`].
    fn from(p: &PhaseBreakdown) -> Self {
        LatencyBreakdown {
            scheduling: p.retry_delay + p.gateway_queue + p.window_wait + p.dispatch,
            cold_start: p.cold_start + p.restore,
            queuing: p.queue + p.barrier,
            execution: p.mux_wait + p.execution + p.cpu_contention,
        }
    }
}

impl LatencyBreakdown {
    /// End-to-end invocation latency (the paper's "processing time").
    pub fn end_to_end(&self) -> SimDuration {
        self.scheduling + self.cold_start + self.queuing + self.execution
    }

    /// Execution plus queuing — the series Fig. 11(c)/12(c) labels
    /// `Exec+Queue`.
    pub fn exec_plus_queue(&self) -> SimDuration {
        self.execution + self.queuing
    }
}

/// Everything recorded about one completed invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationRecord {
    /// The invocation.
    pub id: InvocationId,
    /// Its function.
    pub function: FunctionId,
    /// Container that served it.
    pub container: ContainerId,
    /// Arrival at the platform.
    pub arrival: SimTime,
    /// Completion (result returned).
    pub completion: SimTime,
    /// Whether this invocation triggered/waited on a *full* cold boot
    /// (image pull + process init). Mutually exclusive with `restored`.
    pub cold: bool,
    /// Whether this invocation waited on a snapshot restore instead of a
    /// full boot. The restore span is carried in
    /// [`LatencyBreakdown::cold_start`]; this flag distinguishes the tier.
    #[serde(default)]
    pub restored: bool,
    /// Latency decomposition.
    pub latency: LatencyBreakdown,
}

impl InvocationRecord {
    /// Checks internal consistency: components are non-negative by type, and
    /// arrival + end-to-end == completion (within 1 µs rounding per
    /// component).
    pub fn is_consistent(&self) -> bool {
        let span = self.completion.saturating_duration_since(self.arrival);
        let sum = self.latency.end_to_end();
        span.as_micros().abs_diff(sum.as_micros()) <= 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> InvocationRecord {
        InvocationRecord {
            id: InvocationId::new(1),
            function: FunctionId::new(0),
            container: ContainerId::new(2),
            arrival: SimTime::from_millis(100),
            completion: SimTime::from_millis(100 + 5 + 700 + 20 + 45),
            cold: true,
            restored: false,
            latency: LatencyBreakdown {
                scheduling: SimDuration::from_millis(5),
                cold_start: SimDuration::from_millis(700),
                queuing: SimDuration::from_millis(20),
                execution: SimDuration::from_millis(45),
            },
        }
    }

    #[test]
    fn end_to_end_sums_components() {
        let r = rec();
        assert_eq!(r.latency.end_to_end(), SimDuration::from_millis(770));
        assert_eq!(r.latency.exec_plus_queue(), SimDuration::from_millis(65));
    }

    #[test]
    fn consistency_check_accepts_exact() {
        assert!(rec().is_consistent());
    }

    #[test]
    fn consistency_check_rejects_gaps() {
        let mut r = rec();
        r.completion += SimDuration::from_millis(10);
        assert!(!r.is_consistent());
    }

    #[test]
    fn default_breakdown_is_zero() {
        let b = LatencyBreakdown::default();
        assert_eq!(b.end_to_end(), SimDuration::ZERO);
    }
}
