//! Typed failures of the fleet replay.

use faasbatch_simcore::time::SimTime;
use std::fmt;

/// Why a fleet replay could not produce a report: a configuration
/// [`FleetConfig::validate`](crate::config::FleetConfig::validate) rejects,
/// or a *runtime* outcome of the simulated scenario itself — e.g. a fault
/// schedule that crashes every holder of an invocation, or drains every
/// worker before the trace ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The configuration is internally inconsistent (zero workers, zero
    /// window, a fault on a worker index that does not exist, or an invalid
    /// autoscaler config) or asks for a run past a worker's safety horizon
    /// (a re-dispatch delay, or a fault instant past the last arrival,
    /// longer than it); the message names the offending field.
    InvalidConfig(String),
    /// Every worker had crashed or drained when a group needed placing.
    NoLiveWorker {
        /// Function index of the group that could not be placed.
        function: u32,
        /// The group's arrival instant on the fleet clock.
        at: SimTime,
    },
    /// An invocation was stranded by a crash after its last permitted
    /// re-dispatch: the scenario cannot complete the workload exactly-once.
    RetryBudgetExhausted {
        /// Fleet-level id of the stranded invocation.
        invocation: u64,
        /// The crashed worker holding it when the budget ran out.
        worker: usize,
        /// The configured per-invocation retry budget.
        max_retries: u32,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidConfig(why) => write!(f, "invalid fleet config: {why}"),
            FleetError::NoLiveWorker { function, at } => {
                write!(f, "no live worker to place fn#{function} at {at}")
            }
            FleetError::RetryBudgetExhausted {
                invocation,
                worker,
                max_retries,
            } => write!(
                f,
                "inv#{invocation} exceeded the fleet retry budget ({max_retries}) \
                 after worker {worker} crashed"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_budget_and_the_worker() {
        let e = FleetError::RetryBudgetExhausted {
            invocation: 17,
            worker: 2,
            max_retries: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains("inv#17"));
        assert!(msg.contains("retry budget (1)"));
        assert!(msg.contains("worker 2"));
    }

    #[test]
    fn display_names_the_stranded_group() {
        let e = FleetError::NoLiveWorker {
            function: 3,
            at: SimTime::from_millis(100),
        };
        let msg = e.to_string();
        assert!(msg.contains("no live worker"));
        assert!(msg.contains("fn#3"));
    }
}
