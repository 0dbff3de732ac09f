//! Simulated-time cost model for storage-client creation and I/O operations.
//!
//! The live SDK in [`crate::client`] pays real CPU; the discrete-event
//! experiments (Fig. 12/14) instead charge these calibrated costs. The
//! constants come from the paper's own measurements:
//!
//! * Fig. 4 — creating one S3 client takes **66 ms** alone; at concurrency 9
//!   creation time reaches **3165 ms** (≈ 48×). We model per-creation work as
//!   `base · (1 + α·(k−1))` with creations serialised inside a container;
//!   α = 0.54 fits the reported endpoint (9 serialized creations of
//!   66·(1+0.54·8) ≈ 352 ms each ⇒ ≈ 3165 ms total).
//! * Fig. 5 / Fig. 14(d) — each live client occupies ≈ **15 MB**; a container
//!   grows from 9 MB to 60 MB as concurrency rises 1 → 9.

use faasbatch_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Calibrated simulated costs of SDK-client creation (per container).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientCostModel {
    /// CPU work of one creation at concurrency 1 (paper: 66 ms).
    pub base_work: SimDuration,
    /// Extra work fraction per additional concurrent creation (α).
    pub contention_alpha: f64,
    /// Steady-state memory footprint per live client instance
    /// (paper Fig. 14(d): ≈ 15 MB for the baselines).
    pub memory_per_client: u64,
    /// Latency of one object operation (get/put) after the client exists.
    pub op_latency: SimDuration,
}

impl Default for ClientCostModel {
    fn default() -> Self {
        ClientCostModel {
            base_work: SimDuration::from_millis(66),
            contention_alpha: 0.54,
            memory_per_client: 15 << 20,
            op_latency: SimDuration::from_millis(15),
        }
    }
}

impl ClientCostModel {
    /// CPU work of one creation when `concurrent` creations are in flight in
    /// the same container.
    pub fn creation_work(&self, concurrent: usize) -> SimDuration {
        let k = concurrent.max(1) as f64;
        self.base_work
            .mul_f64(1.0 + self.contention_alpha * (k - 1.0))
    }

    /// Total serialized time for a burst of `k` simultaneous creations in
    /// one container (each pays `creation_work(k)`, executed one at a time —
    /// the Fig. 4 curve).
    pub fn burst_total(&self, k: usize) -> SimDuration {
        self.creation_work(k) * k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_fig4_endpoints() {
        let m = ClientCostModel::default();
        assert_eq!(m.creation_work(1), SimDuration::from_millis(66));
        let total9 = m.burst_total(9);
        // Paper: 3165 ms at concurrency 9.
        let err = (total9.as_millis_f64() - 3165.0).abs();
        assert!(err < 100.0, "burst_total(9) = {total9}");
    }

    #[test]
    fn creation_work_is_monotonic() {
        let m = ClientCostModel::default();
        let mut prev = SimDuration::ZERO;
        for k in 1..=10 {
            let w = m.creation_work(k);
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn zero_concurrency_clamps_to_one() {
        let m = ClientCostModel::default();
        assert_eq!(m.creation_work(0), m.creation_work(1));
    }
}
