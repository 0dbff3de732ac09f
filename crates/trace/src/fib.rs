//! The `fib` benchmark function and its N ↔ duration calibration.
//!
//! The paper generates CPU-intensive workloads by "computing the Fibonacci
//! series with different input N-values", using the N → duration mapping of
//! the SFS paper's Table I (naive recursive Fibonacci in Python, where
//! `fib(20..=26)` completes in under 45 ms). Runtime grows as φ^N, so we
//! calibrate `duration(N) = BASE · φ^(N − 26)` with `duration(26) = 45 ms`
//! and invert it to choose an N for any target duration.

use faasbatch_simcore::time::SimDuration;

/// The golden ratio — growth factor of naive-recursive Fibonacci runtime.
pub const PHI: f64 = 1.618_033_988_749_895;

/// Calibration anchor: `fib(26)` runs in 45 ms (SFS Table I).
pub const ANCHOR_N: u32 = 26;
/// Duration of [`ANCHOR_N`] in milliseconds.
pub const ANCHOR_MS: f64 = 45.0;

/// Smallest N the generator emits.
pub const MIN_N: u32 = 20;
/// Largest N the generator emits (≈ 6.5 s, covering Fig. 9's tail bucket).
pub const MAX_N: u32 = 36;

/// Naive recursive Fibonacci — the paper's CPU-intensive function body.
///
/// Deliberately exponential: this is a calibrated CPU burner, not a way to
/// compute Fibonacci numbers.
///
/// # Examples
///
/// ```
/// use faasbatch_trace::fib::fib;
///
/// assert_eq!(fib(10), 55);
/// ```
pub fn fib(n: u32) -> u64 {
    if n < 2 {
        n as u64
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Expected (modelled) execution duration of `fib(n)` on the paper's worker.
///
/// # Examples
///
/// ```
/// use faasbatch_trace::fib::{expected_duration, ANCHOR_N};
///
/// assert_eq!(expected_duration(ANCHOR_N).as_millis(), 45);
/// ```
pub fn expected_duration(n: u32) -> SimDuration {
    let ms = ANCHOR_MS * PHI.powi(n as i32 - ANCHOR_N as i32);
    SimDuration::from_millis_f64(ms)
}

/// The N whose modelled duration is closest to `target` (clamped to
/// `[MIN_N, MAX_N]`).
///
/// # Examples
///
/// ```
/// use faasbatch_simcore::time::SimDuration;
/// use faasbatch_trace::fib::{fib_n_for_duration, ANCHOR_N};
///
/// assert_eq!(fib_n_for_duration(SimDuration::from_millis(45)), ANCHOR_N);
/// ```
pub fn fib_n_for_duration(target: SimDuration) -> u32 {
    let ms = target.as_millis_f64().max(0.1);
    let n = ANCHOR_N as f64 + (ms / ANCHOR_MS).ln() / PHI.ln();
    (n.round() as i64).clamp(MIN_N as i64, MAX_N as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_base_cases_and_values() {
        assert_eq!(fib(0), 0);
        assert_eq!(fib(1), 1);
        assert_eq!(fib(2), 1);
        assert_eq!(fib(20), 6765);
        assert_eq!(fib(30), 832_040);
    }

    #[test]
    fn durations_under_45ms_for_small_n() {
        // Paper: fib with N in 20..=26 completes in under 45 ms.
        for n in MIN_N..=26 {
            assert!(
                expected_duration(n) <= SimDuration::from_millis(45),
                "fib({n}) modelled too slow"
            );
        }
    }

    #[test]
    fn duration_grows_by_phi() {
        let a = expected_duration(30).as_secs_f64();
        let b = expected_duration(31).as_secs_f64();
        // Durations are rounded to whole microseconds, so allow for that.
        assert!((b / a - PHI).abs() < 1e-4);
    }

    #[test]
    fn inverse_roundtrips_on_grid() {
        for n in MIN_N..=MAX_N {
            assert_eq!(fib_n_for_duration(expected_duration(n)), n);
        }
    }

    #[test]
    fn inverse_clamps() {
        assert_eq!(fib_n_for_duration(SimDuration::from_micros(1)), MIN_N);
        assert_eq!(fib_n_for_duration(SimDuration::from_secs(3600)), MAX_N);
    }

    #[test]
    fn table_is_complete_and_monotonic() {
        // Every N of the generator range has a duration, strictly rising.
        let durations: Vec<_> = (MIN_N..=MAX_N).map(expected_duration).collect();
        assert!(durations.windows(2).all(|w| w[1] > w[0]));
    }
}
