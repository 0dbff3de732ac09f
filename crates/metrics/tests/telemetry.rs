//! Integration properties of the telemetry plane (DESIGN.md §18):
//! concurrent histogram recording merges losslessly.

use faasbatch_metrics::telemetry::{bucket_of, Histogram};
use proptest::prelude::*;
use std::thread;

proptest! {
    /// Recording the same multiset of values from several threads (each
    /// through its own clone of the handle) merges to the exact count and
    /// sum, and every quantile lands within one bucket of the
    /// single-threaded sorted oracle.
    #[test]
    fn concurrent_recording_merges_exactly(
        values in proptest::collection::vec(0u64..2_000_000, 1..400),
        threads in 2usize..6,
    ) {
        let hist = Histogram::new();
        thread::scope(|scope| {
            for t in 0..threads {
                let handle = hist.clone();
                let slice: Vec<u64> = values
                    .iter()
                    .copied()
                    .skip(t)
                    .step_by(threads)
                    .collect();
                scope.spawn(move || {
                    for v in slice {
                        handle.record(v);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let oracle = sorted[rank - 1];
            let got = snap.quantile(q);
            prop_assert!(
                bucket_of(got).abs_diff(bucket_of(oracle)) <= 1,
                "q{}: got {} oracle {}",
                q,
                got,
                oracle
            );
        }
    }

    /// A histogram merged from concurrent writers renders the same sparse
    /// cumulative exposition as one filled sequentially with the same
    /// values — shard assignment is invisible in snapshots.
    #[test]
    fn sharded_and_sequential_snapshots_agree(
        values in proptest::collection::vec(0u64..500_000, 1..200),
    ) {
        let concurrent = Histogram::new();
        thread::scope(|scope| {
            for chunk in values.chunks(values.len().div_ceil(4)) {
                let handle = concurrent.clone();
                let chunk = chunk.to_vec();
                scope.spawn(move || {
                    for v in chunk {
                        handle.record(v);
                    }
                });
            }
        });
        let sequential = Histogram::new();
        for &v in &values {
            sequential.record(v);
        }
        prop_assert_eq!(concurrent.snapshot(), sequential.snapshot());
    }
}
