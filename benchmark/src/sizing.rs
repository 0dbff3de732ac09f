//! Every sizing constant of the benchmark, in one place. A run's work comes
//! in fixed-size *units* (one replayed day, one six-scheduler pass, one burst
//! round, a quarter second of paced traffic) so that a unit is the same work on
//! every commit; `--seconds` only decides how many whole units are timed.
//! Live sizing is constant, never derived from `nproc`.

use serde::Value;

/// Sizes of one run. [`Sizing::full`] is what `BENCHMARK.json` gates;
/// [`Sizing::quick`] is the ~1 % smoke size of `run --quick`.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Times set-up is performed per untraced run; `setup_s` is their median.
    pub setup_reps: usize,

    /// `sim_azure_day`: invocations in the synthetic Azure day.
    pub day_total: usize,
    /// `sim_azure_day`: distinct functions.
    pub day_functions: usize,
    /// `sim_azure_day`: fleet workers (FaaSBatch on each, least-loaded).
    pub day_workers: usize,

    /// `sim_six_contended`: invocations per pass (replayed six times).
    pub six_total: usize,
    /// `sim_six_contended`: simulated span, seconds.
    pub six_span_s: u64,
    /// `sim_six_contended`: distinct functions.
    pub six_functions: usize,
    /// `sim_six_contended`: bursts over the span.
    pub six_bursts: usize,
    /// `sim_six_contended`: dispatch window of the windowed schedulers, ms.
    pub six_window_ms: u64,

    /// `live_burst_batched`, `live_paced_io`: gateway worker platforms,
    /// gateway ingress shards and threads of the one shared executor, each.
    pub live_workers: usize,
    /// Live workloads: per-shard admission depth (never reached).
    pub shard_depth: usize,

    /// `live_burst_batched`: invocations per closed round.
    pub batched_round: usize,
    /// `live_burst_batched`: functions, round-robin.
    pub batched_functions: usize,
    /// `live_burst_batched`: gateway window (cut short by `drain`), ms.
    pub batched_window_ms: u64,

    /// `live_burst_sparse`: invocations per closed round.
    pub sparse_round: usize,
    /// `live_burst_sparse`: functions, round-robin.
    pub sparse_functions: usize,
    /// `live_burst_sparse`: gateway window, ms.
    pub sparse_window_ms: u64,
    /// `live_burst_sparse`: most invocations outstanding at once (batched
    /// leaves its whole round outstanding).
    pub sparse_outstanding: usize,
    /// `live_burst_sparse`: what `live_workers` is to the other two. One of
    /// each, and 2,048 outstanding: with two of each and 16,384 outstanding,
    /// five saturated threads on two cores and a working set the size of
    /// the cache made every metric follow the host's mood — interleaved over
    /// fourteen seeds each, 11–15 % spread against 6–8 % like this (either
    /// change alone bought nothing).
    pub sparse_workers: usize,

    /// `live_paced_io`: offered rate, invocations per second.
    pub paced_rate: u64,
    /// `live_paced_io`: functions, drawn skewed (u squared).
    pub paced_functions: usize,
    /// `live_paced_io`: gateway window, ms.
    pub paced_window_ms: u64,
    /// `live_paced_io`: payload bytes written and read back per invocation.
    pub paced_payload: usize,
    /// `live_paced_io`: distinct storage-client configurations (buckets).
    pub paced_configs: usize,
    /// `live_paced_io`: object keys per bucket, reused in a ring.
    pub paced_key_ring: u64,
    /// `live_paced_io`: paced warm-up inside set-up, ms.
    pub paced_warmup_ms: u64,
    /// `live_paced_io`: length of one unit (a slice of the schedule), ms.
    pub paced_slice_ms: u64,
}

impl Sizing {
    /// The gated sizes.
    pub fn full() -> Sizing {
        Sizing {
            setup_reps: 7,
            day_total: 250_000,
            day_functions: 32,
            day_workers: 4,
            six_total: 1_000,
            six_span_s: 30,
            six_functions: 32,
            six_bursts: 3,
            six_window_ms: 200,
            live_workers: 2,
            shard_depth: 1 << 22,
            batched_round: 200_000,
            batched_functions: 8,
            batched_window_ms: 10_000,
            sparse_round: 200_000,
            sparse_functions: 2_048,
            sparse_window_ms: 5,
            sparse_outstanding: 2_048,
            sparse_workers: 1,
            paced_rate: 20_000,
            paced_functions: 32,
            paced_window_ms: 10,
            paced_payload: 64,
            paced_configs: 4,
            paced_key_ring: 16_384,
            paced_warmup_ms: 200,
            paced_slice_ms: 250,
        }
    }

    /// About 1 % of [`Sizing::full`]: every code path and every correctness
    /// check, no claim about speed.
    pub fn quick() -> Sizing {
        Sizing {
            setup_reps: 1,
            day_total: 20_000,
            six_total: 120,
            six_span_s: 10,
            six_functions: 8,
            six_bursts: 3,
            batched_round: 4_000,
            sparse_round: 4_000,
            sparse_functions: 256,
            paced_rate: 2_000,
            paced_warmup_ms: 50,
            paced_slice_ms: 250,
            ..Sizing::full()
        }
    }

    /// Every constant as a JSON object, for the ledger manifest.
    pub fn to_value(&self) -> Value {
        let n = |v: usize| Value::U64(v as u64);
        Value::Map(vec![
            ("setup_reps".into(), n(self.setup_reps)),
            ("day_total".into(), n(self.day_total)),
            ("day_functions".into(), n(self.day_functions)),
            ("day_workers".into(), n(self.day_workers)),
            ("six_total".into(), n(self.six_total)),
            ("six_span_s".into(), Value::U64(self.six_span_s)),
            ("six_functions".into(), n(self.six_functions)),
            ("six_bursts".into(), n(self.six_bursts)),
            ("six_window_ms".into(), Value::U64(self.six_window_ms)),
            ("live_workers".into(), n(self.live_workers)),
            ("shard_depth".into(), n(self.shard_depth)),
            ("batched_round".into(), n(self.batched_round)),
            ("batched_functions".into(), n(self.batched_functions)),
            (
                "batched_window_ms".into(),
                Value::U64(self.batched_window_ms),
            ),
            ("sparse_round".into(), n(self.sparse_round)),
            ("sparse_functions".into(), n(self.sparse_functions)),
            ("sparse_window_ms".into(), Value::U64(self.sparse_window_ms)),
            ("sparse_outstanding".into(), n(self.sparse_outstanding)),
            ("sparse_workers".into(), n(self.sparse_workers)),
            ("paced_rate".into(), Value::U64(self.paced_rate)),
            ("paced_functions".into(), n(self.paced_functions)),
            ("paced_window_ms".into(), Value::U64(self.paced_window_ms)),
            ("paced_payload".into(), n(self.paced_payload)),
            ("paced_configs".into(), n(self.paced_configs)),
            ("paced_key_ring".into(), Value::U64(self.paced_key_ring)),
            ("paced_warmup_ms".into(), Value::U64(self.paced_warmup_ms)),
            ("paced_slice_ms".into(), Value::U64(self.paced_slice_ms)),
        ])
    }
}
