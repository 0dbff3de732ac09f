//! Materialised workloads: the exact invocation stream every scheduler
//! replays.
//!
//! A [`Workload`] is a sorted list of [`Invocation`]s plus the function
//! registry they refer to. Building it once and handing the same value to
//! Vanilla, Kraken, SFS, and FaaSBatch guarantees the comparison sees
//! identical arrivals and identical work — the paper's replay methodology.

use crate::arrival::BurstyConfig;
use crate::fib;
use crate::function::{FunctionKind, FunctionRegistry};
use crate::stream::WorkloadStream;
use faasbatch_container::ids::{FunctionId, InvocationId};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One function invocation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Invocation {
    /// Unique id (dense, in arrival order).
    pub id: InvocationId,
    /// The invoked function.
    pub function: FunctionId,
    /// When the request reaches the platform.
    pub arrival: SimTime,
    /// Intrinsic CPU work of the body (excludes client creation and I/O
    /// waits, which the execution substrate charges separately).
    pub work: SimDuration,
}

/// A replayable invocation stream bound to its function registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    registry: FunctionRegistry,
    invocations: Vec<Invocation>,
}

/// Debug-build guard for the struct invariant: arrivals sorted, ids dense
/// in arrival order.
fn debug_assert_stream_invariant(invocations: &[Invocation]) {
    debug_assert!(
        invocations.windows(2).all(|p| p[0].arrival <= p[1].arrival),
        "invocations must be sorted by arrival"
    );
    debug_assert!(
        invocations
            .iter()
            .enumerate()
            .all(|(n, inv)| inv.id.value() == n as u64),
        "invocation ids must be dense in arrival order"
    );
}

impl Workload {
    /// Bundles a registry and invocations (sorting by arrival, re-numbering
    /// ids in arrival order).
    pub fn new(registry: FunctionRegistry, mut invocations: Vec<Invocation>) -> Self {
        invocations.sort_by_key(|i| i.arrival);
        for (n, inv) in invocations.iter_mut().enumerate() {
            inv.id = InvocationId::new(n as u64);
        }
        Workload {
            registry,
            invocations,
        }
    }

    /// Bundles a registry with invocations that are *already* sorted by
    /// arrival and densely numbered — skips the sort that
    /// [`Workload::new`] pays. Used by streaming generators and the linear
    /// [`merge`](Self::merge), whose outputs carry the invariant by
    /// construction; debug builds still verify it.
    pub fn from_sorted(registry: FunctionRegistry, invocations: Vec<Invocation>) -> Self {
        debug_assert_stream_invariant(&invocations);
        Workload {
            registry,
            invocations,
        }
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The invocations, sorted by arrival.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// A borrowing [`InvocationSource`](crate::stream::InvocationSource)
    /// over this workload.
    pub fn cursor(&self) -> crate::stream::WorkloadCursor<'_> {
        crate::stream::WorkloadCursor::new(self)
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// True when there are no invocations.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Timestamp of the last arrival ([`SimTime::ZERO`] when empty).
    pub fn last_arrival(&self) -> SimTime {
        self.invocations.last().map_or(SimTime::ZERO, |i| i.arrival)
    }

    /// Restricts the workload to its first `n` invocations (the paper uses
    /// the first 400 of the minute for I/O functions). O(1) beyond the
    /// drop: a prefix of a sorted, densely numbered stream keeps both
    /// invariants, so nothing is re-sorted or re-numbered.
    pub fn truncate(mut self, n: usize) -> Self {
        self.invocations.truncate(n);
        debug_assert_stream_invariant(&self.invocations);
        self
    }

    /// Total intrinsic work across invocations.
    pub fn total_work(&self) -> SimDuration {
        self.invocations.iter().map(|i| i.work).sum()
    }

    /// Merges two workloads into one: registries are concatenated (the
    /// `other` workload's function ids are shifted past `self`'s) and the
    /// invocation streams are interleaved by arrival time. Useful for mixed
    /// CPU + I/O experiments beyond the paper's separate replays.
    ///
    /// Both sides are already sorted (struct invariant), so this is a
    /// linear two-pointer merge — no re-sort. Ties keep `self`'s
    /// invocations first, matching what the old concat-then-stable-sort
    /// implementation produced.
    pub fn merge(self, other: Workload) -> Workload {
        let mut registry = self.registry;
        let offset = registry.len() as u32;
        let mut remap = Vec::with_capacity(other.registry.len());
        for (_, profile) in other.registry.iter() {
            remap.push(registry.register(&profile.name, profile.kind.clone()));
        }
        debug_assert!(remap
            .iter()
            .enumerate()
            .all(|(i, id)| id.index() == offset + i as u32));

        debug_assert_stream_invariant(&self.invocations);
        debug_assert_stream_invariant(&other.invocations);
        let mut merged = Vec::with_capacity(self.invocations.len() + other.invocations.len());
        let mut a = self.invocations.into_iter().peekable();
        let mut b = other.invocations.into_iter().peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.arrival <= y.arrival,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let mut inv = if take_a {
                a.next().expect("peeked")
            } else {
                let mut inv = b.next().expect("peeked");
                inv.function = remap[inv.function.index() as usize];
                inv
            };
            inv.id = InvocationId::new(merged.len() as u64);
            merged.push(inv);
        }
        Workload::from_sorted(registry, merged)
    }
}

/// Parameters for the Azure-like synthetic workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Invocations to generate.
    pub total: usize,
    /// Window covered by the replay.
    pub span: SimDuration,
    /// Distinct functions; popularity is skewed (hot functions dominate, as
    /// in the Azure trace where 20 % of functions take > 99 % of traffic).
    pub functions: usize,
    /// Number of bursts in the arrival pattern.
    pub bursts: usize,
    /// Per-function duration heterogeneity: each function's durations are
    /// scaled by a factor drawn log-uniformly from
    /// `[1/(1+h), 1+h]`. Zero (the default, used by the paper-figure
    /// harnesses) keeps every function on the global Fig. 9 distribution;
    /// positive values make short-function/long-function identities real,
    /// which matters for per-function SLOs (Kraken) and priorities (SFS).
    pub heterogeneity: f64,
}

impl Default for WorkloadConfig {
    /// The paper's CPU replay: 800 invocations in one minute.
    fn default() -> Self {
        WorkloadConfig {
            total: 800,
            span: SimDuration::from_secs(60),
            functions: 8,
            bursts: 6,
            heterogeneity: 0.0,
        }
    }
}

/// Per-function duration scale factors for `heterogeneity` (forks the
/// `function-scales` stream only when the knob is non-zero, preserving the
/// legacy RNG layout).
pub(crate) fn function_scales(rng: &DetRng, functions: usize, heterogeneity: f64) -> Vec<f64> {
    assert!(
        heterogeneity >= 0.0 && heterogeneity.is_finite(),
        "invalid heterogeneity: {heterogeneity}"
    );
    if heterogeneity == 0.0 {
        return vec![1.0; functions];
    }
    let mut srng = rng.fork("function-scales");
    let hi = 1.0 + heterogeneity;
    (0..functions)
        .map(|_| srng.uniform_range((1.0 / hi).ln(), hi.ln()).exp())
        .collect()
}

/// Derives the bursty arrival configuration, clamping the burst width so
/// short test spans stay valid.
pub(crate) fn bursty_config(cfg: &WorkloadConfig) -> BurstyConfig {
    let default = BurstyConfig::default();
    BurstyConfig {
        total: cfg.total,
        span: cfg.span,
        bursts: cfg.bursts,
        burst_width: default.burst_width.min(cfg.span / 2),
        ..default
    }
}

/// Zipf-like popularity weights for `n` functions (s = 1.5).
pub(crate) fn popularity(n: usize) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / (k as f64).powf(1.5)).collect()
}

/// Registers the CPU function set: each function gets a representative
/// fib-N name (from its scaled median duration); individual invocations
/// still sample their own duration (inputs vary per request).
pub(crate) fn cpu_registry(scales: &[f64]) -> (FunctionRegistry, Vec<FunctionId>) {
    let mut registry = FunctionRegistry::new();
    let ids = scales
        .iter()
        .enumerate()
        .map(|(i, &scale)| {
            let median = SimDuration::from_millis_f64(45.0 * scale);
            registry.register(
                &format!("fib-{i}"),
                FunctionKind::Cpu {
                    fib_n: fib::fib_n_for_duration(median),
                },
            )
        })
        .collect();
    (registry, ids)
}

/// Registers the I/O function set (one bucket per function, two ops each).
pub(crate) fn io_registry(functions: usize) -> (FunctionRegistry, Vec<FunctionId>) {
    let mut registry = FunctionRegistry::new();
    let ids = (0..functions)
        .map(|i| {
            registry.register(
                &format!("io-{i}"),
                FunctionKind::Io {
                    bucket: format!("bucket-{i}"),
                    ops: 2,
                },
            )
        })
        .collect();
    (registry, ids)
}

/// Builds the CPU-intensive workload of §IV: `fib(N)` invocations whose
/// durations follow Fig. 9 and whose arrivals follow the bursty Fig. 10
/// pattern.
///
/// # Examples
///
/// ```
/// use faasbatch_simcore::rng::DetRng;
/// use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
///
/// let w = cpu_workload(&DetRng::new(42), &WorkloadConfig::default());
/// assert_eq!(w.len(), 800);
/// ```
pub fn cpu_workload(rng: &DetRng, cfg: &WorkloadConfig) -> Workload {
    WorkloadStream::cpu(rng, cfg).materialise()
}

/// Builds the I/O workload of §IV: functions that create storage clients
/// (Listing 1) and touch objects. The paper replays the first 400
/// invocations of the minute; pass `cfg.total = 400` for that setup.
///
/// The `work` field holds only the small glue computation; client creation
/// and per-operation latency are charged by the execution substrate using
/// [`faasbatch-storage`'s cost model](https://docs.rs), so the Resource
/// Multiplexer's savings show up behaviourally rather than being baked into
/// the trace.
pub fn io_workload(rng: &DetRng, cfg: &WorkloadConfig) -> Workload {
    WorkloadStream::io(rng, cfg).materialise()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::DurationDistribution;

    #[test]
    fn cpu_workload_shape() {
        let w = cpu_workload(&DetRng::new(1), &WorkloadConfig::default());
        assert_eq!(w.len(), 800);
        assert_eq!(w.registry().len(), 8);
        assert!(w
            .invocations()
            .windows(2)
            .all(|p| p[0].arrival <= p[1].arrival));
        // Ids are dense and in arrival order.
        for (i, inv) in w.invocations().iter().enumerate() {
            assert_eq!(inv.id.value(), i as u64);
        }
    }

    #[test]
    fn cpu_durations_follow_fig9_roughly() {
        let w = cpu_workload(
            &DetRng::new(2),
            &WorkloadConfig {
                total: 20_000,
                ..WorkloadConfig::default()
            },
        );
        let dist = DurationDistribution::azure_fig9();
        let samples: Vec<SimDuration> = w.invocations().iter().map(|i| i.work).collect();
        let hist = dist.histogram(&samples);
        assert!((hist[0] - 0.5513).abs() < 0.02, "short bucket {}", hist[0]);
        assert!((hist[5] - 0.1014).abs() < 0.02, "tail bucket {}", hist[5]);
    }

    #[test]
    fn popularity_is_skewed() {
        let w = cpu_workload(
            &DetRng::new(3),
            &WorkloadConfig {
                total: 4_000,
                ..WorkloadConfig::default()
            },
        );
        let mut counts = vec![0usize; w.registry().len()];
        for inv in w.invocations() {
            counts[inv.function.index() as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(
            hottest as f64 > 0.35 * 4_000.0,
            "hottest function got {hottest}"
        );
    }

    #[test]
    fn io_workload_registers_io_functions() {
        let cfg = WorkloadConfig {
            total: 400,
            ..WorkloadConfig::default()
        };
        let w = io_workload(&DetRng::new(4), &cfg);
        assert_eq!(w.len(), 400);
        assert!(w.registry().iter().all(|(_, p)| p.kind.is_io()));
        for inv in w.invocations() {
            let ms = inv.work.as_millis_f64();
            assert!((2.0..8.0).contains(&ms), "glue work {ms} ms");
        }
    }

    #[test]
    fn heterogeneity_separates_function_profiles() {
        let cfg = WorkloadConfig {
            total: 8_000,
            heterogeneity: 2.0,
            ..WorkloadConfig::default()
        };
        let w = cpu_workload(&DetRng::new(11), &cfg);
        let mut sums = vec![(0.0f64, 0usize); w.registry().len()];
        for inv in w.invocations() {
            let e = &mut sums[inv.function.index() as usize];
            e.0 += inv.work.as_millis_f64();
            e.1 += 1;
        }
        let means: Vec<f64> = sums
            .iter()
            .filter(|&&(_, n)| n > 50)
            .map(|&(s, n)| s / n as f64)
            .collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0, f64::max);
        assert!(
            hi / lo > 1.5,
            "functions should have distinct duration profiles: {lo:.1}..{hi:.1} ms"
        );
    }

    #[test]
    fn zero_heterogeneity_matches_legacy_generation() {
        // heterogeneity = 0 must be byte-identical to the pre-knob output so
        // calibrated figures stay stable.
        let a = cpu_workload(&DetRng::new(6), &WorkloadConfig::default());
        let b = cpu_workload(
            &DetRng::new(6),
            &WorkloadConfig {
                heterogeneity: 0.0,
                ..WorkloadConfig::default()
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let w = cpu_workload(&DetRng::new(5), &WorkloadConfig::default()).truncate(100);
        assert_eq!(w.len(), 100);
        assert!(w
            .invocations()
            .windows(2)
            .all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn same_seed_same_workload() {
        let a = cpu_workload(&DetRng::new(6), &WorkloadConfig::default());
        let b = cpu_workload(&DetRng::new(6), &WorkloadConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn new_sorts_and_renumbers() {
        let mut reg = FunctionRegistry::new();
        let f = reg.register("f", FunctionKind::Cpu { fib_n: 20 });
        let inv = |t: u64| Invocation {
            id: InvocationId::new(99),
            function: f,
            arrival: SimTime::from_secs(t),
            work: SimDuration::from_millis(1),
        };
        let w = Workload::new(reg, vec![inv(5), inv(1), inv(3)]);
        let arrivals: Vec<u64> = w
            .invocations()
            .iter()
            .map(|i| i.arrival.as_micros() / 1_000_000)
            .collect();
        assert_eq!(arrivals, vec![1, 3, 5]);
        assert_eq!(w.invocations()[0].id, InvocationId::new(0));
        assert_eq!(w.last_arrival(), SimTime::from_secs(5));
    }

    #[test]
    fn merge_interleaves_and_remaps() {
        let cpu = cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 30,
                span: SimDuration::from_secs(10),
                functions: 3,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let io = io_workload(
            &DetRng::new(2),
            &WorkloadConfig {
                total: 20,
                span: SimDuration::from_secs(10),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let merged = cpu.clone().merge(io.clone());
        assert_eq!(merged.len(), 50);
        assert_eq!(merged.registry().len(), 5);
        // Sorted by arrival, ids dense.
        assert!(merged
            .invocations()
            .windows(2)
            .all(|p| p[0].arrival <= p[1].arrival));
        for (i, inv) in merged.invocations().iter().enumerate() {
            assert_eq!(inv.id.value(), i as u64);
        }
        // Both kinds present and correctly classified.
        let io_count = merged
            .invocations()
            .iter()
            .filter(|i| merged.registry().profile(i.function).kind.is_io())
            .count();
        assert_eq!(io_count, 20);
    }

    #[test]
    fn total_work_sums() {
        let mut reg = FunctionRegistry::new();
        let f = reg.register("f", FunctionKind::Cpu { fib_n: 20 });
        let invs = (1..=3)
            .map(|i| Invocation {
                id: InvocationId::new(i),
                function: f,
                arrival: SimTime::ZERO,
                work: SimDuration::from_millis(10 * i),
            })
            .collect();
        let w = Workload::new(reg, invs);
        assert_eq!(w.total_work(), SimDuration::from_millis(60));
    }
}
