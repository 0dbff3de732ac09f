//! Streaming invocation sources: workloads generated on demand with
//! bounded lookahead.
//!
//! The materialised [`Workload`] holds every [`Invocation`] in memory,
//! which caps replays at a few hundred thousand invocations. A
//! [`WorkloadStream`] generates the same sequences lazily: arrivals are
//! drawn up front only where the generator needs global order (the
//! one-minute bursty replays keep a sorted `Vec<SimTime>` — 8 bytes per
//! invocation), or window-by-window for day-scale replays (the
//! [`WorkloadStream::azure_day`] backend materialises one hour at a
//! time), while function assignment and duration sampling always happen
//! on demand, in arrival order.
//!
//! Consumers are written against the [`InvocationSource`] trait, which
//! both forms implement ([`Workload`] via [`WorkloadCursor`]), so every
//! harness entry point accepts either. The stream is the one generator:
//! the eager builders ([`cpu_workload`](crate::workload::cpu_workload) /
//! [`io_workload`](crate::workload::io_workload)) are this stream
//! materialised, and a property test in the core crate pins a stream
//! replayed on demand to its materialised cursor under all six schedulers.
//!
//! # Examples
//!
//! ```
//! use faasbatch_simcore::rng::DetRng;
//! use faasbatch_trace::stream::{InvocationSource, WorkloadStream};
//! use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
//!
//! let cfg = WorkloadConfig::default();
//! let mut stream = WorkloadStream::cpu(&DetRng::new(42), &cfg);
//! let eager = cpu_workload(&DetRng::new(42), &cfg);
//! assert_eq!(stream.total(), eager.len());
//! let first = stream.next_invocation().unwrap();
//! assert_eq!(&first, &eager.invocations()[0]);
//! ```

use crate::arrival::bursty;
use crate::duration::DurationDistribution;
use crate::function::FunctionRegistry;
use crate::workload::{
    bursty_config, cpu_registry, function_scales, io_registry, popularity, Invocation, Workload,
    WorkloadConfig,
};
use faasbatch_container::ids::{FunctionId, InvocationId};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};

/// Anything that yields a deterministic, arrival-ordered invocation
/// sequence bound to a function registry.
///
/// Implemented by [`WorkloadCursor`] (borrowing a materialised
/// [`Workload`]) and [`WorkloadStream`] (generating on demand). Harness
/// entry points take `impl InvocationSource` so both forms replay
/// identically.
pub trait InvocationSource {
    /// The registry the yielded invocations refer to.
    fn registry(&self) -> &FunctionRegistry;

    /// Total number of invocations this source will yield (known up
    /// front for all backends — completion accounting needs it).
    fn total(&self) -> usize;

    /// The next invocation in arrival order, or `None` when exhausted.
    fn next_invocation(&mut self) -> Option<Invocation>;
}

impl<S: InvocationSource + ?Sized> InvocationSource for &mut S {
    fn registry(&self) -> &FunctionRegistry {
        (**self).registry()
    }
    fn total(&self) -> usize {
        (**self).total()
    }
    fn next_invocation(&mut self) -> Option<Invocation> {
        (**self).next_invocation()
    }
}

/// Borrowing [`InvocationSource`] over a materialised [`Workload`].
#[derive(Debug)]
pub struct WorkloadCursor<'a> {
    workload: &'a Workload,
    next: usize,
}

impl<'a> WorkloadCursor<'a> {
    /// Starts a cursor at the workload's first invocation.
    pub fn new(workload: &'a Workload) -> Self {
        WorkloadCursor { workload, next: 0 }
    }
}

impl InvocationSource for WorkloadCursor<'_> {
    fn registry(&self) -> &FunctionRegistry {
        self.workload.registry()
    }
    fn total(&self) -> usize {
        self.workload.len()
    }
    fn next_invocation(&mut self) -> Option<Invocation> {
        let inv = self.workload.invocations().get(self.next)?;
        self.next += 1;
        Some(inv.clone())
    }
}

/// Samples the body of each invocation (function assignment + work) in
/// arrival order.
enum BodySampler {
    Cpu {
        ids: Vec<FunctionId>,
        weights: Vec<f64>,
        scales: Vec<f64>,
        dist: DurationDistribution,
        durations_rng: DetRng,
        assign_rng: DetRng,
    },
    Io {
        ids: Vec<FunctionId>,
        weights: Vec<f64>,
        assign_rng: DetRng,
        glue_rng: DetRng,
    },
}

impl BodySampler {
    fn sample(&mut self) -> (FunctionId, SimDuration) {
        match self {
            BodySampler::Cpu {
                ids,
                weights,
                scales,
                dist,
                durations_rng,
                assign_rng,
            } => {
                let fi = assign_rng.weighted_index(weights);
                let work = dist.sample(durations_rng).mul_f64(scales[fi]);
                (ids[fi], work)
            }
            BodySampler::Io {
                ids,
                weights,
                assign_rng,
                glue_rng,
            } => {
                let function = ids[assign_rng.weighted_index(weights)];
                // Small glue computation around the storage calls: 2–8 ms.
                let work = SimDuration::from_millis_f64(glue_rng.uniform_range(2.0, 8.0));
                (function, work)
            }
        }
    }
}

/// Where arrival instants come from.
enum ArrivalFeed {
    /// A fully sorted arrival vector (8 bytes per invocation) — used by
    /// the one-minute bursty replays, whose generator needs global order.
    Sorted { arrivals: Vec<SimTime>, next: usize },
    /// Hour-by-hour windows: only the current hour's arrivals are
    /// resident. `counts[h]` fixes each hour's population up front so
    /// `total()` is exact.
    Hourly {
        counts: Vec<usize>,
        hour: usize,
        window: Vec<SimTime>,
        next: usize,
        rng: DetRng,
    },
}

const HOUR_US: u64 = 3_600 * 1_000_000;

impl ArrivalFeed {
    fn next_arrival(&mut self) -> Option<SimTime> {
        match self {
            ArrivalFeed::Sorted { arrivals, next } => {
                let t = arrivals.get(*next).copied()?;
                *next += 1;
                Some(t)
            }
            ArrivalFeed::Hourly {
                counts,
                hour,
                window,
                next,
                rng,
            } => loop {
                if let Some(&t) = window.get(*next) {
                    *next += 1;
                    return Some(t);
                }
                if *hour >= counts.len() {
                    return None;
                }
                let h = *hour;
                *hour += 1;
                window.clear();
                *next = 0;
                let start = h as u64 * HOUR_US;
                window.extend(
                    (0..counts[h])
                        .map(|_| SimTime::from_micros(start + rng.uniform_u64(0, HOUR_US))),
                );
                window.sort_unstable();
            },
        }
    }
}

/// A synthetic full-day workload in the Azure Fig. 2 style: a diurnal
/// profile with most traffic concentrated in peak hours, generated one
/// hour at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureDayConfig {
    /// Invocations over the 24-hour day.
    pub total: usize,
    /// Distinct functions (popularity is Zipf-skewed, like the minute
    /// replays).
    pub functions: usize,
    /// Hours (0–23) carrying the concentrated traffic mass.
    pub peak_hours: Vec<u32>,
    /// Fraction of invocations that land inside peak hours; the rest is
    /// uniform background over the day (`day_pattern` uses 0.7).
    pub peak_mass: f64,
    /// Per-function duration heterogeneity, as in
    /// [`WorkloadConfig::heterogeneity`].
    pub heterogeneity: f64,
}

impl Default for AzureDayConfig {
    /// A full synthetic Azure day: ~2M invocations, morning + afternoon +
    /// evening peaks.
    fn default() -> Self {
        AzureDayConfig {
            total: 2_000_000,
            functions: 32,
            peak_hours: vec![9, 10, 11, 13, 14, 15, 19, 20],
            peak_mass: 0.7,
            heterogeneity: 0.0,
        }
    }
}

impl AzureDayConfig {
    /// Exact per-hour invocation counts implied by the config (sums to
    /// `total`).
    pub fn hourly_counts(&self) -> Vec<usize> {
        assert!(
            (0.0..=1.0).contains(&self.peak_mass),
            "peak_mass out of range: {}",
            self.peak_mass
        );
        let mut counts = vec![0usize; 24];
        let peak_total = if self.peak_hours.is_empty() {
            0
        } else {
            (self.total as f64 * self.peak_mass).round() as usize
        };
        let background = self.total - peak_total;
        for (h, count) in counts.iter_mut().enumerate() {
            *count = background / 24 + usize::from(h < background % 24);
        }
        for (i, &h) in self.peak_hours.iter().enumerate() {
            let n = self.peak_hours.len();
            counts[h as usize % 24] += peak_total / n + usize::from(i < peak_total % n);
        }
        counts
    }
}

/// A windowed, seeded invocation generator implementing
/// [`InvocationSource`] with bounded resident memory.
pub struct WorkloadStream {
    registry: FunctionRegistry,
    total: usize,
    emitted: u64,
    feed: ArrivalFeed,
    sampler: BodySampler,
}

impl std::fmt::Debug for WorkloadStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadStream")
            .field("total", &self.total)
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl WorkloadStream {
    /// The CPU-intensive workload of §IV, on demand: `fib(N)` invocations
    /// whose durations follow Fig. 9 and whose arrivals follow the bursty
    /// Fig. 10 pattern.
    pub fn cpu(rng: &DetRng, cfg: &WorkloadConfig) -> Self {
        let mut arrivals_rng = rng.fork("cpu-arrivals");
        let durations_rng = rng.fork("cpu-durations");
        let assign_rng = rng.fork("cpu-assign");

        let arrivals = bursty(&mut arrivals_rng, &bursty_config(cfg));
        let scales = function_scales(rng, cfg.functions, cfg.heterogeneity);
        let (registry, ids) = cpu_registry(&scales);
        WorkloadStream {
            registry,
            total: arrivals.len(),
            emitted: 0,
            feed: ArrivalFeed::Sorted { arrivals, next: 0 },
            sampler: BodySampler::Cpu {
                ids,
                weights: popularity(cfg.functions),
                scales,
                dist: DurationDistribution::azure_fig9(),
                durations_rng,
                assign_rng,
            },
        }
    }

    /// The I/O workload of §IV, on demand: functions that create storage
    /// clients and touch objects, `work` holding only the glue computation.
    pub fn io(rng: &DetRng, cfg: &WorkloadConfig) -> Self {
        let mut arrivals_rng = rng.fork("io-arrivals");
        let assign_rng = rng.fork("io-assign");
        let glue_rng = rng.fork("io-glue");

        let arrivals = bursty(&mut arrivals_rng, &bursty_config(cfg));
        let (registry, ids) = io_registry(cfg.functions);
        WorkloadStream {
            registry,
            total: arrivals.len(),
            emitted: 0,
            feed: ArrivalFeed::Sorted { arrivals, next: 0 },
            sampler: BodySampler::Io {
                ids,
                weights: popularity(cfg.functions),
                assign_rng,
                glue_rng,
            },
        }
    }

    /// A synthetic Azure full day of CPU traffic, generated one hour at a
    /// time — resident arrival memory is bounded by the busiest hour, not
    /// the day.
    pub fn azure_day(rng: &DetRng, cfg: &AzureDayConfig) -> Self {
        let arrivals_rng = rng.fork("day-arrivals");
        let durations_rng = rng.fork("day-durations");
        let assign_rng = rng.fork("day-assign");

        let counts = cfg.hourly_counts();
        let total = counts.iter().sum();
        let scales = function_scales(rng, cfg.functions, cfg.heterogeneity);
        let (registry, ids) = cpu_registry(&scales);
        WorkloadStream {
            registry,
            total,
            emitted: 0,
            feed: ArrivalFeed::Hourly {
                counts,
                hour: 0,
                window: Vec::new(),
                next: 0,
                rng: arrivals_rng,
            },
            sampler: BodySampler::Cpu {
                ids,
                weights: popularity(cfg.functions),
                scales,
                dist: DurationDistribution::azure_fig9(),
                durations_rng,
                assign_rng,
            },
        }
    }

    /// Drains the stream into a materialised [`Workload`]. Intended for
    /// tests and small replays; for day-scale streams this re-introduces
    /// the O(total) memory the stream exists to avoid.
    pub fn materialise(mut self) -> Workload {
        let mut invocations = Vec::with_capacity(self.total);
        while let Some(inv) = self.next_invocation() {
            invocations.push(inv);
        }
        Workload::from_sorted(self.registry, invocations)
    }
}

impl InvocationSource for WorkloadStream {
    fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }
    fn total(&self) -> usize {
        self.total
    }
    fn next_invocation(&mut self) -> Option<Invocation> {
        let arrival = self.feed.next_arrival()?;
        let (function, work) = self.sampler.sample();
        let id = InvocationId::new(self.emitted);
        self.emitted += 1;
        Some(Invocation {
            id,
            function,
            arrival,
            work,
        })
    }
}

impl Iterator for WorkloadStream {
    type Item = Invocation;
    fn next(&mut self) -> Option<Invocation> {
        self.next_invocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::cpu_workload;

    #[test]
    fn cursor_replays_the_workload_verbatim() {
        let w = cpu_workload(&DetRng::new(5), &WorkloadConfig::default());
        let mut cursor = w.cursor();
        assert_eq!(cursor.total(), w.len());
        let mut n = 0;
        while let Some(inv) = cursor.next_invocation() {
            assert_eq!(&inv, &w.invocations()[n]);
            n += 1;
        }
        assert_eq!(n, w.len());
    }

    #[test]
    fn azure_day_emits_exact_total_sorted_and_dense() {
        let cfg = AzureDayConfig {
            total: 50_000,
            ..AzureDayConfig::default()
        };
        let mut stream = WorkloadStream::azure_day(&DetRng::new(11), &cfg);
        assert_eq!(stream.total(), 50_000);
        let mut prev = SimTime::ZERO;
        let mut n = 0u64;
        while let Some(inv) = stream.next_invocation() {
            assert!(inv.arrival >= prev, "arrivals must be sorted");
            assert_eq!(inv.id.value(), n, "ids must be dense");
            prev = inv.arrival;
            n += 1;
        }
        assert_eq!(n, 50_000);
        assert!(prev < SimTime::from_secs(24 * 3600));
    }

    #[test]
    fn azure_day_is_deterministic_per_seed() {
        let cfg = AzureDayConfig {
            total: 20_000,
            ..AzureDayConfig::default()
        };
        let a: Vec<Invocation> = WorkloadStream::azure_day(&DetRng::new(3), &cfg).collect();
        let b: Vec<Invocation> = WorkloadStream::azure_day(&DetRng::new(3), &cfg).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn azure_day_concentrates_in_peak_hours() {
        let cfg = AzureDayConfig {
            total: 100_000,
            ..AzureDayConfig::default()
        };
        let peak: std::collections::HashSet<u64> =
            cfg.peak_hours.iter().map(|&h| h as u64).collect();
        let in_peaks = WorkloadStream::azure_day(&DetRng::new(4), &cfg)
            .filter(|inv| peak.contains(&(inv.arrival.as_micros() / HOUR_US)))
            .count();
        assert!(
            in_peaks as f64 > 0.65 * 100_000.0,
            "{in_peaks} of 100000 in peaks"
        );
    }

    #[test]
    fn hourly_counts_sum_to_total() {
        for total in [0, 1, 23, 24, 1_000, 2_000_000] {
            let cfg = AzureDayConfig {
                total,
                ..AzureDayConfig::default()
            };
            assert_eq!(cfg.hourly_counts().iter().sum::<usize>(), total);
        }
        let no_peaks = AzureDayConfig {
            total: 1000,
            peak_hours: Vec::new(),
            ..AzureDayConfig::default()
        };
        assert_eq!(no_peaks.hourly_counts().iter().sum::<usize>(), 1000);
    }

    #[test]
    fn azure_day_window_memory_is_bounded_by_busiest_hour() {
        let cfg = AzureDayConfig {
            total: 48_000,
            ..AzureDayConfig::default()
        };
        let max_hour = cfg.hourly_counts().into_iter().max().unwrap();
        let mut stream = WorkloadStream::azure_day(&DetRng::new(8), &cfg);
        while stream.next_invocation().is_some() {
            if let ArrivalFeed::Hourly { window, .. } = &stream.feed {
                assert!(window.len() <= max_hour);
            }
        }
    }
}
