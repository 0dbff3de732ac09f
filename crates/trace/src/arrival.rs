//! Invocation arrival-pattern generators.
//!
//! The paper replays 800 invocations from one minute (22:10–22:11, day 13)
//! of the Azure Functions trace — a bursty pattern with tight temporal
//! locality (Fig. 10), and motivates batching with the day-long patterns of
//! three hot functions (Fig. 2). The real trace is not redistributable here,
//! so these generators reproduce the published statistics; a parser for the
//! real CSVs lives in [`crate::azure`].

use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};

/// Evenly spaced arrivals: `n` invocations across `span`.
pub fn constant_rate(n: usize, span: SimDuration) -> Vec<SimTime> {
    if n == 0 {
        return Vec::new();
    }
    let step = span.as_micros() / n as u64;
    (0..n)
        .map(|i| SimTime::from_micros(i as u64 * step))
        .collect()
}

/// Configuration for the bursty generator.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyConfig {
    /// Total invocations to emit.
    pub total: usize,
    /// Time window covered.
    pub span: SimDuration,
    /// Number of bursts.
    pub bursts: usize,
    /// Fraction of invocations concentrated in bursts (rest is background).
    pub burst_mass: f64,
    /// Width of each burst.
    pub burst_width: SimDuration,
}

impl Default for BurstyConfig {
    /// The Fig. 10 workload: 800 invocations in 60 s, ~75 % of them inside
    /// six sharp ≈250 ms spikes (the paper's replay reaches ~1500 req/s at
    /// peak; spikes are what push container-per-invocation platforms into
    /// cold-start storms).
    fn default() -> Self {
        BurstyConfig {
            total: 800,
            span: SimDuration::from_secs(60),
            bursts: 6,
            burst_mass: 0.75,
            burst_width: SimDuration::from_millis(250),
        }
    }
}

/// Bursty arrivals: `burst_mass` of the invocations land uniformly inside
/// randomly placed bursts, the rest arrive as Poisson background. The result
/// is sorted.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero span or bursts wider than
/// the span).
///
/// # Examples
///
/// ```
/// use faasbatch_simcore::rng::DetRng;
/// use faasbatch_trace::arrival::{bursty, BurstyConfig};
///
/// let mut rng = DetRng::new(42);
/// let arrivals = bursty(&mut rng, &BurstyConfig::default());
/// assert_eq!(arrivals.len(), 800);
/// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn bursty(rng: &mut DetRng, cfg: &BurstyConfig) -> Vec<SimTime> {
    assert!(!cfg.span.is_zero(), "span must be positive");
    assert!(cfg.burst_width < cfg.span, "burst wider than span");
    assert!(
        (0.0..=1.0).contains(&cfg.burst_mass),
        "burst_mass out of range"
    );
    let in_bursts = (cfg.total as f64 * cfg.burst_mass).round() as usize;
    let background = cfg.total - in_bursts;
    let mut out = Vec::with_capacity(cfg.total);

    // Background: uniform over the span.
    let span_us = cfg.span.as_micros();
    for _ in 0..background {
        out.push(SimTime::from_micros(rng.uniform_u64(0, span_us)));
    }

    // Bursts: centres uniform over the span (minus the width), invocations
    // spread uniformly inside each burst.
    if cfg.bursts > 0 && in_bursts > 0 {
        let starts: Vec<u64> = (0..cfg.bursts)
            .map(|_| rng.uniform_u64(0, span_us - cfg.burst_width.as_micros()))
            .collect();
        for i in 0..in_bursts {
            let start = starts[i % cfg.bursts];
            let offset = rng.uniform_u64(0, cfg.burst_width.as_micros().max(1));
            out.push(SimTime::from_micros(start + offset));
        }
    }
    out.sort_unstable();
    out
}

/// Synthesises a Fig. 2-style full-day pattern for one hot function:
/// per-second arrival counts over 24 h with diurnal peaks and bursts.
/// Returns arrival instants (length ≥ `daily_total` approximately).
pub fn day_pattern(rng: &mut DetRng, daily_total: usize, peak_hours: &[u32]) -> Vec<SimTime> {
    let day = SimDuration::from_secs(24 * 3600);
    // Mass split: 70 % within the peak hours, 30 % background over the day.
    let peak_total = if peak_hours.is_empty() {
        0
    } else {
        (daily_total as f64 * 0.7).round() as usize
    };
    let mut out = Vec::with_capacity(daily_total);
    for _ in 0..(daily_total - peak_total) {
        out.push(SimTime::from_micros(rng.uniform_u64(0, day.as_micros())));
    }
    for i in 0..peak_total {
        let hour = peak_hours[i % peak_hours.len()] as u64 % 24;
        let start = hour * 3600 * 1_000_000;
        out.push(SimTime::from_micros(
            start + rng.uniform_u64(0, 3600 * 1_000_000),
        ));
    }
    out.sort_unstable();
    out
}

/// Bins arrivals into counts per `bin` (for plotting Fig. 2 / Fig. 10).
pub fn bin_counts(arrivals: &[SimTime], bin: SimDuration, span: SimDuration) -> Vec<usize> {
    assert!(!bin.is_zero(), "bin must be positive");
    let n_bins = span.as_micros().div_ceil(bin.as_micros()) as usize;
    let mut counts = vec![0usize; n_bins];
    for &a in arrivals {
        let idx = (a.as_micros() / bin.as_micros()) as usize;
        if idx < n_bins {
            counts[idx] += 1;
        }
    }
    counts
}

/// Peak-to-mean ratio of binned counts — a burstiness measure.
pub fn burstiness(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let max = *counts.iter().max().expect("non-empty") as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_spacing() {
        let a = constant_rate(6, SimDuration::from_secs(6));
        assert_eq!(a.len(), 6);
        assert_eq!(a[0], SimTime::ZERO);
        assert_eq!(a[5], SimTime::from_secs(5));
    }

    #[test]
    fn constant_rate_empty() {
        assert!(constant_rate(0, SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn bursty_emits_exact_total_sorted_in_span() {
        let mut rng = DetRng::new(7);
        let cfg = BurstyConfig::default();
        let a = bursty(&mut rng, &cfg);
        assert_eq!(a.len(), cfg.total);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap().as_micros() < cfg.span.as_micros() + cfg.burst_width.as_micros());
    }

    #[test]
    fn bursty_is_burstier_than_uniform() {
        let mut rng = DetRng::new(7);
        let cfg = BurstyConfig::default();
        let a = bursty(&mut rng, &cfg);
        let bin = SimDuration::from_secs(1);
        let b = bin_counts(&a, bin, cfg.span);
        let uniform = constant_rate(cfg.total, cfg.span);
        let u = bin_counts(&uniform, bin, cfg.span);
        assert!(
            burstiness(&b) > 2.0 * burstiness(&u),
            "bursty {} vs uniform {}",
            burstiness(&b),
            burstiness(&u)
        );
    }

    #[test]
    fn bursty_is_deterministic_per_seed() {
        let cfg = BurstyConfig::default();
        let a = bursty(&mut DetRng::new(3), &cfg);
        let b = bursty(&mut DetRng::new(3), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn day_pattern_concentrates_in_peaks() {
        let mut rng = DetRng::new(2);
        let a = day_pattern(&mut rng, 2000, &[9, 10]);
        assert_eq!(a.len(), 2000);
        let in_peaks = a
            .iter()
            .filter(|t| {
                let h = t.as_secs_f64() as u64 / 3600;
                h == 9 || h == 10
            })
            .count();
        // 70 % targeted + background share.
        assert!(in_peaks as f64 > 0.6 * 2000.0, "{in_peaks} in peaks");
    }

    #[test]
    fn bin_counts_sum_to_len() {
        let mut rng = DetRng::new(4);
        let cfg = BurstyConfig {
            total: 100,
            ..BurstyConfig::default()
        };
        let span_with_slack = cfg.span + cfg.burst_width;
        let a = bursty(&mut rng, &cfg);
        let counts = bin_counts(&a, SimDuration::from_secs(1), span_with_slack);
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }

    #[test]
    #[should_panic(expected = "burst wider than span")]
    fn degenerate_burst_panics() {
        let cfg = BurstyConfig {
            burst_width: SimDuration::from_secs(120),
            ..BurstyConfig::default()
        };
        bursty(&mut DetRng::new(0), &cfg);
    }
}
