//! What one workload run produces, and how its units fold into the
//! end-to-end metrics of `BENCHMARK.json`.

use crate::sizing::Sizing;
use crate::spans::SpanLog;
use crate::stats::{median, quantile, quantile_sorted};
use crate::sys;
use std::collections::BTreeMap;
use std::time::Instant;

/// Inputs of one run.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub seed: u64,
    /// Length of the timed section; whole units run until it is reached.
    pub seconds: f64,
    /// Spans, sinks and recorders on (per-layer run) or off (end-to-end run).
    pub traced: bool,
    pub sizing: Sizing,
}

/// One timed unit of work. `wall_s` and `cpu_s` are calibrated
/// ([`SpeedProbe`]) except on the open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Invocations completed by the unit.
    pub completed: u64,
    /// Seconds the unit's calls into the program took.
    pub wall_s: f64,
    /// The same seconds on the host's own clock, for the notes.
    pub host_s: f64,
    /// Process CPU seconds over the same calls.
    pub cpu_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
}

/// Everything a workload reports back.
#[derive(Debug)]
pub struct Measured {
    /// Duration of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub units: Vec<Unit>,
    /// Where in the ascending order of the units' times a metric is read:
    /// [`MEDIAN`], or [`FAST_QUARTILE`] for closed rounds of identical work.
    pub unit_quantile: f64,
    /// Operations handed to the program.
    pub attempted: u64,
    /// Operations rejected, panicked, lost, duplicated, or wrong.
    pub failed: u64,
    /// Reasons the outputs are wrong (empty when correct).
    pub errors: Vec<String>,
    /// Digest of the simulated statistics (sim workloads).
    pub digest: Option<u64>,
    /// Ungated numbers worth printing (tail percentiles, min/max).
    pub notes: Vec<String>,
    /// Per-layer metrics measured around the workload's own calls.
    pub layer: BTreeMap<String, f64>,
    /// Spans of the traced section.
    pub spans: Option<SpanLog>,
}

/// The units' median.
pub const MEDIAN: f64 = 0.5;

/// The quartile of the fastest units. A closed round is the same work every
/// time and the host only ever adds time to it, for seconds on end on this
/// box; over ten seeds the fast quartile of the rounds spread by 10.6 %
/// (batched) and 7.2 % (sparse) where their median spread by 14.0 % and
/// 16.9 %, and the single fastest round by more again.
pub const FAST_QUARTILE: f64 = 0.25;

impl Measured {
    /// Nothing measured yet; metrics will be read at `unit_quantile`.
    pub fn folding(unit_quantile: f64) -> Measured {
        Measured {
            setup_s: Vec::new(),
            units: Vec::new(),
            unit_quantile,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: None,
            notes: Vec::new(),
            layer: BTreeMap::new(),
            spans: None,
        }
    }

    /// Folds the units into the end-to-end metrics: the median set-up, each
    /// per-invocation time and latency at `unit_quantile` of the units, and
    /// the process's resident-set high-water mark.
    ///
    /// # Panics
    ///
    /// Panics if the workload ran no unit or no set-up.
    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        let over_units = |f: fn(&Unit) -> f64| {
            let mut values: Vec<f64> = self.units.iter().map(f).collect();
            quantile(&mut values, self.unit_quantile)
        };
        BTreeMap::from([
            ("setup_s".to_owned(), median(&mut self.setup_s.clone())),
            (
                "inv_per_s".to_owned(),
                1.0 / over_units(|u| u.wall_s / u.completed as f64),
            ),
            (
                "latency_p50_ms".to_owned(),
                over_units(|u| u.latency_p50_ms),
            ),
            (
                "latency_p99_ms".to_owned(),
                over_units(|u| u.latency_p99_ms),
            ),
            (
                "cpu_us_per_inv".to_owned(),
                over_units(|u| u.cpu_s * 1e6 / u.completed as f64),
            ),
            ("peak_rss_mib".to_owned(), sys::peak_rss_mib()),
        ])
    }
}

/// Performs set-up `ctx.sizing.setup_reps` times (once in a traced run, which
/// does not report it) — each previous system torn down before the next is
/// timed — and returns the last one with every repetition's duration, in
/// calibrated time when `calibrated`.
pub fn repeat_setup<S>(
    ctx: &RunCtx,
    calibrated: bool,
    mut setup: impl FnMut() -> S,
) -> (S, Vec<f64>) {
    let reps = if ctx.traced { 1 } else { ctx.sizing.setup_reps };
    let mut state = None;
    let mut durations = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(state.take());
        let mut probe = calibrated.then(SpeedProbe::start);
        let started = Instant::now();
        state = Some(setup());
        let host_s = started.elapsed().as_secs_f64();
        durations.push(host_s * probe.as_mut().map_or(1.0, SpeedProbe::factor));
    }
    (state.expect("at least one repetition ran"), durations)
}

/// One separately timed call of a simulated pass.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub host_s: f64,
    pub calibrated_s: f64,
}

/// One pass of a simulated workload: its unit and calls, the digest of its
/// simulated statistics, and whatever its checks found wrong.
#[derive(Debug)]
pub struct Pass {
    pub unit: Unit,
    pub calls: Vec<Call>,
    pub digest: u64,
    pub errors: Vec<String>,
}

/// Median over units of invocations per host second.
pub fn median_rate<'a>(units: impl IntoIterator<Item = &'a Unit>) -> f64 {
    let mut rates: Vec<f64> = units
        .into_iter()
        .map(|u| u.completed as f64 / u.wall_s)
        .collect();
    median(&mut rates)
}

/// The unit a deterministic replay is reported as: every call at its
/// fastest repetition among `passes`, and the pass that used least CPU.
/// Latency p50 is the calls' median with the middle pair averaged — six
/// schedulers' replays lie far apart, and which of them ranks third changes
/// with the seed — and p99 their nearest rank, the most expensive call.
///
/// Call `c` is the same work in every pass and the host only ever adds time
/// to it, so the fastest repetition is the steadiest estimate of what the
/// call costs: over ten seeds the passes' median total spread by 6.3 %
/// (standard deviation over mean, `sim_six_contended`) and the sum of
/// fastest calls by 2.3 %; the latency percentiles by 11 % and 4 %.
///
/// # Panics
///
/// Panics if `passes` is empty or the passes made different numbers of
/// calls — the replay is deterministic.
fn fastest_repetitions(passes: &[Pass]) -> Unit {
    let calls = passes[0].calls.len();
    assert!(
        passes.iter().all(|p| p.calls.len() == calls),
        "passes of a deterministic replay made different numbers of calls"
    );
    let fastest = |seconds: fn(&Call) -> f64| -> Vec<f64> {
        (0..calls)
            .map(|c| {
                passes
                    .iter()
                    .map(|p| seconds(&p.calls[c]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let calibrated_s = fastest(|c| c.calibrated_s);
    let mut calls_ms: Vec<f64> = calibrated_s.iter().map(|s| s * 1e3).collect();
    Unit {
        completed: passes[0].unit.completed,
        wall_s: calibrated_s.iter().sum(),
        host_s: fastest(|c| c.host_s).iter().sum(),
        cpu_s: passes
            .iter()
            .map(|p| p.unit.cpu_s)
            .fold(f64::INFINITY, f64::min),
        latency_p50_ms: median(&mut calls_ms),
        latency_p99_ms: quantile(&mut calls_ms, 0.99),
    }
}

/// The run loop both simulated workloads share: set-up repeated and timed,
/// then whole passes until `ctx.seconds` have been measured, reported as one
/// unit ([`fastest_repetitions`]). A traced run spends half the time on
/// untraced passes and half on passes with spans on, reports the ratio of
/// their rates as `trace.overhead_share`, and lets `layer` read the
/// workload's own rows off the span log. Passes must agree on their digest:
/// the simulator is deterministic.
pub fn run_passes<S>(
    ctx: &RunCtx,
    setup: impl Fn() -> S,
    attempted_per_pass: impl Fn(&S) -> u64,
    pass: impl Fn(&S, Option<&mut SpanLog>) -> Pass,
    layer: impl FnOnce(&S, &SpanLog, usize, &mut BTreeMap<String, f64>),
) -> Measured {
    let mut out = Measured::folding(MEDIAN);
    let (state, setup_s) = repeat_setup(ctx, true, setup);
    out.setup_s = setup_s;

    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut passes = Vec::new();
    let section = Instant::now();
    while passes.is_empty() || section.elapsed().as_secs_f64() < budget {
        passes.push(pass(&state, None));
    }
    out.units.push(fastest_repetitions(&passes));
    let mut rates: Vec<f64> = passes
        .iter()
        .map(|p| p.unit.completed as f64 / p.unit.wall_s)
        .collect();
    rates.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "{} passes, pass by pass: {:.0} / {:.0} / {:.0} inv/s (min / median / max)",
        rates.len(),
        rates[0],
        median(&mut rates.clone()),
        rates[rates.len() - 1]
    ));
    if ctx.traced {
        let untraced_rate = median_rate(passes.iter().map(|p| &p.unit));
        let mut log = SpanLog::new(Instant::now());
        let mut traced = Vec::new();
        let section = Instant::now();
        while traced.is_empty() || section.elapsed().as_secs_f64() < budget {
            traced.push(pass(&state, Some(&mut log)));
        }
        layer(&state, &log, traced.len(), &mut out.layer);
        out.layer.insert(
            "trace.overhead_share".into(),
            untraced_rate / median_rate(traced.iter().map(|p| &p.unit)) - 1.0,
        );
        out.spans = Some(log);
        passes.extend(traced);
    }

    let first = passes[0].digest;
    if passes.iter().any(|p| p.digest != first) {
        out.errors
            .push("digest of simulated statistics differs between passes".to_owned());
    }
    out.digest = Some(first);
    let attempted = attempted_per_pass(&state);
    for pass in passes {
        out.attempted += attempted;
        out.failed += attempted.saturating_sub(pass.unit.completed);
        out.errors.extend(pass.errors);
    }
    out
}

/// Wall and CPU clocks read together around one unit.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_s: sys::process_cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, process CPU seconds)` since [`Stopwatch::start`].
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, sys::process_cpu_seconds() - self.cpu_s)
    }
}

/// Host-speed probes around timed intervals.
///
/// The box this runs on is a small shared VM whose cores switch between a
/// boosted and an ordinary clock for seconds at a time and lose cycles to
/// neighbours: the same deterministic replay ran 12-25 % apart within one
/// process, and medians over 11-second windows of it spread by 12.9 %.
/// Divided by a 4 ms integer spin timed right before and after each
/// interval, the same medians spread by 2.6 %. So the closed-loop and replay
/// workloads report **calibrated time**: host time scaled by
/// [`sys::PROBE_REFERENCE_NS`] over the probe's duration around it. The
/// open-loop workload runs on the wall clock — its schedule and its window
/// are real time.
#[derive(Debug)]
pub struct SpeedProbe {
    last_ns: f64,
    /// Host seconds spent probing since [`SpeedProbe::start`] returned.
    pub spent_s: f64,
}

impl SpeedProbe {
    /// Probes once; the interval to calibrate starts when this returns.
    pub fn start() -> SpeedProbe {
        SpeedProbe {
            last_ns: sys::probe_ns(),
            spent_s: 0.0,
        }
    }

    /// Probes again and returns the factor that turns host time spent since
    /// the previous probe into calibrated time (below 1 while the host is
    /// slower than the reference). The next interval starts on return.
    pub fn factor(&mut self) -> f64 {
        let now_ns = sys::probe_ns();
        let factor = sys::PROBE_REFERENCE_NS / ((self.last_ns + now_ns) / 2.0);
        self.last_ns = now_ns;
        self.spent_s += now_ns / 1e9;
        factor
    }
}

/// Builds one [`Unit`] of a simulated workload out of its separately timed
/// calls, each followed by a speed probe.
#[derive(Debug)]
pub struct CalibratedUnit {
    probe: SpeedProbe,
    watch: Stopwatch,
    host_s: f64,
    calibrated_s: f64,
    calls: Vec<Call>,
}

impl CalibratedUnit {
    pub fn start() -> CalibratedUnit {
        let probe = SpeedProbe::start();
        CalibratedUnit {
            probe,
            watch: Stopwatch::start(),
            host_s: 0.0,
            calibrated_s: 0.0,
            calls: Vec::new(),
        }
    }

    /// Records a call that just returned after `host_s` seconds; probes the
    /// host speed.
    pub fn call(&mut self, host_s: f64) {
        let calibrated_s = host_s * self.probe.factor();
        self.host_s += host_s;
        self.calibrated_s += calibrated_s;
        self.calls.push(Call {
            host_s,
            calibrated_s,
        });
    }

    /// The pass's unit — calibrated wall and CPU time (the probes' own CPU
    /// taken out), latency the calibrated duration of a call — and its calls.
    ///
    /// # Panics
    ///
    /// Panics if no call was recorded.
    pub fn finish(self, completed: u64) -> (Unit, Vec<Call>) {
        let (_, cpu_s) = self.watch.stop();
        let scale = if self.host_s > 0.0 {
            self.calibrated_s / self.host_s
        } else {
            1.0
        };
        let mut calls_ms: Vec<f64> = self.calls.iter().map(|c| c.calibrated_s * 1e3).collect();
        let unit = Unit {
            completed,
            wall_s: self.calibrated_s,
            host_s: self.host_s,
            cpu_s: (cpu_s - self.probe.spent_s).max(0.0) * scale,
            latency_p50_ms: median(&mut calls_ms),
            latency_p99_ms: quantile(&mut calls_ms, 0.99),
        };
        (unit, self.calls)
    }
}

/// p50 and p99 of per-invocation latencies given in nanoseconds, in ms.
/// Sorts `latencies_ns` in place.
pub fn p50_p99_ms(latencies_ns: &mut [u64]) -> (f64, f64) {
    latencies_ns.sort_unstable();
    (
        quantile_sorted(latencies_ns, 0.50) as f64 / 1e6,
        quantile_sorted(latencies_ns, 0.99) as f64 / 1e6,
    )
}

/// FNV-1a over a stream of integers: the digest printed for simulated
/// statistics, so a simulator-speed change can show them unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        for v in [1u64, 2, 3] {
            a.feed(v);
        }
        for v in [1u64, 3, 2] {
            b.feed(v);
        }
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        for v in [1u64, 2, 3] {
            c.feed(v);
        }
        assert_eq!(a.value(), c.value());
    }
}
