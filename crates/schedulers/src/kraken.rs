//! The Kraken baseline (slack-aware batching, HotCloud/SoCC lineage).
//!
//! Kraken "utilizes the notion of slack to allow invocations to complete in
//! advance of the provided SLOs while minimizing the number of provisioned
//! containers" (§IV). Following the paper's porting notes:
//!
//! * each function's SLO is the **98th-percentile latency observed under
//!   Vanilla** (not the original fixed 1000 ms);
//! * workload prediction is **oracle-accurate** — the paper replaces
//!   Kraken's EWMA with the actual invocation pattern, so our port batches
//!   the actual arrivals of each scheduling round;
//! * batched invocations execute **serially** inside their container, which
//!   is where Kraken's queuing latency (the `Exec+Queue` series of
//!   Fig. 11(c)/12(c)) comes from.

use crate::policy::{Ctx, DispatchRequest, ExecMode, Policy};
use faasbatch_container::ids::FunctionId;
use faasbatch_metrics::report::RunReport;
use faasbatch_simcore::group::WindowGroups;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::{Invocation, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-round, per-function arrival counts known ahead of time — the
/// "100 %-accurate predicted workload" of the paper's Kraken port.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OraclePattern {
    rounds: Vec<BTreeMap<FunctionId, usize>>,
}

impl OraclePattern {
    /// Collects the true per-round counts of `workload` for round length
    /// `window` (the paper gathers them from the Vanilla run's pattern).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_workload(workload: &Workload, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let mut rounds: Vec<BTreeMap<FunctionId, usize>> = Vec::new();
        for inv in workload.invocations() {
            let r = (inv.arrival.as_micros() / window.as_micros()) as usize;
            if rounds.len() <= r {
                rounds.resize_with(r + 1, BTreeMap::new);
            }
            *rounds[r].entry(inv.function).or_insert(0) += 1;
        }
        OraclePattern { rounds }
    }

    /// Counts expected in round `r` (empty past the horizon).
    pub fn round(&self, r: usize) -> Option<&BTreeMap<FunctionId, usize>> {
        self.rounds.get(r)
    }
}

/// How Kraken forecasts the coming load for container provisioning.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum KrakenPrediction {
    /// No pre-provisioning: containers are launched lazily at dispatch (the
    /// default used by the figure harnesses).
    #[default]
    Lazy,
    /// Oracle: pre-warm from the true future arrival counts — the paper's
    /// "accuracy of the predicted workload set to 100 %".
    Oracle(OraclePattern),
    /// The original Kraken's exponentially weighted moving average over the
    /// observed per-round counts: `p ← α·actual + (1−α)·p`.
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

/// Per-function calibration inputs for Kraken (from a Vanilla run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KrakenCalibration {
    /// Per-function SLO: p98 end-to-end latency under Vanilla.
    pub slo: BTreeMap<FunctionId, SimDuration>,
    /// Per-function mean execution time under Vanilla (batch-packing
    /// estimate).
    pub mean_exec: BTreeMap<FunctionId, SimDuration>,
    /// Fallback SLO for unseen functions (original Kraken used 1000 ms).
    pub default_slo: SimDuration,
    /// Fallback execution estimate for unseen functions.
    pub default_exec: SimDuration,
}

impl Default for KrakenCalibration {
    /// No per-function data; the original Kraken's fixed fallbacks (1000 ms
    /// SLO, 100 ms execution estimate).
    fn default() -> Self {
        KrakenCalibration {
            slo: BTreeMap::new(),
            mean_exec: BTreeMap::new(),
            default_slo: SimDuration::from_millis(1_000),
            default_exec: SimDuration::from_millis(100),
        }
    }
}

impl KrakenCalibration {
    /// Builds the calibration from a Vanilla [`RunReport`], per the paper's
    /// fair-comparison methodology.
    pub fn from_vanilla(report: &RunReport) -> Self {
        let mut by_function: BTreeMap<FunctionId, Vec<SimDuration>> = BTreeMap::new();
        let mut exec_by_function: BTreeMap<FunctionId, Vec<SimDuration>> = BTreeMap::new();
        for r in &report.records {
            by_function
                .entry(r.function)
                .or_default()
                .push(r.latency.end_to_end());
            exec_by_function
                .entry(r.function)
                .or_default()
                .push(r.latency.execution);
        }
        let slo = by_function
            .into_iter()
            .map(|(f, samples)| {
                let cdf = faasbatch_metrics::stats::Cdf::from_samples(samples);
                (f, cdf.quantile(0.98))
            })
            .collect();
        let mean_exec = exec_by_function
            .into_iter()
            .map(|(f, samples)| {
                let cdf = faasbatch_metrics::stats::Cdf::from_samples(samples);
                (f, cdf.mean())
            })
            .collect();
        KrakenCalibration {
            slo,
            mean_exec,
            ..KrakenCalibration::default()
        }
    }

    /// SLO for `function` (falls back to `default_slo`).
    pub fn slo_for(&self, function: FunctionId) -> SimDuration {
        self.slo.get(&function).copied().unwrap_or(self.default_slo)
    }

    /// Execution estimate for `function` (falls back to `default_exec`).
    pub fn exec_estimate(&self, function: FunctionId) -> SimDuration {
        self.mean_exec
            .get(&function)
            .copied()
            .unwrap_or(self.default_exec)
    }
}

/// Kraken: SLO/slack-driven serial batching with optional EWMA/oracle
/// container pre-provisioning.
#[derive(Debug, Clone)]
pub struct Kraken {
    calibration: KrakenCalibration,
    /// Scheduling-round length (the batch window).
    window: SimDuration,
    /// Invocations waiting for the next round, grouped by function index
    /// (a round is processed in ascending function order).
    queued: WindowGroups<Invocation>,
    /// Load-forecasting mode for pre-provisioning.
    prediction: KrakenPrediction,
    /// Rounds completed so far.
    round: usize,
    /// EWMA state per function (counts per round).
    ewma: BTreeMap<FunctionId, f64>,
    /// Outstanding pre-warms: (maturity round, function, count).
    prewarming: Vec<(usize, FunctionId, usize)>,
}

impl Kraken {
    /// Round-timer token.
    const TIMER: u64 = 0;

    /// Creates a Kraken with the given calibration and scheduling window.
    pub fn new(calibration: KrakenCalibration, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        Kraken {
            calibration,
            window,
            queued: WindowGroups::default(),
            prediction: KrakenPrediction::Lazy,
            round: 0,
            ewma: BTreeMap::new(),
            prewarming: Vec::new(),
        }
    }

    /// Selects the load-forecasting mode (default: [`KrakenPrediction::Lazy`]).
    pub fn with_prediction(mut self, prediction: KrakenPrediction) -> Self {
        if let KrakenPrediction::Ewma { alpha } = prediction {
            assert!(
                alpha > 0.0 && alpha <= 1.0,
                "EWMA alpha must be in (0, 1]: {alpha}"
            );
        }
        self.prediction = prediction;
        self
    }

    /// Maximum batch size meeting a function's SLO if dispatched promptly.
    fn batch_cap(&self, function: FunctionId) -> usize {
        let slo = self.calibration.slo_for(function).as_millis_f64();
        let d = self
            .calibration
            .exec_estimate(function)
            .as_millis_f64()
            .max(1.0);
        ((slo / d).floor() as usize).clamp(1, 64)
    }

    /// Pre-warms containers for the forecast load `lead` rounds out.
    fn provision_ahead(&mut self, ctx: &mut Ctx<'_>, actual: &BTreeMap<FunctionId, usize>) {
        // Lead time: how many rounds a launch takes to become warm.
        let cold = ctx.config().cold_start.clone();
        let cold_total = cold.image_latency() + cold.cpu_work();
        let lead = (cold_total.as_micros() / self.window.as_micros()).max(1) as usize + 1;
        // Forecast per function.
        let forecast: BTreeMap<FunctionId, usize> = match &mut self.prediction {
            KrakenPrediction::Lazy => return,
            KrakenPrediction::Oracle(pattern) => pattern
                .round(self.round + lead)
                .cloned()
                .unwrap_or_default(),
            KrakenPrediction::Ewma { alpha } => {
                let a = *alpha;
                // Update with this round's actuals (functions with no
                // arrivals decay toward zero).
                for (&f, count) in actual {
                    let e = self.ewma.entry(f).or_insert(0.0);
                    *e = a * *count as f64 + (1.0 - a) * *e;
                }
                for (f, e) in self.ewma.iter_mut() {
                    if !actual.contains_key(f) {
                        *e *= 1.0 - a;
                    }
                }
                self.ewma
                    .iter()
                    .map(|(&f, &e)| (f, e.round() as usize))
                    .filter(|&(_, c)| c > 0)
                    .collect()
            }
        };
        // Purge matured pre-warms.
        let round = self.round;
        self.prewarming.retain(|&(mature, _, _)| mature > round);
        for (f, count) in forecast {
            let cap = self.batch_cap(f);
            let needed = count.div_ceil(cap);
            let pending: usize = self
                .prewarming
                .iter()
                .filter(|&&(_, pf, _)| pf == f)
                .map(|&(_, _, c)| c)
                .sum();
            let have = ctx.warm_count(f) + pending;
            let deficit = needed.saturating_sub(have);
            if deficit > 0 {
                ctx.prewarm(f, deficit);
                self.prewarming.push((round + lead, f, deficit));
            }
        }
    }

    /// Packs one function's queued invocations into serial batches such that
    /// every member's *predicted* completion meets its SLO deadline.
    fn pack(
        &self,
        now: faasbatch_simcore::time::SimTime,
        function: FunctionId,
        mut queue: Vec<Invocation>,
        warm_available: usize,
        cold_estimate: SimDuration,
    ) -> Vec<Vec<Invocation>> {
        queue.sort_by_key(|i| i.arrival);
        let d = self.calibration.exec_estimate(function);
        let slo = self.calibration.slo_for(function);
        let mut batches: Vec<Vec<Invocation>> = Vec::new();
        for inv in queue {
            let deadline = inv.arrival + slo;
            let n_batches = batches.len();
            let appended = if let Some(batch) = batches.last_mut() {
                // Start estimate for this batch: warm containers dispatch
                // immediately; extra batches pay a cold start.
                let cold = n_batches > warm_available;
                let start = if cold { now + cold_estimate } else { now };
                let finish = start + d * (batch.len() as u64 + 1);
                if finish <= deadline {
                    batch.push(inv.clone());
                    true
                } else {
                    false
                }
            } else {
                false
            };
            if !appended {
                batches.push(vec![inv]);
            }
        }
        batches
    }
}

impl Policy for Kraken {
    fn name(&self) -> String {
        "kraken".to_owned()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.window, Self::TIMER);
    }

    fn on_arrival(&mut self, _ctx: &mut Ctx<'_>, invocation: &Invocation) {
        self.queued
            .push(invocation.function.index() as usize, invocation.clone());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        let cold = ctx.config().cold_start.clone();
        let cold_estimate = cold.image_latency() + cold.cpu_work();
        // Out of `self` while the round is closed: packing reads `self`.
        let mut queued = std::mem::take(&mut self.queued);
        let actual = queued.close(|round| {
            let actual: BTreeMap<FunctionId, usize> = round
                .iter()
                .map(|(f, q)| (FunctionId::new(*f as u32), q.len()))
                .collect();
            for (function, queue) in round.drain(..) {
                let function = FunctionId::new(function as u32);
                let warm = ctx.warm_count(function);
                let batches = self.pack(now, function, queue, warm, cold_estimate);
                for batch in batches {
                    ctx.dispatch(DispatchRequest::new(batch, ExecMode::Serial));
                }
            }
            actual
        });
        self.queued = queued;
        self.provision_ahead(ctx, &actual);
        self.round += 1;
        if !ctx.all_done() {
            ctx.set_timer(self.window, Self::TIMER);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::harness::run_simulation;
    use crate::vanilla::Vanilla;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_simcore::time::SimTime;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

    fn small_workload(seed: u64, total: usize) -> faasbatch_trace::workload::Workload {
        cpu_workload(
            &DetRng::new(seed),
            &WorkloadConfig {
                total,
                span: SimDuration::from_secs(20),
                functions: 3,
                bursts: 3,
                ..WorkloadConfig::default()
            },
        )
    }

    fn calibrated(w: &faasbatch_trace::workload::Workload) -> KrakenCalibration {
        let vanilla = run_simulation(
            Box::new(Vanilla::new()),
            w,
            SimConfig::default(),
            "cpu",
            None,
        );
        KrakenCalibration::from_vanilla(&vanilla)
    }

    #[test]
    fn calibration_extracts_p98_and_mean() {
        let w = small_workload(1, 60);
        let cal = calibrated(&w);
        assert_eq!(cal.slo.len(), w.registry().len().min(cal.slo.len()));
        for (&f, &slo) in &cal.slo {
            assert!(slo > SimDuration::ZERO);
            assert!(cal.exec_estimate(f) > SimDuration::ZERO);
            assert!(cal.slo_for(f) >= cal.exec_estimate(f));
        }
    }

    #[test]
    fn completes_workload_and_batches() {
        let w = small_workload(2, 80);
        let cal = calibrated(&w);
        let report = run_simulation(
            Box::new(Kraken::new(cal, SimDuration::from_millis(200))),
            &w,
            SimConfig::default(),
            "cpu",
            Some(SimDuration::from_millis(200)),
        );
        assert_eq!(report.records.len(), 80);
        assert!(report.inconsistencies().is_empty());
        // Batching ⇒ fewer containers than invocations.
        assert!(report.provisioned_containers < 80);
    }

    #[test]
    fn batching_produces_queuing_latency() {
        // A burst of identical invocations in one round must serialize
        // inside containers, so someone queues.
        let w = cpu_workload(
            &DetRng::new(3),
            &WorkloadConfig {
                total: 30,
                span: SimDuration::from_millis(50),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let cal = calibrated(&w);
        let report = run_simulation(
            Box::new(Kraken::new(cal, SimDuration::from_millis(200))),
            &w,
            SimConfig::default(),
            "cpu",
            Some(SimDuration::from_millis(200)),
        );
        let queued = report
            .records
            .iter()
            .filter(|r| !r.latency.queuing.is_zero())
            .count();
        assert!(queued > 0, "no invocation queued under Kraken batching");
    }

    #[test]
    fn pack_respects_deadlines() {
        let mut cal = KrakenCalibration::default();
        let f = FunctionId::new(0);
        cal.slo.insert(f, SimDuration::from_millis(300));
        cal.mean_exec.insert(f, SimDuration::from_millis(100));
        let kraken = Kraken::new(cal, SimDuration::from_millis(200));
        let now = SimTime::from_millis(200);
        let mk = |n: u64| Invocation {
            id: faasbatch_container::ids::InvocationId::new(n),
            function: f,
            arrival: SimTime::from_millis(190),
            work: SimDuration::from_millis(100),
        };
        // Deadline = 490 ms; warm start at 200 ms fits at most 2 × 100 ms...
        let batches = kraken.pack(now, f, (0..6).map(mk).collect(), 100, SimDuration::ZERO);
        for batch in &batches {
            assert!(batch.len() <= 2, "batch too big: {}", batch.len());
        }
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn pack_accounts_for_cold_start() {
        let mut cal = KrakenCalibration::default();
        let f = FunctionId::new(0);
        cal.slo.insert(f, SimDuration::from_millis(300));
        cal.mean_exec.insert(f, SimDuration::from_millis(100));
        let kraken = Kraken::new(cal, SimDuration::from_millis(200));
        let now = SimTime::from_millis(200);
        let mk = |n: u64| Invocation {
            id: faasbatch_container::ids::InvocationId::new(n),
            function: f,
            arrival: SimTime::from_millis(190),
            work: SimDuration::from_millis(100),
        };
        // No warm containers and a 200 ms cold start: start at 400 ms,
        // deadline 490 ms → only 0 extra fits (each batch gets 1).
        let batches = kraken.pack(
            now,
            f,
            (0..4).map(mk).collect(),
            0,
            SimDuration::from_millis(200),
        );
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn oracle_pattern_counts_rounds() {
        let w = small_workload(7, 40);
        let pattern = OraclePattern::from_workload(&w, SimDuration::from_millis(200));
        let total: usize = (0..1000)
            .filter_map(|r| pattern.round(r))
            .flat_map(|m| m.values())
            .sum();
        assert_eq!(total, 40, "every invocation lands in exactly one round");
    }

    #[test]
    fn oracle_prewarming_cuts_cold_invocations() {
        let w = small_workload(8, 120);
        let cal = calibrated(&w);
        let window = SimDuration::from_millis(200);
        let lazy = run_simulation(
            Box::new(Kraken::new(cal.clone(), window)),
            &w,
            SimConfig::default(),
            "cpu",
            Some(window),
        );
        let oracle = run_simulation(
            Box::new(
                Kraken::new(cal, window).with_prediction(KrakenPrediction::Oracle(
                    OraclePattern::from_workload(&w, window),
                )),
            ),
            &w,
            SimConfig::default(),
            "cpu",
            Some(window),
        );
        assert_eq!(oracle.records.len(), 120);
        assert!(
            oracle.cold_fraction() <= lazy.cold_fraction(),
            "oracle cold {:.3} vs lazy {:.3}",
            oracle.cold_fraction(),
            lazy.cold_fraction()
        );
        assert!(oracle.provisioned_containers >= lazy.provisioned_containers);
    }

    #[test]
    fn ewma_mode_completes_and_provisions() {
        let w = small_workload(9, 100);
        let cal = calibrated(&w);
        let window = SimDuration::from_millis(200);
        let report = run_simulation(
            Box::new(
                Kraken::new(cal, window).with_prediction(KrakenPrediction::Ewma { alpha: 0.5 }),
            ),
            &w,
            SimConfig::default(),
            "cpu",
            Some(window),
        );
        assert_eq!(report.records.len(), 100);
        assert!(report.inconsistencies().is_empty());
    }

    #[test]
    #[should_panic(expected = "EWMA alpha")]
    fn invalid_alpha_panics() {
        let _ = Kraken::new(KrakenCalibration::default(), SimDuration::from_millis(200))
            .with_prediction(KrakenPrediction::Ewma { alpha: 0.0 });
    }

    #[test]
    fn defaults_used_for_unknown_functions() {
        let kraken = Kraken::new(KrakenCalibration::default(), SimDuration::from_millis(200));
        let f = FunctionId::new(99);
        assert_eq!(
            kraken.calibration.slo_for(f),
            SimDuration::from_millis(1_000)
        );
        assert_eq!(
            kraken.calibration.exec_estimate(f),
            SimDuration::from_millis(100)
        );
    }

    proptest::proptest! {
        /// The packer is a partition: every queued invocation lands in
        /// exactly one batch, order preserved within batches, and no batch
        /// is empty.
        #[test]
        fn pack_partitions(
            n in 1usize..60,
            slo_ms in 50u64..5_000,
            exec_ms in 1u64..500,
            warm in 0usize..10,
        ) {
            let f = FunctionId::new(0);
            let mut cal = KrakenCalibration::default();
            cal.slo.insert(f, SimDuration::from_millis(slo_ms));
            cal.mean_exec.insert(f, SimDuration::from_millis(exec_ms));
            let kraken = Kraken::new(cal, SimDuration::from_millis(200));
            let queue: Vec<Invocation> = (0..n as u64)
                .map(|i| Invocation {
                    id: faasbatch_container::ids::InvocationId::new(i),
                    function: f,
                    arrival: SimTime::from_millis(i),
                    work: SimDuration::from_millis(exec_ms),
                })
                .collect();
            let batches = kraken.pack(
                SimTime::from_millis(200),
                f,
                queue,
                warm,
                SimDuration::from_millis(700),
            );
            proptest::prop_assert!(batches.iter().all(|b| !b.is_empty()));
            let mut ids: Vec<u64> = batches
                .iter()
                .flat_map(|b| b.iter().map(|i| i.id.value()))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len(), n, "not a partition");
            for b in &batches {
                proptest::prop_assert!(b.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            }
        }
    }
}
