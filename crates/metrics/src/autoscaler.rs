//! Trace-driven autoscaling controller.
//!
//! [`Autoscaler`] maintains per-function online estimates of cold-start
//! rate, queue pressure (backlog), and dispatch-window occupancy from the
//! simulated worker's event stream. It is worker state, not a trace sink:
//! a run configures it through `SimConfig::autoscaler`, the worker feeds it
//! every event where the record reducer folds it ([`Autoscaler::observe`]),
//! and at every sampler tick asks it for typed [`ScaleAction`]s
//! ([`Autoscaler::poll`]) — pre-warm `N` containers, extend or shrink a
//! function's keep-alive — which the worker applies at that safe point
//! between engine steps. A sink only observes and cannot change a run.
//!
//! A configuration whose actions are all no-ops (prewarm cap 0, keep-alive
//! floor = ceiling = the static TTL) leaves the event stream bit-identical
//! to a run without a controller. See DESIGN.md §12 for the estimator math.

use crate::events::{EventKind, SimEvent};
/// Which start tier a [`ScaleAction::PrewarmTier`] parks warmth in. It lives
/// with the cluster that finishes the pre-warm; this is its public path here.
pub use faasbatch_container::cluster::PrewarmTier;
use faasbatch_container::ids::FunctionId;
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One control decision emitted by an autoscaling controller.
///
/// The harness applies actions between engine steps and narrates each as a
/// [`EventKind::ScalePrewarm`] / [`EventKind::ScaleKeepAlive`] event so the
/// auditor can hold controllers to account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaleAction {
    /// Launch `count` pre-warms for `function` now, into a start tier: the
    /// warm tier parks a booted container (fast next hit, holds memory);
    /// the snapshot tier boots, captures, and terminates (slower next hit,
    /// zero memory held while idle). Only a tier-aware controller
    /// ([`AutoscalerConfig::snapshot_prewarm`]) picks the snapshot tier.
    PrewarmTier {
        /// Function to warm up.
        function: FunctionId,
        /// How many pre-warms to launch (> 0).
        count: usize,
        /// Which start tier to park the warmth in.
        tier: PrewarmTier,
    },
    /// Set `function`'s keep-alive TTL to `keep_alive` from now on.
    SetKeepAlive {
        /// Function whose warm pool is retargeted.
        function: FunctionId,
        /// New idle TTL (> 0).
        keep_alive: SimDuration,
    },
}

/// Tuning knobs for [`Autoscaler`].
///
/// The defaults pair with [`AutoscalerConfig::noop`]'s counterpart: `noop()`
/// produces a controller that provably never acts, while `default()` is an
/// active controller suitable for the ablation study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerConfig {
    /// Maximum pre-warm requests that may be outstanding (requested but not
    /// yet consumed by a warm dispatch) per function. `0` disables
    /// pre-warming entirely.
    pub prewarm_cap: usize,
    /// Keep-alive is never set below this (> 0).
    pub keepalive_floor: SimDuration,
    /// Keep-alive is never set above this (≥ floor).
    pub keepalive_ceiling: SimDuration,
    /// The static keep-alive the run was configured with; the controller
    /// only emits a [`ScaleAction::SetKeepAlive`] when its target differs
    /// from the value last set (initially this one).
    pub base_keep_alive: SimDuration,
    /// Cold-start rate (EWMA of the per-batch cold fraction, in `[0, 1]`)
    /// above which the controller pre-warms.
    pub cold_rate_high: f64,
    /// EWMA smoothing factor in `(0, 1]` for the cold-rate and occupancy
    /// estimates; higher reacts faster.
    pub alpha: f64,
    /// Pick each pre-warm's tier: functions whose predicted re-use horizon
    /// (EWMA inter-arrival gap) outlives the keep-alive are parked in the
    /// snapshot tier, the rest in the warm tier. Default off — every
    /// pre-warm goes to the warm tier, which keeps every pre-0.9
    /// configuration byte-identical.
    #[serde(default)]
    pub snapshot_prewarm: bool,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            prewarm_cap: 4,
            keepalive_floor: SimDuration::from_secs(2),
            keepalive_ceiling: SimDuration::from_secs(60),
            base_keep_alive: SimDuration::from_secs(600),
            cold_rate_high: 0.2,
            alpha: 0.3,
            snapshot_prewarm: false,
        }
    }
}

impl AutoscalerConfig {
    /// A controller that provably never emits an action: pre-warming is
    /// disabled and the keep-alive band is pinned to `keep_alive`. Used by
    /// the controller-never-perturbs property tests.
    pub fn noop(keep_alive: SimDuration) -> Self {
        AutoscalerConfig {
            prewarm_cap: 0,
            keepalive_floor: keep_alive,
            keepalive_ceiling: keep_alive,
            base_keep_alive: keep_alive,
            ..AutoscalerConfig::default()
        }
    }

    /// Checks the configuration invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.keepalive_floor.is_zero() {
            return Err("keepalive_floor must be positive".into());
        }
        if self.keepalive_ceiling < self.keepalive_floor {
            return Err("keepalive_ceiling must be >= keepalive_floor".into());
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("alpha must be in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.cold_rate_high) {
            return Err("cold_rate_high must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Per-function estimator state.
#[derive(Debug, Clone)]
struct FnState {
    /// Invocations that entered the system.
    arrived: u64,
    /// Invocations bound to a container by a dispatch decision.
    dispatched: u64,
    /// Arrivals since the last [`Autoscaler::poll`].
    arrivals_since_poll: u64,
    /// EWMA of the per-batch cold indicator (1.0 = cold, 0.0 = warm).
    cold_rate: f64,
    /// EWMA of batch size (window occupancy) at dispatch.
    occupancy: f64,
    /// Pre-warm requests issued but not yet consumed by a warm dispatch.
    outstanding_prewarm: usize,
    /// The keep-alive value last set (starts at `base_keep_alive`).
    keep_alive_set: SimDuration,
    /// Instant of the most recent arrival (for the inter-arrival EWMA).
    last_arrival: Option<SimTime>,
    /// EWMA of the inter-arrival gap in µs — the predicted re-use horizon
    /// used by tier-aware pre-warming. `None` until two arrivals are seen.
    gap_ewma_us: Option<f64>,
}

impl FnState {
    fn new(base_keep_alive: SimDuration) -> Self {
        FnState {
            arrived: 0,
            dispatched: 0,
            arrivals_since_poll: 0,
            cold_rate: 0.0,
            occupancy: 0.0,
            outstanding_prewarm: 0,
            keep_alive_set: base_keep_alive,
            last_arrival: None,
            gap_ewma_us: None,
        }
    }

    fn backlog(&self) -> u64 {
        self.arrived.saturating_sub(self.dispatched)
    }
}

/// Summary counters a run reports (`RunReport::autoscaler`) and the
/// ablation JSON reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutoscalerStats {
    /// Pre-warm actions emitted.
    pub prewarm_actions: u64,
    /// Containers requested across all pre-warm actions.
    pub prewarmed_containers: u64,
    /// `SetKeepAlive` actions emitted.
    pub keepalive_actions: u64,
    /// High-water mark of outstanding pre-warm requests on any function.
    pub max_outstanding_prewarm: usize,
    /// Pre-warms the tier-aware controller routed to the snapshot tier.
    pub snapshot_tier_prewarms: u64,
    /// Pre-warms the tier-aware controller routed to the warm tier.
    pub warm_tier_prewarms: u64,
}

/// The trace-driven autoscaling controller (see module docs).
///
/// # Examples
///
/// ```
/// use faasbatch_metrics::autoscaler::{Autoscaler, AutoscalerConfig};
/// use faasbatch_simcore::time::SimDuration;
///
/// // A no-op band never produces actions, whatever it observes.
/// let mut controller = Autoscaler::new(AutoscalerConfig::noop(SimDuration::from_secs(600)));
/// assert!(controller.poll().is_empty());
/// ```
#[derive(Debug)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    functions: BTreeMap<FunctionId, FnState>,
    stats: AutoscalerStats,
}

impl Autoscaler {
    /// Builds a controller. Panics on an invalid configuration (validate
    /// with [`AutoscalerConfig::validate`] first when the config is
    /// user-supplied).
    pub fn new(config: AutoscalerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid autoscaler config: {e}");
        }
        Autoscaler {
            config,
            functions: BTreeMap::new(),
            stats: AutoscalerStats::default(),
        }
    }

    /// Summary counters for reports.
    pub fn stats(&self) -> AutoscalerStats {
        self.stats
    }

    /// Current backlog estimate (arrived − dispatched) for `function`.
    pub fn backlog(&self, function: FunctionId) -> u64 {
        self.functions.get(&function).map_or(0, FnState::backlog)
    }

    /// Current cold-rate EWMA for `function` (0 when never dispatched).
    pub fn cold_rate(&self, function: FunctionId) -> f64 {
        self.functions.get(&function).map_or(0.0, |s| s.cold_rate)
    }

    /// The keep-alive the controller last set for `function` (the base
    /// value when it never acted).
    pub fn keep_alive_set(&self, function: FunctionId) -> SimDuration {
        self.functions
            .get(&function)
            .map_or(self.config.base_keep_alive, |s| s.keep_alive_set)
    }

    fn state(&mut self, function: FunctionId) -> &mut FnState {
        let base = self.config.base_keep_alive;
        self.functions
            .entry(function)
            .or_insert_with(|| FnState::new(base))
    }

    /// Folds one event of the worker's stream into the estimates. Events
    /// arrive in stream order; only arrivals and dispatch decisions move
    /// anything.
    pub fn observe(&mut self, event: &SimEvent) {
        let alpha = self.config.alpha;
        match &event.kind {
            EventKind::Arrival { function, .. } => {
                let at = event.at;
                let st = self.state(*function);
                st.arrived += 1;
                st.arrivals_since_poll += 1;
                if let Some(prev) = st.last_arrival {
                    let gap = at.saturating_duration_since(prev).as_micros() as f64;
                    st.gap_ewma_us = Some(match st.gap_ewma_us {
                        Some(e) => alpha * gap + (1.0 - alpha) * e,
                        None => gap,
                    });
                }
                st.last_arrival = Some(at);
            }
            EventKind::DispatchDecision {
                function,
                cold,
                members,
                ..
            } => {
                let n = members.len();
                let st = self.state(*function);
                st.dispatched += n as u64;
                let cold_sample = if *cold { 1.0 } else { 0.0 };
                st.cold_rate = alpha * cold_sample + (1.0 - alpha) * st.cold_rate;
                st.occupancy = alpha * n as f64 + (1.0 - alpha) * st.occupancy;
                if !*cold {
                    // A warm hit consumed one parked container; credit it
                    // against our outstanding pre-warm budget.
                    st.outstanding_prewarm = st.outstanding_prewarm.saturating_sub(1);
                }
            }
            _ => {}
        }
    }

    /// Turns the estimates into the actions due now. The worker calls this
    /// at every sampler tick, once every event up to the tick has been
    /// observed, and applies whatever comes back.
    pub fn poll(&mut self) -> Vec<ScaleAction> {
        let Autoscaler {
            config: cfg,
            functions,
            stats,
        } = self;
        let mut out = Vec::new();
        for (&function, st) in functions.iter_mut() {
            let busy = st.arrivals_since_poll > 0 || st.backlog() > 0;

            // Pre-warm when cold starts are biting and traffic is live:
            // target enough outstanding warmth to cover the backlog (at
            // least one container), bounded by the per-function cap.
            if cfg.prewarm_cap > 0 && busy && st.cold_rate > cfg.cold_rate_high {
                let occupancy_need = st.occupancy.ceil() as u64;
                let want = st
                    .backlog()
                    .max(occupancy_need)
                    .max(1)
                    .min(cfg.prewarm_cap as u64) as usize;
                let deficit = want.saturating_sub(st.outstanding_prewarm);
                if deficit > 0 {
                    st.outstanding_prewarm += deficit;
                    stats.max_outstanding_prewarm =
                        stats.max_outstanding_prewarm.max(st.outstanding_prewarm);
                    stats.prewarm_actions += 1;
                    stats.prewarmed_containers += deficit as u64;
                    let tier = if cfg.snapshot_prewarm {
                        // Predicted re-use horizon vs the keep-alive in
                        // force: if the next hit is expected after the warm
                        // container would have idled out, park a snapshot
                        // (no memory held) instead of a warm container.
                        let horizon_us = st.gap_ewma_us.unwrap_or(0.0);
                        if horizon_us > st.keep_alive_set.as_micros() as f64 {
                            stats.snapshot_tier_prewarms += deficit as u64;
                            PrewarmTier::Snapshot
                        } else {
                            stats.warm_tier_prewarms += deficit as u64;
                            PrewarmTier::Warm
                        }
                    } else {
                        PrewarmTier::Warm
                    };
                    out.push(ScaleAction::PrewarmTier {
                        function,
                        count: deficit,
                        tier,
                    });
                }
            }

            // Keep-alive: hold the ceiling while the function is live so
            // warm containers survive gaps between bursts, relax to the
            // floor when it goes quiet. Only emit on change.
            let target = if busy {
                cfg.keepalive_ceiling
            } else {
                cfg.keepalive_floor
            };
            if target != st.keep_alive_set {
                st.keep_alive_set = target;
                stats.keepalive_actions += 1;
                out.push(ScaleAction::SetKeepAlive {
                    function,
                    keep_alive: target,
                });
            }

            st.arrivals_since_poll = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_container::ids::{ContainerId, InvocationId};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    fn arrival(at: u64, func: u32, inv: u64) -> SimEvent {
        SimEvent::new(
            SimTime::from_millis(at),
            EventKind::Arrival {
                invocation: InvocationId::new(inv),
                function: f(func),
            },
        )
    }

    fn dispatch(at: u64, func: u32, cold: bool, members: &[u64]) -> SimEvent {
        SimEvent::new(
            SimTime::from_millis(at),
            EventKind::DispatchDecision {
                batch: 0,
                function: f(func),
                container: ContainerId::new(1),
                cold,
                restored: false,
                barrier: false,
                members: members.iter().copied().map(InvocationId::new).collect(),
            },
        )
    }

    #[test]
    fn noop_band_never_acts() {
        let mut s = Autoscaler::new(AutoscalerConfig::noop(SimDuration::from_secs(600)));
        for i in 0..20 {
            s.observe(&arrival(i, 0, i));
            s.observe(&dispatch(i, 0, true, &[i]));
        }
        assert!(s.poll().is_empty());
        assert_eq!(s.stats(), AutoscalerStats::default());
    }

    #[test]
    fn cold_bursts_trigger_prewarm_up_to_cap() {
        let cfg = AutoscalerConfig {
            prewarm_cap: 3,
            base_keep_alive: SimDuration::from_secs(600),
            keepalive_ceiling: SimDuration::from_secs(600),
            keepalive_floor: SimDuration::from_secs(600),
            ..AutoscalerConfig::default()
        };
        let mut s = Autoscaler::new(cfg);
        // Ten cold singleton dispatches with a large backlog behind them.
        for i in 0..30 {
            s.observe(&arrival(i, 0, i));
        }
        for i in 0..10 {
            s.observe(&dispatch(100 + i, 0, true, &[i]));
        }
        let actions = s.poll();
        assert_eq!(
            actions,
            vec![ScaleAction::PrewarmTier {
                function: f(0),
                count: 3,
                tier: PrewarmTier::Warm,
            }]
        );
        // Cap already saturated: polling again adds nothing.
        assert!(s.poll().is_empty());
        assert_eq!(s.stats().max_outstanding_prewarm, 3);
        // A warm dispatch frees one slot of budget.
        s.observe(&arrival(200, 0, 40));
        s.observe(&dispatch(201, 0, false, &[40]));
        let actions = s.poll();
        assert_eq!(
            actions,
            vec![ScaleAction::PrewarmTier {
                function: f(0),
                count: 1,
                tier: PrewarmTier::Warm,
            }]
        );
        assert_eq!(s.stats().max_outstanding_prewarm, 3);
    }

    #[test]
    fn tier_aware_prewarm_picks_tier_by_reuse_horizon() {
        let cfg = AutoscalerConfig {
            prewarm_cap: 2,
            base_keep_alive: SimDuration::from_secs(10),
            keepalive_ceiling: SimDuration::from_secs(10),
            keepalive_floor: SimDuration::from_secs(10),
            snapshot_prewarm: true,
            ..AutoscalerConfig::default()
        };

        // Function 0: arrivals every 60 s — far past the 10 s keep-alive,
        // so a parked warm container would expire before its next hit.
        let mut s = Autoscaler::new(cfg.clone());
        for i in 0..5u64 {
            s.observe(&arrival(i * 60_000, 0, i));
            s.observe(&dispatch(i * 60_000, 0, true, &[i]));
        }
        let actions = s.poll();
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ScaleAction::PrewarmTier {
                    tier: PrewarmTier::Snapshot,
                    ..
                }
            )),
            "{actions:?}"
        );
        assert!(s.stats().snapshot_tier_prewarms > 0);
        assert_eq!(s.stats().warm_tier_prewarms, 0);

        // Function 1: arrivals every 100 ms — well inside the keep-alive,
        // so classic warm parking wins.
        let mut s = Autoscaler::new(cfg);
        for i in 0..5u64 {
            s.observe(&arrival(i * 100, 1, i));
            s.observe(&dispatch(i * 100, 1, true, &[i]));
        }
        let actions = s.poll();
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ScaleAction::PrewarmTier {
                    tier: PrewarmTier::Warm,
                    ..
                }
            )),
            "{actions:?}"
        );
        assert!(s.stats().warm_tier_prewarms > 0);
        assert_eq!(s.stats().snapshot_tier_prewarms, 0);
    }

    #[test]
    fn keepalive_follows_traffic_between_floor_and_ceiling() {
        let cfg = AutoscalerConfig {
            prewarm_cap: 0,
            keepalive_floor: SimDuration::from_secs(2),
            keepalive_ceiling: SimDuration::from_secs(60),
            base_keep_alive: SimDuration::from_secs(10),
            ..AutoscalerConfig::default()
        };
        let mut s = Autoscaler::new(cfg);
        s.observe(&arrival(0, 0, 0));
        // Live traffic ⇒ extend to the ceiling.
        assert_eq!(
            s.poll(),
            vec![ScaleAction::SetKeepAlive {
                function: f(0),
                keep_alive: SimDuration::from_secs(60)
            }]
        );
        assert_eq!(s.keep_alive_set(f(0)), SimDuration::from_secs(60));
        // Still a backlog (arrived but never dispatched) ⇒ stay up, and the
        // value is unchanged so nothing is emitted.
        assert!(s.poll().is_empty());
        // Drain the backlog; the function goes quiet ⇒ shrink to the floor.
        s.observe(&dispatch(2500, 0, true, &[0]));
        assert_eq!(
            s.poll(),
            vec![ScaleAction::SetKeepAlive {
                function: f(0),
                keep_alive: SimDuration::from_secs(2)
            }]
        );
        assert_eq!(s.stats().keepalive_actions, 2);
    }

    #[test]
    fn backlog_tracks_arrived_minus_dispatched() {
        let mut s = Autoscaler::new(AutoscalerConfig::default());
        for i in 0..5 {
            s.observe(&arrival(i, 1, i));
        }
        assert_eq!(s.backlog(f(1)), 5);
        s.observe(&dispatch(10, 1, true, &[0, 1, 2]));
        assert_eq!(s.backlog(f(1)), 2);
        assert!(s.cold_rate(f(1)) > 0.0);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let c = AutoscalerConfig {
            keepalive_floor: SimDuration::ZERO,
            ..AutoscalerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = AutoscalerConfig {
            keepalive_ceiling: SimDuration::from_millis(1),
            ..AutoscalerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = AutoscalerConfig {
            alpha: 0.0,
            ..AutoscalerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = AutoscalerConfig {
            cold_rate_high: 1.5,
            ..AutoscalerConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(AutoscalerConfig::default().validate().is_ok());
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let c = AutoscalerConfig::default();
        let json = serde_json::to_string(&c).expect("serialize");
        let back: AutoscalerConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(c, back);
    }
}
