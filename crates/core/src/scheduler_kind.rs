//! The typed scheduler registry: every comparison scheduler by name.
//!
//! [`SchedulerKind`] enumerates the six schedulers of the comparison —
//! Vanilla, SFS, Kraken, Hiku, core-late-bind, and FaaSBatch — in
//! canonical sweep order, and [`SchedulerKind::parse`] turns a CLI /
//! bench name into a typed value with an error that lists every valid
//! name (mirroring [`crate::routing::RoutingKind::parse`]). A parsed
//! kind builds a ready-to-run [`Policy`] plus the dispatch interval its
//! harness run needs, so the CLI, bench bins, and test matrices all
//! share one spelling of each name and one construction path — and
//! [`run_comparison`] is the one loop that replays a list of kinds over a
//! workload, calibrating Kraken from Vanilla on the way.

use crate::policy::{FaasBatchConfig, FaasBatchPolicy};
use faasbatch_metrics::events::{NoopSink, TraceSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::run_simulation_traced;
use faasbatch_schedulers::hiku::Hiku;
use faasbatch_schedulers::kraken::{Kraken, KrakenCalibration};
use faasbatch_schedulers::late_bind::CoreLateBind;
use faasbatch_schedulers::policy::Policy;
use faasbatch_schedulers::sfs::Sfs;
use faasbatch_schedulers::vanilla::Vanilla;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::Workload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by [`SchedulerKind::parse`] for an unrecognised
/// scheduler name.
///
/// Its [`Display`](fmt::Display) lists every valid name, so CLI users see
/// the menu instead of a bare failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler {
    /// The name that failed to parse.
    pub input: String,
}

impl fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheduler `{}`; valid schedulers: ", self.input)?;
        for (i, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", kind.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownScheduler {}

/// Enumerates the comparison schedulers, for CLI / bench sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// One container per invocation (`faasbatch_schedulers::vanilla`).
    Vanilla,
    /// Per-invocation containers + aging CPU weights
    /// (`faasbatch_schedulers::sfs`).
    Sfs,
    /// SLO-slack serial batching (`faasbatch_schedulers::kraken`).
    Kraken,
    /// Pull-based worker-initiated scheduling
    /// (`faasbatch_schedulers::hiku`).
    Hiku,
    /// Core-granular late binding (`faasbatch_schedulers::late_bind`).
    CoreLateBind,
    /// The paper's batching + expansion scheduler
    /// ([`crate::policy::FaasBatchPolicy`]).
    FaasBatch,
}

/// Everything needed to instantiate any scheduler of the comparison.
///
/// Kraken needs a calibration ([`run_comparison`] derives it from a Vanilla
/// run of the same workload) and FaaSBatch a full [`FaasBatchConfig`]; the
/// rest are parameter-free. Bundling them lets one setup build all six.
/// The dispatch window is stored once, as the FaaSBatch configuration's
/// `window`, and Kraken batches over the same one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerSetup {
    /// Kraken's execution-time calibration.
    pub kraken: KrakenCalibration,
    /// FaaSBatch's full configuration; its `window` is the dispatch window
    /// of both windowed schedulers (Kraken, FaaSBatch).
    pub faasbatch: FaasBatchConfig,
}

impl SchedulerSetup {
    /// A setup with default Kraken calibration and default FaaSBatch
    /// knobs over the given dispatch window.
    pub fn new(window: SimDuration) -> Self {
        FaasBatchConfig::with_window(window).into()
    }

    /// Replaces the Kraken calibration ([`run_comparison`] overrides it
    /// with [`KrakenCalibration::from_vanilla`]).
    pub fn with_kraken_calibration(mut self, calibration: KrakenCalibration) -> Self {
        self.kraken = calibration;
        self
    }
}

/// A setup with default Kraken calibration around a full FaaSBatch
/// configuration, whose window both windowed schedulers use.
impl From<FaasBatchConfig> for SchedulerSetup {
    fn from(faasbatch: FaasBatchConfig) -> Self {
        SchedulerSetup {
            kraken: KrakenCalibration::default(),
            faasbatch,
        }
    }
}

impl SchedulerKind {
    /// All comparison schedulers, in sweep order.
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::Vanilla,
        SchedulerKind::Sfs,
        SchedulerKind::Kraken,
        SchedulerKind::Hiku,
        SchedulerKind::CoreLateBind,
        SchedulerKind::FaasBatch,
    ];

    /// CLI name of the scheduler.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Vanilla => "vanilla",
            SchedulerKind::Sfs => "sfs",
            SchedulerKind::Kraken => "kraken",
            SchedulerKind::Hiku => "hiku",
            SchedulerKind::CoreLateBind => "core-late-bind",
            SchedulerKind::FaasBatch => "faasbatch",
        }
    }

    /// Parses a CLI name; the error lists the valid names.
    pub fn parse(s: &str) -> Result<SchedulerKind, UnknownScheduler> {
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| UnknownScheduler {
                input: s.to_owned(),
            })
    }

    /// Builds a fresh policy instance plus the dispatch interval to pass
    /// to the harness (`Some(window)` for the windowed schedulers, `None`
    /// for the arrival-driven ones).
    pub fn build(self, setup: &SchedulerSetup) -> (Box<dyn Policy>, Option<SimDuration>) {
        match self {
            SchedulerKind::Vanilla => (Box::new(Vanilla::new()), None),
            SchedulerKind::Sfs => (Box::new(Sfs::new()), None),
            SchedulerKind::Kraken => (
                Box::new(Kraken::new(setup.kraken.clone(), setup.faasbatch.window)),
                Some(setup.faasbatch.window),
            ),
            SchedulerKind::Hiku => (Box::new(Hiku::new()), None),
            SchedulerKind::CoreLateBind => (Box::new(CoreLateBind::new()), None),
            SchedulerKind::FaasBatch => (
                Box::new(FaasBatchPolicy::new(setup.faasbatch.clone())),
                Some(setup.faasbatch.window),
            ),
        }
    }
}

/// Replays `workload` under every scheduler in `kinds` and returns the
/// reports plus each run's sink, both in `kinds` order.
///
/// `sink_for` supplies one fresh sink per run (`|_| Box::new(NoopSink)` for
/// an untraced comparison); each comes back for downcasting. When `kinds`
/// holds [`SchedulerKind::Kraken`], Vanilla runs first under the same
/// `cfg` (its controller included) — exactly once, its run doubling as the
/// Vanilla entry when `kinds` asks for one, untraced otherwise — and
/// Kraken is calibrated from that report
/// ([`KrakenCalibration::from_vanilla`]) in place of `setup.kraken`. This is
/// the only place that calibration happens.
///
/// # Examples
///
/// ```
/// use faasbatch_core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
/// use faasbatch_metrics::events::NoopSink;
/// use faasbatch_schedulers::config::SimConfig;
/// use faasbatch_simcore::rng::DetRng;
/// use faasbatch_simcore::time::SimDuration;
/// use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
///
/// let w = cpu_workload(&DetRng::new(42), &WorkloadConfig {
///     total: 20, span: SimDuration::from_secs(5), functions: 2, bursts: 2,
///     ..WorkloadConfig::default()
/// });
/// let setup = SchedulerSetup::new(SimDuration::from_millis(200));
/// let (reports, _sinks) = run_comparison(
///     &SchedulerKind::ALL, &w, "cpu", &SimConfig::default(), &setup,
///     |_| Box::new(NoopSink),
/// );
/// assert_eq!(reports.len(), 6);
/// assert_eq!(reports[5].scheduler, "faasbatch");
/// ```
pub fn run_comparison(
    kinds: &[SchedulerKind],
    workload: &Workload,
    label: &str,
    cfg: &SimConfig,
    setup: &SchedulerSetup,
    mut sink_for: impl FnMut(SchedulerKind) -> Box<dyn TraceSink>,
) -> (Vec<RunReport>, Vec<Box<dyn TraceSink>>) {
    let run = |kind: SchedulerKind, setup: &SchedulerSetup, sink| {
        let (policy, interval) = kind.build(setup);
        run_simulation_traced(policy, workload, cfg.clone(), label, interval, sink)
    };
    let mut setup = setup.clone();
    let mut vanilla = None;
    if kinds.contains(&SchedulerKind::Kraken) {
        let sink = if kinds.contains(&SchedulerKind::Vanilla) {
            sink_for(SchedulerKind::Vanilla)
        } else {
            Box::new(NoopSink)
        };
        let (report, sink) = run(SchedulerKind::Vanilla, &setup, sink);
        setup.kraken = KrakenCalibration::from_vanilla(&report);
        vanilla = Some((report, sink));
    }
    kinds
        .iter()
        .map(|&kind| {
            if kind == SchedulerKind::Vanilla {
                if let Some(shared) = vanilla.take() {
                    return shared;
                }
            }
            run(kind, &setup, sink_for(kind))
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_metrics::events::VecSink;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

    const WINDOW: SimDuration = SimDuration::from_millis(200);

    fn workload() -> Workload {
        cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 30,
                span: SimDuration::from_secs(5),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        )
    }

    fn compare(kinds: &[SchedulerKind]) -> Vec<RunReport> {
        let setup = SchedulerSetup::new(WINDOW);
        let cfg = SimConfig::default();
        run_comparison(kinds, &workload(), "cpu", &cfg, &setup, |_| {
            Box::new(NoopSink)
        })
        .0
    }

    #[test]
    fn comparison_reports_follow_the_requested_kinds() {
        let reports = compare(&SchedulerKind::ALL);
        let names: Vec<&str> = reports.iter().map(|r| r.scheduler.as_str()).collect();
        let expected: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
        assert!(reports.iter().all(|r| r.records.len() == 30));
    }

    #[test]
    fn subset_runs_equal_the_same_kinds_inside_the_six_way_run() {
        use SchedulerKind::{FaasBatch, Kraken, Sfs, Vanilla};
        let six = compare(&SchedulerKind::ALL);
        let four = compare(&[Vanilla, Sfs, Kraken, FaasBatch]);
        assert_eq!(four, [0, 1, 2, 5].map(|i| six[i].clone()));
        // Kraken alone still calibrates from a (hidden) Vanilla run, and
        // order does not matter.
        assert_eq!(compare(&[Kraken]), [six[2].clone()]);
        assert_eq!(
            compare(&[Kraken, Vanilla]),
            [six[2].clone(), six[0].clone()]
        );
    }

    #[test]
    fn one_window_drives_both_windowed_schedulers() {
        let mut setup = SchedulerSetup::from(FaasBatchConfig::with_window(WINDOW));
        let interval = |kind: SchedulerKind, setup: &SchedulerSetup| kind.build(setup).1;
        for kind in [SchedulerKind::Kraken, SchedulerKind::FaasBatch] {
            assert_eq!(interval(kind, &setup), Some(WINDOW));
        }
        setup.faasbatch.window = SimDuration::from_millis(50);
        for kind in [SchedulerKind::Kraken, SchedulerKind::FaasBatch] {
            assert_eq!(interval(kind, &setup), Some(SimDuration::from_millis(50)));
        }
        assert_eq!(interval(SchedulerKind::Vanilla, &setup), None);
    }

    #[test]
    fn every_requested_run_gets_its_own_sink_back() {
        let setup = SchedulerSetup::new(WINDOW);
        let mut asked = Vec::new();
        let (reports, sinks) = run_comparison(
            &SchedulerKind::ALL,
            &workload(),
            "cpu",
            &SimConfig::default(),
            &setup,
            |kind| {
                asked.push(kind);
                Box::new(VecSink::new())
            },
        );
        assert_eq!(asked.len(), 6, "vanilla is run (and traced) once");
        assert_eq!(sinks.len(), reports.len());
        for sink in &sinks {
            let events = sink.as_any().downcast_ref::<VecSink>().expect("vec sink");
            assert!(!events.events().is_empty());
        }
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Ok(kind));
        }
    }

    #[test]
    fn unknown_name_lists_valid_schedulers() {
        let err = SchedulerKind::parse("shortest-job-first").unwrap_err();
        assert_eq!(err.input, "shortest-job-first");
        let msg = err.to_string();
        for kind in SchedulerKind::ALL {
            assert!(
                msg.contains(kind.name()),
                "error message should list `{}`: {msg}",
                kind.name()
            );
        }
    }

    #[test]
    fn build_names_match_parse_names() {
        let setup = SchedulerSetup::new(SimDuration::from_millis(200));
        for kind in SchedulerKind::ALL {
            let (policy, interval) = kind.build(&setup);
            assert_eq!(policy.name(), kind.name());
            // Windowed schedulers get a dispatch interval; the rest don't.
            let windowed = matches!(kind, SchedulerKind::Kraken | SchedulerKind::FaasBatch);
            assert_eq!(interval.is_some(), windowed, "{}", kind.name());
        }
    }
}
