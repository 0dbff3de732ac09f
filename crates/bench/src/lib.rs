//! # faasbatch-bench
//!
//! Figure-regeneration harnesses for the FaaSBatch reproduction.
//!
//! Every table and figure of the paper's evaluation is printed by a module
//! under `src/harnesses/`, one per experiment (the trace figures, the §V
//! comparison, the ablations, …), that rebuilds its workloads, runs the
//! relevant schedulers, and prints the same rows/series the paper plots
//! (see `DESIGN.md` §5 for the index). One line in [`HARNESSES`] registers
//! it — name, what it reproduces, the `results/` files it owns — and the
//! one binary, `faasbatch-bench <name> | list | regen [--out DIR]
//! [--check]`, is generated from that table. This library also holds the
//! shared plumbing: canonical workloads, the paper's four-scheduler subset
//! for [`run_comparison`], the ablation summaries, table columns over runs,
//! CDF rendering, and the [`Output`] every harness writes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faasbatch_core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
use faasbatch_metrics::analysis::{AttributionEngine, AttributionReport};
use faasbatch_metrics::autoscaler::AutoscalerConfig;
use faasbatch_metrics::events::{NoopSink, SimEvent, TraceSink, VecSink};
use faasbatch_metrics::report::{text_table, RunReport};
use faasbatch_metrics::stats::Cdf;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use serde::{Serialize, Value};

mod harnesses;
mod output;
pub mod regen;

pub use harnesses::{Harness, HARNESSES};
pub(crate) use output::json_pretty;
pub use output::Output;

/// Seed used by every figure harness (the replayed "trace").
pub const SEED: u64 = 2023;

/// The paper's default dispatch window.
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(200);

/// The dispatch intervals swept in Fig. 13/14.
pub const DISPATCH_INTERVALS_MS: [u64; 4] = [10, 100, 200, 500];

/// The paper's CPU workload: 800 `fib` invocations across one bursty minute.
pub fn paper_cpu_workload() -> Workload {
    cpu_workload(&DetRng::new(SEED), &WorkloadConfig::default())
}

/// The paper's I/O workload: the first 400 invocations of the minute.
pub fn paper_io_workload() -> Workload {
    io_workload(
        &DetRng::new(SEED),
        &WorkloadConfig {
            total: 400,
            span: SimDuration::from_secs(30),
            functions: 8,
            bursts: 4,
            ..WorkloadConfig::default()
        },
    )
}

/// The paper's own four-scheduler comparison, in figure order — the subset
/// of [`SchedulerKind::ALL`] that Fig. 11–14 plot.
pub const PAPER_FOUR: [SchedulerKind; 4] = [
    SchedulerKind::Vanilla,
    SchedulerKind::Sfs,
    SchedulerKind::Kraken,
    SchedulerKind::FaasBatch,
];

/// All six schedulers over `workload` under `cfg` and the dispatch
/// `window`, each run's stream kept in a [`VecSink`] (read it with
/// [`collected_events`]) — the one runner behind the paper's comparison.
pub(crate) fn six_traced(
    workload: &Workload,
    label: &str,
    cfg: &SimConfig,
    window: SimDuration,
) -> (Vec<RunReport>, Vec<Box<dyn TraceSink>>) {
    let setup = SchedulerSetup::new(window);
    run_comparison(&SchedulerKind::ALL, workload, label, cfg, &setup, |_| {
        Box::new(VecSink::new())
    })
}

/// Attributes a run's stream; panics unless every invocation's phases sum
/// exactly to its end-to-end latency.
pub(crate) fn attribute(events: &[SimEvent]) -> AttributionReport {
    let mut engine = AttributionEngine::new();
    engine.consume(events);
    let report = engine.finish();
    assert!(
        report.all_exact(),
        "attribution phases must sum exactly to end-to-end latency"
    );
    report
}

/// Recovers a [`VecSink`]'s collected events from a sink a traced run
/// returned.
pub fn collected_events(sink: &dyn TraceSink) -> &[SimEvent] {
    sink.as_any()
        .downcast_ref::<VecSink>()
        .expect("traced run returns its vec sink")
        .events()
}

/// The static simulation config and controller used by the
/// `ablation_autoscaler` harness, the `faasbatch autoscale` CLI mode, and
/// the determinism tests. A deliberately short static keep-alive (2 s)
/// makes the cold-start cost of static configuration visible; the
/// controller may extend per-function keep-alive up to 60 s while a
/// function is live and pre-warm up to 4 containers per function.
pub fn autoscaler_ablation_setup() -> (SimConfig, AutoscalerConfig) {
    let keep_alive = SimDuration::from_secs(2);
    let sim = SimConfig {
        keep_alive,
        ..SimConfig::default()
    };
    let ac = AutoscalerConfig {
        prewarm_cap: 4,
        keepalive_floor: keep_alive,
        keepalive_ceiling: SimDuration::from_secs(60),
        base_keep_alive: keep_alive,
        ..AutoscalerConfig::default()
    };
    (sim, ac)
}

/// Builds an object [`Value`] with the given (deterministic) key order.
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// A span in µs, as the ablation summaries store it.
fn us(span: SimDuration) -> Value {
    Value::U64(span.as_micros())
}

/// A fraction as a percentage to one decimal.
fn pct(fraction: f64) -> Value {
    Value::F64((fraction * 1000.0).round() / 10.0)
}

/// One scheduler's row of the autoscaler ablation: static vs controller.
fn ablation_row(static_run: &RunReport, auto_run: &RunReport) -> Value {
    fn mode(r: &RunReport) -> Value {
        obj(vec![
            ("cold_pct", pct(r.cold_fraction())),
            ("containers", Value::U64(r.provisioned_containers)),
            ("warm_hits", Value::U64(r.warm_hits)),
            ("e2e_p50_us", us(r.end_to_end_cdf().quantile(0.5))),
            ("e2e_p99_us", us(r.end_to_end_cdf().quantile(0.99))),
        ])
    }
    let s = auto_run
        .autoscaler
        .expect("an autoscaled run reports its controller");
    let controller = obj(vec![
        ("prewarm_actions", Value::U64(s.prewarm_actions)),
        ("prewarmed_containers", Value::U64(s.prewarmed_containers)),
        ("keepalive_actions", Value::U64(s.keepalive_actions)),
        (
            "max_outstanding_prewarm",
            s.max_outstanding_prewarm.to_value(),
        ),
    ]);
    obj(vec![
        ("static", mode(static_run)),
        ("autoscaled", mode(auto_run)),
        ("controller", controller),
    ])
}

/// The controller-on vs static-config ablation over all six schedulers.
///
/// Returns the JSON summary the `ablation_autoscaler` bin commits to
/// `results/ablation_autoscaler.json`: per scheduler, cold-start rate and
/// end-to-end p50/p99 under the static config and under the controller,
/// plus the controller's action counters. Deterministic for fixed inputs —
/// every map is built in a fixed key order.
pub fn autoscaler_ablation(
    workload: &Workload,
    label: &str,
    window: SimDuration,
    cfg: &SimConfig,
    ac: &AutoscalerConfig,
) -> Value {
    let setup = SchedulerSetup::new(window);
    let compare = |cfg: &SimConfig| {
        run_comparison(&SchedulerKind::ALL, workload, label, cfg, &setup, |_| {
            Box::new(NoopSink)
        })
        .0
    };
    let static_runs = compare(cfg);
    // Every run gets a fresh controller; Vanilla's doubles as Kraken's
    // calibration run.
    let auto_runs = compare(&SimConfig {
        autoscaler: Some(ac.clone()),
        ..cfg.clone()
    });
    let schedulers = Value::Map(
        static_runs
            .iter()
            .zip(&auto_runs)
            .map(|(s, a)| (s.scheduler.clone(), ablation_row(s, a)))
            .collect(),
    );
    obj(vec![
        ("workload", Value::Str(label.to_owned())),
        ("invocations", Value::U64(workload.len() as u64)),
        ("window_us", us(window)),
        ("static_keep_alive_us", us(cfg.keep_alive)),
        ("autoscaler", ac.to_value()),
        ("schedulers", schedulers),
    ])
}

/// The object of per-scheduler rows inside an ablation summary.
pub(crate) fn scheduler_rows(summary: &Value) -> &[(String, Value)] {
    match summary.get_field("schedulers") {
        Ok(Value::Map(schedulers)) => schedulers,
        other => panic!("summary has a `schedulers` object, got {other:?}"),
    }
}

/// Table cell for field `key` of an ablation summary row: a count as is, a
/// percentage to one decimal, a `*_us` latency as a duration.
pub(crate) fn cell(row: &Value, key: &str) -> String {
    match row.get_field(key).expect("summary row field") {
        Value::U64(n) if key.ends_with("_us") => SimDuration::from_micros(*n).to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(f) => format!("{f:.1}"),
        other => format!("{other:?}"),
    }
}

/// The static simulation config used by the `ablation_snapshot` harness and
/// the snapshot integration tests: the default worker with the autoscaler
/// ablation's short 2 s keep-alive, so warm containers churn out of the pool
/// between bursts and the restore tier has cold starts to absorb. The
/// snapshot cache itself is left disabled — each sweep point installs its
/// own [`SnapshotConfig`](faasbatch_container::snapshot::SnapshotConfig).
pub fn snapshot_ablation_setup() -> SimConfig {
    SimConfig {
        keep_alive: SimDuration::from_secs(2),
        ..SimConfig::default()
    }
}

/// One scheduler's row of the snapshot ablation: the warm/restore/cold
/// split, end-to-end latency, and the cache's lifetime counters.
fn snapshot_row(r: &RunReport) -> Value {
    let total = r.records.len().max(1) as f64;
    obj(vec![
        ("cold_pct", pct(r.cold_fraction())),
        ("restored_pct", pct(r.restored_starts as f64 / total)),
        ("restored_starts", Value::U64(r.restored_starts)),
        ("containers", Value::U64(r.provisioned_containers)),
        ("e2e_p50_us", us(r.end_to_end_cdf().quantile(0.5))),
        ("e2e_p99_us", us(r.end_to_end_cdf().quantile(0.99))),
        ("cache", r.snapshot_stats.to_value()),
    ])
}

/// One snapshot-tier sweep point: all six schedulers on `workload` under
/// `base` with the given cache configuration installed.
///
/// Returns the JSON object the `ablation_snapshot` bin collects into
/// `results/ablation_snapshot.json`: the sweep coordinates (capacity,
/// eviction policy, restore band) plus a per-scheduler row with the
/// warm/restore/cold split and cache counters. Deterministic for fixed
/// inputs — every map is built in a fixed key order.
pub fn snapshot_ablation(
    workload: &Workload,
    label: &str,
    window: SimDuration,
    base: &SimConfig,
    snapshot: &faasbatch_container::snapshot::SnapshotConfig,
) -> Value {
    let cfg = SimConfig {
        snapshot: snapshot.clone(),
        ..base.clone()
    };
    let (reports, _) = run_comparison(
        &SchedulerKind::ALL,
        workload,
        label,
        &cfg,
        &SchedulerSetup::new(window),
        |_| Box::new(NoopSink),
    );
    let schedulers = Value::Map(
        reports
            .iter()
            .map(|r| (r.scheduler.clone(), snapshot_row(r)))
            .collect(),
    );
    obj(vec![
        ("workload", Value::Str(label.to_owned())),
        ("invocations", Value::U64(workload.len() as u64)),
        ("window_us", us(window)),
        ("keep_alive_us", us(cfg.keep_alive)),
        ("capacity", Value::U64(snapshot.capacity as u64)),
        ("eviction", Value::Str(snapshot.eviction.name().to_owned())),
        ("restore_min_us", us(snapshot.model.min_latency())),
        ("restore_max_us", us(snapshot.model.max_latency())),
        ("boot_fraction", Value::F64(snapshot.model.boot_fraction())),
        ("schedulers", schedulers),
    ])
}

/// One scheduler's summary row: the columns of [`summary_table`] plus the
/// end-to-end p99, as `results/six_schedulers_{cpu,io}.json` commits them
/// (the full per-invocation `RunReport`s would be megabytes per workload).
#[derive(Serialize)]
pub(crate) struct Summary {
    scheduler: String,
    invocations: usize,
    containers: u64,
    invocations_per_container: f64,
    cold_fraction: f64,
    scheduling_p50_us: u64,
    scheduling_p99_us: u64,
    execution_p50_us: u64,
    exec_queue_p99_us: u64,
    end_to_end_mean_us: u64,
    end_to_end_p99_us: u64,
    memory_mean_mb: f64,
    cpu_utilization: f64,
    daemon_core_seconds: f64,
    clients_created: u64,
    client_mb_per_request: f64,
}

impl Summary {
    /// The summary row of one run.
    pub(crate) fn of(r: &RunReport) -> Self {
        Summary {
            scheduler: r.scheduler.clone(),
            invocations: r.records.len(),
            containers: r.provisioned_containers,
            invocations_per_container: r.invocations_per_container(),
            cold_fraction: r.cold_fraction(),
            scheduling_p50_us: r.scheduling_cdf().quantile(0.5).as_micros(),
            scheduling_p99_us: r.scheduling_cdf().quantile(0.99).as_micros(),
            execution_p50_us: r.execution_cdf().quantile(0.5).as_micros(),
            exec_queue_p99_us: r.exec_queue_cdf().quantile(0.99).as_micros(),
            end_to_end_mean_us: r.end_to_end_cdf().mean().as_micros(),
            end_to_end_p99_us: r.end_to_end_cdf().quantile(0.99).as_micros(),
            memory_mean_mb: r.mean_memory_bytes() / MB,
            cpu_utilization: r.mean_cpu_utilization(),
            daemon_core_seconds: r.core_seconds_daemon,
            clients_created: r.clients_created,
            client_mb_per_request: r.client_memory_per_request() / MB,
        }
    }
}

/// A table column over runs: its header and the cell a run gets.
pub(crate) type Column = (&'static str, fn(&RunReport) -> String);

/// A mebibyte, the unit of every printed memory column.
pub(crate) const MB: f64 = (1u64 << 20) as f64;

pub(crate) const SCHEDULER: Column = ("scheduler", |r| r.scheduler.clone());
pub(crate) const CONTAINERS: Column = ("containers", |r| r.provisioned_containers.to_string());
pub(crate) const INV_PER_CONTAINER: Column = ("inv/ctr", |r| {
    format!("{:.2}", r.invocations_per_container())
});
pub(crate) const SCHED_P99: Column = ("sched p99", |r| {
    r.scheduling_cdf().quantile(0.99).to_string()
});
pub(crate) const EXEC_P50: Column = ("exec p50", |r| r.execution_cdf().quantile(0.5).to_string());
pub(crate) const EXEC_QUEUE_P99: Column = ("exec+queue p99", |r| {
    r.exec_queue_cdf().quantile(0.99).to_string()
});
pub(crate) const E2E_MEAN: Column = ("e2e mean", |r| r.end_to_end_cdf().mean().to_string());
pub(crate) const MB_PER_REQUEST: Column = ("MB/client-req", |r| {
    format!("{:.2}", r.client_memory_per_request() / MB)
});
pub(crate) const CPU_UTIL: Column = ("cpu util", |r| format!("{:.3}", r.mean_cpu_utilization()));

/// The columns of [`summary_table`]: [`Summary`]'s fields but the end-to-end
/// p99.
pub(crate) const SUMMARY: [Column; 15] = [
    SCHEDULER,
    ("invocations", |r| r.records.len().to_string()),
    CONTAINERS,
    INV_PER_CONTAINER,
    ("cold%", |r| format!("{:.1}", r.cold_fraction() * 100.0)),
    ("sched p50", |r| {
        r.scheduling_cdf().quantile(0.5).to_string()
    }),
    SCHED_P99,
    EXEC_P50,
    EXEC_QUEUE_P99,
    E2E_MEAN,
    ("mem mean (MB)", |r| {
        format!("{:.1}", r.mean_memory_bytes() / MB)
    }),
    CPU_UTIL,
    ("daemon cpu-s", |r| format!("{:.1}", r.core_seconds_daemon)),
    ("clients", |r| r.clients_created.to_string()),
    MB_PER_REQUEST,
];

/// Renders one row per `(labels, run)`: its label cells under `labels`,
/// then one cell per column.
pub(crate) fn report_table<'a>(
    labels: &[&str],
    columns: &[Column],
    rows: impl IntoIterator<Item = (Vec<String>, &'a RunReport)>,
) -> String {
    let headers: Vec<&str> = labels
        .iter()
        .copied()
        .chain(columns.iter().map(|c| c.0))
        .collect();
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(mut row, r)| {
            row.extend(columns.iter().map(|(_, cell)| cell(r)));
            row
        })
        .collect();
    text_table(&headers, &rows)
}

/// Renders the standard per-scheduler resource/latency summary table.
pub fn summary_table(reports: &[RunReport]) -> String {
    report_table(&[], &SUMMARY, reports.iter().map(|r| (Vec::new(), r)))
}

/// Renders one latency-component CDF (Fig. 11/12 panels) as aligned columns:
/// a fixed grid of cumulative fractions and the per-scheduler latencies at
/// each.
pub fn cdf_table(title: &str, series: &[(&str, Cdf)]) -> String {
    let fractions = [0.10, 0.25, 0.50, 0.75, 0.90, 0.96, 0.99, 1.00];
    let mut headers = vec!["fraction"];
    for (name, _) in series {
        headers.push(name);
    }
    let rows: Vec<Vec<String>> = fractions
        .iter()
        .map(|&q| {
            let mut row = vec![format!("p{:02.0}", q * 100.0)];
            for (_, cdf) in series {
                row.push(if cdf.is_empty() {
                    "-".to_owned()
                } else {
                    format!("{}", cdf.quantile(q))
                });
            }
            row
        })
        .collect();
    format!("{title}\n{}", text_table(&headers, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_have_paper_sizes() {
        assert_eq!(paper_cpu_workload().len(), 800);
        assert_eq!(paper_io_workload().len(), 400);
    }

    #[test]
    fn snapshot_ablation_reports_restores_for_every_scheduler_row() {
        let w = cpu_workload(
            &DetRng::new(5),
            &WorkloadConfig {
                total: 60,
                span: SimDuration::from_secs(10),
                functions: 3,
                bursts: 3,
                ..WorkloadConfig::default()
            },
        );
        let base = snapshot_ablation_setup();
        let snapshot = faasbatch_container::snapshot::SnapshotConfig::with_capacity(4);
        let point = snapshot_ablation(&w, "cpu", DEFAULT_WINDOW, &base, &snapshot);
        assert_eq!(point.get_field("capacity").unwrap(), &Value::U64(4));
        let Value::Map(schedulers) = point.get_field("schedulers").unwrap() else {
            panic!("schedulers is an object");
        };
        assert_eq!(schedulers.len(), 6);
        for (name, row) in schedulers {
            let Value::U64(restored) = row.get_field("restored_starts").unwrap() else {
                panic!("restored_starts is a count");
            };
            let cache = row.get_field("cache").unwrap();
            let Value::U64(hits) = cache.get_field("hits").unwrap() else {
                panic!("hits is a count");
            };
            assert_eq!(restored, hits, "{name}: one cache hit per restored start");
            if name == "vanilla" {
                assert!(*restored > 0, "vanilla churns enough to restore");
            }
        }
    }

    #[test]
    fn tables_render_nonempty() {
        let w = cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 20,
                span: SimDuration::from_secs(5),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let (reports, _) = run_comparison(
            &PAPER_FOUR,
            &w,
            "cpu",
            &SimConfig::default(),
            &SchedulerSetup::new(DEFAULT_WINDOW),
            |_| Box::new(NoopSink),
        );
        let summary = summary_table(&reports);
        assert!(summary.contains("faasbatch"));
        let cdfs: Vec<(&str, Cdf)> = reports
            .iter()
            .map(|r| (r.scheduler.as_str(), r.scheduling_cdf()))
            .collect();
        let t = cdf_table("scheduling", &cdfs);
        assert!(t.contains("p50"));
    }
}
