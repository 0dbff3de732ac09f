//! Fleet scaling sweep — beyond the paper's single worker: how FaaSBatch
//! and Vanilla behave across worker counts {1, 2, 4, 8, 64, 128} under each
//! routing policy, on a scaled-up Azure-style CPU workload.
//!
//! Reports fleet end-to-end latency, provisioned containers, warm-hit rate,
//! and load imbalance (CoV of mean busy cores across workers); writes the
//! summary rows to `results/fleet_scaling.json`.

use crate::{json_pretty, Output, SEED};
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_fleet::config::FleetConfig;
use faasbatch_fleet::routing::RoutingKind;
use faasbatch_fleet::sim::run_fleet;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

const WORKER_COUNTS: [usize; 6] = [1, 2, 4, 8, 64, 128];

/// One sweep point, as exported to JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Row {
    scheduler: String,
    policy: String,
    workers: usize,
    e2e_mean_ms: f64,
    e2e_p99_ms: f64,
    containers: u64,
    warm_hit_rate: f64,
    load_imbalance: f64,
    makespan_ms: f64,
}

pub fn run(out: &mut Output) -> io::Result<()> {
    // Twice the paper's CPU replay, double the functions: enough pressure
    // that an 8-worker fleet still has work everywhere.
    let w = cpu_workload(
        &DetRng::new(SEED),
        &WorkloadConfig {
            total: 1600,
            span: SimDuration::from_secs(60),
            functions: 16,
            bursts: 6,
            ..WorkloadConfig::default()
        },
    );
    writeln!(
        out,
        "fleet scaling — {} invocations, workers {WORKER_COUNTS:?}, all routing policies\n",
        w.len()
    )?;

    let mut rows: Vec<Row> = Vec::new();
    for scheduler in [SchedulerKind::FaasBatch, SchedulerKind::Vanilla] {
        for kind in RoutingKind::ALL {
            for workers in WORKER_COUNTS {
                let cfg = FleetConfig {
                    workers,
                    scheduler,
                    ..FleetConfig::default()
                };
                let report = run_fleet(&w, &cfg, kind.build(), "cpu")
                    .expect("benchmark scenarios have no crash faults");
                let e2e = report.end_to_end_cdf();
                rows.push(Row {
                    scheduler: report.scheduler.clone(),
                    policy: report.policy.clone(),
                    workers,
                    e2e_mean_ms: e2e.mean().as_millis_f64(),
                    e2e_p99_ms: e2e.quantile(0.99).as_millis_f64(),
                    containers: report.provisioned_containers(),
                    warm_hit_rate: report.warm_hit_rate(),
                    load_imbalance: report.load_imbalance(),
                    makespan_ms: report.makespan.as_millis_f64(),
                });
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheduler.clone(),
                r.policy.clone(),
                r.workers.to_string(),
                format!("{:.1}", r.e2e_mean_ms),
                format!("{:.1}", r.e2e_p99_ms),
                r.containers.to_string(),
                format!("{:.1}%", r.warm_hit_rate * 100.0),
                format!("{:.3}", r.load_imbalance),
                format!("{:.0}", r.makespan_ms),
            ]
        })
        .collect();
    out.table(
        &[
            "scheduler",
            "policy",
            "workers",
            "e2e mean (ms)",
            "e2e p99 (ms)",
            "containers",
            "warm hits",
            "imbalance CoV",
            "makespan (ms)",
        ],
        &table,
    )?;
    out.line("Expected shape: latency and imbalance fall as workers grow; warm-affinity")?;
    out.line("keeps the highest warm-hit rate; FaaSBatch needs far fewer containers than")?;
    out.line("Vanilla at every scale.")?;

    out.write_file("fleet_scaling.json", json_pretty(&rows)?)
}
