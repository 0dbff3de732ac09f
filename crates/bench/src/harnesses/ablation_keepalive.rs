//! Ablation — warm-pool keep-alive TTL sensitivity: how long idle containers
//! are retained trades memory for cold starts, for both FaaSBatch and
//! Vanilla.

use crate::{paper_cpu_workload, Output, DEFAULT_WINDOW};
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::run_simulation;
use faasbatch_schedulers::vanilla::Vanilla;
use faasbatch_simcore::time::SimDuration;
use std::io::{self, Write};

const TTLS_S: [u64; 4] = [2, 10, 60, 600];

pub fn run(out: &mut Output) -> io::Result<()> {
    let w = paper_cpu_workload();
    writeln!(
        out,
        "Ablation — keep-alive TTL, CPU workload ({} invocations)\n",
        w.len()
    )?;
    let mut rows = Vec::new();
    for &ttl in &TTLS_S {
        let cfg = SimConfig {
            keep_alive: SimDuration::from_secs(ttl),
            ..SimConfig::default()
        };
        let fb = run_faasbatch(
            &w,
            cfg.clone(),
            FaasBatchConfig {
                window: DEFAULT_WINDOW,
                ..FaasBatchConfig::default()
            },
            "cpu",
        );
        let van = run_simulation(Box::new(Vanilla::new()), &w, cfg, "cpu", None);
        for r in [&van, &fb] {
            rows.push(vec![
                format!("{ttl}s"),
                r.scheduler.clone(),
                r.provisioned_containers.to_string(),
                format!("{:.1}%", r.cold_fraction() * 100.0),
                format!("{}", r.end_to_end_cdf().mean()),
                format!("{:.0}", r.mean_memory_bytes() / (1 << 20) as f64),
            ]);
        }
    }
    out.table(
        &[
            "ttl",
            "scheduler",
            "containers",
            "cold %",
            "e2e mean",
            "mem mean (MB)",
        ],
        &rows,
    )?;
    out.line("Expected: short TTLs shed memory but multiply cold starts; FaaSBatch")?;
    out.line("is far less TTL-sensitive because one container absorbs a whole burst.")?;
    Ok(())
}
