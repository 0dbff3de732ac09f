//! Ablation — trace-driven autoscaling vs static configuration.
//!
//! Runs all six schedulers twice over each paper workload: once with the
//! static prewarm/keep-alive config only, once with the per-function
//! controller (`SimConfig::autoscaler`, DESIGN.md §12) switched on. The
//! static keep-alive is deliberately short (2 s) so the trade the
//! controller navigates — memory held by warm containers vs cold-start
//! latency — is visible in both directions.
//!
//! Writes `results/ablation_autoscaler.json`.

use crate::{
    autoscaler_ablation, autoscaler_ablation_setup, cell, json_pretty, paper_cpu_workload,
    paper_io_workload, scheduler_rows, Output, DEFAULT_WINDOW,
};
use serde::Value;
use std::io;

/// Renders one workload's summary object as table rows.
fn rows_for(label: &str, summary: &Value) -> Vec<Vec<String>> {
    scheduler_rows(summary)
        .iter()
        .map(|(name, row)| {
            let st = row.get_field("static").expect("static mode");
            let au = row.get_field("autoscaled").expect("autoscaled mode");
            let ctl = row.get_field("controller").expect("controller counters");
            vec![
                label.to_owned(),
                name.clone(),
                format!("{}%", cell(st, "cold_pct")),
                format!("{}%", cell(au, "cold_pct")),
                cell(st, "e2e_p50_us"),
                cell(au, "e2e_p50_us"),
                cell(st, "e2e_p99_us"),
                cell(au, "e2e_p99_us"),
                cell(ctl, "prewarmed_containers"),
                cell(ctl, "keepalive_actions"),
            ]
        })
        .collect()
}

pub fn run(out: &mut Output) -> io::Result<()> {
    let (sim, ac) = autoscaler_ablation_setup();
    out.line("Ablation — trace-driven autoscaler vs static config\n")?;

    let workloads = [("cpu", paper_cpu_workload()), ("io", paper_io_workload())];

    let mut rows = Vec::new();
    let mut combined: Vec<(String, Value)> = Vec::new();
    for (label, w) in &workloads {
        let summary = autoscaler_ablation(w, label, DEFAULT_WINDOW, &sim, &ac);
        rows.extend(rows_for(label, &summary));
        combined.push(((*label).to_owned(), summary));
    }

    out.table(
        &[
            "workload",
            "scheduler",
            "cold% static",
            "cold% auto",
            "p50 static",
            "p50 auto",
            "p99 static",
            "p99 auto",
            "prewarmed",
            "ka actions",
        ],
        &rows,
    )?;
    out.line("Static keep-alive is 2s; the controller extends live functions to 60s")?;
    out.line("and pre-warms up to 4 containers when the cold-start EWMA spikes, so")?;
    out.line("cold% and tail latency drop at the cost of extra provisioned containers.")?;

    let json = json_pretty(&Value::Map(combined))?;
    out.write_file("ablation_autoscaler.json", json + "\n")
}
