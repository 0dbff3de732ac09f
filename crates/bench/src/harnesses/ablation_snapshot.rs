//! Ablation — snapshot cache size × restore cost across six schedulers.
//!
//! Sweeps the snapshot-restore tier of DESIGN.md §19 over the paper's CPU
//! workload: cache capacity (0 = tier disabled, the pre-0.9 baseline),
//! restore pricing (fast/default/slow [`RestoreModel`] bands), and the two
//! eviction policies. Every sweep point runs all six schedulers under the
//! same short static keep-alive (2 s, from
//! [`snapshot_ablation_setup`]), so the warm pool churns and the cache has
//! cold starts to absorb — exactly the regime the snapshot tier targets.
//!
//! Writes `results/ablation_snapshot.json`.

use crate::{
    cell, json_pretty, paper_cpu_workload, scheduler_rows, snapshot_ablation,
    snapshot_ablation_setup, Output, DEFAULT_WINDOW,
};
use faasbatch_container::snapshot::{EvictionPolicy, SnapshotConfig};
use faasbatch_container::spec::RestoreModel;
use serde::Value;
use std::io::{self, Write};

/// One sweep point: a display label plus the cache config it installs.
struct SweepPoint {
    label: String,
    snapshot: SnapshotConfig,
}

/// A named restore-pricing band.
fn model(name: &str) -> (String, RestoreModel) {
    let m = match name {
        "fast" => RestoreModel::from_millis_f64(5.0, 20.0, 0.01),
        "default" => Ok(RestoreModel::default()),
        "slow" => RestoreModel::from_millis_f64(50.0, 200.0, 0.10),
        other => panic!("unknown restore band: {other}"),
    }
    .expect("sweep bands are valid by construction");
    (name.to_owned(), m)
}

fn point(capacity: usize, eviction: EvictionPolicy, band: &str) -> SweepPoint {
    let (band_name, model) = model(band);
    let label = if capacity == 0 {
        "off".to_owned()
    } else {
        format!("cap{capacity}/{}/{band_name}", eviction.name())
    };
    SweepPoint {
        label,
        snapshot: SnapshotConfig {
            capacity,
            eviction,
            model,
        },
    }
}

/// The grid: the disabled baseline once, capacity × restore band under
/// LRU, and the eviction-policy comparison on the default band.
fn sweep() -> Vec<SweepPoint> {
    let mut points = vec![point(0, EvictionPolicy::Lru, "default")];
    for band in ["fast", "default", "slow"] {
        for capacity in [2, 4, 8] {
            points.push(point(capacity, EvictionPolicy::Lru, band));
        }
    }
    for capacity in [2, 4, 8] {
        points.push(point(capacity, EvictionPolicy::CostAware, "default"));
    }
    points
}

/// Table rows for one sweep point — vanilla and faasbatch only (the JSON
/// keeps all six schedulers; two rows keep the printed table readable).
fn rows_for(point: &SweepPoint, summary: &Value) -> Vec<Vec<String>> {
    scheduler_rows(summary)
        .iter()
        .filter(|(name, _)| name == "vanilla" || name == "faasbatch")
        .map(|(name, row)| {
            let cache = row.get_field("cache").expect("cache counters");
            vec![
                point.label.clone(),
                name.clone(),
                format!("{}%", cell(row, "cold_pct")),
                format!("{}%", cell(row, "restored_pct")),
                cell(row, "e2e_p50_us"),
                cell(row, "e2e_p99_us"),
                cell(cache, "hits"),
                cell(cache, "evictions"),
            ]
        })
        .collect()
}

pub fn run(out: &mut Output) -> io::Result<()> {
    let base = snapshot_ablation_setup();
    out.line("Ablation — snapshot cache capacity x restore cost, six schedulers\n")?;

    let workload = paper_cpu_workload();
    let points = sweep();

    let mut rows = Vec::new();
    let mut combined: Vec<Value> = Vec::new();
    for point in &points {
        let summary = snapshot_ablation(&workload, "cpu", DEFAULT_WINDOW, &base, &point.snapshot);
        rows.extend(rows_for(point, &summary));
        combined.push(summary);
    }

    out.table(
        &[
            "cache",
            "scheduler",
            "cold%",
            "restored%",
            "e2e p50",
            "e2e p99",
            "hits",
            "evictions",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "Static keep-alive is {}, so warm containers churn between bursts;",
        base.keep_alive
    )?;
    out.line("with the cache off every churned start pays the full boot, while each")?;
    out.line("enabled point converts re-boots into snapshot restores. Larger caches")?;
    out.line("and cheaper restore bands shift more cold mass into the restore tier;")?;
    out.line("cost-aware eviction protects the heaviest boots when slots run out.")?;

    let json = json_pretty(&Value::Seq(combined))?;
    out.write_file("ablation_snapshot.json", json + "\n")
}
