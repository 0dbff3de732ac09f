//! Fig. 3 — CDF of blob inter-access time (IaT) for blobs with more than
//! two accesses: fourteen per-day curves plus the consolidated curve.
//!
//! The paper's analysis of the Azure Blob trace finds ≈80 % of re-accesses
//! within 100 ms and ≈90 % within 1 s. We sample the calibrated model per
//! day and print the empirical CDF at the paper's landmark points alongside
//! the model CDF.

use crate::{Output, SEED};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::blob::{empirical_cdf, BlobIatModel};
use std::io;

const DAYS: usize = 14;
const SAMPLES_PER_DAY: usize = 20_000;

fn fraction_below(cdf: &[(SimDuration, f64)], t: SimDuration) -> f64 {
    match cdf.binary_search_by(|&(v, _)| v.cmp(&t)) {
        Ok(i) => cdf[i].1,
        Err(0) => 0.0,
        Err(i) => cdf[i - 1].1,
    }
}

pub fn run(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 3 — CDF of blob inter-access time (14 days + consolidated)\n")?;
    let model = BlobIatModel::azure_fig3();
    let root = DetRng::new(SEED);
    let landmarks = [
        ("10ms", SimDuration::from_millis(10)),
        ("100ms", SimDuration::from_millis(100)),
        ("1s", SimDuration::from_secs(1)),
        ("10s", SimDuration::from_secs(10)),
        ("60s", SimDuration::from_secs(60)),
    ];
    let mut rows = Vec::new();
    let mut all = Vec::new();
    for day in 1..=DAYS {
        let mut rng = root.fork(&format!("day-{day}"));
        let samples: Vec<SimDuration> = (0..SAMPLES_PER_DAY)
            .map(|_| model.sample(&mut rng))
            .collect();
        all.extend_from_slice(&samples);
        let cdf = empirical_cdf(samples);
        let mut row = vec![format!("day {day:2}")];
        for (_, t) in &landmarks {
            row.push(format!("{:.3}", fraction_below(&cdf, *t)));
        }
        rows.push(row);
    }
    let consolidated = empirical_cdf(all);
    let mut row = vec!["consolidated".to_owned()];
    for (_, t) in &landmarks {
        row.push(format!("{:.3}", fraction_below(&consolidated, *t)));
    }
    rows.push(row);
    let mut row = vec!["model".to_owned()];
    for (_, t) in &landmarks {
        row.push(format!("{:.3}", model.cdf(*t)));
    }
    rows.push(row);

    let headers: Vec<&str> = std::iter::once("series")
        .chain(landmarks.iter().map(|(n, _)| *n))
        .collect();
    out.table(&headers, &rows)?;
    out.line("Expected shape: ≈0.80 at 100 ms, ≈0.90 at 1 s, 1.00 at 60 s;")?;
    out.line("per-day curves cluster tightly around the consolidated curve.")?;
    Ok(())
}
