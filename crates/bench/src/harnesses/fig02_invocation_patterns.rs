//! Fig. 2 — day-long invocation patterns of three hot functions (each
//! invoked more than 1000 times by the same user), showing bursty, tightly
//! time-local behaviour.
//!
//! The real Azure per-function rows are not redistributable; the generator
//! reproduces the published character (diurnal peaks + bursts). Hourly
//! counts and a burstiness factor are printed per function.

use crate::{Output, SEED};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::arrival::{bin_counts, burstiness, day_pattern};
use faasbatch_trace::azure::{hottest_functions, parse_invocations_csv};
use std::io::{self, Write};

/// When `AZURE_INVOCATIONS_CSV` points at a real
/// `invocations_per_function_md.anon.d*.csv`, plot its three hottest
/// functions instead of the synthetic patterns.
fn try_real_trace(out: &mut Output) -> io::Result<bool> {
    let Ok(path) = std::env::var("AZURE_INVOCATIONS_CSV") else {
        return Ok(false);
    };
    let Ok(file) = std::fs::File::open(&path) else {
        eprintln!("cannot open {path}; falling back to synthetic patterns");
        return Ok(false);
    };
    match parse_invocations_csv(file) {
        Err(e) => {
            eprintln!("cannot parse {path}: {e}; falling back to synthetic patterns");
            Ok(false)
        }
        Ok(days) => {
            writeln!(
                out,
                "(using real trace: {path}, {} function rows)\n",
                days.len()
            )?;
            let mut rows = Vec::new();
            for day in hottest_functions(&days, 3) {
                let hourly: Vec<u64> = day
                    .per_minute
                    .chunks(60)
                    .map(|h| h.iter().map(|&c| c as u64).sum())
                    .collect();
                let minute_counts: Vec<usize> =
                    day.per_minute.iter().map(|&c| c as usize).collect();
                rows.push(vec![
                    day.function.chars().take(12).collect::<String>(),
                    day.daily_total().to_string(),
                    format!("{:.1}", burstiness(&minute_counts)),
                    hourly
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                ]);
            }
            out.table(
                &[
                    "function",
                    "daily total",
                    "minute burstiness",
                    "hourly counts (h0..h23)",
                ],
                &rows,
            )?;
            Ok(true)
        }
    }
}

pub fn run(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 2 — invocation patterns of three hot functions over one day\n")?;
    if try_real_trace(out)? {
        return Ok(());
    }
    let rng = DetRng::new(SEED);
    let functions = [
        ("func-A", 2_400usize, vec![9u32, 10, 11]),
        ("func-B", 1_600, vec![14, 15]),
        ("func-C", 1_100, vec![2, 3, 22, 23]),
    ];
    let day = SimDuration::from_secs(24 * 3600);
    let mut rows = Vec::new();
    for (name, total, peaks) in &functions {
        let mut frng = rng.fork(name);
        let arrivals = day_pattern(&mut frng, *total, peaks);
        let hourly = bin_counts(&arrivals, SimDuration::from_secs(3600), day);
        let per_min = bin_counts(&arrivals, SimDuration::from_secs(60), day);
        let mut row = vec![name.to_string(), total.to_string()];
        row.push(format!("{:.1}", burstiness(&per_min)));
        row.push(
            hourly
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        rows.push(row);
    }
    out.table(
        &[
            "function",
            "daily total",
            "minute burstiness",
            "hourly counts (h0..h23)",
        ],
        &rows,
    )?;
    out.line("Expected shape: counts concentrate in each function's peak hours;")?;
    out.line("minute-level burstiness ≫ 1 (tight temporal locality).")?;
    Ok(())
}
