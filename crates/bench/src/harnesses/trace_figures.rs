//! The paper's trace figures (§II and §V-A): what the generators behind
//! every replay produce, checked against the published shapes.
//!
//! - Fig. 2: day-long invocation patterns of three hot functions (each
//!   invoked more than 1000 times by the same user). The real Azure
//!   per-function rows are not redistributable; the generator reproduces
//!   the published character (diurnal peaks + bursts), printed as hourly
//!   counts and a minute-level burstiness factor. Real traces replay
//!   through `examples/azure_replay.rs`.
//! - Fig. 3: the CDF of blob inter-access time for blobs with more than
//!   two accesses, fourteen sampled days plus the consolidated curve, at
//!   the paper's landmarks (≈80 % of re-accesses within 100 ms, ≈90 %
//!   within 1 s) beside the model CDF.
//! - Fig. 9: the bucketed Azure duration distribution the workload
//!   generator samples from.
//! - Fig. 10: the arrival pattern of the replayed minute, 800 invocations.
//!
//! Everything it prints is committed as `results/trace_figures.txt`.

use crate::{paper_cpu_workload, Output, SEED};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::arrival::{bin_counts, burstiness, day_pattern};
use faasbatch_trace::blob::{empirical_cdf, BlobIatModel};
use faasbatch_trace::duration::DurationDistribution;
use faasbatch_trace::fib::fib_n_for_duration;
use std::io::{self, Write};

fn fig02(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 2 — invocation patterns of three hot functions over one day\n")?;
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
        let hourly: Vec<String> = hourly.iter().map(usize::to_string).collect();
        rows.push(vec![
            name.to_string(),
            total.to_string(),
            format!("{:.1}", burstiness(&per_min)),
            hourly.join(","),
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
    out.line("Expected shape: counts concentrate in each function's peak hours;")?;
    out.line("minute-level burstiness ≫ 1 (tight temporal locality).")
}

fn fig03(out: &mut Output) -> io::Result<()> {
    const DAYS: usize = 14;
    const SAMPLES_PER_DAY: usize = 20_000;
    fn fraction_below(cdf: &[(SimDuration, f64)], t: SimDuration) -> f64 {
        match cdf.binary_search_by(|&(v, _)| v.cmp(&t)) {
            Ok(i) => cdf[i].1,
            Err(0) => 0.0,
            Err(i) => cdf[i - 1].1,
        }
    }

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
    let row = |series: String, fraction: &dyn Fn(SimDuration) -> f64| {
        let cells = landmarks
            .iter()
            .map(|&(_, t)| format!("{:.3}", fraction(t)));
        std::iter::once(series).chain(cells).collect::<Vec<_>>()
    };
    let mut rows = Vec::new();
    let mut all = Vec::new();
    for day in 1..=DAYS {
        let mut rng = root.fork(&format!("day-{day}"));
        let samples: Vec<SimDuration> = (0..SAMPLES_PER_DAY)
            .map(|_| model.sample(&mut rng))
            .collect();
        all.extend_from_slice(&samples);
        let cdf = empirical_cdf(samples);
        rows.push(row(format!("day {day:2}"), &|t| fraction_below(&cdf, t)));
    }
    let consolidated = empirical_cdf(all);
    rows.push(row("consolidated".to_owned(), &|t| {
        fraction_below(&consolidated, t)
    }));
    rows.push(row("model".to_owned(), &|t| model.cdf(t)));

    let headers: Vec<&str> = std::iter::once("series")
        .chain(landmarks.iter().map(|(n, _)| *n))
        .collect();
    out.table(&headers, &rows)?;
    out.line("Expected shape: ≈0.80 at 100 ms, ≈0.90 at 1 s, 1.00 at 60 s;")?;
    out.line("per-day curves cluster tightly around the consolidated curve.")
}

fn fig09(out: &mut Output) -> io::Result<()> {
    const SAMPLES: usize = 100_000;
    out.line("Fig. 9 — probability distribution of function durations\n")?;
    let dist = DurationDistribution::azure_fig9();
    let mut rng = DetRng::new(SEED);
    let samples: Vec<SimDuration> = (0..SAMPLES).map(|_| dist.sample(&mut rng)).collect();
    let observed = dist.histogram(&samples);
    let mut rows = Vec::new();
    for (bucket, obs) in dist.buckets().iter().zip(&observed) {
        let label = if bucket.hi_ms >= DurationDistribution::TAIL_CAP_MS {
            format!("[{:.0}, inf)", bucket.lo_ms)
        } else {
            format!("[{:.0}, {:.0})", bucket.lo_ms, bucket.hi_ms)
        };
        let mid = SimDuration::from_millis_f64((bucket.lo_ms * bucket.hi_ms).sqrt());
        rows.push(vec![
            label,
            format!("{:.2}%", bucket.probability * 100.0),
            format!("{:.2}%", obs * 100.0),
            format!("fib({})", fib_n_for_duration(mid)),
        ]);
    }
    out.table(
        &[
            "duration (ms)",
            "paper",
            "generated",
            "representative input",
        ],
        &rows,
    )?;
    out.line("Expected shape: generated column matches the paper column within")?;
    out.line("sampling noise; 55.13% of invocations complete in under 50 ms.")
}

fn fig10(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 10 — invocation pattern of the generated workload\n")?;
    let w = paper_cpu_workload();
    let arrivals: Vec<_> = w.invocations().iter().map(|i| i.arrival).collect();
    let per_sec = bin_counts(
        &arrivals,
        SimDuration::from_secs(1),
        SimDuration::from_secs(61),
    );
    let peak = per_sec.iter().copied().max().unwrap_or(0);
    out.line("second : invocations (bar)")?;
    for (s, &c) in per_sec.iter().enumerate() {
        let bar = "#".repeat((c * 60 / peak.max(1)).min(60));
        writeln!(out, "{s:>6} : {c:>4} {bar}")?;
    }
    writeln!(
        out,
        "\ntotal={} span=60s peak={}/s burstiness={:.1}",
        w.len(),
        peak,
        burstiness(&per_sec)
    )?;
    out.line("Expected shape: a handful of sharp spikes over a low background,")?;
    out.line("as in the paper's replay of Azure day 13, 22:10-22:11.")
}

pub fn run(out: &mut Output) -> io::Result<()> {
    let figures: [fn(&mut Output) -> io::Result<()>; 4] = [fig02, fig03, fig09, fig10];
    for (i, figure) in figures.into_iter().enumerate() {
        if i > 0 {
            out.line("")?;
        }
        figure(out)?;
    }
    out.save_text("trace_figures.txt")
}
