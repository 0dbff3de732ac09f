//! Parsers for the public Azure Functions trace CSV schemas.
//!
//! The paper drives its evaluation from the Azure Functions 2019 dataset
//! (Shahrad et al., ATC'20). The dataset is not redistributable with this
//! repository, so the synthetic generators in [`crate::workload`] reproduce
//! its published statistics — but if you have the CSVs, these parsers load
//! them and [`workload_from_minute`] rebuilds the paper's exact replay
//! methodology (all invocations of one minute, spread uniformly inside it).
//!
//! Supported schemas:
//!
//! * `invocations_per_function_md.anon.d*.csv` —
//!   `HashOwner,HashApp,HashFunction,Trigger,1,2,…,1440` (counts/minute);
//! * `function_durations_percentiles.anon.d*.csv` —
//!   `HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,…`.

use crate::duration::DurationDistribution;
use crate::function::{FunctionKind, FunctionRegistry};
use crate::workload::{Invocation, Workload};
use faasbatch_container::ids::{FunctionId, InvocationId};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read};

/// Errors produced while parsing trace CSVs.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A row had the wrong shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceError::Malformed { line, reason } => {
                write!(f, "malformed trace row at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Minutes in a trace day.
pub const MINUTES_PER_DAY: usize = 1440;

/// Per-function invocation counts for one trace day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionDay {
    /// Anonymised owner hash.
    pub owner: String,
    /// Anonymised app hash.
    pub app: String,
    /// Anonymised function hash.
    pub function: String,
    /// Trigger type (`http`, `queue`, `timer`, …).
    pub trigger: String,
    /// Invocations in each of the day's 1440 minutes.
    pub per_minute: Vec<u32>,
}

impl FunctionDay {
    /// Total invocations across the day.
    pub fn daily_total(&self) -> u64 {
        self.per_minute.iter().map(|&c| c as u64).sum()
    }
}

/// Parses an `invocations_per_function` CSV.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failure or malformed rows.
pub fn parse_invocations_csv<R: Read>(reader: R) -> Result<Vec<FunctionDay>, TraceError> {
    let buf = BufReader::new(reader);
    let mut out = Vec::new();
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        if idx == 0 && line.starts_with("HashOwner") {
            continue; // header
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 4 + 1 {
            return Err(TraceError::Malformed {
                line: idx + 1,
                reason: format!("expected ≥5 fields, got {}", fields.len()),
            });
        }
        let mut per_minute = Vec::with_capacity(fields.len() - 4);
        for (col, f) in fields[4..].iter().enumerate() {
            let v: u32 = f.trim().parse().map_err(|_| TraceError::Malformed {
                line: idx + 1,
                reason: format!("count column {} is not an integer: {f:?}", col + 1),
            })?;
            per_minute.push(v);
        }
        out.push(FunctionDay {
            owner: fields[0].to_owned(),
            app: fields[1].to_owned(),
            function: fields[2].to_owned(),
            trigger: fields[3].to_owned(),
            per_minute,
        });
    }
    Ok(out)
}

/// Per-function execution-duration summary from the durations CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDurations {
    /// Anonymised function hash.
    pub function: String,
    /// Average execution time in ms.
    pub average_ms: f64,
    /// Sample count.
    pub count: u64,
    /// Minimum in ms.
    pub minimum_ms: f64,
    /// Maximum in ms.
    pub maximum_ms: f64,
    /// Percentile anchors `(fraction, ms)` when the CSV carries the
    /// `percentile_Average_*` columns (0/1/25/50/75/99/100), sorted by
    /// fraction; empty otherwise.
    pub percentiles: Vec<(f64, f64)>,
}

impl FunctionDurations {
    /// Samples one execution duration from this function's own profile:
    /// piecewise-linear between the percentile anchors when available,
    /// otherwise the average.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        if self.percentiles.len() < 2 {
            return SimDuration::from_millis_f64(self.average_ms.max(0.1));
        }
        let u = rng.uniform();
        let anchors = &self.percentiles;
        for pair in anchors.windows(2) {
            let (f0, v0) = pair[0];
            let (f1, v1) = pair[1];
            if u <= f1 || (f1 - 1.0).abs() < 1e-12 {
                if f1 <= f0 {
                    return SimDuration::from_millis_f64(v1.max(0.1));
                }
                let t = ((u - f0) / (f1 - f0)).clamp(0.0, 1.0);
                return SimDuration::from_millis_f64((v0 + t * (v1 - v0)).max(0.1));
            }
        }
        SimDuration::from_millis_f64(anchors.last().expect("non-empty").1.max(0.1))
    }
}

/// Parses a `function_durations_percentiles` CSV.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failure or malformed rows.
pub fn parse_durations_csv<R: Read>(reader: R) -> Result<Vec<FunctionDurations>, TraceError> {
    let buf = BufReader::new(reader);
    let mut out = Vec::new();
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        if idx == 0 && line.starts_with("HashOwner") {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 7 {
            return Err(TraceError::Malformed {
                line: idx + 1,
                reason: format!("expected ≥7 fields, got {}", fields.len()),
            });
        }
        let num = |i: usize| -> Result<f64, TraceError> {
            fields[i].trim().parse().map_err(|_| TraceError::Malformed {
                line: idx + 1,
                reason: format!("field {i} is not numeric: {:?}", fields[i]),
            })
        };
        // Optional percentile_Average_{0,1,25,50,75,99,100} columns.
        let mut percentiles = Vec::new();
        if fields.len() >= 14 {
            let fractions = [0.0, 0.01, 0.25, 0.50, 0.75, 0.99, 1.0];
            for (j, &f) in fractions.iter().enumerate() {
                percentiles.push((f, num(7 + j)?));
            }
        }
        out.push(FunctionDurations {
            function: fields[2].to_owned(),
            average_ms: num(3)?,
            count: num(4)? as u64,
            minimum_ms: num(5)?,
            maximum_ms: num(6)?,
            percentiles,
        });
    }
    Ok(out)
}

/// Rebuilds the paper's replay: every invocation of minute `minute`
/// (0-based) across `days`, spread uniformly inside the minute, with
/// durations sampled from the per-function averages (falling back to the
/// Fig. 9 distribution for functions without duration rows).
///
/// # Panics
///
/// Panics if `minute ≥ MINUTES_PER_DAY`.
pub fn workload_from_minute(
    rng: &DetRng,
    days: &[FunctionDay],
    durations: &[FunctionDurations],
    minute: usize,
) -> Workload {
    assert!(minute < MINUTES_PER_DAY, "minute {minute} out of range");
    let mut offsets_rng = rng.fork("azure-offsets");
    let mut durations_rng = rng.fork("azure-durations");
    let by_hash: HashMap<&str, &FunctionDurations> =
        durations.iter().map(|d| (d.function.as_str(), d)).collect();
    let fallback = DurationDistribution::azure_fig9();

    let mut registry = FunctionRegistry::new();
    let mut invocations = Vec::new();
    let mut next_id = 0u64;
    for day in days {
        let count = day.per_minute.get(minute).copied().unwrap_or(0);
        if count == 0 {
            continue;
        }
        let fid: FunctionId = registry.register(
            &day.function,
            FunctionKind::Cpu {
                fib_n: crate::fib::ANCHOR_N,
            },
        );
        for _ in 0..count {
            let offset = offsets_rng.uniform_u64(0, 60_000_000);
            let work = match by_hash.get(day.function.as_str()) {
                Some(d) if d.average_ms > 0.0 => d.sample(&mut durations_rng),
                _ => fallback.sample(&mut durations_rng),
            };
            invocations.push(Invocation {
                id: InvocationId::new(next_id),
                function: fid,
                arrival: SimTime::from_micros(offset),
                work,
            });
            next_id += 1;
        }
    }
    Workload::new(registry, invocations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv_csv() -> String {
        let mut header = String::from("HashOwner,HashApp,HashFunction,Trigger");
        for m in 1..=MINUTES_PER_DAY {
            header.push_str(&format!(",{m}"));
        }
        let mut row1 = String::from("o1,a1,f1,http");
        let mut row2 = String::from("o1,a1,f2,queue");
        for m in 0..MINUTES_PER_DAY {
            row1.push_str(if m == 10 { ",5" } else { ",0" });
            row2.push_str(",1");
        }
        format!("{header}\n{row1}\n{row2}\n")
    }

    #[test]
    fn parses_invocation_counts() {
        let days = parse_invocations_csv(inv_csv().as_bytes()).unwrap();
        assert_eq!(days.len(), 2);
        assert_eq!(days[0].function, "f1");
        assert_eq!(days[0].per_minute.len(), MINUTES_PER_DAY);
        assert_eq!(days[0].daily_total(), 5);
        assert_eq!(days[1].daily_total(), MINUTES_PER_DAY as u64);
    }

    #[test]
    fn malformed_count_is_reported_with_line() {
        let csv = "HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,http,xyz\n";
        let err = parse_invocations_csv(csv.as_bytes()).unwrap_err();
        match err {
            TraceError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn short_row_is_rejected() {
        let err = parse_invocations_csv("a,b,c\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }));
    }

    #[test]
    fn parses_durations() {
        let csv = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n\
                   o,a,f1,120.5,42,1.0,900.0\n";
        let rows = parse_durations_csv(csv.as_bytes()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].function, "f1");
        assert!((rows[0].average_ms - 120.5).abs() < 1e-9);
        assert_eq!(rows[0].count, 42);
    }

    #[test]
    fn parses_percentile_columns_and_samples_between_anchors() {
        let csv = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,                   percentile_Average_0,percentile_Average_1,percentile_Average_25,                   percentile_Average_50,percentile_Average_75,percentile_Average_99,                   percentile_Average_100
                   o,a,f1,120,42,1,900,1,2,40,100,200,800,900
";
        let rows = parse_durations_csv(csv.as_bytes()).unwrap();
        let d = &rows[0];
        assert_eq!(d.percentiles.len(), 7);
        assert_eq!(d.percentiles[0], (0.0, 1.0));
        assert_eq!(d.percentiles[6], (1.0, 900.0));
        let mut rng = DetRng::new(4);
        let mut below_median = 0;
        let n = 4_000;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            let ms = s.as_millis_f64();
            assert!((1.0..=900.0).contains(&ms), "{ms} outside support");
            if ms <= 100.0 {
                below_median += 1;
            }
        }
        let frac = below_median as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "median fraction {frac}");
    }

    #[test]
    fn sample_without_percentiles_uses_average() {
        let d = FunctionDurations {
            function: "f".into(),
            average_ms: 77.0,
            count: 1,
            minimum_ms: 1.0,
            maximum_ms: 99.0,
            percentiles: Vec::new(),
        };
        let mut rng = DetRng::new(1);
        assert_eq!(d.sample(&mut rng), SimDuration::from_millis(77));
    }

    #[test]
    fn minute_replay_counts_and_window() {
        let days = parse_invocations_csv(inv_csv().as_bytes()).unwrap();
        let durations = parse_durations_csv(
            "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\no,a,f1,100,5,1,200\n"
                .as_bytes(),
        )
        .unwrap();
        let w = workload_from_minute(&DetRng::new(1), &days, &durations, 10);
        // f1 contributes 5 (minute 10), f2 contributes 1 (every minute).
        assert_eq!(w.len(), 6);
        assert!(w
            .invocations()
            .iter()
            .all(|i| i.arrival < SimTime::from_secs(60)));
        // f1's invocations take the tabulated average.
        let f1_work: Vec<_> = w
            .invocations()
            .iter()
            .filter(|i| w.registry().profile(i.function).name == "f1")
            .map(|i| i.work)
            .collect();
        assert_eq!(f1_work.len(), 5);
        assert!(f1_work.iter().all(|&d| d == SimDuration::from_millis(100)));
    }

    #[test]
    fn replay_is_deterministic() {
        let days = parse_invocations_csv(inv_csv().as_bytes()).unwrap();
        let a = workload_from_minute(&DetRng::new(9), &days, &[], 10);
        let b = workload_from_minute(&DetRng::new(9), &days, &[], 10);
        assert_eq!(a, b);
    }
}
