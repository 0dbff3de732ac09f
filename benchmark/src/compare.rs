//! Ledgers and their comparison: `compare A.json B.json` applies the bounds
//! of `BENCHMARK.json` to every (metric, workload) row and says `ok`,
//! `worse`, or `unresolved` when the repetitions spread wider than the bound
//! — a row that noisy cannot be called unchanged.

use crate::spec::Spec;
use crate::stats::{median, spread_share};
use crate::suite::number;
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One (workload, metric) row: the values of its repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub values: Vec<f64>,
}

impl Row {
    pub fn new(workload: &str, metric: &str, unit: &str, values: Vec<f64>) -> Row {
        Row {
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            unit: unit.to_owned(),
            values,
        }
    }

    pub fn median(&self) -> f64 {
        median(&mut self.values.clone())
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Distance between the first and third quartile of the repetitions as a
    /// share of their median — the driver's spread rule. With three
    /// repetitions the quartiles are the extremes; one repetition has none.
    pub fn spread(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        spread_share(&mut self.values.clone())
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("metric".into(), Value::Str(self.metric.clone())),
            ("unit".into(), Value::Str(self.unit.clone())),
            ("median".into(), Value::F64(self.median())),
            ("min".into(), Value::F64(self.min())),
            ("max".into(), Value::F64(self.max())),
            (
                "values".into(),
                Value::Seq(self.values.iter().map(|&v| Value::F64(v)).collect()),
            ),
        ])
    }

    fn from_value(value: &Value) -> Result<Row, String> {
        let text = |name: &str| match value.get_field(name) {
            Ok(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("ledger row lacks a string `{name}`")),
        };
        let values = match value.get_field("values") {
            Ok(Value::Seq(items)) => items.iter().filter_map(number).collect::<Vec<f64>>(),
            _ => return Err("ledger row lacks `values`".to_owned()),
        };
        if values.is_empty() {
            return Err("ledger row has no values".to_owned());
        }
        Ok(Row {
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            values,
        })
    }
}

/// One perf-ledger file (`BENCH_<pr>.json`).
#[derive(Debug, Clone)]
pub struct Ledger {
    pub manifest: Value,
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
    pub digests: BTreeMap<String, String>,
}

impl Ledger {
    pub fn to_value(&self) -> Value {
        let rows = |rows: &[Row]| Value::Seq(rows.iter().map(Row::to_value).collect());
        Value::Map(vec![
            ("manifest".into(), self.manifest.clone()),
            ("end_to_end".into(), rows(&self.end_to_end)),
            ("per_layer".into(), rows(&self.per_layer)),
            (
                "digests".into(),
                Value::Map(
                    self.digests
                        .iter()
                        .map(|(w, d)| (w.clone(), Value::Str(d.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    fn load(path: &str) -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let root: Value =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
        let rows = |name: &str| -> Result<Vec<Row>, String> {
            match root.get_field(name) {
                Ok(Value::Seq(items)) => items.iter().map(Row::from_value).collect(),
                _ => Err(format!("{path} lacks `{name}`")),
            }
        };
        Ok(Ledger {
            manifest: root.get_field("manifest").cloned().unwrap_or(Value::Null),
            end_to_end: rows("end_to_end")?,
            per_layer: rows("per_layer").unwrap_or_default(),
            digests: BTreeMap::new(),
        })
    }
}

/// The judgement on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The repetitions of A or B spread wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowVerdict {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub bound: f64,
    pub a_median: f64,
    pub b_median: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' repetition spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

impl RowVerdict {
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("metric".into(), Value::Str(self.metric.clone())),
            ("unit".into(), Value::Str(self.unit.clone())),
            ("bound".into(), Value::F64(self.bound)),
            ("a_median".into(), Value::F64(self.a_median)),
            ("b_median".into(), Value::F64(self.b_median)),
            ("worse_by".into(), Value::F64(self.worse_by)),
            ("spread".into(), Value::F64(self.spread)),
            ("verdict".into(), Value::Str(self.verdict.name().to_owned())),
        ])
    }
}

/// Set-up takes a fraction of a second, where a scheduling hiccup is a large
/// share: `setup_s` may worsen by its bound or by this many seconds,
/// whichever is larger.
const SETUP_FLOOR_S: f64 = 0.05;

/// Judges one row pair under `bound`, a share of A's median, or under
/// `floor`, an amount in the metric's unit, whichever allows more.
pub fn judge_row(a: &Row, b: &Row, bound: f64, floor: f64, higher_is_better: bool) -> RowVerdict {
    let (a_median, b_median) = (a.median(), b.median());
    let bound = if a_median == 0.0 {
        bound
    } else {
        bound.max(floor / a_median.abs())
    };
    let change = if a_median == 0.0 {
        0.0
    } else {
        (b_median - a_median) / a_median.abs()
    };
    let worse_by = if higher_is_better { -change } else { change };
    let spread = a.spread().max(b.spread());
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    RowVerdict {
        workload: a.workload.clone(),
        metric: a.metric.clone(),
        unit: a.unit.clone(),
        bound,
        a_median,
        b_median,
        worse_by,
        spread,
        verdict,
    }
}

/// Every end-to-end row present in both ledgers, judged under its bound.
pub fn judge(spec: &Spec, a: &Ledger, b: &Ledger) -> Vec<RowVerdict> {
    a.end_to_end
        .iter()
        .filter_map(|row_a| {
            let row_b = b
                .end_to_end
                .iter()
                .find(|r| r.workload == row_a.workload && r.metric == row_a.metric)?;
            let metric = spec.end_to_end_metric(&row_a.metric)?;
            let floor = if metric.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            Some(judge_row(
                row_a,
                row_b,
                metric.bound.unwrap_or(0.0),
                floor,
                metric.higher_is_better,
            ))
        })
        .collect()
}

pub fn print_verdicts(verdicts: &[RowVerdict]) {
    println!(
        "\n{:<20} {:<16} {:>13} {:>13} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for v in verdicts {
        println!(
            "{:<20} {:<16} {:>13.4} {:>13.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
            v.workload,
            v.metric,
            v.a_median,
            v.b_median,
            v.worse_by * 100.0,
            v.spread * 100.0,
            v.bound * 100.0,
            v.verdict.name()
        );
    }
}

/// `compare A.json B.json`.
pub fn run(spec: &Spec, a: &str, b: &str) -> Result<ExitCode, String> {
    let verdicts = judge(spec, &Ledger::load(a)?, &Ledger::load(b)?);
    if verdicts.is_empty() {
        return Err("the two ledgers share no end-to-end row".to_owned());
    }
    print_verdicts(&verdicts);
    let worse = verdicts
        .iter()
        .filter(|v| v.verdict == Verdict::Worse)
        .count();
    let unresolved = verdicts
        .iter()
        .filter(|v| v.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        verdicts.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[f64]) -> Row {
        Row::new("w", "m", "u", values.to_vec())
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        // Lower is better, bound 10 %: +5 % is ok, +20 % is worse.
        let a = row(&[100.0, 101.0, 99.0]);
        assert_eq!(
            judge_row(&a, &row(&[105.0, 104.0, 106.0]), 0.1, 0.0, false).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge_row(&a, &row(&[120.0, 119.0, 121.0]), 0.1, 0.0, false).verdict,
            Verdict::Worse
        );
        // Higher is better: the same +20 % is an improvement, -20 % is worse.
        assert_eq!(
            judge_row(&a, &row(&[120.0, 119.0, 121.0]), 0.1, 0.0, true).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge_row(&a, &row(&[80.0, 79.0, 81.0]), 0.1, 0.0, true).verdict,
            Verdict::Worse
        );
        // Repetitions 30 % apart cannot resolve a 10 % bound either way.
        assert_eq!(
            judge_row(&a, &row(&[90.0, 100.0, 120.0]), 0.1, 0.0, false).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_absolute_floor_widens_the_bound_of_a_small_median() {
        // 0.10 s -> 0.14 s is +40 %: worse under 25 %, ok with 0.05 s of slack.
        let a = row(&[0.10, 0.10, 0.10]);
        let b = row(&[0.14, 0.14, 0.14]);
        assert_eq!(judge_row(&a, &b, 0.25, 0.0, false).verdict, Verdict::Worse);
        let floored = judge_row(&a, &b, 0.25, 0.05, false);
        assert_eq!(floored.verdict, Verdict::Ok);
        assert!((floored.bound - 0.5).abs() < 1e-12);
        // On a 1 s median the share is the larger of the two.
        let slow = judge_row(&row(&[1.0]), &row(&[1.2]), 0.25, 0.05, false);
        assert_eq!(slow.bound, 0.25);
    }

    #[test]
    fn ledger_rows_round_trip_through_json() {
        let original = row(&[1.5, 2.5, 3.5]);
        let json = serde_json::to_string(&original.to_value()).unwrap();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(Row::from_value(&parsed).unwrap(), original);
    }
}
