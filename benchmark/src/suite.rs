//! The full protocol: every workload, three repetitions, each measurement in
//! a fresh child process of this binary (so set-up time and the resident
//! high-water mark belong to one workload), interleaved W1..W5, W1..W5, ...;
//! a metric's value is the median of its repetitions. The traced runs and
//! the drills, whose numbers do not depend on a fresh process, run once each
//! in this one. Also the perf ledger (`run --out`), the traced run's file,
//! and `selfcheck`.

use crate::compare::{self, Ledger, Row};
use crate::measure::{Measured, RunCtx};
use crate::spec::Spec;
use crate::{drills, sys, Flags, LEDGER_PR, RESULTS_DIR};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Repetitions of every workload in the full protocol (`--quick` runs one).
/// Fixed: the spread rule of `compare` depends on how many there are.
const REPETITIONS: usize = 3;

/// The `workload` column of the drills' rows in the ledger.
const DRILLS: &str = "drills";

/// What one child measurement reported.
struct ChildRun {
    correct: bool,
    digest: Option<String>,
    metrics: BTreeMap<String, f64>,
}

fn field<'a>(value: &'a Value, name: &str) -> Result<&'a Value, String> {
    value.get_field(name).map_err(|e| e.to_string())
}

pub fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

/// Runs one untraced measurement in a child process and parses its last
/// stdout line.
fn run_child(workload: &str, flags: &Flags, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"]);
    if flags.quick {
        command.arg("--quick");
    }
    // `output` waits for the child and collects its pipes.
    let output = command
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("# ")) {
        println!("  [{workload}] {}", &line[2..]);
    }
    let last = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload}: child printed nothing ({})", output.status))?;
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: last line is not a result object: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Value::Map(entries) = field(&result, "metrics")? {
        for (name, entry) in entries {
            let value = number(field(entry, "value")?)
                .ok_or_else(|| format!("{workload}: metric {name} is not a number"))?;
            metrics.insert(name.clone(), value);
        }
    }
    Ok(ChildRun {
        correct: output.status.success() && field(&result, "correct")? == &Value::Bool(true),
        digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("#digest "))
            .map(str::to_owned),
        metrics,
    })
}

fn manifest(flags: &Flags, ctx: &RunCtx, repetitions: usize) -> Value {
    Value::Map(vec![
        ("pr".into(), Value::U64(u64::from(LEDGER_PR))),
        ("commit".into(), Value::Str(sys::git_commit())),
        ("seed".into(), Value::U64(flags.seed)),
        ("seconds".into(), Value::F64(ctx.seconds)),
        ("repetitions".into(), Value::U64(repetitions as u64)),
        ("nproc".into(), Value::U64(sys::nproc() as u64)),
        ("cpu_model".into(), Value::Str(sys::cpu_model())),
        ("rustc".into(), Value::Str(sys::rustc_version())),
        ("calibration_ns".into(), Value::U64(sys::calibration_ns())),
        ("sizing".into(), ctx.sizing.to_value()),
    ])
}

/// Measures every workload [`REPETITIONS`] times (once under `--quick`) and
/// folds the repetitions. Returns the ledger and whether every run was
/// correct.
fn measure_all(spec: &Spec, flags: &Flags) -> Result<(Ledger, bool), String> {
    let seconds = flags.seconds.unwrap_or(if flags.quick {
        1.0
    } else {
        spec.run_seconds as f64
    });
    let repetitions = if flags.quick { 1 } else { REPETITIONS };
    let mut ok = true;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    for rep in 0..repetitions {
        for workload in &spec.workloads {
            println!("repetition {} of {repetitions}: {workload}", rep + 1);
            let run = run_child(workload, flags, seconds)?;
            if !run.correct {
                println!("  [{workload}] FAILED its correctness checks");
                ok = false;
            }
            if let Some(digest) = run.digest {
                let first = digests.entry(workload.clone()).or_insert(digest.clone());
                if *first != digest {
                    println!("  [{workload}] digest {digest} differs from {first}");
                    ok = false;
                }
            }
            for (metric, value) in run.metrics {
                values
                    .entry((workload.clone(), metric))
                    .or_default()
                    .push(value);
            }
        }
    }
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            if let Some(values) = values.remove(&(workload.clone(), metric.name.clone())) {
                rows.push(Row::new(workload, &metric.name, &metric.unit, values));
            }
        }
    }

    let mut per_layer = Vec::new();
    if flags.trace {
        let ctx = flags.run_ctx(seconds, true);
        println!("drills");
        let drill_values = drills::run_all(flags.seed, flags.quick);
        let mut layer_rows = |workload: &str, values: &BTreeMap<String, f64>| {
            for metric in &spec.per_layer {
                if let Some(&value) = values.get(&metric.name) {
                    per_layer.push(Row::new(workload, &metric.name, &metric.unit, vec![value]));
                }
            }
        };
        layer_rows(DRILLS, &drill_values);
        for workload in &spec.workloads {
            println!("traced run: {workload}");
            let (measured, correct) = crate::measure(workload, &ctx)?;
            ok &= correct;
            write_trace_file(workload, &ctx, &measured, &drill_values)?;
            layer_rows(workload, &measured.layer);
        }
    }
    Ok((
        Ledger {
            manifest: manifest(flags, &flags.run_ctx(seconds, false), repetitions),
            end_to_end: rows,
            per_layer,
            digests,
        },
        ok,
    ))
}

fn print_table(ledger: &Ledger) {
    println!(
        "\n{:<20} {:<16} {:>14} {:>14} {:>14}  unit",
        "workload", "metric", "median", "min", "max"
    );
    for row in &ledger.end_to_end {
        println!(
            "{:<20} {:<16} {:>14.4} {:>14.4} {:>14.4}  {}",
            row.workload,
            row.metric,
            row.median(),
            row.min(),
            row.max(),
            row.unit
        );
    }
    for (workload, digest) in &ledger.digests {
        println!("digest of simulated statistics, {workload}: {digest}");
    }
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run` without `--workload`: the full protocol.
pub fn run(spec: &Spec, flags: &Flags) -> Result<ExitCode, String> {
    let (ledger, ok) = measure_all(spec, flags)?;
    print_table(&ledger);
    if flags.out && !flags.quick {
        let path = PathBuf::from(RESULTS_DIR).join(format!("BENCH_{LEDGER_PR}.json"));
        write_json(&path, &ledger.to_value())?;
        println!("wrote {}", path.display());
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `selfcheck`: the full set twice on the same commit, compared with itself
/// under the benchmark's own bounds; written to `noise_<pr>.json`.
pub fn selfcheck(spec: &Spec, flags: &Flags) -> Result<ExitCode, String> {
    println!("selfcheck: first set");
    let (first, ok_first) = measure_all(spec, flags)?;
    println!("selfcheck: second set");
    let (second, ok_second) = measure_all(spec, flags)?;
    let verdicts = compare::judge(spec, &first, &second);
    compare::print_verdicts(&verdicts);
    let any_worse = verdicts
        .iter()
        .any(|v| v.verdict == compare::Verdict::Worse);
    if !flags.quick {
        let path = PathBuf::from(RESULTS_DIR).join(format!("noise_{LEDGER_PR}.json"));
        let value = Value::Map(vec![
            ("manifest".into(), first.manifest.clone()),
            (
                "rows".into(),
                Value::Seq(verdicts.iter().map(compare::RowVerdict::to_value).collect()),
            ),
        ]);
        write_json(&path, &value)?;
        println!("wrote {}", path.display());
    }
    Ok(if ok_first && ok_second && !any_worse {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Writes the traced run's spans, counters and drills to
/// `benchmark/results/trace_<workload>.json`.
pub fn write_trace_file(
    workload: &str,
    ctx: &RunCtx,
    measured: &Measured,
    drills: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let numbers = |map: &BTreeMap<String, f64>| {
        Value::Map(
            map.iter()
                .map(|(name, &value)| (name.clone(), Value::F64(value)))
                .collect(),
        )
    };
    let value = Value::Map(vec![
        ("workload".into(), Value::Str(workload.to_owned())),
        ("seed".into(), Value::U64(ctx.seed)),
        ("seconds".into(), Value::F64(ctx.seconds)),
        ("sizing".into(), ctx.sizing.to_value()),
        ("per_layer".into(), numbers(&measured.layer)),
        ("drills".into(), numbers(drills)),
        (
            "spans".into(),
            measured
                .spans
                .as_ref()
                .map_or(Value::Null, crate::spans::SpanLog::to_value),
        ),
    ]);
    let path = PathBuf::from(RESULTS_DIR).join(format!("trace_{workload}.json"));
    write_json(&path, &value)
}
