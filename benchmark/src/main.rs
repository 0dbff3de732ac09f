//! The repo's benchmark: five workloads, six end-to-end metrics, a per-layer
//! ledger and a traced run. `BENCHMARK.json` at the repo root names the
//! metrics, workloads and bounds; `benchmark/README.md` explains them.
//!
//! ```text
//! run --workload W --seed N --seconds S --trace 0|1   one measurement (what the driver calls)
//! run [--seed N] [--trace 0|1] [--out]                every workload, 3 repetitions, each in a child process
//! run --quick                                         every workload and check at ~1 % size
//! compare A.json B.json                               apply the bounds of BENCHMARK.json row by row
//! selfcheck [--seed N]                                the full set twice, compared with itself
//! ```
//!
//! Exit codes: 0 measured and correct, 1 an output was wrong, 2 bad usage.
//! A run the host disturbed still reports (see `live::paced`): the driver
//! refuses a benchmark one of whose runs prints no result.

mod compare;
mod drills;
mod live;
mod measure;
mod sim_day;
mod sim_six;
mod sizing;
mod spans;
mod spec;
mod stats;
mod suite;
mod sys;

use measure::{Measured, RunCtx};
use serde::Value;
use sizing::Sizing;
use spec::{MetricSpec, Spec};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Directory (relative to the checkout root) the benchmark writes into.
pub const RESULTS_DIR: &str = "benchmark/results";

/// The PR number ledger files are named after.
pub const LEDGER_PR: u32 = 11;

const USAGE: &str = "usage:
  run --workload <name> --seed <n> --seconds <s> --trace <0|1>
  run [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out] [--quick]
  compare <A.json> <B.json>
  selfcheck [--seed <n>] [--seconds <s>]";

/// Flags of the `run` and `selfcheck` subcommands.
#[derive(Debug, Clone)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub out: bool,
    pub quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.to_owned()),
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--out" => flags.out = true,
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

impl Flags {
    /// The inputs of one run of these flags, `seconds` long.
    pub fn run_ctx(&self, seconds: f64, traced: bool) -> RunCtx {
        RunCtx {
            seed: self.seed,
            seconds,
            traced,
            sizing: if self.quick {
                Sizing::quick()
            } else {
                Sizing::full()
            },
        }
    }
}

/// Runs one workload in this process and prints its notes as `#` lines.
/// Returns what it measured and whether its outputs were correct.
pub fn measure(workload: &str, ctx: &RunCtx) -> Result<(Measured, bool), String> {
    let measured = match workload {
        "sim_azure_day" => sim_day::run(ctx),
        "sim_six_contended" => sim_six::run(ctx),
        "live_burst_batched" => live::burst::run(ctx, live::burst::Shape::Batched),
        "live_burst_sparse" => live::burst::run(ctx, live::burst::Shape::Sparse),
        "live_paced_io" => live::paced::run(ctx),
        other => return Err(format!("unknown workload `{other}`")),
    };
    // Invocations per second at the units' reporting quantile, on a clock.
    let reported = |seconds: fn(&measure::Unit) -> f64| {
        let mut per_inv: Vec<f64> = measured
            .units
            .iter()
            .map(|u| seconds(u) / u.completed as f64)
            .collect();
        1.0 / stats::quantile(&mut per_inv, measured.unit_quantile)
    };
    let mut rates: Vec<f64> = measured
        .units
        .iter()
        .map(|u| u.completed as f64 / u.wall_s)
        .collect();
    rates.sort_by(f64::total_cmp);
    if rates.len() > 1 {
        println!(
            "# {} units: {:.0} / {:.0} / {:.0} inv/s (min / median / max)",
            rates.len(),
            rates[0],
            stats::median(&mut rates.clone()),
            rates[rates.len() - 1]
        );
    }
    println!(
        "# reported {:.0} inv/s; on the host's own clock {:.0}",
        reported(|u| u.wall_s),
        reported(|u| u.host_s)
    );
    for note in &measured.notes {
        println!("# {note}");
    }
    for error in &measured.errors {
        println!("# WRONG: {error}");
    }
    let correct = measured.errors.is_empty() && measured.failed == 0;
    Ok((measured, correct))
}

/// The `metrics` object of a result: every metric `specs` names, in order.
/// A per-layer metric the workload does not emit reads 0 — the workload
/// never enters that layer. A name `BENCHMARK.json` does not know is a bug.
fn metric_object(specs: &[MetricSpec], values: &BTreeMap<String, f64>) -> Result<Value, String> {
    if let Some(stray) = values.keys().find(|k| !specs.iter().any(|s| &s.name == *k)) {
        return Err(format!("metric `{stray}` is not named in BENCHMARK.json"));
    }
    Ok(Value::Map(
        specs
            .iter()
            .map(|spec| {
                let value = values.get(&spec.name).copied().unwrap_or(0.0);
                (
                    spec.name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(spec.unit.clone())),
                    ]),
                )
            })
            .collect(),
    ))
}

/// One measurement: notes as `#` lines, the digest of a simulated workload
/// as a `#digest` line for the suite, and the contract's result object as
/// the last line of stdout.
fn run_single(spec: &Spec, flags: &Flags, workload: &str) -> Result<ExitCode, String> {
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json names: {}",
            spec.workloads.join(", ")
        ));
    }
    let seconds = flags.seconds.unwrap_or(spec.run_seconds as f64);
    let ctx = flags.run_ctx(seconds, flags.trace);
    let (mut measured, correct) = measure(workload, &ctx)?;
    let metrics = if flags.trace {
        let drill_values = drills::run_all(flags.seed, flags.quick);
        suite::write_trace_file(workload, &ctx, &measured, &drill_values)?;
        let mut layer = std::mem::take(&mut measured.layer);
        layer.extend(drill_values);
        metric_object(&spec.per_layer, &layer)?
    } else {
        metric_object(&spec.end_to_end, &measured.end_to_end())?
    };
    if let Some(digest) = measured.digest {
        println!("#digest {digest:016x}");
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(measured.attempted.max(1))),
        ("failed".into(), Value::U64(measured.failed)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = parse_flags(&args[1..])?;
            match flags.workload.clone() {
                Some(workload) => run_single(&spec, &flags, &workload),
                None => suite::run(&spec, &flags),
            }
        }
        Some("selfcheck") => suite::selfcheck(&spec, &parse_flags(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(&spec, a, b),
            _ => Err("compare takes two ledger files".to_owned()),
        },
        _ => Err("missing or unknown subcommand".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn quick_ctx(traced: bool) -> RunCtx {
        RunCtx {
            seed: 5,
            seconds: 0.2,
            traced,
            sizing: Sizing::quick(),
        }
    }

    #[test]
    fn every_workload_emits_exactly_the_end_to_end_metrics_of_the_contract() {
        let spec = Spec::load();
        let named: BTreeSet<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert!(named.contains("setup_s"), "the contract requires setup_s");
        for workload in &spec.workloads {
            let (measured, correct) =
                measure(workload, &quick_ctx(false)).expect("workload is known");
            assert!(correct, "{workload}: {:?}", measured.errors);
            let values = measured.end_to_end();
            let emitted: BTreeSet<&str> = values.keys().map(String::as_str).collect();
            assert_eq!(emitted, named, "{workload}");
            for (name, value) in &values {
                assert!(*value > 0.0, "{workload}: {name} must never read 0");
            }
        }
    }

    #[test]
    fn every_per_layer_metric_of_the_contract_is_emitted_by_a_drill_or_a_workload() {
        let spec = Spec::load();
        let named: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        let mut emitted: BTreeSet<String> = drills::run_all(5, true).into_keys().collect();
        for workload in &spec.workloads {
            let (measured, correct) =
                measure(workload, &quick_ctx(true)).expect("workload is known");
            assert!(correct, "{workload}: {:?}", measured.errors);
            assert!(
                measured.spans.is_some(),
                "{workload}: a traced run keeps spans"
            );
            emitted.extend(measured.layer.into_keys());
        }
        assert_eq!(emitted, named);
    }
}
