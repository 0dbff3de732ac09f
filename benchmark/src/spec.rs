//! The contract in `BENCHMARK.json`, embedded at build time so the binary
//! and the file cannot name different metrics, workloads or bounds.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(v: &Value, field: &str) -> String {
    match v.get_field(field) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: `{field}` must be a string, got {other:?}"),
    }
}

fn list<'a>(v: &'a Value, field: &str) -> &'a [Value] {
    match v.get_field(field) {
        Ok(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json: `{field}` must be an array, got {other:?}"),
    }
}

fn metric(v: &Value) -> MetricSpec {
    let bound = match v.get_field("bound") {
        Ok(Value::F64(b)) => Some(*b),
        Ok(Value::U64(b)) => Some(*b as f64),
        _ => None,
    };
    MetricSpec {
        name: text(v, "name"),
        unit: text(v, "unit"),
        higher_is_better: text(v, "better") == "higher",
        bound,
    }
}

impl Spec {
    /// Parses the embedded file.
    ///
    /// # Panics
    ///
    /// Panics if the committed `BENCHMARK.json` is malformed — a build-time
    /// input, not user input.
    pub fn load() -> Spec {
        let root: Value =
            serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let run_seconds = match root.get_field("run_seconds") {
            Ok(Value::U64(n)) => *n,
            other => panic!("BENCHMARK.json: run_seconds must be a whole number, got {other:?}"),
        };
        Spec {
            run_seconds,
            workloads: list(&root, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: list(&root, "end_to_end").iter().map(metric).collect(),
            per_layer: list(&root, "per_layer").iter().map(metric).collect(),
        }
    }

    /// The end-to-end metric called `name`.
    pub fn end_to_end_metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
