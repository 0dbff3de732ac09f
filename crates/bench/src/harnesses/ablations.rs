//! The ablations beyond the paper, as data: each table is a list of
//! labelled runs and a list of columns, and every distinct run — workload,
//! scheduler, keep-alive — is simulated once however many tables read it.
//!
//! - multiplexer: FaaSBatch with the Resource Multiplexer on and off on
//!   the I/O workload across the Fig. 13/14 intervals, isolating
//!   Implication 2 (§II-B) from the batching benefit;
//! - group cap: capping FaaSBatch's group size; a cap of 1 is window
//!   batching without expansion, `none` the paper's strategy;
//! - window sweep: 1 ms – 2 s, beyond the paper's 0.01–0.5 s;
//! - keep-alive: the warm-pool TTL, for FaaSBatch and Vanilla;
//! - early return: the paper's prototype answers a group's request only
//!   after all its invocations finish, and leaves early return as future
//!   work;
//! - Kraken prediction: lazy provisioning, the paper's oracle ("100 %-
//!   accurate predicted workload") and the original EWMA;
//! - heterogeneity: distinct per-function duration profiles instead of
//!   one global distribution;
//! - mixed workload: both replays merged, the classes interfering.
//!
//! Everything it prints is committed as `results/ablations.txt`.

use crate::{
    paper_cpu_workload, paper_io_workload, report_table, Column, Output, CONTAINERS, CPU_UTIL,
    DEFAULT_WINDOW, DISPATCH_INTERVALS_MS, E2E_MEAN, EXEC_P50, EXEC_QUEUE_P99, INV_PER_CONTAINER,
    MB, MB_PER_REQUEST, SCHEDULER, SCHED_P99, SEED, SUMMARY,
};
use faasbatch_core::policy::{FaasBatchConfig, FaasBatchPolicy};
use faasbatch_metrics::report::{percent_reduction, RunReport};
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::run_simulation;
use faasbatch_schedulers::kraken::{Kraken, KrakenCalibration, KrakenPrediction, OraclePattern};
use faasbatch_schedulers::policy::Policy;
use faasbatch_schedulers::sfs::Sfs;
use faasbatch_schedulers::vanilla::Vanilla;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::{cpu_workload, Workload, WorkloadConfig};
use std::io::{self, Write};

const COLD: Column = ("cold %", |r| format!("{:.1}", r.cold_fraction() * 100.0));
const COLD_WITH_SIGN: Column = ("cold %", |r| format!("{:.1}%", r.cold_fraction() * 100.0));
const SCHED_MEAN: Column = ("sched mean", |r| r.scheduling_cdf().mean().to_string());
const EXEC_P99: Column = ("exec p99", |r| r.execution_cdf().quantile(0.99).to_string());
const E2E_P50: Column = ("e2e p50", |r| r.end_to_end_cdf().quantile(0.5).to_string());
const E2E_P99: Column = ("e2e p99", |r| r.end_to_end_cdf().quantile(0.99).to_string());
const CLIENTS: Column = ("clients created", |r| r.clients_created.to_string());
const MEMORY: Column = ("mem mean (MB)", |r| {
    format!("{:.0}", r.mean_memory_bytes() / MB)
});

/// A workload the ablations replay.
#[derive(Clone, Copy, PartialEq)]
enum Load {
    Cpu,
    Io,
    /// The CPU workload with per-function duration heterogeneity 2.
    Hetero,
    /// Both replays merged.
    Mixed,
}

/// A scheduler the ablations run.
#[derive(Clone, PartialEq)]
enum Scheduler {
    Vanilla,
    Sfs,
    /// Kraken, calibrated from Vanilla's run of the same load and keep-alive.
    Kraken(KrakenPrediction),
    FaasBatch(FaasBatchConfig),
}

/// One simulation. Runs that compare equal are simulated once.
#[derive(Clone, PartialEq)]
struct Run {
    load: Load,
    scheduler: Scheduler,
    keep_alive: SimDuration,
}

impl Run {
    /// `scheduler` on `load` at the default keep-alive.
    fn new(load: Load, scheduler: Scheduler) -> Self {
        let keep_alive = SimConfig::default().keep_alive;
        Run {
            load,
            scheduler,
            keep_alive,
        }
    }
}

/// One printed table: a title, label columns, then one row per run.
struct Table {
    title: String,
    labels: &'static [&'static str],
    columns: &'static [Column],
    rows: Vec<(Vec<String>, Run)>,
    /// A line derived from the rows' reports, printed under the table.
    footer: Option<fn(&[&RunReport]) -> String>,
    /// What the table should show, printed last ("" for nothing).
    expected: &'static str,
}

/// The ablations' workloads and every run simulated so far.
struct Runs {
    workloads: [Workload; 4],
    done: Vec<(Run, RunReport)>,
}

impl Runs {
    fn new() -> Self {
        let hetero = WorkloadConfig {
            heterogeneity: 2.0,
            ..WorkloadConfig::default()
        };
        Runs {
            workloads: [
                paper_cpu_workload(),
                paper_io_workload(),
                cpu_workload(&DetRng::new(SEED), &hetero),
                paper_cpu_workload().merge(paper_io_workload()),
            ],
            done: Vec::new(),
        }
    }

    fn workload(&self, load: Load) -> &Workload {
        &self.workloads[load as usize]
    }

    /// The report of a run already simulated.
    fn report(&self, run: &Run) -> &RunReport {
        let done = self.done.iter().find(|(r, _)| r == run);
        &done.expect("the run was simulated").1
    }

    /// Simulates `run` unless it already was.
    fn simulate(&mut self, run: &Run) {
        if self.done.iter().any(|(r, _)| r == run) {
            return;
        }
        let (policy, window): (Box<dyn Policy>, _) = match &run.scheduler {
            Scheduler::Vanilla => (Box::new(Vanilla::new()), None),
            Scheduler::Sfs => (Box::new(Sfs::new()), None),
            Scheduler::Kraken(prediction) => {
                let vanilla = Run {
                    scheduler: Scheduler::Vanilla,
                    ..run.clone()
                };
                self.simulate(&vanilla);
                let calibration = KrakenCalibration::from_vanilla(self.report(&vanilla));
                let kraken = Kraken::new(calibration, DEFAULT_WINDOW);
                let kraken = kraken.with_prediction(prediction.clone());
                (Box::new(kraken), Some(DEFAULT_WINDOW))
            }
            Scheduler::FaasBatch(cfg) => (
                Box::new(FaasBatchPolicy::new(cfg.clone())),
                Some(cfg.window),
            ),
        };
        let sim = SimConfig {
            keep_alive: run.keep_alive,
            ..SimConfig::default()
        };
        let label = ["cpu", "io", "cpu-hetero", "mixed"][run.load as usize];
        let report = run_simulation(policy, self.workload(run.load), sim, label, window);
        self.done.push((run.clone(), report));
    }
}

fn faasbatch(load: Load, cfg: FaasBatchConfig) -> Run {
    Run::new(load, Scheduler::FaasBatch(cfg))
}

/// The paper's four schedulers on `load`, unlabelled.
fn paper_four(load: Load) -> Vec<(Vec<String>, Run)> {
    [
        Scheduler::Vanilla,
        Scheduler::Sfs,
        Scheduler::Kraken(KrakenPrediction::Lazy),
        Scheduler::FaasBatch(FaasBatchConfig::default()),
    ]
    .map(|scheduler| (Vec::new(), Run::new(load, scheduler)))
    .into()
}

/// Every ablation table, in print order.
fn plan(runs: &Runs) -> Vec<Table> {
    use Load::{Cpu, Hetero, Io, Mixed};
    let n = |load| runs.workload(load).len();
    let (cpu, io) = (n(Cpu), n(Io));
    let label = |cells: &[&str]| cells.iter().map(|c| c.to_string()).collect::<Vec<_>>();
    let mut tables = vec![
        Table {
            title: format!(
                "Ablation — Resource Multiplexer on/off, I/O workload ({io} invocations)\n"
            ),
            labels: &["interval", "multiplexer"],
            columns: &[
                EXEC_P50,
                EXEC_P99,
                E2E_MEAN,
                CLIENTS,
                MB_PER_REQUEST,
                MEMORY,
            ],
            rows: DISPATCH_INTERVALS_MS
                .iter()
                .flat_map(|&ms| {
                    [(true, "on"), (false, "off")].map(|(multiplex, name)| {
                        let cfg = FaasBatchConfig {
                            window: SimDuration::from_millis(ms),
                            multiplex,
                            ..FaasBatchConfig::default()
                        };
                        let interval = format!("{:.2}s", ms as f64 / 1e3);
                        (label(&[&interval, name]), faasbatch(Io, cfg))
                    })
                })
                .collect(),
            footer: None,
            expected: "Expected: with the multiplexer off, every invocation builds its own\n\
                       client — execution latency and per-request client memory jump, and\n\
                       mean memory rises with them.",
        },
        Table {
            title: format!("Ablation — group-size cap, CPU workload ({cpu} invocations)\n"),
            labels: &["group cap"],
            columns: &[
                CONTAINERS,
                INV_PER_CONTAINER,
                SCHED_P99,
                E2E_MEAN,
                MEMORY,
                CPU_UTIL,
            ],
            rows: [
                (Some(1), "1 (no expansion)"),
                (Some(4), "4"),
                (Some(16), "16"),
                (Some(64), "64"),
                (None, "none (paper)"),
            ]
            .map(|(max_group_size, name)| {
                let cfg = FaasBatchConfig {
                    max_group_size,
                    ..FaasBatchConfig::default()
                };
                (label(&[name]), faasbatch(Cpu, cfg))
            })
            .into(),
            footer: None,
            expected: "Expected: containers and memory fall monotonically as the cap rises;\n\
                       cap=1 approaches Vanilla-like provisioning despite the batch window.",
        },
    ];
    for (load, name) in [(Cpu, "cpu"), (Io, "io")] {
        tables.push(Table {
            title: format!(
                "Ablation — window sweep, {name} workload ({} invocations)\n",
                n(load)
            ),
            labels: &["window"],
            columns: &[CONTAINERS, SCHED_MEAN, E2E_MEAN, E2E_P99, MEMORY],
            rows: [1, 5, 20, 50, 100, 200, 500, 2000]
                .map(|ms| {
                    let cfg = FaasBatchConfig::with_window(SimDuration::from_millis(ms));
                    (label(&[&format!("{ms}ms")]), faasbatch(load, cfg))
                })
                .into(),
            footer: None,
            expected: match load {
                Io => {
                    "Expected: containers/memory fall as the window grows. Mean scheduling\n\
                     latency is lowest at 50-100 ms; from 0.2 s up it rises ~window/2, and\n\
                     below 50 ms it rises again as the window shrinks."
                }
                _ => "",
            },
        });
    }
    tables.push(Table {
        title: format!("Ablation — keep-alive TTL, CPU workload ({cpu} invocations)\n"),
        labels: &["ttl"],
        columns: &[SCHEDULER, CONTAINERS, COLD_WITH_SIGN, E2E_MEAN, MEMORY],
        rows: [2, 10, 60, 600]
            .into_iter()
            .flat_map(|ttl| {
                let schedulers = [
                    Scheduler::Vanilla,
                    Scheduler::FaasBatch(FaasBatchConfig::default()),
                ];
                schedulers.map(|scheduler| {
                    let run = Run {
                        load: Cpu,
                        scheduler,
                        keep_alive: SimDuration::from_secs(ttl),
                    };
                    (label(&[&format!("{ttl}s")]), run)
                })
            })
            .collect(),
        footer: None,
        expected: "Expected: short TTLs multiply cold starts, and memory with them:\n\
                   expired containers are never reaped, so each re-boot adds one.\n\
                   FaaSBatch's latency is far less TTL-sensitive because one container\n\
                   absorbs a whole burst.",
    });
    let workloads = [(Cpu, "cpu"), (Io, "io")];
    tables.push(Table {
        title: "Ablation — batch-granularity vs early-return responses\n".to_owned(),
        labels: &["workload", "responses"],
        columns: &[E2E_P50, E2E_MEAN, E2E_P99, EXEC_QUEUE_P99, CONTAINERS],
        rows: workloads
            .iter()
            .flat_map(|&(load, name)| {
                [(true, "per-batch (paper)"), (false, "early return")].map(
                    |(batch_responses, responses)| {
                        let cfg = FaasBatchConfig {
                            batch_responses,
                            ..FaasBatchConfig::default()
                        };
                        (label(&[name, responses]), faasbatch(load, cfg))
                    },
                )
            })
            .collect(),
        footer: None,
        expected: "Expected: early return cuts p50/mean (short members stop waiting for\n\
                   the group's stragglers), and on CPU the p99 too, while the container\n\
                   count is unchanged — resources depend on batching, not on when\n\
                   responses are released.",
    });
    tables.push(Table {
        title: "Ablation — Kraken prediction modes\n".to_owned(),
        labels: &["workload", "prediction"],
        columns: &[CONTAINERS, COLD, E2E_MEAN, EXEC_QUEUE_P99, MEMORY],
        rows: workloads
            .iter()
            .flat_map(|&(load, name)| {
                let oracle = OraclePattern::from_workload(runs.workload(load), DEFAULT_WINDOW);
                [
                    ("lazy", KrakenPrediction::Lazy),
                    ("oracle", KrakenPrediction::Oracle(oracle)),
                    ("ewma a=0.3", KrakenPrediction::Ewma { alpha: 0.3 }),
                    ("ewma a=0.8", KrakenPrediction::Ewma { alpha: 0.8 }),
                ]
                .map(|(mode, prediction)| {
                    let run = Run::new(load, Scheduler::Kraken(prediction));
                    (label(&[name, mode]), run)
                })
            })
            .collect(),
        footer: None,
        expected: "Expected: the oracle pre-warms ahead of each spike (fewer cold\n\
                   invocations than lazy, more provisioned containers and memory); EWMA,\n\
                   late on bursty traffic, provisions more than the oracle for no more\n\
                   cold-start saving at a=0.3 and a little more at a=0.8 — the\n\
                   pattern-sensitivity the paper calls out.",
    });
    for (h, load) in [(0, Cpu), (2, Hetero)] {
        let functions = runs.workload(load).registry().len();
        tables.push(Table {
            title: format!(
                "=== heterogeneity {h} ({} invocations, {functions} functions) ===",
                n(load)
            ),
            labels: &[],
            columns: &SUMMARY,
            rows: paper_four(load),
            footer: None,
            expected: match load {
                Hetero => {
                    "Expected: the FaaSBatch-first ordering is unchanged (fewest containers,\n\
                     lowest mean latency); distinct profiles cost every scheduler some mean\n\
                     latency, FaaSBatch included."
                }
                _ => "",
            },
        });
    }
    tables.push(Table {
        title: format!(
            "Ablation — mixed workload ({} invocations: {cpu} cpu + {io} io)\n",
            n(Mixed)
        ),
        labels: &[],
        columns: &SUMMARY,
        rows: paper_four(Mixed),
        footer: Some(|four| {
            let [vanilla, faasbatch] = [four[0], four[3]];
            let cut = |metric: fn(&RunReport) -> f64| {
                percent_reduction(metric(vanilla), metric(faasbatch))
            };
            format!(
                "FaaSBatch vs Vanilla under interference: latency −{:.1}%, containers −{:.1}%, \
                 memory −{:.1}%",
                cut(|r| r.end_to_end_cdf().mean().as_secs_f64()),
                cut(|r| r.provisioned_containers as f64),
                cut(RunReport::mean_memory_bytes),
            )
        }),
        expected: "\nExpected: FaaSBatch keeps the fewest containers, the lowest latency and\n\
                   the least memory — batching and multiplexing are per-function, so mixing\n\
                   classes does not dilute them.",
    });
    tables
}

pub fn run(out: &mut Output) -> io::Result<()> {
    let mut runs = Runs::new();
    // A blank line before each ablation but the first; an ablation's
    // tables but the last print no expected text.
    let mut gap = false;
    for table in plan(&runs) {
        for (_, run) in &table.rows {
            runs.simulate(run);
        }
        let reports: Vec<&RunReport> = table.rows.iter().map(|(_, r)| runs.report(r)).collect();
        let rows = table.rows.iter().zip(&reports);
        let rows = rows.map(|((labels, _), report)| (labels.clone(), *report));
        if gap {
            out.line("")?;
        }
        gap = !table.expected.is_empty();
        writeln!(out, "{}", table.title)?;
        writeln!(out, "{}", report_table(table.labels, table.columns, rows))?;
        if let Some(footer) = table.footer {
            writeln!(out, "{}", footer(&reports))?;
        }
        if !table.expected.is_empty() {
            out.line(table.expected)?;
        }
    }
    out.save_text("ablations.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    type Metric = fn(&RunReport) -> f64;

    /// The tables read 61 rows, plus the Vanilla runs two Kraken rows are
    /// calibrated from; 52 of them are distinct simulations.
    #[test]
    fn each_distinct_run_is_simulated_once() {
        let tables = plan(&Runs::new());
        let rows: Vec<&Run> = tables
            .iter()
            .flat_map(|t| &t.rows)
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rows.len(), 61);
        let mut distinct: Vec<Run> = Vec::new();
        for run in rows {
            let calibration = matches!(run.scheduler, Scheduler::Kraken(_)).then(|| Run {
                scheduler: Scheduler::Vanilla,
                ..run.clone()
            });
            for run in calibration.into_iter().chain([run.clone()]) {
                if !distinct.contains(&run) {
                    distinct.push(run);
                }
            }
        }
        assert_eq!(distinct.len(), 52);
    }

    /// The claims the printed "Expected" texts make, checked against the
    /// rows above them: a re-baseline that breaks one must rewrite its text.
    #[test]
    fn the_printed_expectations_hold() {
        let mut runs = Runs::new();
        let tables = plan(&runs);
        for (_, run) in tables.iter().flat_map(|t| &t.rows) {
            runs.simulate(run);
        }
        let column = |title: &str, metric: Metric| -> Vec<f64> {
            let table = tables.iter().find(|t| t.title.starts_with(title));
            let rows = &table.expect(title).rows;
            rows.iter()
                .map(|(_, run)| metric(runs.report(run)))
                .collect()
        };
        let containers: Metric = |r| r.provisioned_containers as f64;
        let memory: Metric = RunReport::mean_memory_bytes;
        let cold: Metric = RunReport::cold_fraction;
        let e2e_mean: Metric = |r| r.end_to_end_cdf().mean().as_secs_f64();
        let falls = |v: &[f64]| v.windows(2).all(|p| p[1] < p[0]);
        let never_rises = |v: &[f64]| v.windows(2).all(|p| p[1] <= p[0]);
        let rises = |v: &[f64]| v.windows(2).all(|p| p[1] > p[0]);

        // Rows alternate multiplexer on, off over the four intervals.
        let title = "Ablation — Resource Multiplexer";
        let clients = column(title, |r| r.clients_created as f64);
        let exec_p50 = column(title, |r| r.execution_cdf().quantile(0.5).as_secs_f64());
        let per_request = column(title, RunReport::client_memory_per_request);
        let mem = column(title, memory);
        for on in (0..clients.len()).step_by(2) {
            assert_eq!(clients[on + 1], 400.0);
            assert!(exec_p50[on + 1] > exec_p50[on] && mem[on + 1] > mem[on]);
            assert!(per_request[on + 1] > per_request[on]);
        }

        let title = "Ablation — group-size cap";
        assert!(never_rises(&column(title, containers)));
        assert!(never_rises(&column(title, memory)));

        for title in [
            "Ablation — window sweep, cpu",
            "Ablation — window sweep, io",
        ] {
            assert!(never_rises(&column(title, containers)), "{title}");
            assert!(never_rises(&column(title, memory)), "{title}");
            let sched = column(title, |r| r.scheduling_cdf().mean().as_secs_f64());
            let windows = [0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 2.0];
            assert!(falls(&sched[..4]), "{title}: falls to 50 ms");
            let least = sched.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(least == sched[3] || least == sched[4], "{title}");
            for (s, w) in sched.iter().zip(windows).skip(5) {
                assert!(*s > 0.4 * w && *s < 0.7 * w, "{title}: {s} at {w}");
            }
        }

        // Rows alternate Vanilla, FaaSBatch over TTLs 2, 10, 60, 600 s.
        let title = "Ablation — keep-alive TTL";
        for metric in [cold, memory] {
            let v = column(title, metric);
            for scheduler in 0..2 {
                let v: Vec<f64> = v.iter().skip(scheduler).step_by(2).copied().collect();
                assert!(falls(&v[..3]) && v[2] == v[3], "{title}");
            }
        }
        let e2e = column(title, e2e_mean);
        assert!(
            e2e[1] / e2e[7] * 3.0 < e2e[0] / e2e[6],
            "FaaSBatch is less TTL-sensitive"
        );

        // Rows: cpu per-batch, cpu early, io per-batch, io early.
        let title = "Ablation — batch-granularity";
        let p50 = column(title, |r| r.end_to_end_cdf().quantile(0.5).as_secs_f64());
        let p99 = column(title, |r| r.end_to_end_cdf().quantile(0.99).as_secs_f64());
        let (mean, count) = (column(title, e2e_mean), column(title, containers));
        for batch in [0, 2] {
            assert!(p50[batch + 1] < p50[batch] && mean[batch + 1] < mean[batch]);
            assert_eq!(count[batch + 1], count[batch]);
        }
        assert!(p99[1] < p99[0], "the CPU p99 falls too");

        // Rows per workload: lazy, oracle, EWMA 0.3, EWMA 0.8.
        let title = "Ablation — Kraken prediction";
        let (colds, count) = (column(title, cold), column(title, containers));
        let mem = column(title, memory);
        for w in [0, 4] {
            assert!(rises(&count[w..w + 4]) && rises(&mem[w..w + 4]));
            let [lazy, oracle, ewma_low, ewma_high] = [0, 1, 2, 3].map(|i| colds[w + i]);
            assert!(oracle < lazy && ewma_low >= oracle && ewma_high < oracle);
        }

        // Paper-four tables: FaaSBatch (the last row) provisions least,
        // answers fastest and, mixed, holds the least memory.
        let tables: [(&str, &[Metric]); 3] = [
            ("=== heterogeneity 0", &[containers, e2e_mean]),
            ("=== heterogeneity 2", &[containers, e2e_mean]),
            ("Ablation — mixed", &[containers, e2e_mean, memory]),
        ];
        for (title, metrics) in tables {
            for &metric in metrics {
                let v = column(title, metric);
                assert!(v[..3].iter().all(|&baseline| v[3] < baseline), "{title}");
            }
        }
        // Heterogeneity costs every scheduler mean latency.
        let flat = column("=== heterogeneity 0", e2e_mean);
        let hetero = column("=== heterogeneity 2", e2e_mean);
        assert!(flat.iter().zip(&hetero).all(|(f, h)| h > f));
    }
}
