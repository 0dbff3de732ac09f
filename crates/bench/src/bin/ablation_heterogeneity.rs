//! Ablation — per-function duration heterogeneity: the paper's workload
//! samples every invocation from one global distribution; real platforms
//! have short functions and long functions. This harness turns on distinct
//! per-function duration profiles and checks which scheduler conclusions
//! survive — notably whether SFS's short-function priority and Kraken's
//! per-function SLOs start paying off.

use faasbatch_bench::{summary_table, DEFAULT_WINDOW, PAPER_FOUR, SEED};
use faasbatch_core::scheduler_kind::{run_comparison, SchedulerSetup};
use faasbatch_metrics::events::NoopSink;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::rng::DetRng;
use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

fn main() {
    for h in [0.0, 2.0] {
        let w = cpu_workload(
            &DetRng::new(SEED),
            &WorkloadConfig {
                heterogeneity: h,
                ..WorkloadConfig::default()
            },
        );
        println!(
            "=== heterogeneity {h} ({} invocations, {} functions) ===",
            w.len(),
            w.registry().len()
        );
        let reports = run_comparison(
            &PAPER_FOUR,
            &w,
            "cpu-hetero",
            &SimConfig::default(),
            &SchedulerSetup::new(DEFAULT_WINDOW),
            |_| Box::new(NoopSink),
        )
        .0;
        println!("{}", summary_table(&reports));
    }
    println!("Expected: the FaaSBatch-first ordering is unchanged; with distinct");
    println!("profiles SFS's short-function gains and Kraken's per-function SLO");
    println!("batching become visible in the per-scheduler latency columns.");
}
