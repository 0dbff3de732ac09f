//! Fig. 1 — Sharing vs Monopoly: execution time of N concurrent `fib(30)`
//! invocations when all expand inside one container (Sharing, FaaSBatch's
//! strategy) vs one warm container per invocation (Monopoly, the
//! conventional strategy).
//!
//! The paper measures concurrency 10–640 on a 32-core server and finds the
//! two comparable — the observation motivating FaaSBatch. We reproduce it
//! twice: live (real threads, real `fib`) and in the CPU model (where the
//! 32-core processor-sharing host shows the same equivalence exactly).

use crate::Output;
use faasbatch_container::live::{run_expanded, ExpandMode, Job};
use faasbatch_simcore::cpu::CpuModel;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::fib::fib;
use std::io::{self, Write};

const FIB_N: u32 = 30;
const CONCURRENCY: [usize; 7] = [10, 20, 40, 80, 160, 320, 640];

fn live_batch(mode: ExpandMode, n: usize) -> (f64, f64) {
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            Box::new(|| {
                std::hint::black_box(fib(FIB_N));
            }) as Job
        })
        .collect();
    let timing = run_expanded(mode, jobs);
    (
        timing.makespan.as_secs_f64() * 1e3,
        timing.mean_execution().as_secs_f64() * 1e3,
    )
}

/// Simulated equivalent on a 32-core host: `n` equal tasks in one group
/// (Sharing) vs `n` single-task groups (Monopoly).
fn simulated(n: usize, per_task: SimDuration, shared: bool) -> f64 {
    let mut cpu = CpuModel::new(32.0);
    if shared {
        let g = cpu.create_group(None);
        for _ in 0..n {
            cpu.add_task(SimTime::ZERO, g, per_task);
        }
    } else {
        for _ in 0..n {
            let g = cpu.create_group(None);
            cpu.add_task(SimTime::ZERO, g, per_task);
        }
    }
    let mut now = SimTime::ZERO;
    while let Some((t, _)) = cpu.next_completion(now) {
        now = t;
        cpu.advance_to(now);
    }
    now.as_secs_f64() * 1e3
}

pub fn run(out: &mut Output) -> io::Result<()> {
    writeln!(out, "Fig. 1 — Sharing vs Monopoly (fib({FIB_N}))\n")?;
    let per_task = SimDuration::from_millis(300); // paper-scale fib(30)
    let mut rows = Vec::new();
    for &n in &CONCURRENCY {
        let (share_makespan, share_mean) = live_batch(ExpandMode::Sharing, n);
        let (mono_makespan, mono_mean) = live_batch(ExpandMode::Monopoly, n);
        let sim_share = simulated(n, per_task, true);
        let sim_mono = simulated(n, per_task, false);
        rows.push(vec![
            n.to_string(),
            format!("{share_makespan:.1}"),
            format!("{mono_makespan:.1}"),
            format!("{:.3}", share_makespan / mono_makespan),
            format!("{share_mean:.1}"),
            format!("{mono_mean:.1}"),
            format!("{sim_share:.1}"),
            format!("{sim_mono:.1}"),
        ]);
    }
    out.table(
        &[
            "concurrency",
            "share makespan (ms)",
            "mono makespan (ms)",
            "ratio",
            "share mean (ms)",
            "mono mean (ms)",
            "sim share (ms)",
            "sim mono (ms)",
        ],
        &rows,
    )?;
    out.line("Expected shape: ratio ≈ 1 at every concurrency (sharing is free),")?;
    out.line("while Sharing uses ONE container and Monopoly uses N.")?;
    Ok(())
}
