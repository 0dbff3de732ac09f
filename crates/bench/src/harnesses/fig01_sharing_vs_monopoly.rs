//! Fig. 1 — Sharing vs Monopoly: execution time of N concurrent `fib(30)`
//! invocations when all expand inside one container (Sharing, FaaSBatch's
//! strategy) vs one warm container per invocation (Monopoly, the
//! conventional strategy).
//!
//! The paper measures concurrency 10–640 on a 32-core server and finds the
//! two comparable — the observation motivating FaaSBatch. We reproduce it
//! twice: live, on the platform's own dispatch core (real executor
//! workers, real `fib`), and in the CPU model (where the 32-core
//! processor-sharing host shows the same equivalence exactly).

use crate::Output;
use faasbatch_core::platform::{DispatchCore, PlatformBuilder, PlatformIds, RemoteJob};
use faasbatch_simcore::cpu::CpuModel;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_trace::fib::fib;
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIB_N: u32 = 30;
const CONCURRENCY: [usize; 7] = [10, 20, 40, 80, 160, 320, 640];

/// One live measurement of `n` invocations.
struct Live {
    makespan_ms: f64,
    mean_ms: f64,
    containers: u64,
}

/// Runs `n` `fib` invocations twice through a fresh dispatch core — as one
/// group (Sharing) or as `n` one-member groups of the same function
/// (Monopoly) — and times the second round, when every container is warm:
/// the makespan from dispatch to the last ticket, the mean over each
/// invocation's handler time.
fn live(n: usize, sharing: bool) -> Live {
    let ids = Arc::new(PlatformIds::new());
    let builder = PlatformBuilder::new()
        .cold_start_delay(Duration::ZERO)
        .ids(Arc::clone(&ids))
        .register("fib", |_| {
            std::hint::black_box(fib(FIB_N));
        });
    let core = DispatchCore::fleet(builder, 1)
        .pop()
        .expect("a fleet of one has one core");
    let round = || {
        let (jobs, tickets): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| RemoteJob::new(ids.next_invocation(), Default::default()))
            .unzip();
        let started = Instant::now();
        let mut window = if sharing {
            vec![(0, jobs)]
        } else {
            jobs.into_iter().map(|job| (0, vec![job])).collect()
        };
        core.dispatch_window(&mut window);
        let execution: Duration = tickets.into_iter().map(|t| t.wait().execution).sum();
        let makespan = started.elapsed();
        core.wait_idle();
        (makespan, execution / n as u32)
    };
    round();
    let (makespan, mean) = round();
    Live {
        makespan_ms: makespan.as_secs_f64() * 1e3,
        mean_ms: mean.as_secs_f64() * 1e3,
        containers: core.stats().containers_created.load(Ordering::Relaxed),
    }
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
        let share = live(n, true);
        let mono = live(n, false);
        let sim_share = simulated(n, per_task, true);
        let sim_mono = simulated(n, per_task, false);
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", share.makespan_ms),
            format!("{:.1}", mono.makespan_ms),
            format!("{:.3}", share.makespan_ms / mono.makespan_ms),
            format!("{:.1}", share.mean_ms),
            format!("{:.1}", mono.mean_ms),
            format!("{} / {}", share.containers, mono.containers),
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
            "containers share / mono",
            "sim share (ms)",
            "sim mono (ms)",
        ],
        &rows,
    )?;
    out.line("Expected shape: ratio ≈ 1 at every concurrency (sharing is free),")?;
    out.line("while Sharing uses ONE container and Monopoly uses N.")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_uses_one_container_and_monopoly_one_per_invocation() {
        let n = 4;
        assert_eq!(live(n, true).containers, 1);
        assert_eq!(live(n, false).containers, n as u64);
    }
}
