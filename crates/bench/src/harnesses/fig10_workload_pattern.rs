//! Fig. 10 — invocation pattern of the generated workload: 800 invocations
//! replayed across one minute, bursty with tight temporal locality.

use crate::{paper_cpu_workload, Output};
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::arrival::{bin_counts, burstiness};
use std::io::{self, Write};

pub fn run(out: &mut Output) -> io::Result<()> {
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
        if s >= 61 {
            break;
        }
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
    out.line("as in the paper's replay of Azure day 13, 22:10-22:11.")?;
    Ok(())
}
