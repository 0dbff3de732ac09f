//! Fig. 9 — probability distribution of function execution durations, the
//! bucketed Azure-trace distribution the workload generator samples from.

use crate::{Output, SEED};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::duration::DurationDistribution;
use faasbatch_trace::fib::fib_n_for_duration;
use std::io;

const SAMPLES: usize = 100_000;

pub fn run(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 9 — probability distribution of function durations\n")?;
    let dist = DurationDistribution::azure_fig9();
    let mut rng = DetRng::new(SEED);
    let samples: Vec<SimDuration> = (0..SAMPLES).map(|_| dist.sample(&mut rng)).collect();
    let observed = dist.histogram(&samples);
    let mut rows = Vec::new();
    for (bucket, obs) in dist.buckets().iter().zip(&observed) {
        let label = if bucket.hi_ms >= DurationDistribution::TAIL_CAP_MS {
            format!("[{:.0}, inf)", bucket.lo_ms)
        } else {
            format!("[{:.0}, {:.0})", bucket.lo_ms, bucket.hi_ms)
        };
        let mid = SimDuration::from_millis_f64((bucket.lo_ms * bucket.hi_ms).sqrt());
        rows.push(vec![
            label,
            format!("{:.2}%", bucket.probability * 100.0),
            format!("{:.2}%", obs * 100.0),
            format!("fib({})", fib_n_for_duration(mid)),
        ]);
    }
    out.table(
        &[
            "duration (ms)",
            "paper",
            "generated",
            "representative input",
        ],
        &rows,
    )?;
    out.line("Expected shape: generated column matches the paper column within")?;
    out.line("sampling noise; 55.13% of invocations complete in under 50 ms.")?;
    Ok(())
}
