//! Property test pinning the streaming workload path to the materialised
//! one: for any seed/size/shape, replaying a `WorkloadStream` on demand and
//! replaying its materialised `Workload` through a cursor must produce
//! bit-identical reports AND bit-identical traced event streams under each
//! of the six schedulers (DESIGN.md §16). The invocation sequences need no
//! pin of their own: the eager builders *are* the stream, materialised.

use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_metrics::events::{SimEvent, VecSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_metrics::TraceSink;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::{run_simulation_traced, run_source_traced};
use faasbatch_schedulers::policy::Policy;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::stream::WorkloadStream;
use faasbatch_trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use proptest::{prop_assert_eq, proptest};

const WINDOW: SimDuration = SimDuration::from_millis(200);

fn events(sink: Box<dyn TraceSink>) -> Vec<SimEvent> {
    sink.as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink comes back")
        .events()
        .to_vec()
}

fn policy(scheduler: usize) -> (Box<dyn Policy>, Option<SimDuration>) {
    SchedulerKind::ALL[scheduler].build(&SchedulerSetup::new(WINDOW))
}

/// Replays `workload` (materialised) and `stream` (on demand) under
/// scheduler index `scheduler` ([`SchedulerKind::ALL`] order: 0=vanilla,
/// 1=sfs, 2=kraken, 3=hiku, 4=core-late-bind, 5=faasbatch) and returns
/// both `(report, events)` pairs.
fn replay_both(
    workload: &Workload,
    stream: WorkloadStream,
    scheduler: usize,
) -> ((RunReport, Vec<SimEvent>), (RunReport, Vec<SimEvent>)) {
    let (pa, interval) = policy(scheduler);
    let (ra, sa) = run_simulation_traced(
        pa,
        workload,
        SimConfig::default(),
        "prop",
        interval,
        Box::new(VecSink::new()),
    );
    let (pb, interval) = policy(scheduler);
    let (rb, sb) = run_source_traced(
        pb,
        stream,
        SimConfig::default(),
        "prop",
        interval,
        Box::new(VecSink::new()),
    );
    ((ra, events(sa)), (rb, events(sb)))
}

proptest! {
    #[test]
    fn streamed_replay_is_bit_identical_to_materialised(
        seed in 0u64..10_000,
        total in 16usize..96,
        functions in 1usize..6,
        scheduler in 0usize..6,
        io in 0usize..2,
    ) {
        let cfg = WorkloadConfig {
            total,
            span: SimDuration::from_secs(8),
            functions,
            bursts: 1 + total % 3,
            ..WorkloadConfig::default()
        };
        let rng = DetRng::new(seed);
        let (eager, stream) = if io == 0 {
            (cpu_workload(&rng, &cfg), WorkloadStream::cpu(&rng, &cfg))
        } else {
            (io_workload(&rng, &cfg), WorkloadStream::io(&rng, &cfg))
        };

        // Full traced replays agree under every scheduler.
        let ((report_a, events_a), (report_b, events_b)) =
            replay_both(&eager, stream, scheduler);
        prop_assert_eq!(report_a, report_b, "reports diverge (scheduler {})", scheduler);
        prop_assert_eq!(
            events_a.len(),
            events_b.len(),
            "event counts diverge (scheduler {})",
            scheduler
        );
        prop_assert_eq!(events_a, events_b, "event streams diverge (scheduler {})", scheduler);
    }
}
