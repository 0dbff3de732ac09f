//! Live-platform instrumentation onto the telemetry plane (DESIGN.md §18).
//!
//! Every live fact has one owner and one count, and telemetry reads it
//! where it is kept rather than counting it a second time:
//!
//! * the platform's counters — batches, warm hits, cold boots, restores,
//!   completed invocations — are the [`PlatformStats`] atomics every
//!   [`DispatchCore`](crate::platform::DispatchCore) keeps anyway.
//!   [`PlatformBuilder::telemetry`](crate::platform::PlatformBuilder::telemetry)
//!   exposes them as polled families summed over the fleet at scrape time.
//!   Only what nothing else keeps is recorded on the hot path: the
//!   in-flight gauge, the batch-size histogram and one end-to-end latency
//!   histogram per function;
//! * [`register_executor`] exposes
//!   [`ExecutorMetrics`](faasbatch_exec::ExecutorMetrics) the same way.
//!   `faasbatch-exec` is dependency-free by design, so it keeps its own
//!   atomics and this helper polls them at scrape time.

use crate::platform::{FunctionTable, PlatformStats};
use faasbatch_exec::Executor;
use faasbatch_metrics::telemetry::{Gauge, Histogram, MetricRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The stats of every core of one fleet, set once the fleet is built.
type FleetStats = Arc<OnceLock<Vec<Arc<PlatformStats>>>>;

/// The [`PlatformStats`] field one polled counter sums.
type StatsField = fn(&PlatformStats) -> &AtomicU64;

/// The platform families on one registry, registered when telemetry is
/// attached to a builder, before the fleet whose stats the counters poll
/// exists ([`Registered::attach`] hands them over). Registering here, not
/// in the fleet, keeps the exposition order callers already see.
pub(crate) struct Registered {
    registry: MetricRegistry,
    fleet: FleetStats,
    in_flight: Gauge,
    batch_size: Histogram,
}

impl Registered {
    pub(crate) fn new(registry: &MetricRegistry) -> Registered {
        let fleet = FleetStats::default();
        let polled: [(&str, &str, StatsField); 5] = [
            (
                "faasbatch_platform_warm_hits_total",
                "Batches dispatched onto a pooled warm container.",
                |s| &s.warm_hits,
            ),
            (
                "faasbatch_platform_cold_boots_total",
                "Batches that had to create a fresh container via a full cold boot.",
                |s| &s.containers_created,
            ),
            (
                "faasbatch_platform_restores_total",
                "Batches served by restoring a snapshot template instead of booting cold.",
                |s| &s.containers_restored,
            ),
            (
                "faasbatch_platform_batches_total",
                "Dispatch decisions (batches) made.",
                |s| &s.batches,
            ),
            (
                "faasbatch_platform_invocations_total",
                "Invocations completed end to end.",
                |s| &s.invocations,
            ),
        ];
        for (name, help, field) in polled {
            let fleet = Arc::clone(&fleet);
            registry.counter_fn(name, help, move || {
                fleet.get().map_or(0, |cores| {
                    cores
                        .iter()
                        .map(|stats| field(stats).load(Ordering::Relaxed))
                        .sum()
                })
            });
        }
        Registered {
            registry: registry.clone(),
            fleet,
            in_flight: registry.gauge(
                "faasbatch_platform_in_flight",
                "Invocations accepted but not yet completed.",
            ),
            batch_size: registry.histogram(
                "faasbatch_platform_batch_size",
                "Members per dispatched batch (count, not microseconds).",
            ),
        }
    }

    /// Points the counters at the fleet's `cores` and registers one
    /// end-to-end latency histogram per function of `table`.
    pub(crate) fn attach(self, cores: Vec<Arc<PlatformStats>>, table: &FunctionTable) -> Recorded {
        self.fleet
            .set(cores)
            .expect("a builder's telemetry attaches to one fleet");
        let e2e = (0..table.names().len())
            .map(|function| {
                self.registry.histogram_with(
                    "faasbatch_platform_e2e_latency_us",
                    "End-to-end invocation latency (queued + execution), microseconds.",
                    &[("function", &function.to_string())],
                )
            })
            .collect();
        Recorded {
            in_flight: self.in_flight,
            batch_size: self.batch_size,
            e2e,
        }
    }
}

/// What a fleet records on its hot path: only what no [`PlatformStats`]
/// field already counts.
pub(crate) struct Recorded {
    /// Invocations accepted and not yet completed.
    pub(crate) in_flight: Gauge,
    /// Members per dispatched batch.
    pub(crate) batch_size: Histogram,
    /// End-to-end latency in microseconds, indexed by function.
    pub(crate) e2e: Vec<Histogram>,
}

/// Exposes a live [`Executor`]'s internal counters on `registry` as polled
/// metrics: per-worker run/steal/park counts and queue depths, the
/// injector depth, in-flight levels, and timer-wheel occupancy. Call once
/// per executor; every closure reads a fresh
/// [`metrics()`](Executor::metrics) snapshot at scrape time.
pub fn register_executor(registry: &MetricRegistry, executor: &Arc<Executor>) {
    let workers = executor.workers();
    let exec = Arc::clone(executor);
    registry.gauge_fn(
        "faasbatch_exec_workers",
        "Worker threads in the live executor pool.",
        move || exec.workers() as i64,
    );
    let exec = Arc::clone(executor);
    registry.gauge_fn(
        "faasbatch_exec_in_flight",
        "Tasks spawned and not yet completed.",
        move || exec.metrics().in_flight as i64,
    );
    let exec = Arc::clone(executor);
    registry.gauge_fn(
        "faasbatch_exec_peak_in_flight",
        "High-water mark of in-flight tasks since start (or last reset).",
        move || exec.metrics().peak_in_flight as i64,
    );
    let exec = Arc::clone(executor);
    registry.counter_fn(
        "faasbatch_exec_spawned_total",
        "Tasks ever spawned.",
        move || exec.metrics().spawned_total,
    );
    let exec = Arc::clone(executor);
    registry.gauge_fn(
        "faasbatch_exec_injector_depth",
        "Tasks waiting in the global injector.",
        move || exec.metrics().injector_depth as i64,
    );
    let exec = Arc::clone(executor);
    registry.gauge_fn(
        "faasbatch_exec_timer_occupancy",
        "Entries currently occupying the timer wheel.",
        move || exec.metrics().timer_occupancy as i64,
    );
    let exec = Arc::clone(executor);
    registry.counter_fn(
        "faasbatch_exec_timer_scheduled_total",
        "Timers ever scheduled on the wheel.",
        move || exec.metrics().timer_scheduled_total,
    );
    for worker in 0..workers {
        let label = worker.to_string();
        let exec = Arc::clone(executor);
        registry.counter_fn_with(
            "faasbatch_exec_executed_total",
            "Task polls per worker.",
            &[("worker", &label)],
            move || {
                exec.metrics()
                    .executed_per_worker
                    .get(worker)
                    .copied()
                    .unwrap_or(0)
            },
        );
        let exec = Arc::clone(executor);
        registry.counter_fn_with(
            "faasbatch_exec_stolen_total",
            "Tasks stolen per (thief) worker.",
            &[("worker", &label)],
            move || {
                exec.metrics()
                    .stolen_per_worker
                    .get(worker)
                    .copied()
                    .unwrap_or(0)
            },
        );
        let exec = Arc::clone(executor);
        registry.counter_fn_with(
            "faasbatch_exec_parked_total",
            "Times each worker parked (went idle).",
            &[("worker", &label)],
            move || {
                exec.metrics()
                    .parked_per_worker
                    .get(worker)
                    .copied()
                    .unwrap_or(0)
            },
        );
        let exec = Arc::clone(executor);
        registry.gauge_fn_with(
            "faasbatch_exec_queue_depth",
            "Current local-queue depth per worker.",
            &[("worker", &label)],
            move || {
                exec.metrics()
                    .queue_depths
                    .get(worker)
                    .copied()
                    .unwrap_or(0) as i64
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformBuilder;
    use bytes::Bytes;
    use faasbatch_exec::ExecutorConfig;
    use std::time::Duration;

    /// All three start tiers through a real platform: a cold boot, a warm
    /// hit, then — keep-alive evicted the container, the boot left a
    /// snapshot — a restore. Every counter is the platform's own.
    #[test]
    fn platform_telemetry_registers_and_records() {
        let registry = MetricRegistry::new();
        let platform = PlatformBuilder::new()
            .window(Duration::from_millis(5))
            .cold_start_delay(Duration::from_millis(1))
            .restore_delay(Duration::from_millis(1))
            .snapshots(4)
            .keep_alive(Duration::from_millis(60))
            .telemetry(&registry)
            .register("f", |_env| {})
            .start();
        // Each invocation is dispatched at once (`drain` ends the window)
        // and checked back in before the next one.
        let invoke = || {
            let ticket = platform.invoke("f", Bytes::new()).unwrap();
            platform.drain().unwrap();
            ticket.wait()
        };
        let cold = invoke();
        let warm = invoke();
        std::thread::sleep(Duration::from_millis(250));
        let restored = invoke();
        assert!(cold.cold && !warm.cold && !warm.restored && restored.restored);
        let text = registry.render_prometheus();
        for line in [
            "faasbatch_platform_warm_hits_total 1",
            "faasbatch_platform_cold_boots_total 1",
            "faasbatch_platform_restores_total 1",
            "faasbatch_platform_batches_total 3",
            "faasbatch_platform_invocations_total 3",
            "faasbatch_platform_in_flight 0",
            "faasbatch_platform_batch_size_count 3",
            "faasbatch_platform_e2e_latency_us_count{function=\"0\"} 3",
        ] {
            assert!(text.contains(line), "{line} missing from\n{text}");
        }
    }

    #[test]
    fn executor_registration_exposes_worker_families() {
        let exec = Executor::new(ExecutorConfig {
            workers: 2,
            seed: 9,
            ..ExecutorConfig::default()
        });
        let registry = MetricRegistry::new();
        register_executor(&registry, &exec);
        exec.spawn(async {});
        std::thread::sleep(std::time::Duration::from_millis(30));
        let text = registry.render_prometheus();
        assert!(text.contains("faasbatch_exec_workers 2"));
        assert!(text.contains("faasbatch_exec_spawned_total 1"));
        assert!(text.contains("faasbatch_exec_executed_total{worker=\"0\"}"));
        assert!(text.contains("faasbatch_exec_queue_depth{worker=\"1\"}"));
        exec.shutdown();
    }
}
