//! The flight recorder: a bounded ring of recent [`SimEvent`]s that
//! survives until something goes wrong.
//!
//! Live layers mirror every event they record into per-thread-sharded
//! drop-oldest rings (each shard its own tiny mutex, touched by one
//! thread in steady state, so pushes never contend). On panic, auditor
//! violation, or shutdown, [`dump`](FlightRecorder::dump) merges the
//! shards into one causally-ordered stream and writes the same JSONL the
//! trace spine already speaks — so `faasbatch trace --analyze` and the
//! [`AttributionEngine`](crate::analysis::AttributionEngine) work on
//! post-mortems unchanged.
//!
//! Causal order across shards: every record takes a ticket from one
//! shared atomic sequence. If event B was caused by event A, A's
//! `fetch_add` is ordered before B's in the counter's modification
//! order, so sorting by `(at, seq)` reconstructs the happens-before
//! order the auditor and attribution rely on — the same guarantee
//! [`LiveTraceRecorder`](crate::live::LiveTraceRecorder) gets from its
//! single insertion-ordered buffer.

use crate::events::{to_jsonl, SimEvent};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::registry::thread_slot;

/// Ring shards. One per hardware-ish thread bucket; pushes from threads
/// in different buckets never share a lock.
const SHARDS: usize = 16;

struct Slot {
    seq: u64,
    event: SimEvent,
}

struct FlightInner {
    shards: Box<[Mutex<VecDeque<Slot>>]>,
    per_shard: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

/// Bounded, sharded recorder of the most recent events.
///
/// Cloning is cheap (an `Arc` bump); clones feed the same rings.
///
/// # Examples
///
/// ```
/// use faasbatch_container::ids::{FunctionId, InvocationId};
/// use faasbatch_metrics::events::{EventKind, SimEvent};
/// use faasbatch_metrics::telemetry::FlightRecorder;
/// use faasbatch_simcore::time::SimTime;
///
/// let flight = FlightRecorder::new(1024);
/// flight.record(SimEvent::new(
///     SimTime::from_micros(5),
///     EventKind::Arrival { invocation: InvocationId::new(0), function: FunctionId::new(0) },
/// ));
/// assert_eq!(flight.dump().len(), 1);
/// ```
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("buffered", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding roughly `capacity` recent events in total
    /// (split evenly across internal shards; minimum one per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        FlightRecorder {
            inner: Arc::new(FlightInner {
                shards: (0..SHARDS)
                    .map(|_| Mutex::new(VecDeque::with_capacity(per_shard)))
                    .collect(),
                per_shard,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Records one event, evicting the shard's oldest when full.
    pub fn record(&self, event: SimEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.inner.shards[thread_slot() % SHARDS];
        let mut ring = shard.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= self.inner.per_shard {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Slot { seq, event });
    }

    /// Events currently buffered across every shard.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Merges every shard into one stream ordered by `(timestamp, causal
    /// sequence)` — legal input for any [`TraceSink`](crate::events::TraceSink).
    /// Non-destructive: the rings keep recording.
    pub fn dump(&self) -> Vec<SimEvent> {
        let mut slots: Vec<Slot> = Vec::with_capacity(self.len());
        for shard in self.inner.shards.iter() {
            let ring = shard.lock().unwrap_or_else(|p| p.into_inner());
            slots.extend(ring.iter().map(|s| Slot {
                seq: s.seq,
                event: s.event.clone(),
            }));
        }
        slots.sort_unstable_by_key(|s| (s.event.at, s.seq));
        slots.into_iter().map(|s| s.event).collect()
    }

    /// Writes the merged stream to `path` (created or truncated) as JSON
    /// Lines — the exact format [`load_events`](crate::analysis::load_events)
    /// and `faasbatch trace --analyze` parse. Returns the line count.
    pub fn dump_to_path(&self, path: &Path) -> std::io::Result<usize> {
        let events = self.dump();
        let jsonl = to_jsonl(&events)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, jsonl)?;
        Ok(events.len())
    }

    /// Chains a panic hook that writes the post-mortem to `path` before
    /// the previous hook runs. Covers every thread in the process; the
    /// dump happens at most once even if several threads panic.
    pub fn install_panic_hook(&self, path: PathBuf) {
        let flight = self.clone();
        let armed = Arc::new(AtomicU64::new(0));
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if armed.fetch_add(1, Ordering::SeqCst) == 0 {
                match flight.dump_to_path(&path) {
                    Ok(n) => eprintln!("flight recorder: wrote {n} events to {}", path.display()),
                    Err(e) => eprintln!("flight recorder: dump failed: {e}"),
                }
            }
            previous(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use faasbatch_container::ids::{FunctionId, InvocationId};
    use faasbatch_simcore::time::SimTime;

    fn arrival(at: u64, n: u64) -> SimEvent {
        SimEvent::new(
            SimTime::from_micros(at),
            EventKind::Arrival {
                invocation: InvocationId::new(n),
                function: FunctionId::new(0),
            },
        )
    }

    #[test]
    fn dump_is_time_sorted_and_nondestructive() {
        let flight = FlightRecorder::new(64);
        flight.record(arrival(30, 2));
        flight.record(arrival(10, 0));
        flight.record(arrival(20, 1));
        let events = flight.dump();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(flight.len(), 3);
    }

    #[test]
    fn equal_timestamps_keep_causal_sequence_order() {
        let flight = FlightRecorder::new(1024);
        for n in 0..10 {
            flight.record(arrival(7, n));
        }
        let events = flight.dump();
        let ids: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::Arrival { invocation, .. } => invocation.value(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rings_bound_memory_and_count_drops() {
        let flight = FlightRecorder::new(16);
        for n in 0..1000 {
            flight.record(arrival(n, n));
        }
        assert!(flight.len() <= 16);
        assert_eq!(flight.dropped() as usize + flight.len(), 1000);
    }

    #[test]
    fn jsonl_round_trips_through_load_events() {
        let flight = FlightRecorder::new(64);
        flight.record(arrival(10, 0));
        flight.record(arrival(20, 1));
        let path = std::env::temp_dir().join(format!("flight-{}.jsonl", std::process::id()));
        assert_eq!(flight.dump_to_path(&path).unwrap(), 2);
        let parsed = crate::analysis::load_events(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].at, SimTime::from_micros(10));
    }

    #[test]
    fn concurrent_recording_keeps_every_recent_event() {
        let flight = FlightRecorder::new(100_000);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let flight = flight.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        flight.record(arrival(t * 10_000 + i, t * 10_000 + i));
                    }
                });
            }
        });
        assert_eq!(flight.dump().len(), 8000);
        assert_eq!(flight.dropped(), 0);
    }
}
