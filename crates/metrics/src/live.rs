//! Wall-clock adapter onto the event-sourced observability spine.
//!
//! Simulated runs emit [`SimEvent`]s at virtual timestamps; the live
//! platform runs on the wall clock across many threads. The
//! [`LiveTraceRecorder`] bridges the two: it fixes an `Instant` origin at
//! construction, stamps every event with microseconds-since-origin as a
//! [`SimTime`], and buffers them under one mutex.
//! [`take_trace`](LiveTraceRecorder::take_trace) then yields a stream
//! stable-sorted by timestamp, so the same consumers that audit and
//! attribute simulated runs — [`AuditorSink`](crate::events::AuditorSink),
//! [`RecordReducer`](crate::events::RecordReducer), the
//! [`AttributionEngine`](crate::analysis::AttributionEngine) (three
//! readings of one chain fold) and `faasbatch trace --analyze` — work
//! unchanged on live ones.
//!
//! Concurrent emitters interleave, but every *causal chain* (arrival →
//! decision → ready → exec → completion for one invocation) is stamped in
//! happens-before order on a monotonic clock, so the per-invocation
//! orderings the chain fold reads exact phases off survive the global sort.

use crate::events::{EventKind, SimEvent};
use crate::telemetry::FlightRecorder;
use faasbatch_simcore::time::SimTime;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct RecorderInner {
    origin: Instant,
    events: Mutex<Vec<SimEvent>>,
    /// Optional post-mortem mirror: every recorded event is also pushed
    /// into this bounded ring, so a crash dump needs no drain.
    flight: Option<FlightRecorder>,
}

/// Thread-safe, cloneable wall-clock event recorder for live runs.
///
/// Cloning is cheap (an `Arc` bump); every clone feeds the same buffer and
/// shares the same time origin.
///
/// # Examples
///
/// ```
/// use faasbatch_container::ids::{FunctionId, InvocationId};
/// use faasbatch_metrics::events::EventKind;
/// use faasbatch_metrics::live::LiveTraceRecorder;
///
/// let recorder = LiveTraceRecorder::new();
/// recorder.record(EventKind::Arrival {
///     invocation: InvocationId::new(0),
///     function: FunctionId::new(0),
/// });
/// let trace = recorder.take_trace();
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Clone)]
pub struct LiveTraceRecorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for LiveTraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveTraceRecorder")
            .field("buffered", &self.len())
            .finish()
    }
}

impl Default for LiveTraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveTraceRecorder {
    /// A recorder whose time origin is now.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A recorder that additionally mirrors every event into `flight`,
    /// so a bounded post-mortem window survives even after drains.
    pub fn with_flight(flight: FlightRecorder) -> Self {
        Self::build(Some(flight))
    }

    fn build(flight: Option<FlightRecorder>) -> Self {
        LiveTraceRecorder {
            inner: Arc::new(RecorderInner {
                origin: Instant::now(),
                events: Mutex::new(Vec::new()),
                flight,
            }),
        }
    }

    /// Wall-clock time since the origin, as a [`SimTime`] (µs resolution).
    pub fn now(&self) -> SimTime {
        let micros = self.inner.origin.elapsed().as_micros();
        SimTime::from_micros(u64::try_from(micros).unwrap_or(u64::MAX))
    }

    /// Records `kind` stamped at [`now`](LiveTraceRecorder::now); returns
    /// the timestamp used.
    pub fn record(&self, kind: EventKind) -> SimTime {
        let at = self.now();
        self.record_at(at, kind);
        at
    }

    fn record_at(&self, at: SimTime, kind: EventKind) {
        let event = SimEvent::new(at, kind);
        if let Some(flight) = &self.inner.flight {
            flight.record(event.clone());
        }
        self.lock_events().push(event);
    }

    /// Events buffered so far (exact; takes the buffer lock).
    pub fn len(&self) -> usize {
        self.lock_events().len()
    }

    /// Whether nothing has been recorded (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.lock_events().is_empty()
    }

    /// Drains the buffer, returning the events stable-sorted by timestamp —
    /// a stream legal to feed any [`TraceSink`](crate::events::TraceSink).
    pub fn take_trace(&self) -> Vec<SimEvent> {
        let mut events = std::mem::take(&mut *self.lock_events());
        events.sort_by_key(|e| e.at);
        events
    }

    fn lock_events(&self) -> MutexGuard<'_, Vec<SimEvent>> {
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_container::ids::{FunctionId, InvocationId};

    fn arrival(n: u64) -> EventKind {
        EventKind::Arrival {
            invocation: InvocationId::new(n),
            function: FunctionId::new(0),
        }
    }

    #[test]
    fn records_are_stamped_monotonically_per_thread() {
        let rec = LiveTraceRecorder::new();
        let a = rec.record(arrival(0));
        let b = rec.record(arrival(1));
        assert!(b >= a);
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn take_trace_sorts_and_drains() {
        let rec = LiveTraceRecorder::new();
        rec.record_at(SimTime::from_micros(50), arrival(1));
        rec.record_at(SimTime::from_micros(10), arrival(0));
        let trace = rec.take_trace();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].at <= trace[1].at);
        assert!(rec.is_empty());
    }

    #[test]
    fn clones_share_one_buffer_and_origin() {
        let rec = LiveTraceRecorder::new();
        let other = rec.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                other.record(arrival(0));
            });
            scope.spawn(|| {
                rec.record(arrival(1));
            });
        });
        assert_eq!(rec.take_trace().len(), 2);
    }

    #[test]
    fn flight_mirror_survives_a_drain() {
        let flight = crate::telemetry::FlightRecorder::new(64);
        let rec = LiveTraceRecorder::with_flight(flight.clone());
        rec.record(arrival(0));
        rec.record(arrival(1));
        assert_eq!(rec.take_trace().len(), 2);
        assert!(rec.is_empty());
        assert_eq!(flight.dump().len(), 2);
    }
}
