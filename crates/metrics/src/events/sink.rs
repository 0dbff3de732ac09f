//! Where the stream goes: the [`TraceSink`] trait and its stock sinks.

use super::SimEvent;
use std::any::Any;
use std::io::Write;

/// Where trace events go.
///
/// Implementations must be cheap enough to sit on the simulation hot path;
/// [`NoopSink`] in particular must cost nothing beyond the virtual call.
/// A sink only observes: nothing it returns reaches the run that feeds it.
/// A controller that acts on the stream is worker state instead
/// ([`Autoscaler`](crate::autoscaler::Autoscaler)).
pub trait TraceSink {
    /// Observes one event. Events arrive in non-decreasing time order.
    fn record(&mut self, event: &SimEvent);

    /// Observes a batch of events at once. The batch is a contiguous slice
    /// of the stream: events within and across batches arrive in the same
    /// non-decreasing time order [`record`](Self::record) guarantees, so a
    /// sink may treat `record_batch(&[a, b])` exactly like `record(a);
    /// record(b)` — which is the default. Emitters batch to amortise the
    /// virtual call; sinks with a cheaper bulk path (e.g.
    /// [`VecSink`]'s `extend_from_slice`, [`NoopSink`]'s nothing-at-all)
    /// override it.
    fn record_batch(&mut self, events: &[SimEvent]) {
        for event in events {
            self.record(event);
        }
    }

    /// Downcast support: recover the concrete sink after a traced run
    /// returns it as `Box<dyn TraceSink>`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Discards every event. The default sink for untraced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline]
    fn record(&mut self, _event: &SimEvent) {}
    #[inline]
    fn record_batch(&mut self, _events: &[SimEvent]) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Collects every event in order. The workhorse for tests and exporters.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<SimEvent>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The collected events, oldest first.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &SimEvent) {
        self.events.push(event.clone());
    }
    fn record_batch(&mut self, events: &[SimEvent]) {
        self.events.extend_from_slice(events);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Renders `events` as JSON Lines — one object per line, the format
/// [`JsonlSink`] streams and `analysis::load_events` reads back.
pub fn to_jsonl(events: &[SimEvent]) -> serde_json::Result<String> {
    let mut jsonl = String::new();
    for event in events {
        jsonl.push_str(&serde_json::to_string(event)?);
        jsonl.push('\n');
    }
    Ok(jsonl)
}

/// Streams events as JSON Lines to any writer.
pub struct JsonlSink {
    out: Box<dyn Write>,
    lines: u64,
    io_errors: u64,
}

impl JsonlSink {
    /// Wraps a writer; one JSON object per line, flushed on drop.
    pub fn new(out: Box<dyn Write>) -> Self {
        JsonlSink {
            out,
            lines: 0,
            io_errors: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write failures observed (events are dropped, not retried).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("io_errors", &self.io_errors)
            .finish()
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &SimEvent) {
        let Ok(line) = serde_json::to_string(event) else {
            self.io_errors += 1;
            return;
        };
        match writeln!(self.out, "{line}") {
            Ok(()) => self.lines += 1,
            Err(_) => self.io_errors += 1,
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Fans every event out to several sinks in order.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl MultiSink {
    /// Builds a fan-out over `sinks`.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        MultiSink { sinks }
    }

    /// Consumes the fan-out, yielding the inner sinks.
    pub fn into_sinks(self) -> Vec<Box<dyn TraceSink>> {
        self.sinks
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for MultiSink {
    fn record(&mut self, event: &SimEvent) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }
    fn record_batch(&mut self, events: &[SimEvent]) {
        for sink in &mut self.sinks {
            sink.record_batch(events);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
