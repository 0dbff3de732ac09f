//! In-memory spans recorded by the benchmark around every call it makes
//! into a layer of the program (traced runs only). Nothing here reaches into
//! the crates: a span is two clock reads in the benchmark's own code.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `gateway.invoke`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by the spans of one request (an invocation's
    /// sequence number, an hour, a scheduler index).
    pub request: u64,
}

/// Per-name totals over a [`SpanLog`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Individual spans written per name; totals always cover all of them.
const SPANS_WRITTEN_PER_NAME: usize = 200;

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, request)
    }

    /// Closes `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now.max(span.start_ns);
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the union of its children's intervals, clipped to the
    /// span — children may overlap each other (handlers on two workers) or
    /// outlive the parent's call (a handler runs after `invoke` returned).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let duration = span.end_ns - span.start_ns;
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - covered;
        }
        out
    }

    /// The log as JSON: per-name totals over every span, plus the first
    /// [`SPANS_WRITTEN_PER_NAME`] individual spans of each name (a burst
    /// round alone records 400,000).
    pub fn to_value(&self) -> Value {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(name.to_owned())),
                    ("count".into(), Value::U64(t.count)),
                    ("total_ns".into(), Value::U64(t.total_ns)),
                    ("self_ns".into(), Value::U64(t.self_ns)),
                ])
            })
            .collect();
        let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut sample = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let seen = written.entry(span.name).or_default();
            if *seen >= SPANS_WRITTEN_PER_NAME {
                continue;
            }
            *seen += 1;
            sample.push(Value::Map(vec![
                ("id".into(), Value::U64(id as u64)),
                ("name".into(), Value::Str(span.name.to_owned())),
                ("start_ns".into(), Value::U64(span.start_ns)),
                ("end_ns".into(), Value::U64(span.end_ns)),
                (
                    "parent".into(),
                    span.parent
                        .map_or(Value::Null, |p| Value::U64(u64::from(p))),
                ),
                ("request".into(), Value::U64(span.request)),
            ]));
        }
        Value::Map(vec![
            ("recorded".into(), Value::U64(self.spans.len() as u64)),
            ("totals".into(), Value::Seq(totals)),
            ("spans".into(), Value::Seq(sample)),
        ])
    }
}

/// The spans of one pass of a simulated workload — or nothing at all when
/// tracing is off, so workloads mark instants the same way in both modes.
pub struct PassScope<'a> {
    log: Option<&'a mut SpanLog>,
    pass: Option<SpanId>,
}

impl<'a> PassScope<'a> {
    /// Opens the pass's own span when `log` is given.
    pub fn open(mut log: Option<&'a mut SpanLog>, name: &'static str) -> PassScope<'a> {
        let pass = log.as_deref_mut().map(|l| l.open(name, None, 0));
        PassScope { log, pass }
    }

    pub fn traced(&self) -> bool {
        self.log.is_some()
    }

    /// Records `start..end` as a child of the pass.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if let Some(log) = self.log.as_deref_mut() {
            let ns = |at: Instant| at.saturating_duration_since(log.origin).as_nanos() as u64;
            let (start_ns, end_ns) = (ns(start), ns(end));
            log.push(name, start_ns, end_ns, self.pass, request);
        }
    }

    /// Closes the pass's span.
    pub fn close(self) {
        if let (Some(log), Some(pass)) = (self.log, self.pass) {
            log.close(pass);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push("root", 0, 100, None, 0);
        // Two overlapping children cover 10..50; a third outlives the parent.
        log.push("child", 10, 40, Some(root), 1);
        log.push("child", 30, 50, Some(root), 2);
        log.push("late", 90, 130, Some(root), 3);
        let totals = log.totals();
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 100 - 40 - 10);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_ns, 50);
        assert_eq!(totals["late"].self_ns, 40);
    }
}
