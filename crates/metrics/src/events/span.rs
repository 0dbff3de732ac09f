//! Which events open and close a span, and the ledger of spans still open.
//!
//! A span is a stretch of simulated time the stream brackets with a begin
//! and an end event: a CPU task (`TaskStart` → `TaskFinish`), a cold start
//! (`ColdStartBegin` → `ColdStartEnd`), a snapshot restore (`RestoreBegin`
//! → `RestoreDone`) and a gateway enqueue (`GatewayEnqueue` →
//! `GatewayAdmit`). [`edge`] is the one place that says so: the auditor
//! and the Chrome export pair through a [`SpanLedger`], and the reducer
//! counts open spans with the same function.

use super::{EventKind, TaskKind};
use faasbatch_container::ids::{ContainerId, InvocationId};
use faasbatch_simcore::idmap::IdMap;
use faasbatch_simcore::time::SimTime;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// What a span is of. Spans of one key may overlap: SFS runs dozens of
/// `Overhead` tasks at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum SpanKey {
    Task(TaskKind),
    ColdStart(ContainerId),
    Restore(ContainerId),
    Gateway(InvocationId),
}

/// What an event does to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    Open(SpanKey),
    Close(SpanKey),
}

/// The span `kind` opens or closes, if any.
#[inline]
pub(crate) fn edge(kind: &EventKind) -> Option<Edge> {
    Some(match *kind {
        EventKind::TaskStart { task } => Edge::Open(SpanKey::Task(task)),
        EventKind::TaskFinish { task } => Edge::Close(SpanKey::Task(task)),
        EventKind::ColdStartBegin { container, .. } => Edge::Open(SpanKey::ColdStart(container)),
        EventKind::ColdStartEnd { container, .. } => Edge::Close(SpanKey::ColdStart(container)),
        EventKind::RestoreBegin { container, .. } => Edge::Open(SpanKey::Restore(container)),
        EventKind::RestoreDone { container, .. } => Edge::Close(SpanKey::Restore(container)),
        EventKind::GatewayEnqueue { invocation, .. } => Edge::Open(SpanKey::Gateway(invocation)),
        EventKind::GatewayAdmit { invocation, .. } => Edge::Close(SpanKey::Gateway(invocation)),
        _ => return None,
    })
}

/// The opening instants of one key's open spans, oldest first. A single
/// open span, by far the common case, is held without an allocation.
#[derive(Debug)]
enum Opens {
    One(SimTime),
    Many(VecDeque<SimTime>),
}

/// The spans that are open, each with the instant it opened. A close
/// pairs with the oldest open span of its key, and a closed span leaves
/// the ledger, so the ledger holds what is open and nothing else.
#[derive(Debug, Default)]
pub(crate) struct SpanLedger {
    open: IdMap<SpanKey, Opens>,
    len: usize,
}

impl SpanLedger {
    /// Opens a span of `key` at `at`; returns how many spans of `key` are
    /// open now.
    pub(crate) fn open(&mut self, key: SpanKey, at: SimTime) -> usize {
        self.len += 1;
        let opens = match self.open.entry(key) {
            Entry::Vacant(entry) => {
                entry.insert(Opens::One(at));
                return 1;
            }
            Entry::Occupied(entry) => entry.into_mut(),
        };
        match opens {
            Opens::One(first) => {
                *opens = Opens::Many(VecDeque::from([*first, at]));
                2
            }
            Opens::Many(queue) => {
                queue.push_back(at);
                queue.len()
            }
        }
    }

    /// Closes the oldest open span of `key` and returns the instant it
    /// opened, or `None` when no span of `key` is open.
    pub(crate) fn close(&mut self, key: &SpanKey) -> Option<SimTime> {
        let Entry::Occupied(mut entry) = self.open.entry(*key) else {
            return None;
        };
        let opened = match entry.get_mut() {
            Opens::One(at) => {
                let at = *at;
                entry.remove();
                at
            }
            Opens::Many(queue) => {
                let at = queue.pop_front()?;
                if queue.is_empty() {
                    entry.remove();
                }
                at
            }
        };
        self.len -= 1;
        Some(opened)
    }

    /// Whether a span of `key` is open.
    pub(crate) fn is_open(&self, key: &SpanKey) -> bool {
        self.open.contains_key(key)
    }

    /// Open spans, over every key.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every key with an open span: the key, when its oldest open span
    /// opened, and how many are open; ordered by key.
    pub(crate) fn leftovers(&self) -> Vec<(SpanKey, SimTime, usize)> {
        let mut left: Vec<_> = self
            .open
            .iter()
            .map(|(key, opens)| match opens {
                Opens::One(at) => (*key, *at, 1),
                Opens::Many(queue) => (*key, queue[0], queue.len()),
            })
            .collect();
        left.sort_unstable_by_key(|&(key, ..)| key);
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    const OVERHEAD: SpanKey = SpanKey::Task(TaskKind::Overhead);

    #[test]
    fn spans_of_one_key_close_first_in_first_out() {
        let mut ledger = SpanLedger::default();
        assert_eq!(ledger.open(OVERHEAD, t(1)), 1);
        assert_eq!(ledger.open(OVERHEAD, t(2)), 2);
        assert_eq!(ledger.open(OVERHEAD, t(3)), 3);
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.leftovers(), [(OVERHEAD, t(1), 3)]);
        assert_eq!(ledger.close(&OVERHEAD), Some(t(1)));
        assert_eq!(ledger.close(&OVERHEAD), Some(t(2)));
        assert!(ledger.is_open(&OVERHEAD));
        assert_eq!(ledger.close(&OVERHEAD), Some(t(3)));
        assert_eq!(ledger.close(&OVERHEAD), None, "nothing left to close");
        assert!(!ledger.is_open(&OVERHEAD));
        assert_eq!((ledger.len(), ledger.open.len()), (0, 0));
    }

    #[test]
    fn a_closed_span_leaves_the_ledger() {
        let mut ledger = SpanLedger::default();
        for n in 0..1000 {
            let key = SpanKey::ColdStart(ContainerId::new(n));
            ledger.open(key, t(n));
            assert_eq!(ledger.close(&key), Some(t(n)));
        }
        assert_eq!((ledger.len(), ledger.open.len()), (0, 0));
        assert_eq!(ledger.close(&SpanKey::Restore(ContainerId::new(0))), None);
    }

    #[test]
    fn leftovers_are_ordered_by_key_and_stamped_at_their_oldest_open() {
        let mut ledger = SpanLedger::default();
        let gateway = SpanKey::Gateway(InvocationId::new(4));
        let cold = SpanKey::ColdStart(ContainerId::new(2));
        ledger.open(gateway, t(5));
        ledger.open(cold, t(7));
        ledger.open(OVERHEAD, t(9));
        assert_eq!(
            ledger.leftovers(),
            [(OVERHEAD, t(9), 1), (cold, t(7), 1), (gateway, t(5), 1)]
        );
    }

    #[test]
    fn every_begin_event_opens_the_span_its_end_event_closes() {
        let c = ContainerId::new(3);
        let i = InvocationId::new(8);
        let task = TaskKind::Body {
            batch: 1,
            member: 2,
        };
        let pairs = [
            (
                EventKind::TaskStart { task },
                EventKind::TaskFinish { task },
            ),
            (
                EventKind::ColdStartBegin {
                    container: c,
                    batch: None,
                },
                EventKind::ColdStartEnd {
                    container: c,
                    batch: Some(1),
                },
            ),
            (
                EventKind::RestoreBegin {
                    container: c,
                    batch: Some(1),
                },
                EventKind::RestoreDone {
                    container: c,
                    batch: None,
                },
            ),
            (
                EventKind::GatewayEnqueue {
                    invocation: i,
                    shard: 0,
                },
                EventKind::GatewayAdmit {
                    invocation: i,
                    shard: 0,
                },
            ),
        ];
        for (begin, end) in pairs {
            let (Some(Edge::Open(a)), Some(Edge::Close(b))) = (edge(&begin), edge(&end)) else {
                panic!("{begin:?} / {end:?} are not a begin and an end");
            };
            assert_eq!(a, b, "{begin:?} / {end:?}");
        }
        let arrival = EventKind::Arrival {
            invocation: i,
            function: faasbatch_container::ids::FunctionId::new(0),
        };
        assert_eq!(edge(&arrival), None);
    }
}
