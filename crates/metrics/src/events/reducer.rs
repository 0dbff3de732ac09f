//! The stream folded into a run's records and counters.

use super::span::{self, Edge};
use super::{EventKind, SimEvent};
use crate::chain::{ChainFold, Step};
use crate::latency::InvocationRecord;
use crate::sampler::{ResourceSample, ResourceSampler};
use faasbatch_container::ids::InvocationId;
use faasbatch_simcore::time::SimTime;

/// Everything a run derives from its event stream.
///
/// Produced by [`RecordReducer::finish`]; the harness folds this into its
/// `RunReport`.
#[derive(Debug)]
pub struct ReducedRun {
    /// Per-invocation records in completion order (callers sort by id).
    pub records: Vec<InvocationRecord>,
    /// Host resource samples.
    pub sampler: ResourceSampler,
    /// Earliest arrival seen (`SimTime::ZERO` when the run was empty).
    pub first_arrival: SimTime,
    /// Latest completion seen (`SimTime::ZERO` when nothing completed).
    pub last_completion: SimTime,
    /// Storage-client requests issued (cache hits + misses).
    pub client_requests: u64,
    /// Storage clients actually created.
    pub clients_created: u64,
    /// Bytes pinned by created clients.
    pub client_bytes_allocated: u64,
}

/// Folds the event stream into invocation records and run counters.
///
/// The records are the four-part projection
/// ([`LatencyBreakdown::from`](crate::latency::LatencyBreakdown)) of the
/// attributions the shared chain fold (`crate::chain`) yields; the reducer
/// adds only the run counters. It never panics: a completion on an
/// incomplete chain yields no record (the [`AuditorSink`](super::AuditorSink) names it).
#[derive(Debug, Default)]
pub struct RecordReducer {
    fold: ChainFold,
    records: Vec<InvocationRecord>,
    sampler: ResourceSampler,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    client_requests: u64,
    clients_created: u64,
    client_bytes_allocated: u64,
    open_spans: usize,
}

impl RecordReducer {
    /// A reducer with no state.
    pub fn new() -> Self {
        RecordReducer::default()
    }

    /// Invocations completed so far.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Records produced so far, in completion order.
    pub fn records(&self) -> &[InvocationRecord] {
        &self.records
    }

    /// Ids that have arrived but not completed, ascending — what a worker
    /// stopped mid-run still held. Linear in what is open.
    pub fn open_invocations(&self) -> Vec<InvocationId> {
        self.fold.open_invocations()
    }

    /// Spans (tasks, cold starts, restores, gateway enqueues) opened and
    /// not yet closed, counted through the classifier the auditor pairs
    /// with: on a stream whose every end has its begin, the auditor's
    /// [`open_spans`](super::AuditorSink::open_spans). A run that closes
    /// clean ends at 0.
    pub fn open_spans(&self) -> usize {
        self.open_spans
    }

    /// Folds one event. Returns the invocation record when the event
    /// completes an invocation (so callers can fire policy callbacks
    /// without re-deriving it).
    pub fn on_event(&mut self, event: &SimEvent) -> Option<InvocationRecord> {
        match &event.kind {
            EventKind::Arrival { .. } => {
                let first = self.first_arrival.map_or(event.at, |t| t.min(event.at));
                self.first_arrival = Some(first);
            }
            EventKind::ClientCacheHit { .. } | EventKind::ClientCacheMiss { .. } => {
                self.client_requests += 1;
            }
            EventKind::ClientCreateEnd { bytes, .. } => {
                self.clients_created += 1;
                self.client_bytes_allocated += bytes;
            }
            EventKind::HostSample {
                memory_bytes,
                busy_cores,
                live_containers,
            } => {
                self.sampler.record(ResourceSample {
                    at: event.at,
                    memory_bytes: *memory_bytes,
                    busy_cores: *busy_cores,
                    live_containers: *live_containers,
                });
            }
            _ => {}
        }
        match span::edge(&event.kind) {
            Some(Edge::Open(_)) => self.open_spans += 1,
            // An end without a begin is the auditor's to name.
            Some(Edge::Close(_)) => self.open_spans = self.open_spans.saturating_sub(1),
            None => {}
        }
        let Step::Complete(attribution) = self.fold.on_event(event) else {
            return None;
        };
        self.last_completion = self.last_completion.max(attribution.completion);
        // Fleet-level completions carry no container: their records come
        // from worker merges.
        let record = attribution.record()?;
        self.records.push(record);
        Some(record)
    }

    /// Finishes the fold, yielding everything derived from the stream.
    pub fn finish(self) -> ReducedRun {
        ReducedRun {
            records: self.records,
            sampler: self.sampler,
            first_arrival: self.first_arrival.unwrap_or(SimTime::ZERO),
            last_completion: self.last_completion,
            client_requests: self.client_requests,
            clients_created: self.clients_created,
            client_bytes_allocated: self.client_bytes_allocated,
        }
    }
}
