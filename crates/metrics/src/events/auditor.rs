//! The online invariant auditor.

use super::span::{self, Edge, SpanKey, SpanLedger};
use super::{EventKind, SimEvent, TaskKind, TraceSink};
use crate::chain::{ChainFold, Step, NO_ARRIVAL};
use faasbatch_container::container::ContainerState;
use faasbatch_container::ids::{ContainerId, InvocationId};
use faasbatch_simcore::idmap::IdMap;
use faasbatch_simcore::memory::MemCategory;
use faasbatch_simcore::time::SimTime;
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// Upper bound on retained violation messages before truncation.
const MAX_VIOLATIONS: usize = 64;

/// Online invariant auditor.
///
/// Checks, as the stream flows:
///
/// * **time order** — event timestamps never decrease;
/// * **conservation** — every completion matches exactly one arrival, and
///   (at [`AuditorSink::finish`]) every arrival completed;
/// * **container legality** — state changes follow
///   `∅ → Provisioning → Idle ⇄ Busy`, with `Idle → Terminated` the only
///   exit, and each event's `from` matches the tracked state;
/// * **memory ledger** — per-category and global totals never go negative,
///   frees match live allocations, and the event's `total` agrees with the
///   running sum;
/// * **chain integrity** — every completion closes a whole event chain
///   (arrival, dispatch decision, decision finish, container ready,
///   `ExecBegin`, `ExecEnd`), member indices fit their batch, and the
///   eleven phases read off the chain sum exactly to the end-to-end span
///   ([`InvocationAttribution::is_exact`](crate::analysis::InvocationAttribution::is_exact));
/// * **span pairing** — `TaskFinish`/`ColdStartEnd`/`RestoreDone`/
///   `GatewayAdmit` close an open `TaskStart`/`ColdStartBegin`/
///   `RestoreBegin`/`GatewayEnqueue` span (`span.rs` says which pairs), and
///   (at [`AuditorSink::finish`]) no span is left open.
#[derive(Debug, Default)]
pub struct AuditorSink {
    violations: Vec<String>,
    truncated: u64,
    last_at: Option<SimTime>,
    /// Per arrived invocation: its arrival instant and its completions (or
    /// rejections).
    seen: IdMap<InvocationId, (SimTime, u32)>,
    containers: IdMap<ContainerId, ContainerState>,
    mem_by_category: HashMap<MemCategory, i128>,
    mem_total: i128,
    /// Tasks, cold starts, restores and gateway enqueues still open.
    spans: SpanLedger,
    /// Scale-prewarm requests not yet matched by a `PrewarmLaunch` start, as
    /// `(requested at, containers left)`, oldest first.
    pending_scale_prewarms: VecDeque<(SimTime, u64)>,
    fold: ChainFold,
    finished: bool,
}

impl AuditorSink {
    /// A fresh auditor.
    pub fn new() -> Self {
        AuditorSink::default()
    }

    /// Records one violation. Takes the message *lazily*: on the hot path
    /// every check calls this conditionally, but once the retention cap is
    /// hit (or in the common all-clean case, never at all) the `format!`
    /// must not run — clean runs pay a branch, not an allocation.
    fn violate(&mut self, at: SimTime, message: impl FnOnce() -> String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!("[{at}] {}", message()));
        } else {
            self.truncated += 1;
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Spans (tasks, cold starts, restores, gateway enqueues) open at this
    /// point of the stream.
    pub fn open_spans(&self) -> usize {
        self.spans.len()
    }

    /// Runs end-of-stream checks (unfinished arrivals, spans left open,
    /// unlaunched scale-prewarms) once, then returns all violations. An
    /// unfinished invocation is reported at its arrival; a span left open
    /// once per key, at the instant its oldest open span began; unlaunched
    /// scale-prewarms once, at the oldest request not launched.
    pub fn finish(&mut self) -> &[String] {
        if !self.finished {
            self.finished = true;
            let mut unfinished: Vec<(InvocationId, SimTime)> = self
                .seen
                .iter()
                .filter(|(_, (_, n))| *n == 0)
                .map(|(id, (arrived, _))| (*id, *arrived))
                .collect();
            unfinished.sort();
            for (id, arrived) in unfinished {
                self.violate(arrived, || format!("{id} arrived but never completed"));
            }
            for (key, opened, n) in self.spans.leftovers() {
                self.violate(opened, || left_open(key, n));
            }
            if let Some(&(oldest, _)) = self.pending_scale_prewarms.front() {
                let n: u64 = self.pending_scale_prewarms.iter().map(|p| p.1).sum();
                self.violate(oldest, || {
                    format!("{n} scale-prewarm request(s) never launched a container")
                });
            }
            if self.truncated > 0 {
                let n = self.truncated;
                self.violations
                    .push(format!("… {n} further violations truncated"));
            }
        }
        &self.violations
    }

    fn check_container(&mut self, at: SimTime, event: &EventKind) {
        let EventKind::ContainerStateChange {
            container,
            from,
            to,
        } = event
        else {
            return;
        };
        let tracked = self.containers.get(container).copied();
        if tracked != *from {
            self.violate(at, || {
                format!(
                    "{container} claims transition from {from:?} but tracked state is {tracked:?}"
                )
            });
        }
        let legal = matches!(
            (tracked, to),
            (None, ContainerState::Provisioning)
                | (Some(ContainerState::Provisioning), ContainerState::Idle)
                | (Some(ContainerState::Idle), ContainerState::Busy)
                | (Some(ContainerState::Busy), ContainerState::Idle)
                | (Some(ContainerState::Idle), ContainerState::Terminated)
        );
        if !legal {
            self.violate(at, || {
                format!("{container} illegal transition {tracked:?} → {to:?}")
            });
        }
        self.containers.insert(*container, *to);
    }

    fn check_memory(&mut self, at: SimTime, event: &EventKind) {
        match event {
            EventKind::MemAlloc {
                category,
                bytes,
                total,
            } => {
                *self.mem_by_category.entry(*category).or_insert(0) += i128::from(*bytes);
                self.mem_total += i128::from(*bytes);
                if self.mem_total != i128::from(*total) {
                    let tracked = self.mem_total;
                    self.violate(at, || {
                        format!("ledger total {total} disagrees with audited sum {tracked}")
                    });
                }
            }
            EventKind::MemFree {
                category,
                bytes,
                total,
            } => {
                let cat = self.mem_by_category.entry(*category).or_insert(0);
                *cat -= i128::from(*bytes);
                if *cat < 0 {
                    let v = *cat;
                    self.violate(at, || format!("category `{category}` went negative ({v})"));
                }
                self.mem_total -= i128::from(*bytes);
                if self.mem_total < 0 {
                    let v = self.mem_total;
                    self.violate(at, || format!("ledger total went negative ({v})"));
                }
                if self.mem_total != i128::from(*total) {
                    let tracked = self.mem_total;
                    self.violate(at, || {
                        format!("ledger total {total} disagrees with audited sum {tracked}")
                    });
                }
            }
            _ => {}
        }
    }
}

impl TraceSink for AuditorSink {
    fn record(&mut self, event: &SimEvent) {
        let at = event.at;
        if let Some(last) = self.last_at {
            if at < last {
                self.violate(at, || {
                    format!("time went backwards (previous event at {last})")
                });
            }
        }
        self.last_at = Some(at);

        // Pair first: the checks below read how the event paired.
        let (open_now, unmatched) = match span::edge(&event.kind) {
            Some(Edge::Open(key)) => (self.spans.open(key, at), false),
            Some(Edge::Close(key)) => (0, self.spans.close(&key).is_none()),
            None => (0, false),
        };
        match &event.kind {
            EventKind::Arrival { invocation, .. }
                if self.seen.insert(*invocation, (at, 0)).is_some() =>
            {
                self.violate(at, || format!("{invocation} arrived twice"));
            }
            EventKind::InvocationComplete { invocation, .. } => {
                match self.seen.get_mut(invocation) {
                    Some((_, n)) => {
                        *n += 1;
                        if *n > 1 {
                            let n = *n;
                            self.violate(at, || format!("{invocation} completed {n} times"));
                        }
                    }
                    None => self.violate(at, || format!("{invocation} completed without arriving")),
                }
            }
            // A pre-warm launch consumes one outstanding scale-prewarm
            // request (policy-initiated pre-warms simply don't consume).
            EventKind::TaskStart {
                task: TaskKind::PrewarmLaunch { .. },
            } => {
                if let Some(oldest) = self.pending_scale_prewarms.front_mut() {
                    oldest.1 -= 1;
                    if oldest.1 == 0 {
                        self.pending_scale_prewarms.pop_front();
                    }
                }
            }
            EventKind::ScalePrewarm { count, .. } => {
                if *count == 0 {
                    self.violate(at, || "scale-prewarm requested zero containers".to_owned());
                } else {
                    self.pending_scale_prewarms.push_back((at, *count));
                }
            }
            EventKind::ScaleKeepAlive { keep_alive, .. } if keep_alive.is_zero() => {
                self.violate(at, || "scale action set a zero keep-alive TTL".to_owned());
            }
            EventKind::TaskFinish { task } if unmatched => {
                self.violate(at, || format!("task {task:?} finished without starting"));
            }
            EventKind::ColdStartEnd { container, .. } if unmatched => {
                self.violate(at, || {
                    format!("{container} cold start ended without beginning")
                });
            }
            EventKind::RestoreDone { container, .. } if unmatched => {
                self.violate(at, || {
                    format!("{container} restore ended without beginning")
                });
            }
            EventKind::GatewayEnqueue { invocation, shard } => {
                if !self.seen.contains_key(invocation) {
                    self.violate(at, || {
                        format!("{invocation} enqueued on shard {shard} without arriving")
                    });
                }
                if open_now > 1 {
                    self.violate(at, || format!("{invocation} enqueued twice"));
                }
            }
            EventKind::GatewayAdmit { invocation, shard } if unmatched => {
                self.violate(at, || {
                    format!("{invocation} admitted by shard {shard} without an enqueue")
                });
            }
            EventKind::GatewayReject { invocation, .. } => {
                // Rejection is terminal and must come straight from the
                // front door — a queued (enqueued) invocation is committed.
                if self.spans.is_open(&SpanKey::Gateway(*invocation)) {
                    self.violate(at, || format!("{invocation} rejected after being enqueued"));
                }
                match self.seen.get_mut(invocation) {
                    Some((_, n)) => {
                        *n += 1;
                        if *n > 1 {
                            let n = *n;
                            self.violate(at, || {
                                format!("{invocation} rejected but terminated {n} times")
                            });
                        }
                    }
                    None => self.violate(at, || format!("{invocation} rejected without arriving")),
                }
            }
            EventKind::GatewayRoute { members, .. } => {
                if members.is_empty() {
                    self.violate(at, || "gateway routed an empty group".to_owned());
                }
                for member in members {
                    if !self.seen.contains_key(member) {
                        self.violate(at, || format!("{member} routed without arriving"));
                    }
                }
            }
            _ => {}
        }
        self.check_container(at, &event.kind);
        self.check_memory(at, &event.kind);

        match self.fold.on_event(event) {
            // The conservation check above already named it.
            Step::Quiet
            | Step::Incomplete {
                missing: NO_ARRIVAL,
                ..
            } => {}
            Step::Complete(a) => {
                let id = a.id;
                if !a.is_exact() {
                    self.violate(at, || {
                        format!("{id} latency components do not tile its span")
                    });
                }
                if a.completion < a.arrival {
                    self.violate(at, || format!("{id} completed before it arrived"));
                }
            }
            Step::Incomplete {
                invocation,
                missing,
            } => self.violate(at, || {
                format!("{invocation} completed on an incomplete chain (no {missing})")
            }),
            Step::OutOfBatch {
                batch,
                member,
                size,
            } => self.violate(at, || {
                format!("batch #{batch} member {member} outside a batch of {size}")
            }),
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The end-of-stream violation for `n` spans of `key` left open.
fn left_open(key: SpanKey, n: usize) -> String {
    match key {
        SpanKey::Task(task) => format!("task {task:?} left open {n} time(s)"),
        SpanKey::ColdStart(c) => format!("{c} cold start never ended"),
        SpanKey::Restore(c) => format!("{c} restore never ended"),
        SpanKey::Gateway(id) => format!("{id} enqueued on a gateway shard but never admitted"),
    }
}
