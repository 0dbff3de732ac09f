//! The one event → timestamp fold behind records, attribution and audit.
//!
//! Every invocation runs down one chain of instants,
//! `arrival ≤ routed ≤ dispatched ≤ decided ≤ ready ≤ exec ≤ body start ≤
//! body finish ≤ own finish ≤ completion`, stamped by `Arrival →
//! GatewayRoute → DispatchDecision → TaskFinish{Decision} →
//! ColdStartEnd|RestoreDone → ExecBegin → TaskStart/Finish{Body} → ExecEnd →
//! InvocationComplete`. [`ChainFold`] keeps those stamps — per batch, one
//! per-member array — and at each completion turns the gaps between
//! consecutive stamps into an [`InvocationAttribution`]: each of the eleven
//! phases is one gap, so they telescope to completion − arrival with no
//! residual (DESIGN.md §13). Fleet-level streams carry a coarser chain
//! (`arrival ≤ last Redispatch ≤ last GroupFormed ≤ completion`).
//!
//! The fold is lenient: it never panics on a malformed stream. A completion
//! whose chain misses a link is [`Step::Incomplete`] and a member index its
//! batch does not have is [`Step::OutOfBatch`]; `RecordReducer` yields no
//! record for either, `AttributionEngine` counts the former as skipped, and
//! `AuditorSink` reports both as violations.

use crate::analysis::attribution::{InvocationAttribution, PhaseBreakdown};
use crate::events::{EventKind, SimEvent, TaskKind};
use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch_simcore::idmap::IdMap;
use faasbatch_simcore::time::{SimDuration, SimTime};

/// What folding one event produced.
#[derive(Debug)]
pub(crate) enum Step {
    /// Nothing to report (the common case).
    Quiet,
    /// The event completed an invocation whose chain was whole.
    Complete(InvocationAttribution),
    /// The event completed an invocation whose chain lacks `missing`; the
    /// invocation stays open.
    Incomplete {
        invocation: InvocationId,
        missing: &'static str,
    },
    /// The event names a member its (declared) batch does not have.
    OutOfBatch {
        batch: u64,
        member: u32,
        size: usize,
    },
}

/// One member's stamps between its batch's dispatch and its completion.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    exec: Option<SimTime>,
    body_start: Option<SimTime>,
    body_finish: Option<SimTime>,
    own_finish: Option<SimTime>,
    work: SimDuration,
}

/// One batch's chain between dispatch and its last member's completion.
#[derive(Debug)]
struct Chain {
    container: ContainerId,
    cold: bool,
    restored: bool,
    dispatched: SimTime,
    decided: Option<SimTime>,
    ready: Option<SimTime>,
    members: Vec<Stamps>,
    completed: usize,
}

/// What a completion of an invocation that is not open is
/// [`Step::Incomplete`] for: it never arrived, or already terminated.
pub(crate) const NO_ARRIVAL: &str = "arrival";

/// Streaming fold from events to per-invocation attributions. State is
/// bounded by what is in flight: a completed (or rejected) invocation and a
/// fully completed batch leave no entry behind.
#[derive(Debug, Default)]
pub(crate) struct ChainFold {
    /// Open invocations: arrived, neither completed nor rejected.
    arrivals: IdMap<InvocationId, (SimTime, FunctionId)>,
    /// Chain slab. A retired slot keeps its stamp array for the next
    /// dispatch, so a steady-state dispatch allocates nothing.
    chains: Vec<Chain>,
    free: Vec<usize>,
    /// Open batch → its slot in `chains`.
    slot_of: IdMap<u64, usize>,
    /// The batch resolved last: one batch's events come in runs (`ExecBegin`
    /// then `TaskStart{Body}`; `TaskFinish{Body}`, `ExecEnd`, completion), so
    /// most lookups skip the hash probe.
    hot: Option<(u64, usize)>,
    /// Fleet layer: latest group-formation instant per member.
    group_at: IdMap<InvocationId, SimTime>,
    /// Fleet layer: latest re-dispatch instant and retry count per member.
    redispatch: IdMap<InvocationId, (SimTime, u32)>,
    /// Gateway layer: instant the member's group was routed to a worker.
    route_at: IdMap<InvocationId, SimTime>,
}

/// Records `at` as the latest instant seen for each of `members`.
fn latest(map: &mut IdMap<InvocationId, SimTime>, members: &[InvocationId], at: SimTime) {
    for m in members {
        let slot = map.entry(*m).or_insert(at);
        *slot = (*slot).max(at);
    }
}

/// Removes `id`'s entry — without hashing when the layer that writes the
/// map never spoke (every single-worker stream).
fn take<V>(map: &mut IdMap<InvocationId, V>, id: InvocationId) -> Option<V> {
    if map.is_empty() {
        None
    } else {
        map.remove(&id)
    }
}

impl ChainFold {
    /// Ids that arrived but neither completed nor were rejected, ascending.
    pub(crate) fn open_invocations(&self) -> Vec<InvocationId> {
        let mut open: Vec<InvocationId> = self.arrivals.keys().copied().collect();
        open.sort_unstable();
        open
    }

    /// How many invocations are open.
    pub(crate) fn open_count(&self) -> usize {
        self.arrivals.len()
    }

    /// Folds one event.
    pub(crate) fn on_event(&mut self, event: &SimEvent) -> Step {
        let at = event.at;
        match &event.kind {
            EventKind::Arrival {
                invocation,
                function,
            } => {
                self.arrivals.insert(*invocation, (at, *function));
            }
            EventKind::GroupFormed { members, .. } => latest(&mut self.group_at, members, at),
            EventKind::GatewayRoute { members, .. } => latest(&mut self.route_at, members, at),
            // Terminal: no completion will follow.
            EventKind::GatewayReject { invocation, .. } => {
                self.arrivals.remove(invocation);
            }
            EventKind::Redispatch {
                invocation,
                retries,
                ..
            } => {
                let slot = self.redispatch.entry(*invocation).or_insert((at, 0));
                slot.0 = slot.0.max(at);
                slot.1 = slot.1.max(*retries);
            }
            EventKind::DispatchDecision {
                batch,
                container,
                cold,
                restored,
                members,
                ..
            } => {
                // A retired slot hands over its stamp array; with none free
                // the chain goes on the end of the slab.
                let slot = self.free.pop().unwrap_or(self.chains.len());
                let retired = self.chains.get_mut(slot);
                let mut stamps = retired.map_or_else(Vec::new, |c| std::mem::take(&mut c.members));
                stamps.clear();
                stamps.resize(members.len(), Stamps::default());
                let chain = Chain {
                    container: *container,
                    cold: *cold,
                    restored: *restored,
                    dispatched: at,
                    decided: None,
                    ready: None,
                    members: stamps,
                    completed: 0,
                };
                match self.chains.get_mut(slot) {
                    Some(retired) => *retired = chain,
                    None => self.chains.push(chain),
                }
                // A batch declared twice (a duplicated event) starts over.
                self.free.extend(self.slot_of.insert(*batch, slot));
                self.hot = Some((*batch, slot));
            }
            EventKind::TaskFinish {
                task: TaskKind::Decision { batch },
            } => {
                if let Some(chain) = self.chain_mut(*batch) {
                    chain.decided = Some(at);
                    // Warm batches are ready the instant the decision
                    // retires; cold and restored ones wait for their
                    // ColdStartEnd / RestoreDone.
                    if !chain.cold && !chain.restored {
                        chain.ready = Some(at);
                    }
                }
            }
            EventKind::ColdStartEnd {
                batch: Some(batch), ..
            }
            | EventKind::RestoreDone {
                batch: Some(batch), ..
            } => {
                if let Some(chain) = self.chain_mut(*batch) {
                    chain.ready = Some(at);
                }
            }
            EventKind::ExecBegin {
                batch,
                member,
                work,
            } => {
                return self.stamp(*batch, *member, |m| {
                    m.exec = Some(at);
                    m.work = *work;
                })
            }
            EventKind::TaskStart {
                task: TaskKind::Body { batch, member },
            } => return self.stamp(*batch, *member, |m| m.body_start = Some(at)),
            EventKind::TaskFinish {
                task: TaskKind::Body { batch, member },
            } => return self.stamp(*batch, *member, |m| m.body_finish = Some(at)),
            EventKind::ExecEnd { batch, member } => {
                return self.stamp(*batch, *member, |m| m.own_finish = Some(at))
            }
            EventKind::InvocationComplete {
                invocation,
                batch,
                member,
            } => return self.complete(at, *invocation, *batch, *member),
            _ => {}
        }
        Step::Quiet
    }

    /// The open chain of `batch`.
    fn chain_mut(&mut self, batch: u64) -> Option<&mut Chain> {
        let slot = match self.hot {
            Some((hot, slot)) if hot == batch => slot,
            _ => {
                let slot = *self.slot_of.get(&batch)?;
                self.hot = Some((batch, slot));
                slot
            }
        };
        self.chains.get_mut(slot)
    }

    /// Writes one stamp of `member` of `batch`. An undeclared batch is
    /// quiet (a log's head may be cut off); a member the declared batch
    /// does not have is reported.
    fn stamp(&mut self, batch: u64, member: u32, set: impl FnOnce(&mut Stamps)) -> Step {
        let Some(chain) = self.chain_mut(batch) else {
            return Step::Quiet;
        };
        let size = chain.members.len();
        match chain.members.get_mut(member as usize) {
            Some(stamps) => {
                set(stamps);
                Step::Quiet
            }
            None => Step::OutOfBatch {
                batch,
                member,
                size,
            },
        }
    }

    /// Closes `invocation`'s chain. Its arrival entry is taken up front, so
    /// the whole-chain path probes that map once; an incomplete chain puts
    /// it back and the invocation stays open.
    fn complete(
        &mut self,
        at: SimTime,
        invocation: InvocationId,
        batch: Option<u64>,
        member: Option<u32>,
    ) -> Step {
        let incomplete = |missing| Step::Incomplete {
            invocation,
            missing,
        };
        let Some(arrived) = self.arrivals.remove(&invocation) else {
            return incomplete(NO_ARRIVAL);
        };
        let folded = match (batch, member) {
            (Some(batch), Some(member)) => {
                self.complete_member(at, invocation, arrived, batch, member)
            }
            (None, None) => Ok(self.complete_fleet(at, invocation, arrived)),
            _ => Err("member index"),
        };
        folded.map_or_else(
            |missing| {
                self.arrivals.insert(invocation, arrived);
                incomplete(missing)
            },
            Step::Complete,
        )
    }

    /// Attributes a detailed (single-worker) completion, or names the
    /// first link its chain lacks.
    fn complete_member(
        &mut self,
        completion: SimTime,
        invocation: InvocationId,
        (arrival, function): (SimTime, FunctionId),
        batch: u64,
        member: u32,
    ) -> Result<InvocationAttribution, &'static str> {
        let chain = self.chain_mut(batch).ok_or("dispatch decision")?;
        let m = *chain.members.get(member as usize).ok_or("batch member")?;
        let (container, cold, restored) = (chain.container, chain.cold, chain.restored);
        let dispatched = chain.dispatched;
        let decided = chain.decided.ok_or("decision finish")?;
        let ready = chain.ready.ok_or("container ready")?;
        let exec = m.exec.ok_or("ExecBegin")?;
        let own_finish = m.own_finish.ok_or("ExecEnd")?;
        let body = m.body_start.unwrap_or(exec);
        let body_finish = m.body_finish.unwrap_or(body);
        // The chain is whole: count the member, retire the batch on its last.
        chain.completed += 1;
        if chain.completed == chain.members.len() {
            self.free.extend(self.slot_of.remove(&batch));
            self.hot = None;
        }

        // `routed` defaults to `arrival` and is clamped into the chain, so
        // gateway-queue is zero for streams without a gateway.
        let routed = take(&mut self.route_at, invocation)
            .unwrap_or(arrival)
            .max(arrival)
            .min(dispatched);
        // The decided → ready gap is the start overhead; the tier decides
        // which phase owns it. Warm starts have a zero gap.
        let start_gap = ready.saturating_duration_since(decided);
        let (cold_start, restore) = if restored {
            (SimDuration::ZERO, start_gap)
        } else {
            (start_gap, SimDuration::ZERO)
        };
        // The body span stretches beyond the intrinsic work under
        // processor sharing; the stretch is CPU contention, the rest
        // (work + any post-body op latency) is execution.
        let cpu_contention = body_finish
            .saturating_duration_since(body)
            .saturating_sub(m.work);
        Ok(InvocationAttribution {
            id: invocation,
            function,
            container: Some(container),
            batch: Some(batch),
            cold,
            restored,
            retries: 0,
            arrival,
            completion,
            phases: PhaseBreakdown {
                retry_delay: SimDuration::ZERO,
                gateway_queue: routed.saturating_duration_since(arrival),
                window_wait: dispatched.saturating_duration_since(routed),
                dispatch: decided.saturating_duration_since(dispatched),
                cold_start,
                restore,
                queue: exec.saturating_duration_since(ready),
                mux_wait: body.saturating_duration_since(exec),
                execution: own_finish
                    .saturating_duration_since(body)
                    .saturating_sub(cpu_contention),
                cpu_contention,
                barrier: completion.saturating_duration_since(own_finish),
            },
        })
    }

    /// Attributes a fleet-level completion: arrival ≤ last re-dispatch ≤
    /// routed (last group formed, clamped — a retried member can join a
    /// group whose first member arrived earlier) ≤ completion.
    fn complete_fleet(
        &mut self,
        completion: SimTime,
        invocation: InvocationId,
        (arrival, function): (SimTime, FunctionId),
    ) -> InvocationAttribution {
        let (redispatched, retries) =
            take(&mut self.redispatch, invocation).unwrap_or((arrival, 0));
        let redispatched = redispatched.max(arrival).min(completion);
        let routed = take(&mut self.group_at, invocation)
            .unwrap_or(redispatched)
            .max(redispatched)
            .min(completion);
        InvocationAttribution {
            id: invocation,
            function,
            container: None,
            batch: None,
            cold: false,
            restored: false,
            retries,
            arrival,
            completion,
            phases: PhaseBreakdown {
                retry_delay: redispatched.saturating_duration_since(arrival),
                window_wait: routed.saturating_duration_since(redispatched),
                execution: completion.saturating_duration_since(routed),
                ..PhaseBreakdown::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::{AttributionEngine, AttributionReport};
    use crate::events::{AuditorSink, EventKind, RecordReducer, SimEvent, TaskKind, TraceSink};
    use crate::latency::LatencyBreakdown;
    use faasbatch_container::ids::{ContainerId, FunctionId, InvocationId};
    use faasbatch_simcore::time::{SimDuration, SimTime};

    fn ev(us: u64, kind: EventKind) -> SimEvent {
        SimEvent::new(SimTime::from_micros(us), kind)
    }

    fn arrival(us: u64, inv: u64) -> SimEvent {
        let (invocation, function) = (InvocationId::new(inv), FunctionId::new(0));
        ev(
            us,
            EventKind::Arrival {
                invocation,
                function,
            },
        )
    }

    fn complete(us: u64, inv: u64, batch: u64, member: u32) -> SimEvent {
        ev(
            us,
            EventKind::InvocationComplete {
                invocation: InvocationId::new(inv),
                batch: Some(batch),
                member: Some(member),
            },
        )
    }

    /// Invocation 7 alone in warm batch 0: dispatched at 40, decided at
    /// 140, body 210–960 over 500 µs of work, released at 1060.
    fn whole() -> Vec<SimEvent> {
        let (batch, member) = (0, 0);
        let body = TaskKind::Body { batch, member };
        let decision = TaskKind::Decision { batch };
        vec![
            arrival(0, 7),
            ev(
                40,
                EventKind::DispatchDecision {
                    batch,
                    function: FunctionId::new(0),
                    container: ContainerId::new(1),
                    cold: false,
                    restored: false,
                    barrier: true,
                    members: vec![InvocationId::new(7)],
                },
            ),
            ev(40, EventKind::TaskStart { task: decision }),
            ev(140, EventKind::TaskFinish { task: decision }),
            ev(
                190,
                EventKind::ExecBegin {
                    batch,
                    member,
                    work: SimDuration::from_micros(500),
                },
            ),
            ev(210, EventKind::TaskStart { task: body }),
            ev(960, EventKind::TaskFinish { task: body }),
            ev(960, EventKind::ExecEnd { batch, member }),
            complete(1060, 7, batch, member),
        ]
    }

    /// Feeds `stream` to all three consumers of the fold: the auditor's
    /// violations, how many records the reducer yielded, and the report.
    fn consume(stream: &[SimEvent]) -> (Vec<String>, usize, AttributionReport) {
        let mut auditor = AuditorSink::new();
        let mut reducer = RecordReducer::new();
        let mut engine = AttributionEngine::new();
        let mut records = 0;
        for event in stream {
            auditor.record(event);
            records += usize::from(reducer.on_event(event).is_some());
            engine.record(event);
        }
        (auditor.finish().to_vec(), records, engine.finish())
    }

    #[test]
    fn a_whole_chain_yields_one_record_that_is_the_projection() {
        let (violations, records, report) = consume(&whole());
        assert_eq!(violations, Vec::<String>::new());
        assert_eq!((records, report.skipped, report.unfinished), (1, 0, 0));
        let a = &report.invocations[0];
        assert!(a.is_exact());
        let record = a
            .record()
            .expect("a detailed attribution names its container");
        assert_eq!(record.latency, LatencyBreakdown::from(&a.phases));
        assert_eq!(record.latency.end_to_end(), a.phases.total());
        assert_eq!(record.latency.scheduling, SimDuration::from_micros(140));
        assert_eq!(record.latency.queuing, SimDuration::from_micros(150));
        assert_eq!(record.latency.execution, SimDuration::from_micros(770));
    }

    /// The four streams that used to panic the auditor (and the reducer in
    /// it): each comes back as a named violation, no record, a skipped count.
    #[test]
    fn malformed_chains_are_violations_not_panics() {
        let without = |drop: fn(&EventKind) -> bool| -> Vec<SimEvent> {
            whole().into_iter().filter(|e| !drop(&e.kind)).collect()
        };
        let mut stray_member = whole();
        let stray = EventKind::ExecBegin {
            batch: 0,
            member: 3,
            work: SimDuration::ZERO,
        };
        stray_member.insert(4, ev(150, stray));
        let cases: [(&str, Vec<SimEvent>, &str, u64); 4] = [
            (
                "completion for an undeclared batch",
                vec![arrival(0, 9), complete(10, 9, 9, 0)],
                "inv#9 completed on an incomplete chain (no dispatch decision)",
                1,
            ),
            (
                "member index outside its batch",
                stray_member,
                "batch #0 member 3 outside a batch of 1",
                0,
            ),
            (
                "completion without arrival",
                without(|k| matches!(k, EventKind::Arrival { .. })),
                "inv#7 completed without arriving",
                1,
            ),
            (
                "completion before ExecBegin",
                without(|k| matches!(k, EventKind::ExecBegin { .. })),
                "inv#7 completed on an incomplete chain (no ExecBegin)",
                1,
            ),
        ];
        for (name, stream, violation, skipped) in cases {
            let (violations, records, report) = consume(&stream);
            assert!(
                violations.iter().any(|v| v.ends_with(violation)),
                "{name}: {violations:?}"
            );
            // A stray member index spoils nothing else: the chain is whole.
            let attributed = usize::from(skipped == 0);
            assert_eq!(records, attributed, "{name}");
            assert_eq!(report.invocations.len(), attributed, "{name}");
            assert_eq!(report.skipped, skipped, "{name}");
        }
    }

    #[test]
    fn completed_and_rejected_invocations_leave_nothing_open() {
        let mut reducer = RecordReducer::new();
        let mut stream = whole();
        stream.insert(1, arrival(10, 8));
        stream.insert(2, arrival(20, 5));
        stream.push(ev(
            1100,
            EventKind::GatewayReject {
                invocation: InvocationId::new(8),
                shard: 0,
                depth: 1,
            },
        ));
        for event in &stream[..5] {
            reducer.on_event(event);
        }
        let open: Vec<u64> = reducer
            .open_invocations()
            .iter()
            .map(|id| id.value())
            .collect();
        assert_eq!(open, [5, 7, 8], "ascending, all three still open");
        for event in &stream[5..] {
            reducer.on_event(event);
        }
        assert_eq!(reducer.open_invocations(), [InvocationId::new(5)]);
        let (_, _, report) = consume(&stream);
        assert_eq!(
            report.unfinished, 1,
            "a rejection is terminal, not unfinished"
        );
    }
}
