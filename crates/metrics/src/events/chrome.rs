//! The Chrome `about:tracing` / Perfetto export.

use super::span::{self, Edge, SpanKey, SpanLedger};
use super::{EventKind, SimEvent, TaskKind};
use faasbatch_container::ids::{ContainerId, InvocationId};
use faasbatch_simcore::time::SimTime;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;

/// Renders an event stream in Chrome `about:tracing` / Perfetto JSON.
///
/// CPU tasks, cold starts, and snapshot restores become complete (`"X"`)
/// duration slices by pairing their begin/end events (overlapping spans of
/// one key pair first in, first out); everything else, gateway enqueues and
/// admits included, becomes an instant (`"i"`) event. Timestamps are
/// microseconds, which is exactly [`SimTime::as_micros`], so the trace
/// plays back at simulated time.
///
/// Two higher-level overlays live on pid 1: every invocation gets an
/// arrival→completion slice (its own lane), and each fleet `GroupFormed`
/// becomes a marker slice on the router lane with flow arrows (`ph` `s`/`f`)
/// to every member's invocation slice, so group expansion renders as arrows
/// in `about:tracing`.
pub fn chrome_trace(events: &[SimEvent]) -> String {
    let mut buf = Vec::new();
    chrome_trace_to(events, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("chrome trace is valid UTF-8")
}

/// Streaming form of [`chrome_trace`]: renders straight into `out` line by
/// line, so exporting a full-day log never builds (or doubles) the whole
/// JSON document in memory.
pub fn chrome_trace_to(events: &[SimEvent], out: &mut dyn Write) -> std::io::Result<()> {
    fn push(
        out: &mut dyn Write,
        first: &mut bool,
        line: std::fmt::Arguments<'_>,
    ) -> std::io::Result<()> {
        if !*first {
            out.write_all(b",\n")?;
        }
        *first = false;
        out.write_fmt(line)
    }
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut first = true;
    let mut spans = SpanLedger::default();
    let mut arrivals: HashMap<InvocationId, SimTime> = HashMap::new();
    // member → every (flow id, formation time) of a group it was routed in.
    let mut member_groups: HashMap<InvocationId, Vec<(u64, SimTime)>> = HashMap::new();
    let mut group_seq = 0u64;
    for event in events {
        let ts = event.at.as_micros();
        match span::edge(&event.kind) {
            // Gateway queueing is drawn as its two instants below.
            None | Some(Edge::Open(SpanKey::Gateway(_)) | Edge::Close(SpanKey::Gateway(_))) => {}
            Some(Edge::Open(key)) => {
                spans.open(key, event.at);
                continue;
            }
            Some(Edge::Close(key)) => {
                if let Some(begin) = spans.close(&key) {
                    let (name, cat, tid, args) = slice(&key);
                    push(out, &mut first, format_args!(
                            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}",
                            begin.as_micros(),
                            ts - begin.as_micros(),
                        ))?;
                }
                continue;
            }
        }
        match &event.kind {
            EventKind::Arrival { invocation, .. } => {
                arrivals.insert(*invocation, event.at);
                let mut args = String::new();
                instant_args(&event.kind, &mut args);
                push(out, &mut first, format_args!(
                        "{{\"name\":\"Arrival\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{{args}}}}}"
                    ))?;
            }
            EventKind::GroupFormed {
                function,
                size,
                worker,
                members,
            } => {
                let id = group_seq;
                group_seq += 1;
                for m in members {
                    member_groups.entry(*m).or_default().push((id, event.at));
                }
                // Marker slice on the router lane (pid 1, tid 0) anchoring
                // the outgoing flow arrow.
                push(out, &mut first, format_args!(
                        "{{\"name\":\"GroupFormed\",\"cat\":\"fleet\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\"pid\":1,\"tid\":0,\"args\":{{\"function\":{},\"size\":{size},\"worker\":{worker}}}}}",
                        function.index()
                    ))?;
                push(out, &mut first, format_args!(
                        "{{\"name\":\"group\",\"cat\":\"fleet\",\"ph\":\"s\",\"id\":{id},\"ts\":{ts},\"pid\":1,\"tid\":0}}"
                    ))?;
            }
            EventKind::InvocationComplete { invocation, .. } => {
                if let Some(arrival) = arrivals.get(invocation) {
                    // Invocation lane on pid 1; tid 0 is the router lane,
                    // so invocation lanes start at 1.
                    let tid = invocation.value() + 1;
                    let begin = arrival.as_micros();
                    push(out, &mut first, format_args!(
                            "{{\"name\":\"Invocation\",\"cat\":\"invocation\",\"ph\":\"X\",\"ts\":{begin},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"invocation\":{}}}}}",
                            ts - begin,
                            invocation.value(),
                        ))?;
                    for (id, formed) in member_groups.remove(invocation).unwrap_or_default() {
                        // Bind the arrow inside the invocation slice: the
                        // group formed at or before this completion, so the
                        // clamp keeps the flow terminus enclosed.
                        let bind = formed.max(*arrival).as_micros().min(ts);
                        push(out, &mut first, format_args!(
                                "{{\"name\":\"group\",\"cat\":\"fleet\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{bind},\"pid\":1,\"tid\":{tid}}}"
                            ))?;
                    }
                }
                let mut args = String::new();
                instant_args(&event.kind, &mut args);
                push(out, &mut first, format_args!(
                        "{{\"name\":\"InvocationComplete\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{{args}}}}}"
                    ))?;
            }
            EventKind::HostSample {
                memory_bytes,
                busy_cores,
                live_containers,
            } => {
                push(out, &mut first, format_args!(
                        "{{\"name\":\"host\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"memory_bytes\":{memory_bytes},\"busy_cores\":{busy_cores},\"live_containers\":{live_containers}}}}}"
                    ))?;
            }
            other => {
                let name = other.name();
                let mut args = String::new();
                instant_args(other, &mut args);
                push(out, &mut first, format_args!(
                        "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{{args}}}}}"
                    ))?;
            }
        }
    }
    out.write_all(b"\n]}\n")?;
    Ok(())
}

/// Name, category, thread id and `args` body of a span's slice.
/// Containers get their own lane; daemon-side work shares lane 0. Gateway
/// queueing has no slice: [`chrome_trace_to`] draws its two instants.
fn slice(key: &SpanKey) -> (&'static str, &'static str, u64, String) {
    match *key {
        SpanKey::Task(task) => {
            let tid = match task {
                TaskKind::PrewarmLaunch { container } | TaskKind::PrewarmBoot { container } => {
                    container.value()
                }
                _ => 0,
            };
            let (name, args) = task_name_args(&task);
            (name, "task", tid, args)
        }
        SpanKey::ColdStart(c) => ("ColdStart", "container", c.value(), container_args(c)),
        SpanKey::Restore(c) => ("Restore", "container", c.value(), container_args(c)),
        SpanKey::Gateway(_) => unreachable!("gateway queueing is drawn as two instants"),
    }
}

fn container_args(c: ContainerId) -> String {
    format!("\"container\":{}", c.value())
}

/// Name and `args` body for a task slice.
fn task_name_args(task: &TaskKind) -> (&'static str, String) {
    match task {
        TaskKind::Decision { batch } => ("Decision", format!("\"batch\":{batch}")),
        TaskKind::ColdBoot { batch } => ("ColdBoot", format!("\"batch\":{batch}")),
        TaskKind::ClientCreation { batch, member } => (
            "ClientCreation",
            format!("\"batch\":{batch},\"member\":{member}"),
        ),
        TaskKind::Body { batch, member } => {
            ("Body", format!("\"batch\":{batch},\"member\":{member}"))
        }
        TaskKind::PrewarmLaunch { container } => (
            "PrewarmLaunch",
            format!("\"container\":{}", container.value()),
        ),
        TaskKind::PrewarmBoot { container } => (
            "PrewarmBoot",
            format!("\"container\":{}", container.value()),
        ),
        TaskKind::Overhead => ("Overhead", String::new()),
    }
}

/// Key numeric fields for an instant event's `args` body.
fn instant_args(kind: &EventKind, out: &mut String) {
    match kind {
        EventKind::Arrival {
            invocation,
            function,
        } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"function\":{}",
                invocation.value(),
                function.index()
            );
        }
        EventKind::DispatchDecision {
            batch,
            container,
            cold,
            restored,
            ..
        } => {
            let _ = write!(
                out,
                "\"batch\":{batch},\"container\":{},\"cold\":{cold},\"restored\":{restored}",
                container.value()
            );
        }
        EventKind::InvocationComplete { invocation, .. } => {
            let _ = write!(out, "\"invocation\":{}", invocation.value());
        }
        EventKind::ContainerStateChange { container, to, .. } => {
            let _ = write!(out, "\"container\":{},\"to\":\"{to:?}\"", container.value());
        }
        EventKind::WorkerCrash { worker } => {
            let _ = write!(out, "\"worker\":{worker}");
        }
        EventKind::Redispatch {
            invocation,
            from_worker,
            retries,
        } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"from_worker\":{from_worker},\"retries\":{retries}",
                invocation.value()
            );
        }
        EventKind::GroupFormed {
            function,
            size,
            worker,
            ..
        } => {
            let _ = write!(
                out,
                "\"function\":{},\"size\":{size},\"worker\":{worker}",
                function.index()
            );
        }
        EventKind::MemAlloc { bytes, total, .. } | EventKind::MemFree { bytes, total, .. } => {
            let _ = write!(out, "\"bytes\":{bytes},\"total\":{total}");
        }
        EventKind::ScalePrewarm { function, count } => {
            let _ = write!(out, "\"function\":{},\"count\":{count}", function.index());
        }
        EventKind::ScaleKeepAlive {
            function,
            keep_alive,
        } => {
            let _ = write!(
                out,
                "\"function\":{},\"keep_alive_us\":{}",
                function.index(),
                keep_alive.as_micros()
            );
        }
        EventKind::GatewayEnqueue { invocation, shard }
        | EventKind::GatewayAdmit { invocation, shard } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"shard\":{shard}",
                invocation.value()
            );
        }
        EventKind::GatewayReject {
            invocation,
            shard,
            depth,
        } => {
            let _ = write!(
                out,
                "\"invocation\":{},\"shard\":{shard},\"depth\":{depth}",
                invocation.value()
            );
        }
        EventKind::GatewayRoute {
            function,
            shard,
            worker,
            members,
        } => {
            let _ = write!(
                out,
                "\"function\":{},\"shard\":{shard},\"worker\":{worker},\"size\":{}",
                function.index(),
                members.len()
            );
        }
        _ => {}
    }
}
