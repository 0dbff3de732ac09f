use super::*;

fn ev(us: u64, kind: EventKind) -> SimEvent {
    SimEvent::new(SimTime::from_micros(us), kind)
}

fn arrival(us: u64, inv: u64) -> SimEvent {
    ev(
        us,
        EventKind::Arrival {
            invocation: InvocationId::new(inv),
            function: FunctionId::new(0),
        },
    )
}

/// A minimal warm single-member batch: arrive, dispatch, decide,
/// execute, complete. Returns the full stream.
fn tiny_run() -> Vec<SimEvent> {
    vec![
        arrival(0, 7),
        ev(
            0,
            EventKind::DispatchDecision {
                batch: 0,
                function: FunctionId::new(0),
                container: ContainerId::new(1),
                cold: false,
                restored: false,
                barrier: false,
                members: vec![InvocationId::new(7)],
            },
        ),
        ev(
            0,
            EventKind::TaskStart {
                task: TaskKind::Decision { batch: 0 },
            },
        ),
        ev(
            100,
            EventKind::TaskFinish {
                task: TaskKind::Decision { batch: 0 },
            },
        ),
        ev(
            150,
            EventKind::ExecBegin {
                batch: 0,
                member: 0,
                work: SimDuration::from_micros(750),
            },
        ),
        ev(
            900,
            EventKind::ExecEnd {
                batch: 0,
                member: 0,
            },
        ),
        ev(
            900,
            EventKind::InvocationComplete {
                invocation: InvocationId::new(7),
                batch: Some(0),
                member: Some(0),
            },
        ),
    ]
}

#[test]
fn reducer_reproduces_latency_decomposition() {
    let mut reducer = RecordReducer::new();
    let mut record = None;
    for event in tiny_run() {
        if let Some(r) = reducer.on_event(&event) {
            record = Some(r);
        }
    }
    let r = record.expect("record produced");
    assert_eq!(r.id, InvocationId::new(7));
    assert_eq!(r.latency.scheduling, SimDuration::from_micros(100));
    assert_eq!(r.latency.cold_start, SimDuration::ZERO);
    assert_eq!(r.latency.queuing, SimDuration::from_micros(50));
    assert_eq!(r.latency.execution, SimDuration::from_micros(750));
    assert!(r.is_consistent());
    let reduced = reducer.finish();
    assert_eq!(reduced.records.len(), 1);
    assert_eq!(reduced.first_arrival, SimTime::ZERO);
    assert_eq!(reduced.last_completion, SimTime::from_micros(900));
}

#[test]
fn cold_start_component_spans_decision_to_ready() {
    let mut reducer = RecordReducer::new();
    let stream = vec![
        arrival(0, 1),
        ev(
            0,
            EventKind::DispatchDecision {
                batch: 0,
                function: FunctionId::new(0),
                container: ContainerId::new(1),
                cold: true,
                restored: false,
                barrier: false,
                members: vec![InvocationId::new(1)],
            },
        ),
        ev(
            50,
            EventKind::TaskFinish {
                task: TaskKind::Decision { batch: 0 },
            },
        ),
        ev(
            450,
            EventKind::ColdStartEnd {
                container: ContainerId::new(1),
                batch: Some(0),
            },
        ),
        ev(
            450,
            EventKind::ExecBegin {
                batch: 0,
                member: 0,
                work: SimDuration::from_micros(200),
            },
        ),
        ev(
            650,
            EventKind::ExecEnd {
                batch: 0,
                member: 0,
            },
        ),
        ev(
            650,
            EventKind::InvocationComplete {
                invocation: InvocationId::new(1),
                batch: Some(0),
                member: Some(0),
            },
        ),
    ];
    let mut record = None;
    for event in &stream {
        if let Some(r) = reducer.on_event(event) {
            record = Some(r);
        }
    }
    let r = record.unwrap();
    assert!(r.cold);
    assert_eq!(r.latency.cold_start, SimDuration::from_micros(400));
    assert_eq!(r.latency.queuing, SimDuration::ZERO);
}

#[test]
fn restore_fills_the_cold_start_component_with_a_short_span() {
    let mut reducer = RecordReducer::new();
    let stream = vec![
        arrival(0, 1),
        ev(
            0,
            EventKind::DispatchDecision {
                batch: 0,
                function: FunctionId::new(0),
                container: ContainerId::new(1),
                cold: false,
                restored: true,
                barrier: false,
                members: vec![InvocationId::new(1)],
            },
        ),
        ev(
            0,
            EventKind::TaskStart {
                task: TaskKind::Decision { batch: 0 },
            },
        ),
        ev(
            50,
            EventKind::TaskFinish {
                task: TaskKind::Decision { batch: 0 },
            },
        ),
        ev(
            50,
            EventKind::RestoreBegin {
                container: ContainerId::new(1),
                batch: Some(0),
            },
        ),
        ev(
            89,
            EventKind::RestoreDone {
                container: ContainerId::new(1),
                batch: Some(0),
            },
        ),
        ev(
            89,
            EventKind::ExecBegin {
                batch: 0,
                member: 0,
                work: SimDuration::from_micros(200),
            },
        ),
        ev(
            289,
            EventKind::ExecEnd {
                batch: 0,
                member: 0,
            },
        ),
        ev(
            289,
            EventKind::InvocationComplete {
                invocation: InvocationId::new(1),
                batch: Some(0),
                member: Some(0),
            },
        ),
    ];
    let mut record = None;
    for event in &stream {
        if let Some(r) = reducer.on_event(event) {
            record = Some(r);
        }
    }
    let r = record.unwrap();
    assert!(!r.cold, "a restore is not a full cold boot");
    assert!(r.restored);
    assert_eq!(r.latency.cold_start, SimDuration::from_micros(39));
    assert_eq!(r.latency.queuing, SimDuration::ZERO);
    assert!(r.is_consistent());

    let mut auditor = AuditorSink::new();
    for event in &stream {
        auditor.record(event);
    }
    assert_eq!(auditor.finish(), &[] as &[String]);
}

#[test]
fn auditor_flags_unbalanced_restores() {
    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::RestoreBegin {
            container: ContainerId::new(4),
            batch: Some(0),
        },
    ));
    let violations = auditor.finish();
    assert!(
        violations.iter().any(|v| v.contains("restore never ended")),
        "{violations:?}"
    );

    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::RestoreDone {
            container: ContainerId::new(4),
            batch: Some(0),
        },
    ));
    assert!(auditor
        .violations()
        .iter()
        .any(|v| v.contains("restore ended without beginning")));
}

#[test]
fn pre_snapshot_logs_deserialize_with_restored_false() {
    // A DispatchDecision line written before the `restored` field
    // existed must still parse (defaulting to a non-restored start).
    let old = r#"{"at":0,"kind":{"DispatchDecision":{"batch":0,"function":0,"container":1,"cold":true,"barrier":false,"members":[7]}}}"#;
    let event: SimEvent = serde_json::from_str(old).expect("old log line parses");
    assert!(matches!(
        event.kind,
        EventKind::DispatchDecision {
            cold: true,
            restored: false,
            ..
        }
    ));
}

#[test]
fn chrome_trace_pairs_restore_slices() {
    let stream = vec![
        ev(
            10,
            EventKind::RestoreBegin {
                container: ContainerId::new(2),
                batch: Some(0),
            },
        ),
        ev(
            49,
            EventKind::RestoreDone {
                container: ContainerId::new(2),
                batch: Some(0),
            },
        ),
    ];
    let json = chrome_trace(&stream);
    assert!(json.contains("\"name\":\"Restore\""));
    assert!(json.contains("\"dur\":39"));
}

#[test]
fn jsonl_sink_writes_one_object_per_line() {
    let buffer: Vec<u8> = Vec::new();
    let mut sink = JsonlSink::new(Box::new(buffer));
    for event in tiny_run() {
        sink.record(&event);
    }
    assert_eq!(sink.lines(), 7);
    assert_eq!(sink.io_errors(), 0);
}

#[test]
fn auditor_passes_a_clean_stream() {
    let mut auditor = AuditorSink::new();
    for event in tiny_run() {
        auditor.record(&event);
    }
    assert_eq!(auditor.finish(), &[] as &[String]);
}

#[test]
fn auditor_flags_missing_completion() {
    let mut auditor = AuditorSink::new();
    auditor.record(&arrival(0, 3));
    let violations = auditor.finish();
    assert_eq!(violations.len(), 1);
    assert!(violations[0].contains("never completed"));
}

#[test]
fn auditor_flags_double_completion_and_time_reversal() {
    let mut auditor = AuditorSink::new();
    for event in tiny_run() {
        auditor.record(&event);
    }
    auditor.record(&ev(
        800, // < 900: time reversal
        EventKind::InvocationComplete {
            invocation: InvocationId::new(7),
            batch: None,
            member: None,
        },
    ));
    let violations = auditor.finish();
    assert!(violations.iter().any(|v| v.contains("time went backwards")));
    assert!(violations.iter().any(|v| v.contains("completed 2 times")));
}

#[test]
fn auditor_flags_illegal_container_transition() {
    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::ContainerStateChange {
            container: ContainerId::new(1),
            from: None,
            to: ContainerState::Busy,
        },
    ));
    assert!(auditor.violations()[0].contains("illegal transition"));
}

#[test]
fn auditor_flags_negative_memory() {
    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::MemFree {
            category: MemCategory::Client,
            bytes: 64,
            total: 0,
        },
    ));
    assert!(auditor
        .violations()
        .iter()
        .any(|v| v.contains("went negative")));
}

#[test]
fn auditor_matches_scale_prewarms_to_launches() {
    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::ScalePrewarm {
            function: FunctionId::new(0),
            count: 2,
        },
    ));
    for c in [1, 2] {
        auditor.record(&ev(
            0,
            EventKind::TaskStart {
                task: TaskKind::PrewarmLaunch {
                    container: ContainerId::new(c),
                },
            },
        ));
    }
    for c in [1, 2] {
        auditor.record(&ev(
            5,
            EventKind::TaskFinish {
                task: TaskKind::PrewarmLaunch {
                    container: ContainerId::new(c),
                },
            },
        ));
    }
    assert_eq!(auditor.finish(), &[] as &[String]);
}

#[test]
fn auditor_flags_unmatched_scale_prewarm() {
    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::ScalePrewarm {
            function: FunctionId::new(0),
            count: 3,
        },
    ));
    let violations = auditor.finish();
    assert!(
        violations
            .iter()
            .any(|v| v.contains("never launched a container")),
        "{violations:?}"
    );
}

#[test]
fn auditor_flags_degenerate_scale_actions() {
    let mut auditor = AuditorSink::new();
    auditor.record(&ev(
        0,
        EventKind::ScalePrewarm {
            function: FunctionId::new(0),
            count: 0,
        },
    ));
    auditor.record(&ev(
        1,
        EventKind::ScaleKeepAlive {
            function: FunctionId::new(0),
            keep_alive: SimDuration::ZERO,
        },
    ));
    let violations = auditor.finish();
    assert!(violations.iter().any(|v| v.contains("zero containers")));
    assert!(violations.iter().any(|v| v.contains("zero keep-alive")));
}

#[test]
fn multi_sink_fans_out() {
    let mut multi = MultiSink::new(vec![Box::new(VecSink::new()), Box::new(VecSink::new())]);
    for event in tiny_run() {
        multi.record(&event);
    }
    for sink in multi.into_sinks() {
        let vec = sink.as_any().downcast_ref::<VecSink>().expect("vec");
        assert_eq!(vec.events(), tiny_run());
    }
}

#[test]
fn chrome_trace_pairs_task_slices() {
    let stream = vec![
        ev(
            10,
            EventKind::TaskStart {
                task: TaskKind::Body {
                    batch: 0,
                    member: 0,
                },
            },
        ),
        ev(
            60,
            EventKind::TaskFinish {
                task: TaskKind::Body {
                    batch: 0,
                    member: 0,
                },
            },
        ),
        arrival(70, 1),
    ];
    let json = chrome_trace(&stream);
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"dur\":50"));
    assert!(json.contains("\"ph\":\"i\""));
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
}

#[test]
fn events_serialize_deterministically() {
    let a = serde_json::to_string(&tiny_run()).unwrap();
    let b = serde_json::to_string(&tiny_run()).unwrap();
    assert_eq!(a, b);
    assert!(a.contains("\"Arrival\""));
}

/// One event per `EventKind` variant, every field non-default.
fn every_variant() -> Vec<SimEvent> {
    let f = FunctionId::new(3);
    let c = ContainerId::new(9);
    let i = InvocationId::new(41);
    let kinds = vec![
        EventKind::Arrival {
            invocation: i,
            function: f,
        },
        EventKind::GroupFormed {
            function: f,
            size: 2,
            worker: 1,
            members: vec![i, InvocationId::new(42)],
        },
        EventKind::DispatchDecision {
            batch: 5,
            function: f,
            container: c,
            cold: true,
            restored: true,
            barrier: true,
            members: vec![i],
        },
        EventKind::ColdStartBegin {
            container: c,
            batch: Some(5),
        },
        EventKind::ColdStartEnd {
            container: c,
            batch: None,
        },
        EventKind::RestoreBegin {
            container: c,
            batch: Some(5),
        },
        EventKind::RestoreDone {
            container: c,
            batch: None,
        },
        EventKind::ContainerStateChange {
            container: c,
            from: Some(ContainerState::Provisioning),
            to: ContainerState::Idle,
        },
        EventKind::TaskStart {
            task: TaskKind::Decision { batch: 5 },
        },
        EventKind::TaskFinish {
            task: TaskKind::ColdBoot { batch: 5 },
        },
        EventKind::TaskFinish {
            task: TaskKind::ClientCreation {
                batch: 5,
                member: 1,
            },
        },
        EventKind::TaskFinish {
            task: TaskKind::Body {
                batch: 5,
                member: 1,
            },
        },
        EventKind::TaskFinish {
            task: TaskKind::PrewarmLaunch { container: c },
        },
        EventKind::TaskFinish {
            task: TaskKind::PrewarmBoot { container: c },
        },
        EventKind::TaskFinish {
            task: TaskKind::Overhead,
        },
        EventKind::ExecBegin {
            batch: 5,
            member: 1,
            work: SimDuration::from_micros(123),
        },
        EventKind::ExecEnd {
            batch: 5,
            member: 1,
        },
        EventKind::ClientCacheHit {
            container: c,
            key: 77,
        },
        EventKind::ClientCacheMiss {
            container: c,
            key: 77,
        },
        EventKind::ClientCreateBegin {
            container: c,
            batch: 5,
            member: 1,
        },
        EventKind::ClientCreateEnd {
            container: c,
            batch: 5,
            member: 1,
            bytes: 4096,
        },
        EventKind::MemAlloc {
            category: MemCategory::Client,
            bytes: 4096,
            total: 8192,
        },
        EventKind::MemFree {
            category: MemCategory::Container,
            bytes: 4096,
            total: 4096,
        },
        EventKind::WorkerCrash { worker: 2 },
        EventKind::Redispatch {
            invocation: i,
            from_worker: 2,
            retries: 1,
        },
        EventKind::HostSample {
            memory_bytes: 1 << 20,
            busy_cores: 3.5,
            live_containers: 4,
        },
        EventKind::InvocationComplete {
            invocation: i,
            batch: Some(5),
            member: Some(1),
        },
        EventKind::ScalePrewarm {
            function: f,
            count: 2,
        },
        EventKind::ScaleKeepAlive {
            function: f,
            keep_alive: SimDuration::from_secs(30),
        },
        EventKind::GatewayEnqueue {
            invocation: i,
            shard: 3,
        },
        EventKind::GatewayAdmit {
            invocation: i,
            shard: 3,
        },
        EventKind::GatewayReject {
            invocation: InvocationId::new(43),
            shard: 3,
            depth: 1024,
        },
        EventKind::GatewayRoute {
            function: f,
            shard: 3,
            worker: 1,
            members: vec![i, InvocationId::new(42)],
        },
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(n, kind)| ev(n as u64, kind))
        .collect()
}

#[test]
fn every_event_kind_round_trips_through_json() {
    for event in every_variant() {
        let json = serde_json::to_string(&event).unwrap();
        let back: SimEvent = serde_json::from_str(&json).unwrap_or_else(|e| {
            panic!("event {json} failed to parse: {e}");
        });
        assert_eq!(back, event, "round trip changed {json}");
    }
}

#[test]
fn deserialize_rejects_an_unknown_variant() {
    let bad_variant = r#"{"at":0,"kind":{"Nonsense":{"x":1}}}"#;
    let err = serde_json::from_str::<SimEvent>(bad_variant).unwrap_err();
    assert!(err
        .to_string()
        .contains("unknown variant `Nonsense` of `EventKind`"));
}

#[test]
fn deserialize_rejects_an_unknown_memory_category() {
    let bad_category = r#"{"at":0,"kind":{"MemAlloc":{"category":"heap","bytes":1,"total":1}}}"#;
    let err = serde_json::from_str::<SimEvent>(bad_category).unwrap_err();
    assert!(err.to_string().contains("unknown memory category `heap`"));
    // The serialised form is the bare lower-case name, not a variant tag.
    let good = bad_category.replace("heap", "platform");
    let event: SimEvent = serde_json::from_str(&good).unwrap();
    assert_eq!(serde_json::to_string(&event).unwrap(), good);
}

#[test]
fn chrome_trace_links_groups_to_invocation_slices() {
    let group = ev(
        5,
        EventKind::GroupFormed {
            function: FunctionId::new(0),
            size: 1,
            worker: 0,
            members: vec![InvocationId::new(7)],
        },
    );
    let complete = ev(
        900,
        EventKind::InvocationComplete {
            invocation: InvocationId::new(7),
            batch: None,
            member: None,
        },
    );
    let json = chrome_trace(&[arrival(0, 7), group, complete]);
    assert!(json.contains("\"ph\":\"s\""), "flow start missing: {json}");
    assert!(json.contains("\"ph\":\"f\""), "flow finish missing: {json}");
    assert!(json.contains("\"name\":\"Invocation\""));
    // The flow terminus binds inside the invocation slice's span.
    assert!(json.contains("\"bp\":\"e\""));
}

#[test]
fn chrome_trace_draws_every_overlapping_task_from_its_own_begin() {
    let overhead = |us, start| {
        let task = TaskKind::Overhead;
        ev(
            us,
            if start {
                EventKind::TaskStart { task }
            } else {
                EventKind::TaskFinish { task }
            },
        )
    };
    let stream = [
        overhead(10, true),
        overhead(20, true),
        overhead(30, true),
        overhead(40, false),
        overhead(55, false),
        overhead(70, false),
    ];
    let json = chrome_trace(&stream);
    let slices: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"name\":\"Overhead\""))
        .collect();
    assert_eq!(slices.len(), 3, "{json}");
    // First in, first out: each finish closes the oldest open task.
    for (slice, (ts, dur)) in slices.iter().zip([(10, 30), (20, 35), (30, 40)]) {
        assert!(
            slice.contains(&format!("\"ts\":{ts},\"dur\":{dur},")),
            "{slice}"
        );
    }
}

#[test]
fn auditor_stamps_a_span_left_open_at_the_instant_it_opened() {
    let mut auditor = AuditorSink::new();
    auditor.record(&arrival(1, 4));
    auditor.record(&ev(
        3,
        EventKind::GatewayEnqueue {
            invocation: InvocationId::new(4),
            shard: 0,
        },
    ));
    for us in [5, 6] {
        auditor.record(&ev(
            us,
            EventKind::TaskStart {
                task: TaskKind::Overhead,
            },
        ));
    }
    auditor.record(&ev(
        7,
        EventKind::ColdStartBegin {
            container: ContainerId::new(1),
            batch: None,
        },
    ));
    auditor.record(&ev(
        9,
        EventKind::RestoreBegin {
            container: ContainerId::new(2),
            batch: Some(0),
        },
    ));
    assert_eq!(auditor.open_spans(), 5);
    let violations = auditor.finish();
    for expected in [
        "[0.000005s] task Overhead left open 2 time(s)",
        "[0.000007s] ctr#1 cold start never ended",
        "[0.000009s] ctr#2 restore never ended",
        "[0.000003s] inv#4 enqueued on a gateway shard but never admitted",
    ] {
        assert!(violations.iter().any(|v| v == expected), "{violations:?}");
    }
}

#[test]
fn auditor_stamps_end_of_stream_leftovers_at_their_own_instants() {
    let mut auditor = AuditorSink::new();
    auditor.record(&arrival(5_000_000, 3));
    auditor.record(&ev(
        6_000_000,
        EventKind::ScalePrewarm {
            function: FunctionId::new(0),
            count: 2,
        },
    ));
    assert_eq!(
        auditor.finish(),
        [
            "[5.000000s] inv#3 arrived but never completed",
            "[6.000000s] 2 scale-prewarm request(s) never launched a container",
        ]
    );

    // Launches consume requests oldest first; the leftover count is the
    // total, stamped at the oldest request still waiting.
    let mut auditor = AuditorSink::new();
    for (us, count) in [(1, 2), (4, 3)] {
        auditor.record(&ev(
            us,
            EventKind::ScalePrewarm {
                function: FunctionId::new(0),
                count,
            },
        ));
    }
    for container in 0..3 {
        auditor.record(&ev(
            7 + container,
            EventKind::TaskStart {
                task: TaskKind::PrewarmLaunch {
                    container: ContainerId::new(container),
                },
            },
        ));
        auditor.record(&ev(
            7 + container,
            EventKind::TaskFinish {
                task: TaskKind::PrewarmLaunch {
                    container: ContainerId::new(container),
                },
            },
        ));
    }
    assert_eq!(
        auditor.finish(),
        ["[0.000004s] 2 scale-prewarm request(s) never launched a container"]
    );
}

#[test]
fn reducer_counts_the_spans_the_auditor_holds_open() {
    let mut reducer = RecordReducer::new();
    let mut auditor = AuditorSink::new();
    let stream = [
        ev(
            0,
            EventKind::TaskStart {
                task: TaskKind::Overhead,
            },
        ),
        ev(
            1,
            EventKind::TaskStart {
                task: TaskKind::Overhead,
            },
        ),
        ev(
            2,
            EventKind::ColdStartBegin {
                container: ContainerId::new(1),
                batch: None,
            },
        ),
        ev(
            3,
            EventKind::TaskFinish {
                task: TaskKind::Overhead,
            },
        ),
    ];
    for event in &stream {
        reducer.on_event(event);
        auditor.record(event);
        assert_eq!(reducer.open_spans(), auditor.open_spans(), "{event:?}");
    }
    assert_eq!(reducer.open_spans(), 2);
}
