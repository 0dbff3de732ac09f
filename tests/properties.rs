//! Property-based tests on the core invariants listed in DESIGN.md §4.

use faasbatch::container::ids::{ContainerId, FunctionId, InvocationId};
use faasbatch::container::pool::WarmPool;
use faasbatch::core::mapper::InvokeMapper;
use faasbatch::core::multiplexer::ResourceMultiplexer;
use faasbatch::metrics::stats::Cdf;
use faasbatch::schedulers::kraken::{Kraken, KrakenCalibration};
use faasbatch::simcore::cpu::CpuModel;
use faasbatch::simcore::engine::{Engine, EventArg};
use faasbatch::simcore::memory::{MemCategory, MemoryLedger};
use faasbatch::simcore::time::{SimDuration, SimTime};
use faasbatch::trace::duration::DurationDistribution;
use faasbatch::trace::workload::Invocation;
use proptest::prelude::*;

proptest! {
    /// Weighted CPU allocation: never exceeds capacity, never exceeds any
    /// group's cap, and is work-conserving (full host whenever demand
    /// exceeds capacity).
    #[test]
    fn weighted_allocation_respects_caps_and_conserves(
        groups in proptest::collection::vec((1u32..6, 1u32..50, 1u32..200), 1..20),
    ) {
        let cores = 8.0;
        let mut cpu = CpuModel::new(cores);
        let mut total_demand = 0.0;
        let mut handles = Vec::new();
        for &(cap, weight, tasks) in &groups {
            let g = cpu.create_group(Some(cap as f64));
            cpu.set_group_weight(SimTime::ZERO, g, weight as f64);
            let n = (tasks % 5) + 1;
            let ids: Vec<_> = (0..n)
                .map(|_| cpu.add_task(SimTime::ZERO, g, SimDuration::from_millis(100)))
                .collect();
            total_demand += (cap as f64).min(n as f64);
            handles.push((cap, ids));
        }
        let busy = cpu.busy_cores();
        prop_assert!(busy <= cores + 1e-9, "over capacity: {busy}");
        prop_assert!(
            busy <= total_demand + 1e-9,
            "allocated beyond demand: {busy} > {total_demand}"
        );
        let expected = cores.min(total_demand);
        prop_assert!(
            (busy - expected).abs() < 1e-6,
            "not work-conserving: busy {busy}, expected {expected}"
        );
        // Per-group cap: sum of task rates in each group ≤ its cap.
        for (cap, ids) in &handles {
            let rate: f64 = ids
                .iter()
                .map(|&t| cpu.task_rate(t).expect("task is runnable"))
                .sum();
            prop_assert!(rate <= *cap as f64 + 1e-9, "group over its cap: {rate} > {cap}");
        }
    }

    /// CPU model: tasks of equal work in one group complete in arrival
    /// order, whatever else shares the host and whenever they joined.
    #[test]
    fn equal_work_tasks_complete_in_arrival_order(
        cores in 1u32..8,
        work_ms in 1u64..400,
        gaps_us in proptest::collection::vec(0u64..30_000, 2..40),
        noise in proptest::collection::vec((1u64..500, 0u64..400_000), 0..20),
    ) {
        let mut cpu = CpuModel::new(cores as f64);
        let watched = cpu.create_group(None);
        let other = cpu.create_group(Some(2.0));
        // Arrivals of the equal-work tasks (`true`) and of unrelated work.
        let mut arrivals: Vec<(u64, bool, u64)> = gaps_us
            .iter()
            .scan(0, |at, gap| {
                *at += gap;
                Some((*at, true, work_ms))
            })
            .chain(noise.iter().map(|&(work, at)| (at, false, work)))
            .collect();
        arrivals.sort_by_key(|&(at, ..)| at);
        let mut expected = Vec::new();
        let mut finished = Vec::new();
        let mut now = SimTime::ZERO;
        let mut run_until = |cpu: &mut CpuModel, until: Option<SimTime>| {
            while let Some((t, _)) = cpu.next_completion(now) {
                if until.is_some_and(|u| t > u) {
                    break;
                }
                now = t;
                finished.extend_from_slice(cpu.advance_to(now));
            }
            if let Some(u) = until {
                now = u;
                finished.extend_from_slice(cpu.advance_to(now));
            }
        };
        for (at, equal, work) in arrivals {
            run_until(&mut cpu, Some(SimTime::from_micros(at)));
            let group = if equal { watched } else { other };
            let id = cpu.add_task(SimTime::from_micros(at), group, SimDuration::from_millis(work));
            if equal {
                expected.push(id);
            }
        }
        run_until(&mut cpu, None);
        finished.retain(|id| expected.contains(id));
        prop_assert_eq!(finished, expected);
    }

    /// Kraken's packer is a partition: every queued invocation lands in
    /// exactly one batch, order preserved within batches, and no batch is
    /// empty.
    #[test]
    fn kraken_pack_partitions(
        n in 1usize..60,
        slo_ms in 50u64..5_000,
        exec_ms in 1u64..500,
        warm in 0usize..10,
    ) {
        let f = FunctionId::new(0);
        let mut cal = KrakenCalibration::default();
        cal.slo.insert(f, SimDuration::from_millis(slo_ms));
        cal.mean_exec.insert(f, SimDuration::from_millis(exec_ms));
        let kraken = Kraken::new(cal, SimDuration::from_millis(200));
        let queue: Vec<Invocation> = (0..n as u64)
            .map(|i| Invocation {
                id: InvocationId::new(i),
                function: f,
                arrival: SimTime::from_millis(i),
                work: SimDuration::from_millis(exec_ms),
            })
            .collect();
        let batches = kraken.pack_for_test(
            SimTime::from_millis(200),
            f,
            queue,
            warm,
            SimDuration::from_millis(700),
        );
        prop_assert!(batches.iter().all(|b| !b.is_empty()));
        let mut ids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.iter().map(|i| i.id.value()))
            .collect();
        let flat = ids.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "not a partition");
        // Within a batch, arrival order is preserved.
        for b in &batches {
            prop_assert!(b.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        }
        let _ = flat;
    }
    /// Engine events always run in non-decreasing time order, with FIFO
    /// tie-breaking, regardless of insertion order.
    #[test]
    fn engine_runs_in_time_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        fn log(w: &mut Vec<(u64, usize)>, e: &mut Engine<Vec<(u64, usize)>>, arg: EventArg) {
            w.push((e.now().as_micros(), arg.a as usize));
        }
        let mut engine = Engine::new();
        let mut world = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_arg_at(SimTime::from_micros(t), log, EventArg::one(i as u64));
        }
        engine.run(&mut world);
        prop_assert_eq!(world.len(), times.len());
        for pair in world.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time went backwards");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// CPU model: every task completes; total core-seconds equals total
    /// submitted work; the host never exceeds its capacity.
    #[test]
    fn cpu_conserves_work(
        works in proptest::collection::vec(1u64..2_000, 1..60),
        arrivals in proptest::collection::vec(0u64..5_000, 1..60),
        cores in 1u32..16,
    ) {
        let n = works.len().min(arrivals.len());
        let mut sorted_arrivals: Vec<u64> = arrivals[..n].to_vec();
        sorted_arrivals.sort_unstable();
        let mut cpu = CpuModel::new(cores as f64);
        let g = cpu.create_group(None);
        let mut now = SimTime::ZERO;
        let mut submitted = 0.0;
        let mut completed = 0usize;
        for (w, a) in works[..n].iter().zip(&sorted_arrivals) {
            let at = SimTime::from_millis(*a);
            // Drain completions up to the arrival instant.
            while let Some((t, _)) = cpu.next_completion(now) {
                if t > at {
                    break;
                }
                now = t;
                completed += cpu.advance_to(now).len();
            }
            now = now.max(at);
            completed += cpu.advance_to(now).len();
            cpu.add_task(now, g, SimDuration::from_millis(*w));
            submitted += *w as f64 / 1e3;
            prop_assert!(cpu.busy_cores() <= cores as f64 + 1e-9, "capacity exceeded");
        }
        while let Some((t, _)) = cpu.next_completion(now) {
            now = t;
            completed += cpu.advance_to(now).len();
        }
        prop_assert_eq!(completed, n, "a task never completed");
        prop_assert!(
            (cpu.core_seconds() - submitted).abs() < 1e-3,
            "core-seconds {} != submitted {}", cpu.core_seconds(), submitted
        );
    }

    /// Memory ledger: frees return exactly what was allocated; the ledger is
    /// empty after freeing everything; the journal's peak total is the max
    /// prefix sum.
    #[test]
    fn ledger_balances(sizes in proptest::collection::vec(1u64..1_000_000, 1..100)) {
        let mut mem = MemoryLedger::new();
        let ids: Vec<_> = sizes
            .iter()
            .map(|&s| mem.alloc(SimTime::ZERO, MemCategory::Platform, s))
            .collect();
        let total: u64 = sizes.iter().sum();
        prop_assert_eq!(mem.current_bytes(), total);
        for (id, &s) in ids.iter().zip(&sizes) {
            prop_assert_eq!(mem.free(SimTime::ZERO, *id), s);
        }
        prop_assert_eq!(mem.current_bytes(), 0);
        let journal = mem.take_journal();
        prop_assert_eq!(journal.iter().map(|op| op.total_after).max(), Some(total));
        prop_assert_eq!(journal.last().map(|op| op.total_after), Some(0));
    }

    /// Invoke Mapper: drained groups partition the observed invocations —
    /// nothing lost, nothing duplicated, nothing mixed across functions, and
    /// the per-group cap is honoured.
    #[test]
    fn mapper_partitions(
        assignments in proptest::collection::vec(0u32..6, 1..300),
        cap in prop::option::of(1usize..20),
    ) {
        let mut mapper = InvokeMapper::new(SimDuration::from_millis(200));
        if let Some(c) = cap {
            mapper = mapper.with_max_group(c);
        }
        for (i, &f) in assignments.iter().enumerate() {
            mapper.observe(Invocation {
                id: InvocationId::new(i as u64),
                function: FunctionId::new(f),
                arrival: SimTime::from_micros(i as u64),
                work: SimDuration::from_millis(1),
            });
        }
        let groups = mapper.drain();
        let mut seen: Vec<u64> = Vec::new();
        for g in &groups {
            prop_assert!(!g.is_empty());
            if let Some(c) = cap {
                prop_assert!(g.len() <= c, "cap violated: {} > {}", g.len(), c);
            }
            for inv in &g.invocations {
                prop_assert_eq!(inv.function, g.function, "mixed group");
                seen.push(inv.id.value());
            }
        }
        seen.sort_unstable();
        let expected: Vec<u64> = (0..assignments.len() as u64).collect();
        prop_assert_eq!(seen, expected, "not a partition");
        prop_assert!(mapper.drain().is_empty());
    }

    /// Resource Multiplexer: per distinct key exactly one build (and one
    /// journal entry); hits+misses equals requests; identical keys yield
    /// the identical Arc.
    #[test]
    fn multiplexer_builds_once_per_key(keys in proptest::collection::vec(0u32..10, 1..200)) {
        let mux: ResourceMultiplexer<u32> = ResourceMultiplexer::new();
        let mut firsts: std::collections::HashMap<u32, std::sync::Arc<u32>> =
            std::collections::HashMap::new();
        for &k in &keys {
            let v = mux.get_or_create(&k, move || k * 7);
            prop_assert_eq!(*v, k * 7);
            if let Some(first) = firsts.get(&k) {
                prop_assert!(std::sync::Arc::ptr_eq(first, &v), "key rebuilt");
            } else {
                firsts.insert(k, v);
            }
        }
        let distinct = firsts.len() as u64;
        let stats = mux.stats();
        prop_assert_eq!(stats.misses, distinct);
        prop_assert_eq!(stats.hits + stats.misses, keys.len() as u64);
        prop_assert_eq!(mux.take_events().len() as u64, distinct);
    }

    /// Warm pool: a container checked in is checked out at most once, and
    /// never after its TTL.
    #[test]
    fn warm_pool_no_double_checkout(
        ops in proptest::collection::vec((0u64..100, 0u32..3), 1..100),
    ) {
        let ttl = SimDuration::from_millis(50);
        let mut pool = WarmPool::new(ttl);
        let mut next = 0u64;
        let mut live: std::collections::HashMap<ContainerId, SimTime> =
            std::collections::HashMap::new();
        let mut now = SimTime::ZERO;
        for (dt, f) in ops {
            now += SimDuration::from_millis(dt);
            let f = FunctionId::new(f);
            if dt % 2 == 0 {
                let id = ContainerId::new(next);
                next += 1;
                pool.check_in(now, f, id);
                live.insert(id, now);
            } else if let Some(id) = pool.check_out(now, f) {
                let parked = live.remove(&id).expect("double checkout or phantom");
                prop_assert!(
                    now.saturating_duration_since(parked) <= ttl,
                    "expired container returned"
                );
            }
        }
    }

    /// CDF quantiles are monotone in q and always observed samples.
    #[test]
    fn cdf_quantiles_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let durations: Vec<SimDuration> =
            samples.iter().map(|&m| SimDuration::from_micros(m)).collect();
        let cdf = Cdf::from_samples(durations.clone());
        let mut prev = SimDuration::ZERO;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = cdf.quantile(q);
            prop_assert!(v >= prev, "quantile not monotone");
            prop_assert!(durations.contains(&v), "quantile invented a value");
            prev = v;
        }
        prop_assert_eq!(cdf.quantile(1.0), cdf.max());
    }

    /// Duration sampling stays within the configured buckets and the
    /// distribution's own histogram sums to one.
    #[test]
    fn duration_histogram_sums_to_one(seed in 0u64..1_000) {
        let dist = DurationDistribution::azure_fig9();
        let mut rng = faasbatch::simcore::rng::DetRng::new(seed);
        let samples: Vec<SimDuration> = (0..500).map(|_| dist.sample(&mut rng)).collect();
        let hist = dist.histogram(&samples);
        let total: f64 = hist.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for s in samples {
            let ms = s.as_millis_f64();
            prop_assert!((0.1..=DurationDistribution::TAIL_CAP_MS).contains(&ms));
        }
    }
}
