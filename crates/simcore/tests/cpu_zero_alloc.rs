//! The processor-sharing model allocates nothing in steady state: once its
//! group heaps, active list and reused buffers have reached their working
//! size, the pump (`add_task` → `next_completion` → `advance_to`), a
//! re-weighting sweep and a container's `create_group` … `remove_group` (a
//! recycled slab slot keeps its heap's allocation) never touch the allocator.
//!
//! Lives in its own test binary because it replaces the global allocator.

use faasbatch_simcore::cpu::CpuModel;
use faasbatch_simcore::time::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// `Some(n)` while this thread is counting its allocations.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell`, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `body` makes on this thread (`realloc` counts through
/// its default `alloc` + copy + `dealloc`).
fn allocations_in(body: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    body();
    ALLOCATIONS
        .with(|n| n.replace(None))
        .expect("counting was on")
}

#[test]
fn steady_state_pump_allocates_nothing() {
    const RUNNABLE: usize = 512;
    let mut cpu = CpuModel::new(32.0);
    let groups: Vec<_> = (0..64)
        .map(|i| cpu.create_group((i % 3 == 0).then_some(2.0)))
        .collect();
    for i in 0..RUNNABLE {
        cpu.add_task(
            SimTime::ZERO,
            groups[i % 64],
            SimDuration::from_secs(1_000_000),
        );
    }
    let mut now = SimTime::ZERO;
    let mut pump = |cpu: &mut CpuModel, ops: usize| {
        for i in 0..ops {
            // Every third task runs in a container of its own, which goes
            // away with it and leaves its slab slot to the next one.
            let container = (i % 3 == 0).then(|| cpu.create_group(None));
            cpu.add_task(
                now,
                container.unwrap_or(groups[i % 64]),
                SimDuration::from_micros(1 + i as u64 % 7),
            );
            let (at, _) = cpu.next_completion(now).expect("a task is runnable");
            now = at;
            black_box(cpu.advance_to(now));
            if let Some(container) = container {
                cpu.remove_group(now, container);
            }
            if i % 50 == 0 {
                // An aging sweep over every group, as SFS does.
                cpu.set_group_weights(
                    now,
                    groups
                        .iter()
                        .enumerate()
                        .map(|(g, &id)| (id, 1.0 + ((g + i) % 20) as f64)),
                );
            }
        }
    };
    // Warm-up: the heaps, the list and the buffers grow to their working size.
    pump(&mut cpu, 200);
    assert_eq!(allocations_in(|| pump(&mut cpu, 10_000)), 0);
    assert_eq!(cpu.task_count(), RUNNABLE);

    // The counter itself works: the same pump on a cold clone has to grow
    // the clone's exact-size heaps.
    let mut cold = cpu.clone();
    assert!(allocations_in(|| pump(&mut cold, 10)) > 0);
}
