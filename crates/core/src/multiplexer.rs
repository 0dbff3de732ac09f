//! The Resource Multiplexer (paper §III-D).
//!
//! Inside each container, the multiplexer intercepts resource-creation
//! requests (canonically: cloud-storage client construction), hashes the
//! creation arguments, and serves repeats from an in-memory
//! `resource → Hash(args) → instance` cache. Creation is *single-flight*:
//! when several expanded threads request the same resource at once, exactly
//! one builds it and the rest wait for that build — so a batch of k
//! identical I/O invocations pays one creation instead of k.
//!
//! Following the paper, keys are the *hash* of the arguments ("we employ a
//! hashing technique to creation arguments to reduce memory overhead and
//! speed up the matching process. … there is no need to consider hash
//! collisions that occur with extremely low probability" — collisions at
//! container scope are negligible).

use faasbatch_container::ids::ContainerId;
use faasbatch_metrics::events::{EventKind, SimEvent};
use faasbatch_simcore::time::SimTime;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One journalled multiplexer operation, in the order the cache observed it.
///
/// The multiplexer is wall-clock-free and container-agnostic, so it journals
/// raw operations; [`mux_trace_events`] stamps them with a container and a
/// timestamp to join the simulation's [`SimEvent`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxEvent {
    /// Request served from cache (or by waiting on an in-flight build).
    Hit {
        /// Hashed creation arguments.
        key: u64,
    },
    /// Request that actually built the resource.
    Miss {
        /// Hashed creation arguments.
        key: u64,
    },
    /// A built resource was evicted by the LRU bound.
    Evicted {
        /// Hashed creation arguments of the victim.
        key: u64,
    },
}

/// Converts a journalled multiplexer history into trace events attributed to
/// `container` at `at`. Evictions have no trace-stream counterpart (the
/// simulation's per-container caches are unbounded, like the paper's) and
/// are skipped.
pub fn mux_trace_events(container: ContainerId, at: SimTime, events: &[MuxEvent]) -> Vec<SimEvent> {
    events
        .iter()
        .filter_map(|e| match *e {
            MuxEvent::Hit { key } => Some(EventKind::ClientCacheHit { container, key }),
            MuxEvent::Miss { key } => Some(EventKind::ClientCacheMiss { container, key }),
            MuxEvent::Evicted { .. } => None,
        })
        .map(|kind| SimEvent::new(at, kind))
        .collect()
}

/// Hit/miss counters of one multiplexer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiplexerStats {
    /// Requests served from cache (or by waiting on an in-flight build).
    pub hits: u64,
    /// Requests that actually built the resource.
    pub misses: u64,
}

impl MultiplexerStats {
    /// Total requests.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when no requests yet).
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }
}

/// A per-container cache of expensive resources keyed by hashed creation
/// arguments.
///
/// `R` is the resource type (e.g. a storage client). The multiplexer is
/// `Send + Sync` and lock-cheap: the map lock is held only to look up or
/// insert a cell, never during resource construction.
///
/// # Examples
///
/// ```
/// use faasbatch_core::multiplexer::ResourceMultiplexer;
///
/// let mux: ResourceMultiplexer<String> = ResourceMultiplexer::new();
/// let a = mux.get_or_create(&("endpoint", "key"), || "client".to_owned());
/// let b = mux.get_or_create(&("endpoint", "key"), || unreachable!("cached"));
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(mux.stats().misses, 1);
/// assert_eq!(mux.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ResourceMultiplexer<R> {
    inner: Mutex<Inner<R>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    events: Mutex<Vec<MuxEvent>>,
}

#[derive(Debug)]
struct Cell<R> {
    once: Arc<OnceLock<Arc<R>>>,
    last_used: u64,
}

#[derive(Debug)]
struct Inner<R> {
    cells: HashMap<u64, Cell<R>>,
    tick: u64,
    capacity: Option<usize>,
}

impl<R> Default for ResourceMultiplexer<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> ResourceMultiplexer<R> {
    /// Creates an unbounded multiplexer (the paper's design — container
    /// lifetimes bound the cache naturally).
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates a multiplexer that keeps at most `capacity` built resources,
    /// evicting the least recently used beyond that — an extension for
    /// memory-constrained containers caching many distinct configurations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        ResourceMultiplexer {
            inner: Mutex::new(Inner {
                cells: HashMap::new(),
                tick: 0,
                capacity,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Returns the cached resource for `args`, building it with `build` on
    /// first request. Concurrent requests for the same `args` share one
    /// build (single-flight); requests for different `args` build
    /// concurrently.
    pub fn get_or_create<K: Hash, F: FnOnce() -> R>(&self, args: &K, build: F) -> Arc<R> {
        let key = Self::hash_args(args);
        let cell = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            inner
                .cells
                .entry(key)
                .and_modify(|c| c.last_used = tick)
                .or_insert_with(|| Cell {
                    once: Arc::default(),
                    last_used: tick,
                })
                .once
                .clone()
        };
        // Fast path: already built.
        if let Some(existing) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.events.lock().push(MuxEvent::Hit { key });
            return existing.clone();
        }
        let mut built_here = false;
        let resource = cell
            .get_or_init(|| {
                built_here = true;
                Arc::new(build())
            })
            .clone();
        if built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.events.lock().push(MuxEvent::Miss { key });
            self.enforce_capacity(key);
        } else {
            // We raced an in-flight build and got its result — a hit.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.events.lock().push(MuxEvent::Hit { key });
        }
        resource
    }

    /// Evicts least-recently-used built entries beyond the capacity, never
    /// the just-built `protect` key.
    fn enforce_capacity(&self, protect: u64) {
        let mut inner = self.inner.lock();
        let Some(capacity) = inner.capacity else {
            return;
        };
        loop {
            let built = inner
                .cells
                .iter()
                .filter(|(_, c)| c.once.get().is_some())
                .count();
            if built <= capacity {
                return;
            }
            let victim = inner
                .cells
                .iter()
                .filter(|(&k, c)| k != protect && c.once.get().is_some())
                .min_by_key(|(_, c)| c.last_used)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    inner.cells.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.events.lock().push(MuxEvent::Evicted { key: k });
                }
                None => return,
            }
        }
    }

    /// Looks up without building.
    pub fn get<K: Hash>(&self, args: &K) -> Option<Arc<R>> {
        let key = Self::hash_args(args);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.cells.get_mut(&key).and_then(|cell| {
            cell.last_used = tick;
            cell.once.get().cloned()
        })
    }

    /// Number of cached (fully built) resources.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .cells
            .values()
            .filter(|c| c.once.get().is_some())
            .count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> MultiplexerStats {
        MultiplexerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of LRU evictions performed (bounded caches only).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drains the operation journal, oldest first. Ordering between threads
    /// follows the cache's own observation order; totals always agree with
    /// [`stats`](Self::stats) and [`evictions`](Self::evictions) once all
    /// requests have returned.
    pub fn take_events(&self) -> Vec<MuxEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// The hashed key this multiplexer uses for `args` — lets callers
    /// correlate journal entries with the arguments that produced them.
    pub fn key_of<K: Hash>(args: &K) -> u64 {
        Self::hash_args(args)
    }

    /// Drops every cached resource (container teardown).
    pub fn clear(&self) {
        self.inner.lock().cells.clear();
    }

    fn hash_args<K: Hash>(args: &K) -> u64 {
        let mut h = DefaultHasher::new();
        args.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn caches_by_args() {
        let mux: ResourceMultiplexer<u32> = ResourceMultiplexer::new();
        let a = mux.get_or_create(&"x", || 1);
        let b = mux.get_or_create(&"y", || 2);
        let a2 = mux.get_or_create(&"x", || unreachable!());
        assert_eq!(*a, 1);
        assert_eq!(*b, 2);
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(mux.len(), 2);
        assert_eq!(mux.stats(), MultiplexerStats { hits: 1, misses: 2 });
    }

    #[test]
    fn get_does_not_build() {
        let mux: ResourceMultiplexer<u32> = ResourceMultiplexer::new();
        assert!(mux.get(&"x").is_none());
        mux.get_or_create(&"x", || 7);
        assert_eq!(*mux.get(&"x").unwrap(), 7);
    }

    #[test]
    fn single_flight_under_contention() {
        let mux: Arc<ResourceMultiplexer<u64>> = Arc::new(ResourceMultiplexer::new());
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let mux = mux.clone();
                let builds = builds.clone();
                scope.spawn(move || {
                    let v = mux.get_or_create(&"shared", || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Make the build slow enough that threads really race.
                        std::thread::sleep(Duration::from_millis(20));
                        42
                    });
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        let stats = mux.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 15);
    }

    #[test]
    fn distinct_args_build_concurrently() {
        let mux: Arc<ResourceMultiplexer<usize>> = Arc::new(ResourceMultiplexer::new());
        std::thread::scope(|scope| {
            for i in 0..8usize {
                let mux = mux.clone();
                scope.spawn(move || {
                    let v = mux.get_or_create(&i, || {
                        std::thread::sleep(Duration::from_millis(5));
                        i * 10
                    });
                    assert_eq!(*v, i * 10);
                });
            }
        });
        assert_eq!(mux.len(), 8);
        assert_eq!(mux.stats().misses, 8);
    }

    #[test]
    fn clear_resets_cache_but_not_stats() {
        let mux: ResourceMultiplexer<u32> = ResourceMultiplexer::new();
        mux.get_or_create(&"x", || 1);
        mux.clear();
        assert!(mux.is_empty());
        assert_eq!(mux.stats().misses, 1);
        // Rebuild after clear is a miss again.
        mux.get_or_create(&"x", || 1);
        assert_eq!(mux.stats().misses, 2);
    }

    #[test]
    fn bounded_cache_evicts_lru() {
        let mux: ResourceMultiplexer<u32> = ResourceMultiplexer::with_capacity(2);
        mux.get_or_create(&"a", || 1);
        mux.get_or_create(&"b", || 2);
        // Touch "a" so "b" becomes the LRU victim.
        mux.get_or_create(&"a", || unreachable!());
        mux.get_or_create(&"c", || 3);
        assert_eq!(mux.len(), 2);
        assert_eq!(mux.evictions(), 1);
        assert!(mux.get(&"a").is_some(), "recently used survives");
        assert!(mux.get(&"b").is_none(), "LRU evicted");
        assert!(mux.get(&"c").is_some());
        // Re-requesting the victim rebuilds it.
        let rebuilt = mux.get_or_create(&"b", || 22);
        assert_eq!(*rebuilt, 22);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mux: ResourceMultiplexer<usize> = ResourceMultiplexer::new();
        for i in 0..100usize {
            mux.get_or_create(&i, move || i);
        }
        assert_eq!(mux.len(), 100);
        assert_eq!(mux.evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ResourceMultiplexer<u32> = ResourceMultiplexer::with_capacity(0);
    }

    #[test]
    fn lru_eviction_order_is_journalled() {
        type Mux = ResourceMultiplexer<u32>;
        let mux: Mux = ResourceMultiplexer::with_capacity(2);
        mux.get_or_create(&"a", || 1);
        mux.get_or_create(&"b", || 2);
        // Touch "a", then overflow twice: victims must be exactly "b" (the
        // LRU at the first overflow) then "a" (LRU at the second).
        mux.get_or_create(&"a", || unreachable!());
        mux.get_or_create(&"c", || 3);
        mux.get_or_create(&"d", || 4);
        let evicted: Vec<u64> = mux
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                MuxEvent::Evicted { key } => Some(key),
                _ => None,
            })
            .collect();
        assert_eq!(evicted, vec![Mux::key_of(&"b"), Mux::key_of(&"a")]);
        assert_eq!(mux.evictions(), 2);
    }

    #[test]
    fn race_stats_agree_with_event_stream() {
        use faasbatch_simcore::time::SimTime;

        let mux: Arc<ResourceMultiplexer<u64>> = Arc::new(ResourceMultiplexer::new());
        // 4 distinct keys × 8 racing threads each: one build per key, the
        // rest hits (either from cache or by waiting on the in-flight build).
        std::thread::scope(|scope| {
            for key in 0..4u64 {
                for _ in 0..8 {
                    let mux = mux.clone();
                    scope.spawn(move || {
                        let v = mux.get_or_create(&key, move || {
                            std::thread::sleep(Duration::from_millis(5));
                            key * 10
                        });
                        assert_eq!(*v, key * 10);
                    });
                }
            }
        });
        let stats = mux.stats();
        assert_eq!(stats.misses, 4, "single-flight: one build per key");
        assert_eq!(stats.hits, 28);

        // The journal must tell the same story, and survive conversion into
        // the typed trace stream.
        let journal = mux.take_events();
        let journal_hits = journal
            .iter()
            .filter(|e| matches!(e, MuxEvent::Hit { .. }))
            .count() as u64;
        let journal_misses = journal
            .iter()
            .filter(|e| matches!(e, MuxEvent::Miss { .. }))
            .count() as u64;
        assert_eq!(journal_hits, stats.hits);
        assert_eq!(journal_misses, stats.misses);

        let sim_events = mux_trace_events(
            faasbatch_container::ids::ContainerId::new(7),
            SimTime::ZERO,
            &journal,
        );
        let count = |name: &str| sim_events.iter().filter(|e| e.kind.name() == name).count() as u64;
        assert_eq!(count("ClientCacheHit"), stats.hits);
        assert_eq!(count("ClientCacheMiss"), stats.misses);
        assert_eq!(sim_events.len() as u64, stats.requests());
    }

    #[test]
    fn eviction_has_no_trace_counterpart() {
        use faasbatch_simcore::time::SimTime;
        let events = [
            MuxEvent::Miss { key: 1 },
            MuxEvent::Evicted { key: 1 },
            MuxEvent::Hit { key: 2 },
        ];
        let sim = mux_trace_events(
            faasbatch_container::ids::ContainerId::new(0),
            SimTime::ZERO,
            &events,
        );
        assert_eq!(sim.len(), 2);
    }

    #[test]
    fn hit_rate_math() {
        let s = MultiplexerStats { hits: 3, misses: 1 };
        assert_eq!(s.requests(), 4);
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(MultiplexerStats::default().hit_rate(), 0.0);
    }
}
