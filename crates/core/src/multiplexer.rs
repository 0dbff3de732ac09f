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
//!
//! The cache is unbounded and container-scoped, as in the paper: it lives
//! and dies with its container, so what it holds is bounded by the distinct
//! argument sets the container's functions ask for, never by the number of
//! requests. A hit is one counter bump; only builds are journalled
//! ([`ResourceMultiplexer::take_events`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Hit/miss counters of one multiplexer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiplexerStats {
    /// Requests served from cache (or by waiting on an in-flight build).
    pub hits: u64,
    /// Requests that actually built the resource.
    pub misses: u64,
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
    cells: Mutex<HashMap<u64, Arc<OnceLock<Arc<R>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hashed key of every build, oldest first.
    built: Mutex<Vec<u64>>,
}

impl<R> Default for ResourceMultiplexer<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> ResourceMultiplexer<R> {
    /// Creates an empty multiplexer.
    pub fn new() -> Self {
        ResourceMultiplexer {
            cells: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            built: Mutex::default(),
        }
    }

    /// Returns the cached resource for `args`, building it with `build` on
    /// first request. Concurrent requests for the same `args` share one
    /// build (single-flight); requests for different `args` build
    /// concurrently.
    pub fn get_or_create<K: Hash, F: FnOnce() -> R>(&self, args: &K, build: F) -> Arc<R> {
        let key = Self::hash_args(args);
        let cell = {
            let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
            let cell = cells.entry(key).or_default();
            // Fast path: already built.
            if let Some(existing) = cell.get() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(existing);
            }
            Arc::clone(cell)
        };
        let mut built_here = false;
        let resource = cell
            .get_or_init(|| {
                built_here = true;
                Arc::new(build())
            })
            .clone();
        if built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.built
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(key);
        } else {
            // We raced an in-flight build and got its result — a hit.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        resource
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> MultiplexerStats {
        MultiplexerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drains the build journal: the hashed key of every resource built
    /// since the last drain, oldest first. One entry per miss, so it is
    /// bounded by the distinct keys requested.
    pub fn take_events(&self) -> Vec<u64> {
        std::mem::take(&mut *self.built.lock().unwrap_or_else(PoisonError::into_inner))
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
        assert_eq!(mux.stats(), MultiplexerStats { hits: 1, misses: 2 });
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
        assert_eq!(mux.stats().misses, 8);
        assert_eq!(mux.take_events().len(), 8);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mux: ResourceMultiplexer<usize> = ResourceMultiplexer::new();
        for i in 0..100usize {
            mux.get_or_create(&i, move || i);
        }
        // Every one of the hundred is still cached: no rebuild.
        for i in 0..100usize {
            assert_eq!(*mux.get_or_create(&i, || unreachable!("evicted")), i);
        }
        assert_eq!(
            mux.stats(),
            MultiplexerStats {
                hits: 100,
                misses: 100
            }
        );
    }

    /// A container's journal grows with the keys it builds, not with the
    /// requests it serves: 10,000 hits on one key and one on another are
    /// two entries.
    #[test]
    fn the_journal_holds_builds_not_hits() {
        let mux: ResourceMultiplexer<u32> = ResourceMultiplexer::new();
        for _ in 0..10_000 {
            mux.get_or_create(&"hot", || 1);
        }
        mux.get_or_create(&"cold", || 2);
        let journal = mux.take_events();
        assert_eq!(journal.len(), 2);
        assert_ne!(journal[0], journal[1]);
        assert!(mux.take_events().is_empty());
    }

    #[test]
    fn race_stats_agree_with_event_stream() {
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
        // The journal tells the same story: one entry per build, each key
        // once.
        let mut journal = mux.take_events();
        assert_eq!(journal.len() as u64, stats.misses);
        journal.sort_unstable();
        journal.dedup();
        assert_eq!(journal.len(), 4);
    }
}
