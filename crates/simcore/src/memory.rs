//! Memory accounting for simulated hosts.
//!
//! The ledger tracks every live allocation (container images, runtime heaps,
//! storage clients, …) with a category label, so experiments can report both
//! total system memory (Fig. 13(a)/14(a) of the paper) and per-category
//! breakdowns (Fig. 14(d): per-client footprints).
//!
//! # Examples
//!
//! ```
//! use faasbatch_simcore::memory::{MemCategory, MemoryLedger};
//! use faasbatch_simcore::time::SimTime;
//!
//! let mut mem = MemoryLedger::new();
//! let a = mem.alloc(SimTime::ZERO, MemCategory::Container, 50 << 20);
//! assert_eq!(mem.current_bytes(), 50 << 20);
//! mem.free(SimTime::from_secs(1), a);
//! assert_eq!(mem.current_bytes(), 0);
//! assert_eq!(mem.high_water_bytes(), 50 << 20);
//! ```

use crate::idmap::IdMap;
use crate::time::SimTime;
use serde::{DeError, Deserialize, Serialize, Value};

/// What a ledger allocation is for. Serialises to its lower-case
/// [`name`](Self::name) — the `category` string of a `MemAlloc`/`MemFree`
/// trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemCategory {
    /// A storage-client instance held by a container.
    Client,
    /// A container's base footprint (image + runtime).
    Container,
    /// The platform's own bookkeeping.
    Platform,
}

impl MemCategory {
    /// Every category, sorted by name (the declaration order).
    pub const ALL: [MemCategory; 3] = [
        MemCategory::Client,
        MemCategory::Container,
        MemCategory::Platform,
    ];

    /// The category's serialised name.
    pub fn name(self) -> &'static str {
        match self {
            MemCategory::Container => "container",
            MemCategory::Client => "client",
            MemCategory::Platform => "platform",
        }
    }
}

impl std::fmt::Display for MemCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for MemCategory {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
}

impl Deserialize for MemCategory {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let Value::Str(s) = value else {
            return Err(DeError::new(format!(
                "expected memory-category string, got {}",
                value.kind()
            )));
        };
        MemCategory::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| DeError::new(format!("unknown memory category `{s}`")))
    }
}

/// Identifies a live allocation in a [`MemoryLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocationId(u64);

/// Whether a journalled ledger operation allocated or freed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// Bytes were allocated.
    Alloc,
    /// Bytes were freed.
    Free,
}

/// One journalled ledger operation, for trace emission.
///
/// The ledger sits below the metrics crate in the dependency graph, so it
/// cannot emit trace events itself; instead it appends every operation to a
/// journal that the scheduler harness drains (via
/// [`MemoryLedger::take_journal`]) and translates into `MemAlloc`/`MemFree`
/// trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// When the operation happened.
    pub at: SimTime,
    /// Allocation or free.
    pub kind: MemOpKind,
    /// What the bytes are for.
    pub category: MemCategory,
    /// Bytes moved.
    pub bytes: u64,
    /// Ledger-wide live bytes after the operation.
    pub total_after: u64,
}

/// Tracks live allocations and a high-water mark.
#[derive(Debug, Clone, Default)]
pub struct MemoryLedger {
    current: u64,
    high_water: u64,
    by_category: [u64; MemCategory::ALL.len()],
    live: IdMap<AllocationId, (MemCategory, u64)>,
    next_id: u64,
    last_update: SimTime,
    journal: Vec<MemOp>,
}

impl MemoryLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes` under `category`, returning a handle
    /// for [`free`](Self::free).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier ledger operation.
    pub fn alloc(&mut self, now: SimTime, category: MemCategory, bytes: u64) -> AllocationId {
        self.advance_to(now);
        let id = AllocationId(self.next_id);
        self.next_id += 1;
        self.current += bytes;
        self.high_water = self.high_water.max(self.current);
        self.by_category[category as usize] += bytes;
        self.live.insert(id, (category, bytes));
        self.journal.push(MemOp {
            at: now,
            kind: MemOpKind::Alloc,
            category,
            bytes,
            total_after: self.current,
        });
        id
    }

    /// Releases a previous allocation, returning its size.
    ///
    /// # Panics
    ///
    /// Panics if the allocation was already freed (double free) or `now`
    /// precedes an earlier ledger operation.
    pub fn free(&mut self, now: SimTime, id: AllocationId) -> u64 {
        self.advance_to(now);
        let (category, bytes) = self
            .live
            .remove(&id)
            .expect("double free or unknown allocation");
        self.current -= bytes;
        self.by_category[category as usize] -= bytes;
        self.journal.push(MemOp {
            at: now,
            kind: MemOpKind::Free,
            category,
            bytes,
            total_after: self.current,
        });
        bytes
    }

    /// Whether any journalled operations await [`take_journal`](Self::take_journal).
    pub fn journal_pending(&self) -> bool {
        !self.journal.is_empty()
    }

    /// Drains the operation journal, oldest first.
    pub fn take_journal(&mut self) -> Vec<MemOp> {
        std::mem::take(&mut self.journal)
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> u64 {
        self.current
    }

    /// Maximum bytes ever simultaneously allocated.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water
    }

    /// Bytes currently allocated under `category`.
    pub fn category_bytes(&self, category: MemCategory) -> u64 {
        self.by_category[category as usize]
    }

    /// Live allocation count.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// All categories with live bytes, in deterministic (sorted) order.
    pub fn categories(&self) -> impl Iterator<Item = (MemCategory, u64)> + '_ {
        MemCategory::ALL
            .into_iter()
            .map(|c| (c, self.category_bytes(c)))
            .filter(|&(_, b)| b > 0)
    }

    /// Advances the ledger clock; every later operation must be at or
    /// after `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier ledger operation.
    pub fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "memory ledger cannot move backwards: {now} < {}",
            self.last_update
        );
        self.last_update = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use MemCategory::{Client, Container, Platform};

    const MIB: u64 = 1 << 20;

    #[test]
    fn alloc_free_roundtrip() {
        let mut mem = MemoryLedger::new();
        let a = mem.alloc(SimTime::ZERO, Container, 10 * MIB);
        let b = mem.alloc(SimTime::ZERO, Client, 15 * MIB);
        assert_eq!(mem.current_bytes(), 25 * MIB);
        assert_eq!(mem.category_bytes(Client), 15 * MIB);
        assert_eq!(mem.free(SimTime::ZERO, a), 10 * MIB);
        assert_eq!(mem.free(SimTime::ZERO, b), 15 * MIB);
        assert_eq!(mem.current_bytes(), 0);
        assert_eq!(mem.live_count(), 0);
    }

    #[test]
    fn high_water_survives_frees() {
        let mut mem = MemoryLedger::new();
        let a = mem.alloc(SimTime::ZERO, Platform, 100);
        mem.free(SimTime::ZERO, a);
        mem.alloc(SimTime::ZERO, Platform, 10);
        assert_eq!(mem.high_water_bytes(), 100);
        assert_eq!(mem.current_bytes(), 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut mem = MemoryLedger::new();
        let a = mem.alloc(SimTime::ZERO, Platform, 1);
        mem.free(SimTime::ZERO, a);
        mem.free(SimTime::ZERO, a);
    }

    #[test]
    fn categories_iterate_sorted_and_nonzero() {
        let mut mem = MemoryLedger::new();
        mem.alloc(SimTime::ZERO, Platform, 1);
        mem.alloc(SimTime::ZERO, Client, 2);
        let freed = mem.alloc(SimTime::ZERO, Container, 3);
        mem.free(SimTime::ZERO, freed);
        let cats: Vec<_> = mem.categories().collect();
        assert_eq!(cats, vec![(Client, 2), (Platform, 1)]);
    }

    #[test]
    fn journal_records_every_operation_in_order() {
        let mut mem = MemoryLedger::new();
        assert!(!mem.journal_pending());
        let a = mem.alloc(SimTime::ZERO, Container, 10);
        mem.alloc(SimTime::from_secs(1), Client, 5);
        mem.free(SimTime::from_secs(2), a);
        assert!(mem.journal_pending());
        let ops = mem.take_journal();
        assert_eq!(
            ops,
            vec![
                MemOp {
                    at: SimTime::ZERO,
                    kind: MemOpKind::Alloc,
                    category: Container,
                    bytes: 10,
                    total_after: 10,
                },
                MemOp {
                    at: SimTime::from_secs(1),
                    kind: MemOpKind::Alloc,
                    category: Client,
                    bytes: 5,
                    total_after: 15,
                },
                MemOp {
                    at: SimTime::from_secs(2),
                    kind: MemOpKind::Free,
                    category: Container,
                    bytes: 10,
                    total_after: 5,
                },
            ]
        );
        assert!(!mem.journal_pending());
        assert!(mem.take_journal().is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn backwards_time_panics() {
        let mut mem = MemoryLedger::new();
        mem.alloc(SimTime::from_secs(2), Platform, 1);
        mem.advance_to(SimTime::from_secs(1));
    }

    #[test]
    fn category_serialises_to_its_name_and_back() {
        for c in MemCategory::ALL {
            assert_eq!(c.to_value(), Value::Str(c.name().to_owned()));
            assert_eq!(MemCategory::from_value(&c.to_value()), Ok(c));
            assert_eq!(c.to_string(), c.name());
        }
        let err = MemCategory::from_value(&Value::Str("heap".to_owned())).unwrap_err();
        assert!(err.to_string().contains("unknown memory category `heap`"));
        assert!(MemCategory::from_value(&Value::U64(1)).is_err());
    }
}
