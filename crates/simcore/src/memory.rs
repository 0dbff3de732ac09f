//! Memory accounting for simulated hosts.
//!
//! The ledger tracks every live allocation (container images, runtime heaps,
//! storage clients, …) with a category label. It keeps the live total
//! (Fig. 13(a)/14(a) of the paper) and journals every operation with its
//! category, so the trace carries per-category breakdowns (Fig. 14(d):
//! per-client footprints).
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
//! assert_eq!(mem.take_journal().len(), 2);
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

/// Tracks live allocations and journals every operation.
#[derive(Debug, Clone, Default)]
pub struct MemoryLedger {
    current: u64,
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
        assert_eq!(mem.free(SimTime::ZERO, a), 10 * MIB);
        assert_eq!(mem.free(SimTime::ZERO, b), 15 * MIB);
        assert_eq!(mem.current_bytes(), 0);
        assert!(mem.live.is_empty());
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
