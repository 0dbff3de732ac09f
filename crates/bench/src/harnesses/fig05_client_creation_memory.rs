//! Fig. 5 — memory consumption of a single container as the number of
//! concurrently created S3 clients rises from 1 to 10.
//!
//! The paper measures the container growing from 9 MB (one client) to 60 MB
//! (nine clients) — roughly a 9 MB runtime baseline plus ≈6.4 MB per live
//! client instance. We reproduce that with the memory ledger (simulated
//! container) and with the live SDK's real ballast allocations (scaled
//! down 100×).

use crate::Output;
use faasbatch_simcore::memory::{MemCategory, MemoryLedger};
use faasbatch_simcore::time::SimTime;
use faasbatch_storage::client::{ClientConfig, CreationCost, StorageSdk};
use faasbatch_storage::object_store::ObjectStore;
use std::io;
use std::time::Duration;

const MIB: u64 = 1 << 20;
/// Runtime baseline of the measured container (paper: ~9 MB with 1 client
/// ⇒ ~2.6 MB interpreter + first client).
const CONTAINER_BASE: u64 = 3 * MIB;
/// Live footprint of one client instance, fitted to Fig. 5's 9 → 60 MB line.
const PER_CLIENT_LIVE: u64 = 6 * MIB + 400 * 1024;

pub fn run(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 5 — container memory vs concurrent client creations\n")?;
    let mut rows = Vec::new();
    for k in 1..=10usize {
        // Simulated container: ledger tracks base + k live clients.
        let mut mem = MemoryLedger::new();
        mem.alloc(SimTime::ZERO, MemCategory::Container, CONTAINER_BASE);
        for _ in 0..k {
            mem.alloc(SimTime::ZERO, MemCategory::Client, PER_CLIENT_LIVE);
        }
        let sim_mb = mem.current_bytes() as f64 / MIB as f64;

        // Live: really build k clients (scaled 100×: 64 KiB ballast each)
        // and keep them alive; the held ballast is the measured footprint.
        let store = ObjectStore::new();
        store.create_bucket("b").unwrap();
        let sdk = StorageSdk::with_cost(
            store,
            CreationCost {
                base_cpu: Duration::from_micros(100),
                contention_alpha: 0.54,
                ballast_bytes: (PER_CLIENT_LIVE / 100) as usize,
            },
        );
        let clients: Vec<_> = (0..k)
            .map(|_| sdk.connect(&ClientConfig::for_bucket("b")))
            .collect();
        let live_kib = (clients.len() * sdk.cost().ballast_bytes) as f64 / 1024.0;

        rows.push(vec![
            k.to_string(),
            format!("{sim_mb:.1}"),
            format!("{live_kib:.0}"),
        ]);
    }
    out.table(
        &[
            "concurrent clients",
            "container memory (MB, model)",
            "live held ballast (KiB, 100x scaled)",
        ],
        &rows,
    )?;
    out.line("Paper landmarks: ≈9 MB at k=1 rising to ≈60 MB at k=9 (linear).")?;
    Ok(())
}
