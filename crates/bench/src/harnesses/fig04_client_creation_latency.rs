//! Fig. 4 — time to create S3 clients inside one container as the number of
//! concurrent creations rises from 1 to 10.
//!
//! The paper reports 66 ms at concurrency 1 growing ~50× to 3165 ms at
//! concurrency 9. We show (a) the calibrated simulated-cost model at paper
//! scale and (b) a live run of the real SDK (costs scaled down 100× so the
//! binary finishes quickly; the *shape* is what is being reproduced).

use crate::Output;
use faasbatch_storage::client::{ClientConfig, CreationCost, StorageSdk};
use faasbatch_storage::cost::ClientCostModel;
use faasbatch_storage::object_store::ObjectStore;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

fn live_total_ms(k: usize) -> f64 {
    let store = ObjectStore::new();
    store.create_bucket("b").unwrap();
    let sdk = Arc::new(StorageSdk::with_cost(store, CreationCost::default()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..k {
            let sdk = sdk.clone();
            scope.spawn(move || {
                let _client = sdk.connect(&ClientConfig::for_bucket("b"));
            });
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}

pub fn run(out: &mut Output) -> io::Result<()> {
    out.line("Fig. 4 — client-creation time vs concurrency inside one container\n")?;
    let model = ClientCostModel::default();
    let mut rows = Vec::new();
    for k in 1..=10usize {
        let per = model.creation_work(k);
        let total = model.burst_total(k);
        let live = live_total_ms(k);
        rows.push(vec![
            k.to_string(),
            format!("{:.0}", per.as_millis_f64()),
            format!("{:.0}", total.as_millis_f64()),
            format!("{live:.2}"),
        ]);
    }
    out.table(
        &[
            "concurrency",
            "model per-creation (ms)",
            "model total (ms)",
            "live total (ms, 100x scaled down)",
        ],
        &rows,
    )?;
    out.line("Paper landmarks: 66 ms at k=1; ≈3165 ms total at k=9 (≈48x).")?;
    let k9 = model.burst_total(9).as_millis_f64();
    writeln!(out, "Model total at k=9: {k9:.0} ms.")?;
    Ok(())
}
