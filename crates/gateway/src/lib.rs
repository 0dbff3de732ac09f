//! # faasbatch-gateway
//!
//! A live, sharded front door over a fleet of worker
//! [`DispatchCore`](faasbatch_core::platform::DispatchCore)s — the "many
//! dispatchers, many workers" deployment the paper's single dispatcher
//! scales out to.
//!
//! The pipeline, per invocation:
//!
//! 1. **Shard** — ingress hashes the function id with the same
//!    [`stable_hash`](faasbatch_core::routing::stable_hash) the
//!    warm-affinity router uses, so all invocations of one function land
//!    on one shard and window-grouping stays intact.
//! 2. **Admit** — each shard's ingress queue is depth-bounded; saturation
//!    yields a typed [`GatewayError::Rejected`] (back-pressure), never a
//!    panic or an unbounded buffer.
//! 3. **Window & group** — each shard's thread runs the same
//!    [`WindowQueue`](faasbatch_core::window::WindowQueue) loop a lone
//!    platform runs: accumulate one dispatch window, then group admitted
//!    requests per function (the Invoke Mapper, lifted to the gateway).
//! 4. **Route** — each group is placed **as a unit** on one worker by a
//!    pluggable [`RoutingKind`](faasbatch_core::routing::RoutingKind)
//!    policy (round-robin, least-loaded, warm-affinity, or Hiku-style
//!    pull-based) over shared router-side load estimates; then each
//!    worker's share of the window is dispatched inline on the shard thread
//!    in one `DispatchCore::dispatch_window` call — workers have no window
//!    and no thread, so a group can never be split or merged downstream.
//!
//! With a [`LiveTraceRecorder`](faasbatch_metrics::live::LiveTraceRecorder)
//! attached, the gateway emits `GatewayEnqueue` / `GatewayAdmit` /
//! `GatewayReject` / `GatewayRoute` events into the same audited stream the
//! workers write, so a full run passes
//! [`AuditorSink`](faasbatch_metrics::events::AuditorSink) and the
//! attribution engine decomposes every completion's latency exactly,
//! including the gateway-queue phase.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use faasbatch_gateway::Gateway;
//! use std::time::Duration;
//!
//! let gateway = Gateway::builder()
//!     .workers(2)
//!     .shards(2)
//!     .window(Duration::from_millis(5))
//!     .register("hello", |env| {
//!         assert_eq!(env.payload, Bytes::from_static(b"hi"));
//!     })
//!     .start();
//! let ticket = gateway.invoke("hello", Bytes::from_static(b"hi"))?;
//! gateway.drain()?;
//! ticket.wait();
//! assert_eq!(gateway.in_flight(), 0);
//! # Ok::<(), faasbatch_gateway::GatewayError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code propagates errors or uses `expect` with context; bare
// `unwrap()` stays confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod gateway;

pub use gateway::{Gateway, GatewayBuilder, GatewayError, GatewaySnapshot, ShardSnapshot};
