//! Fleet routing policies — re-exported from `faasbatch-core`.
//!
//! The policies originally lived here; they moved to
//! [`faasbatch_core::routing`] so the live gateway (`faasbatch-gateway`)
//! and the simulated fleet share one implementation. Every public name is
//! re-exported, so `faasbatch_fleet::routing::{RoundRobin, RoutingKind, …}`
//! keep working unchanged.

pub use faasbatch_core::routing::{
    stable_hash, LeastLoaded, PullBased, RoundRobin, Router, RouterCtx, RoutingKind, RoutingPolicy,
    UnknownRoutingPolicy, WarmAffinity, WorkerLoad,
};
