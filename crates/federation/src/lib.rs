//! Sharded multi-VO federation: a superscheduler over shard engines.
//!
//! One engine instance is one administrative domain and one flat slot
//! market. This crate scales the model out: S independent shard engines
//! run behind a single submission surface, a routing policy
//! ([`RoutePolicy`]) places each arriving job on a shard, and jobs no
//! single shard can host may be split across shards. A cross-shard
//! placement is one routing action: it carves each part's window out of
//! its shard's vacant market, then either leases every part, surfacing
//! as a typed [`CrossShardWindow`], or returns every part.
//!
//! The determinism contract survives sharding. Each shard remains a pure
//! function of `(config, seed, routed-arrival sequence)`; the federation
//! adds no randomness of its own; and the federation event log is the
//! merge of the shard logs under the total order `(time, seq, shard)` —
//! reproducible hash and all. A single-shard federation degenerates to
//! the plain engine byte for byte: shard 0 runs the base configuration
//! on the base seed, and the merged log is its event log tagged with
//! shard 0.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod coalloc;
pub mod config;
pub mod federation;
pub mod merge;
pub mod obs;
pub mod report;

pub use coalloc::{split_nodes, CrossShardPart, CrossShardWindow};
pub use config::{FederationConfig, RoutePolicy};
pub use federation::{
    Federation, FederationCheckpoint, FederationError, FederationRun, FederationState,
    LiveFederationCheckpoint, Placement,
};
pub use merge::{is_strictly_ordered, merge_shard_logs, FederatedLogEntry};
pub use obs::{federation_obs, FedIds, FederationObs};
pub use report::{FederationReport, RouteCounters};
