//! Aggregate metrics of a federated run.

use ecosched_engine::EngineReport;
use serde::{Deserialize, Serialize};

/// Routing and co-allocation counters maintained while a federation runs.
///
/// Checkpointed verbatim (the router is part of the resumable state) and
/// folded into the [`FederationReport`] when the run finishes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouteCounters {
    /// Jobs placed directly on each shard, by shard index (cross-shard
    /// placements are not counted here).
    pub routed: Vec<u64>,
    /// Shard-market window probes performed by cheapest-probe routing and
    /// the cross-shard alignment loop.
    pub probes: u64,
    /// Cross-shard placements committed (each one [`CrossShardWindow`]).
    ///
    /// [`CrossShardWindow`]: crate::CrossShardWindow
    pub cross_shard_committed: u64,
    /// Jobs that probed infeasible everywhere and fell back to a plain
    /// least-backlog submit (including jobs cross-shard could not place).
    pub fallback_submits: u64,
    /// Alignment rounds run by the cross-shard fixed point.
    pub align_rounds: u64,
    /// Cross-shard part windows carved out of a shard's market.
    pub reservations_reserved: u64,
    /// Carved parts returned to their market unleased (misaligned rounds,
    /// or a later shard infeasible mid-round).
    pub reservations_released: u64,
}

impl RouteCounters {
    /// Counters for a federation of `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        RouteCounters {
            routed: vec![0; shards],
            ..RouteCounters::default()
        }
    }
}

/// The aggregate report of one federated run: per-shard engine reports
/// plus the superscheduler's own counters and the merged-log fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Per-shard engine reports, in shard order.
    pub shards: Vec<EngineReport>,
    /// Jobs offered to the federation (routed stream arrivals plus
    /// external submissions; for S=1 the base engine's own arrivals).
    pub jobs_offered: u64,
    /// Federation-level jobs completed: the sum over shard completions
    /// with each committed cross-shard split's sibling parts folded back
    /// into one job (a split runs as `parts` shard-level jobs).
    pub jobs_completed: u64,
    /// Backlog (pending plus still-leased jobs) across all shards when
    /// the run drained.
    pub backlog: u64,
    /// Router state at the end of the run.
    pub routing: RouteCounters,
    /// Always 0: a cross-shard placement carves and then leases or
    /// returns its parts within one routing action, so no strike can
    /// land on a carved part. Kept on the wire, where report hashes
    /// cover it.
    pub reservations_broken: u64,
    /// Entries in the merged log.
    pub merged_events: u64,
    /// FNV-1a 64 fingerprint of the serialized merged log (16 hex
    /// digits) — the federation determinism contract.
    pub merged_log_hash: String,
}

impl FederationReport {
    /// The canonical serialized form, for byte-identical comparison of
    /// two runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serializing to memory cannot fail")
    }
}
