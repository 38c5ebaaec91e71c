//! Time-series metrics emitted by an engine run.

use ecosched_optimize::OptStats;
use serde::{Deserialize, Serialize};

/// One scheduling cycle's snapshot of the online system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CyclePoint {
    /// The cycle index.
    pub cycle: u32,
    /// Virtual time the cycle fired at.
    pub time: i64,
    /// Vacant slots in the clipped market snapshot the pipeline saw.
    pub market_slots: usize,
    /// Jobs in the cycle's batch (pending arrivals plus carry-overs).
    pub batch_size: usize,
    /// Jobs committed to leases this cycle.
    pub scheduled: usize,
    /// Jobs postponed to the next cycle.
    pub postponed: usize,
    /// Mean wait (commit start minus arrival, ticks) of the jobs committed
    /// this cycle; `0` when none were.
    pub mean_wait: f64,
    /// Money spent on the leases committed this cycle.
    pub spend: f64,
}

/// The aggregate report of one engine run.
///
/// All fields are plain serializable values so two identically seeded runs
/// can be compared byte-for-byte through `serde_json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Per-cycle time series, in cycle order.
    pub cycles: Vec<CyclePoint>,
    /// Jobs that entered the pending queue.
    pub jobs_arrived: u64,
    /// Lease commitments made at cycle ticks (excluding repair
    /// re-commitments).
    pub jobs_scheduled: u64,
    /// Leases that ran to completion.
    pub jobs_completed: u64,
    /// Jobs still pending when the event queue drained.
    pub backlog: u64,
    /// Mean wait over completed jobs: lease start minus arrival, ticks.
    pub mean_wait: f64,
    /// Mean bounded slowdown over completed jobs:
    /// `max((wait + run) / max(run, τ), 1)`.
    pub mean_bounded_slowdown: f64,
    /// Busy node-ticks over published node-ticks.
    pub utilization: f64,
    /// Cumulative lease spend per virtual organisation (round-robin
    /// assignment by arrival order).
    pub vo_spend: Vec<f64>,
    /// Revocations drawn by the mid-cycle fault model.
    pub revocations: u64,
    /// Active leases broken by a strike.
    pub leases_broken: u64,
    /// Broken leases recovered by adopting a surviving alternative.
    pub failovers: u64,
    /// Broken leases recovered by the bounded repair search.
    pub repairs: u64,
    /// Broken leases returned to the pending queue.
    pub repostponed: u64,
    /// Always zero. Earlier builds counted an optional full-rescan repair
    /// tier here; the tier is gone, but every golden snapshot and report
    /// holds the key and the snapshot round-trip re-encodes them byte for
    /// byte, so the field stays on the wire.
    pub full_rescans: u64,
    /// Completion events that arrived for a lease already broken and
    /// replaced (their ids went stale).
    pub stale_completions: u64,
    /// Events processed before the queue drained.
    pub event_count: u64,
    /// Adjacent same-node, same-price, same-performance vacant slots
    /// absorbed by the cycle-commit coalescing pass (zero when
    /// [`coalesce`](crate::EngineConfig::coalesce) is off).
    pub slots_coalesced: u64,
    /// Combination-optimizer work counters summed over all cycle ticks
    /// (solves, dynamic-programming rows and Pareto layers built, the
    /// largest table any one cycle held). Each cycle plans with a fresh
    /// optimizer, so the three reuse counters stay zero.
    pub opt: OptStats,
    /// FNV-1a 64 fingerprint of the serialized event log (16 hex digits).
    pub log_hash: String,
}

impl EngineReport {
    /// The canonical serialized form, for byte-identical comparison of two
    /// runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serializing to memory cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_round_trip() {
        let report = EngineReport {
            cycles: vec![CyclePoint {
                cycle: 0,
                time: 0,
                market_slots: 130,
                batch_size: 4,
                scheduled: 3,
                postponed: 1,
                mean_wait: 2.5,
                spend: 410.25,
            }],
            jobs_arrived: 4,
            jobs_scheduled: 3,
            vo_spend: vec![100.0, 200.0, 110.25],
            log_hash: "0123456789abcdef".into(),
            ..EngineReport::default()
        };
        let json = report.to_json();
        let back: EngineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }
}
