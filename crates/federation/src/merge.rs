//! The federation's merged event log: shard-tagged entries totally
//! ordered by `(time, seq, shard)`.
//!
//! Each shard engine keeps its own [`EventLog`] exactly as before; the
//! federation additionally records every processed event tagged with its
//! shard index, in the order its merge loop popped them. Because the loop
//! always pops the globally smallest `(time, seq, shard)` head — and
//! routes arrivals before any shard steps past them — the live merged log
//! equals the sorted union of the final shard logs, which
//! [`merge_shard_logs`] computes independently as a cross-check.

use ecosched_engine::{Event, EventLog, LogEntry, LogPosition};
use serde::{Deserialize, Serialize};

/// One processed event in the federation: a shard's log entry plus the
/// shard it fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FederatedLogEntry {
    /// The shard the event fired on.
    pub shard: u32,
    /// Virtual time the event fired at, in ticks.
    pub time: i64,
    /// The shard-local queue sequence number.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl FederatedLogEntry {
    /// The total-order key: time, then shard-local sequence number, then
    /// shard index. Within one shard `(time, seq)` is already a total
    /// order; the shard index breaks the remaining cross-shard ties.
    #[must_use]
    pub fn key(&self) -> (i64, u64, u32) {
        (self.time, self.seq, self.shard)
    }

    /// The entry as its shard logged it: a shard's own log is the merged
    /// log filtered to that shard and projected through this.
    #[must_use]
    pub fn shard_entry(&self) -> LogEntry {
        LogEntry {
            time: self.time,
            seq: self.seq,
            event: self.event,
        }
    }
}

/// The federation's append-only merged log, in merge-loop pop order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederationLog {
    /// The merged entries.
    pub entries: Vec<FederatedLogEntry>,
}

impl FederationLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        FederationLog::default()
    }

    /// Appends one processed event.
    pub fn push(&mut self, entry: FederatedLogEntry) {
        self.entries.push(entry);
    }

    /// Number of merged entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing has been merged yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The canonical serialized form — byte-identical across identically
    /// configured and seeded federated runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serializing to memory cannot fail")
    }

    /// FNV-1a 64 fingerprint of the canonical serialization, 16 hex
    /// digits — the federation's determinism contract in one line.
    /// Hashed an entry at a time: [`Self::to_json`] is never built.
    #[must_use]
    pub fn fnv1a_hash(&self) -> String {
        LogPosition::after(&self.entries).fnv1a_hash()
    }

    /// Whether the entries are strictly increasing under
    /// [`FederatedLogEntry::key`] — totally ordered and duplicate-free.
    #[must_use]
    pub fn is_strictly_ordered(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].key() < w[1].key())
    }
}

/// Merges final per-shard logs into one federation log by sorting the
/// union under `(time, seq, shard)`.
///
/// This is the *specification* of the merged log; the federation's merge
/// loop produces the same sequence live, one pop at a time, and the two
/// are asserted equal when a run finishes.
#[must_use]
pub fn merge_shard_logs(logs: &[&EventLog]) -> FederationLog {
    let mut entries: Vec<FederatedLogEntry> = logs
        .iter()
        .enumerate()
        .flat_map(|(shard, log)| {
            log.entries.iter().map(move |e| FederatedLogEntry {
                shard: shard as u32,
                time: e.time,
                seq: e.seq,
                event: e.event,
            })
        })
        .collect();
    entries.sort_by_key(FederatedLogEntry::key);
    FederationLog { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_engine::fnv1a_64;

    fn log(entries: &[(i64, u64)]) -> EventLog {
        let mut l = EventLog::new();
        for &(time, seq) in entries {
            l.push(time, seq, Event::JobArrival { job: 0 });
        }
        l
    }

    #[test]
    fn streamed_hash_is_the_hash_of_the_canonical_json() {
        for len in [0usize, 1, 40] {
            let stamps: Vec<(i64, u64)> = (0..len).map(|i| (i as i64 * 3, i as u64)).collect();
            let (a, b) = (log(&stamps), log(&stamps[..len / 2]));
            let merged = merge_shard_logs(&[&a, &b]);
            assert_eq!(merged.len(), len + len / 2);
            assert_eq!(
                merged.fnv1a_hash(),
                format!("{:016x}", fnv1a_64(merged.to_json().as_bytes())),
                "{} entries",
                merged.len()
            );
        }
    }

    #[test]
    fn merge_sorts_by_time_seq_shard() {
        let a = log(&[(0, 0), (5, 3), (9, 4)]);
        let b = log(&[(0, 0), (5, 1), (5, 2)]);
        let merged = merge_shard_logs(&[&a, &b]);
        let keys: Vec<(i64, u64, u32)> =
            merged.entries.iter().map(FederatedLogEntry::key).collect();
        assert_eq!(
            keys,
            vec![
                (0, 0, 0),
                (0, 0, 1),
                (5, 1, 1),
                (5, 2, 1),
                (5, 3, 0),
                (9, 4, 0)
            ]
        );
        assert!(merged.is_strictly_ordered());
    }

    #[test]
    fn single_shard_merge_preserves_the_log_verbatim() {
        let a = log(&[(0, 0), (3, 1), (3, 2)]);
        let merged = merge_shard_logs(&[&a]);
        assert_eq!(merged.len(), a.len());
        for (fed, plain) in merged.entries.iter().zip(&a.entries) {
            assert_eq!(fed.shard, 0);
            assert_eq!(
                (fed.time, fed.seq, fed.event),
                (plain.time, plain.seq, plain.event)
            );
        }
    }

    #[test]
    fn hash_is_stable_and_shard_sensitive() {
        let a = log(&[(0, 0)]);
        let b = log(&[(0, 0)]);
        let ab = merge_shard_logs(&[&a, &b]);
        let ab2 = merge_shard_logs(&[&a, &b]);
        assert_eq!(ab.fnv1a_hash(), ab2.fnv1a_hash());
        let ba = merge_shard_logs(&[&b]);
        assert_ne!(ab.fnv1a_hash(), ba.fnv1a_hash());
    }
}
