//! The federation's merged event log: shard-tagged entries totally
//! ordered by `(time, seq, shard)`.
//!
//! Each shard engine keeps its own [`Log`] of [`LogEntry`]s exactly as
//! before; the federation additionally records, in a [`Log`] of its own,
//! every processed event tagged with its shard index, in the order its
//! merge loop popped them. Because the loop
//! always pops the globally smallest `(time, seq, shard)` head — and
//! routes arrivals before any shard steps past them — the live merged log
//! equals the sorted union of the final shard logs, which
//! [`merge_shard_logs`] computes independently as a cross-check.

use ecosched_engine::{Event, Log, LogEntry, LogPosition};
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

/// Whether `entries` are strictly increasing under
/// [`FederatedLogEntry::key`] — totally ordered and duplicate-free.
#[must_use]
pub fn is_strictly_ordered(entries: &[FederatedLogEntry]) -> bool {
    entries.windows(2).all(|w| w[0].key() < w[1].key())
}

/// Merges final per-shard logs into one federation log by sorting the
/// union under `(time, seq, shard)`.
///
/// This is the *specification* of the merged log; the federation's merge
/// loop produces the same sequence live, one pop at a time, and the two
/// are asserted equal when a run finishes.
#[must_use]
pub fn merge_shard_logs(logs: &[&Log<LogEntry>]) -> Log<FederatedLogEntry> {
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
    Log {
        after: LogPosition::start(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_engine::fnv1a_64;

    fn log(entries: &[(i64, u64)]) -> Log<LogEntry> {
        let mut l = Log::new();
        for &(time, seq) in entries {
            l.push(LogEntry {
                time,
                seq,
                event: Event::JobArrival { job: 0 },
            });
        }
        l
    }

    /// Built whole from `entries`, a log hashes as its `to_json` text
    /// does; detached after any prefix and extended by `push`, it hashes
    /// like the whole log.
    fn assert_streamed_hash_is_canonical<E: Serialize + Clone>(entries: &[E]) {
        let mut whole = Log::new();
        for entry in entries {
            whole.push(entry.clone());
        }
        assert_eq!(
            whole.fnv1a_hash(),
            format!("{:016x}", fnv1a_64(whole.to_json().as_bytes())),
            "{} entries",
            entries.len()
        );
        for cut in [0, entries.len() / 2, entries.len()] {
            let mut tail = Log::detached(LogPosition::after(&entries[..cut]));
            for entry in &entries[cut..] {
                tail.push(entry.clone());
            }
            assert_eq!(tail.len(), whole.len());
            assert_eq!(
                tail.fnv1a_hash(),
                whole.fnv1a_hash(),
                "detached after {cut}"
            );
        }
    }

    /// The one log type, over both of its entry types.
    #[test]
    fn streamed_hash_is_the_hash_of_the_canonical_json() {
        for len in [0usize, 1, 40] {
            let shard: Vec<LogEntry> = (0..len)
                .map(|i| LogEntry {
                    time: i as i64 * 7,
                    seq: i as u64,
                    event: match i % 3 {
                        0 => Event::JobArrival { job: i as u32 },
                        1 => Event::SlotExpired {
                            slot: i as u64 * 1000,
                        },
                        _ => Event::CycleTick { cycle: i as u32 },
                    },
                })
                .collect();
            let stamps: Vec<(i64, u64)> = (0..len).map(|i| (i as i64 * 3, i as u64)).collect();
            let merged = merge_shard_logs(&[&log(&stamps), &log(&stamps[..len / 2])]);
            assert_eq!(merged.len(), len + len / 2);
            assert_streamed_hash_is_canonical(&shard);
            assert_streamed_hash_is_canonical(&merged.entries);
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
        assert!(is_strictly_ordered(&merged.entries));
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
