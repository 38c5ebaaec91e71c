//! Property tests for the merged-log total order: random per-shard event
//! streams merge to a strictly ordered, duplicate-free sequence under
//! `(time, seq, shard)` that preserves every shard's stream verbatim.
//! And for the log position both logs share: hashing a log in two pieces
//! equals hashing it whole, wherever the cut.

use ecosched_engine::{Event, Log, LogEntry, LogPosition};
use ecosched_federation::{is_strictly_ordered, merge_shard_logs, FederatedLogEntry};
use proptest::prelude::*;
use serde::Serialize;

/// A valid shard stream: entries strictly increasing under `(time, seq)`
/// (the order a single engine pops and logs events in).
fn shard_stream() -> impl Strategy<Value = Vec<(i64, u64)>> {
    prop::collection::vec((0i64..200, 0u64..500), 0..48).prop_map(|mut pairs| {
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    })
}

fn build_log(stream: &[(i64, u64)]) -> Log<LogEntry> {
    let mut log = Log::new();
    for (i, &(time, seq)) in stream.iter().enumerate() {
        // Every event shape, so entries differ in length and nesting.
        let event = match i % 6 {
            0 => Event::JobArrival { job: i as u32 },
            1 => Event::SlotPublished {
                round: i as u32,
                count: seq as u32,
            },
            2 => Event::SlotExpired { slot: seq * 1000 },
            3 => Event::LeaseCompleted { lease: seq },
            4 => Event::RevocationStrike { strike: i as u32 },
            _ => Event::CycleTick { cycle: i as u32 },
        };
        log.push(LogEntry { time, seq, event });
    }
    log
}

/// The position after `entries[..split]`, extended over the rest and
/// closed, as the 16 hex digits `fnv1a_hash()` prints.
fn hash_in_two_pieces<E: Serialize>(entries: &[E], split: usize) -> String {
    let mut at = LogPosition::after(&entries[..split]);
    assert_eq!(at.len, split as u64);
    at.push_all(&entries[split..]);
    assert_eq!(at.len, entries.len() as u64);
    at.fnv1a_hash()
}

proptest! {
    /// The merge of any shard streams is strictly ordered under
    /// `(time, seq, shard)` — totally ordered and duplicate-free — and
    /// loses nothing.
    #[test]
    fn merge_is_totally_ordered_and_complete(
        streams in prop::collection::vec(shard_stream(), 1..5)
    ) {
        let logs: Vec<Log<LogEntry>> = streams.iter().map(|s| build_log(s)).collect();
        let refs: Vec<&Log<LogEntry>> = logs.iter().collect();
        let merged = merge_shard_logs(&refs);

        let total: usize = streams.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.len(), total, "entries were lost or invented");
        prop_assert!(is_strictly_ordered(&merged.entries), "order violated or duplicate key");

        for window in merged.entries.windows(2) {
            prop_assert!(window[0].key() < window[1].key());
        }
    }

    /// Restricting the merge to one shard returns that shard's stream
    /// verbatim — merging never reorders a shard against itself.
    #[test]
    fn merge_preserves_each_shard_stream(
        streams in prop::collection::vec(shard_stream(), 1..5)
    ) {
        let logs: Vec<Log<LogEntry>> = streams.iter().map(|s| build_log(s)).collect();
        let refs: Vec<&Log<LogEntry>> = logs.iter().collect();
        let merged = merge_shard_logs(&refs);

        for (shard, stream) in streams.iter().enumerate() {
            let filtered: Vec<(i64, u64)> = merged
                .entries
                .iter()
                .filter(|e| e.shard == shard as u32)
                .map(|e| (e.time, e.seq))
                .collect();
            prop_assert_eq!(&filtered, stream, "shard {} stream mangled", shard);
        }
    }

    /// A position extended over the rest of the log and closed is the
    /// log's hash, for the engine's log and the merged one, at every cut
    /// — the start and the end included.
    #[test]
    fn a_position_extended_to_the_end_is_the_log_hash(
        streams in prop::collection::vec(shard_stream(), 1..4),
        cut in any::<prop::sample::Index>(),
    ) {
        let logs: Vec<Log<LogEntry>> = streams.iter().map(|s| build_log(s)).collect();
        for log in &logs {
            let split = cut.index(log.len() + 1);
            prop_assert_eq!(hash_in_two_pieces(&log.entries, split), log.fnv1a_hash());
        }
        let refs: Vec<&Log<LogEntry>> = logs.iter().collect();
        let merged = merge_shard_logs(&refs);
        let split = cut.index(merged.len() + 1);
        prop_assert_eq!(hash_in_two_pieces(&merged.entries, split), merged.fnv1a_hash());
        // A shard's log is the merged log's projection onto it.
        for (shard, log) in logs.iter().enumerate() {
            let projected: Vec<_> = merged
                .entries
                .iter()
                .filter(|e| e.shard == shard as u32)
                .map(FederatedLogEntry::shard_entry)
                .collect();
            prop_assert_eq!(&projected, &log.entries);
        }
    }

    /// The merge is idempotent: merging the merged log (as a single
    /// stream, re-keyed) keeps the exact entry sequence.
    #[test]
    fn merge_hash_is_a_pure_function_of_the_streams(
        streams in prop::collection::vec(shard_stream(), 1..4)
    ) {
        let logs: Vec<Log<LogEntry>> = streams.iter().map(|s| build_log(s)).collect();
        let refs: Vec<&Log<LogEntry>> = logs.iter().collect();
        let first = merge_shard_logs(&refs);
        let second = merge_shard_logs(&refs);
        prop_assert_eq!(first.fnv1a_hash(), second.fnv1a_hash());
        prop_assert_eq!(first.to_json(), second.to_json());
    }
}

#[test]
fn the_start_position_closes_to_the_empty_log_hash() {
    assert_eq!(
        LogPosition::start().fnv1a_hash(),
        Log::<LogEntry>::new().fnv1a_hash()
    );
    assert_eq!(
        hash_in_two_pieces::<FederatedLogEntry>(&[], 0),
        merge_shard_logs(&[]).fnv1a_hash()
    );
    // A cut at 0 of a non-empty log starts from the same place.
    let log = build_log(&[(0, 0), (3, 1), (3, 2)]);
    assert_eq!(hash_in_two_pieces(&log.entries, 0), log.fnv1a_hash());
    assert_eq!(hash_in_two_pieces(&log.entries, 3), log.fnv1a_hash());
}

#[test]
fn entry_key_orders_time_then_seq_then_shard() {
    let entry = |shard, time, seq| FederatedLogEntry {
        shard,
        time,
        seq,
        event: Event::JobArrival { job: 0 },
    };
    assert!(
        entry(3, 1, 9).key() < entry(0, 2, 0).key(),
        "time dominates"
    );
    assert!(
        entry(3, 5, 1).key() < entry(0, 5, 2).key(),
        "seq breaks time ties"
    );
    assert!(
        entry(0, 5, 2).key() < entry(1, 5, 2).key(),
        "shard breaks the rest"
    );
}
