//! The engine's event taxonomy and the serialized, hashable event log.
//!
//! Every state change in the engine is driven by exactly one [`Event`]
//! popped from the queue, and every processed event is appended to the
//! [`EventLog`] as a [`LogEntry`] carrying its virtual time and queue
//! sequence number. Because the engine is single-threaded, draws all
//! randomness from one seeded RNG in event order, and breaks queue ties
//! deterministically on `(time, seq)`, two runs with the same seed and
//! configuration produce byte-identical serialized logs — the determinism
//! contract that [`EventLog::fnv1a_hash`] turns into a one-line check.
//!
//! A [`LogPosition`] names a *prefix* of such a log as precisely as the
//! hash names the whole, and can be extended entry by entry without
//! revisiting the prefix; a [`LogTail`] is what a checkpoint carries of
//! its log — the entries after a position.

use serde::{Deserialize, Serialize};

/// One typed event of the discrete-event engine.
///
/// Payloads are plain identifiers (engine job ids, lease ids, raw slot
/// ids) rather than references into engine state, so the log is
/// self-contained and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Event {
    /// A job entered the pending queue.
    JobArrival {
        /// The engine job id (arrival order).
        job: u32,
    },
    /// A batch of fresh vacant slots was published by the owners.
    SlotPublished {
        /// The publication round (one per cycle).
        round: u32,
        /// Slots added to the market.
        count: u32,
    },
    /// A published slot reached the end of its span; triggers a sweep
    /// that drops every fully expired vacant slot.
    SlotExpired {
        /// The raw id the slot was published under (it may since have
        /// been carved into remnants or consumed entirely).
        slot: u64,
    },
    /// A committed lease finished executing; unused tail capacity returns
    /// to the vacant list.
    LeaseCompleted {
        /// The lease id. Stale ids (leases broken and replaced since the
        /// event was scheduled) are ignored.
        lease: u64,
    },
    /// A mid-cycle fault process fired: revocations are drawn against the
    /// live state (vacant slots plus active leases) and broken leases run
    /// the three-tier repair pass.
    RevocationStrike {
        /// The strike index (one per cycle, mid-cycle).
        strike: u32,
    },
    /// A scheduling cycle: snapshot the live market, run the batch
    /// pipeline (alternatives search, VO limits, combination
    /// optimization) over the pending jobs, and commit the chosen windows
    /// as leases.
    CycleTick {
        /// The cycle index.
        cycle: u32,
    },
}

/// One processed event with its virtual time and queue sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogEntry {
    /// Virtual time the event fired at, in ticks.
    pub time: i64,
    /// Queue sequence number (insertion order; the `(time, seq)` pop
    /// tie-break).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The append-only log of every event the engine processed, in pop order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventLog {
    /// The processed events, in order.
    pub entries: Vec<LogEntry>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends one processed event.
    pub fn push(&mut self, time: i64, seq: u64, event: Event) {
        self.entries.push(LogEntry { time, seq, event });
    }

    /// Number of logged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The canonical serialized form of the log. Byte-identical across
    /// identically seeded runs — the determinism contract.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serializing to memory cannot fail")
    }

    /// FNV-1a 64 hash of the canonical serialization, rendered as 16 hex
    /// digits (a stable one-line fingerprint for tests and the CI smoke
    /// job). Hashed an entry at a time: [`Self::to_json`] is never built.
    #[must_use]
    pub fn fnv1a_hash(&self) -> String {
        LogPosition::after(&self.entries).fnv1a_hash()
    }
}

/// FNV-1a 64-bit hash (implemented locally — the build is offline and the
/// fingerprint only needs to be stable and sensitive, not cryptographic).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a_extend(OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes: `hash` is the state after
/// everything hashed so far, so hashing a byte string in pieces equals
/// hashing it whole.
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A position in an append-only log: how many entries precede it, and the
/// running FNV-1a 64 state over the canonical serialization of exactly
/// those entries — `{"entries":[` followed by their JSON, comma
/// separated. Closing that state with `]}` ([`Self::fnv1a_hash`]) gives
/// the log's `fnv1a_hash()` at that length, so a position identifies a log
/// prefix as exactly as the hash identifies a log, and it is extended
/// over new entries without touching the old ones.
///
/// The shape is shared by [`EventLog`] and the federation's merged log
/// (both serialize as `{"entries": […]}`), so one type serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogPosition {
    /// Entries before this position.
    pub len: u64,
    /// FNV-1a 64 state after hashing the canonical prefix.
    pub hash: u64,
}

impl LogPosition {
    /// The position before the first entry.
    #[must_use]
    pub fn start() -> Self {
        LogPosition {
            len: 0,
            hash: fnv1a_64(br#"{"entries":["#),
        }
    }

    /// The position after all of `entries`.
    #[must_use]
    pub fn after<E: Serialize>(entries: &[E]) -> Self {
        let mut at = LogPosition::start();
        at.push_all(entries);
        at
    }

    /// Moves past one entry, given its canonical JSON.
    pub fn extend(&mut self, entry_json: &[u8]) {
        if self.len > 0 {
            self.hash = fnv1a_extend(self.hash, b",");
        }
        self.hash = fnv1a_extend(self.hash, entry_json);
        self.len += 1;
    }

    /// Moves past `entries`, the log's next ones.
    pub fn push_all<E: Serialize>(&mut self, entries: &[E]) {
        let mut json = Vec::new();
        for entry in entries {
            json.clear();
            entry.write_json(&mut json);
            self.extend(&json);
        }
    }

    /// The `fnv1a_hash()` of the log that ends here: the state closed
    /// with `]}`, as 16 hex digits.
    #[must_use]
    pub fn fnv1a_hash(&self) -> String {
        format!("{:016x}", fnv1a_extend(self.hash, b"]}"))
    }
}

/// What a checkpoint carries of its run's log: the entries after a
/// position. After [`LogPosition::start`] that is the whole log and the
/// checkpoint is self-contained (every standalone snapshot file); after a
/// later position the tail is *detached* — the prefix lives in a rotated
/// store's log segment, which re-attaches and verifies it on load — and
/// the checkpoint cannot be resumed until it is put back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogTail<E> {
    /// The position the entries follow.
    pub after: LogPosition,
    /// The entries from that position on.
    pub entries: Vec<E>,
}

impl<E> LogTail<E> {
    /// A whole log.
    #[must_use]
    pub fn complete(entries: Vec<E>) -> Self {
        LogTail {
            after: LogPosition::start(),
            entries,
        }
    }

    /// The empty tail of a log whose entries all lie before `after`.
    #[must_use]
    pub fn detached(after: LogPosition) -> Self {
        LogTail {
            after,
            entries: Vec::new(),
        }
    }

    /// Entries the log had emitted, detached ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.after.len as usize + self.entries.len()
    }

    /// Returns `true` when the log had emitted nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole log, unless part of it is detached.
    #[must_use]
    pub fn whole(&self) -> Option<&[E]> {
        (self.after.len == 0).then_some(self.entries.as_slice())
    }

    /// Puts back the entries this tail was cut from. The caller vouches
    /// that `prefix` is the log up to [`Self::after`].
    ///
    /// # Panics
    ///
    /// When `prefix` is not as long as the position says.
    pub fn attach(&mut self, mut prefix: Vec<E>) {
        assert_eq!(prefix.len() as u64, self.after.len, "prefix length");
        prefix.append(&mut self.entries);
        *self = LogTail::complete(prefix);
    }
}

// Generic, so out of the derive's reach.
impl<E: Serialize> Serialize for LogTail<E> {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(br#"{"after":"#);
        self.after.write_json(out);
        out.extend_from_slice(br#","entries":"#);
        self.entries.write_json(out);
        out.push(b'}');
    }
}

impl<'de, E: Deserialize<'de>> Deserialize<'de> for LogTail<E> {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut after, mut entries) = (None, None);
        parser.read_map(|parser, key| match key {
            "after" => parser.field(&mut after, key),
            "entries" => parser.field(&mut entries, key),
            _ => parser.skip_value(),
        })?;
        Ok(LogTail {
            // Snapshot formats 1 and 2 stored the log itself,
            // `{"entries": […]}`: a tail after the start.
            after: after.unwrap_or_else(LogPosition::start),
            entries: serde::required(entries, "entries")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn log_hash_is_stable_and_sensitive() {
        let mut a = EventLog::new();
        a.push(0, 0, Event::JobArrival { job: 0 });
        a.push(5, 1, Event::CycleTick { cycle: 0 });
        let mut b = EventLog::new();
        b.push(0, 0, Event::JobArrival { job: 0 });
        b.push(5, 1, Event::CycleTick { cycle: 0 });
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.fnv1a_hash(), b.fnv1a_hash());
        assert_eq!(a.fnv1a_hash().len(), 16);

        b.push(5, 2, Event::SlotExpired { slot: 3 });
        assert_ne!(a.fnv1a_hash(), b.fnv1a_hash());
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn streamed_hash_is_the_hash_of_the_canonical_json() {
        let mut log = EventLog::new();
        for len in [0u64, 1, 40] {
            while (log.len() as u64) < len {
                let i = log.len() as u64;
                let event = match i % 3 {
                    0 => Event::JobArrival { job: i as u32 },
                    1 => Event::SlotExpired { slot: i * 1000 },
                    _ => Event::CycleTick { cycle: i as u32 },
                };
                log.push(i as i64 * 7, i, event);
            }
            assert_eq!(
                log.fnv1a_hash(),
                format!("{:016x}", fnv1a_64(log.to_json().as_bytes())),
                "{len} entries"
            );
        }
    }

    #[test]
    fn events_serialize_round_trip() {
        let events = [
            Event::JobArrival { job: 7 },
            Event::SlotPublished {
                round: 1,
                count: 130,
            },
            Event::SlotExpired { slot: 42 },
            Event::LeaseCompleted { lease: 3 },
            Event::RevocationStrike { strike: 2 },
            Event::CycleTick { cycle: 9 },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }
    }
}
