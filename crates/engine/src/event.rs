//! The engine's event taxonomy and the serialized, hashable event log.
//!
//! Every state change in the engine is driven by exactly one [`Event`]
//! popped from the queue, and every processed event is appended to the
//! run's [`Log`] as a [`LogEntry`] carrying its virtual time and queue
//! sequence number. Because the engine is single-threaded, draws all
//! randomness from one seeded RNG in event order, and breaks queue ties
//! deterministically on `(time, seq)`, two runs with the same seed and
//! configuration produce byte-identical serialized logs — the determinism
//! contract that [`Log::fnv1a_hash`] turns into a one-line check.
//!
//! A [`LogPosition`] names a *prefix* of such a log as precisely as the
//! hash names the whole, and can be extended entry by entry without
//! revisiting the prefix. A [`Log`] is the entries after a position: a
//! run's own log starts at the beginning, and a long-lived run (the
//! service daemon) [trims](Log::trim) it to its newest entry, keeping the
//! position of everything it dropped.

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
/// Every [`Log`] has this shape whatever its entries — the engine's and
/// the federation's merged one alike.
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

/// The append-only log of a run, in processing order: the entries after
/// a position.
///
/// After [`LogPosition::start`] that is the whole log — a run's own log
/// is until someone trims it, and so is a checkpoint's as `checkpoint()`
/// clones it. After a later position the log is *trimmed*: the entries
/// before it are gone, and only their position — length and hash — is
/// kept. A run reads nothing of its log but the newest entry, which
/// [`Self::trim`] keeps, so a trimmed log runs on exactly as the whole one
/// would. A log after a later position that holds no entry at all is
/// *detached*: what a format 3–4 snapshot store wrote, whose prefix lives
/// in the store's log segment and must be attached before it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log<E> {
    /// The position the entries follow.
    pub after: LogPosition,
    /// The entries from that position on.
    pub entries: Vec<E>,
}

impl<E> Log<E> {
    /// An empty whole log.
    #[must_use]
    pub fn new() -> Self {
        Log::detached(LogPosition::start())
    }

    /// The empty tail of a log whose entries all lie before `after`.
    #[must_use]
    pub fn detached(after: LogPosition) -> Self {
        Log {
            after,
            entries: Vec::new(),
        }
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: E) {
        self.entries.push(entry);
    }

    /// Entries the log had emitted, trimmed or detached ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.after.len as usize + self.entries.len()
    }

    /// Returns `true` when the log had emitted nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole log, unless part of it is trimmed or detached.
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
        self.after = LogPosition::start();
        self.entries = prefix;
    }
}

impl<E> Default for Log<E> {
    fn default() -> Self {
        Log::new()
    }
}

impl<E: Serialize> Log<E> {
    /// Drops every entry but the newest, moving [`Self::after`] past the
    /// dropped ones. [`Self::len`], [`Self::fnv1a_hash`] and the wire form
    /// of what is left describe the same log as before; only the history
    /// is gone.
    pub fn trim(&mut self) {
        let Some(dropped) = self.entries.len().checked_sub(1).filter(|&n| n > 0) else {
            return;
        };
        self.after.push_all(&self.entries[..dropped]);
        self.entries.drain(..dropped);
    }

    /// The canonical serialized form of the entries held,
    /// `{"entries":[…]}` — of a whole log, the log itself, byte-identical
    /// across identically seeded runs (the determinism contract).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = br#"{"entries":"#.to_vec();
        self.entries.write_json(&mut out);
        out.push(b'}');
        String::from_utf8(out).expect("JSON is UTF-8")
    }

    /// FNV-1a 64 hash of the whole log's canonical serialization — of a
    /// whole log, of [`Self::to_json`] — as 16 hex digits (a stable
    /// one-line fingerprint for tests and the CI smoke job). Hashed an
    /// entry at a time from the position the entries follow, so the text
    /// is never built and a trimmed prefix is never needed.
    #[must_use]
    pub fn fnv1a_hash(&self) -> String {
        let mut at = self.after;
        at.push_all(&self.entries);
        at.fnv1a_hash()
    }
}

// Generic, so out of the derive's reach. The wire form carries the
// position; `to_json` above is the entries-only text the hash is of.
impl<E: Serialize> Serialize for Log<E> {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(br#"{"after":"#);
        self.after.write_json(out);
        out.extend_from_slice(br#","entries":"#);
        self.entries.write_json(out);
        out.push(b'}');
    }
}

impl<'de, E: Deserialize<'de>> Deserialize<'de> for Log<E> {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut after, mut entries) = (None, None);
        parser.read_map(|parser, key| match key {
            "after" => parser.field(&mut after, key),
            "entries" => parser.field(&mut entries, key),
            _ => parser.skip_value(),
        })?;
        Ok(Log {
            // Snapshot formats 1 and 2, and every `to_json` text, hold the
            // entries alone, `{"entries": […]}`: a log after the start.
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
        let entry = |time, seq, event| LogEntry { time, seq, event };
        let two = || {
            let mut log = Log::new();
            log.push(entry(0, 0, Event::JobArrival { job: 0 }));
            log.push(entry(5, 1, Event::CycleTick { cycle: 0 }));
            log
        };
        let (a, mut b) = (two(), two());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.fnv1a_hash(), b.fnv1a_hash());
        assert_eq!(a.fnv1a_hash().len(), 16);

        b.push(entry(5, 2, Event::SlotExpired { slot: 3 }));
        assert_ne!(a.fnv1a_hash(), b.fnv1a_hash());
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    /// Trimming keeps the newest entry and moves the position over the
    /// rest: length, hash and what a log pushed on from there hashes to
    /// stay those of the whole log.
    #[test]
    fn trimming_keeps_the_newest_entry_and_the_hash() {
        let entry = |job| LogEntry {
            time: i64::from(job),
            seq: u64::from(job),
            event: Event::JobArrival { job },
        };
        let mut whole = Log::new();
        let mut trimmed = Log::new();
        trimmed.trim();
        assert_eq!(trimmed, whole);
        for job in 0..6 {
            whole.push(entry(job));
            trimmed.push(entry(job));
            trimmed.trim();
            assert_eq!(trimmed.entries, [entry(job)]);
            assert_eq!(trimmed.len(), whole.len());
            assert_eq!(trimmed.fnv1a_hash(), whole.fnv1a_hash());
            assert_eq!(
                trimmed.after,
                LogPosition::after(&whole.entries[..whole.len() - 1])
            );
        }
        let wire = serde_json::to_string(&trimmed).unwrap();
        assert_eq!(
            serde_json::from_str::<Log<LogEntry>>(&wire).unwrap(),
            trimmed
        );
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
