//! The rotated store's log segment: the run's log, kept once, beside
//! the snapshots that no longer carry it.
//!
//! One append-only file per store, one entry per line in canonical JSON
//! — the very bytes the log's hash is defined over, so the store extends
//! a [`LogPosition`] from what it appends and never re-serializes what it
//! already holds. A save appends the entries the segment lacks and
//! fsyncs them *before* the snapshot that records their position is
//! renamed into place; a crash in between leaves a segment longer than
//! any snapshot says, never a snapshot the segment cannot satisfy.
//!
//! The segment is a cache of a log that can always be regenerated
//! (replay is deterministic), so nothing in it is trusted blind. What a
//! load hands out is verified against the position hash the snapshot
//! records; what a save builds on is only what this process verified or
//! wrote itself ([`Tip`]), and a whole log that does not extend that — a
//! store reused for another run — makes the segment be written afresh
//! from that log. A caller that knows where the segment ends hands in
//! only the entries after it ([`Segment::append`]), which costs what is
//! new; a tail after any other position is refused. A reader stops at
//! the first torn or unparsable line; the next append cuts the file
//! there.

use std::fs::{self, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use ecosched_engine::LogPosition;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::format::{words_extend, PersistError};
use crate::rotate::atomic_save;

/// Where the part of the segment a save may build on ends.
#[derive(Debug, Clone, Copy)]
struct Tip {
    /// The entries held, as a log position.
    at: LogPosition,
    /// The byte length of their lines.
    bytes: u64,
    /// Their [`digest`].
    digest: u64,
}

impl Tip {
    const EMPTY_DIGEST: u64 = 0;

    fn empty() -> Self {
        Tip {
            at: LogPosition::start(),
            bytes: 0,
            digest: Tip::EMPTY_DIGEST,
        }
    }
}

/// The container's word checksum step ([`words_extend`]) as a
/// [`Hasher`]: one step per word of each field of an entry.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = words_extend(self.0, bytes);
    }
}

/// Continues a running digest of in-memory entries. It costs a few
/// multiplications an entry where the canonical hash costs a
/// serialization, which is what lets a save handed a whole log check
/// that it still starts with what the segment holds.
fn digest<E: Hash>(from: u64, entries: &[E]) -> u64 {
    let mut hasher = WordHasher(from);
    for entry in entries {
        entry.hash(&mut hasher);
    }
    hasher.finish()
}

/// The lines of `entries`, and the tip once they follow `tip`.
fn lines<E: Serialize + Hash>(mut tip: Tip, entries: &[E]) -> (Vec<u8>, Tip) {
    let mut bytes = Vec::new();
    for entry in entries {
        let line = bytes.len();
        entry.write_json(&mut bytes);
        tip.at.extend(&bytes[line..]);
        bytes.push(b'\n');
    }
    tip.bytes += bytes.len() as u64;
    tip.digest = digest(tip.digest, entries);
    (bytes, tip)
}

/// A segment file's valid prefix, parsed.
#[derive(Debug)]
pub(crate) struct Held<E> {
    pub(crate) entries: Vec<E>,
    /// After each entry, the position's hash state and the byte offset.
    marks: Vec<(u64, u64)>,
}

impl<E: Clone + Hash> Held<E> {
    /// The position after the first `len` entries and their byte length.
    fn mark(&self, len: usize) -> (LogPosition, u64) {
        match len.checked_sub(1) {
            None => (LogPosition::start(), 0),
            Some(last) => {
                let (hash, bytes) = self.marks[last];
                let len = len as u64;
                (LogPosition { len, hash }, bytes)
            }
        }
    }

    fn tip_at(&self, len: usize) -> Tip {
        let (at, bytes) = self.mark(len);
        Tip {
            at,
            bytes,
            digest: digest(Tip::EMPTY_DIGEST, &self.entries[..len]),
        }
    }

    /// The entries before `position`, if the segment holds them.
    ///
    /// # Errors
    ///
    /// [`PersistError::LogSegment`] when the segment is shorter than the
    /// position or its entries hash differently.
    pub(crate) fn prefix(&self, position: LogPosition) -> Result<Vec<E>, PersistError> {
        let refuse = |detail: String| PersistError::LogSegment { position, detail };
        let len = usize::try_from(position.len)
            .ok()
            .filter(|&len| len <= self.entries.len())
            .ok_or_else(|| refuse(format!("it holds {} entries", self.entries.len())))?;
        let found = self.mark(len).0.hash;
        if found != position.hash {
            return Err(refuse(format!("its entries hash to {found:016x}")));
        }
        Ok(self.entries[..len].to_vec())
    }
}

/// One store's log segment file.
#[derive(Debug)]
pub(crate) struct Segment {
    path: PathBuf,
    /// `None` until this process has read or written the file.
    tip: Option<Tip>,
}

impl Segment {
    pub(crate) fn new(path: PathBuf) -> Self {
        Segment { path, tip: None }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the file: every complete line that parses as an entry, up
    /// to the first that does not. A missing file holds nothing.
    pub(crate) fn read<E: DeserializeOwned>(&self) -> std::io::Result<Held<E>> {
        let bytes = match fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut held = Held {
            entries: Vec::new(),
            marks: Vec::new(),
        };
        let (mut at, mut end) = (LogPosition::start(), 0u64);
        for piece in bytes.split_inclusive(|&b| b == b'\n') {
            // A line without its newline is an interrupted append.
            let Some(line) = piece.strip_suffix(b"\n") else {
                break;
            };
            let Some(entry) = std::str::from_utf8(line)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())
            else {
                break;
            };
            at.extend(line);
            end += piece.len() as u64;
            held.entries.push(entry);
            held.marks.push((at.hash, end));
        }
        Ok(held)
    }

    /// Builds the next save on the first `len` entries of `held`: a
    /// snapshot's position has just vouched for them. Lines past them
    /// were appended by a process that died before its snapshot landed;
    /// the next append overwrites them.
    pub(crate) fn trust<E: Clone + Hash>(&mut self, held: &Held<E>, len: usize) {
        self.tip = Some(held.tip_at(len));
    }

    /// The tip of everything the file holds.
    fn read_tip<E: DeserializeOwned + Clone + Hash>(&self) -> std::io::Result<Tip> {
        let held = self.read::<E>()?;
        Ok(held.tip_at(held.entries.len()))
    }

    /// The tip a write builds on: the one this process recorded, or else
    /// what the file holds. Taken, so that it stays forgotten unless the
    /// write succeeds: a failed one leaves the file in a state only a
    /// fresh read can describe.
    fn take_tip<E: DeserializeOwned + Clone + Hash>(&mut self) -> std::io::Result<Tip> {
        match self.tip.take() {
            Some(tip) => Ok(tip),
            None => self.read_tip::<E>(),
        }
    }

    fn on_disk(&self) -> u64 {
        fs::metadata(&self.path).map_or(0, |m| m.len())
    }

    /// Writes `lines` over whatever follows `tip` in the file, and syncs
    /// them.
    fn write_after(&self, tip: &Tip, lines: &[u8]) -> std::io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&self.path)?;
        file.set_len(tip.bytes)?;
        file.seek(SeekFrom::End(0))?;
        file.write_all(lines)?;
        file.sync_data()
    }

    /// Makes `entries`, a whole log, what the segment durably holds and
    /// the next save builds on. Returns the position after them, and
    /// whether the file was written afresh because `entries` do not
    /// extend what it held; a [`digest`] of the whole log decides that.
    /// The directory entry of a newly created file is made durable by
    /// the snapshot save that follows, which syncs the directory both
    /// share.
    pub(crate) fn hold<E>(&mut self, entries: &[E]) -> Result<(LogPosition, bool), PersistError>
    where
        E: Serialize + DeserializeOwned + Clone + Hash,
    {
        let tip = self.take_tip::<E>()?;
        let kept = tip.at.len as usize;
        let extends = entries.len() >= kept
            && self.on_disk() >= tip.bytes
            && digest(Tip::EMPTY_DIGEST, &entries[..kept]) == tip.digest;
        let next = if extends {
            let (bytes, next) = lines(tip, &entries[kept..]);
            self.write_after(&tip, &bytes)?;
            next
        } else {
            let (bytes, next) = lines(Tip::empty(), entries);
            atomic_save(&self.path, &bytes)?;
            next
        };
        self.tip = Some(next);
        Ok((next.at, !extends))
    }

    /// Appends `tail`, the log's entries after `after`, durably, and
    /// returns the position after them. Nothing of the history is looked
    /// at: `after` names it, and it must be the segment's tip.
    ///
    /// # Errors
    ///
    /// [`PersistError::OffTip`] when `after` is not where the segment
    /// ends; the file is then left as it was.
    pub(crate) fn append<E>(
        &mut self,
        after: LogPosition,
        tail: &[E],
    ) -> Result<LogPosition, PersistError>
    where
        E: Serialize + DeserializeOwned + Clone + Hash,
    {
        let tip = match self.take_tip::<E>()? {
            tip if self.on_disk() >= tip.bytes => tip,
            // Cut behind this process's back: only the file can say
            // where it ends now.
            _ => self.read_tip::<E>()?,
        };
        if tip.at != after {
            self.tip = Some(tip);
            return Err(PersistError::OffTip { tip: tip.at, after });
        }
        let (bytes, next) = lines(tip, tail);
        self.write_after(&tip, &bytes)?;
        self.tip = Some(next);
        Ok(next.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_engine::{Event, LogEntry};

    fn entries(n: u32) -> Vec<LogEntry> {
        (0..n)
            .map(|job| LogEntry {
                time: i64::from(job) * 3,
                seq: u64::from(job),
                event: Event::JobArrival { job },
            })
            .collect()
    }

    fn scratch(tag: &str) -> Segment {
        let path =
            std::env::temp_dir().join(format!("ecosched-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_file(&path);
        Segment::new(path)
    }

    #[test]
    fn appends_what_it_lacks_and_rewrites_what_it_cannot_extend() {
        let mut segment = scratch("hold");
        let log = entries(9);
        assert_eq!(
            segment.hold(&log[..4]).unwrap(),
            (LogPosition::after(&log[..4]), false)
        );
        let four_lines = fs::read(segment.path()).unwrap();
        // Longer: the bytes already there are not touched.
        assert_eq!(
            segment.hold(&log).unwrap(),
            (LogPosition::after(&log), false)
        );
        assert!(fs::read(segment.path()).unwrap().starts_with(&four_lines));
        // The same again: nothing to do.
        assert_eq!(
            segment.hold(&log).unwrap(),
            (LogPosition::after(&log), false)
        );
        // Shorter, and as long but different: written afresh.
        assert_eq!(
            segment.hold(&log[..4]).unwrap(),
            (LogPosition::after(&log[..4]), true)
        );
        assert_eq!(fs::read(segment.path()).unwrap(), four_lines);
        let mut other = log[..4].to_vec();
        other[0].seq = 77;
        assert_eq!(
            segment.hold(&other).unwrap(),
            (LogPosition::after(&other), true)
        );
        assert_eq!(segment.read::<LogEntry>().unwrap().entries, other);
        let _ = fs::remove_file(segment.path());
    }

    #[test]
    fn a_tail_that_does_not_start_at_the_tip_changes_no_byte() {
        let mut segment = scratch("append");
        let log = entries(9);
        let four = LogPosition::after(&log[..4]);
        assert_eq!(
            segment.append(LogPosition::start(), &log[..4]).unwrap(),
            four
        );
        let six = LogPosition::after(&log[..6]);
        assert_eq!(segment.append(four, &log[4..6]).unwrap(), six);
        let intact = fs::read(segment.path()).unwrap();
        let forged = LogPosition {
            hash: six.hash ^ 1,
            ..six
        };
        let ahead = LogPosition::after(&log[..7]);
        for after in [LogPosition::start(), four, forged, ahead] {
            match segment.append(after, &log[6..]) {
                Err(PersistError::OffTip {
                    tip,
                    after: refused,
                }) => {
                    assert_eq!((tip, refused), (six, after));
                }
                other => panic!("a tail after {after:?} was not refused: {other:?}"),
            }
            assert_eq!(fs::read(segment.path()).unwrap(), intact);
        }
        // A segment that has not seen the file learns its tip from it; a
        // whole log then still extends what the tails built.
        let mut reopened = Segment::new(segment.path().to_path_buf());
        assert!(matches!(
            reopened.append(four, &log[4..]),
            Err(PersistError::OffTip { tip, .. }) if tip == six
        ));
        assert_eq!(
            reopened.append(six, &log[6..]).unwrap(),
            LogPosition::after(&log)
        );
        assert_eq!(
            reopened.hold(&log).unwrap(),
            (LogPosition::after(&log), false)
        );
        assert_eq!(reopened.read::<LogEntry>().unwrap().entries, log);
        let _ = fs::remove_file(segment.path());
    }

    #[test]
    fn a_file_that_shrank_behind_its_back_is_written_afresh() {
        let mut segment = scratch("shrank");
        let log = entries(6);
        segment.hold(&log[..5]).unwrap();
        fs::write(segment.path(), b"").unwrap();
        assert_eq!(
            segment.hold(&log).unwrap(),
            (LogPosition::after(&log), true)
        );
        assert_eq!(segment.read::<LogEntry>().unwrap().entries, log);
        let _ = fs::remove_file(segment.path());
    }

    #[test]
    fn reading_stops_at_the_first_line_that_is_not_an_entry() {
        let mut segment = scratch("read");
        let log = entries(5);
        segment.hold(&log).unwrap();
        let intact = fs::read_to_string(segment.path()).unwrap();
        let lines: Vec<&str> = intact.lines().collect();

        let torn = &intact[..intact.len() - 4];
        fs::write(segment.path(), torn).unwrap();
        let held = segment.read::<LogEntry>().unwrap();
        assert_eq!(held.entries, log[..4]);
        assert_eq!(
            held.prefix(LogPosition::after(&log[..4])).unwrap(),
            log[..4]
        );
        assert_eq!(held.prefix(LogPosition::start()).unwrap(), []);
        assert!(matches!(
            held.prefix(LogPosition::after(&log)),
            Err(PersistError::LogSegment { .. })
        ));
        // The right length under the wrong hash is refused too.
        let mut wrong = LogPosition::after(&log[..3]);
        wrong.hash ^= 1;
        assert!(matches!(
            held.prefix(wrong),
            Err(PersistError::LogSegment { .. })
        ));

        let garbage = format!("{}\n{}\nnot json\n{}\n", lines[0], lines[1], lines[3]);
        fs::write(segment.path(), garbage).unwrap();
        assert_eq!(segment.read::<LogEntry>().unwrap().entries, log[..2]);
        let _ = fs::remove_file(segment.path());
    }
}
