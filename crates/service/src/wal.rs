//! The write-ahead log: the durable record of every accepted
//! submission, sufficient to reproduce the daemon's event log exactly.
//!
//! Service mode sharpens the engine's determinism contract to: a run is
//! a pure function of `(config, seed, accepted-submission sequence)`,
//! where each accepted submission is identified by the number of events
//! the engine had processed when it was injected, its (clamped) arrival
//! time, and the spec. That triple is exactly one [`WalEntry`]. Replaying
//! the WAL through a fresh engine — stepping to each entry's injection
//! point, then injecting — reproduces a byte-identical event log; see
//! [`crate::replay`].
//!
//! On disk the WAL is append-only newline-delimited text. Each line is
//! `<16-hex FNV-1a 64 of payload> <payload JSON>`. Loading stops at the
//! first line that is not UTF-8, does not parse or fails its checksum: a
//! torn final line is an interrupted append whose submission was never
//! acknowledged (acks happen only after fsync), so dropping it loses
//! nothing a client was promised. [`LoadedWal::trusted_bytes`] marks where trust ends; on
//! boot the session truncates the file there, so appends from the new
//! process extend the trusted prefix instead of hiding behind the torn
//! garbage (where the *next* load would refuse to read past them).

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ecosched_engine::event::fnv1a_64;
use ecosched_persist::sync_parent;
use serde::{Deserialize, Serialize};

use crate::protocol::JobSpec;

/// One accepted submission, as recorded before its ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalEntry {
    /// The shard the router placed this job on. Recovery replays the
    /// recorded decision verbatim instead of re-running the policy, so
    /// the replayed run cannot diverge even if shard state during replay
    /// transits orders the policy would decide differently on.
    pub shard: u32,
    /// The shard-local job id assigned at injection (the shard's
    /// arrival-stream index).
    pub job: u32,
    /// Merged-log events the federation had processed when this job was
    /// injected. The replayer steps to exactly this count before
    /// re-injecting, reproducing the live interleaving.
    pub injected_after: u64,
    /// The effective (clamped) virtual arrival time.
    pub time: i64,
    /// The submitted job.
    pub spec: JobSpec,
}

/// The result of loading a WAL from disk.
#[derive(Debug)]
pub struct LoadedWal {
    /// Entries in append order.
    pub entries: Vec<WalEntry>,
    /// Trailing lines dropped as torn or corrupt. Anything beyond 1 (a
    /// single interrupted append) indicates external damage.
    pub dropped_lines: usize,
    /// Byte length of the trusted prefix: every entry in `entries` lies
    /// below it, everything at or past it is torn or corrupt. A booting
    /// session truncates the file to this length before appending.
    pub trusted_bytes: u64,
}

/// An append-only WAL writer with group commit.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Opens the WAL for appending, creating it if absent. A new file's
    /// directory entry is made durable at once: the fsync of each later
    /// batch covers the file's contents, not its name, so without it a
    /// power loss could take the file and the first acknowledged batches
    /// with it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn open_append(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = match OpenOptions::new().create_new(true).append(true).open(&path) {
            Ok(file) => {
                sync_parent(&path);
                file
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                OpenOptions::new().append(true).open(&path)?
            }
            Err(e) => return Err(e),
        };
        Ok(Wal { file, path })
    }

    /// The file this WAL appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a batch of entries and fsyncs once (group commit). Only
    /// after this returns may the daemon acknowledge any entry in the
    /// batch.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure; on error the batch must
    /// not be acknowledged (the tail may be torn, which load tolerates).
    pub fn append_batch(&mut self, entries: &[WalEntry]) -> std::io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut lines = Vec::new();
        for entry in entries {
            encode_entry(&mut lines, entry);
        }
        self.file.write_all(&lines)?;
        self.file.sync_data()
    }
}

/// Appends one entry's checksummed wire line (with newline): the payload
/// is written in place and its checksum filled in before it.
fn encode_entry(lines: &mut Vec<u8>, entry: &WalEntry) {
    let line = lines.len();
    lines.extend_from_slice(&[b' '; 17]);
    entry.write_json(lines);
    let checksum = fnv1a_64(&lines[line + 17..]);
    write!(&mut lines[line..line + 16], "{checksum:016x}").expect("sixteen hex digits fit");
    lines.push(b'\n');
}

/// Parses one line; `None` for torn/corrupt lines, those that are not
/// UTF-8 among them.
fn decode_entry(line: &[u8]) -> Option<WalEntry> {
    let (checksum, payload) = std::str::from_utf8(line).ok()?.split_once(' ')?;
    let expected = u64::from_str_radix(checksum, 16).ok()?;
    if fnv1a_64(payload.as_bytes()) != expected {
        return None;
    }
    serde_json::from_str(payload).ok()
}

/// Loads a WAL, tolerating a torn tail — whatever its bytes. A missing
/// file is an empty WAL.
///
/// # Errors
///
/// Propagates I/O failures other than the file not existing.
pub fn load_wal(path: &Path) -> std::io::Result<LoadedWal> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    let mut dropped = 0usize;
    let mut trusted_bytes = 0u64;
    for piece in bytes.split_inclusive(|&b| b == b'\n') {
        // A line without its newline is an interrupted append even when
        // the content happens to parse — the next append would fuse
        // with it, so it is not trusted.
        let complete = piece.ends_with(b"\n");
        let end = piece
            .iter()
            .rposition(|&b| b != b'\n' && b != b'\r')
            .map_or(0, |last| last + 1);
        let line = &piece[..end];
        if line.is_empty() {
            if dropped == 0 && complete {
                trusted_bytes += piece.len() as u64;
            }
            continue;
        }
        match decode_entry(line) {
            // Entries are only trusted up to the first bad line: a torn
            // append means everything after it postdates the crash point.
            Some(entry) if dropped == 0 && complete => {
                entries.push(entry);
                trusted_bytes += piece.len() as u64;
            }
            _ => dropped += 1,
        }
    }
    Ok(LoadedWal {
        entries,
        dropped_lines: dropped,
        trusted_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(job: u32) -> WalEntry {
        WalEntry {
            shard: job % 2,
            job,
            injected_after: u64::from(job) * 3,
            time: i64::from(job) * 7,
            spec: JobSpec {
                nodes: 2,
                wall_ticks: 30,
                min_perf_milli: 1000,
                price_cap_micro: 1_500_000,
                deadline_tick: None,
            },
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ecosched-wal-{tag}-{}.ndjson", std::process::id()))
    }

    #[test]
    fn round_trips_batches() {
        let path = scratch("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_append(&path).unwrap();
        wal.append_batch(&[entry(0), entry(1)]).unwrap();
        wal.append_batch(&[]).unwrap();
        wal.append_batch(&[entry(2)]).unwrap();
        let loaded = load_wal(&path).unwrap();
        assert_eq!(loaded.entries, vec![entry(0), entry(1), entry(2)]);
        assert_eq!(loaded.dropped_lines, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = scratch("torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_append(&path).unwrap();
        wal.append_batch(&[entry(0), entry(1)]).unwrap();
        // Simulate a crash mid-append: half a line at the tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let intact = text.len() as u64;
        text.push_str("0123456789abcdef {\"job\":2,\"injected_aft");
        std::fs::write(&path, &text).unwrap();
        let loaded = load_wal(&path).unwrap();
        assert_eq!(loaded.entries, vec![entry(0), entry(1)]);
        assert_eq!(loaded.dropped_lines, 1);
        assert_eq!(loaded.trusted_bytes, intact, "trust ends at the tear");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_stops_trust() {
        let path = scratch("middle");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_append(&path).unwrap();
        wal.append_batch(&[entry(0), entry(1), entry(2)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[1] = lines[1].replace("\"job\":1", "\"job\":9");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let loaded = load_wal(&path).unwrap();
        assert_eq!(loaded.entries, vec![entry(0)]);
        assert_eq!(loaded.dropped_lines, 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Bytes that are not UTF-8 end trust like any torn line; they used
    /// to fail the whole load.
    #[test]
    fn a_tail_that_is_not_utf8_is_dropped_not_fatal() {
        let path = scratch("not-utf8");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_append(&path).unwrap();
        wal.append_batch(&[entry(0), entry(1)]).unwrap();
        wal.append_batch(&[entry(2)]).unwrap();
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"\xff\xfe").unwrap();
        let loaded = load_wal(&path).unwrap();
        assert_eq!(loaded.entries, vec![entry(0), entry(1), entry(2)]);
        assert_eq!(loaded.dropped_lines, 1);
        assert_eq!(loaded.trusted_bytes, intact, "trust ends at the tear");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty() {
        let loaded = load_wal(Path::new("/nonexistent/ecosched.wal")).unwrap();
        assert!(loaded.entries.is_empty());
    }
}
