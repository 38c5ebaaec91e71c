//! Rotated snapshot directories: atomic writes, keep-last-K pruning,
//! and corruption-tolerant resume — for any [`Checkpoint`] type.
//!
//! A [`Store<C>`] manages a directory of `<prefix><events>.ecosnap`
//! files, one per capture, named by the number of events the run had
//! emitted (zero-padded so lexical order is capture order). A crash
//! mid-save leaves at worst a stray temp file ([`atomic_save`]); after
//! each save the store prunes to the newest `keep_last` files, and
//! [`Store::load_latest`] walks newest-to-oldest past any truncated or
//! corrupt file, so one bad newest snapshot costs one capture interval
//! of replay, not the run. Stores of different checkpoint types touch
//! only files with their own prefix, so they can share a directory.
//!
//! The snapshots of a store do not carry the run's log. The store keeps
//! it once, in an append-only log segment (`<prefix>log.ndjson`, one
//! entry per line in canonical JSON): a save appends the entries the segment
//! lacks, fsyncs them, and only then writes the checkpoint with its log
//! detached at that position; a load re-attaches the segment's prefix,
//! verified against the position's hash, and hands back the same whole
//! checkpoint that was saved. So a snapshot's size follows the state, not
//! the length of the run. A caller that keeps its own position hands in
//! only the new entries ([`Store::append`]) and a checkpoint already
//! detached after them, and then a save costs the state and what changed
//! — no pass over the history. A snapshot whose position the segment
//! cannot satisfy is skipped like a corrupt one.

use std::fs;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ecosched_engine::{EngineCheckpoint, LogPosition};

use crate::format::PersistError;
use crate::segment::Segment;
use crate::snapshot::{encode, read, Checkpoint};

/// File-name suffix of finished snapshots.
const SUFFIX: &str = ".ecosnap";

/// What follows the checkpoint type's prefix in the log segment's name.
const SEGMENT_NAME: &str = "log.ndjson";

/// Writes `bytes` crash-atomically to `path`: temp sibling
/// (`path` with a `.tmp` extension), fsync, rename, directory fsync.
///
/// # Errors
///
/// Any filesystem failure up to and including the rename; `path` then
/// still holds what it held before.
pub fn atomic_save(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp_path = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut file = fs::File::create(&tmp_path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp_path, path)?;
    // Make the rename itself durable. Directory fsync is a no-op on
    // some platforms; failure here must not discard the snapshot.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A directory of rotated `C` snapshots with a bounded retention window.
#[derive(Debug)]
pub struct Store<C> {
    dir: PathBuf,
    keep_last: usize,
    /// Behind a lock so that saving takes `&self`, as it always has.
    segment: Mutex<Segment>,
    kind: PhantomData<fn() -> C>,
}

/// The rotated store of single-engine snapshots (`snap-…` files).
pub type SnapshotStore = Store<EngineCheckpoint>;

/// What one listing of a store's directory found of the store's own.
struct Listing {
    /// Its snapshots in capture order, with their event counts.
    snapshots: Vec<(u64, PathBuf)>,
    /// The temp files its interrupted saves left.
    strays: Vec<PathBuf>,
}

/// One snapshot skipped during [`Store::load_latest`] because it failed
/// to read or decode.
#[derive(Debug)]
pub struct Skipped {
    /// The unreadable file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: PersistError,
}

/// The result of scanning a store for the newest usable snapshot.
#[derive(Debug)]
pub struct Latest<C> {
    /// The decoded checkpoint.
    pub checkpoint: C,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer files that were skipped as corrupt or truncated, newest
    /// first. Non-empty means durability degraded to an older capture.
    pub skipped: Vec<Skipped>,
}

impl<C: Checkpoint> Store<C> {
    /// Opens (creating if needed) a snapshot directory that retains the
    /// newest `keep_last` snapshots. `keep_last` is clamped to at
    /// least 1 — a store that deletes everything it saves is useless.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, keep_last: usize) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segment = dir.join(format!("{}{SEGMENT_NAME}", C::FILE_PREFIX));
        Ok(Store {
            dir,
            keep_last: keep_last.max(1),
            segment: Mutex::new(Segment::new(segment)),
            kind: PhantomData,
        })
    }

    fn segment(&self) -> std::sync::MutexGuard<'_, Segment> {
        // Every update leaves the segment's record either valid or
        // forgotten, so a panic elsewhere cannot poison its meaning.
        self.segment
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The log segment this store's snapshots are detached from.
    #[must_use]
    pub fn log_segment_path(&self) -> PathBuf {
        self.segment().path().to_path_buf()
    }

    /// The entries the log segment holds: every complete line that
    /// parses, up to the first that does not. Unverified — an offline
    /// checker compares them with a replay.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file exists but cannot be read.
    pub fn read_log_segment(&self) -> Result<Vec<C::Entry>, PersistError> {
        Ok(self.segment().read()?.entries)
    }

    /// File name for a capture taken after `events` emitted events.
    fn file_name(events: u64) -> String {
        format!("{}{events:016}{SUFFIX}", C::FILE_PREFIX)
    }

    /// Parses the event count out of one of this store's file names.
    fn parse_name(name: &str) -> Option<u64> {
        let stem = name.strip_prefix(C::FILE_PREFIX)?.strip_suffix(SUFFIX)?;
        stem.parse().ok()
    }

    /// Appends `tail`, the run's log entries after `after`, to the log
    /// segment and fsyncs them; returns the position after them. A
    /// checkpoint detached there is what [`save`](Self::save) then writes
    /// as it is. A caller that keeps the position it last saved at thus
    /// saves what changed since, with no pass over the history.
    ///
    /// # Errors
    ///
    /// [`PersistError::OffTip`], naming both positions, when `after` is
    /// not where the segment ends (nothing is written);
    /// [`PersistError::Io`] on any filesystem failure.
    pub fn append(
        &self,
        after: LogPosition,
        tail: &[C::Entry],
    ) -> Result<LogPosition, PersistError> {
        self.segment().append(after, tail)
    }

    /// Saves a checkpoint crash-atomically and prunes old snapshots.
    /// Returns the path of the finished file.
    ///
    /// The log goes to the segment first, fsynced, and the snapshot,
    /// written after, records the position in place of the entries. A
    /// whole log is checked against the segment and only the entries the
    /// segment lacks are appended; one that does not extend the segment
    /// (the store is being reused for another run, or for the same one
    /// from an earlier point) replaces the segment's contents, and the
    /// snapshots past its end go with them: they are of a history the
    /// store no longer holds. A tail is appended as [`append`](Self::append)
    /// appends it. A checkpoint detached at the segment's end — as
    /// [`Checkpoint::detach`] leaves one — is written as it is; any other
    /// is written from a detached copy.
    ///
    /// File names are keyed by [`Checkpoint::events`]; re-saving the
    /// same event count overwrites the previous capture (the states are
    /// identical by determinism).
    ///
    /// # Errors
    ///
    /// [`PersistError::OffTip`] when the checkpoint's log is a tail that
    /// does not start where the segment ends; [`PersistError::Io`] on
    /// any filesystem failure.
    pub fn save(&self, checkpoint: &C) -> Result<PathBuf, PersistError> {
        let log = checkpoint.log();
        let at = match log.whole() {
            Some(entries) => {
                let (at, rewritten) = self.segment().hold(entries)?;
                if rewritten {
                    for (events, path) in self.scan()?.snapshots {
                        if events > at.len {
                            let _ = fs::remove_file(path);
                        }
                    }
                }
                at
            }
            None => self.segment().append(log.after, &log.entries)?,
        };
        let bytes = if log.entries.is_empty() {
            encode(checkpoint)
        } else {
            let mut detached = checkpoint.clone();
            detached.detach(at);
            encode(&detached)
        };
        let final_path = self.dir.join(Self::file_name(at.len));
        atomic_save(&final_path, &bytes)?;
        self.prune()?;
        Ok(final_path)
    }

    /// Snapshot paths in capture order (oldest first). Temp files, the
    /// log segment, snapshots of other checkpoint types, and foreign
    /// names are ignored.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<PathBuf>, PersistError> {
        Ok(self.scan()?.snapshots.into_iter().map(|(_, p)| p).collect())
    }

    /// One listing of the directory.
    fn scan(&self) -> Result<Listing, PersistError> {
        let (mut snapshots, mut strays) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(events) = Self::parse_name(name) {
                snapshots.push((events, path));
            } else if name.starts_with(C::FILE_PREFIX)
                && path.extension().is_some_and(|e| e == "tmp")
            {
                strays.push(path);
            }
        }
        snapshots.sort_unstable_by_key(|(events, _)| *events);
        Ok(Listing { snapshots, strays })
    }

    /// Deletes all but the newest `keep_last` snapshots, and any stray
    /// temp files an interrupted save of this store left. Never the log
    /// segment, and nothing of another store sharing the directory.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read; failures
    /// to delete individual files are ignored (they will be retried on
    /// the next save).
    pub fn prune(&self) -> Result<(), PersistError> {
        let Listing { snapshots, strays } = self.scan()?;
        let stale = snapshots.len().saturating_sub(self.keep_last);
        for path in snapshots
            .into_iter()
            .take(stale)
            .map(|(_, p)| p)
            .chain(strays)
        {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }

    /// Reads one of this store's snapshots whole: decodes it and, when
    /// its log is detached, re-attaches the log segment's prefix after
    /// verifying it against the recorded position. A self-contained
    /// snapshot (formats 1 and 2, or a standalone file) is returned as
    /// it is.
    ///
    /// # Errors
    ///
    /// The failure modes of [`read`]; [`PersistError::LogSegment`] when
    /// the segment cannot supply the prefix.
    fn load(&self, path: &Path) -> Result<C, PersistError> {
        let mut checkpoint: C = read(path)?;
        let after = checkpoint.log().after;
        if after.len > 0 {
            let mut segment = self.segment();
            let held = segment.read::<C::Entry>()?;
            checkpoint.attach(held.prefix(after)?)?;
            segment.trust(&held, after.len as usize);
        } else {
            // Whole already, but a federated checkpoint detached at
            // length zero recorded only the length of its shards' logs:
            // attaching nothing puts them back at the start.
            checkpoint.attach(Vec::new())?;
        }
        Ok(checkpoint)
    }

    /// Finds and loads the newest usable snapshot — decoded, and its log
    /// prefix re-attached from the segment, verified — skipping corrupt
    /// or truncated files and ones the log segment cannot satisfy
    /// (newest first) until one loads cleanly.
    /// Returns `None` when the directory holds no usable snapshot.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read. Read and
    /// decode failures of individual files are not errors — they are
    /// recorded in [`Latest::skipped`] and the scan falls back to the
    /// next older file.
    pub fn load_latest(&self) -> Result<Option<Latest<C>>, PersistError> {
        let mut skipped = Vec::new();
        for path in self.list()?.into_iter().rev() {
            match self.load(&path) {
                Ok(checkpoint) => {
                    return Ok(Some(Latest {
                        checkpoint,
                        path,
                        skipped,
                    }))
                }
                Err(error) => skipped.push(Skipped { path, error }),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_federation::FederationCheckpoint;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ecosched-rotate-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Real engine checkpoints (strictly increasing event counts) from a
    /// short deterministic run — the store keys file names on that count.
    fn engine_checkpoints(seed: u64, n: usize) -> Vec<EngineCheckpoint> {
        let engine = ecosched_engine::Engine::new(
            ecosched_engine::EngineConfig {
                cycles: n as u32 + 2,
                ..ecosched_engine::EngineConfig::default()
            },
            ecosched_select::Amp::new(),
        )
        .expect("default config");
        let (_, snaps) = crate::replay::run_with_snapshots(&engine, seed, 1).expect("run");
        assert!(snaps.len() >= n, "run produced too few snapshots");
        snaps.into_iter().take(n).collect()
    }

    fn federation_checkpoints(seed: u64, n: usize) -> Vec<FederationCheckpoint> {
        crate::federated::tests::checkpoints_from(seed, n).1
    }

    /// The seed the suite's run starts from, and another.
    const SEED: u64 = 7;
    const OTHER_SEED: u64 = 8;

    fn segment_lines<C: Checkpoint>(store: &Store<C>) -> Vec<String> {
        let text = fs::read_to_string(store.log_segment_path()).unwrap_or_default();
        text.lines().map(str::to_owned).collect()
    }

    /// The newest usable snapshot, and how many newer ones were skipped.
    fn latest<C: Checkpoint>(store: &Store<C>) -> (C, usize) {
        let latest = store.load_latest().unwrap().expect("a usable snapshot");
        (latest.checkpoint, latest.skipped.len())
    }

    fn names_round_trip<C: Checkpoint>() {
        let name = Store::<C>::file_name(42);
        assert_eq!(name, format!("{}0000000000000042.ecosnap", C::FILE_PREFIX));
        assert_eq!(Store::<C>::parse_name(&name), Some(42));
        let prefix = C::FILE_PREFIX;
        assert_eq!(Store::<C>::parse_name(&format!("{prefix}x.ecosnap")), None);
        assert_eq!(Store::<C>::parse_name("other.ecosnap"), None);
        assert_eq!(Store::<C>::parse_name(&format!("{prefix}1.tmp")), None);
        assert_eq!(Store::<C>::parse_name(&format!("x{name}")), None);
    }

    fn saves_prune_to_keep_last<C: Checkpoint>(tag: &str, snaps: Vec<C>) {
        let dir = scratch_dir(&format!("prune-{tag}"));
        let store = Store::<C>::open(&dir, 2).unwrap();
        for c in &snaps {
            store.save(c).unwrap();
        }
        let listed = store.list().unwrap();
        let kept: Vec<PathBuf> = snaps[snaps.len() - 2..]
            .iter()
            .map(|c| dir.join(Store::<C>::file_name(c.events())))
            .collect();
        assert_eq!(listed, kept);
        let _ = fs::remove_dir_all(&dir);
    }

    fn load_latest_skips_corrupt_newest<C: Checkpoint + PartialEq + std::fmt::Debug>(
        tag: &str,
        snaps: Vec<C>,
    ) {
        let dir = scratch_dir(&format!("corrupt-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        store.save(&snaps[0]).unwrap();
        let newest = store.save(&snaps[1]).unwrap();

        // Corrupt the newest file's tail (payload bytes -> checksum
        // mismatch) and confirm the scan falls back to the older one.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();

        let latest = store
            .load_latest()
            .unwrap()
            .expect("older snapshot survives");
        assert_eq!(latest.checkpoint, snaps[0]);
        assert_eq!(latest.skipped.len(), 1);
        assert_eq!(latest.skipped[0].path, newest);

        // Truncation of every remaining snapshot leaves nothing usable.
        fs::write(&latest.path, b"ECOSNAP\0").unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    fn interrupted_save_leaves_no_partial_final_file<C: Checkpoint>(tag: &str, snaps: Vec<C>) {
        let dir = scratch_dir(&format!("tmpfile-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        // Simulate a crash mid-write: a temp file exists, no final file.
        let stray = Path::new(&Store::<C>::file_name(9)).with_extension("tmp");
        fs::write(dir.join(stray), b"partial").unwrap();
        assert!(store.load_latest().unwrap().is_none());
        // The next save cleans the stray temp file up.
        store.save(&snaps[0]).unwrap();
        let strays: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(strays.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// What a save leaves on disk: the log in the segment, one canonical
    /// line an entry; in the snapshot a position and no entries; and
    /// through `load_latest` the whole checkpoint again. What is on disk
    /// is detached at the segment's tip, so it saves again as it is and
    /// loads whole; one detached anywhere else is refused, naming both
    /// positions, and changes nothing.
    fn snapshots_are_detached_and_load_whole<C: Checkpoint + PartialEq + std::fmt::Debug>(
        tag: &str,
        snaps: Vec<C>,
    ) {
        let dir = scratch_dir(&format!("detached-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        let mut earlier: Option<C> = None;
        for snap in &snaps {
            let path = store.save(snap).unwrap();
            let bytes = fs::read(&path).unwrap();
            let on_disk: C = read(&path).unwrap();
            assert!(on_disk.log().entries.is_empty());
            assert_eq!(on_disk.log().after.len, snap.events());
            assert_eq!(on_disk.events(), snap.events());
            // The recorded position closes to the log's own hash.
            let whole = snap.log().whole().unwrap();
            let tip = LogPosition::after(whole);
            assert_eq!(on_disk.log().after, tip);
            let lines: Vec<String> = whole
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect();
            assert_eq!(segment_lines(&store), lines);
            assert_eq!(latest(&store), (snap.clone(), 0));

            // Detached at the tip: written as it is, byte for byte.
            assert_eq!(store.save(&on_disk).unwrap(), path);
            assert_eq!(fs::read(&path).unwrap(), bytes);
            assert_eq!(latest(&store), (snap.clone(), 0));

            // Detached anywhere else: the previous capture's position, and
            // this one's length under another hash.
            let mut forged = on_disk.clone();
            forged.detach(LogPosition {
                hash: tip.hash ^ 1,
                ..tip
            });
            let segment = fs::read(store.log_segment_path()).unwrap();
            for off in earlier.iter().chain([&forged]) {
                match store.save(off) {
                    Err(PersistError::OffTip { tip: found, after }) => {
                        assert_eq!(found, tip);
                        assert_eq!(after, off.log().after);
                    }
                    other => panic!("a checkpoint off the tip was not refused: {other:?}"),
                }
            }
            assert_eq!(fs::read(store.log_segment_path()).unwrap(), segment);
            assert_eq!(fs::read(&path).unwrap(), bytes);
            assert_eq!(store.list().unwrap().last(), Some(&path));
            earlier = Some(on_disk);
        }
        // A second store over the directory (a restart) reads the same.
        let reopened = Store::<C>::open(&dir, 4).unwrap();
        assert_eq!(latest(&reopened), (snaps[snaps.len() - 1].clone(), 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The cadence path: a store handed only each capture's new entries,
    /// and then the capture already detached after them, writes the bytes
    /// — segment and snapshot — that whole-log saves write.
    fn a_tail_and_a_detached_checkpoint_save_what_a_whole_log_saves<
        C: Checkpoint + PartialEq + std::fmt::Debug,
    >(
        tag: &str,
        snaps: Vec<C>,
    ) {
        let (whole_dir, tail_dir) = (
            scratch_dir(&format!("whole-{tag}")),
            scratch_dir(&format!("tail-{tag}")),
        );
        let whole = Store::<C>::open(&whole_dir, 4).unwrap();
        let tail = Store::<C>::open(&tail_dir, 4).unwrap();
        let mut saved = LogPosition::start();
        for snap in &snaps {
            let log = snap.log().whole().unwrap();
            let at = tail.append(saved, &log[saved.len as usize..]).unwrap();
            assert_eq!(at, LogPosition::after(log));
            let mut detached = snap.clone();
            detached.detach(at);
            let path = tail.save(&detached).unwrap();
            let expected = whole.save(snap).unwrap();
            assert_eq!(fs::read(path).unwrap(), fs::read(expected).unwrap());
            assert_eq!(
                fs::read(tail.log_segment_path()).unwrap(),
                fs::read(whole.log_segment_path()).unwrap()
            );
            assert_eq!(latest(&tail), (snap.clone(), 0));
            saved = at;
        }
        let _ = fs::remove_dir_all(&whole_dir);
        let _ = fs::remove_dir_all(&tail_dir);
    }

    /// Neither `list` nor `prune` ever touches the segment or a file of
    /// another store, however many saves rotate through.
    fn prune_keeps_to_its_own_files<C: Checkpoint>(tag: &str, snaps: Vec<C>) {
        let dir = scratch_dir(&format!("hygiene-{tag}"));
        let store = Store::<C>::open(&dir, 1).unwrap();
        let foreign = ["other-0000000000000001.tmp", "notes.tmp", "log.ndjson"];
        for name in foreign {
            fs::write(dir.join(name), b"not this store's").unwrap();
        }
        for snap in &snaps {
            store.save(snap).unwrap();
            store.prune().unwrap();
        }
        for name in foreign {
            assert!(dir.join(name).exists(), "{name} was deleted");
        }
        assert_eq!(store.list().unwrap().len(), 1);
        assert!(!store.list().unwrap().contains(&store.log_segment_path()));
        assert_eq!(
            segment_lines(&store).len() as u64,
            snaps[snaps.len() - 1].events()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store reused for a run that starts over: the checkpoint is
    /// behind the segment. The segment is cut back to the checkpoint's
    /// own log and the snapshots past it go, so what is on disk is again
    /// one history — and the run can go on extending it.
    fn a_checkpoint_behind_the_segment_replaces_it<C: Checkpoint + PartialEq + std::fmt::Debug>(
        tag: &str,
        snaps: Vec<C>,
    ) {
        let dir = scratch_dir(&format!("behind-{tag}"));
        let store = Store::<C>::open(&dir, 2).unwrap();
        for snap in &snaps {
            store.save(snap).unwrap();
        }
        store.save(&snaps[0]).unwrap();
        assert_eq!(segment_lines(&store).len() as u64, snaps[0].events());
        assert_eq!(store.list().unwrap().len(), 1);
        assert_eq!(latest(&store), (snaps[0].clone(), 0));
        store.save(&snaps[1]).unwrap();
        assert_eq!(latest(&store), (snaps[1].clone(), 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store reused for another run altogether, whose checkpoint is
    /// *ahead* of the segment: nothing about lengths gives it away, the
    /// entries do. The snapshot must come back with its own log, not the
    /// old run's prefix under the new run's tail.
    fn a_checkpoint_of_another_run_replaces_the_segment<
        C: Checkpoint + PartialEq + std::fmt::Debug,
    >(
        tag: &str,
        snaps: Vec<C>,
        other: Vec<C>,
    ) {
        let dir = scratch_dir(&format!("foreign-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        store.save(&snaps[0]).unwrap();
        let ahead = other
            .iter()
            .find(|c| c.events() > snaps[0].events())
            .expect("the other run gets further");
        assert_ne!(
            serde_json::to_string(&ahead.log().entries[..snaps[0].events() as usize]).unwrap(),
            serde_json::to_string(&snaps[0].log().entries).unwrap(),
            "the fixture runs must differ"
        );
        store.save(ahead).unwrap();
        assert_eq!(latest(&store), (ahead.clone(), 0));
        // The same through a fresh store object, which knows the segment
        // only from the file.
        store.save(&snaps[1]).unwrap();
        let reopened = Store::<C>::open(&dir, 4).unwrap();
        reopened.save(&other[other.len() - 1]).unwrap();
        assert_eq!(latest(&reopened), (other[other.len() - 1].clone(), 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The segment is never trusted blind: one that is too short, gone,
    /// or holds other entries makes the snapshots that need it skipped —
    /// typed, like a corrupt file — and the next save puts it right.
    fn a_damaged_segment_skips_the_snapshots_it_cannot_satisfy<
        C: Checkpoint + PartialEq + std::fmt::Debug,
    >(
        tag: &str,
        snaps: Vec<C>,
    ) {
        let dir = scratch_dir(&format!("damaged-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        store.save(&snaps[0]).unwrap();
        store.save(&snaps[1]).unwrap();
        let segment = store.log_segment_path();
        let intact = fs::read(&segment).unwrap();
        let lines = segment_lines(&store);
        let (older, newer) = (snaps[0].events() as usize, snaps[1].events() as usize);
        assert!(older < newer && newer == lines.len());
        let refused = |store: &Store<C>| {
            let latest = store.load_latest().unwrap().expect("the older snapshot");
            assert_eq!(latest.checkpoint, snaps[0]);
            assert_eq!(latest.skipped.len(), 1);
            assert!(
                matches!(latest.skipped[0].error, PersistError::LogSegment { .. }),
                "{:?}",
                latest.skipped[0].error
            );
        };

        // Cut between the two positions, on a line boundary and inside one.
        let keep: usize = lines[..newer - 1].iter().map(|l| l.len() + 1).sum();
        fs::write(&segment, &intact[..keep]).unwrap();
        refused(&store);
        fs::write(&segment, &intact[..keep - 3]).unwrap();
        refused(&store);

        // Another entry where the newer snapshot's last one was.
        let mut swapped = lines.clone();
        swapped[newer - 1] = lines[0].clone();
        fs::write(&segment, swapped.join("\n") + "\n").unwrap();
        refused(&store);

        // Gone: nothing detached is usable.
        fs::remove_file(&segment).unwrap();
        assert!(store.load_latest().unwrap().is_none());

        // The log is regenerable: the next save writes it back, and the
        // older snapshot, whose position it satisfies again, with it.
        store.save(&snaps[1]).unwrap();
        assert_eq!(fs::read(&segment).unwrap(), intact);
        assert_eq!(latest(&store), (snaps[1].clone(), 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The crash windows of a save: death mid-append (a torn last line)
    /// and death between the append and the snapshot's rename (a segment
    /// longer than any snapshot says). Both load the newest snapshot
    /// whole, and the run's next save carries on from what it vouches for.
    fn a_save_interrupted_after_its_append_is_recovered<
        C: Checkpoint + PartialEq + std::fmt::Debug,
    >(
        tag: &str,
        snaps: Vec<C>,
    ) {
        let dir = scratch_dir(&format!("window-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        store.save(&snaps[0]).unwrap();
        let unrenamed = store.save(&snaps[1]).unwrap();
        fs::remove_file(unrenamed).unwrap();
        {
            use std::io::Write as _;
            let mut file = fs::OpenOptions::new()
                .append(true)
                .open(store.log_segment_path())
                .unwrap();
            file.write_all(b"{\"time\":12,\"se").unwrap();
        }
        for store in [&store, &Store::<C>::open(&dir, 4).unwrap()] {
            assert_eq!(latest(store), (snaps[0].clone(), 0));
            store.save(&snaps[2]).unwrap();
            assert_eq!(segment_lines(store).len() as u64, snaps[2].events());
            assert_eq!(latest(store), (snaps[2].clone(), 0));
            store.save(&snaps[0]).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The store contract, once per checkpoint type.
    macro_rules! store_suite {
        ($suite:ident, $checkpoint:ty, $fixture:ident) => {
            mod $suite {
                use super::{OTHER_SEED, SEED};

                #[test]
                fn names_round_trip() {
                    super::names_round_trip::<$checkpoint>();
                }

                #[test]
                fn saves_prune_to_keep_last() {
                    super::saves_prune_to_keep_last(stringify!($suite), super::$fixture(SEED, 4));
                }

                #[test]
                fn load_latest_skips_corrupt_newest() {
                    super::load_latest_skips_corrupt_newest(
                        stringify!($suite),
                        super::$fixture(SEED, 2),
                    );
                }

                #[test]
                fn interrupted_save_leaves_no_partial_final_file() {
                    super::interrupted_save_leaves_no_partial_final_file(
                        stringify!($suite),
                        super::$fixture(SEED, 1),
                    );
                }

                #[test]
                fn snapshots_are_detached_and_load_whole() {
                    super::snapshots_are_detached_and_load_whole(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                    );
                }

                #[test]
                fn a_tail_and_a_detached_checkpoint_save_what_a_whole_log_saves() {
                    super::a_tail_and_a_detached_checkpoint_save_what_a_whole_log_saves(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                    );
                }

                #[test]
                fn prune_keeps_to_its_own_files() {
                    super::prune_keeps_to_its_own_files(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                    );
                }

                #[test]
                fn a_checkpoint_behind_the_segment_replaces_it() {
                    super::a_checkpoint_behind_the_segment_replaces_it(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                    );
                }

                #[test]
                fn a_checkpoint_of_another_run_replaces_the_segment() {
                    super::a_checkpoint_of_another_run_replaces_the_segment(
                        stringify!($suite),
                        super::$fixture(SEED, 2),
                        super::$fixture(OTHER_SEED, 3),
                    );
                }

                #[test]
                fn a_damaged_segment_skips_the_snapshots_it_cannot_satisfy() {
                    super::a_damaged_segment_skips_the_snapshots_it_cannot_satisfy(
                        stringify!($suite),
                        super::$fixture(SEED, 2),
                    );
                }

                #[test]
                fn a_save_interrupted_after_its_append_is_recovered() {
                    super::a_save_interrupted_after_its_append_is_recovered(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                    );
                }
            }
        };
    }

    store_suite!(engine, super::EngineCheckpoint, engine_checkpoints);
    store_suite!(
        federated,
        super::FederationCheckpoint,
        federation_checkpoints
    );

    #[test]
    fn the_two_stores_share_a_directory_without_colliding() {
        let dir = scratch_dir("shared");
        let fed_store = Store::<FederationCheckpoint>::open(&dir, 2).unwrap();
        let engine_store = SnapshotStore::open(&dir, 2).unwrap();

        let snaps = federation_checkpoints(SEED, 1);
        fed_store.save(&snaps[0]).unwrap();
        engine_store.save(&snaps[0].shards[0]).unwrap();

        assert_eq!(fed_store.list().unwrap().len(), 1);
        assert_eq!(engine_store.list().unwrap().len(), 1);
        // Each keeps its own log segment.
        assert_ne!(
            fed_store.log_segment_path(),
            engine_store.log_segment_path()
        );
        // Each loader sees only its own format.
        assert_eq!(
            fed_store.load_latest().unwrap().unwrap().checkpoint,
            snaps[0]
        );
        assert_eq!(
            engine_store.load_latest().unwrap().unwrap().checkpoint,
            snaps[0].shards[0]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint that carries part of its log, after the segment's
    /// tip, has that part appended and is written detached after it.
    #[test]
    fn a_checkpoint_carrying_a_tail_appends_it() {
        let snaps = engine_checkpoints(SEED, 2);
        let dir = scratch_dir("partial");
        let store = SnapshotStore::open(&dir, 4).unwrap();
        store.save(&snaps[0]).unwrap();
        let log = snaps[1].log.whole().unwrap();
        let saved = LogPosition::after(&log[..snaps[0].log.len()]);
        let mut partial = snaps[1].clone();
        partial.log = ecosched_engine::Log {
            after: saved,
            entries: log[snaps[0].log.len()..].to_vec(),
        };
        let path = store.save(&partial).unwrap();
        let on_disk: EngineCheckpoint = read(&path).unwrap();
        assert_eq!(
            on_disk.log,
            ecosched_engine::Log::detached(LogPosition::after(log))
        );
        assert_eq!(latest(&store), (snaps[1].clone(), 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_save_replaces_the_file_and_leaves_no_temp() {
        let dir = scratch_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        atomic_save(&path, b"one").unwrap();
        atomic_save(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
