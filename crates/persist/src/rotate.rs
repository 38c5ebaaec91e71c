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
//! A save writes the checkpoint exactly as it is handed one. A daemon
//! hands it one whose logs it has trimmed to their newest entry, so a
//! snapshot's size follows the state, not the length of the run, and a
//! save is one atomic write. Format 3–4 stores kept the log in a segment
//! beside their snapshots (`<prefix>log.ndjson`, one entry per line) and
//! wrote each snapshot with its log detached at a position. Such a
//! snapshot still loads: the store reads the segment's prefix once,
//! checks it against the recorded position, and attaches it. A snapshot
//! the segment cannot satisfy is skipped like a corrupt one. The segment
//! is never written again.

use std::fs;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use ecosched_engine::EngineCheckpoint;

use crate::format::{self, PersistError, LAST_SEGMENT_VERSION};
use crate::segment;
use crate::snapshot::{decode, encode_with, Checkpoint};

/// File-name suffix of finished snapshots.
const SUFFIX: &str = ".ecosnap";

/// What follows the checkpoint type's prefix in the legacy log segment's
/// name.
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
    sync_parent(path);
    Ok(())
}

/// Makes a new or renamed directory entry of `path` durable. Directory
/// fsync is a no-op on some platforms; a failure here must not discard
/// the file, so it is ignored.
pub fn sync_parent(path: &Path) {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A directory of rotated `C` snapshots with a bounded retention window.
#[derive(Debug)]
pub struct Store<C> {
    dir: PathBuf,
    keep_last: usize,
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
        Ok(Store {
            dir,
            keep_last: keep_last.max(1),
            kind: PhantomData,
        })
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

    /// Saves a checkpoint crash-atomically, exactly as it is given, and
    /// prunes old snapshots. Returns the path of the finished file.
    ///
    /// File names are keyed by [`Checkpoint::events`]; re-saving the
    /// same event count overwrites the previous capture (the states are
    /// identical by determinism).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any filesystem failure.
    pub fn save(&self, checkpoint: &C) -> Result<PathBuf, PersistError> {
        let (path, _) = self.save_with(checkpoint.events(), &checkpoint.meta(), |out| {
            checkpoint.write_json(out);
        })?;
        Ok(path)
    }

    /// [`Self::save`] of the checkpoint that `state` writes, captured after
    /// `events` log events, under `meta`: what a live run saves without
    /// building its checkpoint. The file holds the bytes
    /// [`encode`](crate::snapshot::encode) makes of that checkpoint.
    /// Returns the path of the finished file and its length in bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any filesystem failure.
    pub fn save_with(
        &self,
        events: u64,
        meta: &C::Meta,
        state: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(PathBuf, u64), PersistError> {
        let final_path = self.dir.join(Self::file_name(events));
        let bytes = encode_with::<C>(meta, state);
        atomic_save(&final_path, &bytes)?;
        self.prune()?;
        Ok((final_path, bytes.len() as u64))
    }

    /// Snapshot paths in capture order (oldest first). Temp files, a
    /// legacy log segment, snapshots of other checkpoint types, and
    /// foreign names are ignored.
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
    /// temp files an interrupted save of this store left. Never a legacy
    /// log segment, and nothing of another store sharing the directory.
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

    /// Reads one snapshot file of this store. A file of format 5 or later,
    /// or one that carries its whole log, is returned as it is. A format
    /// 3–4 file had its log detached into the legacy segment: the
    /// segment's prefix is read, checked against the recorded position
    /// and attached.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the read fails; the container and codec
    /// failures of [`decode`]; [`PersistError::LogSegment`] when the
    /// segment cannot supply a format 3–4 file's prefix.
    pub fn load(&self, path: &Path) -> Result<C, PersistError> {
        let bytes = fs::read(path)?;
        let mut checkpoint: C = decode(&bytes)?;
        if format::version(&bytes)? <= LAST_SEGMENT_VERSION {
            let after = checkpoint.log().after;
            let prefix = if after.len > 0 {
                let segment = self.dir.join(format!("{}{SEGMENT_NAME}", C::FILE_PREFIX));
                segment::read_prefix(&segment, after)?
            } else {
                // Whole already, but a federated file detached at length
                // zero recorded only the length of its shards' logs:
                // attaching nothing puts them back at the start.
                Vec::new()
            };
            checkpoint.attach(prefix)?;
        }
        Ok(checkpoint)
    }

    /// Finds and loads ([`Self::load`]) the newest usable snapshot,
    /// skipping corrupt or truncated files and format 3–4 ones the legacy
    /// segment cannot satisfy (newest first) until one loads cleanly.
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
    use crate::snapshot::encode;
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

    /// The seed the suite's run starts from.
    const SEED: u64 = 7;

    /// Whether a save left a log segment, which this build never writes.
    fn has_segment<C: Checkpoint>(dir: &Path) -> bool {
        dir.join(format!("{}{SEGMENT_NAME}", C::FILE_PREFIX))
            .exists()
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

    /// What a save leaves on disk: the checkpoint's encoding, byte for
    /// byte — its log whole, or trimmed to the newest entry after a
    /// position — and no log segment; through `load_latest` the same
    /// checkpoint again, also in a second store over the directory.
    fn snapshots_are_written_as_given<C: Checkpoint + PartialEq + std::fmt::Debug>(
        tag: &str,
        snaps: Vec<C>,
        trim: fn(&mut C),
    ) {
        let dir = scratch_dir(&format!("as-given-{tag}"));
        let store = Store::<C>::open(&dir, 4).unwrap();
        let mut last = None;
        for snap in &snaps {
            let mut trimmed = snap.clone();
            trim(&mut trimmed);
            assert!(trimmed.log().entries.len() <= 1);
            assert_eq!(trimmed.events(), snap.events());
            for given in [snap, &trimmed] {
                let path = store.save(given).unwrap();
                assert_eq!(path, dir.join(Store::<C>::file_name(snap.events())));
                assert_eq!(fs::read(&path).unwrap(), encode(given));
                assert_eq!(latest(&store), (given.clone(), 0));
            }
            assert!(!has_segment::<C>(&dir));
            last = Some(trimmed);
        }
        let reopened = Store::<C>::open(&dir, 4).unwrap();
        assert_eq!(latest(&reopened), (last.expect("a capture"), 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Neither `list` nor `prune` ever touches a legacy segment or a file
    /// of another store, however many saves rotate through.
    fn prune_keeps_to_its_own_files<C: Checkpoint>(tag: &str, snaps: Vec<C>) {
        let dir = scratch_dir(&format!("hygiene-{tag}"));
        let store = Store::<C>::open(&dir, 1).unwrap();
        let segment = format!("{}{SEGMENT_NAME}", C::FILE_PREFIX);
        let foreign = [
            "other-0000000000000001.tmp",
            "notes.tmp",
            "log.ndjson",
            segment.as_str(),
        ];
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
        assert_eq!(
            store.list().unwrap(),
            [dir.join(Store::<C>::file_name(snaps[snaps.len() - 1].events()))]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The store contract, once per checkpoint type.
    macro_rules! store_suite {
        ($suite:ident, $checkpoint:ty, $fixture:ident, $trim:expr) => {
            mod $suite {
                use super::SEED;

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
                fn snapshots_are_written_as_given() {
                    super::snapshots_are_written_as_given(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                        $trim,
                    );
                }

                #[test]
                fn prune_keeps_to_its_own_files() {
                    super::prune_keeps_to_its_own_files(
                        stringify!($suite),
                        super::$fixture(SEED, 3),
                    );
                }
            }
        };
    }

    store_suite!(
        engine,
        super::EngineCheckpoint,
        engine_checkpoints,
        |c: &mut super::EngineCheckpoint| c.log.trim()
    );
    store_suite!(
        federated,
        super::FederationCheckpoint,
        federation_checkpoints,
        |c: &mut super::FederationCheckpoint| {
            c.merged.trim();
            for shard in &mut c.shards {
                shard.log.trim();
            }
        }
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
