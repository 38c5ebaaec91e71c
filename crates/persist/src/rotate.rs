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
//! of replay, not the run. Stores of different checkpoint types list
//! only their own prefix, so they can share a directory.

use std::fs;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use ecosched_engine::EngineCheckpoint;

use crate::format::PersistError;
use crate::snapshot::{encode, read, Checkpoint};

/// File-name suffix of finished snapshots.
const SUFFIX: &str = ".ecosnap";

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
    kind: PhantomData<fn() -> C>,
}

/// The rotated store of single-engine snapshots (`snap-…` files).
pub type SnapshotStore = Store<EngineCheckpoint>;

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

    /// Saves a checkpoint crash-atomically and prunes old snapshots.
    /// Returns the path of the finished file.
    ///
    /// File names are keyed by [`Checkpoint::events`]; re-saving the
    /// same event count overwrites the previous capture (the states are
    /// identical by determinism).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any filesystem failure.
    pub fn save(&self, checkpoint: &C) -> Result<PathBuf, PersistError> {
        let final_path = self.dir.join(Self::file_name(checkpoint.events()));
        atomic_save(&final_path, &encode(checkpoint))?;
        self.prune()?;
        Ok(final_path)
    }

    /// Snapshot paths in capture order (oldest first). Temp files,
    /// snapshots of other checkpoint types, and foreign names are
    /// ignored.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<PathBuf>, PersistError> {
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(events) = name.to_str().and_then(Self::parse_name) {
                found.push((events, entry.path()));
            }
        }
        found.sort_unstable_by_key(|(events, _)| *events);
        Ok(found.into_iter().map(|(_, p)| p).collect())
    }

    /// Deletes all but the newest `keep_last` snapshots, and any stray
    /// temp files left by an interrupted save.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read; failures
    /// to delete individual files are ignored (they will be retried on
    /// the next save).
    pub fn prune(&self) -> Result<(), PersistError> {
        let listed = self.list()?;
        for stale in &listed[..listed.len().saturating_sub(self.keep_last)] {
            let _ = fs::remove_file(stale);
        }
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Finds and decodes the newest usable snapshot, skipping corrupt
    /// or truncated files (newest first) until one decodes cleanly.
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
            match read(&path) {
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
    fn engine_checkpoints(n: usize) -> Vec<EngineCheckpoint> {
        let engine = ecosched_engine::Engine::new(
            ecosched_engine::EngineConfig {
                cycles: n as u32 + 2,
                ..ecosched_engine::EngineConfig::default()
            },
            ecosched_select::Amp::new(),
        )
        .expect("default config");
        let (_, snaps) = crate::replay::run_with_snapshots(&engine, 7, 1).expect("run");
        assert!(snaps.len() >= n, "run produced too few snapshots");
        snaps.into_iter().take(n).collect()
    }

    fn federation_checkpoints(n: usize) -> Vec<FederationCheckpoint> {
        crate::federated::tests::checkpoints(n).1
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

    /// The store contract, once per checkpoint type.
    macro_rules! store_suite {
        ($suite:ident, $checkpoint:ty, $fixture:ident) => {
            mod $suite {
                #[test]
                fn names_round_trip() {
                    super::names_round_trip::<$checkpoint>();
                }

                #[test]
                fn saves_prune_to_keep_last() {
                    super::saves_prune_to_keep_last(stringify!($suite), super::$fixture(4));
                }

                #[test]
                fn load_latest_skips_corrupt_newest() {
                    super::load_latest_skips_corrupt_newest(stringify!($suite), super::$fixture(2));
                }

                #[test]
                fn interrupted_save_leaves_no_partial_final_file() {
                    super::interrupted_save_leaves_no_partial_final_file(
                        stringify!($suite),
                        super::$fixture(1),
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

        let snaps = federation_checkpoints(1);
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
