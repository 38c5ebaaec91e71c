//! Data directories as a format-4 build left them.
//!
//! That build kept the merged log in `snapshots/fsnap-log.ndjson`, one
//! entry per line, and wrote each snapshot with its logs detached: the
//! merged log as a position with no entries, each shard's log as a bare
//! length. [`rewrite_as_format_4`] turns a directory this build wrote into
//! exactly that, so the damage tests can reach the legacy reader through
//! boot and `--verify`.

use std::path::{Path, PathBuf};

use ecosched_engine::{Log, LogPosition};
use ecosched_federation::{Federation, FederationCheckpoint};
use ecosched_persist::{snapshot, Store};
use ecosched_select::Amp;
use ecosched_service::session::{snapshot_dir, wal_path};
use ecosched_service::{load_manifest, load_wal, replay_wal, SelectorChoice};

/// The legacy segment of a data directory.
pub fn segment_path(data_dir: &Path) -> PathBuf {
    snapshot_dir(data_dir).join("fsnap-log.ndjson")
}

/// Rewrites every snapshot of `data_dir` as a format-4 store file and
/// writes the segment those files are detached from: the merged log up
/// to the newest snapshot, regenerated from the WAL. Returns the number
/// of segment lines.
pub fn rewrite_as_format_4(data_dir: &Path) -> usize {
    let manifest = load_manifest(data_dir).expect("manifest").expect("present");
    assert_eq!(manifest.selector, SelectorChoice::Amp);
    let fed = Federation::new(manifest.fed_config(), Amp::new()).expect("config");
    let wal = load_wal(&wal_path(data_dir)).expect("wal");
    let mut offline = replay_wal(&fed, manifest.seed, &wal.entries).expect("replay");
    let store = Store::<FederationCheckpoint>::open(snapshot_dir(data_dir), 8).expect("store");
    let mut lines = 0;
    for path in store.list().expect("list") {
        let mut checkpoint = store.load(&path).expect("a snapshot this build wrote");
        let len = checkpoint.merged.len();
        while offline.merged().len() < len {
            fed.step(&mut offline)
                .expect("step")
                .expect("the run goes on");
        }
        checkpoint.merged = Log::detached(LogPosition::after(&offline.merged().entries[..len]));
        for shard in &mut checkpoint.shards {
            let len = shard.log.len() as u64;
            shard.log = Log::detached(LogPosition { len, hash: 0 });
        }
        let mut bytes = snapshot::encode(&checkpoint);
        // Formats 4 and 5 share the container and its checksums.
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, bytes).expect("rewrite");
        lines = len;
    }
    let text: String = offline.merged().entries[..lines]
        .iter()
        .map(|entry| serde_json::to_string(entry).expect("json") + "\n")
        .collect();
    std::fs::write(segment_path(data_dir), text).expect("segment");
    lines
}
