//! Offline replay: reconstruct a daemon's run from `(manifest, WAL)`
//! alone and check it against the durable snapshots.
//!
//! Service-mode determinism says a run is a pure function of
//! `(config, seed, accepted-submission sequence)`. The WAL records that
//! sequence exactly — each entry's routed shard, merged-log injection
//! point, clamped arrival time, and spec — so a fresh federation
//! stepped through the same injections MUST reproduce the daemon's
//! merged event log byte-for-byte. [`verify_data_dir`] asserts
//! precisely that: the offline merged log's prefix equals, entry for
//! entry, the log the newest snapshot stands for — the snapshot store's
//! log segment up to the position the snapshot records, then whatever
//! entries the snapshot carries itself — and every WAL entry is
//! reachable and re-injectable on its recorded shard. It is the
//! acceptance check the crash harness and the CI `service-smoke` job run
//! after every kill.

use std::path::Path;

use ecosched_engine::LogPosition;
use ecosched_federation::{Federation, FederationCheckpoint, FederationState};
use ecosched_persist::{snapshot, Store};
use ecosched_select::{Alp, Amp, SlotSelector};

use crate::error::ServiceError;
use crate::manifest::{load_manifest, SelectorChoice, ServiceManifest};
use crate::session::{check_snapshot_arrivals, reinject, snapshot_dir, wal_path};
use crate::wal::{load_wal, WalEntry};

/// The outcome of an offline verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// WAL entries replayed.
    pub wal_entries: u64,
    /// Trailing WAL lines dropped as torn (at most 1 after a crash).
    pub wal_dropped_lines: u64,
    /// Merged-log events in the newest snapshot (0 when none exists).
    pub snapshot_events: u64,
    /// Of those, the entries the snapshot leaves to the log segment (0
    /// for a snapshot that carries its own log: formats 1 and 2).
    pub segment_events: u64,
    /// Arrivals the snapshot already contained (summed over shards).
    pub acked_in_snapshot: u64,
    /// FNV-1a 64 hash of the offline merged log at the snapshot's event
    /// count (equal to the snapshot's own log hash — that is the
    /// assertion).
    pub log_hash: String,
}

/// Replays a WAL through a fresh federation: steps to each entry's
/// recorded merged-log injection point, re-injects on its recorded
/// shard, and returns the state positioned just after the last
/// injection.
///
/// # Errors
///
/// [`ServiceError::Diverged`] when an injection point is unreachable or
/// an entry re-injects differently than recorded.
pub fn replay_wal<S: SlotSelector + Copy>(
    fed: &Federation<S>,
    seed: u64,
    entries: &[WalEntry],
) -> Result<FederationState, ServiceError> {
    let mut state = fed.start(seed);
    for (i, entry) in entries.iter().enumerate() {
        reinject(fed, &mut state, i, entry)?;
    }
    Ok(state)
}

/// Verifies a data directory: offline-replays the WAL from the seed and
/// checks byte-identity against the newest snapshot and the log segment
/// prefix it is detached from. Stricter than the daemon's boot, which
/// walks past a snapshot it cannot use: here the newest one must decode
/// and the segment must hold its prefix.
///
/// # Errors
///
/// [`ServiceError::Diverged`] on any mismatch; otherwise the underlying
/// manifest/persist/federation error.
pub fn verify_data_dir(data_dir: &Path) -> Result<VerifyReport, ServiceError> {
    let manifest = load_manifest(data_dir)?.ok_or_else(|| {
        ServiceError::Config(format!("{} has no manifest.json", data_dir.display()))
    })?;
    match manifest.selector {
        SelectorChoice::Amp => verify_with(data_dir, &manifest, Amp::new()),
        SelectorChoice::Alp => verify_with(data_dir, &manifest, Alp::new()),
    }
}

fn verify_with<S: SlotSelector + Copy>(
    data_dir: &Path,
    manifest: &ServiceManifest,
    selector: S,
) -> Result<VerifyReport, ServiceError> {
    let fed = Federation::new(manifest.fed_config(), selector)
        .map_err(|e| ServiceError::Config(e.to_string()))?;
    let loaded = load_wal(&wal_path(data_dir))?;
    let mut offline = replay_wal(&fed, manifest.seed, &loaded.entries)?;

    let store: Store<FederationCheckpoint> =
        Store::open(snapshot_dir(data_dir), manifest.keep_snapshots.max(1))?;
    let Some(newest) = store.list()?.pop() else {
        return Ok(VerifyReport {
            wal_entries: loaded.entries.len() as u64,
            wal_dropped_lines: loaded.dropped_lines as u64,
            snapshot_events: 0,
            segment_events: 0,
            acked_in_snapshot: 0,
            log_hash: offline.merged().fnv1a_hash(),
        });
    };
    // The snapshot as its file holds it: what it leaves to the log
    // segment stays detached, and is read from the segment below.
    let snapshot: FederationCheckpoint = snapshot::read(&newest)?;
    let segment = store.read_log_segment()?;
    let detached = snapshot.merged.after.len as usize;
    if segment.len() < detached {
        return Err(ServiceError::Diverged(format!(
            "log segment {} holds {} entries, snapshot {} is detached from {detached}",
            store.log_segment_path().display(),
            segment.len(),
            newest.display()
        )));
    }

    // Step the offline run to the snapshot's merged-event count. The
    // snapshot may be *behind* the last injection (offline already past
    // it) or *ahead* (the daemon stepped on after its last accepted
    // job).
    let snapshot_events = snapshot.merged.len();
    while offline.merged().len() < snapshot_events {
        if fed.step(&mut offline)?.is_none() {
            return Err(ServiceError::Diverged(format!(
                "offline replay drained at {} merged events; snapshot has {snapshot_events}",
                offline.merged().len()
            )));
        }
    }

    // Byte-identity of the common prefix. Serialized JSON comparison ==
    // hash comparison, but diffing entries gives a better error.
    let offline_prefix = &offline.merged().entries[..snapshot_events];
    let recorded = segment[..detached].iter().chain(&snapshot.merged.entries);
    if let Some(first_bad) = recorded.zip(offline_prefix).position(|(a, b)| a != b) {
        return Err(ServiceError::Diverged(format!(
            "offline merged log diverges from snapshot {} at event index {first_bad}",
            newest.display()
        )));
    }
    // The position is what the daemon checks the segment against at
    // boot; a wrong one would make it walk past this snapshot.
    let position = LogPosition::after(&offline_prefix[..detached]);
    if position != snapshot.merged.after {
        return Err(ServiceError::Diverged(format!(
            "snapshot {} records log position {:?}, the log is at {position:?}",
            newest.display(),
            snapshot.merged.after
        )));
    }

    // Every snapshot arrival must be its WAL record (no phantom acks),
    // checked as boot checks it.
    let acked_in_snapshot = check_snapshot_arrivals(&snapshot, &loaded.entries)?;

    let mut end = position;
    end.push_all(&offline_prefix[detached..]);
    Ok(VerifyReport {
        wal_entries: loaded.entries.len() as u64,
        wal_dropped_lines: loaded.dropped_lines as u64,
        snapshot_events: snapshot_events as u64,
        segment_events: detached as u64,
        acked_in_snapshot: acked_in_snapshot as u64,
        log_hash: end.fnv1a_hash(),
    })
}
