//! Offline replay: reconstruct a daemon's run from `(manifest, WAL)`
//! alone and check it against the durable snapshots.
//!
//! Service-mode determinism says a run is a pure function of
//! `(config, seed, accepted-submission sequence)`. The WAL records that
//! sequence exactly — each entry's routed shard, merged-log injection
//! point, clamped arrival time, and spec — so a fresh federation
//! stepped through the same injections MUST reproduce the daemon's
//! merged event log byte-for-byte. [`verify_data_dir`] asserts
//! precisely that at every snapshot the store keeps, oldest first: the
//! offline run, stepped to the snapshot's merged length, is at the log
//! position the snapshot records and logged the entries the snapshot
//! holds after it, and every arrival the snapshot carries is its WAL
//! record. A divergence is therefore placed between two snapshots. It is
//! the acceptance check the crash harness and the CI `service-smoke` job
//! run after every kill.

use std::path::{Path, PathBuf};

use ecosched_engine::LogPosition;
use ecosched_federation::{Federation, FederationCheckpoint, FederationState};
use ecosched_persist::Store;
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
    /// Snapshots checked against the offline replay: every one the store
    /// keeps.
    pub snapshots_checked: u64,
    /// Arrivals the newest snapshot already contained (summed over
    /// shards).
    pub acked_in_snapshot: u64,
    /// FNV-1a 64 hash of the offline merged log at the newest snapshot's
    /// event count (equal to the snapshot's own log hash — that is the
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
/// checks it against every snapshot the store keeps, oldest first.
/// Stricter than the daemon's boot, which walks past a snapshot it cannot
/// use: here every kept one must load — a format 3–4 one through the
/// store's legacy segment — and agree with the replay.
///
/// # Errors
///
/// [`ServiceError::Diverged`] on any mismatch, naming the snapshot and
/// the last one that agreed; otherwise the underlying
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
    let mut report = VerifyReport {
        wal_entries: loaded.entries.len() as u64,
        wal_dropped_lines: loaded.dropped_lines as u64,
        snapshot_events: 0,
        snapshots_checked: 0,
        acked_in_snapshot: 0,
        log_hash: offline.merged().fnv1a_hash(),
    };
    // The last snapshot that agreed, and the offline log's position, kept
    // in step with the snapshots.
    let mut agreed: Option<PathBuf> = None;
    let mut at = LogPosition::start();
    for path in store.list()? {
        let snapshot = store.load(&path)?;
        let log = &snapshot.merged;
        let since = match &agreed {
            Some(previous) => format!(
                "after snapshot {} ({} events)",
                previous.display(),
                report.snapshot_events
            ),
            None => "before any snapshot".to_string(),
        };
        let diverged = |what: String| {
            ServiceError::Diverged(format!(
                "snapshot {}: {what}; the logs diverge {since}",
                path.display()
            ))
        };
        // The snapshot may be *behind* the last injection (offline
        // already past it) or *ahead* (the daemon stepped on after its
        // last accepted job).
        while offline.merged().len() < log.len() {
            if fed.step(&mut offline)?.is_none() {
                return Err(diverged(format!(
                    "offline replay drained at {} merged events, the snapshot has {}",
                    offline.merged().len(),
                    log.len()
                )));
            }
        }
        let entries = &offline.merged().entries;
        let after = log.after.len as usize;
        if after < at.len as usize {
            // A log kept whole (formats 1–4, or never trimmed) sits
            // after the start.
            at = LogPosition::start();
        }
        at.push_all(&entries[at.len as usize..after]);
        if at != log.after {
            return Err(diverged(format!(
                "it records log position {:?}, the offline log is at {at:?}",
                log.after
            )));
        }
        // Serialized JSON comparison == hash comparison, but diffing
        // entries gives a better error.
        let held = &entries[after..log.len()];
        if let Some(bad) = log.entries.iter().zip(held).position(|(a, b)| a != b) {
            return Err(diverged(format!(
                "offline merged log differs at event index {}",
                after + bad
            )));
        }
        // Every snapshot arrival must be its WAL record (no phantom
        // acks), checked as boot checks it.
        let acked = check_snapshot_arrivals(&snapshot, &loaded.entries)?;
        let mut end = at;
        end.push_all(held);
        report.snapshot_events = log.len() as u64;
        report.snapshots_checked += 1;
        report.acked_in_snapshot = acked as u64;
        report.log_hash = end.fnv1a_hash();
        agreed = Some(path);
    }
    Ok(report)
}
