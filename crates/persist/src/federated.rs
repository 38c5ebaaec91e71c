//! Federated snapshots: the [`Checkpoint`] implementation for
//! [`FederationCheckpoint`], and nothing else — the codec and the
//! rotated store are the generic ones.
//!
//! One container (`FMET` header + `FCKP` state, files `fsnap-<events>`
//! keyed by merged-log length) holds every shard's engine checkpoint,
//! the undelivered arrival stream, the router cursor and counters, the
//! merged log and the committed cross-shard windows, so there is no
//! window where some shards resumed from a newer capture than others.
//!
//! The log a store keeps for it is the merged log alone: each shard's
//! own log is the merged log's projection onto that shard, so detaching
//! drops the shard logs too (recording their lengths) and attaching
//! rebuilds them from the verified merged prefix.

use ecosched_engine::{Log, LogPosition};
use ecosched_federation::{FederatedLogEntry, FederationCheckpoint};
use serde::{Deserialize, Serialize};

use crate::format::{PersistError, SectionTag};
use crate::snapshot::Checkpoint;

/// The identity header of a federated snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederatedSnapshotMeta {
    /// The seed the captured federation was started with.
    pub seed: u64,
    /// The `(config, selector)` fingerprint of the federation; resume
    /// requires a federation with the same fingerprint.
    pub config_fp: u64,
    /// Shard count at capture time.
    pub shards: u32,
    /// Merged-log entries the captured run had emitted.
    pub merged_events: u64,
}

impl Checkpoint for FederationCheckpoint {
    type Meta = FederatedSnapshotMeta;
    type Entry = FederatedLogEntry;
    const META_SECTION: SectionTag = SectionTag(*b"FMET");
    const STATE_SECTION: SectionTag = SectionTag(*b"FCKP");
    const FILE_PREFIX: &'static str = "fsnap-";

    fn meta(&self) -> FederatedSnapshotMeta {
        FederatedSnapshotMeta {
            seed: self.seed,
            config_fp: self.config_fp,
            shards: self.shards.len() as u32,
            merged_events: self.events(),
        }
    }

    fn log(&self) -> &Log<FederatedLogEntry> {
        &self.merged
    }

    fn detach(&mut self, at: LogPosition) {
        self.merged = Log::detached(at);
        for shard in &mut self.shards {
            // What vouches for a shard's log is the merged position; of
            // its own position only the length is recorded.
            shard.log = Log::detached(LogPosition {
                len: shard.log.len() as u64,
                hash: 0,
            });
        }
    }

    fn attach(&mut self, prefix: Vec<FederatedLogEntry>) -> Result<(), PersistError> {
        let corrupt = |detail: String| PersistError::Corrupt {
            section: Self::STATE_SECTION,
            detail,
        };
        let mut logs = vec![Vec::new(); self.shards.len()];
        for entry in &prefix {
            logs.get_mut(entry.shard as usize)
                .ok_or_else(|| corrupt(format!("merged log names shard {}", entry.shard)))?
                .push(entry.shard_entry());
        }
        for (shard, (checkpoint, log)) in self.shards.iter_mut().zip(logs).enumerate() {
            if log.len() as u64 != checkpoint.log.after.len {
                return Err(corrupt(format!(
                    "shard {shard} logged {} events, the merged log holds {} of them",
                    checkpoint.log.after.len,
                    log.len()
                )));
            }
            checkpoint.log.attach(log);
        }
        self.merged.attach(prefix);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snapshot::{decode, encode, peek};
    use crate::Store;
    use ecosched_engine::{EngineCheckpoint, EngineConfig};
    use ecosched_federation::{Federation, FederationConfig};
    use ecosched_select::Amp;

    /// Real federation checkpoints from a short S=2 run, captured at
    /// strictly increasing merged-log lengths.
    pub(crate) fn checkpoints(n: usize) -> (Federation<Amp>, Vec<FederationCheckpoint>) {
        checkpoints_from(17, n)
    }

    /// [`checkpoints`] of the run another seed starts.
    pub(crate) fn checkpoints_from(
        seed: u64,
        n: usize,
    ) -> (Federation<Amp>, Vec<FederationCheckpoint>) {
        let fed = Federation::new(
            FederationConfig::new(EngineConfig::default(), 2),
            Amp::new(),
        )
        .expect("default config");
        let mut state = fed.start(seed);
        let mut snaps = Vec::with_capacity(n);
        while snaps.len() < n {
            for _ in 0..24 {
                if fed.step(&mut state).expect("step").is_none() {
                    panic!("run drained before producing {n} checkpoints");
                }
            }
            snaps.push(fed.checkpoint(&state));
        }
        (fed, snaps)
    }

    /// Taken detached, a checkpoint is the whole one as `detach` leaves
    /// it: the merged log at the position, every shard's at its length.
    #[test]
    fn a_checkpoint_taken_detached_is_the_whole_one_detached() {
        let (fed, _) = checkpoints(0);
        let mut state = fed.start(17);
        for _ in 0..60 {
            fed.step(&mut state).expect("step");
        }
        let at = LogPosition::after(&state.merged().entries);
        let mut whole = fed.checkpoint(&state);
        whole.detach(at);
        assert_eq!(fed.checkpoint_detached(&state, at), whole);
    }

    /// Detached before any event, a checkpoint records only the length of
    /// each shard's log, zero; loaded through the store it comes back as
    /// `checkpoint()` takes it, every shard's log whole from the start —
    /// the position a resumed shard hashes its log from.
    #[test]
    fn a_checkpoint_detached_before_any_event_loads_whole() {
        let (fed, _) = checkpoints(0);
        let state = fed.start(17);
        let dir =
            std::env::temp_dir().join(format!("ecosched-fedsnap-zero-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::<FederationCheckpoint>::open(&dir, 3).unwrap();
        store
            .save(&fed.checkpoint_detached(&state, LogPosition::start()))
            .unwrap();
        let loaded = store.load_latest().unwrap().expect("saved").checkpoint;
        assert_eq!(loaded, fed.checkpoint(&state));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let (_, snaps) = checkpoints(1);
        let bytes = encode(&snaps[0]);
        let decoded: FederationCheckpoint = decode(&bytes).unwrap();
        assert_eq!(decoded, snaps[0]);

        let meta = peek::<FederationCheckpoint>(&bytes).unwrap();
        assert_eq!(meta, snaps[0].meta());
        assert_eq!(meta.shards, 2);
        assert_eq!(meta.merged_events, snaps[0].merged.len() as u64);
    }

    #[test]
    fn a_single_engine_snapshot_is_rejected_not_misparsed() {
        let (_, snaps) = checkpoints(1);
        let bytes = encode(&snaps[0].shards[0]);
        assert!(matches!(
            decode::<FederationCheckpoint>(&bytes),
            Err(PersistError::MissingSection { .. })
        ));
        assert!(matches!(
            peek::<FederationCheckpoint>(&bytes),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn a_federated_snapshot_is_rejected_by_the_engine_decoder() {
        let (_, snaps) = checkpoints(1);
        let bytes = encode(&snaps[0]);
        assert!(matches!(
            decode::<EngineCheckpoint>(&bytes),
            Err(PersistError::MissingSection { .. })
        ));
        assert!(matches!(
            peek::<EngineCheckpoint>(&bytes),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn resume_from_store_continues_the_run_exactly() {
        let dir =
            std::env::temp_dir().join(format!("ecosched-fedsnap-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::<FederationCheckpoint>::open(&dir, 3).unwrap();
        let (fed, snaps) = checkpoints(2);
        for snap in &snaps {
            store.save(snap).unwrap();
        }

        let latest = store.load_latest().unwrap().expect("snapshots saved");
        assert!(latest.skipped.is_empty());
        assert_eq!(&latest.checkpoint, snaps.last().unwrap());

        // Resuming the loaded checkpoint reproduces the uninterrupted
        // run's merged log byte for byte.
        let baseline = fed.run(17).unwrap();
        let mut resumed = fed.resume(&latest.checkpoint).unwrap();
        while fed.step(&mut resumed).unwrap().is_some() {}
        let recovered = fed.finish(resumed);
        assert_eq!(recovered.merged.to_json(), baseline.merged.to_json());
        assert_eq!(recovered.report.to_json(), baseline.report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
