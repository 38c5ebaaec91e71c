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
//! A format 3–4 store kept the merged log alone in its segment: each
//! shard's own log is the merged log's projection onto that shard, so
//! such a file records only each shard log's length, and attaching
//! rebuilds the shard logs from the verified merged prefix.

use ecosched_engine::Log;
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

    /// A trimmed checkpoint — every log its newest entry after a true
    /// position — is stored as it is: the file holds exactly that, loads
    /// back unchanged, and resumes into the run the untrimmed one does.
    #[test]
    fn a_trimmed_checkpoint_is_stored_as_it_is() {
        let (fed, _) = checkpoints(0);
        let mut state = fed.start(17);
        for _ in 0..60 {
            fed.step(&mut state).expect("step");
        }
        let whole = fed.checkpoint(&state);
        state.trim_logs();
        let trimmed = fed.checkpoint(&state);
        assert_eq!(trimmed.merged.entries.len(), 1);
        assert_eq!(trimmed.merged.fnv1a_hash(), whole.merged.fnv1a_hash());
        for (shard, whole) in trimmed.shards.iter().zip(&whole.shards) {
            assert!(shard.log.entries.len() <= 1);
            assert_eq!(shard.log.fnv1a_hash(), whole.log.fnv1a_hash());
        }
        let dir =
            std::env::temp_dir().join(format!("ecosched-fedsnap-trim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::<FederationCheckpoint>::open(&dir, 3).unwrap();
        let path = store.save(&trimmed).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode(&trimmed));
        let loaded = store.load_latest().unwrap().expect("saved").checkpoint;
        assert_eq!(loaded, trimmed);
        let (mut a, mut b) = (fed.resume(&loaded).unwrap(), fed.resume(&whole).unwrap());
        while fed.step(&mut a).unwrap().is_some() {}
        while fed.step(&mut b).unwrap().is_some() {}
        assert_eq!(
            fed.finish(a).report.to_json(),
            fed.finish(b).report.to_json()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A format-4 store file taken before any event recorded each shard
    /// log as a bare length, zero; loaded through the store it comes back
    /// as `checkpoint()` takes it, every shard's log whole from the start
    /// — the position a resumed shard hashes its log from.
    #[test]
    fn a_format_4_file_detached_before_any_event_loads_whole() {
        let (fed, _) = checkpoints(0);
        let state = fed.start(17);
        let mut detached = fed.checkpoint(&state);
        for shard in &mut detached.shards {
            shard.log = Log::detached(ecosched_engine::LogPosition { len: 0, hash: 0 });
        }
        let mut bytes = encode(&detached);
        // Format 4 and 5 share the container and its checksums.
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        let dir =
            std::env::temp_dir().join(format!("ecosched-fedsnap-zero-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fsnap-0000000000000000.ecosnap"), &bytes).unwrap();
        let store = Store::<FederationCheckpoint>::open(&dir, 3).unwrap();
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
