//! The snapshot codec, generic over the [`Checkpoint`] it stores.
//!
//! A snapshot is a [`format`](mod@crate::format) container with two
//! sections whose tags the checkpoint type names: a small JSON **meta**
//! header ([`Checkpoint::Meta`] — seed, configuration fingerprint,
//! progress) readable without parsing the state, and the canonical JSON
//! of the **state** itself. The engine's [`EngineCheckpoint`] implements
//! the trait here (`META`/`CKPT`, files `snap-…`), the federation's in
//! [`federated`](crate::federated); a snapshot of the other type fails
//! with [`PersistError::MissingSection`] rather than a misparse.
//!
//! The state carries its run's [`Log`] — the entries after a position.
//! [`encode`] and [`write()`] store whatever log they are given: a clone
//! of the run's whole log for an experiment's checkpoint, the newest
//! entry after a position for a daemon that trims its logs. Either
//! resumes as it is. Only a format 3–4 store file needs more: the trait's
//! [`attach`](Checkpoint::attach) puts back the prefix the
//! [`Store`](crate::Store) reads from its legacy log segment.

use std::path::Path;

use ecosched_engine::{EngineCheckpoint, Log, LogEntry};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::format::{self, require, PersistError, SectionTag};
use crate::rotate::atomic_save;

/// A resumable state the snapshot stack can store: what distinguishes
/// one kind of snapshot from another on disk, and nothing else.
pub trait Checkpoint: Serialize + DeserializeOwned + Clone {
    /// The cheap-to-read identity header stored next to the state.
    type Meta: Serialize + DeserializeOwned;
    /// One entry of the run's log — one line of a format 3–4 store's log
    /// segment.
    type Entry: Serialize + DeserializeOwned;
    /// The section holding the [`Meta`](Checkpoint::Meta) JSON.
    const META_SECTION: SectionTag;
    /// The section holding the checkpoint JSON.
    const STATE_SECTION: SectionTag;
    /// Prefix of every rotated file name (`<prefix><events>.ecosnap`).
    const FILE_PREFIX: &'static str;

    /// Builds the header for this checkpoint.
    fn meta(&self) -> Self::Meta;

    /// The run's log as this checkpoint carries it.
    fn log(&self) -> &Log<Self::Entry>;

    /// Puts back the prefix a format 3–4 store left in its log segment
    /// (empty for a log it kept whole). The caller has verified `prefix`
    /// against the recorded position.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] when the checkpoint's other contents
    /// contradict the prefix.
    fn attach(&mut self, prefix: Vec<Self::Entry>) -> Result<(), PersistError>;

    /// Log events the captured run had emitted — the rotated store's
    /// ordering key (file names sort by it, newest last).
    fn events(&self) -> u64 {
        self.log().len() as u64
    }
}

/// The identity header of an engine snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// The seed the captured run was started with.
    pub seed: u64,
    /// The `(config, selector)` fingerprint the checkpoint was taken
    /// under; resume requires an engine with the same fingerprint.
    pub config_fp: u64,
    /// Events the captured run had processed.
    pub events_processed: u64,
    /// Future events still queued at capture time.
    pub events_queued: u64,
}

impl Checkpoint for EngineCheckpoint {
    type Meta = SnapshotMeta;
    type Entry = LogEntry;
    const META_SECTION: SectionTag = SectionTag(*b"META");
    const STATE_SECTION: SectionTag = SectionTag(*b"CKPT");
    const FILE_PREFIX: &'static str = "snap-";

    fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            seed: self.seed,
            config_fp: self.config_fp,
            events_processed: self.events(),
            events_queued: self.queue.len() as u64,
        }
    }

    fn log(&self) -> &Log<LogEntry> {
        &self.log
    }

    fn attach(&mut self, prefix: Vec<LogEntry>) -> Result<(), PersistError> {
        self.log.attach(prefix);
        Ok(())
    }
}

fn parse_section<T: DeserializeOwned>(
    section: SectionTag,
    payload: &[u8],
) -> Result<T, PersistError> {
    let text = std::str::from_utf8(payload).map_err(|e| PersistError::Corrupt {
        section,
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| PersistError::Corrupt {
        section,
        detail: format!("payload is not a valid {}: {e}", std::any::type_name::<T>()),
    })
}

/// Serializes a checkpoint into snapshot bytes.
#[must_use]
pub fn encode<C: Checkpoint>(checkpoint: &C) -> Vec<u8> {
    encode_with::<C>(&checkpoint.meta(), |out| checkpoint.write_json(out))
}

/// Serializes snapshot bytes from a `C` header and a writer of the state
/// JSON — [`encode`] of the checkpoint that `state` writes, for a state
/// written straight from a live run without the checkpoint built.
#[must_use]
pub(crate) fn encode_with<C: Checkpoint>(
    meta: &C::Meta,
    state: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = format::begin(2);
    format::section(&mut out, C::META_SECTION, |out| meta.write_json(out));
    format::section(&mut out, C::STATE_SECTION, state);
    out
}

/// Parses snapshot bytes back into a checkpoint, verifying the container
/// header and every checksum.
///
/// # Errors
///
/// Any [`PersistError`] from the container layer —
/// [`PersistError::MissingSection`] when the bytes are a snapshot of
/// another checkpoint type — or [`PersistError::Corrupt`] when a payload
/// passes its checksum but is not valid checkpoint JSON.
pub fn decode<C: Checkpoint>(bytes: &[u8]) -> Result<C, PersistError> {
    let sections = format::decode(bytes)?;
    parse_section(C::STATE_SECTION, require(&sections, C::STATE_SECTION)?)
}

/// Reads only the identity header of `C`-snapshot bytes — cheap relative
/// to the full state, for "which run is this?" inspection.
///
/// # Errors
///
/// Same failure modes as [`decode`].
pub fn peek<C: Checkpoint>(bytes: &[u8]) -> Result<C::Meta, PersistError> {
    let sections = format::decode(bytes)?;
    parse_section(C::META_SECTION, require(&sections, C::META_SECTION)?)
}

/// Writes a checkpoint to a snapshot file, crash-atomically (see
/// [`atomic_save`]): a crash mid-write leaves the previous file, or
/// none, under `path` — never a torn one.
///
/// # Errors
///
/// [`PersistError::Io`] when the write fails.
pub fn write<C: Checkpoint>(path: &Path, checkpoint: &C) -> Result<(), PersistError> {
    Ok(atomic_save(path, &encode(checkpoint))?)
}

/// Reads a checkpoint from a snapshot file.
///
/// # Errors
///
/// [`PersistError::Io`] when the read fails; otherwise the failure modes
/// of [`decode`].
pub fn read<C: Checkpoint>(path: &Path) -> Result<C, PersistError> {
    decode(&std::fs::read(path)?)
}

/// [`encode`] for an engine checkpoint.
#[must_use]
pub fn encode_snapshot(checkpoint: &EngineCheckpoint) -> Vec<u8> {
    encode(checkpoint)
}

/// [`decode`] for an engine checkpoint — the spelling that needs no type
/// annotation at the call site.
///
/// # Errors
///
/// The failure modes of [`decode`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<EngineCheckpoint, PersistError> {
    decode(bytes)
}
