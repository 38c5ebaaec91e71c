//! Checkpoint/restore and event-log replay for the discrete-event engine.
//!
//! The engine's determinism contract — a run is a pure function of
//! `(config, seed)` — makes crash recovery exact rather than
//! best-effort. This crate adds the three pieces:
//!
//! * a **snapshot format** ([`mod@format`], [`snapshot`]): a self-describing
//!   binary container (magic, version header, per-section FNV-1a 64
//!   checksums) whose sections carry the engine's serde-serialized
//!   [`EngineCheckpoint`](ecosched_engine::EngineCheckpoint). Corrupted,
//!   truncated, or version-mismatched files fail with typed
//!   [`PersistError`]s — never panics, never a silently wrong state;
//! * **restore + replay** ([`replay`]): [`resume_from`] rebuilds a live
//!   run from a snapshot and *regenerates* the events the crashed
//!   process logged after the capture, checking each against the
//!   surviving log suffix. The first mismatch aborts with
//!   [`ReplayError::Diverged`] naming the offending pair; past the
//!   suffix, determinism guarantees the continuation is byte-identical
//!   to a run that never crashed (same final report, same log hash);
//! * a **snapshot cadence helper** ([`run_with_snapshots`]): capture
//!   after every N-th cycle commit, which is what the crash-recovery
//!   fault-injection tests and `exp_online --snapshot-every` build on;
//! * **federated snapshots** ([`federated`]): the whole multi-shard
//!   federation — per-shard engine checkpoints, router state, merged
//!   log — captured in one container and rotated by the same store
//!   discipline, so every shard resumes from the same instant;
//! * a **rotated snapshot store** ([`rotate`]): a directory of
//!   crash-atomically written snapshots (temp file + fsync + rename),
//!   pruned to the newest K, whose loader walks past corrupt or
//!   truncated files to the newest usable capture — the durability
//!   substrate of the `ecosched-serve` daemon.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod federated;
pub mod format;
pub mod replay;
pub mod rotate;
pub mod snapshot;

pub use federated::{
    decode_federated_snapshot, encode_federated_snapshot, peek_federated_meta,
    read_federated_snapshot, write_federated_snapshot, FederatedSnapshotMeta,
    FederatedSnapshotStore, LatestFederatedSnapshot, SkippedFederatedSnapshot,
    FED_CHECKPOINT_SECTION, FED_META_SECTION,
};
pub use format::{
    decode, encode, PersistError, SectionTag, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION,
};
pub use replay::{
    resume_and_replay, resume_from, run_to_completion, run_with_snapshots, ReplayError,
};
pub use rotate::{LatestSnapshot, SkippedSnapshot, SnapshotStore};
pub use snapshot::{
    decode_snapshot, encode_snapshot, peek_meta, read_snapshot, write_snapshot, SnapshotMeta,
    CHECKPOINT_SECTION, META_SECTION,
};
