//! Checkpoint/restore and event-log replay for the discrete-event engine.
//!
//! The engine's determinism contract — a run is a pure function of
//! `(config, seed)` — makes crash recovery exact rather than
//! best-effort. This crate adds:
//!
//! * **one snapshot stack**, generic over the [`Checkpoint`] it stores —
//!   the small trait (section tags, file prefix, meta header, the run's
//!   log, and the `attach` that puts back what a format 3–4 store left in
//!   its log segment) implemented by the engine's
//!   [`EngineCheckpoint`](ecosched_engine::EngineCheckpoint) and, in
//!   [`federated`], by the whole multi-shard federation, so every shard
//!   resumes from the same instant. Bottom up: the [`mod@format`]
//!   container (magic, version, per-section checksums), the
//!   [`snapshot`] codec over it, and the rotated [`Store<C>`] of
//!   [`rotate`] — crash-atomic saves ([`atomic_save`]), keep-last-K,
//!   and a loader that walks past corrupt files to the newest usable
//!   capture. `Store<FederationCheckpoint>` is what `ecosched-serve`
//!   runs on. Corrupted, truncated, version-mismatched or wrong-type
//!   files fail with typed [`PersistError`]s — never panics, never a
//!   silently wrong state;
//! * **the log as the run holds it**: a checkpoint carries its run's
//!   event log — the run's own [`Log`](ecosched_engine::Log), cloned —
//!   and its arrival stream, so capture and resume copy them without
//!   converting them. An experiment's log is whole, and its standalone
//!   file ([`snapshot::write`]) is self-contained. A daemon trims its
//!   logs to the newest entry after a
//!   [`LogPosition`](ecosched_engine::LogPosition), which is all a run
//!   reads of them, so its snapshot's size and save cost follow the
//!   state, not the length of the run. A [`Store<C>`] writes either as
//!   it is given. Only a format 3–4 store file left its log to a
//!   segment beside it; the store reads that segment's prefix once,
//!   verified against the recorded position, when it loads such a file,
//!   and skips the file when the segment cannot satisfy it;
//! * **restore + replay** ([`replay`]): [`resume_from`] rebuilds a live
//!   run from a snapshot and *regenerates* the events the crashed
//!   process logged after the capture, checking each against the
//!   surviving log suffix; the first mismatch aborts with
//!   [`ReplayError::Diverged`] naming the offending pair, and past the
//!   suffix the continuation is byte-identical to a run that never
//!   crashed. [`run_with_snapshots`] is the capture cadence the
//!   fault-injection tests and `exp_online --snapshot-every` build on.
//!
//! Both codecs are called by module path — `snapshot::encode` for a
//! checkpoint, `format::encode` for raw sections — so a call site always
//! says which layer it means.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod federated;
pub mod format;
pub mod replay;
pub mod rotate;
mod segment;
pub mod snapshot;

pub use federated::FederatedSnapshotMeta;
pub use format::{PersistError, SectionTag, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
pub use replay::{
    resume_and_replay, resume_from, run_to_completion, run_with_snapshots, ReplayError,
};
pub use rotate::{atomic_save, sync_parent, Latest, Skipped, SnapshotStore, Store};
pub use snapshot::{decode_snapshot, encode_snapshot, Checkpoint, SnapshotMeta};
