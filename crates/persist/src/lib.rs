//! Checkpoint/restore and event-log replay for the discrete-event engine.
//!
//! The engine's determinism contract — a run is a pure function of
//! `(config, seed)` — makes crash recovery exact rather than
//! best-effort. This crate adds:
//!
//! * **one snapshot stack**, generic over the [`Checkpoint`] it stores —
//!   the small trait (section tags, file prefix, meta header, and the
//!   run's log with the `detach`/`attach` pair that moves it out of a
//!   snapshot and back) implemented by the engine's
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
//! * **the log kept once**: a checkpoint carries its run's event log —
//!   the run's own [`Log`](ecosched_engine::Log), cloned, or that log
//!   emptied after a [`LogPosition`](ecosched_engine::LogPosition) —
//!   and its arrival stream as the run holds it, so capture and resume
//!   copy them without converting them. A standalone file
//!   ([`snapshot::write`]) carries everything after position zero and
//!   is self-contained; a [`Store<C>`] keeps the entries in one
//!   append-only log segment beside its snapshots — fsynced before the
//!   snapshot that records their position is renamed into place — and
//!   re-attaches the segment's prefix, verified against the position's
//!   hash, on load. The segment is a cache of a regenerable log: one
//!   that cannot satisfy a snapshot makes that snapshot skipped, never
//!   a wrong log. Snapshot size and save cost follow the state, not the
//!   length of the run;
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
pub use rotate::{atomic_save, Latest, Skipped, SnapshotStore, Store};
pub use snapshot::{decode_snapshot, encode_snapshot, Checkpoint, SnapshotMeta};
