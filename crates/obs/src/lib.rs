//! Deterministic observability for the ecosched stack: a lock-free
//! metrics registry, a virtual-time span tracer, and render paths for
//! Prometheus text exposition and JSON dumps.
//!
//! # Design contract
//!
//! Instrumentation must never change what a run does. Three rules
//! enforce that:
//!
//! * **Observe-only**: recording reads nothing an engine decision
//!   depends on — no RNG draws, no event-queue access, no wall-clock
//!   reads on hot paths. Values are pushed in by the instrumented
//!   layer; time keys are *virtual* ticks.
//! * **Runtime state, never serialized**: a layer's [`Handle`] and the
//!   [`Recorder`] it shares are passed by value — absent from
//!   configurations, fingerprints, checkpoints, and snapshots. A
//!   recorder-on run and a recorder-off run are byte-identical
//!   (pinned by engine/federation A/B tests downstream).
//! * **Registration before recording**: every metric is registered at
//!   startup through [`RegistryBuilder`], which hands out dense index
//!   ids; the frozen [`Registry`] records through those ids with one
//!   atomic per operation — no locks, no allocation, no name hashing.
//!
//! Each instrumented layer declares its metric family as one table of
//! [`Row`]s and records through a [`Handle`] over its registered ids.
//!
//! See `DESIGN.md` §17 for the registry layout and the exposition
//! format.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod expose;
mod family;
mod recorder;
mod registry;
mod trace;

pub use family::{Family, Handle, Row, Table, Value};
pub use recorder::{Recorder, DEFAULT_TRACE_CAPACITY};
pub use registry::{Buckets, CounterId, GaugeId, HistogramId, Registry, RegistryBuilder};
pub use trace::{SpanRecord, Tracer};
