//! Discrete-event engine: online, trace-driven metascheduling over a
//! virtual clock.
//!
//! The batch pipeline in `ecosched-sim` schedules one static snapshot at
//! a time. This crate wraps it in a discrete-event simulation: a virtual
//! clock and a deterministic `(time, seq)` event queue drive job
//! arrivals (Poisson or SWF trace replay), slot publication and expiry,
//! mid-cycle revocation strikes, lease completions, and periodic
//! scheduling cycles that snapshot the live market and run the existing
//! alternatives-search / VO-limit / combination-optimization pipeline.
//!
//! The headline property is determinism: a run is a pure function of
//! `(config, seed)`, and two identically seeded runs produce
//! byte-identical serialized event logs — checked in one line via
//! [`Log::fnv1a_hash`] and pinned across processes and commits by
//! `scripts/check_pins.sh`.
//!
//! A run's state holds its log and its arrival stream in the form a
//! checkpoint stores them — one [`Log`] type serves the engine's log,
//! the federation's merged one and every checkpoint's, and an
//! [`ArrivalState`] is both a live arrival and its serialized form — so
//! [`Engine::checkpoint`] and [`Engine::resume`] clone them rather than
//! convert them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod engine;
pub mod event;
pub mod obs;
pub mod queue;
pub mod report;
pub mod state;

pub use config::{ArrivalConfig, EngineConfig};
pub use engine::{Engine, EngineError, EngineRun, LiveCheckpoint, RunState};
pub use event::{fnv1a_64, fnv1a_extend, Event, Log, LogEntry, LogPosition};
pub use obs::{engine_obs, EngineIds, EngineObs};
pub use queue::EventQueue;
pub use report::{CyclePoint, EngineReport};
pub use state::{
    ArrivalState, EngineCheckpoint, LeaseState, PendingState, QueuedEventState, RngState,
};
