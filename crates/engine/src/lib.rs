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
//! [`EventLog::fnv1a_hash`] and pinned across processes and commits by
//! `scripts/check_pins.sh`.

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
pub use engine::{Engine, EngineError, EngineRun, Reservation, ReserveError, RunState};
pub use event::{fnv1a_64, fnv1a_extend, Event, EventLog, LogEntry, LogPosition, LogTail};
pub use obs::{EngineIds, EngineObs};
pub use queue::EventQueue;
pub use report::{CyclePoint, EngineReport};
pub use state::{
    ArrivalState, EngineCheckpoint, LeaseState, PendingState, QueuedEventState, RngState,
};
