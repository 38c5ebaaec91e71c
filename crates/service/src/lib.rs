//! Service mode: a long-running scheduling daemon over the
//! discrete-event engine.
//!
//! `ecosched-serve` accepts job submissions as newline-delimited JSON
//! over a local TCP or Unix socket, screens them with Libra-style
//! admission control (backlog backpressure, deadline and budget
//! feasibility against the live market — [`admission`]), injects
//! accepted jobs into the running engine between steps, and paces the
//! virtual clock against wall time ([`daemon`]). Durability is
//! fsync-before-ack: every accepted submission is group-committed to a
//! write-ahead log ([`wal`]) before its `Accepted` response, snapshots
//! rotate on a cycle cadence and on graceful shutdown
//! ([`ecosched_persist::rotate`]), and a restarted daemon resumes from
//! the newest usable snapshot plus the WAL suffix with a byte-identical
//! event log ([`session`], [`replay`]) — `kill -9` at any instant loses
//! no acknowledged job.
//!
//! Determinism contract (service form): a run is a pure function of
//! `(config, seed, accepted-submission sequence)`; the WAL records the
//! sequence, and [`replay::verify_data_dir`] proves any data directory
//! against it offline.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod accept;
pub mod admission;
pub mod client;
pub mod daemon;
pub mod error;
pub mod manifest;
pub mod metrics_http;
pub mod obs;
pub mod protocol;
pub mod replay;
pub mod session;
pub mod signals;
pub mod wal;

pub use admission::{decide, AdmissionPolicy, MarketView};
pub use client::{Client, Endpoint};
pub use daemon::{serve, ServeOptions};
pub use error::ServiceError;
pub use manifest::{load_manifest, save_manifest, SelectorChoice, ServiceManifest};
pub use metrics_http::spawn_metrics_listener;
pub use obs::{build_service_obs, ServiceIds, ServiceObs, ServiceObsBundle};
pub use protocol::{DaemonStatus, JobSpec, RejectReason, Request, Response};
pub use replay::{replay_wal, verify_data_dir, VerifyReport};
pub use session::{Ack, BootMode, Session};
pub use wal::{load_wal, LoadedWal, Wal, WalEntry};
