//! Simulation substrate for the economic co-allocation study.
//!
//! Reproduces Sec. 5 of Toporkov et al. (PaCT 2011):
//!
//! * [`SlotGenerator`] / [`JobGenerator`] — the paper's generators with its
//!   exact distributions ([`SlotGenConfig`] / [`JobGenConfig`] default to
//!   the published parameters);
//! * [`mod@env`] — the full distributed-system model the paper's study skipped
//!   for convenience (domains, local job flows, vacant-slot extraction),
//!   built so the shortcut can be validated;
//! * [`run_iteration`] — one complete scheduling iteration: alternatives
//!   search → Eq. (2)/(3) VO limits → combination optimization;
//! * [`RevocationModel`] — seeded slot revocations drawn against a live
//!   market;
//! * [`mod@cycle`] — the commit-and-repair core the discrete-event engine
//!   runs each cycle and each strike: commit, surviving-fragment release,
//!   and the failover → bounded repair search → postpone tiers per broken
//!   lease;
//! * [`RunningStats`] — streaming aggregates for the experiment harness.
//!
//! # Example
//!
//! ```
//! use ecosched_select::Amp;
//! use ecosched_sim::{
//!     run_iteration, IterationConfig, JobGenConfig, JobGenerator, SlotGenConfig, SlotGenerator,
//! };
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(2011);
//! let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
//! let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
//! let result = run_iteration(&Amp::new(), &list, &batch, &IterationConfig::default())?;
//! assert!(result.search.alternatives.total_found() > 0);
//! # Ok::<(), ecosched_sim::IterationError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Library code must propagate or document failures; bare `unwrap()` is
// reserved for tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod analysis;
mod config;
pub mod cycle;
pub mod env;
mod iteration;
mod job_gen;
mod market;
pub mod pricing;
mod revocation;
mod rng_ext;
mod slot_gen;
mod stats;
mod strategy;
pub mod swf;

pub use config::{reserved_key, ConfigError, IntRange, JobGenConfig, RealRange, SlotGenConfig};
pub use cycle::{PostponeReason, Recovery, REPAIR_ATTEMPTS};
pub use iteration::{
    run_iteration, run_iteration_in, Criterion, IterationConfig, IterationError, IterationResult,
};
pub use job_gen::JobGenerator;
pub use market::{MarketCycleReport, MarketSimulation};
pub use revocation::{RevocationConfig, RevocationModel};
pub use slot_gen::SlotGenerator;
pub use stats::RunningStats;
pub use strategy::{ScheduleStrategy, StrategyVersion};
