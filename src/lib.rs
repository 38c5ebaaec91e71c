//! # ecosched — economic slot selection and co-allocation
//!
//! A Rust reproduction of Toporkov, Bobchenkov, Toporkova, Tselishchev &
//! Yemelyanov, *"Slot Selection and Co-allocation for Economic Scheduling
//! in Distributed Computing"* (PaCT 2011, LNCS 6873).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the domain model (slots, windows, jobs, money, time);
//! * [`select`] — the ALP/AMP slot-selection algorithms and the
//!   multi-pass alternatives search;
//! * [`optimize`] — the backward-run DP combination optimizer, VO limits
//!   (Eq. 2/3), Pareto and brute-force reference solvers;
//! * [`baseline`] — FCFS / conservative / EASY backfilling and the
//!   quadratic backfill-style window search;
//! * [`sim`] — the paper's generators, the full environment substrate,
//!   the scheduling-iteration driver, and the commit-and-repair core the
//!   engine runs each cycle;
//! * [`engine`] — the deterministic discrete-event engine driving the
//!   pipeline online over a virtual clock;
//! * [`federation`] — the sharded multi-VO superscheduler: routing
//!   policies, cross-shard co-allocation, and deterministic
//!   merged event logs over shard engines;
//! * [`persist`] — checkpoint/restore containers, snapshot rotation,
//!   and event-log replay;
//! * [`service`] — the streaming-submission daemon (`ecosched-serve`),
//!   its wire protocol and client, and the crash-durable session;
//! * [`experiments`] — one runner per table/figure of the paper.
//!
//! See the repository README for a tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use ecosched::prelude::*;
//!
//! // Two nodes publish vacant slots…
//! let slots = vec![
//!     Slot::new(
//!         SlotId::new(0),
//!         NodeId::new(0),
//!         Perf::from_f64(1.0),
//!         Price::from_credits(2),
//!         Span::new(TimePoint::new(0), TimePoint::new(500)).unwrap(),
//!     )?,
//!     Slot::new(
//!         SlotId::new(1),
//!         NodeId::new(1),
//!         Perf::from_f64(2.0),
//!         Price::from_credits(5),
//!         Span::new(TimePoint::new(40), TimePoint::new(500)).unwrap(),
//!     )?,
//! ];
//! let list = SlotList::from_slots(slots)?;
//!
//! // …and a job asks for both of them for 100 etalon ticks.
//! let request = ResourceRequest::new(2, TimeDelta::new(100), Perf::UNIT, Price::from_credits(4))?;
//!
//! let mut stats = ScanStats::new();
//! let window = Amp::new()
//!     .find_window(&list, &request, &mut stats)
//!     .expect("a window exists");
//! assert_eq!(window.slot_count(), 2);
//! assert!(window.total_cost() <= request.budget());
//! # Ok::<(), ecosched::core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ecosched_baseline as baseline;
pub use ecosched_core as core;
pub use ecosched_engine as engine;
pub use ecosched_experiments as experiments;
pub use ecosched_federation as federation;
pub use ecosched_optimize as optimize;
pub use ecosched_persist as persist;
pub use ecosched_select as select;
pub use ecosched_service as service;
pub use ecosched_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use ecosched_core::{
        Alternative, Batch, BatchAlternatives, CoreError, Job, JobAlternatives, JobId, Money,
        NodeId, Perf, Price, Resource, ResourceRequest, Revocation, Slot, SlotId, SlotList, Span,
        TimeDelta, TimePoint, Window, WindowSlot,
    };
    pub use ecosched_optimize::{
        max_cost_under_time, min_cost_under_time, min_time_under_budget, time_quota, vo_budget,
        Assignment,
    };
    pub use ecosched_select::{
        find_alternatives, find_alternatives_coscheduled, Alp, Amp, LengthRule, ScanStats,
        SearchOutcome, SlotSelector,
    };
    pub use ecosched_sim::{
        run_iteration, Criterion, IterationConfig, JobGenConfig, JobGenerator, PostponeReason,
        RepairPolicy, RevocationConfig, SlotGenConfig, SlotGenerator,
    };
}
