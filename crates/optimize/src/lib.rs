//! Batch combination optimization for economic co-allocation.
//!
//! Implements the second stage of the scheduling scheme in Toporkov et al.
//! (PaCT 2011): given the disjoint alternatives found per job, choose one
//! alternative per job optimizing a VO-level criterion:
//!
//! * [`min_time_under_budget`] — `min T(s̄)` s.t. `C(s̄) ≤ B*` (Sec. 5,
//!   Fig. 4–5 experiment);
//! * [`min_cost_under_time`] — `min C(s̄)` s.t. `T(s̄) ≤ T*` (Sec. 5,
//!   Fig. 6 experiment);
//! * [`max_cost_under_time`] — owners' income maximization, the inner
//!   optimization of Eq. (3).
//!
//! The VO limits come from [`time_quota`] (Eq. (2)) and [`vo_budget`]
//! (Eq. (3)). All three solvers use the backward-run dynamic program of
//! Eq. (1), served by an incremental row cache: the free functions above
//! are one-shot conveniences over [`IncrementalOptimizer`], which reuses
//! unchanged suffix rows across repeated solves on mutating batches and
//! shifting `B*`/`T*` limits, reporting its work in [`OptStats`]. Where
//! quantizing money starves a feasible instance, the exact
//! [`ParetoFrontier`] sweep settles it, built anew for each question.
//!
//! # Oracles
//!
//! Two reference implementations cross-check the row cache and are kept
//! out of the documented surface: the from-scratch drivers
//! `min_time_under_budget_naive`, `min_cost_under_time_naive` and
//! `max_cost_under_time_naive`, which build every row on every call
//! through the same row kernel, and the exhaustive `brute` module, which
//! enumerates every combination. No scheduling run calls either; the
//! differential harness in `tests/equivalence.rs`, the root smoke test
//! and the benches do.
//!
//! # Example
//!
//! ```
//! use ecosched_core::{
//!     Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
//!     TimeDelta, TimePoint,
//! };
//! use ecosched_optimize::{min_time_under_budget, time_quota, vo_budget};
//! use ecosched_select::{find_alternatives, Amp};
//!
//! // Alternatives from a tiny 4-node environment.
//! let slots = (0..4)
//!     .map(|i| {
//!         Slot::new(
//!             SlotId::new(i),
//!             NodeId::new(i as u32),
//!             Perf::from_f64(1.0 + (i % 2) as f64),
//!             Price::from_credits(2 + i as i64),
//!             Span::new(TimePoint::new(0), TimePoint::new(500)).unwrap(),
//!         )
//!     })
//!     .collect::<Result<Vec<_>, _>>()?;
//! let list = SlotList::from_slots(slots)?;
//! let batch = Batch::from_jobs(vec![Job::new(
//!     JobId::new(0),
//!     ResourceRequest::new(2, TimeDelta::new(100), Perf::UNIT, Price::from_credits(4))?,
//! )])?;
//! let outcome = find_alternatives(&Amp::new(), &list, &batch)?;
//!
//! // VO limits by Eq. (2) / Eq. (3), then the time-minimal combination.
//! let quota = time_quota(outcome.alternatives.per_job());
//! let budget = vo_budget(outcome.alternatives.per_job())?;
//! let best = min_time_under_budget(
//!     outcome.alternatives.per_job(),
//!     budget,
//!     ecosched_core::Money::from_micro(10_000),
//! )?;
//! assert!(best.total_cost() <= budget);
//! assert!(quota.is_positive());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Library code must propagate or document failures; bare `unwrap()` is
// reserved for tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod assignment;
#[doc(hidden)]
pub mod brute;
mod dp;
mod error;
mod incremental;
mod limits;
mod pareto;
#[cfg(test)]
mod test_support;
mod vector;

pub use assignment::{Assignment, Choice};
pub use dp::{max_cost_under_time_naive, min_cost_under_time_naive, min_time_under_budget_naive};
pub use error::OptimizeError;
pub use incremental::{
    max_cost_under_time, min_cost_under_time, min_time_under_budget, IncrementalOptimizer,
    OptStats, OptimizerSnapshot,
};
pub use limits::{time_quota, vo_budget, vo_budget_with_quota};
pub use pareto::{ParetoFrontier, DEFAULT_FRONTIER_CAP};
pub use vector::{efficient_menu, pareto_optimal, VectorCriteria};
