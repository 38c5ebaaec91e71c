//! Slot-selection algorithms for economic co-allocation.
//!
//! This crate implements Sec. 3 of Toporkov et al. (PaCT 2011):
//!
//! * [`Alp`] — the **A**lgorithm based on **L**ocal **P**rice: a linear
//!   forward scan admitting only slots whose individual price is within the
//!   request's cap `C`.
//! * [`Amp`] — the **A**lgorithm based on **M**aximal job **P**rice: the
//!   same scan without the per-slot cap, accepting a window as soon as the
//!   `N` cheapest live candidates fit the job budget `S = C·t·N`
//!   (optionally `ρ·C·t·N`).
//! * [`find_alternatives`] — the multi-pass alternatives search of Sec. 2,
//!   which repeatedly runs a selector over the batch and subtracts every
//!   found window so all alternatives are disjoint.
//!
//! Both algorithms examine each slot of the list at most once per window
//! search ([`ScanStats::slots_examined`] proves it in tests), handle
//! heterogeneous node performance (windows get a "rough right edge"), and
//! are deterministic.
//!
//! For the built-in selectors the alternatives searches run an
//! *incremental* driver: each job keeps a checkpoint (last acceptance
//! anchor plus the live candidate pool up to and including it) and resumes
//! there after every subtraction instead of rescanning the list prefix —
//! one scan reads a list slot at most once per search — and AMP's
//! acceptance test maintains a cost-ordered pool with a running sum of the
//! `N` cheapest instead of sorting per group. Results are byte-identical
//! to the restart-per-window drivers [`find_alternatives_naive`] /
//! [`find_alternatives_coscheduled_naive`], which are also what a selector
//! without an [`AlgoSpec`] runs (`ecosched-baseline`'s backfill window,
//! any selector of a caller's own) — production code, not oracles; see
//! `DESIGN.md` § "Complexity & performance" for the cost model.
//!
//! # Oracles
//!
//! Two public functions exist only to be compared against and are kept
//! out of the documented surface: `Alp::find_window_naive` and
//! `Amp::find_window_naive` (the restart-from-scratch window scans the
//! incremental scan and AMP's cost-ordered pool are checked against). No
//! search calls them; `tests/equivalence.rs` and the search benches do.
//!
//! # Example
//!
//! ```
//! use ecosched_core::{
//!     Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
//!     TimeDelta, TimePoint,
//! };
//! use ecosched_select::{find_alternatives, Alp, Amp};
//!
//! let slots = (0..3)
//!     .map(|i| {
//!         Slot::new(
//!             SlotId::new(i),
//!             NodeId::new(i as u32),
//!             Perf::from_f64(1.0 + i as f64),
//!             Price::from_credits(1 + 2 * i as i64),
//!             Span::new(TimePoint::new(0), TimePoint::new(600)).unwrap(),
//!         )
//!     })
//!     .collect::<Result<Vec<_>, _>>()?;
//! let list = SlotList::from_slots(slots)?;
//! let batch = Batch::from_jobs(vec![Job::new(
//!     JobId::new(0),
//!     ResourceRequest::new(2, TimeDelta::new(120), Perf::UNIT, Price::from_credits(3))?,
//! )])?;
//!
//! let alp = find_alternatives(&Alp::new(), &list, &batch)?;
//! let amp = find_alternatives(&Amp::new(), &list, &batch)?;
//! assert!(amp.alternatives.total_found() >= alp.alternatives.total_found());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Library code must propagate or document failures; bare `unwrap()` is
// reserved for tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod alp;
mod amp;
mod coschedule;
mod incremental;
mod repair;
mod scan;
mod search;
mod selector;
mod stats;

pub use alp::Alp;
pub use amp::Amp;
pub use coschedule::{find_alternatives_coscheduled, find_alternatives_coscheduled_naive};
pub use incremental::AlgoSpec;
pub use repair::{repair_search, revalidate_window, try_adopt_window, RepairError};
pub use scan::LengthRule;
pub use search::{find_alternatives, find_alternatives_in, find_alternatives_naive, SearchOutcome};
pub use selector::SlotSelector;
pub use stats::{ScanStats, SearchStats};
