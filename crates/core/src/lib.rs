//! Core domain model for economic slot selection and co-allocation.
//!
//! This crate implements the data model of Toporkov et al., *"Slot Selection
//! and Co-allocation for Economic Scheduling in Distributed Computing"*
//! (PaCT 2011): time [`Span`]s, fixed-point [`Money`]/[`Price`], node
//! performance [`Perf`], vacant [`Slot`]s kept in a start-ordered
//! [`SlotList`] supporting the paper's Fig. 1 (b) *slot subtraction*,
//! co-allocation [`Window`]s with a rough right edge, job
//! [`ResourceRequest`]s, [`Batch`]es, and the [`Alternative`] sets consumed
//! by the combination optimizer.
//!
//! The slot-selection algorithms themselves (ALP / AMP) live in
//! `ecosched-select`; the dynamic-programming combination optimizer in
//! `ecosched-optimize`.
//!
//! # Example
//!
//! Build a slot list, carve a window out of it, and subtract it:
//!
//! ```
//! use ecosched_core::{
//!     NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint, Window,
//!     WindowSlot,
//! };
//!
//! let slot = Slot::new(
//!     SlotId::new(0),
//!     NodeId::new(0),
//!     Perf::UNIT,
//!     Price::from_credits(2),
//!     Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap(),
//! )?;
//! let mut list = SlotList::from_slots(vec![slot])?;
//!
//! let member = WindowSlot::from_slot(&slot, TimeDelta::new(30))?;
//! let window = Window::new(TimePoint::new(0), vec![member])?;
//! list.subtract_window(&window)?;
//!
//! assert_eq!(list.len(), 1); // the [30, 100) remnant
//! assert_eq!(list.earliest_start(), Some(TimePoint::new(30)));
//! # Ok::<(), ecosched_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod alternative;
mod error;
mod idhash;
mod interval;
mod job;
mod money;
mod perf;
mod request;
mod resource;
mod revocation;
mod slot;
mod slot_list;
mod time;
mod window;

pub use alternative::{Alternative, BatchAlternatives, JobAlternatives};
pub use error::CoreError;
pub use interval::{SlotIntoIter, SlotIter};
pub use job::{Batch, Job, JobId};
pub use money::{Money, Price, MONEY_SCALE};
pub use perf::{Perf, PERF_SCALE};
pub use request::ResourceRequest;
pub use resource::{NodeId, Resource};
pub use revocation::Revocation;
pub use slot::{Slot, SlotId};
#[doc(hidden)]
pub use slot_list::MarketRepr;
pub use slot_list::{SlotList, SubtractionReport};
pub use time::{Span, TimeDelta, TimePoint};
pub use window::{Window, WindowSlot};
