//! Co-allocation windows: `N` concurrent slot reservations for one job.
//!
//! A window is the paper's `Window` class — a set of slots that start
//! simultaneously. On heterogeneous nodes the per-node runtimes differ, so
//! the window has a "rough right edge"; its overall length is the runtime of
//! the task on the *slowest* member node (Fig. 1 (a)).

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::idhash::IdBuildHasher;
use crate::money::{Money, Price};
use crate::perf::Perf;
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Span, TimeDelta, TimePoint};

/// One member of a window: a task placement on a node, carved out of a
/// source slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowSlot {
    source: SlotId,
    node: NodeId,
    perf: Perf,
    price: Price,
    runtime: TimeDelta,
}

impl WindowSlot {
    /// Creates a window member from a vacant slot and the task runtime on
    /// that slot's node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonPositiveRuntime`] if `runtime` is not
    /// strictly positive.
    pub fn from_slot(slot: &Slot, runtime: TimeDelta) -> Result<Self, CoreError> {
        if !runtime.is_positive() {
            return Err(CoreError::NonPositiveRuntime { node: slot.node() });
        }
        Ok(WindowSlot {
            source: slot.id(),
            node: slot.node(),
            perf: slot.perf(),
            price: slot.price(),
            runtime,
        })
    }

    /// The id of the vacant slot this member was carved from.
    #[must_use]
    pub const fn source(&self) -> SlotId {
        self.source
    }

    /// The node executing this task.
    #[must_use]
    pub const fn node(&self) -> NodeId {
        self.node
    }

    /// The node's performance rate.
    #[must_use]
    pub const fn perf(&self) -> Perf {
        self.perf
    }

    /// The node's price per time unit.
    #[must_use]
    pub const fn price(&self) -> Price {
        self.price
    }

    /// The task runtime on this node.
    #[must_use]
    pub const fn runtime(&self) -> TimeDelta {
        self.runtime
    }

    /// The cost of this member: `price × runtime`.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.price * self.runtime
    }
}

/// A set of concurrent slot reservations for one parallel job.
///
/// Invariants enforced at construction:
///
/// * at least one member slot;
/// * all members on distinct nodes;
/// * all runtimes strictly positive.
///
/// # Examples
///
/// ```
/// use ecosched_core::{
///     NodeId, Perf, Price, Slot, SlotId, Span, TimeDelta, TimePoint, Window, WindowSlot,
/// };
///
/// let slot = Slot::new(
///     SlotId::new(0),
///     NodeId::new(0),
///     Perf::UNIT,
///     Price::from_credits(5),
///     Span::new(TimePoint::new(150), TimePoint::new(400)).unwrap(),
/// )?;
/// let member = WindowSlot::from_slot(&slot, TimeDelta::new(80))?;
/// let w = Window::new(TimePoint::new(150), vec![member])?;
/// assert_eq!(w.length(), TimeDelta::new(80));
/// assert_eq!(w.cost_per_time(), Price::from_credits(5));
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    start: TimePoint,
    slots: Vec<WindowSlot>,
}

impl Window {
    /// Creates a window starting at `start` with the given members.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyWindow`] if `slots` is empty;
    /// * [`CoreError::DuplicateNode`] if two members share a node;
    /// * [`CoreError::NonPositiveRuntime`] if any runtime is not positive
    ///   (already impossible for members built via
    ///   [`WindowSlot::from_slot`]).
    pub fn new(start: TimePoint, slots: Vec<WindowSlot>) -> Result<Self, CoreError> {
        if slots.is_empty() {
            return Err(CoreError::EmptyWindow);
        }
        let mut seen: HashSet<NodeId, IdBuildHasher> =
            HashSet::with_capacity_and_hasher(slots.len(), IdBuildHasher::default());
        for ws in &slots {
            if !ws.runtime.is_positive() {
                return Err(CoreError::NonPositiveRuntime { node: ws.node });
            }
            if !seen.insert(ws.node) {
                return Err(CoreError::DuplicateNode { node: ws.node });
            }
        }
        Ok(Window { start, slots })
    }

    /// The synchronized start time of every task in the window.
    #[must_use]
    pub const fn start(&self) -> TimePoint {
        self.start
    }

    /// The end of the window: start plus the slowest member's runtime.
    #[must_use]
    pub fn end(&self) -> TimePoint {
        self.start + self.length()
    }

    /// The window length — the runtime on the slowest member node (the
    /// paper's `t_i(s̄_i)`, the elapsed job time).
    #[must_use]
    pub fn length(&self) -> TimeDelta {
        self.slots
            .iter()
            .map(|ws| ws.runtime)
            .max()
            .unwrap_or(TimeDelta::ZERO)
    }

    /// Number of member slots (the job's degree of parallelism `N`).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The member slots.
    #[must_use]
    pub fn slots(&self) -> &[WindowSlot] {
        &self.slots
    }

    /// Total price per time unit — the sum of member prices (the cost
    /// measure quoted in the paper's Fig. 2 example).
    #[must_use]
    pub fn cost_per_time(&self) -> Price {
        self.slots.iter().map(|ws| ws.price).sum()
    }

    /// Total cost of the window: `Σ price_k × runtime_k` (the paper's
    /// `c_i(s̄_i)`; Sec. 6 writes the homogeneous special case `C·t·N/P`).
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.slots.iter().map(WindowSlot::cost).sum()
    }

    /// The span `[start, start + runtime)` actually occupied on member `ws`.
    #[must_use]
    pub fn used_span(&self, ws: &WindowSlot) -> Span {
        Span::from_start_length(self.start, ws.runtime)
            .expect("window member runtimes are positive by construction")
    }

    /// Returns `true` if any member runs on node `node`.
    #[must_use]
    pub fn uses_node(&self, node: NodeId) -> bool {
        self.slots.iter().any(|ws| ws.node == node)
    }

    /// Returns `true` if the occupied regions of the two windows share any
    /// `(node, tick)` pair.
    #[must_use]
    pub fn overlaps(&self, other: &Window) -> bool {
        for a in &self.slots {
            for b in &other.slots {
                if a.node == b.node && self.used_span(a).overlaps(other.used_span(b)) {
                    return true;
                }
            }
        }
        false
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window@{} len={} n={} cost={} ({}):",
            self.start,
            self.length(),
            self.slot_count(),
            self.total_cost(),
            self.cost_per_time(),
        )?;
        for ws in &self.slots {
            write!(f, " {}[{}]", ws.node, ws.runtime)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(id: u64, node: u32, perf: f64, price: i64, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::from_f64(perf),
            Price::from_credits(price),
            Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
        )
        .unwrap()
    }

    fn member(id: u64, node: u32, price: i64, runtime: i64) -> WindowSlot {
        WindowSlot::from_slot(
            &slot(id, node, 1.0, price, 0, 1000),
            TimeDelta::new(runtime),
        )
        .unwrap()
    }

    #[test]
    fn empty_window_rejected() {
        assert_eq!(
            Window::new(TimePoint::ZERO, vec![]).unwrap_err(),
            CoreError::EmptyWindow
        );
    }

    #[test]
    fn duplicate_node_rejected() {
        let err = Window::new(
            TimePoint::ZERO,
            vec![member(0, 1, 2, 10), member(1, 1, 2, 10)],
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::DuplicateNode {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn non_positive_runtime_rejected_at_member_construction() {
        let err = WindowSlot::from_slot(&slot(0, 0, 1.0, 2, 0, 100), TimeDelta::ZERO).unwrap_err();
        assert_eq!(
            err,
            CoreError::NonPositiveRuntime {
                node: NodeId::new(0)
            }
        );
    }

    #[test]
    fn length_is_slowest_member() {
        let w = Window::new(
            TimePoint::new(100),
            vec![
                member(0, 0, 2, 40),
                member(1, 1, 3, 80),
                member(2, 2, 1, 60),
            ],
        )
        .unwrap();
        assert_eq!(w.length(), TimeDelta::new(80));
        assert_eq!(w.end(), TimePoint::new(180));
    }

    #[test]
    fn costs_sum_members() {
        let w = Window::new(
            TimePoint::ZERO,
            vec![member(0, 0, 2, 40), member(1, 1, 3, 80)],
        )
        .unwrap();
        assert_eq!(w.cost_per_time(), Price::from_credits(5));
        assert_eq!(
            w.total_cost(),
            Money::from_credits(2 * 40) + Money::from_credits(3 * 80)
        );
    }

    #[test]
    fn used_spans_run_from_the_window_start() {
        let w = Window::new(
            TimePoint::new(50),
            vec![member(7, 0, 2, 40), member(8, 1, 3, 20)],
        )
        .unwrap();
        let used: Vec<_> = w.slots().iter().map(|ws| w.used_span(ws)).collect();
        assert_eq!(w.slots()[0].source(), SlotId::new(7));
        assert_eq!(used[0].start(), TimePoint::new(50));
        assert_eq!(used[0].end(), TimePoint::new(90));
        assert_eq!(used[1].end(), TimePoint::new(70));
    }

    #[test]
    fn uses_node_reads_the_member_nodes() {
        let w = Window::new(TimePoint::ZERO, vec![member(7, 3, 2, 40)]).unwrap();
        assert!(w.uses_node(NodeId::new(3)));
        assert!(!w.uses_node(NodeId::new(4)));
    }

    #[test]
    fn overlap_requires_shared_node_and_time() {
        let a = Window::new(TimePoint::ZERO, vec![member(0, 0, 1, 50)]).unwrap();
        // Same node, later in time: no overlap.
        let b = Window::new(TimePoint::new(50), vec![member(1, 0, 1, 50)]).unwrap();
        // Same time, different node: no overlap.
        let c = Window::new(TimePoint::ZERO, vec![member(2, 1, 1, 50)]).unwrap();
        // Same node, overlapping time: overlap.
        let d = Window::new(TimePoint::new(25), vec![member(3, 0, 1, 50)]).unwrap();
        assert!(!a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&d));
        assert!(d.overlaps(&a));
    }

    #[test]
    fn display_mentions_length_and_cost() {
        let w = Window::new(TimePoint::ZERO, vec![member(0, 0, 2, 40)]).unwrap();
        let text = format!("{w}");
        assert!(text.contains("len=40Δ"));
        assert!(text.contains("cpu0"));
    }
}
