//! The two containers inside the market store ([`crate::SlotList`]).
//!
//! * [`Order`] holds every live slot in `(start, id)` order, as one of
//!   two orderings. A `Vec<Slot>` is cheap to walk, clone and bulk-load
//!   and pays an `O(m)` memmove per splice: the closed batch markets of
//!   the paper's study. A `BTreeMap<(TimePoint, SlotId), Slot>` splices
//!   in `O(log m)`: the engine's long-lived market, re-planned at every
//!   scheduling event. `Order` and its two iterators are the only types
//!   in the crate with an arm per ordering; everything above them — the
//!   id index, the per-node timelines, id minting and every market
//!   algorithm — exists once, in [`crate::SlotList`].
//! * [`IntervalSet`] is one node's timeline of disjoint free intervals,
//!   `start → (id, end)`, which makes overlap checks and region queries
//!   `O(log n)` tree steps. Price and performance live once, in the slot
//!   held by the `Order`.
//!
//! Both orderings are **observably identical** — same slots, same id
//! minting order, same iteration order, same
//! [`SubtractionReport`](crate::SubtractionReport)s — by construction
//! above this module; `tests/interval_equivalence.rs` pins the one thing
//! that can still differ, the container.

use std::collections::{btree_map, BTreeMap};

use crate::error::CoreError;
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::slot_list::MarketRepr;
use crate::time::{Span, TimePoint};

/// A slot's position in `(start, id)` order.
pub(crate) type Key = (TimePoint, SlotId);

pub(crate) fn key(slot: &Slot) -> Key {
    (slot.start(), slot.id())
}

/// Every live slot in `(start, id)` order, in one of two orderings.
#[derive(Debug, Clone)]
pub(crate) enum Order {
    Vec(Vec<Slot>),
    Tree(BTreeMap<Key, Slot>),
}

impl Default for Order {
    fn default() -> Self {
        Order::Vec(Vec::new())
    }
}

impl Order {
    pub(crate) fn new(repr: MarketRepr) -> Self {
        Order::from_sorted(Vec::new(), repr)
    }

    /// Bulk-loads slots the caller has checked to be in strictly
    /// increasing `(start, id)` order; the vector is kept as it is.
    pub(crate) fn from_sorted(slots: Vec<Slot>, repr: MarketRepr) -> Self {
        match repr {
            MarketRepr::Flat => Order::Vec(slots),
            MarketRepr::Interval => {
                Order::Tree(slots.into_iter().map(|slot| (key(&slot), slot)).collect())
            }
        }
    }

    pub(crate) fn repr(&self) -> MarketRepr {
        match self {
            Order::Vec(_) => MarketRepr::Flat,
            Order::Tree(_) => MarketRepr::Interval,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Order::Vec(slots) => slots.len(),
            Order::Tree(tree) => tree.len(),
        }
    }

    pub(crate) fn get(&self, at: Key) -> Option<&Slot> {
        match self {
            Order::Vec(slots) => slots.get(position(slots, at)).filter(|s| key(s) == at),
            Order::Tree(tree) => tree.get(&at),
        }
    }

    /// Inserts a slot whose id is not in the container.
    pub(crate) fn insert(&mut self, slot: Slot) {
        match self {
            Order::Vec(slots) => slots.insert(position(slots, key(&slot)), slot),
            Order::Tree(tree) => {
                tree.insert(key(&slot), slot);
            }
        }
    }

    /// Removes the slot at `key`, which must be live.
    pub(crate) fn remove(&mut self, at: Key) {
        match self {
            Order::Vec(slots) => {
                slots.remove(position(slots, at));
            }
            Order::Tree(tree) => {
                tree.remove(&at);
            }
        }
    }

    pub(crate) fn iter(&self) -> SlotIter<'_> {
        match self {
            Order::Vec(slots) => SlotIter::Flat(slots.iter()),
            Order::Tree(tree) => SlotIter::Interval(tree.values()),
        }
    }

    /// Every slot with `start >= from`, in order.
    pub(crate) fn range_from(&self, from: TimePoint) -> SlotIter<'_> {
        let from = (from, SlotId::new(0));
        match self {
            Order::Vec(slots) => SlotIter::Flat(slots[position(slots, from)..].iter()),
            Order::Tree(tree) => SlotIter::IntervalRange(tree.range(from..)),
        }
    }

    pub(crate) fn into_slots(self) -> SlotIntoIter {
        match self {
            Order::Vec(slots) => SlotIntoIter::Flat(slots.into_iter()),
            Order::Tree(tree) => SlotIntoIter::Interval(tree.into_values()),
        }
    }
}

/// Index of the first slot at or after `key` in a sorted vector.
fn position(slots: &[Slot], at: Key) -> usize {
    slots.partition_point(|slot| key(slot) < at)
}

/// Borrowed iterator over a [`SlotList`](crate::SlotList)'s slots in
/// `(start, id)` order, uniform across orderings.
#[derive(Debug, Clone)]
pub enum SlotIter<'a> {
    /// Walking the vector.
    Flat(std::slice::Iter<'a, Slot>),
    /// Walking the whole order tree.
    Interval(btree_map::Values<'a, (TimePoint, SlotId), Slot>),
    /// Walking an order-tree suffix (from
    /// [`SlotList::iter_from`](crate::SlotList::iter_from)).
    IntervalRange(btree_map::Range<'a, (TimePoint, SlotId), Slot>),
}

impl<'a> Iterator for SlotIter<'a> {
    type Item = &'a Slot;

    fn next(&mut self) -> Option<&'a Slot> {
        match self {
            SlotIter::Flat(it) => it.next(),
            SlotIter::Interval(it) => it.next(),
            SlotIter::IntervalRange(it) => it.next().map(|(_, slot)| slot),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SlotIter::Flat(it) => it.size_hint(),
            SlotIter::Interval(it) => it.size_hint(),
            SlotIter::IntervalRange(it) => it.size_hint(),
        }
    }
}

impl DoubleEndedIterator for SlotIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        match self {
            SlotIter::Flat(it) => it.next_back(),
            SlotIter::Interval(it) => it.next_back(),
            SlotIter::IntervalRange(it) => it.next_back().map(|(_, slot)| slot),
        }
    }
}

/// Owning iterator over a [`SlotList`](crate::SlotList)'s slots in
/// `(start, id)` order.
#[derive(Debug)]
pub enum SlotIntoIter {
    /// Draining the vector.
    Flat(std::vec::IntoIter<Slot>),
    /// Draining the order tree.
    Interval(btree_map::IntoValues<(TimePoint, SlotId), Slot>),
}

impl Iterator for SlotIntoIter {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        match self {
            SlotIntoIter::Flat(it) => it.next(),
            SlotIntoIter::Interval(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SlotIntoIter::Flat(it) => it.size_hint(),
            SlotIntoIter::Interval(it) => it.size_hint(),
        }
    }
}

/// A single node's timeline of disjoint free runs: `start → (id, end)`.
///
/// Same-node disjointness makes the start a unique key, so every
/// operation is `O(log n)` in the number of runs on the node (plus
/// output size).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IntervalSet {
    runs: BTreeMap<TimePoint, (SlotId, TimePoint)>,
}

impl IntervalSet {
    pub(crate) fn len(&self) -> usize {
        self.runs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The `(id, end)` of the run starting exactly at `start`.
    pub(crate) fn get(&self, start: TimePoint) -> Option<(SlotId, TimePoint)> {
        self.runs.get(&start).copied()
    }

    /// Inserts the run `[start, end)`, enforcing disjointness against
    /// its tree neighbours.
    ///
    /// # Errors
    ///
    /// Returns the conflicting run's id if the new run overlaps an
    /// existing one (including an exact start collision).
    pub(crate) fn insert(
        &mut self,
        start: TimePoint,
        id: SlotId,
        end: TimePoint,
    ) -> Result<(), SlotId> {
        debug_assert!(start < end, "runs must be non-empty");
        if let Some((_, &(prev, prev_end))) = self.runs.range(..=start).next_back() {
            if prev_end > start {
                return Err(prev);
            }
        }
        if let Some((&next_start, &(next, _))) = self.runs.range(start..).next() {
            if next_start < end {
                return Err(next);
            }
        }
        self.runs.insert(start, (id, end));
        Ok(())
    }

    /// Removes the run starting exactly at `start`.
    pub(crate) fn remove(&mut self, start: TimePoint) {
        self.runs.remove(&start);
    }

    /// Sets the run at `start` without a neighbour check: a piece of a
    /// run the timeline held until just now, or a run grown over the
    /// touching runs just removed.
    pub(crate) fn put(&mut self, start: TimePoint, id: SlotId, end: TimePoint) {
        self.runs.insert(start, (id, end));
    }

    /// The run whose interval fully contains `region`, if any: at most
    /// one exists, the last run starting at or before `region.start()`.
    pub(crate) fn covering(&self, region: Span) -> Option<Key> {
        let (&start, &(id, end)) = self.runs.range(..=region.start()).next_back()?;
        (end >= region.end()).then_some((start, id))
    }

    /// Every run that could overlap `region`, in start order: the
    /// predecessor of `region.start()` (which may reach into the region)
    /// followed by every run starting inside it. Callers intersect each
    /// candidate; a predecessor ending at or before `region.start()` is
    /// simply not affected.
    pub(crate) fn candidates(&self, region: Span) -> Vec<Key> {
        let before = self.runs.range(..region.start()).next_back();
        let inside = self.runs.range(region.start()..region.end());
        before
            .into_iter()
            .chain(inside)
            .map(|(&start, &(id, _))| (start, id))
            .collect()
    }

    /// Checks adjacency disjointness and per-run well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OverlappingSlots`] (with the two offending
    /// ids) on the first adjacency violation.
    pub(crate) fn validate(&self, node: NodeId) -> Result<(), CoreError> {
        let mut prev: Option<(SlotId, TimePoint)> = None;
        for (&start, &(id, end)) in &self.runs {
            debug_assert!(start < end, "runs must be non-empty");
            if let Some((first, prev_end)) = prev {
                if prev_end > start {
                    return Err(CoreError::OverlappingSlots {
                        node,
                        first,
                        second: id,
                    });
                }
            }
            prev = Some((id, end));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::perf::Perf;

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn at(start: i64, id: u64) -> Key {
        (TimePoint::new(start), SlotId::new(id))
    }

    fn set(runs: &[(u64, i64, i64)]) -> IntervalSet {
        let mut s = IntervalSet::default();
        for &(id, a, b) in runs {
            s.insert(TimePoint::new(a), SlotId::new(id), TimePoint::new(b))
                .unwrap();
        }
        s
    }

    fn slot(id: u64, a: i64, b: i64) -> Slot {
        let (node, price) = (NodeId::new(id as u32), Price::from_credits(2));
        Slot::new(SlotId::new(id), node, Perf::UNIT, price, span(a, b)).unwrap()
    }

    #[test]
    fn insert_rejects_overlap_with_neighbours() {
        let mut s = set(&[(0, 0, 30), (1, 50, 80)]);
        let mut insert = |id, a, b| s.insert(TimePoint::new(a), SlotId::new(id), TimePoint::new(b));
        // Reaches into the predecessor.
        assert_eq!(insert(2, 20, 40), Err(SlotId::new(0)));
        // Reaches into the successor.
        assert_eq!(insert(3, 40, 60), Err(SlotId::new(1)));
        // Exact start collision.
        assert_eq!(insert(4, 50, 55), Err(SlotId::new(1)));
        // Touching on both sides is fine.
        assert!(insert(5, 30, 50).is_ok());
        assert_eq!(s.len(), 3);
        s.validate(NodeId::new(0)).unwrap();
    }

    #[test]
    fn covering_finds_the_unique_container() {
        let s = set(&[(0, 0, 30), (1, 50, 80)]);
        assert_eq!(s.covering(span(55, 70)), Some(at(50, 1)));
        assert!(s.covering(span(25, 55)).is_none());
        assert!(s.covering(span(30, 40)).is_none());
    }

    #[test]
    fn candidates_include_the_reaching_predecessor() {
        let s = set(&[(0, 0, 30), (1, 40, 70), (2, 80, 120)]);
        let all = vec![at(0, 0), at(40, 1), at(80, 2)];
        assert_eq!(s.candidates(span(20, 90)), all);
        // A predecessor ending before the region is still listed (the
        // caller's intersect filters it) but nothing before it is.
        assert_eq!(s.candidates(span(35, 90)), all);
        assert_eq!(s.candidates(span(75, 90)), all[1..]);
    }

    #[test]
    fn a_cut_run_is_replaced_by_its_pieces() {
        let mut s = set(&[(0, 0, 100), (1, 100, 120)]);
        s.remove(TimePoint::new(0));
        s.put(TimePoint::new(0), SlotId::new(10), TimePoint::new(30));
        s.put(TimePoint::new(60), SlotId::new(11), TimePoint::new(100));
        s.validate(NodeId::new(0)).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.get(TimePoint::new(60)),
            Some((SlotId::new(11), TimePoint::new(100)))
        );
        assert!(s.covering(span(30, 60)).is_none());
    }

    /// Every `Order` primitive, on both orderings, against the sorted
    /// vector it was loaded from.
    #[test]
    fn both_orderings_answer_every_primitive_alike() {
        let sorted = vec![
            slot(3, 0, 20),
            slot(1, 10, 40),
            slot(4, 10, 30),
            slot(2, 25, 60),
        ];
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            let mut order = Order::from_sorted(sorted.clone(), repr);
            assert_eq!((order.repr(), order.len()), (repr, 4));
            assert_eq!(order.iter().copied().collect::<Vec<_>>(), sorted);
            assert_eq!(order.iter().next_back(), sorted.last());
            let from = |order: &Order, t| {
                order
                    .range_from(TimePoint::new(t))
                    .copied()
                    .collect::<Vec<_>>()
            };
            assert_eq!(from(&order, 10), sorted[1..]);
            assert_eq!(from(&order, 11), sorted[3..]);
            assert_eq!(order.get(at(10, 4)), Some(&sorted[2]));
            // A live id under the wrong start is not found.
            assert_eq!(order.get(at(0, 4)), None);
            assert_eq!(order.get(at(25, 9)), None);

            order.insert(slot(0, 10, 15));
            assert_eq!(from(&order, 10)[0], slot(0, 10, 15));
            order.remove(at(10, 0));
            order.remove(at(10, 4));
            let left = vec![slot(3, 0, 20), slot(1, 10, 40), slot(2, 25, 60)];
            assert_eq!(order.iter().copied().collect::<Vec<_>>(), left);
            assert_eq!(order.into_slots().collect::<Vec<_>>(), left);
        }
    }
}
