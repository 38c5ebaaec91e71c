//! The ordered vacant-slot list and the slot-subtraction operation.
//!
//! Local resource managers publish vacant slots; the metascheduler keeps
//! them in a list ordered by non-decreasing start time (Fig. 1 (a) of the
//! paper). When a window is committed for a job, the used intervals are
//! *subtracted* from the list (Fig. 1 (b)): each source slot `K` is removed
//! and replaced by the remnants `K1 = [K.start, K'.start)` and
//! `K2 = [K'.end, K.end)`, dropping zero-length pieces.
//!
//! [`SlotList`] is the one market store: the `(start, id)`-ordered slot
//! container, a per-node timeline, the id minting cursor and every market
//! algorithm, each exactly once. The container (`crate::interval::Order`)
//! is a vector of sorted, bounded blocks, with each block's first key in a
//! vector of its own: walked like a vector, while every subtraction, carve
//! and tail-return insert splices one block after two binary searches.
//! Batch markets and the engine's long-lived market run on the same
//! container.
//!
//! As in the paper's subtraction, a slot is found by where it is — a
//! window member's source is the slot on the member's node that covers
//! the member's cut — and its id is then checked; nothing looks a slot up
//! by its id alone.
//!
//! `tests/market_model.rs` pins the algorithms against an independent
//! linear-scan model; `orders_match_a_btree_model` pins the container
//! against a `BTreeMap`.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::idhash::IdMap;
use crate::interval::{key, IntervalSet, Order, SlotIntoIter, SlotIter};
use crate::money::Price;
use crate::perf::Perf;
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Span, TimeDelta, TimePoint};
use crate::window::{Window, WindowSlot};

/// What [`SlotList::repr`] returns and
/// [`SlotList::from_sorted_slots_with_repr`] takes: nothing to choose,
/// since a list has one ordering. Kept only for code outside the
/// workspace that still names it; it goes with ROADMAP item 1a.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarketRepr;

/// A list of vacant slots ordered by `(start time, slot id)`.
///
/// Invariants (checked by [`SlotList::validate`]):
/// * `order` holds every live slot in strictly increasing `(start, id)`,
///   each id once;
/// * each node's timeline holds exactly that node's slots as
///   `start → (id, end)`, pairwise disjoint;
/// * `next_id` is strictly greater than every live id.
///
/// # Examples
///
/// ```
/// use ecosched_core::{NodeId, Perf, Price, SlotId, SlotList, Span, TimePoint};
///
/// let mut list = SlotList::new();
/// let span = Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap();
/// let id = list.insert(NodeId::new(0), Perf::UNIT, Price::from_credits(2), span)?;
/// assert_eq!((id, list.len()), (SlotId::new(0), 1));
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotList {
    order: Order,
    nodes: IdMap<NodeId, IntervalSet>,
    next_id: u64,
}

/// What one [`SlotList::subtract_window_report`] call did to the list:
/// which slots were consumed and which remnants replaced them.
///
/// The incremental alternatives search uses this to update per-job scan
/// state without re-reading the whole list. It names each consumed slot
/// whole, as it was before the cut, so a scan can tell from the slot
/// alone whether its pool could hold it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubtractionReport {
    /// The slots removed from the list (the window's source slots), in
    /// window order, as they were before the cut.
    pub removed: Vec<Slot>,
    /// Freshly minted remnant slots inserted in their place.
    pub remnants: Vec<Slot>,
}

impl SlotList {
    /// Creates an empty slot list.
    #[must_use]
    pub fn new() -> Self {
        SlotList::default()
    }

    /// The list's ordering, of which there is one. Kept only for code
    /// outside the workspace that still calls it; it goes with ROADMAP
    /// item 1a, and no product code calls it.
    #[doc(hidden)]
    #[must_use]
    pub fn repr(&self) -> MarketRepr {
        MarketRepr
    }

    /// Builds a list from arbitrary slots, sorting them by start time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateSlotId`] if two slots share an id, or
    /// [`CoreError::OverlappingSlots`] if two slots on the same node
    /// overlap in time.
    pub fn from_slots(slots: Vec<Slot>) -> Result<Self, CoreError> {
        SlotList::from_sorted_slots(sorted(slots)?)
    }

    /// Builds a list from slots already in strictly increasing
    /// `(start, id)` order — the bulk-load path. One pass checks order and
    /// same-node disjointness as the slots stream in, after one sort of
    /// the ids finds the first repeated one; no quadratic overlap scan.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnsortedSlots`] if a slot is not strictly after its
    ///   predecessor in `(start, id)` order (this also rejects duplicate
    ///   ids at equal starts);
    /// * [`CoreError::DuplicateSlotId`] if an id repeats across different
    ///   start times;
    /// * [`CoreError::OverlappingSlots`] if two slots on one node overlap.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let mk = |id: u64, a: i64, b: i64| Slot::new(
    ///     SlotId::new(id), NodeId::new(id as u32), Perf::UNIT,
    ///     Price::from_credits(2),
    ///     Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
    /// ).unwrap();
    /// let list = SlotList::from_sorted_slots(vec![mk(0, 0, 50), mk(1, 0, 60)]).unwrap();
    /// assert_eq!(list.len(), 2);
    /// assert!(SlotList::from_sorted_slots(vec![mk(0, 10, 50), mk(1, 0, 60)]).is_err());
    /// ```
    pub fn from_sorted_slots(slots: Vec<Slot>) -> Result<Self, CoreError> {
        // Ids may come from outside the program (the wire decoder), so
        // they are sorted, not hashed: no input makes the check slow, and
        // it costs the same in every process.
        let mut ids: Vec<(SlotId, usize)> = slots.iter().map(Slot::id).zip(0..).collect();
        ids.sort_unstable();
        let twins = ids.windows(2).filter(|p| p[0].0 == p[1].0);
        let repeat = twins.map(|p| p[1].1).min();
        let mut nodes: IdMap<NodeId, IntervalSet> = IdMap::default();
        let mut next_id = 0u64;
        for (i, slot) in slots.iter().enumerate() {
            if i > 0 && key(&slots[i - 1]) >= key(slot) {
                return Err(CoreError::UnsortedSlots { index: i });
            }
            if repeat == Some(i) {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
            // Starts are non-decreasing, so the timeline's neighbour check
            // only ever meets the node's furthest-reaching earlier slot.
            nodes
                .entry(slot.node())
                .or_default()
                .insert(slot.start(), slot.id(), slot.end())
                .map_err(|first| overlap(first, slot))?;
            next_id = next_id.max(slot.id().raw() + 1);
        }
        Ok(SlotList {
            order: Order::from_sorted(&slots),
            nodes,
            next_id,
        })
    }

    /// Exactly [`SlotList::from_sorted_slots`]. Kept only for code outside
    /// the workspace that still calls it; it goes with ROADMAP item 1a,
    /// and no product code calls it.
    ///
    /// # Errors
    ///
    /// As [`SlotList::from_sorted_slots`].
    #[doc(hidden)]
    pub fn from_sorted_slots_with_repr(
        slots: Vec<Slot>,
        _repr: MarketRepr,
    ) -> Result<Self, CoreError> {
        SlotList::from_sorted_slots(slots)
    }

    /// Mints a fresh slot id, unique within this list.
    pub fn mint_id(&mut self) -> SlotId {
        let id = SlotId::new(self.next_id);
        self.next_id += 1;
        id
    }

    /// Files `span` on `node`, at `perf` and `price`, as a slot under a
    /// freshly minted id, and returns the id. Only a bulk load brings in
    /// ids the caller chose.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptySlot`] if `span` is empty, or
    /// [`CoreError::OverlappingSlots`] if it overlaps a slot already on
    /// `node`; either names the id the slot would have had. The list is
    /// unchanged and nothing is minted.
    pub fn insert(
        &mut self,
        node: NodeId,
        perf: Perf,
        price: Price,
        span: Span,
    ) -> Result<SlotId, CoreError> {
        let slot = Slot::new(SlotId::new(self.next_id), node, perf, price, span)?;
        self.nodes
            .entry(node)
            .or_default()
            .insert(slot.start(), slot.id(), slot.end())
            .map_err(|first| overlap(first, &slot))?;
        self.next_id += 1;
        self.order.insert(slot);
        Ok(slot.id())
    }

    /// Number of slots in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the list has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the slots in `(start, id)` order.
    pub fn iter(&self) -> SlotIter<'_> {
        self.order.iter()
    }

    /// Iterates, in `(start, id)` order, every slot with `start >= from`
    /// — `O(log m)` to position, then `O(1)` per step.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let mk = |id: u64, a: i64, b: i64| Slot::new(
    ///     SlotId::new(id), NodeId::new(id as u32), Perf::UNIT,
    ///     Price::from_credits(2),
    ///     Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
    /// ).unwrap();
    /// let list = SlotList::from_slots(vec![mk(0, 0, 50), mk(1, 20, 60)]).unwrap();
    /// assert_eq!(list.iter_from(TimePoint::new(10)).count(), 1);
    /// assert_eq!(list.iter_from(TimePoint::new(100)).count(), 0);
    /// ```
    pub fn iter_from(&self, from: TimePoint) -> SlotIter<'_> {
        self.order.range_from(from)
    }

    /// The earliest vacant start across the list, if any.
    #[must_use]
    pub fn earliest_start(&self) -> Option<TimePoint> {
        self.iter().next().map(Slot::start)
    }

    /// Sum of all vacant span lengths.
    #[must_use]
    pub fn total_vacant_time(&self) -> TimeDelta {
        self.iter().map(Slot::length).sum()
    }

    /// The slot on `node` whose vacant span fully contains `region`, if
    /// one exists — `O(log m)` via the node's timeline.
    ///
    /// Same-node slots are disjoint, so at most one slot can cover the
    /// region: the last one starting at or before `region.start()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let span = Span::new(TimePoint::new(10), TimePoint::new(90)).unwrap();
    /// let slot = Slot::new(SlotId::new(0), NodeId::new(3), Perf::UNIT,
    ///                      Price::from_credits(2), span).unwrap();
    /// let list = SlotList::from_slots(vec![slot]).unwrap();
    /// let region = Span::new(TimePoint::new(20), TimePoint::new(50)).unwrap();
    /// assert!(list.covering_slot(NodeId::new(3), region).is_some());
    /// assert!(list.covering_slot(NodeId::new(4), region).is_none());
    /// ```
    #[must_use]
    pub fn covering_slot(&self, node: NodeId, region: Span) -> Option<&Slot> {
        self.order.get(self.nodes.get(&node)?.covering(region)?)
    }

    /// Withdraws `region` from every slot on `node` it overlaps — the
    /// revocation primitive: an owner reclaiming `[a, b)` on a node carves
    /// that interval out of whatever vacancy remains there, minting
    /// remnants for the surviving pieces (candidates in start order, left
    /// remnant before right). Returns the ids of the affected slots.
    /// `O((k + 1) log m)` for `k` affected slots.
    pub fn remove_region(&mut self, node: NodeId, region: Span) -> Vec<SlotId> {
        let candidates = match self.nodes.get(&node) {
            Some(timeline) => timeline.candidates(region),
            None => return Vec::new(),
        };
        let (mut affected, mut remnants) = (Vec::new(), Vec::new());
        for at in candidates {
            let slot = *self.order.get(at).expect("timelines mirror the order");
            if let Some(cut) = slot.span().intersect(region) {
                self.cut_slot(&slot, cut, &mut remnants);
                affected.push(slot.id());
            }
        }
        affected
    }

    /// The slot `member` was carved from, checked to contain `cut`: the
    /// run on the member's node that covers the cut, if it carries the
    /// member's source id. Only a refused cut scans the node's runs, to
    /// tell an absent source from one too short for the cut.
    fn source(&self, member: &WindowSlot, cut: Span) -> Result<Slot, CoreError> {
        let (id, timeline) = (member.source(), self.nodes.get(&member.node()));
        if let Some(at) = timeline.and_then(|t| t.covering(cut)) {
            if at.1 == id {
                return Ok(*self.order.get(at).expect("timelines mirror the order"));
            }
        }
        match timeline.and_then(|t| t.span_of(id)) {
            Some(slot_span) => Err(CoreError::CutOutsideSlot { id, slot_span, cut }),
            None => Err(CoreError::SlotNotFound { id }),
        }
    }

    /// The mutation half of a subtraction, for a caller that has already
    /// looked `slot` up and checked that it contains `cut`: one removal
    /// from the order and the node timeline, then the remnants (left
    /// minted before right), appended to `remnants`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live in the list.
    fn cut_slot(&mut self, slot: &Slot, cut: Span, remnants: &mut Vec<Slot>) {
        self.order.remove(key(slot));
        let timeline = timeline(&mut self.nodes, slot.node());
        timeline.remove(slot.start());
        let (left, right) = slot.span().subtract(cut);
        for piece in [left, right].into_iter().flatten() {
            // `mint_id()`, spelt out: `timeline` holds a borrow of `self.nodes`.
            let id = SlotId::new(self.next_id);
            self.next_id += 1;
            let remnant = slot
                .with_span(id, piece)
                .expect("non-empty remnant spans construct valid slots");
            timeline.put(piece.start(), id, piece.end());
            self.order.insert(remnant);
            remnants.push(remnant);
        }
        if timeline.is_empty() {
            self.nodes.remove(&slot.node());
        }
    }

    /// Subtracts every member of a committed window from the list: each
    /// member's used span is cut from its source slot, found on the
    /// member's node (Fig. 1 (b)).
    ///
    /// This is all-or-nothing: on error the list is left unchanged.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SlotNotFound`] if a member's source is not on the
    ///   member's node;
    /// * [`CoreError::CutOutsideSlot`] if it is, but does not contain the
    ///   member's used span.
    pub fn subtract_window(&mut self, window: &Window) -> Result<(), CoreError> {
        self.subtract_window_report(window).map(drop)
    }

    /// [`SlotList::subtract_window`], additionally reporting the consumed
    /// slots and the minted remnants.
    ///
    /// Every cut is validated with one `O(log m)` lookup on its node
    /// before anything changes, so a failure cannot leave a partial
    /// subtraction; the mutation then takes the slots that pass found and
    /// does not look them up again.
    ///
    /// # Errors
    ///
    /// As [`SlotList::subtract_window`].
    pub fn subtract_window_report(
        &mut self,
        window: &Window,
    ) -> Result<SubtractionReport, CoreError> {
        let mut sources = Vec::with_capacity(window.slot_count());
        for ws in window.slots() {
            sources.push(self.source(ws, window.used_span(ws))?);
        }
        let mut remnants = Vec::with_capacity(2 * sources.len());
        for (slot, ws) in sources.iter().zip(window.slots()) {
            self.cut_slot(slot, window.used_span(ws), &mut remnants);
        }
        Ok(SubtractionReport {
            removed: sources,
            remnants,
        })
    }

    /// Returns `span` on `member`'s node to the list as a freshly minted
    /// slot carrying the member's performance and price. The region must
    /// be absent from the list — carved from it earlier, or held
    /// exclusively by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `span` is empty, or overlaps a slot already in the list.
    pub fn release_region(&mut self, member: &WindowSlot, span: Span) -> SlotId {
        let (node, perf, price) = (member.node(), member.perf(), member.price());
        self.insert(node, perf, price, span)
            .expect("released regions are non-empty and disjoint from the list")
    }

    /// The inverse of [`SlotList::subtract_window`]: releases every
    /// member's used region ([`SlotList::release_region`], member order),
    /// one insert each. That is the cheap form for one window; many go
    /// back at once through [`SlotList::release_windows`], one walk.
    pub fn release_window(&mut self, window: &Window) {
        for ws in window.slots() {
            self.release_region(ws, window.used_span(ws));
        }
    }

    /// Merges every run of same-node slots that touch (`prev.end ==
    /// next.start`) and agree on price and performance into one slot
    /// carrying the run head's id — the defragmentation pass for lists
    /// shredded by window release/re-release cycles. Returns the number of
    /// slots absorbed into a neighbour.
    ///
    /// Ids of absorbed slots are retired (never reused: `next_id` is
    /// untouched), surviving slots keep their ids and `(start, id)` order,
    /// and the union of vacant `(node, time)` capacity is exactly
    /// preserved — only the partitioning changes. This is
    /// [`SlotList::release_windows`] with no windows: the same one walk.
    pub fn coalesce(&mut self) -> usize {
        self.release_windows([], true)
    }

    /// Releases every member of every window and, with `coalesce`, merges
    /// the list: exactly [`SlotList::release_window`] on each window in
    /// turn (the same ids, minted in window order, then member order),
    /// followed by [`SlotList::coalesce`]. Returns the number of slots
    /// absorbed (0 without `coalesce`).
    ///
    /// One walk does both. The released slots, sorted by `(start, id)`,
    /// are merged with the live order while each node's current chain
    /// head is kept, and every slot must start at or after its node's
    /// previous end. A released slot that is absorbed never enters the
    /// timelines or the order; an absorbed live slot leaves its timeline;
    /// each grown head and surviving released
    /// slot is put on its timeline once; the order is bulk-loaded once
    /// from the walk. If nothing is released and nothing absorbed, the
    /// list is left as it was.
    ///
    /// # Panics
    ///
    /// Panics, as [`SlotList::release_region`] does, if a released region
    /// overlaps a slot in the list or another released region.
    pub fn release_windows<'a>(
        &mut self,
        windows: impl IntoIterator<Item = &'a Window>,
        coalesce: bool,
    ) -> usize {
        let mut released = Vec::new();
        for window in windows {
            for ws in window.slots() {
                let id = self.mint_id();
                let slot = Slot::new(id, ws.node(), ws.perf(), ws.price(), window.used_span(ws));
                released.push(slot.expect("released regions are non-empty"));
            }
        }
        if released.is_empty() && !coalesce {
            return 0;
        }
        let any_released = !released.is_empty();
        released.sort_unstable_by_key(key);
        let mut released = released.into_iter().peekable();
        let mut live = self.order.iter().peekable();

        // Each node's chain head: its place in `out`, and whether that
        // place is listed in `changed` yet (released, or grown).
        let mut heads: IdMap<NodeId, (usize, bool)> =
            IdMap::with_capacity_and_hasher(self.nodes.len(), Default::default());
        let mut out: Vec<Slot> = Vec::with_capacity(self.order.len() + released.len());
        let (mut changed, mut dead) = (Vec::new(), Vec::new());
        let mut absorbed = 0;
        loop {
            // Released ids are fresh, so the two streams never tie.
            let fresh = match (live.peek(), released.peek()) {
                (None, None) => break,
                (Some(l), Some(r)) => key(r) < key(l),
                (l, _) => l.is_none(),
            };
            let slot = if fresh {
                released.next()
            } else {
                live.next().copied()
            };
            let slot = slot.expect("the peeked stream has a slot");
            match heads.entry(slot.node()) {
                Entry::Occupied(mut at) => {
                    let (place, listed) = at.get_mut();
                    let head = &mut out[*place];
                    assert!(
                        head.end() <= slot.start(),
                        "released regions are disjoint from the list"
                    );
                    if coalesce
                        && head.end() == slot.start()
                        && head.price() == slot.price()
                        && head.perf() == slot.perf()
                    {
                        let span = Span::new(head.start(), slot.end());
                        *head = head
                            .with_span(head.id(), span.expect("a merged span outlives its head"))
                            .expect("merged spans are non-empty");
                        if !*listed {
                            *listed = true;
                            changed.push(*place);
                        }
                        if !fresh {
                            dead.push(slot);
                        }
                        absorbed += 1;
                        continue;
                    }
                    *at.get_mut() = (out.len(), fresh);
                }
                Entry::Vacant(at) => {
                    at.insert((out.len(), fresh));
                }
            }
            if fresh {
                changed.push(out.len());
            }
            out.push(slot);
        }
        if !any_released && absorbed == 0 {
            return 0;
        }

        for slot in &dead {
            timeline(&mut self.nodes, slot.node()).remove(slot.start());
        }
        for slot in changed.into_iter().map(|place| out[place]) {
            let timeline = self.nodes.entry(slot.node()).or_default();
            timeline.put(slot.start(), slot.id(), slot.end());
        }
        self.order = Order::from_sorted(&out);
        absorbed
    }

    /// Checks every structural invariant of the list, including that the
    /// auxiliary structures match the canonical slot set. Cheap enough for
    /// tests; not called on hot paths.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CoreError`].
    pub fn validate(&self) -> Result<(), CoreError> {
        SlotList::from_sorted_slots(self.iter().copied().collect())?;
        for slot in self.iter() {
            let at = key(slot);
            if slot.id().raw() >= self.next_id {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
            let run = self.nodes.get(&slot.node()).and_then(|t| t.get(at.0));
            if self.order.get(at) != Some(slot) || run != Some((slot.id(), slot.end())) {
                return Err(CoreError::SlotNotFound { id: slot.id() });
            }
        }
        let mut runs = 0;
        for (&node, timeline) in &self.nodes {
            timeline.validate(node)?;
            runs += timeline.len();
        }
        if runs != self.len() {
            return Err(CoreError::DuplicateSlotId {
                id: SlotId::new(self.next_id),
            });
        }
        Ok(())
    }

    /// Either wire form's slots, in `(start, id)` order, and its `next_id`
    /// go through the sorted load, so a corrupt payload is refused naming
    /// the invariant it breaks and never becomes a list whose `validate()`
    /// fails or whose `mint_id()` reissues a live id.
    fn from_wire(slots: Vec<Slot>, next_id: u64) -> Result<Self, serde::Error> {
        let mut list = SlotList::from_sorted_slots(slots).map_err(invalid)?;
        if next_id < list.next_id {
            return Err(invalid(format_args!(
                "next_id {next_id} is not above live slot id {}",
                list.next_id - 1
            )));
        }
        list.next_id = next_id;
        Ok(list)
    }
}

/// Sorts slots into `(start, id)` order for the sorted load.
///
/// # Errors
///
/// A repeated `(start, id)` is adjacent once sorted, and the sorted load
/// would report it as a break in its own order, so it is refused here as
/// [`CoreError::DuplicateSlotId`].
fn sorted(mut slots: Vec<Slot>) -> Result<Vec<Slot>, CoreError> {
    slots.sort_by_key(key);
    if let Some(twins) = slots.windows(2).find(|p| key(&p[0]) == key(&p[1])) {
        return Err(CoreError::DuplicateSlotId { id: twins[1].id() });
    }
    Ok(slots)
}

fn invalid(why: impl fmt::Display) -> serde::Error {
    serde::Error::custom(format!("invalid serialized slot list: {why}"))
}

fn timeline(nodes: &mut IdMap<NodeId, IntervalSet>, node: NodeId) -> &mut IntervalSet {
    nodes
        .get_mut(&node)
        .expect("every live slot is on its node's timeline")
}

fn overlap(first: SlotId, second: &Slot) -> CoreError {
    CoreError::OverlappingSlots {
        node: second.node(),
        first,
        second: second.id(),
    }
}

impl PartialEq for SlotList {
    fn eq(&self, other: &Self) -> bool {
        // Observable equality: the slots and the minting cursor. Where
        // the blocks happen to be cut is an execution detail — a list
        // bulk-loaded and the same market built by inserts compare equal.
        self.next_id == other.next_id
            && self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for SlotList {}

// Serde writes one form: each node's slots in start order behind the
// `repr` tag, `{"repr":"interval","nodes":[{node, slots}…],"next_id":…}`.
// Decoding reads every key first and then chooses on the tag's presence,
// so the untagged `{slots, next_id}` payload of persist format-1
// snapshots, its slots in `(start, id)` order, still loads.
#[derive(Serialize)]
struct NodesWire {
    repr: &'static str,
    nodes: Vec<NodeSlots>,
    next_id: u64,
}

/// The `repr` tag of the one written form. The name is older than the
/// blocks; ROADMAP item 3c renames it, after 1a.
const NODES_TAG: &str = "interval";

#[derive(Serialize, Deserialize)]
struct NodeSlots {
    node: NodeId,
    slots: Vec<Slot>,
}

impl Serialize for SlotList {
    fn write_json(&self, out: &mut Vec<u8>) {
        // Ascending node order; `(start, id)` order within a node is its
        // start order.
        let mut by_node: BTreeMap<NodeId, Vec<Slot>> = BTreeMap::new();
        for slot in self.iter() {
            by_node.entry(slot.node()).or_default().push(*slot);
        }
        let nodes = by_node.into_iter();
        let nodes = nodes.map(|(node, slots)| NodeSlots { node, slots });
        NodesWire {
            repr: NODES_TAG,
            nodes: nodes.collect(),
            next_id: self.next_id,
        }
        .write_json(out);
    }
}

impl<'de> Deserialize<'de> for SlotList {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut slots, mut next_id, mut nodes) = (None, None, None);
        let mut repr: Option<String> = None;
        parser.read_map(|parser, name| match name {
            "slots" => parser.field(&mut slots, name),
            "next_id" => parser.field(&mut next_id, name),
            "repr" => parser.field(&mut repr, name),
            "nodes" => parser.field(&mut nodes, name),
            _ => parser.skip_value(),
        })?;
        let Some(repr) = repr else {
            // Format-1 payload: `{slots, next_id}`, slots in order.
            let slots = serde::required(slots, "slots")?;
            return SlotList::from_wire(slots, serde::required(next_id, "next_id")?);
        };
        if repr != NODES_TAG {
            return Err(serde::Error::custom(format!(
                "unknown slot list repr tag {repr:?}"
            )));
        }
        let nodes: Vec<NodeSlots> = serde::required(nodes, "nodes")?;
        let next_id = serde::required(next_id, "next_id")?;
        let mut all_slots: Vec<Slot> = Vec::new();
        for NodeSlots { node, slots } in nodes {
            if let Some(slot) = slots.iter().find(|slot| slot.node() != node) {
                return Err(serde::Error::custom(format!(
                    "slot {} filed under node {node} but belongs to {}",
                    slot.id(),
                    slot.node()
                )));
            }
            all_slots.extend(slots);
        }
        let all_slots = sorted(all_slots).map_err(invalid)?;
        SlotList::from_wire(all_slots, next_id)
    }
}

impl IntoIterator for SlotList {
    type Item = Slot;
    type IntoIter = SlotIntoIter;
    fn into_iter(self) -> Self::IntoIter {
        self.order.into_slots()
    }
}

impl<'a> IntoIterator for &'a SlotList {
    type Item = &'a Slot;
    type IntoIter = SlotIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for SlotList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "slot list ({} slots):", self.len())?;
        for slot in self.iter() {
            writeln!(f, "  {slot}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn slot(id: u64, node: u32, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(2),
            span(a, b),
        )
        .unwrap()
    }

    /// A one-member window that cuts `[a, b)` out of `source`, on its node.
    fn cut(source: &Slot, a: i64, b: i64) -> Window {
        let member = WindowSlot::from_slot(source, TimeDelta::new(b - a)).unwrap();
        Window::new(TimePoint::new(a), vec![member]).unwrap()
    }

    /// Files `[a, b)` on `node` at the test price under a minted id.
    fn insert(list: &mut SlotList, node: u32, a: i64, b: i64) -> Result<SlotId, CoreError> {
        list.insert(
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(2),
            span(a, b),
        )
    }

    /// The list's slots as `(id, span)` pairs, in order.
    fn spans(list: &SlotList) -> Vec<(u64, Span)> {
        list.iter().map(|s| (s.id().raw(), s.span())).collect()
    }

    #[test]
    fn from_slots_sorts_by_start() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 50, 80),
            slot(1, 1, 10, 40),
            slot(2, 2, 30, 90),
        ])
        .unwrap();
        let starts: Vec<i64> = list.iter().map(|s| s.start().ticks()).collect();
        assert_eq!(starts, vec![10, 30, 50]);
    }

    #[test]
    fn from_slots_rejects_duplicate_ids() {
        let err = SlotList::from_slots(vec![slot(3, 0, 0, 10), slot(3, 1, 0, 10)]).unwrap_err();
        assert_eq!(err, CoreError::DuplicateSlotId { id: SlotId::new(3) });
    }

    #[test]
    fn from_slots_rejects_same_node_overlap() {
        let err = SlotList::from_slots(vec![slot(0, 5, 0, 50), slot(1, 5, 40, 90)]).unwrap_err();
        assert!(matches!(err, CoreError::OverlappingSlots { node, .. } if node == NodeId::new(5)));
    }

    #[test]
    fn same_node_touching_slots_are_fine() {
        let list = SlotList::from_slots(vec![slot(0, 5, 0, 50), slot(1, 5, 50, 90)]).unwrap();
        assert_eq!(list.len(), 2);
        list.validate().unwrap();
    }

    #[test]
    fn insert_mints_the_id_it_files_and_keeps_order() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 100, 200)]).unwrap();
        assert_eq!(insert(&mut list, 1, 50, 80), Ok(SlotId::new(1)));
        assert_eq!(spans(&list), [(1, span(50, 80)), (0, span(100, 200))]);
        list.validate().unwrap();
    }

    #[test]
    fn interval_insert_rejects_overlap_structurally() {
        let mut list = SlotList::from_slots(vec![slot(0, 5, 0, 50)]).unwrap();
        let err = insert(&mut list, 5, 40, 90).unwrap_err();
        assert_eq!(
            err,
            CoreError::OverlappingSlots {
                node: NodeId::new(5),
                first: SlotId::new(0),
                second: SlotId::new(1),
            }
        );
        // Refused whole: nothing minted or ordered.
        assert_eq!(spans(&list), [(0, span(0, 50))]);
        assert_eq!(list.mint_id(), SlotId::new(1));
        list.validate().unwrap();
    }

    #[test]
    fn minted_ids_never_collide_with_loaded() {
        let mut list = SlotList::from_slots(vec![slot(41, 0, 0, 10)]).unwrap();
        assert_eq!(list.mint_id(), SlotId::new(42));
        assert_eq!(insert(&mut list, 1, 0, 10), Ok(SlotId::new(43)));
        assert_eq!(list.mint_id(), SlotId::new(44));
    }

    #[test]
    fn every_slot_is_found_on_its_node() {
        // Several slots sharing start times, so the order breaks ties on id.
        let list = SlotList::from_slots(vec![
            slot(5, 0, 10, 40),
            slot(2, 1, 10, 50),
            slot(9, 2, 10, 30),
            slot(1, 3, 0, 20),
            slot(7, 4, 25, 60),
        ])
        .unwrap();
        for expected in &list {
            let found = list.covering_slot(expected.node(), expected.span());
            assert_eq!(found, Some(expected));
        }
        assert!(list.covering_slot(NodeId::new(5), span(10, 20)).is_none());
    }

    #[test]
    fn iter_from_brackets_the_list() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 10, 40),
            slot(1, 1, 10, 50),
            slot(2, 2, 30, 90),
        ])
        .unwrap();
        let ids_from = |t: i64| -> Vec<u64> {
            list.iter_from(TimePoint::new(t))
                .map(|s| s.id().raw())
                .collect()
        };
        assert_eq!(ids_from(0), vec![0, 1, 2]);
        assert_eq!(ids_from(10), vec![0, 1, 2]);
        assert_eq!(ids_from(11), vec![2]);
        assert_eq!(ids_from(31), Vec::<u64>::new());
    }

    #[test]
    fn subtract_interior_produces_two_remnants() {
        let source = slot(0, 0, 0, 100);
        let mut list = SlotList::from_slots(vec![source]).unwrap();
        list.subtract_window(&cut(&source, 30, 60)).unwrap();
        assert_eq!(list.len(), 2);
        let spans: Vec<Span> = list.iter().map(|s| s.span()).collect();
        assert_eq!(spans, vec![span(0, 30), span(60, 100)]);
        list.validate().unwrap();
    }

    #[test]
    fn subtract_prefix_keeps_right_remnant_only() {
        let source = slot(0, 0, 0, 100);
        let mut list = SlotList::from_slots(vec![source]).unwrap();
        list.subtract_window(&cut(&source, 0, 40)).unwrap();
        assert_eq!(spans(&list), [(1, span(40, 100))]);
        list.subtract_window(&cut(&slot(1, 0, 40, 100), 40, 100))
            .unwrap();
        assert!(list.is_empty());
    }

    /// A source is found on its member's node only, and must carry the
    /// member's id: an empty list, a node without the id, and the id live
    /// on another node all miss it.
    #[test]
    fn subtract_missing_slot_errors() {
        let missing = |list: &mut SlotList, source: Slot| {
            let before = list.clone();
            let err = list.subtract_window(&cut(&source, 0, 10)).unwrap_err();
            assert_eq!(err, CoreError::SlotNotFound { id: source.id() });
            assert_eq!(*list, before);
        };
        missing(&mut SlotList::new(), slot(1, 0, 0, 10));
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 100), slot(1, 1, 0, 100)]).unwrap();
        missing(&mut list, slot(9, 0, 0, 100));
        missing(&mut list, slot(1, 0, 0, 100));
    }

    #[test]
    fn subtract_outside_cut_errors() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 10, 20)]).unwrap();
        let err = list.subtract_window(&cut(&slot(0, 0, 10, 40), 15, 30));
        assert_eq!(
            err.unwrap_err(),
            CoreError::CutOutsideSlot {
                id: SlotId::new(0),
                slot_span: span(10, 20),
                cut: span(15, 30),
            }
        );
        // List unchanged.
        assert_eq!(spans(&list), [(0, span(10, 20))]);
    }

    #[test]
    fn subtract_window_is_atomic_on_error() {
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 0, 10); // too short for the cut below
        let mut list = SlotList::from_slots(vec![a, b]).unwrap();
        let before = list.clone();
        let w = Window::new(
            TimePoint::new(0),
            vec![
                WindowSlot::from_slot(&a, TimeDelta::new(50)).unwrap(),
                WindowSlot::from_slot(&b, TimeDelta::new(50)).unwrap(),
            ],
        )
        .unwrap();
        let err = list.subtract_window(&w).unwrap_err();
        assert!(matches!(err, CoreError::CutOutsideSlot { .. }));
        // Nothing was subtracted, including from slot `a`.
        assert_eq!(list, before);
    }

    #[test]
    fn subtract_window_removes_all_members() {
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 0, 100);
        let mut list = SlotList::from_slots(vec![a, b]).unwrap();
        let w = Window::new(
            TimePoint::new(0),
            vec![
                WindowSlot::from_slot(&a, TimeDelta::new(40)).unwrap(),
                WindowSlot::from_slot(&b, TimeDelta::new(40)).unwrap(),
            ],
        )
        .unwrap();
        list.subtract_window(&w).unwrap();
        assert_eq!(list.len(), 2);
        for s in list.iter() {
            assert_eq!(s.span(), span(40, 100));
        }
        list.validate().unwrap();
    }

    #[test]
    fn subtraction_report_lists_consumed_and_minted() {
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 20, 120);
        let mut list = SlotList::from_slots(vec![a, b]).unwrap();
        let w = Window::new(
            TimePoint::new(20),
            vec![
                WindowSlot::from_slot(&a, TimeDelta::new(40)).unwrap(),
                WindowSlot::from_slot(&b, TimeDelta::new(40)).unwrap(),
            ],
        )
        .unwrap();
        let report = list.subtract_window_report(&w).unwrap();
        assert_eq!(report.removed, vec![a, b]);
        // a → [0, 20) and [60, 100); b → [60, 120).
        assert_eq!(report.remnants.len(), 3);
        for remnant in &report.remnants {
            let found = list.covering_slot(remnant.node(), remnant.span());
            assert_eq!(found, Some(remnant));
        }
        list.validate().unwrap();
    }

    #[test]
    fn totals_and_earliest() {
        let list = SlotList::from_slots(vec![slot(0, 0, 10, 40), slot(1, 1, 5, 25)]).unwrap();
        assert_eq!(list.earliest_start(), Some(TimePoint::new(5)));
        assert_eq!(list.total_vacant_time(), TimeDelta::new(50));

        assert!(SlotList::new().earliest_start().is_none());
    }

    #[test]
    fn from_sorted_slots_matches_from_slots() {
        let slots = vec![
            slot(1, 3, 0, 20),
            slot(5, 0, 10, 40),
            slot(9, 2, 10, 30),
            slot(7, 4, 25, 60),
        ];
        let sorted = SlotList::from_sorted_slots(slots.clone()).unwrap();
        let general = SlotList::from_slots(slots).unwrap();
        assert_eq!(sorted, general);
        sorted.validate().unwrap();
        assert_eq!(sorted.next_id, general.next_id);
    }

    #[test]
    fn from_sorted_slots_rejects_unsorted_input() {
        // Out of start order.
        let err = SlotList::from_sorted_slots(vec![slot(0, 0, 10, 20), slot(1, 1, 0, 5)]);
        assert_eq!(err.unwrap_err(), CoreError::UnsortedSlots { index: 1 });
        // Equal starts must come in increasing id order.
        let err = SlotList::from_sorted_slots(vec![slot(4, 0, 10, 20), slot(2, 1, 10, 20)]);
        assert_eq!(err.unwrap_err(), CoreError::UnsortedSlots { index: 1 });
    }

    #[test]
    fn from_sorted_slots_rejects_same_node_overlap() {
        // The long first slot still overlaps the third even though the
        // second ends earlier — the running bound must track the max end.
        let err = SlotList::from_sorted_slots(vec![
            slot(0, 5, 0, 100),
            slot(1, 6, 10, 20),
            slot(2, 5, 30, 40),
        ])
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::OverlappingSlots {
                node: NodeId::new(5),
                first: SlotId::new(0),
                second: SlotId::new(2),
            }
        );
    }

    /// An id repeated at another start is in order as `(start, id)`, so
    /// only the load's own check of ids can see it — next to each other or
    /// with other slots between.
    #[test]
    fn from_sorted_slots_rejects_duplicate_ids() {
        let twins = [
            vec![slot(3, 0, 0, 10), slot(3, 1, 5, 15)],
            vec![slot(3, 0, 0, 10), slot(4, 1, 2, 12), slot(3, 2, 5, 15)],
        ];
        for slots in twins {
            assert_eq!(
                SlotList::from_sorted_slots(slots).unwrap_err(),
                CoreError::DuplicateSlotId { id: SlotId::new(3) }
            );
        }
    }

    #[test]
    fn covering_slot_finds_the_unique_container() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 0, 50),
            slot(1, 0, 60, 100),
            slot(2, 1, 0, 100),
        ])
        .unwrap();
        let region = span(70, 90);
        assert_eq!(
            list.covering_slot(NodeId::new(0), region).map(Slot::id),
            Some(SlotId::new(1))
        );
        // A region straddling the gap is covered by nothing.
        assert!(list.covering_slot(NodeId::new(0), span(40, 70)).is_none());
        // Other nodes see their own slots only.
        assert_eq!(
            list.covering_slot(NodeId::new(1), region).map(Slot::id),
            Some(SlotId::new(2))
        );
        assert!(list.covering_slot(NodeId::new(9), region).is_none());
    }

    #[test]
    fn covering_slot_tracks_subtraction() {
        let source = slot(0, 0, 0, 100);
        let mut list = SlotList::from_slots(vec![source]).unwrap();
        list.subtract_window(&cut(&source, 40, 60)).unwrap();
        assert!(list.covering_slot(NodeId::new(0), span(45, 55)).is_none());
        let left = list.covering_slot(NodeId::new(0), span(10, 30)).unwrap();
        assert_eq!(left.span(), span(0, 40));
        let right = list.covering_slot(NodeId::new(0), span(70, 90)).unwrap();
        assert_eq!(right.span(), span(60, 100));
    }

    #[test]
    fn remove_region_carves_every_overlapping_slot() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 30),
            slot(1, 0, 40, 70),
            slot(2, 0, 80, 120),
            slot(3, 1, 0, 120), // other node, untouched
        ])
        .unwrap();
        let affected = list.remove_region(NodeId::new(0), span(20, 90));
        assert_eq!(
            affected,
            vec![SlotId::new(0), SlotId::new(1), SlotId::new(2)]
        );
        list.validate().unwrap();
        let node0: Vec<Span> = list
            .iter()
            .filter(|s| s.node() == NodeId::new(0))
            .map(|s| s.span())
            .collect();
        assert_eq!(node0, vec![span(0, 20), span(90, 120)]);
        let untouched = list.covering_slot(NodeId::new(1), span(0, 120));
        assert_eq!(untouched.map(Slot::id), Some(SlotId::new(3)));
    }

    #[test]
    fn remove_region_misses_cleanly() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 30)]).unwrap();
        assert!(list.remove_region(NodeId::new(0), span(30, 50)).is_empty());
        assert!(list.remove_region(NodeId::new(7), span(0, 50)).is_empty());
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn coalesce_merges_touching_same_attribute_runs() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 30),
            slot(1, 0, 30, 60),
            slot(2, 0, 60, 100),
            slot(3, 1, 0, 50), // other node: left alone
        ])
        .unwrap();
        let before = list.total_vacant_time();
        assert_eq!(list.coalesce(), 2);
        list.validate().unwrap();
        // The run head keeps its id and absorbs the whole run; ids 1 and 2
        // are gone.
        assert_eq!(spans(&list), [(0, span(0, 100)), (3, span(0, 50))]);
        assert_eq!(list.total_vacant_time(), before);
        // Idempotent: a second pass finds nothing.
        assert_eq!(list.coalesce(), 0);
    }

    #[test]
    fn coalesce_respects_gaps_and_attribute_changes() {
        let cheap = slot(0, 0, 0, 30);
        let pricey = Slot::new(
            SlotId::new(1),
            NodeId::new(0),
            Perf::UNIT,
            Price::from_credits(9),
            span(30, 60),
        )
        .unwrap();
        let fast = Slot::new(
            SlotId::new(2),
            NodeId::new(0),
            Perf::from_f64(2.0),
            Price::from_credits(2),
            span(60, 90),
        )
        .unwrap();
        let gapped = slot(3, 0, 95, 120);
        let mut list = SlotList::from_slots(vec![cheap, pricey, fast, gapped]).unwrap();
        assert_eq!(list.coalesce(), 0);
        assert_eq!(list.len(), 4);
        list.validate().unwrap();
    }

    #[test]
    fn coalesce_closes_a_grown_chain_at_a_successor_that_differs() {
        // On node 0: a chain of two, then a touching slot at another
        // price that ends it, then a second chain behind that one.
        let pricey = Slot::new(
            SlotId::new(2),
            NodeId::new(0),
            Perf::UNIT,
            Price::from_credits(9),
            span(60, 70),
        )
        .unwrap();
        let slots = vec![
            slot(0, 0, 0, 30),
            slot(1, 0, 30, 60),
            pricey,
            slot(3, 0, 70, 80),
            slot(4, 0, 80, 95),
            slot(5, 1, 10, 20), // interleaves in `(start, id)` order
        ];
        let mut list = SlotList::from_slots(slots).unwrap();
        assert_eq!(list.coalesce(), 2);
        list.validate().unwrap();
        let node0: Vec<(u64, Span)> = list
            .iter()
            .filter(|s| s.node() == NodeId::new(0))
            .map(|s| (s.id().raw(), s.span()))
            .collect();
        assert_eq!(
            node0,
            vec![(0, span(0, 60)), (2, span(60, 70)), (3, span(70, 95))]
        );
        assert_eq!(
            list.covering_slot(NodeId::new(0), span(40, 55))
                .map(Slot::id),
            Some(SlotId::new(0))
        );
    }

    #[test]
    fn coalesce_never_reuses_retired_ids() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 30), slot(1, 0, 30, 60)]).unwrap();
        assert_eq!(list.coalesce(), 1);
        // Id 1 is retired, not recycled: fresh mints start past it.
        assert_eq!(list.mint_id(), SlotId::new(2));
    }

    #[test]
    #[should_panic(expected = "released regions are disjoint")]
    fn release_windows_refuses_a_region_the_list_holds() {
        let live = slot(0, 0, 0, 100);
        let mut list = SlotList::from_slots(vec![live]).unwrap();
        let member = WindowSlot::from_slot(&live, TimeDelta::new(80)).unwrap();
        let overlapping = Window::new(TimePoint::new(50), vec![member]).unwrap();
        list.release_windows([&overlapping], false);
    }

    #[test]
    fn iteration_conveniences() {
        let list = SlotList::from_slots(vec![slot(0, 0, 10, 40)]).unwrap();
        assert_eq!((&list).into_iter().count(), 1);
        assert_eq!(list.clone().into_iter().count(), 1);
        assert!(format!("{list}").contains("1 slots"));
    }

    /// Equality is observational: the slots and the minting cursor, not
    /// where the blocks happen to be cut.
    #[test]
    fn lists_compare_by_slots_and_cursor() {
        let slots = vec![
            slot(0, 3, 0, 20),
            slot(1, 0, 10, 40),
            slot(2, 2, 10, 30),
            slot(3, 0, 55, 60),
        ];
        let loaded = SlotList::from_slots(slots.iter().rev().copied().collect()).unwrap();
        let mut inserted = SlotList::new();
        for slot in slots {
            let at = (slot.node(), slot.perf(), slot.price(), slot.span());
            assert_eq!(inserted.insert(at.0, at.1, at.2, at.3), Ok(slot.id()));
        }
        inserted.validate().unwrap();
        assert_eq!(inserted, loaded);
        inserted.mint_id();
        assert_ne!(inserted, loaded, "the minting cursor is observable");
    }

    #[test]
    fn serde_round_trips() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 30),
            slot(1, 1, 10, 60),
            slot(2, 0, 40, 90),
        ])
        .unwrap();
        list.mint_id(); // a cursor past max(id) + 1 survives the wire
        let text = serde_json::to_string(&list).unwrap();
        let back: SlotList = serde_json::from_str(&text).unwrap();
        assert_eq!(back, list);
        assert_eq!(back.next_id, 4);
        back.validate().unwrap();
    }

    /// The one written form, as text: each node's slots in start order
    /// behind the tag, nodes ascending.
    #[test]
    fn serde_writes_the_tagged_node_form() {
        let list = SlotList::from_slots(vec![slot(0, 1, 0, 30), slot(1, 0, 10, 60)]).unwrap();
        let slot_text = |id: u64, node: u32, a: i64, b: i64| {
            format!(
                r#"{{"id":{id},"node":{node},"perf":1000,"price":2000000,"span":{{"start":{a},"end":{b}}}}}"#
            )
        };
        let (zero, one) = (slot_text(0, 1, 0, 30), slot_text(1, 0, 10, 60));
        assert_eq!(
            serde_json::to_string(&list).unwrap(),
            format!(
                r#"{{"repr":"interval","nodes":[{{"node":0,"slots":[{one}]}},{{"node":1,"slots":[{zero}]}}],"next_id":2}}"#
            )
        );
    }

    /// The untagged payload of persist format-1 snapshots, which nothing
    /// writes any more: `{slots, next_id}`, the slots in `(start, id)`
    /// order. Pinned as text so that it keeps decoding.
    #[test]
    fn serde_reads_the_untagged_format_1_payload() {
        let text = r#"{"slots":[
            {"id":6,"node":6,"perf":1175,"price":1856629,"span":{"start":60,"end":99}},
            {"id":2,"node":2,"perf":1000,"price":2000000,"span":{"start":70,"end":90}},
            {"id":3,"node":6,"perf":1175,"price":1856629,"span":{"start":99,"end":140}}
        ],"next_id":9}"#;
        let list: SlotList = serde_json::from_str(text).unwrap();
        list.validate().unwrap();
        let seen: Vec<(u64, u32, i64, i64)> = list
            .iter()
            .map(|s| {
                (
                    s.id().raw(),
                    s.node().index(),
                    s.start().ticks(),
                    s.end().ticks(),
                )
            })
            .collect();
        assert_eq!(seen, [(6, 6, 60, 99), (2, 2, 70, 90), (3, 6, 99, 140)]);
        assert_eq!(list.iter().next().unwrap().price().micro(), 1_856_629);
        assert_eq!(list.next_id, 9);
    }

    /// The untagged payload is validated as fully as the tagged one:
    /// a dump that is out of order, overlaps on a node, repeats an id, or
    /// carries a minting cursor at or below a live id is refused, naming
    /// the violated invariant — never decoded into a list whose
    /// `validate()` fails or whose `mint_id()` reissues a live id.
    #[test]
    fn serde_rejects_corrupt_untagged_payload() {
        let payload = |slots: Vec<Slot>, next_id: u64| {
            let slots = serde_json::to_string(&slots).unwrap();
            format!(r#"{{"slots":{slots},"next_id":{next_id}}}"#)
        };
        let rejects = |text: String, needle: &str| {
            let err = serde_json::from_str::<SlotList>(&text)
                .expect_err(needle)
                .to_string();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        let sound = vec![slot(3, 0, 0, 30), slot(5, 0, 30, 60)];
        // A cursor past max(id) + 1 is sound: coalescing retires ids.
        let list: SlotList = serde_json::from_str(&payload(sound.clone(), 9)).unwrap();
        list.validate().unwrap();
        assert_eq!(list.next_id, 9);

        rejects(
            payload(vec![slot(5, 0, 20, 60), slot(3, 0, 0, 30)], 0),
            "breaks (start, id) order",
        );
        rejects(
            payload(vec![slot(3, 0, 0, 30), slot(5, 0, 20, 60)], 6),
            "overlap",
        );
        rejects(
            payload(vec![slot(3, 0, 0, 30), slot(3, 1, 0, 30)], 6),
            "breaks (start, id) order",
        );
        rejects(
            payload(vec![slot(3, 0, 0, 30), slot(3, 1, 5, 30)], 6),
            "duplicate slot id",
        );
        rejects(payload(sound.clone(), 5), "next_id 5 is not above");
        rejects(payload(sound, 0), "next_id 0 is not above");
    }

    #[test]
    fn serde_rejects_corrupt_tagged_payload() {
        let list = SlotList::from_slots(vec![slot(0, 0, 0, 30), slot(1, 0, 30, 60)]).unwrap();
        let text = serde_json::to_string(&list).unwrap();
        assert!(serde_json::from_str::<SlotList>(&text).is_ok());
        let rejects = |text: String, needle: &str| {
            let err = serde_json::from_str::<SlotList>(&text)
                .expect_err(needle)
                .to_string();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        // Tamper: claim an unknown repr tag.
        rejects(
            text.replace(r#""interval""#, r#""hyperbolic""#),
            "unknown slot list repr tag",
        );
        // File node 0's slots under node 1.
        rejects(
            text.replace(r#"{"node":0,"#, r#"{"node":1,"#),
            "filed under node",
        );
        // File the same slot under two nodes: one id twice, not a break
        // in an order the decoder made itself.
        let filed = |node: u32, start: i64| {
            let slots = serde_json::to_string(&[slot(3, node, start, 30)]).unwrap();
            format!(r#"{{"node":{node},"slots":{slots}}}"#)
        };
        // At one start and at two: the second is in `(start, id)` order,
        // and only the load's check of ids refuses it.
        for (zero, one) in [(filed(0, 0), filed(1, 0)), (filed(0, 0), filed(1, 5))] {
            rejects(
                format!(r#"{{"repr":"interval","nodes":[{zero},{one}],"next_id":4}}"#),
                "duplicate slot id s3",
            );
        }
        // Keys in any order; the tag decides the form once all are read.
        let (repr, rest) = text.split_once(r#","nodes":"#).unwrap();
        let (nodes, next_id) = rest.rsplit_once(',').unwrap();
        let next_id = next_id.trim_end_matches('}');
        let reordered = format!(r#"{{"nodes":{nodes},{next_id},{}}}"#, &repr[1..]);
        assert_eq!(serde_json::from_str::<SlotList>(&reordered).unwrap(), list);
    }
}
