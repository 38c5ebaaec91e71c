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
//! container, an id index, a per-node timeline, the id minting cursor
//! and every market algorithm, each exactly once. The container comes
//! in two orderings ([`MarketRepr`]; `crate::interval::Order`):
//!
//! * **Flat** ([`MarketRepr::Flat`]): a `Vec<Slot>` — the cheapest form
//!   to walk, clone and bulk-load, at an `O(m)` memmove per splice. What
//!   [`SlotList::new`], [`SlotList::from_slots`] and
//!   [`SlotList::from_sorted_slots`] build: the closed batch markets of
//!   the paper's study.
//! * **Interval** ([`MarketRepr::Interval`]): a
//!   `BTreeMap<(TimePoint, SlotId), Slot>` — every subtraction, carve,
//!   tail-return insert and coalesce merge is an `O(log m)` tree splice.
//!   What the engine's long-lived market runs on.
//!
//! Nothing outside the container knows which ordering it holds, so the
//! two are **observably identical** — same slots, same id minting order,
//! same iteration order, same [`SubtractionReport`]s.
//! `tests/interval_equivalence.rs` pins the containers against each
//! other; `tests/market_model.rs` pins the algorithms against an
//! independent linear-scan model.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::idhash::IdMap;
use crate::interval::{key, IntervalSet, Order, SlotIntoIter, SlotIter};
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Span, TimeDelta, TimePoint};
use crate::window::{Window, WindowSlot};

/// Which ordered container backs a [`SlotList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarketRepr {
    /// Start-ordered vector: cheap walks and bulk loads, `O(m)` splices.
    Flat,
    /// `(start, id)`-keyed tree: `O(log m)` splices.
    Interval,
}

/// A list of vacant slots ordered by `(start time, slot id)`.
///
/// Invariants (checked by [`SlotList::validate`]):
/// * `order` holds every live slot in strictly increasing `(start, id)`;
/// * `index` maps each live id to its start;
/// * each node's timeline holds exactly that node's slots as
///   `start → (id, end)`, pairwise disjoint;
/// * `next_id` is strictly greater than every live id.
///
/// # Examples
///
/// ```
/// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
///
/// let mut list = SlotList::new();
/// let span = Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap();
/// let id = list.mint_id();
/// list.insert(Slot::new(id, NodeId::new(0), Perf::UNIT, Price::from_credits(2), span)?)?;
/// assert_eq!(list.len(), 1);
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotList {
    order: Order,
    index: IdMap<SlotId, TimePoint>,
    nodes: IdMap<NodeId, IntervalSet>,
    next_id: u64,
}

/// What one [`SlotList::subtract_window_report`] call did to the list:
/// which slots were consumed and which remnants replaced them.
///
/// The incremental alternatives search uses this to update per-job scan
/// state without re-reading the whole list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubtractionReport {
    /// Ids removed from the list (the window's source slots).
    pub removed: Vec<SlotId>,
    /// Freshly minted remnant slots inserted in their place.
    pub remnants: Vec<Slot>,
}

impl SlotList {
    /// Creates an empty slot list in the flat representation.
    #[must_use]
    pub fn new() -> Self {
        SlotList::default()
    }

    /// Creates an empty slot list in the given representation.
    #[must_use]
    pub fn new_with_repr(repr: MarketRepr) -> Self {
        SlotList {
            order: Order::new(repr),
            ..SlotList::default()
        }
    }

    /// The representation currently backing this list.
    #[must_use]
    pub fn repr(&self) -> MarketRepr {
        self.order.repr()
    }

    /// Converts the list to `repr`, preserving the observable state
    /// exactly: the same slots and the same `next_id` (fresh mints after
    /// a conversion produce the same ids they would have before it).
    /// Only the ordered container is rebuilt. A no-op if the list is
    /// already in `repr`.
    #[must_use]
    pub fn with_repr(self, repr: MarketRepr) -> SlotList {
        if self.repr() == repr {
            return self;
        }
        SlotList {
            order: Order::from_sorted(self.order.into_slots().collect(), repr),
            ..self
        }
    }

    /// Builds a flat-representation list from arbitrary slots, sorting
    /// them by start time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateSlotId`] if two slots share an id, or
    /// [`CoreError::OverlappingSlots`] if two slots on the same node
    /// overlap in time.
    pub fn from_slots(slots: Vec<Slot>) -> Result<Self, CoreError> {
        SlotList::from_slots_with_repr(slots, MarketRepr::Flat)
    }

    /// [`SlotList::from_slots`] in the given representation.
    ///
    /// # Errors
    ///
    /// As [`SlotList::from_slots`].
    pub fn from_slots_with_repr(slots: Vec<Slot>, repr: MarketRepr) -> Result<Self, CoreError> {
        let mut slots = slots;
        slots.sort_by_key(key);
        // A repeated `(start, id)` is adjacent now; the sorted load would
        // report it as a break in the order.
        if let Some(twins) = slots.windows(2).find(|p| key(&p[0]) == key(&p[1])) {
            return Err(CoreError::DuplicateSlotId { id: twins[1].id() });
        }
        SlotList::from_sorted_slots_with_repr(slots, repr)
    }

    /// Builds a flat list from slots already in strictly increasing
    /// `(start, id)` order — the bulk-load path. One pass, `O(m)`: order,
    /// id uniqueness, and same-node disjointness are all checked as the
    /// slots stream in, with no sort and no quadratic overlap scan.
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
        SlotList::from_sorted_slots_with_repr(slots, MarketRepr::Flat)
    }

    /// [`SlotList::from_sorted_slots`] targeting a specific
    /// representation directly (no post-hoc conversion pass). Same
    /// validation, same errors.
    ///
    /// # Errors
    ///
    /// As [`SlotList::from_sorted_slots`].
    pub fn from_sorted_slots_with_repr(
        slots: Vec<Slot>,
        repr: MarketRepr,
    ) -> Result<Self, CoreError> {
        let mut index = IdMap::with_capacity_and_hasher(slots.len(), Default::default());
        let mut nodes: IdMap<NodeId, IntervalSet> = IdMap::default();
        let mut next_id = 0u64;
        for (i, slot) in slots.iter().enumerate() {
            if i > 0 && key(&slots[i - 1]) >= key(slot) {
                return Err(CoreError::UnsortedSlots { index: i });
            }
            if index.insert(slot.id(), slot.start()).is_some() {
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
            order: Order::from_sorted(slots, repr),
            index,
            nodes,
            next_id,
        })
    }

    /// Mints a fresh slot id, unique within this list.
    pub fn mint_id(&mut self) -> SlotId {
        let id = SlotId::new(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a slot, keeping the ordering invariant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateSlotId`] if the id is already
    /// present, or [`CoreError::OverlappingSlots`] if the slot overlaps
    /// one already on its node; the list is unchanged either way.
    pub fn insert(&mut self, slot: Slot) -> Result<(), CoreError> {
        let Entry::Vacant(start_of) = self.index.entry(slot.id()) else {
            return Err(CoreError::DuplicateSlotId { id: slot.id() });
        };
        self.nodes
            .entry(slot.node())
            .or_default()
            .insert(slot.start(), slot.id(), slot.end())
            .map_err(|first| overlap(first, &slot))?;
        start_of.insert(slot.start());
        self.next_id = self.next_id.max(slot.id().raw() + 1);
        self.order.insert(slot);
        Ok(())
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
    /// — `O(log m)` to position, then `O(1)` per step. This replaces the
    /// positional `first_at_or_after`/`as_slice` pair of the flat-only
    /// era: scans walk boundaries, not vector indices.
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

    /// Looks up a slot by id in `O(log m)` via the id index.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let span = Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap();
    /// let slot = Slot::new(SlotId::new(7), NodeId::new(0), Perf::UNIT,
    ///                      Price::from_credits(2), span).unwrap();
    /// let list = SlotList::from_slots(vec![slot]).unwrap();
    /// assert_eq!(list.get(SlotId::new(7)).unwrap().start(), TimePoint::new(0));
    /// assert!(list.get(SlotId::new(8)).is_none());
    /// ```
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&Slot> {
        let slot = self.order.get((*self.index.get(&id)?, id));
        debug_assert!(slot.is_some(), "id index out of sync with the order");
        slot
    }

    /// Returns `true` if slot `id` is currently in the list (`O(1)`).
    #[must_use]
    pub fn contains(&self, id: SlotId) -> bool {
        self.index.contains_key(&id)
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

    /// Removes the interval `cut` from the slot `id`, inserting remnants in
    /// order (Fig. 1 (b)). Locating the slot is `O(log m)` via the index;
    /// the splice itself is `O(m)` flat, `O(log m)` interval.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SlotNotFound`] if `id` is not in the list;
    /// * [`CoreError::CutOutsideSlot`] if `cut` is not fully contained in
    ///   the slot's vacant span.
    pub fn subtract(&mut self, id: SlotId, cut: Span) -> Result<(), CoreError> {
        let slot = self.source(id, cut)?;
        self.cut_slot(&slot, cut, &mut Vec::new());
        Ok(())
    }

    /// The live slot `id`, checked to contain `cut`.
    fn source(&self, id: SlotId, cut: Span) -> Result<Slot, CoreError> {
        let slot = self.get(id).ok_or(CoreError::SlotNotFound { id })?;
        if !slot.span().contains_span(cut) {
            return Err(CoreError::CutOutsideSlot {
                id,
                slot_span: slot.span(),
                cut,
            });
        }
        Ok(*slot)
    }

    /// The mutation half of a subtraction, for a caller that has already
    /// looked `slot` up and checked that it contains `cut`: one removal
    /// from the id index, the order and the node timeline, then the
    /// remnants (left minted before right), appended to `remnants`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live in the list.
    fn cut_slot(&mut self, slot: &Slot, cut: Span, remnants: &mut Vec<Slot>) {
        self.index.remove(&slot.id()).expect("cut slots are live");
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
            self.index.insert(id, piece.start());
            self.order.insert(remnant);
            remnants.push(remnant);
        }
        if timeline.is_empty() {
            self.nodes.remove(&slot.node());
        }
    }

    /// Subtracts every member of a committed window from the list.
    ///
    /// This is all-or-nothing: on error the list is left unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::SlotNotFound`] / [`CoreError::CutOutsideSlot`]
    /// from [`SlotList::subtract`].
    pub fn subtract_window(&mut self, window: &Window) -> Result<(), CoreError> {
        self.subtract_window_report(window).map(drop)
    }

    /// [`SlotList::subtract_window`], additionally reporting the consumed
    /// ids and the minted remnants.
    ///
    /// Every cut is validated with one `O(log m)` lookup before anything
    /// changes, so a failure cannot leave a partial subtraction; the
    /// mutation then takes the slots that pass found and does not look
    /// them up again.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::SlotNotFound`] / [`CoreError::CutOutsideSlot`]
    /// from [`SlotList::subtract`].
    pub fn subtract_window_report(
        &mut self,
        window: &Window,
    ) -> Result<SubtractionReport, CoreError> {
        let mut sources: Vec<Slot> = Vec::with_capacity(window.slot_count());
        for (id, cut) in window.cuts() {
            sources.push(self.source(id, cut)?);
        }
        let mut report = SubtractionReport {
            removed: Vec::with_capacity(sources.len()),
            remnants: Vec::with_capacity(2 * sources.len()),
        };
        for (slot, (id, cut)) in sources.iter().zip(window.cuts()) {
            self.cut_slot(slot, cut, &mut report.remnants);
            report.removed.push(id);
        }
        Ok(report)
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
        let id = self.mint_id();
        let slot = Slot::new(id, member.node(), member.perf(), member.price(), span)
            .expect("released regions are non-empty");
        self.insert(slot)
            .expect("released regions are disjoint from the list");
        id
    }

    /// The inverse of [`SlotList::subtract_window`]: releases every
    /// member's used region ([`SlotList::release_region`], member order).
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
    /// preserved — only the partitioning changes. One walk in `(start,
    /// id)` order (which is start order on every node) finds the chains,
    /// one pass over the order applies them.
    pub fn coalesce(&mut self) -> usize {
        // Each node's current chain head, merged so far, and whether it grew.
        let mut heads: IdMap<NodeId, (Slot, bool)> =
            IdMap::with_capacity_and_hasher(self.nodes.len(), Default::default());
        let (mut absorbed, mut grown) = (Vec::new(), Vec::new());
        for slot in self.order.iter() {
            match heads.get_mut(&slot.node()) {
                Some((head, grew))
                    if head.end() == slot.start()
                        && head.price() == slot.price()
                        && head.perf() == slot.perf() =>
                {
                    let span = Span::new(head.start(), slot.end());
                    *head = head
                        .with_span(head.id(), span.expect("a merged span outlives its head"))
                        .expect("merged spans are non-empty");
                    *grew = true;
                    absorbed.push(*slot);
                }
                Some(head) => {
                    let (closed, grew) = std::mem::replace(head, (*slot, false));
                    if grew {
                        grown.push(closed);
                    }
                }
                None => {
                    heads.insert(slot.node(), (*slot, false));
                }
            }
        }
        if absorbed.is_empty() {
            return 0;
        }
        grown.extend(heads.into_values().filter(|h| h.1).map(|h| h.0));
        grown.sort_unstable_by_key(key);
        let (mut dead, mut merged) = (absorbed.iter().peekable(), grown.iter().peekable());
        self.order.retain_mut(|slot| {
            if dead.next_if(|d| d.id() == slot.id()).is_some() {
                return false;
            }
            if let Some(head) = merged.next_if(|m| m.id() == slot.id()) {
                *slot = *head;
            }
            true
        });
        for slot in &absorbed {
            self.index.remove(&slot.id());
            timeline(&mut self.nodes, slot.node()).remove(slot.start());
        }
        for head in &grown {
            timeline(&mut self.nodes, head.node()).put(head.start(), head.id(), head.end());
        }
        absorbed.len()
    }

    /// Checks every structural invariant of the list, including that the
    /// auxiliary structures match the canonical slot set. Cheap enough for
    /// tests; not called on hot paths.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CoreError`].
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut prev = None;
        for slot in self.iter() {
            let at = key(slot);
            if prev >= Some(at) || slot.id().raw() >= self.next_id {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
            prev = Some(at);
            let run = self.nodes.get(&slot.node()).and_then(|t| t.get(at.0));
            if self.order.get(at) != Some(slot)
                || self.index.get(&slot.id()) != Some(&at.0)
                || run != Some((slot.id(), slot.end()))
            {
                return Err(CoreError::SlotNotFound { id: slot.id() });
            }
        }
        let mut runs = 0;
        for (&node, timeline) in &self.nodes {
            timeline.validate(node)?;
            runs += timeline.len();
        }
        if self.index.len() != self.len() || runs != self.len() {
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
    fn from_wire(slots: Vec<Slot>, next_id: u64, repr: MarketRepr) -> Result<Self, serde::Error> {
        let mut list = SlotList::from_sorted_slots_with_repr(slots, repr)
            .map_err(|e| serde::Error::custom(format!("invalid serialized slot list: {e}")))?;
        if next_id < list.next_id {
            return Err(serde::Error::custom(format!(
                "invalid serialized slot list: next_id {next_id} is not above live slot id {}",
                list.next_id - 1
            )));
        }
        list.next_id = next_id;
        Ok(list)
    }
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
        // Observable equality: the slots and the minting cursor. The
        // ordering is an execution detail — a vector-ordered list and a
        // tree-ordered list holding the same market compare equal.
        self.next_id == other.next_id
            && self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for SlotList {}

// Serde through one derived wire struct per representation. The flat
// representation keeps the wire format of the pre-index list (`slots` +
// `next_id`); the interval representation writes each node's slots in
// start order behind a `repr` tag. Decoding reads every key first and then
// chooses on the tag's presence, so legacy flat payloads (persist format
// v1) load unchanged.
#[derive(Serialize)]
struct FlatWire {
    slots: Vec<Slot>,
    next_id: u64,
}

#[derive(Serialize)]
struct IntervalWire {
    repr: String,
    nodes: Vec<NodeSlots>,
    next_id: u64,
}

#[derive(Serialize, Deserialize)]
struct NodeSlots {
    node: NodeId,
    slots: Vec<Slot>,
}

impl SlotList {
    fn wire(&self) -> Box<dyn Serialize> {
        let next_id = self.next_id;
        if self.repr() == MarketRepr::Flat {
            let slots = self.iter().copied().collect();
            return Box::new(FlatWire { slots, next_id });
        }
        // Ascending node order; `(start, id)` order within a node is its
        // start order.
        let mut by_node: BTreeMap<NodeId, Vec<Slot>> = BTreeMap::new();
        for slot in self.iter() {
            by_node.entry(slot.node()).or_default().push(*slot);
        }
        let nodes = by_node.into_iter();
        let nodes = nodes.map(|(node, slots)| NodeSlots { node, slots });
        Box::new(IntervalWire {
            repr: "interval".to_string(),
            nodes: nodes.collect(),
            next_id,
        })
    }
}

impl Serialize for SlotList {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.wire().write_json(out);
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
            // Legacy flat payload: `{slots, next_id}`, slots in order.
            let slots = serde::required(slots, "slots")?;
            return SlotList::from_wire(
                slots,
                serde::required(next_id, "next_id")?,
                MarketRepr::Flat,
            );
        };
        if repr != "interval" {
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
        all_slots.sort_by_key(key);
        SlotList::from_wire(all_slots, next_id, MarketRepr::Interval)
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
    use crate::money::Price;
    use crate::perf::Perf;
    use crate::resource::NodeId;

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

    /// Runs a test body against both representations of the same initial
    /// list, so every semantic assertion below pins flat and interval
    /// behavior at once.
    fn on_both_reprs(slots: Vec<Slot>, body: impl Fn(SlotList)) {
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            body(SlotList::from_slots_with_repr(slots.clone(), repr).unwrap());
        }
    }

    #[test]
    fn from_slots_sorts_by_start() {
        on_both_reprs(
            vec![slot(0, 0, 50, 80), slot(1, 1, 10, 40), slot(2, 2, 30, 90)],
            |list| {
                let starts: Vec<i64> = list.iter().map(|s| s.start().ticks()).collect();
                assert_eq!(starts, vec![10, 30, 50]);
            },
        );
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
        on_both_reprs(vec![slot(0, 5, 0, 50), slot(1, 5, 50, 90)], |list| {
            assert_eq!(list.len(), 2);
            list.validate().unwrap();
        });
    }

    #[test]
    fn insert_keeps_order_and_rejects_duplicates() {
        on_both_reprs(vec![slot(0, 0, 100, 200)], |mut list| {
            list.insert(slot(10, 1, 50, 80)).unwrap();
            assert_eq!(list.iter().next().unwrap().id(), SlotId::new(10));
            assert_eq!(
                list.insert(slot(10, 2, 0, 10)).unwrap_err(),
                CoreError::DuplicateSlotId {
                    id: SlotId::new(10)
                }
            );
        });
    }

    #[test]
    fn interval_insert_rejects_overlap_structurally() {
        on_both_reprs(vec![slot(0, 5, 0, 50)], |mut list| {
            let err = list.insert(slot(1, 5, 40, 90)).unwrap_err();
            assert_eq!(
                err,
                CoreError::OverlappingSlots {
                    node: NodeId::new(5),
                    first: SlotId::new(0),
                    second: SlotId::new(1),
                }
            );
            // Refused whole: nothing minted, indexed or ordered.
            assert_eq!(list.len(), 1);
            assert!(!list.contains(SlotId::new(1)));
            assert_eq!(list.mint_id(), SlotId::new(1));
            list.validate().unwrap();
        });
    }

    #[test]
    fn minted_ids_never_collide_with_inserted() {
        on_both_reprs(vec![slot(41, 0, 0, 10)], |mut list| {
            assert_eq!(list.mint_id(), SlotId::new(42));
            list.insert(slot(100, 1, 0, 10)).unwrap();
            assert_eq!(list.mint_id(), SlotId::new(101));
        });
    }

    #[test]
    fn indexed_get_matches_linear_lookup() {
        // Several slots sharing start times so the lookups have to break
        // ties on id.
        on_both_reprs(
            vec![
                slot(5, 0, 10, 40),
                slot(2, 1, 10, 50),
                slot(9, 2, 10, 30),
                slot(1, 3, 0, 20),
                slot(7, 4, 25, 60),
            ],
            |list| {
                let all: Vec<Slot> = list.iter().copied().collect();
                for expected in &all {
                    let found = list.get(expected.id()).expect("every id resolves");
                    assert_eq!(found, expected);
                    assert!(list.contains(expected.id()));
                }
                assert!(list.get(SlotId::new(1000)).is_none());
                assert!(!list.contains(SlotId::new(1000)));
            },
        );
    }

    #[test]
    fn iter_from_brackets_the_list() {
        on_both_reprs(
            vec![slot(0, 0, 10, 40), slot(1, 1, 10, 50), slot(2, 2, 30, 90)],
            |list| {
                let ids_from = |t: i64| -> Vec<u64> {
                    list.iter_from(TimePoint::new(t))
                        .map(|s| s.id().raw())
                        .collect()
                };
                assert_eq!(ids_from(0), vec![0, 1, 2]);
                assert_eq!(ids_from(10), vec![0, 1, 2]);
                assert_eq!(ids_from(11), vec![2]);
                assert_eq!(ids_from(31), Vec::<u64>::new());
            },
        );
    }

    #[test]
    fn subtract_interior_produces_two_remnants() {
        on_both_reprs(vec![slot(0, 0, 0, 100)], |mut list| {
            list.subtract(SlotId::new(0), span(30, 60)).unwrap();
            assert_eq!(list.len(), 2);
            let spans: Vec<Span> = list.iter().map(|s| s.span()).collect();
            assert_eq!(spans, vec![span(0, 30), span(60, 100)]);
            list.validate().unwrap();
        });
    }

    #[test]
    fn subtract_prefix_keeps_right_remnant_only() {
        on_both_reprs(vec![slot(0, 0, 0, 100)], |mut list| {
            list.subtract(SlotId::new(0), span(0, 100)).unwrap();
            assert!(list.is_empty());
        });
    }

    #[test]
    fn subtract_missing_slot_errors() {
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            let mut list = SlotList::new_with_repr(repr);
            assert_eq!(
                list.subtract(SlotId::new(1), span(0, 10)).unwrap_err(),
                CoreError::SlotNotFound { id: SlotId::new(1) }
            );
        }
    }

    #[test]
    fn subtract_outside_cut_errors() {
        on_both_reprs(vec![slot(0, 0, 10, 20)], |mut list| {
            let err = list.subtract(SlotId::new(0), span(15, 30)).unwrap_err();
            assert!(matches!(err, CoreError::CutOutsideSlot { .. }));
            // List unchanged.
            assert_eq!(list.len(), 1);
            assert_eq!(list.iter().next().unwrap().span(), span(10, 20));
        });
    }

    #[test]
    fn subtract_window_is_atomic_on_error() {
        use crate::window::{Window, WindowSlot};
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 0, 10); // too short for the cut below
        on_both_reprs(vec![a, b], |mut list| {
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
            assert_eq!(list.len(), 2);
            assert_eq!(list.get(SlotId::new(0)).unwrap().span(), span(0, 100));
        });
    }

    #[test]
    fn subtract_window_removes_all_members() {
        use crate::window::{Window, WindowSlot};
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 0, 100);
        on_both_reprs(vec![a, b], |mut list| {
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
        });
    }

    #[test]
    fn subtraction_report_lists_consumed_and_minted() {
        use crate::window::{Window, WindowSlot};
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 20, 120);
        on_both_reprs(vec![a, b], |mut list| {
            let w = Window::new(
                TimePoint::new(20),
                vec![
                    WindowSlot::from_slot(&a, TimeDelta::new(40)).unwrap(),
                    WindowSlot::from_slot(&b, TimeDelta::new(40)).unwrap(),
                ],
            )
            .unwrap();
            let report = list.subtract_window_report(&w).unwrap();
            assert_eq!(report.removed, vec![SlotId::new(0), SlotId::new(1)]);
            // a → [0, 20) and [60, 100); b → [60, 120).
            assert_eq!(report.remnants.len(), 3);
            for remnant in &report.remnants {
                assert_eq!(list.get(remnant.id()), Some(remnant));
            }
            list.validate().unwrap();
        });
    }

    #[test]
    fn totals_and_earliest() {
        on_both_reprs(vec![slot(0, 0, 10, 40), slot(1, 1, 5, 25)], |list| {
            assert_eq!(list.earliest_start(), Some(TimePoint::new(5)));
            assert_eq!(list.total_vacant_time(), TimeDelta::new(50));
        });
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
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            let sorted = SlotList::from_sorted_slots_with_repr(slots.clone(), repr).unwrap();
            let general = SlotList::from_slots(slots.clone()).unwrap();
            assert_eq!(sorted, general);
            sorted.validate().unwrap();
            assert_eq!(sorted.next_id, general.next_id);
        }
    }

    #[test]
    fn from_sorted_slots_rejects_unsorted_input() {
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            // Out of start order.
            let err = SlotList::from_sorted_slots_with_repr(
                vec![slot(0, 0, 10, 20), slot(1, 1, 0, 5)],
                repr,
            )
            .unwrap_err();
            assert_eq!(err, CoreError::UnsortedSlots { index: 1 });
            // Equal starts must come in increasing id order.
            let err = SlotList::from_sorted_slots_with_repr(
                vec![slot(4, 0, 10, 20), slot(2, 1, 10, 20)],
                repr,
            )
            .unwrap_err();
            assert_eq!(err, CoreError::UnsortedSlots { index: 1 });
        }
    }

    #[test]
    fn from_sorted_slots_rejects_same_node_overlap() {
        // The long first slot still overlaps the third even though the
        // second ends earlier — the running bound must track the max end.
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            let err = SlotList::from_sorted_slots_with_repr(
                vec![slot(0, 5, 0, 100), slot(1, 6, 10, 20), slot(2, 5, 30, 40)],
                repr,
            )
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
    }

    #[test]
    fn from_sorted_slots_rejects_duplicate_ids() {
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            let err = SlotList::from_sorted_slots_with_repr(
                vec![slot(3, 0, 0, 10), slot(3, 1, 5, 15)],
                repr,
            )
            .unwrap_err();
            assert_eq!(err, CoreError::DuplicateSlotId { id: SlotId::new(3) });
        }
    }

    #[test]
    fn covering_slot_finds_the_unique_container() {
        on_both_reprs(
            vec![slot(0, 0, 0, 50), slot(1, 0, 60, 100), slot(2, 1, 0, 100)],
            |list| {
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
            },
        );
    }

    #[test]
    fn covering_slot_tracks_subtraction() {
        on_both_reprs(vec![slot(0, 0, 0, 100)], |mut list| {
            list.subtract(SlotId::new(0), span(40, 60)).unwrap();
            assert!(list.covering_slot(NodeId::new(0), span(45, 55)).is_none());
            let left = list.covering_slot(NodeId::new(0), span(10, 30)).unwrap();
            assert_eq!(left.span(), span(0, 40));
            let right = list.covering_slot(NodeId::new(0), span(70, 90)).unwrap();
            assert_eq!(right.span(), span(60, 100));
        });
    }

    #[test]
    fn remove_region_carves_every_overlapping_slot() {
        on_both_reprs(
            vec![
                slot(0, 0, 0, 30),
                slot(1, 0, 40, 70),
                slot(2, 0, 80, 120),
                slot(3, 1, 0, 120), // other node, untouched
            ],
            |mut list| {
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
                assert_eq!(list.get(SlotId::new(3)).unwrap().span(), span(0, 120));
            },
        );
    }

    #[test]
    fn remove_region_misses_cleanly() {
        on_both_reprs(vec![slot(0, 0, 0, 30)], |mut list| {
            assert!(list.remove_region(NodeId::new(0), span(30, 50)).is_empty());
            assert!(list.remove_region(NodeId::new(7), span(0, 50)).is_empty());
            assert_eq!(list.len(), 1);
        });
    }

    #[test]
    fn coalesce_merges_touching_same_attribute_runs() {
        on_both_reprs(
            vec![
                slot(0, 0, 0, 30),
                slot(1, 0, 30, 60),
                slot(2, 0, 60, 100),
                slot(3, 1, 0, 50), // other node: left alone
            ],
            |mut list| {
                let before = list.total_vacant_time();
                assert_eq!(list.coalesce(), 2);
                list.validate().unwrap();
                assert_eq!(list.len(), 2);
                // The run head keeps its id and absorbs the whole run.
                let merged = list.get(SlotId::new(0)).unwrap();
                assert_eq!(merged.span(), span(0, 100));
                assert_eq!(list.total_vacant_time(), before);
                assert!(list.get(SlotId::new(1)).is_none());
                assert!(list.get(SlotId::new(2)).is_none());
                assert_eq!(list.get(SlotId::new(3)).unwrap().span(), span(0, 50));
                // Idempotent: a second pass finds nothing.
                assert_eq!(list.coalesce(), 0);
            },
        );
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
        on_both_reprs(vec![cheap, pricey, fast, gapped], |mut list| {
            assert_eq!(list.coalesce(), 0);
            assert_eq!(list.len(), 4);
            list.validate().unwrap();
        });
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
        on_both_reprs(slots, |mut list| {
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
        });
    }

    #[test]
    fn coalesce_never_reuses_retired_ids() {
        on_both_reprs(vec![slot(0, 0, 0, 30), slot(1, 0, 30, 60)], |mut list| {
            assert_eq!(list.coalesce(), 1);
            // Id 1 is retired, not recycled: fresh mints start past it.
            assert_eq!(list.mint_id(), SlotId::new(2));
        });
    }

    #[test]
    fn iteration_conveniences() {
        on_both_reprs(vec![slot(0, 0, 10, 40)], |list| {
            assert_eq!((&list).into_iter().count(), 1);
            assert_eq!(list.clone().into_iter().count(), 1);
            assert!(format!("{list}").contains("1 slots"));
        });
    }

    #[test]
    fn repr_conversion_round_trips_and_compares_equal() {
        let slots = vec![
            slot(1, 3, 0, 20),
            slot(5, 0, 10, 40),
            slot(9, 2, 10, 30),
            slot(7, 0, 55, 60),
        ];
        let mut flat = SlotList::from_slots(slots).unwrap();
        flat.mint_id(); // push next_id past max(id)+1
        let interval = flat.clone().with_repr(MarketRepr::Interval);
        assert_eq!(interval.repr(), MarketRepr::Interval);
        interval.validate().unwrap();
        assert_eq!(flat, interval, "conversion preserves observable state");
        let back = interval.clone().with_repr(MarketRepr::Flat);
        back.validate().unwrap();
        assert_eq!(back, flat);
        assert_eq!(back.next_id, flat.next_id, "minting cursor preserved");
        // Same-repr conversion is the identity.
        assert_eq!(flat.clone().with_repr(MarketRepr::Flat), flat);
    }

    #[test]
    fn serde_round_trips_both_reprs() {
        let slots = vec![slot(0, 0, 0, 30), slot(1, 1, 10, 60), slot(2, 0, 40, 90)];
        for repr in [MarketRepr::Flat, MarketRepr::Interval] {
            let list = SlotList::from_slots_with_repr(slots.clone(), repr).unwrap();
            let text = serde_json::to_string(&list).unwrap();
            let back: SlotList = serde_json::from_str(&text).unwrap();
            assert_eq!(back.repr(), repr, "repr survives the wire");
            assert_eq!(back, list);
            back.validate().unwrap();
        }
    }

    #[test]
    fn serde_flat_wire_format_is_unchanged() {
        // The flat payload must stay exactly `{slots, next_id}` so persist
        // format v1 snapshots keep decoding.
        let list = SlotList::from_slots(vec![slot(0, 0, 0, 30)]).unwrap();
        let value: serde::Value =
            serde_json::from_str(&serde_json::to_string(&list).unwrap()).unwrap();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["slots", "next_id"]);
    }

    /// The legacy flat payload is validated as fully as the interval one:
    /// a dump that is out of order, overlaps on a node, repeats an id, or
    /// carries a minting cursor at or below a live id is refused, naming
    /// the violated invariant — never decoded into a list whose
    /// `validate()` fails or whose `mint_id()` reissues a live id.
    #[test]
    fn serde_rejects_corrupt_flat_payload() {
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
    fn serde_rejects_corrupt_interval_payload() {
        let list = SlotList::from_slots_with_repr(
            vec![slot(0, 0, 0, 30), slot(1, 0, 30, 60)],
            MarketRepr::Interval,
        )
        .unwrap();
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
        // Keys in any order; the tag decides the form once all are read.
        let (repr, rest) = text.split_once(r#","nodes":"#).unwrap();
        let (nodes, next_id) = rest.rsplit_once(',').unwrap();
        let next_id = next_id.trim_end_matches('}');
        let reordered = format!(r#"{{"nodes":{nodes},{next_id},{}}}"#, &repr[1..]);
        assert_eq!(serde_json::from_str::<SlotList>(&reordered).unwrap(), list);
    }
}
