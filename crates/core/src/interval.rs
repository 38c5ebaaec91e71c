//! Per-node interval timelines: the tree-structured market representation.
//!
//! A flat start-ordered vector ([`crate::SlotList`]'s historical form)
//! pays `O(m)` memmove on every subtraction splice and every tail-return
//! insert. This module stores the same market as one [`IntervalSet`] per
//! node — sorted disjoint `[start, end)` runs carrying `(price, perf)`
//! annotations in a `BTreeMap` keyed by start — plus a global
//! `(start, id)`-ordered view, so splits, merges, carving, and point
//! inserts are all `O(log n)` tree splices.
//!
//! The representation is **observably identical** to the flat list: the
//! same slots, the same ids (minting order included), the same
//! `(start, id)` iteration order, and the same
//! [`SubtractionReport`](crate::SubtractionReport)s. `ecosched-core`'s
//! differential proptest harness (`tests/interval_equivalence.rs`) pins
//! that equivalence op by op, which is what lets the engine's pinned
//! event-log hashes reproduce bit-for-bit under either representation.

use std::collections::BTreeMap;

use crate::error::CoreError;
use crate::idhash::IdMap;
use crate::money::Price;
use crate::perf::Perf;
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Span, TimeDelta, TimePoint};

/// One free run `[start, end)` on a node's timeline, annotated with the
/// slot identity and economic attributes the market tracks per interval.
///
/// The start is the key of the owning [`IntervalSet`]'s tree, so a run
/// stores only the remaining fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Exclusive end of the free interval.
    pub end: TimePoint,
    /// Identity of the slot occupying this run.
    pub id: SlotId,
    /// Node performance over the run.
    pub perf: Perf,
    /// Price per time unit over the run.
    pub price: Price,
}

impl Run {
    fn of_slot(slot: &Slot) -> (TimePoint, Run) {
        (
            slot.start(),
            Run {
                end: slot.end(),
                id: slot.id(),
                perf: slot.perf(),
                price: slot.price(),
            },
        )
    }

    fn to_slot(self, node: NodeId, start: TimePoint) -> Slot {
        Slot::new(
            self.id,
            node,
            self.perf,
            self.price,
            Span::new(start, self.end).expect("stored runs are non-empty"),
        )
        .expect("stored runs construct valid slots")
    }
}

/// A single node's timeline of disjoint free runs, ordered by start.
///
/// All operations are `O(log n)` in the number of runs on the node
/// (plus output size), because the tree is keyed by run start and
/// same-node disjointness makes the start a unique key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    runs: BTreeMap<TimePoint, Run>,
}

impl IntervalSet {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Number of free runs on the timeline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Returns `true` if the timeline has no runs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates `(start, run)` pairs in start order.
    pub fn iter(&self) -> impl Iterator<Item = (TimePoint, &Run)> {
        self.runs.iter().map(|(&start, run)| (start, run))
    }

    /// Inserts a run, enforcing disjointness against its tree neighbours.
    ///
    /// # Errors
    ///
    /// Returns the conflicting run's id if the new run overlaps an
    /// existing one (including an exact start collision).
    pub fn insert(&mut self, start: TimePoint, run: Run) -> Result<(), SlotId> {
        debug_assert!(start < run.end, "runs must be non-empty");
        if let Some((_, prev)) = self.runs.range(..=start).next_back() {
            if prev.end > start {
                return Err(prev.id);
            }
        }
        if let Some((&next_start, next)) = self.runs.range(start..).next() {
            if next_start < run.end {
                return Err(next.id);
            }
        }
        self.runs.insert(start, run);
        Ok(())
    }

    /// Removes and returns the run starting exactly at `start`.
    pub fn remove(&mut self, start: TimePoint) -> Option<Run> {
        self.runs.remove(&start)
    }

    /// The run whose interval fully contains `region`, if any: at most
    /// one exists, the last run starting at or before `region.start()`.
    #[must_use]
    pub fn covering(&self, region: Span) -> Option<(TimePoint, &Run)> {
        let (&start, run) = self.runs.range(..=region.start()).next_back()?;
        (run.end >= region.end() && start <= region.start()).then_some((start, run))
    }

    /// Every run that could overlap `region`, in start order: the
    /// predecessor of `region.start()` (which may reach into the region)
    /// followed by every run starting inside it. Callers intersect each
    /// candidate; a predecessor ending at or before `region.start()` is
    /// simply not affected.
    #[must_use]
    pub fn candidates(&self, region: Span) -> Vec<(TimePoint, Run)> {
        let mut out = Vec::new();
        if let Some((&start, run)) = self.runs.range(..region.start()).next_back() {
            out.push((start, *run));
        }
        out.extend(
            self.runs
                .range(region.start()..region.end())
                .map(|(&start, run)| (start, *run)),
        );
        out
    }

    /// Splits the run at `start` around `cut`, removing the cut interval
    /// and re-inserting the surviving left/right pieces under the ids
    /// produced by `mint` (left first, then right — the remnant minting
    /// order the flat list uses). Returns the minted `[left, right]`
    /// remnants, `None` where the cut reaches that edge of the run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CutOutsideSlot`] if `cut` is not fully
    /// contained in the run (the timeline is left unchanged).
    ///
    /// # Panics
    ///
    /// Panics if no run starts at `start` — resolve the run first (for
    /// example through [`IntervalSet::covering`]).
    pub fn subtract(
        &mut self,
        start: TimePoint,
        cut: Span,
        mut mint: impl FnMut() -> SlotId,
    ) -> Result<[Option<(TimePoint, Run)>; 2], CoreError> {
        let run = self.runs.remove(&start).expect("no run starts at `start`");
        let span = Span::new(start, run.end).expect("stored runs are non-empty");
        if !span.contains_span(cut) {
            self.runs.insert(start, run);
            return Err(CoreError::CutOutsideSlot {
                id: run.id,
                slot_span: span,
                cut,
            });
        }
        let (left, right) = span.subtract(cut);
        Ok([left, right].map(|piece| {
            let piece = piece?;
            let remnant = Run {
                end: piece.end(),
                id: mint(),
                perf: run.perf,
                price: run.price,
            };
            self.runs.insert(piece.start(), remnant);
            Some((piece.start(), remnant))
        }))
    }

    /// Merges every maximal chain of touching (`prev.end == next.start`)
    /// runs with equal price and performance into the chain head's run —
    /// the head keeps its id and absorbs the tail. Returns the absorbed
    /// `(start, id)` pairs and the surviving heads' extensions
    /// `(start, id, new_end)`, for callers maintaining parallel views.
    pub fn merge_touching(&mut self) -> MergeOutcome {
        let mut outcome = MergeOutcome::default();
        let mut rebuilt: BTreeMap<TimePoint, Run> = BTreeMap::new();
        let mut head: Option<(TimePoint, Run)> = None;
        for (&start, &run) in &self.runs {
            match &mut head {
                Some((head_start, head_run))
                    if head_run.end == start
                        && head_run.price == run.price
                        && head_run.perf == run.perf =>
                {
                    outcome.absorbed.push((start, run.id));
                    head_run.end = run.end;
                    match outcome.extended.last_mut() {
                        Some(last) if last.1 == head_run.id => last.2 = run.end,
                        _ => outcome.extended.push((*head_start, head_run.id, run.end)),
                    }
                }
                _ => {
                    if let Some((s, r)) = head.take() {
                        rebuilt.insert(s, r);
                    }
                    head = Some((start, run));
                }
            }
        }
        if let Some((s, r)) = head {
            rebuilt.insert(s, r);
        }
        if !outcome.absorbed.is_empty() {
            self.runs = rebuilt;
        }
        outcome
    }

    /// Checks adjacency disjointness and per-run well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OverlappingSlots`] (with the two offending
    /// ids) on the first adjacency violation.
    pub fn validate(&self, node: NodeId) -> Result<(), CoreError> {
        let mut prev: Option<(TimePoint, &Run)> = None;
        for (&start, run) in &self.runs {
            debug_assert!(start < run.end, "runs must be non-empty");
            if let Some((_, prev_run)) = prev {
                if prev_run.end > start {
                    return Err(CoreError::OverlappingSlots {
                        node,
                        first: prev_run.id,
                        second: run.id,
                    });
                }
            }
            prev = Some((start, run));
        }
        Ok(())
    }
}

/// What one [`IntervalSet::merge_touching`] pass changed.
#[derive(Debug, Clone, Default)]
pub struct MergeOutcome {
    /// Runs absorbed into a predecessor, as `(start, id)`, in start order.
    pub absorbed: Vec<(TimePoint, SlotId)>,
    /// Chain heads that grew, as `(start, id, new_end)`.
    pub extended: Vec<(TimePoint, SlotId, TimePoint)>,
}

/// The interval-backed market: per-node [`IntervalSet`] timelines plus a
/// global `(start, id)`-ordered slot view and an id index.
///
/// Invariants (checked by [`IntervalMarket::validate`]):
/// * `order` holds every live slot keyed by `(start, id)`;
/// * `index` maps each live id to its start;
/// * each node's timeline holds exactly that node's runs, disjoint, with
///   annotations matching the slot in `order`;
/// * `next_id` is strictly greater than every live id.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntervalMarket {
    timelines: IdMap<NodeId, IntervalSet>,
    order: BTreeMap<(TimePoint, SlotId), Slot>,
    index: IdMap<SlotId, TimePoint>,
    next_id: u64,
}

impl IntervalMarket {
    pub(crate) fn new() -> Self {
        IntervalMarket::default()
    }

    /// Bulk-loads slots already in strictly increasing `(start, id)`
    /// order, with the same one-pass validation (and the same error
    /// payloads) as the flat list's sorted bulk load.
    pub(crate) fn from_sorted_slots(slots: Vec<Slot>) -> Result<Self, CoreError> {
        let mut market = IntervalMarket::new();
        // Running max vacant end per node: starts are non-decreasing, so a
        // new slot overlaps an earlier same-node slot iff it starts before
        // the furthest end seen on that node.
        let mut node_ends: IdMap<NodeId, (TimePoint, SlotId)> = IdMap::default();
        let mut prev: Option<(TimePoint, SlotId)> = None;
        for (i, slot) in slots.into_iter().enumerate() {
            if let Some(p) = prev {
                if p >= (slot.start(), slot.id()) {
                    return Err(CoreError::UnsortedSlots { index: i });
                }
            }
            prev = Some((slot.start(), slot.id()));
            if market.index.insert(slot.id(), slot.start()).is_some() {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
            match node_ends.get_mut(&slot.node()) {
                Some((end, first)) => {
                    if slot.start() < *end {
                        return Err(CoreError::OverlappingSlots {
                            node: slot.node(),
                            first: *first,
                            second: slot.id(),
                        });
                    }
                    if slot.end() > *end {
                        *end = slot.end();
                        *first = slot.id();
                    }
                }
                None => {
                    node_ends.insert(slot.node(), (slot.end(), slot.id()));
                }
            }
            let (start, run) = Run::of_slot(&slot);
            market
                .timelines
                .entry(slot.node())
                .or_default()
                .runs
                .insert(start, run);
            market.order.insert((slot.start(), slot.id()), slot);
            market.next_id = market.next_id.max(slot.id().raw() + 1);
        }
        Ok(market)
    }

    /// Rebuilds from an in-order slot dump plus a trusted `next_id` —
    /// the representation-conversion path, no revalidation.
    pub(crate) fn from_parts(slots: impl IntoIterator<Item = Slot>, next_id: u64) -> Self {
        let mut market = IntervalMarket {
            next_id,
            ..IntervalMarket::default()
        };
        for slot in slots {
            let (start, run) = Run::of_slot(&slot);
            market
                .timelines
                .entry(slot.node())
                .or_default()
                .runs
                .insert(start, run);
            market.index.insert(slot.id(), slot.start());
            market.order.insert((slot.start(), slot.id()), slot);
        }
        market
    }

    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    pub(crate) fn mint_id(&mut self) -> SlotId {
        let id = SlotId::new(self.next_id);
        self.next_id += 1;
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn iter(
        &self,
    ) -> std::collections::btree_map::Values<'_, (TimePoint, SlotId), Slot> {
        self.order.values()
    }

    pub(crate) fn range_from(
        &self,
        from: TimePoint,
    ) -> std::collections::btree_map::Range<'_, (TimePoint, SlotId), Slot> {
        self.order.range((from, SlotId::new(0))..)
    }

    pub(crate) fn insert(&mut self, slot: Slot) -> Result<(), CoreError> {
        if self.index.contains_key(&slot.id()) {
            return Err(CoreError::DuplicateSlotId { id: slot.id() });
        }
        let (start, run) = Run::of_slot(&slot);
        if let Err(first) = self
            .timelines
            .entry(slot.node())
            .or_default()
            .insert(start, run)
        {
            return Err(CoreError::OverlappingSlots {
                node: slot.node(),
                first,
                second: slot.id(),
            });
        }
        self.next_id = self.next_id.max(slot.id().raw() + 1);
        self.index.insert(slot.id(), slot.start());
        self.order.insert((slot.start(), slot.id()), slot);
        Ok(())
    }

    pub(crate) fn get(&self, id: SlotId) -> Option<&Slot> {
        let start = *self.index.get(&id)?;
        let slot = self.order.get(&(start, id));
        debug_assert!(slot.is_some(), "id index out of sync with the order map");
        slot
    }

    pub(crate) fn contains(&self, id: SlotId) -> bool {
        self.index.contains_key(&id)
    }

    pub(crate) fn earliest_start(&self) -> Option<TimePoint> {
        self.order.keys().next().map(|&(start, _)| start)
    }

    pub(crate) fn total_vacant_time(&self) -> TimeDelta {
        self.order.values().map(Slot::length).sum()
    }

    pub(crate) fn covering_slot(&self, node: NodeId, region: Span) -> Option<&Slot> {
        let timeline = self.timelines.get(&node)?;
        let (start, run) = timeline.covering(region)?;
        self.order.get(&(start, run.id))
    }

    /// Withdraws `region` from every run on `node` it overlaps, minting
    /// remnants exactly as the flat list does (candidates in start order,
    /// left remnant before right). Returns the ids of the affected runs.
    pub(crate) fn remove_region(&mut self, node: NodeId, region: Span) -> Vec<SlotId> {
        let candidates = match self.timelines.get(&node) {
            Some(timeline) => timeline.candidates(region),
            None => return Vec::new(),
        };
        let mut affected = Vec::new();
        for (start, run) in candidates {
            let slot = run.to_slot(node, start);
            if let Some(cut) = slot.span().intersect(region) {
                self.cut_slot(&slot, cut, &mut Vec::new());
                affected.push(run.id);
            }
        }
        affected
    }

    /// Removes the interval `cut` from the slot `id`, minting left/right
    /// remnants in order and appending them to `remnants`.
    pub(crate) fn subtract_collect(
        &mut self,
        id: SlotId,
        cut: Span,
        remnants: &mut Vec<Slot>,
    ) -> Result<(), CoreError> {
        let slot = *self.get(id).ok_or(CoreError::SlotNotFound { id })?;
        if !slot.span().contains_span(cut) {
            return Err(CoreError::CutOutsideSlot {
                id,
                slot_span: slot.span(),
                cut,
            });
        }
        self.cut_slot(&slot, cut, remnants);
        Ok(())
    }

    /// The mutation half of a subtraction, for a caller that has already
    /// looked `slot` up and checked that it contains `cut`: one removal
    /// from the id index, the order tree and the node timeline, then the
    /// remnant inserts.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live in the market.
    pub(crate) fn cut_slot(&mut self, slot: &Slot, cut: Span, remnants: &mut Vec<Slot>) {
        let (start, id, node) = (slot.start(), slot.id(), slot.node());
        self.index.remove(&id).expect("cut slots are live");
        self.order.remove(&(start, id));
        let timeline = self
            .timelines
            .get_mut(&node)
            .expect("every live slot has a timeline");
        let next_id = &mut self.next_id;
        let minted = timeline
            .subtract(start, cut, || {
                let rid = SlotId::new(*next_id);
                *next_id += 1;
                rid
            })
            .expect("the caller checked containment against the same span");
        if timeline.is_empty() {
            self.timelines.remove(&node);
        }
        for (rstart, run) in minted.into_iter().flatten() {
            let new_slot = run.to_slot(node, rstart);
            self.index.insert(run.id, rstart);
            self.order.insert((rstart, run.id), new_slot);
            remnants.push(new_slot);
        }
    }

    /// One defragmentation pass over every node timeline: merges touching
    /// equal-attribute runs (head keeps its id), returns the number of
    /// runs absorbed. Identical merge decisions to the flat list's
    /// `coalesce`, at `O(n log n)` instead of a full rebuild.
    pub(crate) fn coalesce(&mut self) -> usize {
        if self.order.len() < 2 {
            return 0;
        }
        let mut absorbed_total = 0;
        for timeline in self.timelines.values_mut() {
            let outcome = timeline.merge_touching();
            for (start, id) in &outcome.absorbed {
                self.order.remove(&(*start, *id));
                self.index.remove(id);
            }
            for (start, id, end) in &outcome.extended {
                let slot = self
                    .order
                    .get_mut(&(*start, *id))
                    .expect("extended heads stay live");
                *slot = slot
                    .with_span(
                        *id,
                        Span::new(*start, *end).expect("merged spans are non-empty"),
                    )
                    .expect("merged spans are non-empty");
            }
            absorbed_total += outcome.absorbed.len();
        }
        absorbed_total
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.index.len() != self.order.len() {
            return Err(CoreError::DuplicateSlotId {
                id: SlotId::new(self.next_id),
            });
        }
        let mut run_total = 0;
        for (&node, timeline) in &self.timelines {
            timeline.validate(node)?;
            run_total += timeline.len();
            for (start, run) in timeline.iter() {
                let slot = self
                    .order
                    .get(&(start, run.id))
                    .ok_or(CoreError::SlotNotFound { id: run.id })?;
                if slot.node() != node
                    || slot.end() != run.end
                    || slot.perf() != run.perf
                    || slot.price() != run.price
                {
                    return Err(CoreError::SlotNotFound { id: run.id });
                }
            }
        }
        if run_total != self.order.len() {
            return Err(CoreError::DuplicateSlotId {
                id: SlotId::new(self.next_id),
            });
        }
        for (&(start, id), slot) in &self.order {
            if (slot.start(), slot.id()) != (start, id) {
                return Err(CoreError::SlotNotFound { id: slot.id() });
            }
            if self.index.get(&id) != Some(&start) {
                return Err(CoreError::SlotNotFound { id });
            }
            if id.raw() >= self.next_id {
                return Err(CoreError::DuplicateSlotId { id });
            }
        }
        Ok(())
    }

    pub(crate) fn into_slots(
        self,
    ) -> std::collections::btree_map::IntoValues<(TimePoint, SlotId), Slot> {
        self.order.into_values()
    }

    /// Per-node timeline dump in ascending node order, each node's slots
    /// in start order — the serialized "interval form".
    pub(crate) fn node_slots(&self) -> Vec<(NodeId, Vec<Slot>)> {
        let mut nodes: Vec<(NodeId, Vec<Slot>)> = self
            .timelines
            .iter()
            .map(|(&node, timeline)| {
                (
                    node,
                    timeline
                        .iter()
                        .map(|(start, run)| run.to_slot(node, start))
                        .collect(),
                )
            })
            .collect();
        nodes.sort_by_key(|(node, _)| *node);
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn run(id: u64, a: i64, b: i64) -> (TimePoint, Run) {
        (
            TimePoint::new(a),
            Run {
                end: TimePoint::new(b),
                id: SlotId::new(id),
                perf: Perf::UNIT,
                price: Price::from_credits(2),
            },
        )
    }

    fn set(runs: &[(u64, i64, i64)]) -> IntervalSet {
        let mut s = IntervalSet::new();
        for &(id, a, b) in runs {
            let (start, r) = run(id, a, b);
            s.insert(start, r).unwrap();
        }
        s
    }

    #[test]
    fn insert_rejects_overlap_with_neighbours() {
        let mut s = set(&[(0, 0, 30), (1, 50, 80)]);
        // Reaches into the predecessor.
        let (start, r) = run(2, 20, 40);
        assert_eq!(s.insert(start, r), Err(SlotId::new(0)));
        // Reaches into the successor.
        let (start, r) = run(3, 40, 60);
        assert_eq!(s.insert(start, r), Err(SlotId::new(1)));
        // Exact start collision.
        let (start, r) = run(4, 50, 55);
        assert_eq!(s.insert(start, r), Err(SlotId::new(1)));
        // Touching on both sides is fine.
        let (start, r) = run(5, 30, 50);
        assert!(s.insert(start, r).is_ok());
        assert_eq!(s.len(), 3);
        s.validate(NodeId::new(0)).unwrap();
    }

    #[test]
    fn covering_finds_the_unique_container() {
        let s = set(&[(0, 0, 30), (1, 50, 80)]);
        assert_eq!(s.covering(span(55, 70)).unwrap().1.id, SlotId::new(1));
        assert!(s.covering(span(25, 55)).is_none());
        assert!(s.covering(span(30, 40)).is_none());
    }

    #[test]
    fn candidates_include_the_reaching_predecessor() {
        let s = set(&[(0, 0, 30), (1, 40, 70), (2, 80, 120)]);
        let c = s.candidates(span(20, 90));
        let ids: Vec<u64> = c.iter().map(|(_, r)| r.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // A predecessor ending before the region is still listed (the
        // caller's intersect filters it) but nothing before it is.
        let c = s.candidates(span(35, 90));
        let ids: Vec<u64> = c.iter().map(|(_, r)| r.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn subtract_interior_mints_left_then_right() {
        let mut s = set(&[(0, 0, 100)]);
        let mut next = 10u64;
        let minted: Vec<(TimePoint, Run)> = s
            .subtract(TimePoint::new(0), span(30, 60), || {
                let id = SlotId::new(next);
                next += 1;
                id
            })
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(minted.len(), 2);
        assert_eq!(minted[0].1.id, SlotId::new(10));
        assert_eq!(minted[0].0, TimePoint::new(0));
        assert_eq!(minted[0].1.end, TimePoint::new(30));
        assert_eq!(minted[1].1.id, SlotId::new(11));
        assert_eq!(minted[1].0, TimePoint::new(60));
        s.validate(NodeId::new(0)).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn subtract_outside_cut_is_an_error_and_a_noop() {
        let mut s = set(&[(0, 10, 20)]);
        let err = s
            .subtract(TimePoint::new(10), span(15, 30), || SlotId::new(99))
            .unwrap_err();
        assert!(matches!(err, CoreError::CutOutsideSlot { .. }));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_touching_keeps_the_head_id() {
        let mut s = set(&[(0, 0, 30), (1, 30, 60), (2, 60, 100), (3, 110, 130)]);
        let outcome = s.merge_touching();
        assert_eq!(
            outcome.absorbed,
            vec![
                (TimePoint::new(30), SlotId::new(1)),
                (TimePoint::new(60), SlotId::new(2)),
            ]
        );
        assert_eq!(
            outcome.extended,
            vec![(TimePoint::ZERO, SlotId::new(0), TimePoint::new(100))]
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.covering(span(0, 100)).unwrap().1.id, SlotId::new(0));
        // Idempotent.
        assert!(s.merge_touching().absorbed.is_empty());
    }

    #[test]
    fn merge_touching_respects_attribute_changes() {
        let mut s = IntervalSet::new();
        let (start, r) = run(0, 0, 30);
        s.insert(start, r).unwrap();
        s.insert(
            TimePoint::new(30),
            Run {
                end: TimePoint::new(60),
                id: SlotId::new(1),
                perf: Perf::UNIT,
                price: Price::from_credits(9),
            },
        )
        .unwrap();
        assert!(s.merge_touching().absorbed.is_empty());
        assert_eq!(s.len(), 2);
    }
}
