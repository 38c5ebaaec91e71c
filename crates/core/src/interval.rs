//! The two containers inside the market store ([`crate::SlotList`]).
//!
//! * [`Order`] holds every live slot in `(start, id)` order, cut into
//!   sorted blocks of at most `BLOCK_CAP` slots: it walks like a vector
//!   and splices one block. Everything above it — the per-node
//!   timelines, id minting and every market algorithm — is in
//!   [`crate::SlotList`]; the two iterator types it hands out are block
//!   walks.
//! * [`IntervalSet`] is one node's timeline of disjoint free intervals,
//!   `(start, id, end)` runs in a vector sorted by start, which makes
//!   overlap checks, region queries and finding a cut's source one binary
//!   search over the node's few runs. Price and performance live once, in
//!   the slot held by the `Order`.

use std::{slice, vec};

use crate::error::CoreError;
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Span, TimePoint};

/// A slot's position in `(start, id)` order.
pub(crate) type Key = (TimePoint, SlotId);

pub(crate) fn key(slot: &Slot) -> Key {
    (slot.start(), slot.id())
}

/// One run of a node's timeline: `(start, id, end)`.
pub(crate) type Run = (TimePoint, SlotId, TimePoint);

/// The most slots one block holds; a block that grows past it splits in
/// half, and a bulk load fills blocks half full. DESIGN §16 records why
/// 128.
const BLOCK_CAP: usize = 128;

/// Every live slot in `(start, id)` order, cut into non-empty blocks of
/// at most [`BLOCK_CAP`] slots. `firsts[b]` separates block `b` from the
/// one before it: above that block's last key, and at or below the key
/// of `blocks[b][0]`. It is set exactly when the block is made and left
/// alone when the block's first slot changes, since a key between the
/// two blocks locates the same either way. The first keys are held in a
/// vector of their own so that a lookup binary-searches one contiguous
/// array and then one block.
#[derive(Debug, Clone, Default)]
pub(crate) struct Order {
    blocks: Vec<Vec<Slot>>,
    firsts: Vec<Key>,
    len: usize,
}

impl Order {
    /// Bulk-loads slots the caller has checked to be in strictly
    /// increasing `(start, id)` order into half-full blocks.
    pub(crate) fn from_sorted(slots: &[Slot]) -> Self {
        let blocks: Vec<Vec<Slot>> = slots.chunks(BLOCK_CAP / 2).map(<[Slot]>::to_vec).collect();
        Order {
            firsts: blocks.iter().map(|block| key(&block[0])).collect(),
            blocks,
            len: slots.len(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The block `at` belongs in — the last whose first key is at or
    /// before it, or block 0 for a key before every slot — and the
    /// position in that block of the first slot at or after `at`.
    /// `None` when there are no blocks.
    fn index(&self, at: Key) -> Option<(usize, usize)> {
        let b = self.firsts.partition_point(|first| *first <= at);
        let b = b.saturating_sub(1);
        Some((b, position(self.blocks.get(b)?, at)))
    }

    pub(crate) fn get(&self, at: Key) -> Option<&Slot> {
        let (b, pos) = self.index(at)?;
        self.blocks[b].get(pos).filter(|s| key(s) == at)
    }

    /// Inserts a slot whose id is not in the container.
    pub(crate) fn insert(&mut self, slot: Slot) {
        let at = key(&slot);
        self.len += 1;
        let Some((b, pos)) = self.index(at) else {
            self.blocks.push(vec![slot]);
            self.firsts.push(at);
            return;
        };
        let block = &mut self.blocks[b];
        block.insert(pos, slot);
        if block.len() > BLOCK_CAP {
            let upper = block.split_off(block.len() / 2);
            self.firsts.insert(b + 1, key(&upper[0]));
            self.blocks.insert(b + 1, upper);
        }
    }

    /// The block and position of the live slot at `at`.
    fn locate(&self, at: Key) -> (usize, usize) {
        let found = self.index(at).filter(|&(b, pos)| {
            let block = &self.blocks[b];
            block.get(pos).map(key) == Some(at)
        });
        found.expect("the slot at the key is live")
    }

    /// Removes the slot at `at`, which must be live, and returns it.
    pub(crate) fn remove(&mut self, at: Key) -> Slot {
        let (b, pos) = self.locate(at);
        self.take(b, pos)
    }

    fn take(&mut self, b: usize, pos: usize) -> Slot {
        let block = &mut self.blocks[b];
        let slot = block.remove(pos);
        self.len -= 1;
        if block.is_empty() {
            self.blocks.remove(b);
            self.firsts.remove(b);
        }
        slot
    }

    /// Puts `with(slot)` in the place of the live slot at `at` and returns
    /// both, the slot taken first. The new slot must keep the start and
    /// sort after every live slot at it: a left remnant under the
    /// freshest id taking its source's place. It moves forward past the
    /// same-start slots in the block, one search and one memmove; only
    /// when that run reaches the block's end and the next block's first
    /// key is not above the new key is it removed and inserted instead.
    pub(crate) fn replace(&mut self, at: Key, with: impl FnOnce(&Slot) -> Slot) -> (Slot, Slot) {
        let (b, pos) = self.locate(at);
        let block = &mut self.blocks[b];
        let (taken, placed) = (block[pos], with(&block[pos]));
        let to = key(&placed);
        debug_assert!(to.0 == at.0 && to > at, "a replacement keeps the start");
        let end = pos + 1 + position(&block[pos + 1..], to);
        if end == block.len() && self.firsts.get(b + 1).is_some_and(|first| *first <= to) {
            self.take(b, pos);
            self.insert(placed);
        } else {
            block[pos..end].rotate_left(1);
            block[end - 1] = placed;
        }
        (taken, placed)
    }

    /// Drops every slot that starts before `now` and that `keep` refuses,
    /// in order, and returns how many went. Each block of that prefix is
    /// filtered where it lies, and a block left empty goes; a block's
    /// first key stays a valid separator when its first slot goes.
    pub(crate) fn retain_before(
        &mut self,
        now: TimePoint,
        mut keep: impl FnMut(&Slot) -> bool,
    ) -> usize {
        let before = self.len;
        let mut b = 0;
        while let Some(block) = self.blocks.get_mut(b) {
            if block[0].start() >= now {
                break;
            }
            let held = block.len();
            block.retain(|slot| slot.start() >= now || keep(slot));
            self.len -= held - block.len();
            if block.is_empty() {
                self.blocks.remove(b);
                self.firsts.remove(b);
            } else {
                b += 1;
            }
        }
        before - self.len
    }

    /// Takes every slot that starts at or before `until` out of the
    /// order, in order: the blocks wholly before it go whole, and the
    /// block it falls in is cut.
    pub(crate) fn take_through(&mut self, until: TimePoint) -> Vec<Slot> {
        if self.blocks.is_empty() {
            return Vec::new();
        }
        // Every slot of a later block sorts at or after its first key, so
        // only the blocks whose first key starts at or before `until`, and
        // block 0, whose first key is never decisive, can hold any.
        let last = self.firsts[1..].partition_point(|first| first.0 <= until);
        let cut = self.blocks[last].partition_point(|slot| slot.start() <= until);
        let whole = self.blocks[..last].iter().map(Vec::len).sum::<usize>();
        let mut taken = Vec::with_capacity(whole + cut);
        for block in self.blocks.drain(..last) {
            taken.extend(block);
        }
        self.firsts.drain(..last);
        taken.extend(self.blocks[0].drain(..cut));
        if self.blocks[0].is_empty() {
            self.blocks.remove(0);
            self.firsts.remove(0);
        } else {
            self.firsts[0] = key(&self.blocks[0][0]);
        }
        self.len -= taken.len();
        taken
    }

    /// Puts slots in strictly increasing `(start, id)` order, all before
    /// every live slot, in front of the order as half-full blocks.
    pub(crate) fn prepend(&mut self, slots: &[Slot]) {
        let Some(last) = slots.last() else { return };
        if let Some(block) = self.blocks.first() {
            debug_assert!(key(last) < key(&block[0]), "prepended slots come first");
            // The old first block's separator is no longer block 0's,
            // which is never decisive, so it must now be exact.
            self.firsts[0] = key(&block[0]);
        }
        let front = Order::from_sorted(slots);
        self.len += front.len;
        self.blocks.splice(..0, front.blocks);
        self.firsts.splice(..0, front.firsts);
    }

    pub(crate) fn iter(&self) -> SlotIter<'_> {
        SlotIter::new(&[], &self.blocks)
    }

    /// Every slot with `start >= from`, in order.
    pub(crate) fn range_from(&self, from: TimePoint) -> SlotIter<'_> {
        match self.index((from, SlotId::new(0))) {
            Some((b, pos)) => SlotIter::new(&self.blocks[b][pos..], &self.blocks[b + 1..]),
            None => SlotIter::new(&[], &[]),
        }
    }

    pub(crate) fn into_slots(self) -> SlotIntoIter {
        SlotIntoIter {
            front: Vec::new().into_iter(),
            blocks: self.blocks.into_iter(),
        }
    }
}

/// Index of the first slot at or after `key` in a sorted slice.
fn position(slots: &[Slot], at: Key) -> usize {
    slots.partition_point(|slot| key(slot) < at)
}

/// Borrowed iterator over a [`SlotList`](crate::SlotList)'s slots in
/// `(start, id)` order: the slots left in the current block, the blocks
/// after it, and what a walk from the back has left of the last block it
/// entered.
#[derive(Debug, Clone)]
pub struct SlotIter<'a> {
    front: slice::Iter<'a, Slot>,
    blocks: slice::Iter<'a, Vec<Slot>>,
    back: slice::Iter<'a, Slot>,
}

impl<'a> SlotIter<'a> {
    fn new(front: &'a [Slot], blocks: &'a [Vec<Slot>]) -> Self {
        SlotIter {
            front: front.iter(),
            blocks: blocks.iter(),
            back: [].iter(),
        }
    }
}

impl<'a> Iterator for SlotIter<'a> {
    type Item = &'a Slot;

    fn next(&mut self) -> Option<&'a Slot> {
        loop {
            if let Some(slot) = self.front.next() {
                return Some(slot);
            }
            match self.blocks.next() {
                Some(block) => self.front = block.iter(),
                None => return self.back.next(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let inner: usize = self.blocks.as_slice().iter().map(Vec::len).sum();
        let len = self.front.len() + inner + self.back.len();
        (len, Some(len))
    }
}

impl DoubleEndedIterator for SlotIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(slot) = self.back.next_back() {
                return Some(slot);
            }
            match self.blocks.next_back() {
                Some(block) => self.back = block.iter(),
                None => return self.front.next_back(),
            }
        }
    }
}

/// Owning iterator over a [`SlotList`](crate::SlotList)'s slots in
/// `(start, id)` order: the rest of the current block, then the blocks
/// after it.
#[derive(Debug)]
pub struct SlotIntoIter {
    front: vec::IntoIter<Slot>,
    blocks: vec::IntoIter<Vec<Slot>>,
}

impl Iterator for SlotIntoIter {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        loop {
            if let Some(slot) = self.front.next() {
                return Some(slot);
            }
            self.front = self.blocks.next()?.into_iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let inner: usize = self.blocks.as_slice().iter().map(Vec::len).sum();
        let len = self.front.len() + inner;
        (len, Some(len))
    }
}

/// A single node's timeline of disjoint free runs, `(start, id, end)`,
/// held in a vector sorted by start.
///
/// Same-node disjointness makes the start a unique key. Every operation
/// is one binary search over the node's runs, and an insert or a removal
/// also moves the runs after its position by one: `O(log r + r)` for `r`
/// runs on the node. Engine markets hold one or two runs per node
/// (DESIGN §16), where that memmove is a few words and a tree's node
/// allocation per timeline is not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IntervalSet {
    runs: Vec<Run>,
}

impl IntervalSet {
    pub(crate) fn len(&self) -> usize {
        self.runs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Where a run starting at `start` is, or would go.
    fn find(&self, start: TimePoint) -> Result<usize, usize> {
        self.runs.binary_search_by_key(&start, |run| run.0)
    }

    /// The number of runs starting at or before `at`: the last of them is
    /// the only one that can reach past `at`.
    fn through(&self, at: TimePoint) -> usize {
        self.runs.partition_point(|run| run.0 <= at)
    }

    /// The `(id, end)` of the run starting exactly at `start`.
    pub(crate) fn get(&self, start: TimePoint) -> Option<(SlotId, TimePoint)> {
        let at = self.find(start).ok()?;
        let (_, id, end) = self.runs[at];
        Some((id, end))
    }

    /// Inserts the run `[start, end)`, enforcing disjointness against
    /// its neighbours.
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
        // A run at exactly `start` is the predecessor, and reaches past it.
        let at = self.through(start);
        if let Some(&(_, prev, prev_end)) = at.checked_sub(1).map(|p| &self.runs[p]) {
            if prev_end > start {
                return Err(prev);
            }
        }
        if let Some(&(next_start, next, _)) = self.runs.get(at) {
            if next_start < end {
                return Err(next);
            }
        }
        self.runs.insert(at, (start, id, end));
        Ok(())
    }

    /// Removes the run starting exactly at `start`.
    pub(crate) fn remove(&mut self, start: TimePoint) {
        if let Ok(at) = self.find(start) {
            self.runs.remove(at);
        }
    }

    /// Sets the run at `start` without a neighbour check: a piece of a
    /// run the timeline held until just now, or a run grown over the
    /// touching runs just removed.
    pub(crate) fn put(&mut self, start: TimePoint, id: SlotId, end: TimePoint) {
        match self.find(start) {
            Ok(at) => self.runs[at] = (start, id, end),
            Err(at) => self.runs.insert(at, (start, id, end)),
        }
    }

    /// The run whose interval fully contains `region`, if any: at most
    /// one exists, the last run starting at or before `region.start()`.
    pub(crate) fn covering(&self, region: Span) -> Option<Run> {
        let last = self.through(region.start()).checked_sub(1)?;
        let run = self.runs[last];
        (run.2 >= region.end()).then_some(run)
    }

    /// The span of the run carrying `id`: a walk over the node's runs, for
    /// telling apart the ways a cut can miss its source.
    pub(crate) fn span_of(&self, id: SlotId) -> Option<Span> {
        let &(start, _, end) = self.runs.iter().find(|run| run.1 == id)?;
        Span::new(start, end)
    }

    /// Every run that could overlap `region`, in start order: the
    /// predecessor of `region.start()` (which may reach into the region)
    /// followed by every run starting inside it. Callers intersect each
    /// candidate; a predecessor ending at or before `region.start()` is
    /// simply not affected.
    pub(crate) fn candidates(&self, region: Span) -> &[Run] {
        let inside = self.runs.partition_point(|run| run.0 < region.start());
        let beyond = self.runs.partition_point(|run| run.0 < region.end());
        &self.runs[inside.saturating_sub(1)..beyond]
    }

    /// Checks adjacency disjointness and per-run well-formedness; runs
    /// out of start order show up as an overlap.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OverlappingSlots`] (with the two offending
    /// ids) on the first adjacency violation.
    pub(crate) fn validate(&self, node: NodeId) -> Result<(), CoreError> {
        let mut prev: Option<(SlotId, TimePoint)> = None;
        for &(start, id, end) in &self.runs {
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
pub(crate) mod tests {
    use super::*;
    use crate::money::Price;
    use crate::perf::Perf;
    use crate::time::TimeDelta;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn at(start: i64, id: u64) -> Key {
        (TimePoint::new(start), SlotId::new(id))
    }

    fn run(id: u64, a: i64, b: i64) -> Run {
        (TimePoint::new(a), SlotId::new(id), TimePoint::new(b))
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
        assert_eq!(s.covering(span(55, 70)), Some(run(1, 50, 80)));
        assert!(s.covering(span(25, 55)).is_none());
        assert!(s.covering(span(30, 40)).is_none());
    }

    #[test]
    fn candidates_include_the_reaching_predecessor() {
        let s = set(&[(0, 0, 30), (1, 40, 70), (2, 80, 120)]);
        let all = vec![run(0, 0, 30), run(1, 40, 70), run(2, 80, 120)];
        assert_eq!(s.candidates(span(20, 90)), all);
        // A predecessor ending before the region is still listed (the
        // caller's intersect filters it) but nothing before it is.
        assert_eq!(s.candidates(span(35, 90)), all);
        assert_eq!(s.candidates(span(75, 90)), &all[1..]);
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

    /// Every `Order` primitive against the sorted vector it was loaded
    /// from.
    #[test]
    fn order_answers_every_primitive() {
        let sorted = vec![
            slot(3, 0, 20),
            slot(1, 10, 40),
            slot(4, 10, 30),
            slot(2, 25, 60),
        ];
        let mut order = Order::from_sorted(&sorted);
        assert_eq!(order.len(), 4);
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
        assert_eq!(order.remove(at(10, 0)), slot(0, 10, 15));
        // Slot 1's left piece under id 5 moves past slot 4 at the same start.
        let piece = sorted[1].with_span(SlotId::new(5), span(10, 20)).unwrap();
        let (taken, placed) = order.replace(at(10, 1), |s| {
            s.with_span(SlotId::new(5), span(10, 20)).unwrap()
        });
        assert_eq!((taken, placed), (sorted[1], piece));
        assert_eq!(from(&order, 10), [sorted[2], piece, sorted[3]]);
        assert_eq!(order.remove(at(10, 4)), sorted[2]);
        order.remove(at(10, 5));
        order.insert(sorted[1]);
        let left = vec![slot(3, 0, 20), slot(1, 10, 40), slot(2, 25, 60)];
        assert_eq!(order.iter().copied().collect::<Vec<_>>(), left);
        assert_eq!(order.into_slots().collect::<Vec<_>>(), left);
        assert_eq!(Order::default().iter().next(), None);
        assert_eq!(from(&Order::default(), 0), []);
    }

    /// A replacement moves past the same-start slots to the end of its
    /// block, and falls back to remove + insert only when the run goes on
    /// in the next block: with 100 slots at one start, bulk-loaded into
    /// blocks of 64 and 36, and a slot at a later start behind them.
    #[test]
    fn a_replacement_crosses_a_block_only_through_the_fallback() {
        let mut sorted: Vec<Slot> = (0..100).map(|id| slot(id, 5, 50)).collect();
        sorted.push(slot(100, 7, 50));
        let mut model: BTreeMap<Key, Slot> = sorted.iter().map(|s| (key(s), *s)).collect();
        let mut order = Order::from_sorted(&sorted);
        assert_eq!(order.blocks.len(), 2);
        // In block 0, whose run goes on in block 1: the fallback. In block
        // 1, whose run ends before slot 100: in place, in front of it.
        // Then block 0's first slot, through the fallback again.
        for (id, at) in (101..).zip([at(5, 10), at(5, 70), at(5, 0)]) {
            let fresh = slot(id, 5, 20);
            let (taken, placed) = order.replace(at, |_| fresh);
            assert_eq!((taken, placed), (model.remove(&at).unwrap(), fresh));
            model.insert(key(&fresh), fresh);
            assert_blocks_sound(&order);
            assert!(order.iter().eq(model.values()));
        }
        // Block 0's run now ends at its last slot and block 1 starts at
        // a later start: the new slot stays at block 0's end.
        let mut order = Order::from_sorted(&[slot(0, 5, 50), slot(1, 5, 50), slot(2, 7, 50)]);
        order.blocks = vec![order.blocks[0][..2].to_vec(), order.blocks[0][2..].to_vec()];
        order.firsts = vec![at(5, 0), at(7, 2)];
        order.replace(at(5, 0), |_| slot(3, 5, 20));
        assert_eq!(order.blocks[0], [slot(1, 5, 50), slot(3, 5, 20)]);
        assert_blocks_sound(&order);
    }

    /// The blocked order's own invariants: no empty or oversized block,
    /// each first key after block 0's between the last key of the block
    /// before it and its own block's first key (block 0's is never
    /// decisive: every key below block 1's first key locates to block 0),
    /// and the length the blocks add up to.
    #[track_caller]
    pub(crate) fn assert_blocks_sound(blocks: &Order) {
        assert_eq!(blocks.firsts.len(), blocks.blocks.len());
        for block in &blocks.blocks {
            assert!(
                (1..=BLOCK_CAP).contains(&block.len()),
                "block of {}",
                block.len()
            );
        }
        for (pair, &first) in blocks.blocks.windows(2).zip(blocks.firsts.iter().skip(1)) {
            let (before, block) = (&pair[0], &pair[1]);
            assert!(
                key(&before[before.len() - 1]) < first,
                "first key not above the block before"
            );
            assert!(
                first <= key(&block[0]),
                "first key above its block's first slot"
            );
        }
        let held: usize = blocks.blocks.iter().map(Vec::len).sum();
        assert_eq!(held, blocks.len);
    }

    /// One container operation; raw integers are read against the live
    /// keys when it runs.
    #[derive(Debug, Clone, Copy)]
    enum OrderOp {
        /// `burst` fresh ids at `start`, anywhere from before the first
        /// slot to past the last: adjacent keys, so blocks split.
        Insert { start: i64, burst: usize },
        /// Removes `run` consecutive live slots from the `pick`-th on,
        /// which empties blocks.
        Remove { pick: usize, run: usize },
        /// Looks up the `pick`-th live key, and its id `shift` ticks off.
        Get { pick: usize, shift: i64 },
        /// Walks from the `pick`-th live key's start, from `start`, and
        /// from past the end.
        RangeFrom { pick: usize, start: i64 },
        /// Replaces the `pick`-th live slot with a fresh id at its start
        /// (a left remnant), or, with `edge`, the slot at the end of the
        /// `pick`-th block, where a same-start run may go on in the next.
        Replace { pick: usize, edge: bool },
        /// Drains a walk from both ends, turning where `turns` has a bit.
        Walk { turns: u64 },
    }

    /// The shim has no `prop_oneof`: `tag`'s range width is the weight.
    fn order_op() -> impl Strategy<Value = OrderOp> {
        (0u32..14, 0usize..1_000, -20i64..240, 0u64..u64::MAX).prop_map(
            |(tag, pick, start, turns)| match tag {
                0..=3 => OrderOp::Insert {
                    start,
                    burst: 1 + pick % 24,
                },
                4..=6 => OrderOp::Remove {
                    pick,
                    run: if tag == 6 { 1 + pick % 80 } else { 1 },
                },
                7 | 8 => OrderOp::Get { pick, shift: start },
                9 | 10 => OrderOp::RangeFrom { pick, start },
                11 => OrderOp::Walk { turns },
                _ => OrderOp::Replace {
                    pick,
                    edge: tag == 13,
                },
            },
        )
    }

    /// One timeline operation; raw integers are read against the live
    /// runs when it runs.
    #[derive(Debug, Clone, Copy)]
    enum TimelineOp {
        /// A run at `start`, or at the `pick`-th live start when `at_live`
        /// (an exact-start collision), checked against its neighbours.
        Insert {
            start: i64,
            len: i64,
            pick: usize,
            at_live: bool,
        },
        /// Cuts `[from, from + len)` out of the `pick`-th run the way a
        /// subtraction does: remove, then `put` the pieces under new ids.
        Cut { pick: usize, from: i64, len: i64 },
        /// Overwrites the `pick`-th run's id and end in place with `put`,
        /// or puts a run into the gap after it.
        Put { pick: usize, len: i64, gap: bool },
        /// Removes the run at the `pick`-th live start, or at `start`.
        Remove {
            pick: usize,
            start: i64,
            at_live: bool,
        },
        /// Every query over `[start, start + len)`, and `get`/`span_of`
        /// of the `pick`-th run.
        Query { pick: usize, start: i64, len: i64 },
    }

    fn timeline_op() -> impl Strategy<Value = TimelineOp> {
        (0u32..12, 0usize..1_000, -5i64..130, 1i64..25).prop_map(
            |(tag, pick, start, len)| match tag {
                0..=3 => TimelineOp::Insert {
                    start,
                    len,
                    pick,
                    at_live: tag == 3,
                },
                4 | 5 => TimelineOp::Cut {
                    pick,
                    from: start,
                    len,
                },
                6 => TimelineOp::Put {
                    pick,
                    len,
                    gap: start % 2 == 0,
                },
                7 => TimelineOp::Remove {
                    pick,
                    start,
                    at_live: start % 3 != 0,
                },
                _ => TimelineOp::Query { pick, start, len },
            },
        )
    }

    /// The model's answer to `covering`, as the tree gave it: the last
    /// run starting at or before the region, if it reaches its end.
    fn model_covering(
        model: &BTreeMap<TimePoint, (SlotId, TimePoint)>,
        region: Span,
    ) -> Option<Run> {
        let (&start, &(id, end)) = model.range(..=region.start()).next_back()?;
        (end >= region.end()).then_some((start, id, end))
    }

    /// The model's `candidates`: the run before the region's start, then
    /// every run starting inside it.
    fn model_candidates(
        model: &BTreeMap<TimePoint, (SlotId, TimePoint)>,
        region: Span,
    ) -> Vec<Run> {
        let before = model.range(..region.start()).next_back();
        let inside = model.range(region.start()..region.end());
        let runs = before.into_iter().chain(inside);
        runs.map(|(&start, &(id, end))| (start, id, end)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One node's timeline against the `BTreeMap` it used to be: every
        /// operation, the neighbour check's errors (a predecessor reaching
        /// in, a successor starting inside, an exact-start collision) and
        /// every query, on short ticks so that runs touch and collide.
        #[test]
        fn timelines_match_a_btree_model(
            ops in prop::collection::vec(timeline_op(), 1..120),
        ) {
            let mut model: BTreeMap<TimePoint, (SlotId, TimePoint)> = BTreeMap::new();
            let mut timeline = IntervalSet::default();
            let mut next_id = 0u64;
            let mint = |next_id: &mut u64| {
                *next_id += 1;
                SlotId::new(*next_id - 1)
            };
            let t = TimePoint::new;
            for (step, op) in ops.iter().enumerate() {
                let runs: Vec<Run> = model.iter().map(|(&s, &(id, e))| (s, id, e)).collect();
                let picked = |pick: usize| runs.get(pick % runs.len().max(1)).copied();
                match *op {
                    TimelineOp::Insert { start, len, pick, at_live } => {
                        let start = match picked(pick) {
                            Some(run) if at_live => run.0,
                            _ => t(start),
                        };
                        let (id, end) = (mint(&mut next_id), start + TimeDelta::new(len));
                        let prev = model.range(..=start).next_back();
                        let next = model.range(start..).next();
                        let want = match (prev, next) {
                            (Some((_, &(prev, prev_end))), _) if prev_end > start => Err(prev),
                            (_, Some((&next_start, &(next, _)))) if next_start < end => Err(next),
                            _ => Ok(()),
                        };
                        if want.is_ok() {
                            model.insert(start, (id, end));
                        }
                        prop_assert_eq!(timeline.insert(start, id, end), want, "step {}", step);
                    }
                    TimelineOp::Cut { pick, from, len } => {
                        let Some(run) = picked(pick) else { continue };
                        let span = Span::new(run.0, run.2).unwrap();
                        let length = span.length().ticks();
                        let from = run.0 + TimeDelta::new(from.rem_euclid(length));
                        let cut = Span::new(from, (from + TimeDelta::new(len)).min(run.2)).unwrap();
                        let (left, right) = span.subtract(cut);
                        model.remove(&run.0);
                        timeline.remove(run.0);
                        for piece in [left, right].into_iter().flatten() {
                            let id = mint(&mut next_id);
                            model.insert(piece.start(), (id, piece.end()));
                            timeline.put(piece.start(), id, piece.end());
                        }
                    }
                    TimelineOp::Put { pick, len, gap } => {
                        let Some(run) = picked(pick) else { continue };
                        let id = mint(&mut next_id);
                        let next_start = model.range(run.2..).next().map(|(&s, _)| s);
                        let (start, end) = if gap {
                            let end = run.2 + TimeDelta::new(len);
                            (run.2, next_start.map_or(end, |next| end.min(next)))
                        } else {
                            (run.0, run.0 + TimeDelta::new(len).min(run.2 - run.0))
                        };
                        if start < end {
                            model.insert(start, (id, end));
                            timeline.put(start, id, end);
                        }
                    }
                    TimelineOp::Remove { pick, start, at_live } => {
                        let start = match picked(pick) {
                            Some(run) if at_live => run.0,
                            _ => t(start),
                        };
                        model.remove(&start);
                        timeline.remove(start);
                    }
                    TimelineOp::Query { pick, start, len } => {
                        let region = Span::new(t(start), t(start + len)).unwrap();
                        prop_assert_eq!(timeline.covering(region), model_covering(&model, region));
                        prop_assert_eq!(
                            timeline.candidates(region),
                            &model_candidates(&model, region)[..],
                            "step {}: candidates of {:?}", step, region
                        );
                        prop_assert_eq!(timeline.get(t(start)), model.get(&t(start)).copied());
                        if let Some(run) = picked(pick) {
                            prop_assert_eq!(timeline.get(run.0), Some((run.1, run.2)));
                            prop_assert_eq!(timeline.span_of(run.1), Span::new(run.0, run.2));
                            // A region inside the run is covered by it.
                            let inside = Span::new(run.0, run.2).unwrap();
                            prop_assert_eq!(timeline.covering(inside), Some(run));
                        }
                        prop_assert_eq!(timeline.span_of(SlotId::new(next_id)), None);
                    }
                }
                let held: Vec<Run> = model.iter().map(|(&s, &(id, e))| (s, id, e)).collect();
                prop_assert_eq!(&timeline.runs, &held, "step {}: {:?}", step, op);
                prop_assert_eq!(timeline.len(), model.len());
                prop_assert_eq!(timeline.is_empty(), model.is_empty());
                prop_assert!(timeline.validate(NodeId::new(0)).is_ok());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The order against a `BTreeMap` model, from a sorted load of up
        /// to four blocks' worth of slots: blocks split, empty and lose or
        /// gain their first slots along the way.
        #[test]
        fn orders_match_a_btree_model(
            starts in prop::collection::vec(0i64..200, 0..4 * BLOCK_CAP),
            ops in prop::collection::vec(order_op(), 1..200),
        ) {
            let seeded: BTreeMap<Key, Slot> = starts
                .iter()
                .enumerate()
                .map(|(id, &start)| slot(id as u64, start, start + 10))
                .map(|s| (key(&s), s))
                .collect();
            let loaded: Vec<Slot> = seeded.values().copied().collect();
            let mut model = seeded;
            let mut order = Order::from_sorted(&loaded);
            let mut next_id = starts.len() as u64;
            for (step, op) in ops.iter().enumerate() {
                let keys: Vec<Key> = model.keys().copied().collect();
                let from_pick = |pick: usize| pick % keys.len().max(1);
                match *op {
                    OrderOp::Insert { start, burst } => {
                        for _ in 0..burst {
                            let s = slot(next_id, start, start + 10);
                            next_id += 1;
                            order.insert(s);
                            model.insert(key(&s), s);
                        }
                    }
                    OrderOp::Remove { pick, run: run_len } => {
                        let run = keys.iter().cycle().skip(from_pick(pick));
                        for &at in run.take(run_len.min(keys.len())) {
                            order.remove(at);
                            model.remove(&at);
                        }
                    }
                    OrderOp::Get { pick, shift } => {
                        if !keys.is_empty() {
                            let (start, id) = keys[from_pick(pick)];
                            prop_assert_eq!(order.get((start, id)), model.get(&(start, id)));
                            let wrong = (TimePoint::new(start.ticks() + shift.max(1)), id);
                            prop_assert_eq!(order.get(wrong), None, "step {}", step);
                        }
                    }
                    OrderOp::RangeFrom { pick, start } => {
                        let past = keys.last().map_or(0, |k| k.0.ticks() + 1);
                        let mut froms = vec![TimePoint::new(start), TimePoint::new(past)];
                        froms.extend(keys.get(from_pick(pick)).map(|k| k.0));
                        for from in froms {
                            let want: Vec<&Slot> =
                                model.range((from, SlotId::new(0))..).map(|(_, s)| s).collect();
                            let walk = order.range_from(from);
                            prop_assert_eq!(walk.size_hint(), (want.len(), Some(want.len())));
                            prop_assert_eq!(walk.collect::<Vec<_>>(), want, "step {}", step);
                        }
                    }
                    OrderOp::Replace { pick, edge } => {
                        let last = |b: &Vec<Slot>| key(&b[b.len() - 1]);
                        let edges: Vec<Key> = order.blocks.iter().map(last).collect();
                        let from = if edge { &edges } else { &keys };
                        if !from.is_empty() {
                            let at = from[pick % from.len()];
                            let fresh = slot(next_id, at.0.ticks(), at.0.ticks() + 5);
                            next_id += 1;
                            let (taken, placed) = order.replace(at, |_| fresh);
                            prop_assert_eq!(Some(taken), model.remove(&at), "step {}", step);
                            prop_assert_eq!(placed, fresh);
                            model.insert(key(&fresh), fresh);
                        }
                    }
                    OrderOp::Walk { turns } => {
                        let (mut walk, mut want) = (order.iter(), model.values());
                        for turn in 0.. {
                            let (got, expected) = if turns >> (turn % 64) & 1 == 1 {
                                (walk.next_back(), want.next_back())
                            } else {
                                (walk.next(), want.next())
                            };
                            prop_assert_eq!(got, expected, "step {} turn {}", step, turn);
                            prop_assert_eq!(walk.size_hint(), want.size_hint());
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
                assert_blocks_sound(&order);
                prop_assert_eq!(order.len(), model.len());
                prop_assert_eq!(order.iter().size_hint(), (model.len(), Some(model.len())));
                prop_assert!(order.iter().eq(model.values()), "step {}: {:?}", step, op);
                prop_assert_eq!(order.iter().next_back(), model.values().next_back());
            }
            let drained = order.into_slots();
            prop_assert_eq!(drained.size_hint(), (model.len(), Some(model.len())));
            prop_assert!(drained.eq(model.into_values()));
        }
    }
}
