//! The two containers inside the market store ([`crate::SlotList`]).
//!
//! * [`Order`] holds every live slot in `(start, id)` order, cut into
//!   sorted blocks of at most `BLOCK_CAP` slots: it walks like a vector
//!   and splices one block. Everything above it — the per-node
//!   timelines, id minting and every market algorithm — is in
//!   [`crate::SlotList`]; the two iterator types it hands out are block
//!   walks.
//! * [`IntervalSet`] is one node's timeline of disjoint free intervals,
//!   `start → (id, end)`, which makes overlap checks, region queries and
//!   finding a cut's source `O(log n)` tree steps. Price and performance
//!   live once, in the slot held by the `Order`.

use std::collections::BTreeMap;
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

    /// Removes the slot at `key`, which must be live.
    pub(crate) fn remove(&mut self, at: Key) {
        let (b, pos) = self.index(at).expect("the removed slot is live");
        let block = &mut self.blocks[b];
        debug_assert_eq!(
            block.get(pos).map(key),
            Some(at),
            "the removed slot is live"
        );
        block.remove(pos);
        self.len -= 1;
        if block.is_empty() {
            self.blocks.remove(b);
            self.firsts.remove(b);
        }
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

    /// The span of the run carrying `id`: a walk over the node's runs, for
    /// telling apart the ways a cut can miss its source.
    pub(crate) fn span_of(&self, id: SlotId) -> Option<Span> {
        let (&start, &(_, end)) = self.runs.iter().find(|(_, run)| run.0 == id)?;
        Span::new(start, end)
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
    use proptest::prelude::*;

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
        order.remove(at(10, 0));
        order.remove(at(10, 4));
        let left = vec![slot(3, 0, 20), slot(1, 10, 40), slot(2, 25, 60)];
        assert_eq!(order.iter().copied().collect::<Vec<_>>(), left);
        assert_eq!(order.into_slots().collect::<Vec<_>>(), left);
        assert_eq!(Order::default().iter().next(), None);
        assert_eq!(from(&Order::default(), 0), []);
    }

    /// The blocked order's own invariants: no empty or oversized block,
    /// each first key after block 0's between the last key of the block
    /// before it and its own block's first key (block 0's is never
    /// decisive: every key below block 1's first key locates to block 0),
    /// and the length the blocks add up to.
    #[track_caller]
    fn assert_blocks_sound(blocks: &Order) {
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
        /// Drains a walk from both ends, turning where `turns` has a bit.
        Walk { turns: u64 },
    }

    /// The shim has no `prop_oneof`: `tag`'s range width is the weight.
    fn order_op() -> impl Strategy<Value = OrderOp> {
        (0u32..12, 0usize..1_000, -20i64..240, 0u64..u64::MAX).prop_map(
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
                _ => OrderOp::Walk { turns },
            },
        )
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
