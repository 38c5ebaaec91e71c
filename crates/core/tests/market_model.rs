//! An independent reference for the market store.
//!
//! `SlotList` holds every market algorithm once, over one ordered
//! container; `orders_match_a_btree_model` (in `interval.rs`) pins the
//! container against a `BTreeMap`, which says nothing about the
//! algorithms above it. This file pins the algorithms: [`Model`] is the
//! paper's list as a plain `Vec<Slot>` scanned linearly — no per-node
//! timeline, no ordered container — with the subtraction rule of
//! Fig. 1 (b) (a member's source found on its node, left remnant minted
//! before right), region withdrawal, minting inserts, release and the
//! coalescing rule (a chain's head keeps its id, absorbed ids are never
//! reissued) written out directly. The one-walk release of
//! many windows is checked against the model's release member by member,
//! followed by its coalesce when merging. The store is driven through
//! random operation sequences next to it — from empty, from a bulk load
//! of a few slots, and from a bulk load of 300–1 000 slots, many blocks,
//! with the picks spread over all of them — and compared after *every*
//! step: slots, iteration order, reports, errors, the minting cursor and
//! `validate()`; at the end, the list must come back from its wire form
//! unchanged.
//!
//! CI runs this file at `PROPTEST_CASES=512` in the failure-injection
//! job; the local default below keeps `cargo test` fast.

use ecosched_core::{
    CoreError, NodeId, Perf, Price, Slot, SlotId, SlotList, Span, SubtractionReport, TimeDelta,
    TimePoint, Window, WindowSlot,
};
use proptest::prelude::*;

/// The reference: live slots in no particular order, and the next id.
#[derive(Debug, Clone, Default)]
struct Model {
    slots: Vec<Slot>,
    next_id: u64,
}

impl Model {
    fn mint(&mut self) -> SlotId {
        self.next_id += 1;
        SlotId::new(self.next_id - 1)
    }

    /// The list as the paper orders it: by start, ties by id.
    fn ordered(&self) -> Vec<Slot> {
        let mut slots = self.slots.clone();
        slots.sort_by_key(|s| (s.start(), s.id()));
        slots
    }

    /// Files a slot under the next id; a refused one mints nothing.
    fn insert(
        &mut self,
        node: NodeId,
        perf: Perf,
        price: Price,
        span: Span,
    ) -> Result<SlotId, CoreError> {
        let clash = |s: &&Slot| s.node() == node && s.span().overlaps(span);
        if let Some(first) = self.slots.iter().filter(clash).min_by_key(|s| s.start()) {
            return Err(CoreError::OverlappingSlots {
                node,
                first: first.id(),
                second: SlotId::new(self.next_id),
            });
        }
        let slot = Slot::new(self.mint(), node, perf, price, span).unwrap();
        self.slots.push(slot);
        Ok(slot.id())
    }

    /// A member's source: the slot with its id on its node.
    fn check(&self, member: &WindowSlot, cut: Span) -> Result<(), CoreError> {
        let id = member.source();
        let slot = self
            .slots
            .iter()
            .find(|s| s.id() == id && s.node() == member.node());
        let slot = slot.ok_or(CoreError::SlotNotFound { id })?;
        if !slot.span().contains_span(cut) {
            return Err(CoreError::CutOutsideSlot {
                id,
                slot_span: slot.span(),
                cut,
            });
        }
        Ok(())
    }

    /// Fig. 1 (b): `K` leaves, `K1` then `K2` join under fresh ids and
    /// are appended to `remnants`; returns `K` as it was.
    fn cut(&mut self, id: SlotId, cut: Span, remnants: &mut Vec<Slot>) -> Slot {
        let at = self.slots.iter().position(|s| s.id() == id).unwrap();
        let slot = self.slots.swap_remove(at);
        let (left, right) = slot.span().subtract(cut);
        for piece in [left, right].into_iter().flatten() {
            let remnant = slot.with_span(self.mint(), piece).unwrap();
            self.slots.push(remnant);
            remnants.push(remnant);
        }
        slot
    }

    fn subtract_window_report(&mut self, w: &Window) -> Result<SubtractionReport, CoreError> {
        let slots = w.slots();
        slots
            .iter()
            .try_for_each(|ws| self.check(ws, w.used_span(ws)))?;
        let mut report = SubtractionReport::default();
        for ws in slots {
            let slot = self.cut(ws.source(), w.used_span(ws), &mut report.remnants);
            report.removed.push(slot);
        }
        Ok(report)
    }

    fn remove_region(&mut self, node: NodeId, region: Span) -> usize {
        let hit = |s: &&Slot| s.node() == node && s.span().overlaps(region);
        let mut hit: Vec<Slot> = self.slots.iter().filter(hit).copied().collect();
        hit.sort_by_key(Slot::start);
        for slot in &hit {
            let cut = slot.span().intersect(region).unwrap();
            self.cut(slot.id(), cut, &mut Vec::new());
        }
        hit.len()
    }

    fn release_region(&mut self, member: &WindowSlot, span: Span) -> SlotId {
        let (node, perf, price) = (member.node(), member.perf(), member.price());
        self.insert(node, perf, price, span).unwrap()
    }

    /// Each node's slots in start order; a slot that touches the one
    /// before it at the same price and performance is absorbed into it.
    fn coalesce(&mut self) -> usize {
        let before = self.slots.len();
        self.slots.sort_by_key(|s| (s.node(), s.start()));
        let mut merged: Vec<Slot> = Vec::new();
        for slot in self.slots.drain(..) {
            match merged.last_mut() {
                Some(head)
                    if head.node() == slot.node()
                        && head.end() == slot.start()
                        && (head.price(), head.perf()) == (slot.price(), slot.perf()) =>
                {
                    let span = Span::new(head.start(), slot.end()).unwrap();
                    *head = head.with_span(head.id(), span).unwrap();
                }
                _ => merged.push(slot),
            }
        }
        self.slots = merged;
        before - self.slots.len()
    }
}

/// One abstract operation; raw integers are interpreted against the
/// current state, so every generated sequence stays meaningful.
#[derive(Debug, Clone, Copy)]
struct Op {
    tag: u32,
    picks: [usize; 3],
    a: i64,
    b: i64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..24,
        0usize..64,
        0usize..64,
        0usize..64,
        0i64..300,
        0i64..300,
    )
        .prop_map(|(tag, p1, p2, p3, a, b)| Op {
            tag,
            picks: [p1, p2, p3],
            a,
            b,
        })
}

fn span(a: i64, b: i64) -> Span {
    Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
}

/// Few prices and rates, so touching neighbours often agree on both.
fn attributes(attrs: i64) -> (Perf, Price) {
    (
        Perf::from_milli(1000 + 500 * (attrs % 2)),
        Price::from_credits(2 + attrs / 2 % 2),
    )
}

fn slot(id: SlotId, node: u32, a: i64, b: i64, attrs: i64) -> Slot {
    let (perf, price) = attributes(attrs);
    Slot::new(id, NodeId::new(node), perf, price, span(a, b)).unwrap()
}

/// A one-member window that cuts `cut` out of `source`, on its node.
fn one_cut(source: &Slot, cut: Span) -> Window {
    let member = WindowSlot::from_slot(source, cut.length()).unwrap();
    Window::new(cut.start(), vec![member]).unwrap()
}

/// The model and the store one case drives, and the windows it has
/// committed.
struct Driver {
    model: Model,
    list: SlotList,
    committed: Vec<Window>,
}

impl Driver {
    /// Both sides bulk-loaded with `seed`; the model's cursor is the one
    /// the sorted load sets, one past the largest id.
    fn seeded(seed: Vec<Slot>) -> Self {
        let next_id = seed.iter().map(|s| s.id().raw() + 1).max().unwrap_or(0);
        Driver {
            list: SlotList::from_slots(seed.clone()).unwrap(),
            model: Model {
                slots: seed,
                next_id,
            },
            committed: Vec::new(),
        }
    }

    /// Runs `op` on the model and on the store, demanding the same result
    /// from each, and returns it.
    #[track_caller]
    fn all<R: PartialEq + std::fmt::Debug>(
        &mut self,
        on_model: impl Fn(&mut Model) -> R,
        on_list: impl Fn(&mut SlotList) -> R,
    ) -> R {
        let expected = on_model(&mut self.model);
        assert_eq!(on_list(&mut self.list), expected);
        expected
    }

    fn apply(&mut self, op: Op) {
        let view = self.model.ordered();
        let pick = |i: usize| view[op.picks[i] % view.len()];
        let (a, b) = (op.a, op.b);
        match op.tag {
            // Publish head to tail on a node (gap 0 two times in three).
            0..=4 => {
                let node = NodeId::new((op.picks[0] % 5) as u32);
                let on_node = view.iter().filter(|s| s.node() == node);
                let start = on_node.map(|s| s.end().ticks()).max().unwrap_or(0) + (a % 3) / 2 * b;
                let ((perf, price), at) = (attributes(a), span(start, start + 1 + b % 120));
                let id = self.all(
                    |m| m.insert(node, perf, price, at),
                    |l| l.insert(node, perf, price, at),
                );
                assert_eq!(id, Ok(SlotId::new(self.model.next_id - 1)));
            }
            // Release the last few committed windows in one walk, without
            // merging and with it: the model releases them member by
            // member, then coalesces.
            21..=23 => {
                let coalesce = op.tag != 21;
                let windows = self.releasable(1 + op.picks[1] % 4);
                self.all(
                    |m| {
                        for w in &windows {
                            for ws in w.slots() {
                                m.release_region(ws, w.used_span(ws));
                            }
                        }
                        if coalesce {
                            m.coalesce()
                        } else {
                            0
                        }
                    },
                    |l| l.release_windows(&windows, coalesce),
                );
            }
            _ if view.is_empty() => {}
            // An insert that overlaps a live slot is refused — same error,
            // nothing changed, nothing minted (the cursor is compared after
            // every step). Tag 6 mints an id first, as a caller may.
            5 | 6 => {
                if op.tag == 6 {
                    self.all(Model::mint, SlotList::mint_id);
                }
                let victim = pick(0);
                let from = victim.start().ticks() - a % 20;
                let ((perf, price), node) = (attributes(a), victim.node());
                let at = span(from, victim.start().ticks() + 1 + b);
                let refused = self.all(
                    |m| m.insert(node, perf, price, at),
                    |l| l.insert(node, perf, price, at),
                );
                assert!(matches!(refused, Err(CoreError::OverlappingSlots { .. })));
            }
            // Commit a window over up to three distinct-node slots; tag 10
            // adds a member the list cannot serve, which must fail whole.
            7..=10 => {
                let mut members: Vec<Slot> = Vec::new();
                for i in 0..3 {
                    if !members.iter().any(|m| m.node() == pick(i).node()) {
                        members.push(pick(i));
                    }
                }
                let start = members.iter().map(|s| s.start().ticks()).max().unwrap() + a % 40;
                let runtime = members
                    .iter()
                    .map(|s| s.end().ticks() - start)
                    .min()
                    .unwrap();
                if runtime <= 0 {
                    return;
                }
                if op.tag == 10 {
                    // An id never minted, on a node no other member uses
                    // (a window holds each node once), which may be live.
                    let ghost = SlotId::new(self.model.next_id + 5);
                    let node = members.iter().map(|m| m.node().index()).max().unwrap() + 1;
                    members.push(slot(ghost, node, start, start + runtime, a));
                }
                let runtime = TimeDelta::new(runtime);
                let members = members
                    .iter()
                    .map(|s| WindowSlot::from_slot(s, runtime).unwrap());
                let window = Window::new(TimePoint::new(start), members.collect()).unwrap();
                let report = self.all(
                    |m| m.subtract_window_report(&window),
                    |l| l.subtract_window_report(&window),
                );
                assert_eq!(report.is_ok(), op.tag != 10);
                if report.is_ok() {
                    self.committed.push(window);
                }
            }
            // Release a committed window's regions, member by member,
            // unless something was published over them since.
            11 | 12 => {
                let Some(window) = self.committed.pop() else {
                    return;
                };
                for ws in window.slots() {
                    let used = window.used_span(ws);
                    let taken = |s: &Slot| s.node() == ws.node() && s.span().overlaps(used);
                    if !self.model.slots.iter().any(taken) {
                        self.all(
                            |m| m.release_region(ws, used),
                            |l| l.release_region(ws, used),
                        );
                    }
                }
            }
            // Carve an interior span out of one slot on its node; a cut
            // that leaks out, names a retired id, or names a live id on
            // another node is refused.
            13 | 14 => {
                let victim = pick(0);
                let len = victim.length().ticks();
                let (lo, hi) = ((a % len).min(b % len), (a % len).max(b % len) + 1);
                let cut = span(victim.start().ticks() + lo, victim.start().ticks() + hi);
                let window = one_cut(&victim, cut);
                let report = self.all(
                    |m| m.subtract_window_report(&window),
                    |l| l.subtract_window_report(&window),
                );
                assert!(report.is_ok());
            }
            15 => {
                let victim = pick(0);
                let cut = span(victim.start().ticks(), victim.end().ticks() + 1 + a);
                let node = victim.node().index();
                let elsewhere = node + 1 + (b % 4) as u32;
                let misses = [
                    (victim, cut),
                    (slot(SlotId::new(u64::MAX), node, 0, 1, a), victim.span()),
                    (slot(victim.id(), elsewhere, 0, 1, a), victim.span()),
                ];
                for (source, cut) in misses {
                    let window = one_cut(&source, cut);
                    let refused = self.all(
                        |m| m.subtract_window_report(&window),
                        |l| l.subtract_window_report(&window),
                    );
                    assert!(refused.is_err());
                }
            }
            // Withdraw a region around a slot from its node.
            16..=18 => {
                let victim = pick(0);
                let region = span(
                    victim.start().ticks() - a % 90,
                    victim.end().ticks() + b % 90,
                );
                let node = victim.node();
                let cut = self.all(
                    |m| m.remove_region(node, region),
                    |l| l.remove_region(node, region),
                );
                // The victim lies inside the region: at least it is cut.
                assert!(cut >= 1);
            }
            _ => {
                self.all(Model::coalesce, SlotList::coalesce);
            }
        }
    }

    /// Pops up to `k` committed windows, newest first, each cut down to
    /// the members whose regions are still free: nothing was published
    /// over them since, and no window popped before it releases them.
    fn releasable(&mut self, k: usize) -> Vec<Window> {
        let mut windows: Vec<Window> = Vec::new();
        for _ in 0..k {
            let Some(window) = self.committed.pop() else {
                break;
            };
            let free = |ws: &&WindowSlot| {
                let used = window.used_span(ws);
                let taken = |node: NodeId, span: Span| node == ws.node() && span.overlaps(used);
                let published = self.model.slots.iter().any(|s| taken(s.node(), s.span()));
                let popped = windows
                    .iter()
                    .flat_map(|w| w.slots().iter().map(move |o| (o, w)));
                !published
                    && !popped
                        .into_iter()
                        .any(|(o, w)| taken(o.node(), w.used_span(o)))
            };
            let members = window.slots().iter().filter(free).copied().collect();
            if let Ok(window) = Window::new(window.start(), members) {
                windows.push(window);
            }
        }
        windows
    }

    /// Everything a caller can see of the list, against the model.
    #[track_caller]
    fn check(&self, step: usize) {
        let expected = self.model.ordered();
        let list = &self.list;
        list.validate()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        let seen: Vec<Slot> = list.iter().copied().collect();
        assert_eq!(seen, expected, "step {step}: slots or their order");
        let cursor = list.clone().mint_id();
        assert_eq!(cursor.raw(), self.model.next_id, "step {step}: next id");
        for slot in &expected {
            let found = list.covering_slot(slot.node(), slot.span());
            assert_eq!(found, Some(slot), "step {step}: covering_slot");
        }
        if let Some(first) = expected.first() {
            let from = first.start() + TimeDelta::new(1);
            let later: Vec<&Slot> = expected.iter().filter(|s| s.start() >= from).collect();
            assert!(list.iter_from(from).eq(later), "step {step}: iter_from");
        }
    }

    /// Runs every op, checking after each, then sends the list through
    /// its wire form: the same slots and the same cursor come back.
    fn run(mut self, ops: impl IntoIterator<Item = Op>) {
        self.check(0);
        for (step, op) in ops.into_iter().enumerate() {
            self.apply(op);
            self.check(step + 1);
        }
        let text = serde_json::to_string(&self.list).expect("encodes");
        let back: SlotList = serde_json::from_str(&text).expect("decodes");
        back.validate().expect("decoded invariants");
        assert_eq!(back, self.list);
        assert_eq!(back.clone().mint_id(), self.list.clone().mint_id());
    }
}

/// A bulk-load seed: `count` slots over `nodes` nodes, each node's laid
/// head to tail (a gap of 0 touches, so the coalescing rule applies),
/// ids minted 0.. in the order generated, not in start order.
fn seed_strategy(
    nodes: std::ops::Range<u32>,
    count: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Slot>> {
    (
        nodes,
        prop::collection::vec((0i64..50, 20i64..200, 0i64..4), count),
    )
        .prop_map(|(nodes, segments)| {
            let mut cursors = vec![0i64; nodes as usize];
            let segments = segments.into_iter().enumerate();
            segments
                .map(|(id, (gap, len, attrs))| {
                    let node = id as u32 % nodes;
                    let cursor = &mut cursors[node as usize];
                    let start = *cursor + gap % 3 / 2 * gap;
                    *cursor = start + len;
                    slot(SlotId::new(id as u64), node, start, *cursor, attrs)
                })
                .collect()
        })
}

/// The op mix with its picks spread over a wide market: 64 live slots a
/// lane, 16 lanes.
fn wide_op_strategy() -> impl Strategy<Value = Op> {
    (op_strategy(), 0usize..16).prop_map(|(op, lane)| Op {
        picks: op.picks.map(|pick| pick + 64 * lane),
        ..op
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_store_follows_the_linear_scan_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        Driver::seeded(Vec::new()).run(ops);
    }

    /// From a bulk load of up to 24 slots, possibly none: one block, and
    /// ids not in start order.
    #[test]
    fn a_bulk_loaded_store_follows_the_linear_scan_model(
        seed in seed_strategy(1..6, 0..24),
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        Driver::seeded(seed).run(ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// From a bulk load of 300–1 000 slots over 40–120 nodes: every step
    /// lands among many half-full blocks, splicing some, splitting some
    /// and emptying some — a lookup that finds a block's first slot in the
    /// block before it passes every narrow case and fails here.
    #[test]
    fn a_wide_store_follows_the_linear_scan_model(
        seed in seed_strategy(40..120, 300..1000),
        ops in prop::collection::vec(wide_op_strategy(), 1..60),
    ) {
        Driver::seeded(seed).run(ops);
    }
}
