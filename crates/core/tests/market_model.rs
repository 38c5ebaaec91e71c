//! An independent reference for the market store.
//!
//! `SlotList` holds every market algorithm once, over one ordered
//! container; `orders_match_a_btree_model` (in `interval.rs`) pins the
//! container against a `BTreeMap`, which says nothing about the
//! algorithms above it. This file pins the algorithms: [`Model`] is the
//! paper's list as a plain `Vec<Slot>` scanned linearly — no id index, no
//! per-node timeline, no ordered container — with the subtraction rule
//! of Fig. 1 (b) (left remnant minted before right), region withdrawal,
//! release and the coalescing rule (a chain's head keeps its id, absorbed
//! ids are never reissued) written out directly. The one-walk release of
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

    fn insert(&mut self, slot: Slot) -> Result<(), CoreError> {
        if self.slots.iter().any(|s| s.id() == slot.id()) {
            return Err(CoreError::DuplicateSlotId { id: slot.id() });
        }
        let clash = |s: &&Slot| s.node() == slot.node() && s.span().overlaps(slot.span());
        if let Some(first) = self.slots.iter().filter(clash).min_by_key(|s| s.start()) {
            return Err(CoreError::OverlappingSlots {
                node: slot.node(),
                first: first.id(),
                second: slot.id(),
            });
        }
        self.next_id = self.next_id.max(slot.id().raw() + 1);
        self.slots.push(slot);
        Ok(())
    }

    fn check(&self, id: SlotId, cut: Span) -> Result<(), CoreError> {
        let slot = self.slots.iter().find(|s| s.id() == id);
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

    fn subtract(&mut self, id: SlotId, cut: Span) -> Result<(), CoreError> {
        self.check(id, cut)?;
        self.cut(id, cut, &mut Vec::new());
        Ok(())
    }

    fn subtract_window_report(&mut self, w: &Window) -> Result<SubtractionReport, CoreError> {
        w.cuts().try_for_each(|(id, cut)| self.check(id, cut))?;
        let mut report = SubtractionReport::default();
        for (id, cut) in w.cuts() {
            let slot = self.cut(id, cut, &mut report.remnants);
            report.removed.push(slot);
        }
        Ok(report)
    }

    fn remove_region(&mut self, node: NodeId, region: Span) -> Vec<SlotId> {
        let hit = |s: &&Slot| s.node() == node && s.span().overlaps(region);
        let mut hit: Vec<Slot> = self.slots.iter().filter(hit).copied().collect();
        hit.sort_by_key(Slot::start);
        for slot in &hit {
            let cut = slot.span().intersect(region).unwrap();
            self.cut(slot.id(), cut, &mut Vec::new());
        }
        hit.iter().map(Slot::id).collect()
    }

    fn release_region(&mut self, member: &WindowSlot, span: Span) -> SlotId {
        let id = self.mint();
        let slot = Slot::new(id, member.node(), member.perf(), member.price(), span).unwrap();
        self.insert(slot).unwrap();
        id
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
fn slot(id: SlotId, node: u32, a: i64, b: i64, attrs: i64) -> Slot {
    let (perf, price) = (
        Perf::from_milli(1000 + 500 * (attrs % 2)),
        2 + attrs / 2 % 2,
    );
    Slot::new(
        id,
        NodeId::new(node),
        perf,
        Price::from_credits(price),
        span(a, b),
    )
    .unwrap()
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
                let node = (op.picks[0] % 5) as u32;
                let on_node = view.iter().filter(|s| s.node() == NodeId::new(node));
                let start = on_node.map(|s| s.end().ticks()).max().unwrap_or(0) + (a % 3) / 2 * b;
                let id = self.all(Model::mint, SlotList::mint_id);
                let slot = slot(id, node, start, start + 1 + b % 120, a);
                assert_eq!(self.all(|m| m.insert(slot), |l| l.insert(slot)), Ok(()));
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
            // An insert that overlaps a live slot, or repeats a live id,
            // is refused — same error, nothing changed.
            5 => {
                let victim = pick(0);
                let id = self.all(Model::mint, SlotList::mint_id);
                let from = victim.start().ticks() - a % 20;
                let slot = slot(
                    id,
                    victim.node().index(),
                    from,
                    victim.start().ticks() + 1 + b,
                    a,
                );
                let refused = self.all(|m| m.insert(slot), |l| l.insert(slot));
                assert!(matches!(refused, Err(CoreError::OverlappingSlots { .. })));
            }
            6 => {
                let slot = slot(pick(0).id(), 7, 10_000 + a, 10_001 + a + b, a);
                let refused = self.all(|m| m.insert(slot), |l| l.insert(slot));
                assert_eq!(refused, Err(CoreError::DuplicateSlotId { id: slot.id() }));
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
                    let ghost = SlotId::new(self.model.next_id + 5);
                    members.push(slot(ghost, 9, start, start + runtime, a));
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
            // Carve an interior span; a cut that leaks out, or names a
            // retired id, is refused.
            13 | 14 => {
                let victim = pick(0);
                let len = victim.length().ticks();
                let (lo, hi) = ((a % len).min(b % len), (a % len).max(b % len) + 1);
                let cut = span(victim.start().ticks() + lo, victim.start().ticks() + hi);
                let id = victim.id();
                assert_eq!(
                    self.all(|m| m.subtract(id, cut), |l| l.subtract(id, cut)),
                    Ok(())
                );
            }
            15 => {
                let victim = pick(0);
                let cut = span(victim.start().ticks(), victim.end().ticks() + 1 + a);
                for id in [victim.id(), SlotId::new(u64::MAX)] {
                    let refused = self.all(|m| m.subtract(id, cut), |l| l.subtract(id, cut));
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
                let affected = self.all(
                    |m| m.remove_region(node, region),
                    |l| l.remove_region(node, region),
                );
                assert!(affected.contains(&victim.id()));
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
            assert_eq!(list.get(slot.id()), Some(slot), "step {step}: get");
            let inner = span(slot.start().ticks(), slot.end().ticks());
            assert_eq!(list.covering_slot(slot.node(), inner), Some(slot));
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
