//! Differential oracle harness: the interval-timeline market must be
//! **observably identical** to the flat start-ordered list under every
//! mutation the engine performs.
//!
//! Two [`SlotList`]s — one per representation — are seeded with the same
//! slots and driven through the same randomized operation sequence
//! (publish, window subtraction, region removal, carving, tail-return
//! insertion, coalescing, expiry sweeps). After *every* step the harness
//! asserts the full observable state matches: iteration order, minted
//! ids, subtraction reports, returned errors, and both representations'
//! own structural invariants. The flat list is the oracle; any divergence
//! in the interval form fails here long before it could skew an engine
//! run's event log.
//!
//! CI runs this file at `PROPTEST_CASES=512` in the failure-injection
//! job; the local default below keeps `cargo test` fast.

use ecosched_core::{
    CoreError, MarketRepr, NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint,
    Window, WindowSlot,
};
use proptest::prelude::*;

/// One abstract mutation. Raw integers are interpreted against the
/// *current* list state (indices reduce modulo the live slot count), so
/// every generated sequence stays meaningful after arbitrary prior
/// mutations and shrinks cleanly.
#[derive(Debug, Clone)]
enum Op {
    /// Publish a fresh slot on `node`, `gap` ticks after that node's
    /// current last vacancy (always disjoint, so always accepted).
    Publish {
        node: u32,
        gap: i64,
        len: i64,
        perf: i64,
        price: i64,
    },
    /// Carve a window out of up to three distinct-node slots via
    /// `subtract_window_report` (the commit path).
    SubtractWindow { picks: [usize; 3], offset: i64 },
    /// Carve an interior span out of one slot via `subtract` (the repair
    /// path).
    Carve { pick: usize, lo: i64, hi: i64 },
    /// Ask for a cut that leaks past the slot's end — must fail
    /// identically on both sides.
    CarveOutside { pick: usize },
    /// Remove every slot intersecting a region around a picked slot
    /// (revocation strikes).
    RemoveRegion { pick: usize, pad: i64 },
    /// Return a completed lease's unused tail: remove a slot, reinsert a
    /// suffix of its span under a freshly minted id.
    TailReturn { pick: usize, keep: i64 },
    /// Merge touching same-price same-perf neighbours (cycle commit).
    Coalesce,
    /// Drop everything before a horizon on every node (clock advance).
    Expire { pick: usize },
}

/// The vendored proptest shim has no `prop_oneof`, so the op mix is a
/// tagged tuple: `tag` picks the variant (weights via range width), the
/// remaining fields parameterize it. Unused fields are simply ignored,
/// which keeps every tuple a valid op.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..19,
        0usize..64,
        0usize..64,
        0usize..64,
        0i64..300,
        0i64..300,
    )
        .prop_map(|(tag, p1, p2, p3, a, b)| match tag {
            // Overlapping publishes are deliberately absent: disjointness
            // is a *caller* contract (the flat oracle debug-asserts it;
            // the interval form additionally rejects it structurally,
            // covered by its own unit tests), so it is not part of the
            // shared observable behavior this harness pins.
            0..=4 => Op::Publish {
                node: (p1 % 6) as u32,
                gap: a % 60,
                len: 1 + b % 250,
                perf: 500 + (a * 7) % 2500,
                price: 1 + b % 11,
            },
            5..=7 => Op::SubtractWindow {
                picks: [p1, p2, p3],
                offset: a % 40,
            },
            8..=10 => Op::Carve {
                pick: p1,
                lo: a,
                hi: b,
            },
            11 => Op::CarveOutside { pick: p1 },
            12 | 13 => Op::RemoveRegion {
                pick: p1,
                pad: a % 30,
            },
            14 | 15 => Op::TailReturn {
                pick: p1,
                keep: 1 + b % 200,
            },
            16 | 17 => Op::Coalesce,
            _ => Op::Expire { pick: p1 },
        })
}

/// A seed market: a handful of nodes, several head-to-tail vacancies each
/// (ids minted 0..), mirroring what the generator publishes per cycle.
fn seed_slots_strategy() -> impl Strategy<Value = Vec<Slot>> {
    prop::collection::vec(
        (
            prop::collection::vec((0i64..50, 20i64..200), 0..4),
            500i64..3000,
            1i64..12,
        ),
        1..6,
    )
    .prop_map(|nodes| {
        let mut slots = Vec::new();
        let mut id = 0u64;
        for (node, (segments, perf, price)) in nodes.into_iter().enumerate() {
            let mut cursor = 0i64;
            for (gap, len) in segments {
                let start = cursor + gap;
                let end = start + len;
                cursor = end;
                slots.push(
                    Slot::new(
                        SlotId::new(id),
                        NodeId::new(node as u32),
                        Perf::from_milli(perf),
                        Price::from_credits(price),
                        Span::new(TimePoint::new(start), TimePoint::new(end)).unwrap(),
                    )
                    .unwrap(),
                );
                id += 1;
            }
        }
        slots
    })
}

/// Every observable the engine can see, asserted in one place.
#[track_caller]
fn assert_observably_equal(step: usize, flat: &SlotList, interval: &SlotList) {
    assert_eq!(flat.repr(), MarketRepr::Flat);
    assert_eq!(interval.repr(), MarketRepr::Interval);
    flat.validate().expect("flat invariants");
    interval.validate().expect("interval invariants");
    assert_eq!(flat.len(), interval.len(), "step {step}: lengths diverge");
    assert_eq!(
        flat.earliest_start(),
        interval.earliest_start(),
        "step {step}: earliest_start diverges"
    );
    assert_eq!(
        flat.total_vacant_time(),
        interval.total_vacant_time(),
        "step {step}: total vacant time diverges"
    );
    let f: Vec<&Slot> = flat.iter().collect();
    let i: Vec<&Slot> = interval.iter().collect();
    assert_eq!(f, i, "step {step}: iteration order diverges");
    // The facade's PartialEq is the engine-checkpoint comparison; it must
    // agree with the element-wise view.
    assert_eq!(flat, interval, "step {step}: observable equality diverges");
    // iter_from must agree from every boundary the list knows about.
    if let Some(first) = f.first() {
        let from = first.start() + TimeDelta::new(1);
        let ff: Vec<&Slot> = flat.iter_from(from).collect();
        let fi: Vec<&Slot> = interval.iter_from(from).collect();
        assert_eq!(ff, fi, "step {step}: iter_from diverges");
    }
}

/// Applies one interpreted op to both lists, asserting identical results
/// (values *and* errors). Returns false if the op interpreted to a no-op.
fn apply(op: &Op, flat: &mut SlotList, interval: &mut SlotList) -> bool {
    // Interpret indices against the oracle's current view; both lists are
    // equal at entry, so the view is shared.
    let view: Vec<Slot> = flat.iter().copied().collect();
    match *op {
        Op::Publish {
            node,
            gap,
            len,
            perf,
            price,
        } => {
            let node = NodeId::new(node);
            let start = view
                .iter()
                .filter(|s| s.node() == node)
                .map(|s| s.end().ticks())
                .max()
                .unwrap_or(0)
                + gap;
            let id_f = flat.mint_id();
            let id_i = interval.mint_id();
            assert_eq!(id_f, id_i, "minted ids diverge");
            let slot = Slot::new(
                id_f,
                node,
                Perf::from_milli(perf),
                Price::from_credits(price),
                Span::new(TimePoint::new(start), TimePoint::new(start + len)).unwrap(),
            )
            .unwrap();
            assert_eq!(flat.insert(slot), Ok(()));
            assert_eq!(interval.insert(slot), Ok(()));
            true
        }
        Op::SubtractWindow { picks, offset } => {
            if view.is_empty() {
                return false;
            }
            // Up to three members on distinct nodes.
            let mut members: Vec<Slot> = Vec::new();
            for pick in picks {
                let s = view[pick % view.len()];
                if !members.iter().any(|m| m.node() == s.node()) {
                    members.push(s);
                }
            }
            let start = members.iter().map(|s| s.start().ticks()).max().unwrap() + offset;
            let runtime = members
                .iter()
                .map(|s| s.end().ticks() - start)
                .min()
                .unwrap();
            if runtime <= 0 {
                return false;
            }
            // Keep only members whose span actually contains the cut.
            members.retain(|s| s.start().ticks() <= start);
            if members.is_empty() {
                return false;
            }
            let window = Window::new(
                TimePoint::new(start),
                members
                    .iter()
                    .map(|s| WindowSlot::from_slot(s, TimeDelta::new(runtime)).unwrap())
                    .collect(),
            )
            .unwrap();
            let rf = flat.subtract_window_report(&window);
            let ri = interval.subtract_window_report(&window);
            assert_eq!(rf, ri, "subtraction reports diverge");
            true
        }
        Op::Carve { pick, lo, hi } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let len = victim.span().length().ticks();
            let (a, b) = ((lo % len).min(hi % len), (lo % len).max(hi % len) + 1);
            let cut = Span::new(
                victim.start() + TimeDelta::new(a),
                victim.start() + TimeDelta::new(b),
            )
            .unwrap();
            let rf = flat.subtract(victim.id(), cut);
            let ri = interval.subtract(victim.id(), cut);
            assert_eq!(rf, ri, "carve results diverge");
            assert_eq!(rf, Ok(()), "interior cut must succeed");
            true
        }
        Op::CarveOutside { pick } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let cut = Span::new(victim.start(), victim.end() + TimeDelta::new(1)).unwrap();
            let rf = flat.subtract(victim.id(), cut);
            let ri = interval.subtract(victim.id(), cut);
            assert!(
                matches!(rf, Err(CoreError::CutOutsideSlot { .. })),
                "oversized cut must be refused, got {rf:?}"
            );
            assert_eq!(rf, ri, "out-of-span rejections diverge");
            // And a cut against a retired id must also agree.
            let ghost = SlotId::new(u64::MAX);
            let rf = flat.subtract(ghost, cut);
            let ri = interval.subtract(ghost, cut);
            assert!(matches!(rf, Err(CoreError::SlotNotFound { .. })));
            assert_eq!(rf, ri, "missing-id rejections diverge");
            true
        }
        Op::RemoveRegion { pick, pad } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let region = Span::new(
                TimePoint::new(victim.start().ticks() - pad),
                victim.end() + TimeDelta::new(pad),
            )
            .unwrap();
            let rf = flat.remove_region(victim.node(), region);
            let ri = interval.remove_region(victim.node(), region);
            assert_eq!(rf, ri, "removed id sets diverge");
            assert!(rf.contains(&victim.id()));
            true
        }
        Op::TailReturn { pick, keep } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let len = victim.span().length().ticks();
            let used = (keep % len).max(1);
            if used >= len {
                return false;
            }
            let rf = flat.remove_region(victim.node(), victim.span());
            let ri = interval.remove_region(victim.node(), victim.span());
            assert_eq!(rf, ri, "lease takeover removals diverge");
            let id_f = flat.mint_id();
            let id_i = interval.mint_id();
            assert_eq!(id_f, id_i, "tail ids diverge");
            let tail = Slot::new(
                id_f,
                victim.node(),
                victim.perf(),
                victim.price(),
                Span::new(victim.start() + TimeDelta::new(used), victim.end()).unwrap(),
            )
            .unwrap();
            assert_eq!(flat.insert(tail), Ok(()));
            assert_eq!(interval.insert(tail), Ok(()));
            true
        }
        Op::Coalesce => {
            let rf = flat.coalesce();
            let ri = interval.coalesce();
            assert_eq!(rf, ri, "coalesce absorption counts diverge");
            true
        }
        Op::Expire { pick } => {
            if view.is_empty() {
                return false;
            }
            let horizon = view[pick % view.len()].end();
            let floor = view.iter().map(|s| s.start().ticks()).min().unwrap() - 1;
            if floor >= horizon.ticks() {
                return false;
            }
            let region = Span::new(TimePoint::new(floor), horizon).unwrap();
            let mut nodes: Vec<NodeId> = view.iter().map(Slot::node).collect();
            nodes.dedup();
            for node in nodes {
                let rf = flat.remove_region(node, region);
                let ri = interval.remove_region(node, region);
                assert_eq!(rf, ri, "expiry sweeps diverge");
            }
            true
        }
    }
}

/// A wide seed market: 300–1 000 slots over 40–120 nodes (ids minted
/// 0..), so the blocked order holds many blocks before the first op.
fn wide_seed_slots_strategy() -> impl Strategy<Value = Vec<Slot>> {
    (
        40u32..120,
        prop::collection::vec((0i64..50, 20i64..200), 300..1000),
    )
        .prop_map(|(nodes, segments)| {
            let mut cursors = vec![0i64; nodes as usize];
            let segments = segments.into_iter().enumerate();
            segments
                .map(|(id, (gap, len))| {
                    let node = id as u32 % nodes;
                    let cursor = &mut cursors[node as usize];
                    let start = *cursor + gap;
                    *cursor = start + len;
                    Slot::new(
                        SlotId::new(id as u64),
                        NodeId::new(node),
                        Perf::from_milli(500 + i64::from(node) * 37 % 2500),
                        Price::from_credits(1 + i64::from(node) % 11),
                        Span::new(TimePoint::new(start), TimePoint::new(*cursor)).unwrap(),
                    )
                    .unwrap()
                })
                .collect()
        })
}

/// The same op mix, its picks spread over a wide market by `lane`
/// (64 live slots a lane) and its publishes over 16 × 6 nodes.
fn wide_op_strategy() -> impl Strategy<Value = Op> {
    (op_strategy(), 0usize..16).prop_map(|(op, lane)| {
        let far = |pick: usize| pick + 64 * lane;
        match op {
            Op::Publish {
                node,
                gap,
                len,
                perf,
                price,
            } => Op::Publish {
                node: node + 6 * lane as u32,
                gap,
                len,
                perf,
                price,
            },
            Op::SubtractWindow { picks, offset } => Op::SubtractWindow {
                picks: picks.map(far),
                offset,
            },
            Op::Carve { pick, lo, hi } => Op::Carve {
                pick: far(pick),
                lo,
                hi,
            },
            Op::CarveOutside { pick } => Op::CarveOutside { pick: far(pick) },
            Op::RemoveRegion { pick, pad } => Op::RemoveRegion {
                pick: far(pick),
                pad,
            },
            Op::TailReturn { pick, keep } => Op::TailReturn {
                pick: far(pick),
                keep,
            },
            Op::Coalesce => Op::Coalesce,
            Op::Expire { pick } => Op::Expire { pick: far(pick) },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The workhorse: a random op sequence, checked observable-by-
    /// observable after every step, then across representation
    /// conversion and serde.
    #[test]
    fn interval_form_is_observably_identical_to_flat(
        seed in seed_slots_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut flat = SlotList::from_slots_with_repr(seed.clone(), MarketRepr::Flat).unwrap();
        let mut interval = SlotList::from_slots_with_repr(seed, MarketRepr::Interval).unwrap();
        assert_observably_equal(0, &flat, &interval);

        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut flat, &mut interval);
            assert_observably_equal(step + 1, &flat, &interval);
        }

        // Crossing the representation boundary after an arbitrary history
        // must be lossless in both directions, `next_id` included.
        let crossed = flat.clone().with_repr(MarketRepr::Interval);
        prop_assert_eq!(&crossed, &interval);
        let back = interval.clone().with_repr(MarketRepr::Flat);
        prop_assert_eq!(&back, &flat);
        let mut crossed = crossed;
        let mut back = back;
        prop_assert_eq!(crossed.mint_id(), back.mint_id(), "next_id lost in conversion");

        // And both serde forms round-trip to the same observable state.
        let round_trip = |list: &SlotList| -> SlotList {
            serde_json::from_str(&serde_json::to_string(list).expect("encodes")).expect("decodes")
        };
        let f2 = round_trip(&flat);
        let i2 = round_trip(&interval);
        prop_assert_eq!(&f2, &flat);
        prop_assert_eq!(&i2, &interval);
        prop_assert_eq!(&f2, &i2);
    }

    /// Publish-only sequences exercise the pure insertion path (the
    /// cycle-start market build) at higher volume.
    #[test]
    fn publication_order_is_identical(
        seed in seed_slots_strategy(),
        publishes in prop::collection::vec(
            (0u32..6, 0i64..60, 1i64..250, 500i64..3000, 1i64..12),
            1..60,
        ),
    ) {
        let mut flat = SlotList::from_slots_with_repr(seed.clone(), MarketRepr::Flat).unwrap();
        let mut interval = SlotList::from_slots_with_repr(seed, MarketRepr::Interval).unwrap();
        for (node, gap, len, perf, price) in publishes {
            apply(
                &Op::Publish { node, gap, len, perf, price },
                &mut flat,
                &mut interval,
            );
        }
        assert_observably_equal(usize::MAX, &flat, &interval);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The workhorse on a wide market: every step lands among many
    /// blocks, splicing some, splitting some and emptying some, with
    /// the full state compared after each, then across representation
    /// conversion and both serde forms.
    #[test]
    fn wide_markets_are_observably_identical_across_orderings(
        seed in wide_seed_slots_strategy(),
        ops in prop::collection::vec(wide_op_strategy(), 1..60),
    ) {
        let mut flat = SlotList::from_slots_with_repr(seed.clone(), MarketRepr::Flat).unwrap();
        let mut interval = SlotList::from_slots_with_repr(seed, MarketRepr::Interval).unwrap();
        assert_observably_equal(0, &flat, &interval);
        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut flat, &mut interval);
            assert_observably_equal(step + 1, &flat, &interval);
        }

        let mut crossed = flat.clone().with_repr(MarketRepr::Interval);
        let mut back = interval.clone().with_repr(MarketRepr::Flat);
        prop_assert_eq!(&crossed, &interval);
        prop_assert_eq!(&back, &flat);
        prop_assert_eq!(crossed.mint_id(), back.mint_id(), "next_id lost in conversion");

        for list in [&flat, &interval] {
            let text = serde_json::to_string(list).expect("encodes");
            let decoded: SlotList = serde_json::from_str(&text).expect("decodes");
            prop_assert_eq!(decoded.repr(), list.repr());
            prop_assert_eq!(&decoded, &flat);
        }
    }
}
