//! Property-based tests for `SlotList::coalesce` — the cycle-commit
//! defragmentation pass.
//!
//! The invariant under test: coalescing changes only the *partitioning*
//! of vacant capacity, never the capacity itself. Per node, the priced
//! and performance-tagged coverage of the time axis is identical before
//! and after; only how that coverage is sliced into `Slot` records
//! differs.

use std::collections::BTreeMap;

use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint};
use proptest::prelude::*;

/// Strategy: a slot list with several slots per node, deliberately
/// fragmented — segments within a node frequently touch (`gap == 0`)
/// and draw price/performance from small palettes so coalescible runs
/// actually occur.
fn fragmented_list_strategy() -> impl Strategy<Value = SlotList> {
    prop::collection::vec(
        (
            0i64..200, // per-node base start
            prop::collection::vec(
                (1i64..60, 0i64..3, 0usize..2, 0usize..2), // len, gap, price, perf
                1..6,
            ),
        ),
        1..8,
    )
    .prop_map(|nodes| {
        let prices = [Price::from_credits(2), Price::from_credits(5)];
        let perfs = [Perf::from_milli(1000), Perf::from_milli(2000)];
        let mut slots = Vec::new();
        let mut id = 0u64;
        for (n, (base, segments)) in nodes.into_iter().enumerate() {
            let mut cursor = base;
            for (len, gap, price, perf) in segments {
                cursor += gap;
                let span = Span::new(TimePoint::new(cursor), TimePoint::new(cursor + len)).unwrap();
                slots.push(
                    Slot::new(
                        SlotId::new(id),
                        NodeId::new(n as u32),
                        perfs[perf],
                        prices[price],
                        span,
                    )
                    .unwrap(),
                );
                id += 1;
                cursor += len;
            }
        }
        SlotList::from_slots(slots).unwrap()
    })
}

/// The canonical per-node coverage: maximal `(start, end, price, perf)`
/// intervals, with touching same-price/same-perf neighbours merged.
/// Two lists with equal canonical coverage offer exactly the same
/// priced capacity.
fn canonical_coverage(list: &SlotList) -> BTreeMap<u32, Vec<(i64, i64, Price, Perf)>> {
    let mut per_node: BTreeMap<u32, Vec<(i64, i64, Price, Perf)>> = BTreeMap::new();
    for slot in list.iter() {
        per_node.entry(slot.node().index()).or_default().push((
            slot.start().ticks(),
            slot.end().ticks(),
            slot.price(),
            slot.perf(),
        ));
    }
    for intervals in per_node.values_mut() {
        intervals.sort_by_key(|&(start, end, _, _)| (start, end));
        let mut merged: Vec<(i64, i64, Price, Perf)> = Vec::with_capacity(intervals.len());
        for interval in intervals.drain(..) {
            match merged.last_mut() {
                Some(last)
                    if last.1 == interval.0 && last.2 == interval.2 && last.3 == interval.3 =>
                {
                    last.1 = interval.1;
                }
                _ => merged.push(interval),
            }
        }
        *intervals = merged;
    }
    per_node
}

/// True when the list holds at least one mergeable pair: same-node
/// neighbours that touch and agree on price and performance.
fn has_coalescible_pair(list: &SlotList) -> bool {
    let mut per_node: BTreeMap<u32, Vec<&Slot>> = BTreeMap::new();
    for slot in list.iter() {
        per_node.entry(slot.node().index()).or_default().push(slot);
    }
    per_node.values().any(|slots| {
        slots.windows(2).any(|pair| {
            pair[0].end() == pair[1].start()
                && pair[0].price() == pair[1].price()
                && pair[0].perf() == pair[1].perf()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coalescing preserves the priced, performance-tagged vacant
    /// coverage exactly — it repartitions capacity, never creates or
    /// destroys it — and leaves a valid, ordered list behind.
    #[test]
    fn coalesce_preserves_priced_coverage(list in fragmented_list_strategy()) {
        let before = canonical_coverage(&list);
        let total_before = list.total_vacant_time();
        let len_before = list.len();

        let mut coalesced = list.clone();
        let absorbed = coalesced.coalesce();

        prop_assert!(coalesced.validate().is_ok());
        prop_assert_eq!(canonical_coverage(&coalesced), before);
        prop_assert_eq!(coalesced.total_vacant_time(), total_before);
        prop_assert_eq!(coalesced.len(), len_before - absorbed);
        // Survivors keep their identities: every id existed before, on
        // the same node, from the same start.
        for slot in coalesced.iter() {
            let at = Span::new(slot.start(), slot.start() + TimeDelta::new(1)).unwrap();
            let before = list.covering_slot(slot.node(), at).map(Slot::id);
            prop_assert_eq!(before, Some(slot.id()));
        }
    }

    /// Coalescing is idempotent: a second pass finds nothing to merge.
    #[test]
    fn coalesce_is_idempotent(list in fragmented_list_strategy()) {
        let mut coalesced = list.clone();
        coalesced.coalesce();
        let again = coalesced.clone();
        prop_assert_eq!(coalesced.coalesce(), 0);
        prop_assert_eq!(coalesced, again);
    }

    /// Coalescing is the identity exactly when no same-node touching
    /// pair agrees on price and performance — it never merges across a
    /// gap or across a price/performance boundary.
    #[test]
    fn coalesce_is_identity_iff_nothing_is_mergeable(list in fragmented_list_strategy()) {
        let mergeable = has_coalescible_pair(&list);
        let mut coalesced = list.clone();
        let absorbed = coalesced.coalesce();
        prop_assert_eq!(absorbed > 0, mergeable);
        if !mergeable {
            prop_assert_eq!(coalesced, list);
        }
    }
}
