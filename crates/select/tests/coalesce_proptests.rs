//! Start-domination properties of slot coalescing under ALP and AMP.
//!
//! Literal search-result invariance is *false*: a job whose runtime
//! straddles a fragment boundary fits the merged slot but neither
//! fragment, so coalescing can move a window earlier (that is the
//! point). The provable relation is domination: every window hostable
//! on the fragmented list is hostable on the coalesced one (each
//! fragment's span is contained in its merged slot, at the same price
//! and performance), so the earliest-start scan on the coalesced list
//! succeeds whenever the fragmented scan does, and never later.

use ecosched_core::{
    NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint,
};
use ecosched_select::{Alp, Amp, ScanStats, SlotSelector};
use proptest::prelude::*;

/// Strategy: several nodes, each fragmented into touching or gapped
/// segments over small price/perf palettes, so merge runs are common
/// and straddling jobs actually occur.
fn fragmented_list_strategy() -> impl Strategy<Value = SlotList> {
    prop::collection::vec(
        (
            0i64..100,
            prop::collection::vec(
                (10i64..80, 0i64..3, 0usize..2, 0usize..2), // len, gap, price, perf
                1..5,
            ),
        ),
        1..8,
    )
    .prop_map(|nodes| {
        let prices = [Price::from_credits(3), Price::from_credits(6)];
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

fn request_strategy() -> impl Strategy<Value = ResourceRequest> {
    (1usize..4, 15i64..120, 1000i64..2000, 3i64..10).prop_map(|(n, t, p, c)| {
        ResourceRequest::new(
            n,
            TimeDelta::new(t),
            Perf::from_milli(p),
            Price::from_credits(c),
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ALP and AMP on the coalesced list succeed whenever they succeed
    /// on the fragmented one, with a window that starts no later, and
    /// the found window still satisfies every per-request guarantee.
    #[test]
    fn coalesced_search_dominates_fragmented(
        list in fragmented_list_strategy(),
        request in request_strategy(),
    ) {
        let mut coalesced = list.clone();
        coalesced.coalesce();

        for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
            let mut stats = ScanStats::new();
            let fragmented_window = selector.find_window(&list, &request, &mut stats);
            let coalesced_window = selector.find_window(&coalesced, &request, &mut stats);

            if let Some(f) = fragmented_window {
                let c = coalesced_window.unwrap_or_else(|| {
                    panic!(
                        "{} found a window on the fragmented list but lost it after \
                         coalescing",
                        selector.name()
                    )
                });
                prop_assert!(
                    c.start() <= f.start(),
                    "{} window moved later after coalescing: {} > {}",
                    selector.name(),
                    c.start(),
                    f.start()
                );
                // The coalesced window is still a real window of the
                // coalesced list.
                prop_assert_eq!(c.slot_count(), request.nodes());
                for ws in c.slots() {
                    prop_assert!(ws.perf().satisfies(request.min_perf()));
                    let source = coalesced.covering_slot(ws.node(), c.used_span(ws));
                    prop_assert_eq!(
                        source.map(Slot::id),
                        Some(ws.source()),
                        "window member cites a live slot"
                    );
                }
            }
        }
    }

    /// Coalescing the already-coalesced list changes neither search
    /// outcome — the engine may safely re-run the pass every cycle.
    #[test]
    fn repeated_coalescing_is_search_stable(
        list in fragmented_list_strategy(),
        request in request_strategy(),
    ) {
        let mut once = list.clone();
        once.coalesce();
        let mut twice = once.clone();
        twice.coalesce();
        let mut stats = ScanStats::new();
        for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
            let a = selector.find_window(&once, &request, &mut stats);
            let b = selector.find_window(&twice, &request, &mut stats);
            prop_assert_eq!(a, b);
        }
    }
}
