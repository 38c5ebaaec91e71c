//! Property-based tests for the core data structures.

use ecosched_core::{
    Money, NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint, Window,
    WindowSlot,
};
use proptest::prelude::*;

/// Strategy: a valid non-empty span inside [0, 10_000).
fn span_strategy() -> impl Strategy<Value = Span> {
    (0i64..10_000, 1i64..500).prop_map(|(start, len)| {
        Span::new(TimePoint::new(start), TimePoint::new(start + len)).unwrap()
    })
}

/// Strategy: a list of slots, one per node so per-node disjointness holds by
/// construction.
fn slot_list_strategy(max: usize) -> impl Strategy<Value = SlotList> {
    prop::collection::vec((span_strategy(), 1i64..1200i64, 100u32..4000), 1..max).prop_map(
        |entries| {
            let slots: Vec<Slot> = entries
                .into_iter()
                .enumerate()
                .map(|(i, (span, price_milli, perf_milli))| {
                    Slot::new(
                        SlotId::new(i as u64),
                        NodeId::new(i as u32),
                        Perf::from_milli(i64::from(perf_milli)),
                        Price::from_micro(price_milli * 1000),
                        span,
                    )
                    .unwrap()
                })
                .collect();
            SlotList::from_slots(slots).unwrap()
        },
    )
}

proptest! {
    #[test]
    fn span_subtract_conserves_length(outer in span_strategy(), cut in span_strategy()) {
        let (left, right) = outer.subtract(cut);
        let removed = outer.intersect(cut).map_or(TimeDelta::ZERO, Span::length);
        let remaining = left.map_or(TimeDelta::ZERO, Span::length)
            + right.map_or(TimeDelta::ZERO, Span::length);
        prop_assert_eq!(remaining + removed, outer.length());
    }

    #[test]
    fn span_subtract_remnants_disjoint_from_cut(outer in span_strategy(), cut in span_strategy()) {
        let (left, right) = outer.subtract(cut);
        if let Some(hit) = outer.intersect(cut) {
            for remnant in [left, right].into_iter().flatten() {
                prop_assert!(!remnant.overlaps(hit));
                prop_assert!(outer.contains_span(remnant));
            }
        }
    }

    #[test]
    fn intersect_symmetric_and_contained(a in span_strategy(), b in span_strategy()) {
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        if let Some(i) = a.intersect(b) {
            prop_assert!(a.contains_span(i));
            prop_assert!(b.contains_span(i));
            prop_assert!(i.length().is_positive());
        }
    }

    #[test]
    fn slot_list_ordered_after_construction(list in slot_list_strategy(24)) {
        prop_assert!(list.validate().is_ok());
        let starts: Vec<TimePoint> = list.iter().map(Slot::start).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        prop_assert_eq!(starts, sorted);
    }

    #[test]
    fn slot_list_subtraction_preserves_invariants(
        list in slot_list_strategy(24),
        pick in any::<prop::sample::Index>(),
        frac_start in 0.0f64..1.0,
        frac_len in 0.01f64..1.0,
    ) {
        let mut list = list;
        let slots: Vec<Slot> = list.iter().copied().collect();
        let slot = *pick.get(&slots);
        let len = slot.length().ticks();
        let cut_start = slot.start().ticks() + (frac_start * (len - 1) as f64) as i64;
        let max_len = slot.end().ticks() - cut_start;
        let cut_len = ((frac_len * max_len as f64) as i64).max(1);
        let cut = Span::new(
            TimePoint::new(cut_start),
            TimePoint::new(cut_start + cut_len),
        ).unwrap();

        let before_total = list.total_vacant_time();
        list.subtract(slot.id(), cut).unwrap();

        prop_assert!(list.validate().is_ok());
        prop_assert_eq!(list.total_vacant_time() + cut.length(), before_total);
        // The original id is gone; remnants carry fresh ids.
        prop_assert!(list.get(slot.id()).is_none());
        // No remnant overlaps the cut on that node.
        for s in list.iter() {
            if s.node() == slot.node() {
                prop_assert!(!s.span().overlaps(cut));
            }
        }
    }

    #[test]
    fn window_cost_is_sum_of_member_costs(
        runtimes in prop::collection::vec(1i64..300, 1..8),
        prices in prop::collection::vec(1i64..20, 8),
    ) {
        let members: Vec<WindowSlot> = runtimes
            .iter()
            .enumerate()
            .map(|(i, &rt)| {
                let slot = Slot::new(
                    SlotId::new(i as u64),
                    NodeId::new(i as u32),
                    Perf::UNIT,
                    Price::from_credits(prices[i]),
                    Span::new(TimePoint::ZERO, TimePoint::new(1_000)).unwrap(),
                )
                .unwrap();
                WindowSlot::from_slot(&slot, TimeDelta::new(rt)).unwrap()
            })
            .collect();
        let window = Window::new(TimePoint::ZERO, members).unwrap();

        let expected_cost: Money = runtimes
            .iter()
            .zip(&prices)
            .map(|(&rt, &p)| Money::from_credits(p * rt))
            .sum();
        prop_assert_eq!(window.total_cost(), expected_cost);

        let max_rt = runtimes.iter().copied().max().unwrap();
        prop_assert_eq!(window.length(), TimeDelta::new(max_rt));
    }

    #[test]
    fn runtime_monotone_in_node_perf(
        wall in 1i64..500,
        req_milli in 500i64..3000,
        a_milli in 500i64..4000,
        b_milli in 500i64..4000,
    ) {
        let req = Perf::from_milli(req_milli);
        let (slow, fast) = if a_milli <= b_milli { (a_milli, b_milli) } else { (b_milli, a_milli) };
        let rt_slow = Perf::from_milli(slow).runtime_for(TimeDelta::new(wall), req);
        let rt_fast = Perf::from_milli(fast).runtime_for(TimeDelta::new(wall), req);
        prop_assert!(rt_fast <= rt_slow, "faster node must not run longer");
        prop_assert!(rt_fast.is_positive());
    }

    #[test]
    fn money_price_arithmetic_consistent(price_micro in 0i64..10_000_000, ticks in 0i64..10_000) {
        let price = Price::from_micro(price_micro);
        let total = price * TimeDelta::new(ticks);
        prop_assert_eq!(total.micro(), price_micro * ticks);
        prop_assert_eq!(total, Money::from_micro(price_micro) * ticks);
    }

    #[test]
    fn interleaved_subtractions_preserve_invariants(
        list in slot_list_strategy(24),
        ops in prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                0.0f64..1.0,
                0.01f64..1.0,
                any::<bool>(),
            ),
            1..20,
        ),
    ) {
        // Any interleaving of span subtraction and window subtraction must
        // keep the list valid (ordering, id index, per-node disjointness)
        // and shrink the total vacancy by exactly the cut lengths — the
        // invariant the incremental search's remnant bookkeeping leans on.
        let mut list = list;
        let before_total = list.total_vacant_time();
        let mut removed_total = TimeDelta::ZERO;

        for (pick, frac_start, frac_len, use_window) in ops {
            if list.is_empty() {
                break;
            }
            let slots: Vec<Slot> = list.iter().copied().collect();
            let slot = *pick.get(&slots);
            let len = slot.length().ticks();

            if use_window {
                // Single-member window anchored at the slot start.
                let runtime = ((frac_len * len as f64) as i64).clamp(1, len);
                let member = WindowSlot::from_slot(&slot, TimeDelta::new(runtime)).unwrap();
                let window = Window::new(slot.start(), vec![member]).unwrap();
                let report = list.subtract_window_report(&window).unwrap();
                removed_total += TimeDelta::new(runtime);

                // The report must describe the mutation it performed.
                prop_assert_eq!(report.removed.as_slice(), &[slot]);
                for gone in &report.removed {
                    prop_assert!(list.get(gone.id()).is_none());
                }
                for remnant in &report.remnants {
                    let found = list.get(remnant.id());
                    prop_assert_eq!(found, Some(remnant));
                    prop_assert!(slot.span().contains_span(remnant.span()));
                }
            } else {
                let cut_start = slot.start().ticks() + (frac_start * (len - 1) as f64) as i64;
                let max_len = slot.end().ticks() - cut_start;
                let cut_len = ((frac_len * max_len as f64) as i64).max(1);
                let cut = Span::new(
                    TimePoint::new(cut_start),
                    TimePoint::new(cut_start + cut_len),
                ).unwrap();
                list.subtract(slot.id(), cut).unwrap();
                removed_total += cut.length();
            }

            prop_assert!(list.validate().is_ok());
            prop_assert_eq!(list.total_vacant_time() + removed_total, before_total);
        }
    }
}
