//! Property-based tests for the ALP/AMP selection algorithms.

use ecosched_core::{
    Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
    TimeDelta, TimePoint,
};
use ecosched_select::{find_alternatives, Alp, Amp, ScanStats, SlotSelector};
use proptest::prelude::*;

/// Strategy: a random valid slot list with one slot per node.
fn slot_list_strategy() -> impl Strategy<Value = SlotList> {
    prop::collection::vec(
        (
            0i64..500,     // start
            30i64..400,    // length
            1000i64..3000, // perf milli (1.0..3.0)
            1i64..12,      // price credits
        ),
        1..40,
    )
    .prop_map(|entries| {
        let slots: Vec<Slot> = entries
            .into_iter()
            .enumerate()
            .map(|(i, (start, len, perf, price))| {
                Slot::new(
                    SlotId::new(i as u64),
                    NodeId::new(i as u32),
                    Perf::from_milli(perf),
                    Price::from_credits(price),
                    Span::new(TimePoint::new(start), TimePoint::new(start + len)).unwrap(),
                )
                .unwrap()
            })
            .collect();
        SlotList::from_slots(slots).unwrap()
    })
}

/// Strategy: a random valid resource request.
fn request_strategy() -> impl Strategy<Value = ResourceRequest> {
    (1usize..5, 20i64..150, 1000i64..2000, 2i64..10).prop_map(|(n, t, p, c)| {
        ResourceRequest::new(
            n,
            TimeDelta::new(t),
            Perf::from_milli(p),
            Price::from_credits(c),
        )
        .unwrap()
    })
}

/// Checks every window guarantee the algorithms promise.
fn assert_window_satisfies(
    window: &ecosched_core::Window,
    request: &ResourceRequest,
    list: &SlotList,
) {
    assert_eq!(
        window.slot_count(),
        request.nodes(),
        "window must have N slots"
    );
    for ws in window.slots() {
        assert!(
            ws.perf().satisfies(request.min_perf()),
            "member below min performance"
        );
        // The used span fits inside the source slot, on the member's node.
        let source = list.covering_slot(ws.node(), window.used_span(ws));
        assert_eq!(
            source.map(Slot::id),
            Some(ws.source()),
            "member must cite a real slot that holds its used span"
        );
        // Runtime matches the corrected (etalon-relative) rule.
        assert_eq!(
            ws.runtime(),
            ws.perf().runtime_for(request.wall_time(), Perf::UNIT)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn alp_windows_satisfy_request(list in slot_list_strategy(), request in request_strategy()) {
        let mut stats = ScanStats::new();
        if let Some(window) = Alp::new().find_window(&list, &request, &mut stats) {
            assert_window_satisfies(&window, &request, &list);
            // ALP: every member individually within the price cap.
            for ws in window.slots() {
                prop_assert!(ws.price() <= request.price_cap());
            }
        }
    }

    #[test]
    fn amp_windows_fit_budget(list in slot_list_strategy(), request in request_strategy()) {
        let mut stats = ScanStats::new();
        if let Some(window) = Amp::new().find_window(&list, &request, &mut stats) {
            assert_window_satisfies(&window, &request, &list);
            prop_assert!(window.total_cost() <= request.budget());
        }
    }

    #[test]
    fn scans_are_linear_in_list_length(list in slot_list_strategy(), request in request_strategy()) {
        let m = list.len() as u64;
        for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
            let mut stats = ScanStats::new();
            let _ = selector.find_window(&list, &request, &mut stats);
            prop_assert!(
                stats.slots_examined <= m,
                "{} examined {} slots of {}",
                selector.name(),
                stats.slots_examined,
                m
            );
        }
    }

    #[test]
    fn whenever_alp_succeeds_amp_succeeds(list in slot_list_strategy(), request in request_strategy()) {
        // Sec. 6 of the paper: any ALP window is AMP-feasible, so AMP can
        // never fail where ALP succeeds.
        let mut stats = ScanStats::new();
        let alp = Alp::new().find_window(&list, &request, &mut stats);
        let amp = Amp::new().find_window(&list, &request, &mut stats);
        if let Some(alp_window) = alp {
            prop_assert!(amp.is_some(), "ALP found a window but AMP did not");
            let amp_window = amp.unwrap();
            // AMP's window starts no later: it scans the same prefix with a
            // weaker admission filter.
            prop_assert!(amp_window.start() <= alp_window.start());
        }
    }

    #[test]
    fn amp_rho_monotone(list in slot_list_strategy(), request in request_strategy()) {
        // A smaller budget can only delay or lose windows.
        let mut stats = ScanStats::new();
        let full = Amp::new().find_window(&list, &request, &mut stats);
        let tight = Amp::with_rho(0.7).find_window(&list, &request, &mut stats);
        if let Some(t) = &tight {
            prop_assert!(full.is_some());
            prop_assert!(full.unwrap().start() <= t.start());
            prop_assert!(t.total_cost() <= request.budget_scaled(0.7));
        }
    }

    #[test]
    fn alternatives_disjoint_and_within_vacancy(
        list in slot_list_strategy(),
        requests in prop::collection::vec(request_strategy(), 1..4),
    ) {
        let jobs: Vec<Job> = requests
            .into_iter()
            .enumerate()
            .map(|(i, r)| Job::new(JobId::new(i as u32), r))
            .collect();
        let batch = Batch::from_jobs(jobs).unwrap();

        for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
            let outcome = find_alternatives(selector, &list, &batch).unwrap();
            let windows: Vec<_> = outcome
                .alternatives
                .per_job()
                .iter()
                .flat_map(|ja| ja.iter().map(|a| a.window().clone()))
                .collect();
            for i in 0..windows.len() {
                for j in (i + 1)..windows.len() {
                    prop_assert!(
                        !windows[i].overlaps(&windows[j]),
                        "{} produced overlapping alternatives",
                        selector.name()
                    );
                }
            }
            // Total vacancy is conserved: remaining + used = original.
            let used: TimeDelta = windows
                .iter()
                .flat_map(|w| w.slots().iter().map(|ws| ws.runtime()))
                .sum();
            prop_assert_eq!(
                outcome.remaining.total_vacant_time() + used,
                list.total_vacant_time()
            );
            prop_assert!(outcome.remaining.validate().is_ok());
        }
    }

    #[test]
    fn search_is_deterministic(list in slot_list_strategy(), request in request_strategy()) {
        let batch = Batch::from_jobs(vec![Job::new(JobId::new(0), request)]).unwrap();
        let a = find_alternatives(Amp::new(), &list, &batch).unwrap();
        let b = find_alternatives(Amp::new(), &list, &batch).unwrap();
        prop_assert_eq!(a.alternatives, b.alternatives);
    }
}

mod coscheduled {
    use super::*;
    use ecosched_select::find_alternatives_coscheduled;

    /// Earliest-first does **not** cover every job the sequential order
    /// covers. The four slots that matter of the instance the retired
    /// `coscheduled_covers_whenever_sequential_does` property printed at
    /// case 1 688 (seed `0x68e413de5de93e72`), one per node:
    ///
    /// ```text
    ///   slot 0  perf 1.746  price  1  [172, 322)
    ///   slot 1  perf 2.689  price  3  [183, 268)
    ///   slot 2  perf 2.404  price  8  [231, 340)
    ///   slot 3  perf 2.959  price 11  [254, 483)
    /// ```
    ///
    /// Job 0 (priority) needs all four nodes at once for a short task; the
    /// first moment they are all vacant is `t = 254`. Job 1 needs two nodes
    /// for a long one and can start on slots 0 and 1 at `t = 183`.
    /// Sequential search serves job 0 first (`t = 254`, 11–19 ticks a
    /// node) and job 1 from the tails at `t = 268`. The co-scheduler
    /// commits job 1's strictly earlier window first; it holds node 0 until
    /// 265, by when what is left of slot 1 (`[237, 268)`) is too short for
    /// job 0's 12 ticks there, so the four nodes never line up again and
    /// job 0 is starved.
    #[test]
    fn coscheduled_can_cover_fewer_jobs_than_sequential() {
        let slot = |id: u64, perf, price, a, b| {
            Slot::new(
                SlotId::new(id),
                NodeId::new(id as u32),
                Perf::from_milli(perf),
                Price::from_credits(price),
                Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
            )
            .unwrap()
        };
        let list = SlotList::from_slots(vec![
            slot(0, 1746, 1, 172, 322),
            slot(1, 2689, 3, 183, 268),
            slot(2, 2404, 8, 231, 340),
            slot(3, 2959, 11, 254, 483),
        ])
        .unwrap();
        let job = |id, n, t, perf, cap| {
            let request = ResourceRequest::new(
                n,
                TimeDelta::new(t),
                Perf::from_milli(perf),
                Price::from_credits(cap),
            );
            Job::new(JobId::new(id), request.unwrap())
        };
        let batch =
            Batch::from_jobs(vec![job(0, 4, 32, 1545, 8), job(1, 2, 143, 1536, 6)]).unwrap();

        let seq = find_alternatives(Amp::new(), &list, &batch).unwrap();
        let cos = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
        let first_start = |o: &ecosched_select::SearchOutcome, job: usize| {
            let found = o.alternatives.per_job()[job].alternatives().first();
            found.map(|a| a.window().start().ticks())
        };
        assert_eq!(
            (first_start(&seq, 0), first_start(&seq, 1)),
            (Some(254), Some(268))
        );
        assert_eq!(
            (first_start(&cos, 0), first_start(&cos, 1)),
            (None, Some(183))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn coscheduled_alternatives_are_disjoint_and_conserving(
            list in slot_list_strategy(),
            requests in prop::collection::vec(request_strategy(), 1..4),
        ) {
            let jobs: Vec<Job> = requests
                .into_iter()
                .enumerate()
                .map(|(i, r)| Job::new(JobId::new(i as u32), r))
                .collect();
            let batch = Batch::from_jobs(jobs).unwrap();
            let outcome = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
            let windows: Vec<_> = outcome
                .alternatives
                .per_job()
                .iter()
                .flat_map(|ja| ja.iter().map(|a| a.window().clone()))
                .collect();
            for i in 0..windows.len() {
                for j in (i + 1)..windows.len() {
                    prop_assert!(!windows[i].overlaps(&windows[j]));
                }
            }
            let used: TimeDelta = windows
                .iter()
                .flat_map(|w| w.slots().iter().map(|ws| ws.runtime()))
                .sum();
            prop_assert_eq!(
                outcome.remaining.total_vacant_time() + used,
                list.total_vacant_time()
            );
            prop_assert!(outcome.remaining.validate().is_ok());
        }

        #[test]
        fn coscheduled_earliest_first_window_is_no_later(
            list in slot_list_strategy(),
            requests in prop::collection::vec(request_strategy(), 2..4),
        ) {
            // Provable relation: the co-scheduler's very first commit is the
            // globally earliest candidate window on the full list, so the
            // minimum first-alternative start across jobs can never exceed
            // the sequential search's. (The *sum* of first starts is not
            // ordered — greedy earliest-first is not sum-optimal — and
            // neither is coverage: see the counterexample above.)
            let jobs: Vec<Job> = requests
                .into_iter()
                .enumerate()
                .map(|(i, r)| Job::new(JobId::new(i as u32), r))
                .collect();
            let batch = Batch::from_jobs(jobs).unwrap();
            let seq = ecosched_select::find_alternatives(Amp::new(), &list, &batch).unwrap();
            let cos = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
            let min_first = |o: &ecosched_select::SearchOutcome| -> Option<i64> {
                o.alternatives
                    .per_job()
                    .iter()
                    .filter_map(|ja| ja.alternatives().first())
                    .map(|a| a.window().start().ticks())
                    .min()
            };
            if let (Some(s), Some(c)) = (min_first(&seq), min_first(&cos)) {
                prop_assert!(c <= s, "coscheduled min first start {c} > sequential {s}");
            }
        }
    }
}
