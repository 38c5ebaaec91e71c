//! Differential harness at the search layer: the full ALP and AMP
//! pipelines must return **byte-identical** outcomes whether the vacant
//! market is the flat list or the interval-timeline representation.
//!
//! The core-level harness (`ecosched-core/tests/interval_equivalence.rs`)
//! pins the two representations to the same observable slot sequence;
//! this file closes the loop one layer up: the `as_algo`-backed window
//! scans, the sequential search driver, and the coscheduled driver all
//! consume a [`SlotList`] only through its iteration and subtraction
//! API, so the same slots must yield the same windows, the same
//! alternatives, the same remaining lists, *and the same work counters*
//! on both representations.
//!
//! CI runs this file at `PROPTEST_CASES=512` in the failure-injection
//! job; the local default below keeps `cargo test` fast.

use ecosched_core::{
    Batch, Job, JobId, MarketRepr, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList,
    Span, TimeDelta, TimePoint,
};
use ecosched_select::{
    find_alternatives, find_alternatives_coscheduled, Alp, Amp, ScanStats, SlotSelector,
};
use proptest::prelude::*;

/// The raw slots of a market with several consecutive vacancies per node
/// — the shape subtraction remnants produce mid-run.
fn market_slots_strategy() -> impl Strategy<Value = Vec<Slot>> {
    prop::collection::vec(
        (
            prop::collection::vec((0i64..80, 40i64..300), 1..4),
            1000i64..3000,
            1i64..12,
        ),
        1..14,
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

fn batch_strategy() -> impl Strategy<Value = Batch> {
    prop::collection::vec(request_strategy(), 1..5).prop_map(|requests| {
        let jobs: Vec<Job> = requests
            .into_iter()
            .enumerate()
            .map(|(i, r)| Job::new(JobId::new(i as u32), r))
            .collect();
        Batch::from_jobs(jobs).unwrap()
    })
}

/// Builds the same market in both representations.
fn both_reprs(slots: &[Slot]) -> (SlotList, SlotList) {
    let flat = SlotList::from_slots_with_repr(slots.to_vec(), MarketRepr::Flat).unwrap();
    let interval = SlotList::from_slots_with_repr(slots.to_vec(), MarketRepr::Interval).unwrap();
    (flat, interval)
}

/// Full-outcome equality: alternatives, the left-behind market, and every
/// scan counter. Unlike the incremental-vs-naive harness, *nothing* may
/// differ here — the representations walk the same slots in the same
/// order, so even the work accounting must agree.
#[track_caller]
fn assert_outcomes_identical(
    label: &str,
    flat: &ecosched_select::SearchOutcome,
    interval: &ecosched_select::SearchOutcome,
) {
    assert_eq!(
        flat.alternatives, interval.alternatives,
        "{label}: alternatives diverge across representations"
    );
    assert_eq!(
        flat.remaining, interval.remaining,
        "{label}: remaining markets diverge across representations"
    );
    assert_eq!(
        flat.stats, interval.stats,
        "{label}: search statistics diverge across representations"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The `as_algo`-backed window scan: same window, same counters, for
    /// both selectors on both representations.
    #[test]
    fn window_scan_is_representation_blind(
        slots in market_slots_strategy(),
        request in request_strategy(),
    ) {
        let (flat, interval) = both_reprs(&slots);

        let mut fs = ScanStats::new();
        let mut is = ScanStats::new();
        let alp = Alp::new();
        prop_assert_eq!(
            alp.find_window(&flat, &request, &mut fs),
            alp.find_window(&interval, &request, &mut is),
            "ALP windows diverge across representations"
        );
        prop_assert_eq!(fs, is, "ALP scan counters diverge across representations");

        let mut fs = ScanStats::new();
        let mut is = ScanStats::new();
        let amp = Amp::new();
        prop_assert_eq!(
            amp.find_window(&flat, &request, &mut fs),
            amp.find_window(&interval, &request, &mut is),
            "AMP windows diverge across representations"
        );
        prop_assert_eq!(fs, is, "AMP scan counters diverge across representations");
    }

    /// The sequential search driver, end to end (scan, commit,
    /// checkpoint resume, remnant re-admission).
    #[test]
    fn sequential_search_is_representation_blind(
        slots in market_slots_strategy(),
        batch in batch_strategy(),
    ) {
        let (flat, interval) = both_reprs(&slots);

        let f = find_alternatives(Alp::new(), &flat, &batch).unwrap();
        let i = find_alternatives(Alp::new(), &interval, &batch).unwrap();
        assert_outcomes_identical("ALP sequential", &f, &i);

        let f = find_alternatives(Amp::new(), &flat, &batch).unwrap();
        let i = find_alternatives(Amp::new(), &interval, &batch).unwrap();
        assert_outcomes_identical("AMP sequential", &f, &i);

        let f = find_alternatives(Amp::with_rho(0.7), &flat, &batch).unwrap();
        let i = find_alternatives(Amp::with_rho(0.7), &interval, &batch).unwrap();
        assert_outcomes_identical("AMP ρ=0.7 sequential", &f, &i);
    }

    /// The coscheduled driver (priority-queue rounds with lazy
    /// revalidation) over both representations.
    #[test]
    fn coscheduled_search_is_representation_blind(
        slots in market_slots_strategy(),
        batch in batch_strategy(),
    ) {
        let (flat, interval) = both_reprs(&slots);

        let f = find_alternatives_coscheduled(Alp::new(), &flat, &batch).unwrap();
        let i = find_alternatives_coscheduled(Alp::new(), &interval, &batch).unwrap();
        assert_outcomes_identical("ALP coscheduled", &f, &i);

        let f = find_alternatives_coscheduled(Amp::new(), &flat, &batch).unwrap();
        let i = find_alternatives_coscheduled(Amp::new(), &interval, &batch).unwrap();
        assert_outcomes_identical("AMP coscheduled", &f, &i);
    }
}

/// A deterministic 4,000-slot market, searched under both representations
/// — volume for the checkpointed `iter_from` resume path, which is the
/// only place the interval walk differs structurally (two binary
/// searches into the blocks instead of one `partition_point` slice).
#[test]
fn large_deterministic_market_is_representation_blind() {
    // SplitMix64, as in the incremental-equivalence harness.
    let mut state = 0x51ab_3c4d_5e6f_7081u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };

    const M: usize = 4_000;
    const NODES: u64 = 200;
    let mut slots = Vec::with_capacity(M);
    let mut cursors = vec![0i64; NODES as usize];
    for id in 0..M as u64 {
        let node = next() % NODES;
        let gap = (next() % 40) as i64;
        let len = 40 + (next() % 260) as i64;
        let start = cursors[node as usize] + gap;
        let end = start + len;
        cursors[node as usize] = end;
        slots.push(
            Slot::new(
                SlotId::new(id),
                NodeId::new(node as u32),
                Perf::from_milli(1000 + (next() % 2000) as i64),
                Price::from_credits(1 + (next() % 11) as i64),
                Span::new(TimePoint::new(start), TimePoint::new(end)).unwrap(),
            )
            .unwrap(),
        );
    }

    let jobs: Vec<Job> = (0..6)
        .map(|i| {
            let n = 2 + (next() % 3) as usize;
            let t = 30 + (next() % 90) as i64;
            let c = 3 + (next() % 6) as i64;
            Job::new(
                JobId::new(i),
                ResourceRequest::new(
                    n,
                    TimeDelta::new(t),
                    Perf::from_milli(1000),
                    Price::from_credits(c),
                )
                .unwrap(),
            )
        })
        .collect();
    let batch = Batch::from_jobs(jobs).unwrap();
    let (flat, interval) = both_reprs(&slots);

    let f = find_alternatives(Amp::new(), &flat, &batch).unwrap();
    let i = find_alternatives(Amp::new(), &interval, &batch).unwrap();
    assert_outcomes_identical("AMP sequential 4k", &f, &i);
    assert!(
        f.stats.scan.checkpoint_hits > 0,
        "instance never resumed from a checkpoint — too sparse to test iter_from"
    );

    let f = find_alternatives_coscheduled(Amp::new(), &flat, &batch).unwrap();
    let i = find_alternatives_coscheduled(Amp::new(), &interval, &batch).unwrap();
    assert_outcomes_identical("AMP coscheduled 4k", &f, &i);

    let f = find_alternatives(Alp::new(), &flat, &batch).unwrap();
    let i = find_alternatives(Alp::new(), &interval, &batch).unwrap();
    assert_outcomes_identical("ALP sequential 4k", &f, &i);
}
