//! Equivalence harness: both search orders, for every selector, must
//! return **byte-identical** results to a restart-per-window reference
//! loop that lives only here.
//!
//! The reference is a plain loop over `find_window` and
//! `SlotList::subtract_window` with a dead set of its own, in both orders:
//! priority passes, and earliest window first with ties to batch
//! priority. It shares no code with the search drivers, so a fault in
//! their one loop shows here even where it changes the built-in and the
//! restart scans alike.
//!
//! It runs the wrapper selectors `NaiveAlp` / `NaiveAmp`, whose
//! `find_window` is the preserved `find_window_naive` and whose `as_algo`
//! stays `None`. Through the searches those wrappers take the restart
//! scan, which must match the reference in every work counter too; the
//! built-in selectors' checkpointed scans count different work and must
//! commit the same.

use ecosched_core::{
    Alternative, Batch, BatchAlternatives, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot,
    SlotId, SlotList, Span, TimeDelta, TimePoint, Window,
};
use ecosched_select::{
    find_alternatives, find_alternatives_coscheduled, Alp, Amp, ScanStats, SearchOutcome,
    SearchStats, SlotSelector,
};
use proptest::prelude::*;

/// ALP through the reference scan only (`as_algo` stays the default
/// `None`, so a search gives it the restart scan).
struct NaiveAlp(Alp);

impl SlotSelector for NaiveAlp {
    fn name(&self) -> &'static str {
        "ALP-naive"
    }

    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        self.0.find_window_naive(list, request, stats)
    }
}

/// AMP through the reference scan only.
struct NaiveAmp(Amp);

impl SlotSelector for NaiveAmp {
    fn name(&self) -> &'static str {
        "AMP-naive"
    }

    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        self.0.find_window_naive(list, request, stats)
    }
}

/// The two search orders.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// `find_alternatives`: passes over the batch in priority order.
    Priority,
    /// `find_alternatives_coscheduled`: the earliest window first.
    EarliestFirst,
}

impl Order {
    fn search(self, selector: &dyn SlotSelector, list: &SlotList, batch: &Batch) -> SearchOutcome {
        match self {
            Order::Priority => find_alternatives(selector, list, batch),
            Order::EarliestFirst => find_alternatives_coscheduled(selector, list, batch),
        }
        .unwrap()
    }

    /// The reference search: every window a fresh `find_window` on the
    /// current list, every miss a dead job.
    fn reference(
        self,
        selector: &dyn SlotSelector,
        list: &SlotList,
        batch: &Batch,
    ) -> SearchOutcome {
        let jobs = batch.as_slice();
        let mut outcome = SearchOutcome {
            alternatives: BatchAlternatives::for_jobs(jobs.iter().map(Job::id)),
            stats: SearchStats::new(),
            remaining: list.clone(),
        };
        let mut dead = vec![false; jobs.len()];
        loop {
            // Whether each job has had its window in this pass.
            let mut served = vec![false; jobs.len()];
            loop {
                let mut chosen: Option<(usize, Window)> = None;
                for index in 0..jobs.len() {
                    if dead[index] || served[index] {
                        continue;
                    }
                    let found = selector.find_window(
                        &outcome.remaining,
                        jobs[index].request(),
                        &mut outcome.stats.scan,
                    );
                    let Some(window) = found else {
                        dead[index] = true;
                        continue;
                    };
                    match self {
                        Order::Priority => {
                            chosen = Some((index, window));
                            break;
                        }
                        // Ascending index, and only a strictly earlier
                        // start displaces: a tie stays with priority.
                        Order::EarliestFirst => {
                            if chosen
                                .as_ref()
                                .is_none_or(|(_, best)| window.start() < best.start())
                            {
                                chosen = Some((index, window));
                            }
                        }
                    }
                }
                let Some((index, window)) = chosen else { break };
                outcome.remaining.subtract_window(&window).unwrap();
                let alternative = Alternative::new(jobs[index].id(), window);
                outcome.alternatives.per_job_mut()[index].push(alternative);
                outcome.stats.windows_committed += 1;
                served[index] = true;
            }
            outcome.stats.passes += 1;
            if !served.contains(&true) {
                return outcome;
            }
        }
    }
}

/// Strategy: a slot list with *several* consecutive vacancies per node —
/// subtraction remnants then interleave with pre-existing same-node slots,
/// which is exactly what the checkpoint bookkeeping has to survive.
fn multi_slot_list_strategy() -> impl Strategy<Value = SlotList> {
    prop::collection::vec(
        (
            // Per node: up to 3 (gap, length) segments laid out head to
            // tail, plus performance and price shared by the node.
            prop::collection::vec((0i64..80, 40i64..300), 1..4),
            1000i64..3000, // perf milli
            1i64..12,      // price credits
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
        SlotList::from_slots(slots).unwrap()
    })
}

/// Strategy: a *clipped* market — the shape every engine cycle searches.
/// After a cycle's clip (`SlotList::clip`) every slot that is running
/// at `now` starts at `now`, so at least half the slots here share one
/// start (`T0`); the rest are later vacancies, on the tail of a clipped
/// node or on a node of their own. The group at the first anchor is then
/// most of the market, which is what a resumed scan keeps pooled.
fn clipped_list_strategy() -> impl Strategy<Value = SlotList> {
    const T0: i64 = 500;
    (
        // One slot per clipped node: (length, perf milli, price credits).
        prop::collection::vec((40i64..300, 1000i64..3000, 1i64..12), 1..12),
        // Later slots: (host selector, gap, length, perf milli, price).
        prop::collection::vec(
            (0usize..64, 0i64..80, 40i64..300, 1000i64..3000, 1i64..12),
            0..12,
        ),
    )
        .prop_map(|(clipped, mut later)| {
            later.truncate(clipped.len());
            let mk = |id: u64, node: usize, perf: i64, price: i64, start: i64, len: i64| {
                Slot::new(
                    SlotId::new(id),
                    NodeId::new(node as u32),
                    Perf::from_milli(perf),
                    Price::from_credits(price),
                    Span::new(TimePoint::new(start), TimePoint::new(start + len)).unwrap(),
                )
                .unwrap()
            };
            let mut slots = Vec::new();
            // Per node: where its next vacancy may start, its perf, its price.
            let mut nodes: Vec<(i64, i64, i64)> = Vec::new();
            for &(len, perf, price) in &clipped {
                slots.push(mk(slots.len() as u64, nodes.len(), perf, price, T0, len));
                nodes.push((T0 + len, perf, price));
            }
            for (host, gap, len, perf, price) in later {
                let id = slots.len() as u64;
                // Half the selectors land on an existing node's tail (its
                // attributes), the other half open a fresh node.
                if host % 2 == 0 {
                    let node = (host / 2) % nodes.len();
                    let (cursor, perf, price) = nodes[node];
                    slots.push(mk(id, node, perf, price, cursor + gap, len));
                    nodes[node].0 = cursor + gap + len;
                } else {
                    slots.push(mk(id, nodes.len(), perf, price, T0 + gap, len));
                    nodes.push((T0 + gap + len, perf, price));
                }
            }
            SlotList::from_slots(slots).unwrap()
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

/// Asserts both outcomes carry the same alternatives, leave the same
/// list behind, and took the same passes and commits.
#[track_caller]
fn assert_outcomes_equal(label: &str, search: &SearchOutcome, reference: &SearchOutcome) {
    assert_eq!(
        search.alternatives, reference.alternatives,
        "{label}: alternatives diverge"
    );
    assert_eq!(
        search.remaining, reference.remaining,
        "{label}: remaining slot lists diverge"
    );
    assert_eq!(
        search.stats.windows_committed, reference.stats.windows_committed,
        "{label}: committed counts diverge"
    );
    assert_eq!(
        search.stats.passes, reference.stats.passes,
        "{label}: pass counts diverge"
    );
}

/// ALP, AMP and AMP at ρ = 0.7, each with its restart double.
fn selector_pairs() -> [(Box<dyn SlotSelector>, Box<dyn SlotSelector>); 3] {
    [
        (Box::new(Alp::new()), Box::new(NaiveAlp(Alp::new()))),
        (Box::new(Amp::new()), Box::new(NaiveAmp(Amp::new()))),
        (
            Box::new(Amp::with_rho(0.7)),
            Box::new(NaiveAmp(Amp::with_rho(0.7))),
        ),
    ]
}

/// Runs `order` with each built-in selector and with its restart double
/// against the reference: the built-in search commits what the reference
/// commits, and the restart search also counts the same scan work.
#[track_caller]
fn assert_order_matches_reference(order: Order, list: &SlotList, batch: &Batch, label: &str) {
    for (builtin, double) in selector_pairs() {
        let reference = order.reference(&*double, list, batch);
        let label = format!("{} {order:?}{label}", builtin.name());
        assert_outcomes_equal(&label, &order.search(&*builtin, list, batch), &reference);
        let restart = order.search(&*double, list, batch);
        assert_outcomes_equal(&format!("{label}, restart"), &restart, &reference);
        assert_eq!(
            restart.stats.scan, reference.stats.scan,
            "{label}, restart: scan counters diverge"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn single_window_search_matches_reference(
        list in multi_slot_list_strategy(),
        request in request_strategy(),
    ) {
        // The JobScan-backed find_window must agree with the forward_scan
        // reference on the window *and* every work counter (a fresh scan
        // never uses a checkpoint, so checkpoint_hits is 0 on both sides).
        let mut inc_stats = ScanStats::new();
        let mut ref_stats = ScanStats::new();
        let alp = Alp::new();
        prop_assert_eq!(
            alp.find_window(&list, &request, &mut inc_stats),
            alp.find_window_naive(&list, &request, &mut ref_stats),
            "ALP windows diverge"
        );
        prop_assert_eq!(inc_stats, ref_stats, "ALP counters diverge");

        let mut inc_stats = ScanStats::new();
        let mut ref_stats = ScanStats::new();
        let amp = Amp::new();
        prop_assert_eq!(
            amp.find_window(&list, &request, &mut inc_stats),
            amp.find_window_naive(&list, &request, &mut ref_stats),
            "AMP windows diverge"
        );
        prop_assert_eq!(inc_stats, ref_stats, "AMP counters diverge");
    }

    #[test]
    fn sequential_search_matches_reference(
        list in multi_slot_list_strategy(),
        batch in batch_strategy(),
    ) {
        assert_order_matches_reference(Order::Priority, &list, &batch, "");
    }

    #[test]
    fn coscheduled_search_matches_reference(
        list in multi_slot_list_strategy(),
        batch in batch_strategy(),
    ) {
        assert_order_matches_reference(Order::EarliestFirst, &list, &batch, "");
    }

    #[test]
    fn incremental_search_never_examines_more_slots(
        list in multi_slot_list_strategy(),
        batch in batch_strategy(),
    ) {
        // Not just equal results — the checkpointing must actually save
        // work: every resumed scan skips the prefix the naive scan redoes.
        let inc = find_alternatives(Amp::new(), &list, &batch).unwrap();
        let naive = Order::Priority.reference(&NaiveAmp(Amp::new()), &list, &batch);
        prop_assert!(inc.stats.scan.slots_examined <= naive.stats.scan.slots_examined);
        assert_no_slot_examined_twice("AMP sequential", &list, &batch, &inc);
        let inc = find_alternatives(Alp::new(), &list, &batch).unwrap();
        assert_no_slot_examined_twice("ALP sequential", &list, &batch, &inc);
    }

    #[test]
    fn clipped_sequential_search_matches_reference(
        list in clipped_list_strategy(),
        batch in batch_strategy(),
    ) {
        assert_order_matches_reference(Order::Priority, &list, &batch, ", clipped");
        let inc = find_alternatives(Alp::new(), &list, &batch).unwrap();
        assert_no_slot_examined_twice("ALP sequential, clipped", &list, &batch, &inc);
        let inc = find_alternatives(Amp::new(), &list, &batch).unwrap();
        assert_no_slot_examined_twice("AMP sequential, clipped", &list, &batch, &inc);
    }

    #[test]
    fn clipped_coscheduled_search_matches_reference(
        list in clipped_list_strategy(),
        batch in batch_strategy(),
    ) {
        assert_order_matches_reference(Order::EarliestFirst, &list, &batch, ", clipped");
    }
}

/// The resume bound: one job's scan only ever moves forward, so it reads
/// each slot of the original list, and each remnant the search minted, at
/// most once — `slots_examined ≤ jobs × (m + remnants minted)`. (Every
/// committed member removes one slot, so the remnants minted are what the
/// remaining list holds beyond `m` less the members committed.)
#[track_caller]
fn assert_no_slot_examined_twice(
    label: &str,
    list: &SlotList,
    batch: &Batch,
    outcome: &SearchOutcome,
) {
    let members: usize = outcome
        .alternatives
        .per_job()
        .iter()
        .flat_map(|job| job.alternatives())
        .map(|a| a.window().slot_count())
        .sum();
    let minted = outcome.remaining.len() + members - list.len();
    let bound = (batch.len() * (list.len() + minted)) as u64;
    assert!(
        outcome.stats.scan.slots_examined <= bound,
        "{label}: {} slots examined by {} scans over {} slots + {minted} remnants",
        outcome.stats.scan.slots_examined,
        batch.len(),
        list.len(),
    );
}

/// A deterministic 4,000-slot instance — large enough that any divergence
/// in remnant re-admission or checkpoint placement has thousands of
/// chances to surface, and the size the issue's acceptance bar names.
#[test]
fn large_deterministic_instance_matches_reference() {
    // SplitMix64: tiny, seedable, and good enough to decorrelate fields.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
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
    let list = SlotList::from_slots(slots).unwrap();

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

    let inc = find_alternatives(Amp::new(), &list, &batch).unwrap();
    let naive = Order::Priority.reference(&NaiveAmp(Amp::new()), &list, &batch);
    assert_outcomes_equal("AMP sequential 4k", &inc, &naive);
    assert!(
        inc.alternatives.total_found() > batch.len(),
        "instance too sparse to exercise checkpoints: {} alternatives",
        inc.alternatives.total_found()
    );
    assert!(
        inc.stats.scan.checkpoint_hits > 0,
        "incremental driver never resumed from a checkpoint"
    );
    assert!(inc.stats.scan.slots_examined < naive.stats.scan.slots_examined);

    let inc = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
    let naive = Order::EarliestFirst.reference(&NaiveAmp(Amp::new()), &list, &batch);
    assert_outcomes_equal("AMP coscheduled 4k", &inc, &naive);

    let inc = find_alternatives(Alp::new(), &list, &batch).unwrap();
    let naive = Order::Priority.reference(&NaiveAlp(Alp::new()), &list, &batch);
    assert_outcomes_equal("ALP sequential 4k", &inc, &naive);
}

/// The clipped counterpart of the instance above: 2,400 nodes each vacant
/// from one shared `T0` (what a cycle's clip makes of every running slot)
/// plus 1,600 later vacancies on their tails — the `engine_widemarket`
/// shape, where the group at the first anchor is most of the market and a
/// resumed scan must neither lose it nor read it again.
#[test]
fn large_clipped_instance_matches_reference() {
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };

    const T0: i64 = 1_000;
    const NODES: usize = 2_400;
    const M: usize = 4_000;
    let mut slots = Vec::with_capacity(M);
    // Per node: (next free tick, perf milli, price credits).
    let mut nodes: Vec<(i64, i64, i64)> = Vec::with_capacity(NODES);
    for id in 0..M {
        let (node, start, len) = if id < NODES {
            let len = 60 + (next() % 400) as i64;
            nodes.push((
                T0 + len,
                1000 + (next() % 2000) as i64,
                1 + (next() % 11) as i64,
            ));
            (id, T0, len)
        } else {
            let node = (next() % NODES as u64) as usize;
            let start = nodes[node].0 + (next() % 60) as i64;
            let len = 40 + (next() % 260) as i64;
            nodes[node].0 = start + len;
            (node, start, len)
        };
        let (_, perf, price) = nodes[node];
        slots.push(
            Slot::new(
                SlotId::new(id as u64),
                NodeId::new(node as u32),
                Perf::from_milli(perf),
                Price::from_credits(price),
                Span::new(TimePoint::new(start), TimePoint::new(start + len)).unwrap(),
            )
            .unwrap(),
        );
    }
    let list = SlotList::from_slots(slots).unwrap();
    let at_t0 = list
        .iter()
        .filter(|s| s.start() == TimePoint::new(T0))
        .count();
    assert!(2 * at_t0 >= list.len(), "not clipped: {at_t0} of {M} at T0");

    // Wide jobs, so the market is spent in tens of windows rather than
    // thousands and the naive side stays affordable.
    let jobs: Vec<Job> = (0..5)
        .map(|i| {
            let n = 40 + (next() % 60) as usize;
            let t = 40 + (next() % 120) as i64;
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

    let inc = find_alternatives(Amp::new(), &list, &batch).unwrap();
    let naive = Order::Priority.reference(&NaiveAmp(Amp::new()), &list, &batch);
    assert_outcomes_equal("AMP sequential 4k clipped", &inc, &naive);
    assert_no_slot_examined_twice("AMP sequential 4k clipped", &list, &batch, &inc);
    assert!(
        inc.alternatives.total_found() > 4 * batch.len(),
        "instance too sparse to exercise resumes: {} alternatives",
        inc.alternatives.total_found()
    );

    let inc = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
    let naive = Order::EarliestFirst.reference(&NaiveAmp(Amp::new()), &list, &batch);
    assert_outcomes_equal("AMP coscheduled 4k clipped", &inc, &naive);

    let inc = find_alternatives(Alp::new(), &list, &batch).unwrap();
    let naive = Order::Priority.reference(&NaiveAlp(Alp::new()), &list, &batch);
    assert_outcomes_equal("ALP sequential 4k clipped", &inc, &naive);
    assert_no_slot_examined_twice("ALP sequential 4k clipped", &list, &batch, &inc);

    let inc = find_alternatives_coscheduled(Alp::new(), &list, &batch).unwrap();
    let naive = Order::EarliestFirst.reference(&NaiveAlp(Alp::new()), &list, &batch);
    assert_outcomes_equal("ALP coscheduled 4k clipped", &inc, &naive);
}
