//! Differential-oracle harness for the incremental combination optimizer.
//!
//! Random batches are put through random mutation sequences — add job,
//! drop job, revoke an alternative, repair (replace) an alternative, and
//! shift the `B*`/`T*` limits — while one [`IncrementalOptimizer`] carries
//! its memos across every step. After each step all three DP criteria and
//! both Pareto queries must return *byte-identical* results (assignments,
//! `T(s̄)`, `C(s̄)`, and errors) to the retained from-scratch `*_naive`
//! drivers, and equal objectives to the exhaustive `brute` oracle on small
//! (≤ 6 job) instances. A second property asks one solver at a time —
//! repeats, shifted limits, mutated tables, resolutions that do and do
//! not re-weight the items — and holds the row counters to a model of
//! the memo.
//!
//! Run with `PROPTEST_CASES=512` in CI's failure-injection job.

use ecosched_core::{
    Alternative, JobAlternatives, JobId, Money, NodeId, Perf, Price, Slot, SlotId, Span, TimeDelta,
    TimePoint, Window, WindowSlot,
};
use ecosched_optimize::{
    brute, max_cost_under_time_naive, min_cost_under_time_naive, min_time_under_budget_naive,
    IncrementalOptimizer, ParetoFrontier,
};
use proptest::prelude::*;

/// Builds an alternative with exact integer-credit cost and tick time.
fn alternative(job: u32, cost_credits: i64, time: i64) -> Alternative {
    let length_slot = Slot::new(
        SlotId::new(0),
        NodeId::new(0),
        Perf::UNIT,
        Price::ZERO,
        Span::new(TimePoint::ZERO, TimePoint::new(1_000_000)).unwrap(),
    )
    .unwrap();
    let cost_slot = Slot::new(
        SlotId::new(1),
        NodeId::new(1),
        Perf::UNIT,
        Price::from_credits(cost_credits),
        Span::new(TimePoint::ZERO, TimePoint::new(1_000_000)).unwrap(),
    )
    .unwrap();
    let window = Window::new(
        TimePoint::ZERO,
        vec![
            WindowSlot::from_slot(&length_slot, TimeDelta::new(time)).unwrap(),
            WindowSlot::from_slot(&cost_slot, TimeDelta::new(1)).unwrap(),
        ],
    )
    .unwrap();
    Alternative::new(JobId::new(job), window)
}

/// Materializes `(cost, time)` specs as a positional alternatives table.
fn build_table(specs: &[Vec<(i64, i64)>]) -> Vec<JobAlternatives> {
    specs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let mut ja = JobAlternatives::new(JobId::new(i as u32));
            for &(cost, time) in job {
                ja.push(alternative(i as u32, cost, time));
            }
            ja
        })
        .collect()
}

const MAX_JOBS: usize = 7;

/// One mutation step: opcode, two deferred picks, a fresh `(cost, time)`
/// pair, and this step's `T*`/`B*` limits.
type Step = (
    u8,
    prop::sample::Index,
    prop::sample::Index,
    (i64, i64),
    i64,
    i64,
);

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..4,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            (1i64..30, 2i64..60),
            10i64..260,
            5i64..120,
        ),
        1..10,
    )
}

fn initial_strategy() -> impl Strategy<Value = Vec<Vec<(i64, i64)>>> {
    prop::collection::vec(prop::collection::vec((1i64..30, 2i64..60), 1..5), 1..7)
}

/// Applies one mutation to the spec table. Jobs always keep ≥ 1
/// alternative and the batch keeps ≥ 1 job, so every intermediate table is
/// well-formed (error-path equivalence has its own dedicated coverage).
fn apply_step(
    specs: &mut Vec<Vec<(i64, i64)>>,
    op: u8,
    pick_job: prop::sample::Index,
    pick_alt: prop::sample::Index,
    cost: i64,
    time: i64,
) {
    match op {
        // Add a job (1–2 alternatives) at a random position.
        0 => {
            if specs.len() < MAX_JOBS {
                let at = pick_job.index(specs.len() + 1);
                let mut job = vec![(cost, time)];
                if pick_alt.index(2) == 1 {
                    job.push((31 - cost, 62 - time));
                }
                specs.insert(at, job);
            }
        }
        // Drop a job.
        1 => {
            if specs.len() > 1 {
                let at = pick_job.index(specs.len());
                specs.remove(at);
            }
        }
        // Revoke one alternative.
        2 => {
            let job = pick_job.index(specs.len());
            if specs[job].len() > 1 {
                let alt = pick_alt.index(specs[job].len());
                specs[job].remove(alt);
            }
        }
        // Repair: replace one alternative with a fresh window.
        _ => {
            let job = pick_job.index(specs.len());
            let alt = pick_alt.index(specs[job].len());
            specs[job][alt] = (cost, time);
        }
    }
}

/// Asserts every incremental solver byte-identical to its naive oracle at
/// these limits, and objective-equal to brute force when small enough.
fn assert_solvers_agree(
    opt: &mut IncrementalOptimizer,
    table: &[JobAlternatives],
    quota: TimeDelta,
    budget: Money,
) {
    let resolution = Money::from_credits(1);

    let min_cost = opt.min_cost_under_time(table, quota);
    assert_eq!(
        min_cost,
        min_cost_under_time_naive(table, quota),
        "min_cost_under_time diverged from naive at quota {quota}"
    );
    let max_cost = opt.max_cost_under_time(table, quota);
    assert_eq!(
        max_cost,
        max_cost_under_time_naive(table, quota),
        "max_cost_under_time diverged from naive at quota {quota}"
    );
    let min_time = opt.min_time_under_budget(table, budget, resolution);
    assert_eq!(
        min_time,
        min_time_under_budget_naive(table, budget, resolution),
        "min_time_under_budget diverged from naive at budget {budget}"
    );

    let naive_frontier = ParetoFrontier::new(table).expect("mutated tables stay well-formed");
    assert_eq!(
        opt.pareto_min_cost_under_time(table, quota),
        naive_frontier.min_cost_under_time(quota),
        "cached Pareto min-cost diverged at quota {quota}"
    );
    assert_eq!(
        opt.pareto_min_time_under_budget(table, budget),
        naive_frontier.min_time_under_budget(budget),
        "cached Pareto min-time diverged at budget {budget}"
    );

    // The exhaustive oracle reconstructs ties in a different order, so
    // compare objectives and feasibility, not choices.
    let combinations: usize = table.iter().map(JobAlternatives::len).product();
    if table.len() <= 6 && combinations <= 20_000 {
        match (&min_cost, brute::min_cost_under_time_brute(table, quota)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.total_cost(), b.total_cost(), "brute min-cost objective");
                assert!(a.total_time() <= quota);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("min-cost feasibility disagrees with brute: {a:?} vs {b:?}"),
        }
        match (&max_cost, brute::max_cost_under_time_brute(table, quota)) {
            (Ok(a), Ok(b)) => assert_eq!(a.total_cost(), b.total_cost(), "brute max-cost"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("max-cost feasibility disagrees with brute: {a:?} vs {b:?}"),
        }
        match (&min_time, brute::min_time_under_budget_brute(table, budget)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.total_time(), b.total_time(), "brute min-time objective");
                assert!(a.total_cost() <= budget);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("min-time feasibility disagrees with brute: {a:?} vs {b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_equals_oracles_under_mutation(
        initial in initial_strategy(),
        steps in steps_strategy(),
    ) {
        let mut specs = initial;
        let mut opt = IncrementalOptimizer::new();
        let table = build_table(&specs);
        assert_solvers_agree(&mut opt, &table, TimeDelta::new(120), Money::from_credits(40));
        for (op, pick_job, pick_alt, (cost, time), quota, budget) in steps {
            apply_step(&mut specs, op, pick_job, pick_alt, cost, time);
            let table = build_table(&specs);
            assert_solvers_agree(
                &mut opt,
                &table,
                TimeDelta::new(quota),
                Money::from_credits(budget),
            );
        }
    }

    #[test]
    fn row_counts_follow_the_memo_model(
        initial in initial_strategy(),
        asks in asks_strategy(),
    ) {
        let mut specs = initial;
        let mut opt = IncrementalOptimizer::new();
        let mut model = MemoModel::default();
        // Per solver: T* in ticks for the two cost solvers, B* in credits.
        let mut limits = [120i64, 120, 40];
        for (asked, ((op, pick_job, pick_alt, (cost, time)), (solver, shift, resolution))) in
            asks.into_iter().enumerate()
        {
            if op < 4 {
                apply_step(&mut specs, op, pick_job, pick_alt, cost, time);
            }
            let table = build_table(&specs);
            let solver = usize::from(solver);
            limits[solver] = (limits[solver] + shift).max(1);
            let limit = limits[solver];
            let (items, capacity) = if solver < 2 {
                let quota = TimeDelta::new(limit);
                let (got, naive) = if solver == 0 {
                    (
                        opt.min_cost_under_time(&table, quota),
                        min_cost_under_time_naive(&table, quota),
                    )
                } else {
                    (
                        opt.max_cost_under_time(&table, quota),
                        max_cost_under_time_naive(&table, quota),
                    )
                };
                prop_assert_eq!(got, naive);
                (dp_items(&specs, |cost, time| (time, cost * 1_000_000)), limit)
            } else {
                let r = RESOLUTIONS[usize::from(resolution)];
                let (budget, resolution) = (Money::from_credits(limit), Money::from_micro(r));
                prop_assert_eq!(
                    opt.min_time_under_budget(&table, budget, resolution),
                    min_time_under_budget_naive(&table, budget, resolution)
                );
                let items = dp_items(&specs, |cost, time| ((cost * 1_000_000 + r - 1) / r, time));
                (items, limit * 1_000_000 / r)
            };
            model.ask(solver, items, capacity);
            let stats = opt.stats();
            prop_assert_eq!(stats.solves, asked as u64 + 1);
            prop_assert_eq!(stats.rows_reused, model.reused);
            prop_assert_eq!(stats.rows_rebuilt, model.rebuilt);
            prop_assert_eq!(stats.rows_extended, 0);
            prop_assert_eq!(stats.cache_high_water, model.high_water);
        }
    }
}

/// Money resolutions in micro-credits: one credit; a credit and a
/// micro-credit, which quantizes every whole-credit cost to the weight one
/// credit gives; and two that re-weight the items.
const RESOLUTIONS: [i64; 4] = [1_000_000, 1_000_001, 500_000, 3_000_000];

/// One question: a mutation (`op < 4`, as in [`apply_step`]) or none;
/// then the solver asked (min cost, max cost, min time), the shift of
/// that solver's limit (zero one time in three) and a resolution for min
/// time.
type Ask = (
    (u8, prop::sample::Index, prop::sample::Index, (i64, i64)),
    (u8, i64, u8),
);

fn asks_strategy() -> impl Strategy<Value = Vec<Ask>> {
    let shift = (0u8..3, -40i64..40).prop_map(|(keep, by)| if keep == 0 { 0 } else { by });
    prop::collection::vec(
        (
            (
                0u8..10,
                any::<prop::sample::Index>(),
                any::<prop::sample::Index>(),
                (1i64..30, 2i64..60),
            ),
            (0u8..3, shift, 0u8..4),
        ),
        1..16,
    )
}

/// A table as one DP axis sees it: `(weight, value)` per alternative.
type Items = Vec<Vec<(i64, i64)>>;

/// A table's DP items: `axis` maps each alternative's cost (credits) and
/// time (ticks) to its `(weight, value)`.
fn dp_items(specs: &[Vec<(i64, i64)>], axis: impl Fn(i64, i64) -> (i64, i64)) -> Items {
    specs
        .iter()
        .map(|job| job.iter().map(|&(cost, time)| axis(cost, time)).collect())
        .collect()
}

/// What the optimizer's row counters must read: per solver, the items
/// and capacity of its last rebuild. A question reuses its `n` rows
/// exactly when its items repeat that rebuild's and its capacity is
/// within that rebuild's; otherwise it rebuilds all `n`.
#[derive(Default)]
struct MemoModel {
    last: [Option<(Items, i64)>; 3],
    reused: u64,
    rebuilt: u64,
    high_water: u64,
}

impl MemoModel {
    fn ask(&mut self, solver: usize, items: Items, capacity: i64) {
        let n = items.len() as u64;
        match &self.last[solver] {
            Some((last, width)) if *last == items && capacity <= *width => self.reused += n,
            _ => {
                self.rebuilt += n;
                self.last[solver] = Some((items, capacity));
            }
        }
        let resident: usize = self
            .last
            .iter()
            .flatten()
            .map(|(items, _)| items.len())
            .sum();
        self.high_water = self.high_water.max(resident as u64);
    }
}

/// Error paths must match the oracle too: a job whose alternatives are all
/// revoked turns every solver into the same `NoAlternatives` error without
/// poisoning the cache for later, repaired tables.
#[test]
fn revoke_to_empty_matches_oracle_errors_and_recovers() {
    let mut specs: Vec<Vec<(i64, i64)>> = vec![vec![(4, 20), (2, 45)], vec![(6, 12)]];
    let mut opt = IncrementalOptimizer::new();
    let quota = TimeDelta::new(80);

    let table = build_table(&specs);
    assert_eq!(
        opt.min_cost_under_time(&table, quota),
        min_cost_under_time_naive(&table, quota)
    );

    // Revoke job 1's only alternative: malformed table, identical errors.
    let saved = specs[1].remove(0);
    let broken = build_table(&specs);
    assert_eq!(
        opt.min_cost_under_time(&broken, quota),
        min_cost_under_time_naive(&broken, quota)
    );
    assert_eq!(
        opt.pareto_min_cost_under_time(&broken, quota).unwrap_err(),
        ParetoFrontier::new(&broken).unwrap_err()
    );

    // Repair the job: the cached path recovers and still matches.
    specs[1].push(saved);
    let repaired = build_table(&specs);
    assert_eq!(
        opt.min_cost_under_time(&repaired, quota),
        min_cost_under_time_naive(&repaired, quota)
    );
}
