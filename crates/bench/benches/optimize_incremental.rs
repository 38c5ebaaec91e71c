//! Bench: the incremental combination optimizer against the retained
//! from-scratch oracle — cold first solves, warm re-queries at shifted
//! limits, warm re-solves after a front-of-batch mutation — and one DP
//! row built by the row kernel against the same row built cell by cell.
//!
//! Committed medians live in `BENCH_optimize.json`; refresh them with
//!
//! ```sh
//! ECOSCHED_BENCH_REPORT=BENCH_optimize.json \
//!     cargo bench -p ecosched-bench --bench optimize_incremental
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_core::{
    Alternative, JobAlternatives, JobId, Money, NodeId, Perf, Price, Slot, SlotId, Span, TimeDelta,
    TimePoint, Window, WindowSlot,
};
use ecosched_optimize::{min_cost_under_time_naive, IncrementalOptimizer};
use std::hint::black_box;

/// Deterministic splitmix64 — the bench needs repeatable tables, not
/// statistical quality.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An alternative with exact integer-credit cost and tick time (a
/// zero-price slot fixes the length, a unit-tick slot fixes the cost).
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

/// A synthetic batch: `jobs` jobs with 4 alternatives each, costs in
/// `1..=30` credits and times in `1..=12` ticks (small times keep the DP
/// width proportional to the batch, as the paper's quotas do).
fn synth_table(jobs: usize, seed: u64) -> Vec<JobAlternatives> {
    let mut state = seed;
    (0..jobs)
        .map(|i| {
            let mut ja = JobAlternatives::new(JobId::new(i as u32));
            for _ in 0..4 {
                let cost = 1 + (splitmix(&mut state) % 30) as i64;
                let time = 1 + (splitmix(&mut state) % 12) as i64;
                ja.push(alternative(i as u32, cost, time));
            }
            ja
        })
        .collect()
}

/// A feasible `T*`: the sum of per-job fastest times plus one tick of
/// slack per job, so limit-shift variants stay feasible too.
fn quota_for(table: &[JobAlternatives]) -> TimeDelta {
    let floor: i64 = table
        .iter()
        .map(|ja| {
            ja.alternatives()
                .iter()
                .map(|a| a.window().length().ticks())
                .min()
                .unwrap()
        })
        .sum();
    TimeDelta::new(floor + table.len() as i64)
}

/// Swaps job 0's alternatives for a fresh draw: the front-of-batch
/// mutation that forces a one-row prefix patch while the whole suffix
/// stays reusable.
fn mutate_front(table: &[JobAlternatives], seed: u64) -> Vec<JobAlternatives> {
    let mut mutated = table.to_vec();
    let mut state = seed;
    let mut ja = JobAlternatives::new(JobId::new(0));
    for _ in 0..4 {
        let cost = 1 + (splitmix(&mut state) % 30) as i64;
        let time = 1 + (splitmix(&mut state) % 12) as i64;
        ja.push(alternative(0, cost, time));
    }
    mutated[0] = ja;
    mutated
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize_incremental");
    for jobs in [50usize, 200, 800] {
        let table = synth_table(jobs, jobs as u64);
        let patched = mutate_front(&table, 0x5eed + jobs as u64);
        let quota = quota_for(&table);
        let shifted = TimeDelta::new(quota.ticks() - 1);

        group.bench_with_input(BenchmarkId::new("naive_rebuild", jobs), &jobs, |b, _| {
            b.iter(|| black_box(min_cost_under_time_naive(black_box(&table), quota)));
        });

        group.bench_with_input(BenchmarkId::new("cold_first_solve", jobs), &jobs, |b, _| {
            b.iter(|| {
                let mut optimizer = IncrementalOptimizer::new();
                black_box(optimizer.min_cost_under_time(black_box(&table), quota))
            });
        });

        // Warm re-query: the rows are resident, only the capacity read
        // point moves — the case every `ParetoFrontier`-style limit sweep
        // and repeated VO-limit evaluation hits.
        group.bench_with_input(BenchmarkId::new("warm_limit_shift", jobs), &jobs, |b, _| {
            let mut optimizer = IncrementalOptimizer::new();
            optimizer.min_cost_under_time(&table, quota).unwrap();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let q = if flip { shifted } else { quota };
                black_box(optimizer.min_cost_under_time(black_box(&table), q))
            });
        });

        // Warm re-solve after a front-of-batch mutation: one row rebuilt,
        // `jobs - 1` suffix rows reused — the engine's cycle-to-cycle
        // shape when one job leaves or changes.
        group.bench_with_input(BenchmarkId::new("warm_front_patch", jobs), &jobs, |b, _| {
            let mut optimizer = IncrementalOptimizer::new();
            optimizer.min_cost_under_time(&table, quota).unwrap();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let t = if flip { &patched } else { &table };
                black_box(optimizer.min_cost_under_time(black_box(t), quota))
            });
        });
    }
    group.finish();
}

/// The definition of one Eq. (1) row, a cell at a time over `Option`
/// cells with a reachability branch per (cell, item): a copy of
/// `optimize::dp`'s test-only cell oracle (minimizing), which is how
/// every row was built before the item-major kernel.
fn cell_by_cell_row(items: &[(i64, i64)], next: &[Option<i64>], width: usize) -> Vec<Option<i64>> {
    (0..=width)
        .map(|w| {
            let mut best: Option<i64> = None;
            for &(weight, value) in items {
                if weight > w as i64 {
                    continue;
                }
                let Some(rest) = next[w - weight as usize] else {
                    continue;
                };
                let candidate = value + rest;
                best = Some(best.map_or(candidate, |b| b.min(candidate)));
            }
            best
        })
        .collect()
}

/// One row of `width + 1` columns over `items` alternatives with
/// independent uniform costs and times (so ≈ ln `items` of them are
/// non-dominated): 8 is `batch_replan`'s count per job, 133
/// `engine_widemarket`'s; 1 500 and 6 000 columns bracket their quotas.
/// The kernel is crate-private, so `kernel` is the whole one-job
/// `min_cost_under_time_naive` solve — validation, the row, the
/// reconstruction and the `Assignment` — which only overstates it.
fn bench_row_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_row_kernel");
    for items in [8usize, 133] {
        for width in [1_500usize, 6_000] {
            let mut state = (items * width) as u64;
            let specs: Vec<(i64, i64)> = (0..items)
                .map(|_| {
                    let cost = 1 + (splitmix(&mut state) % 3_000) as i64;
                    let time = 1 + (splitmix(&mut state) % width as u64) as i64;
                    (cost, time)
                })
                .collect();
            let mut job = JobAlternatives::new(JobId::new(0));
            for &(cost, time) in &specs {
                job.push(alternative(0, cost, time));
            }
            let table = vec![job];
            let quota = TimeDelta::new(width as i64);
            let dp_items: Vec<(i64, i64)> = specs
                .iter()
                .map(|&(cost, time)| (time, Money::from_credits(cost).micro()))
                .collect();
            let base = vec![Some(0i64); width + 1];
            let cheapest = min_cost_under_time_naive(&table, quota).unwrap();
            assert_eq!(
                cell_by_cell_row(&dp_items, &base, width)[width],
                Some(cheapest.total_cost().micro()),
                "the two sides must compute the same row"
            );

            let id = format!("{items}x{width}");
            group.bench_with_input(BenchmarkId::new("kernel", &id), &id, |b, _| {
                b.iter(|| black_box(min_cost_under_time_naive(black_box(&table), quota)));
            });
            group.bench_with_input(BenchmarkId::new("cell_by_cell", &id), &id, |b, _| {
                b.iter(|| black_box(cell_by_cell_row(black_box(&dp_items), &base, width)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dp, bench_row_kernel);
criterion_main!(benches);
