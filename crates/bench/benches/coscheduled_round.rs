//! Bench: the coscheduled search's priority-queue driver against its
//! rescan oracle, recorded in `BENCH_select.json` as `coscheduled_round`.
//!
//! The lazy-revalidated priority-queue driver behind
//! [`find_alternatives_coscheduled`] runs against the retained full-rescan
//! driver ([`find_alternatives_coscheduled_rescan`]) at batch 50/200/800.
//! The rescan driver re-evaluates every live scan after every commit
//! (`O(batch²)` scan runs per pass); the queue driver re-stamps stale heap
//! keys via the monotone-window-start survivability check and re-runs only
//! invalidated scans (`O(batch log batch)` heap traffic in the common
//! case). The ratio therefore widens with the batch size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_core::{
    Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
    TimeDelta, TimePoint,
};
use ecosched_select::{find_alternatives_coscheduled, find_alternatives_coscheduled_rescan, Amp};
use std::hint::black_box;

const NODES: u64 = 64;

/// `gens` consecutive 110-tick slots on each of 64 nodes — enough
/// capacity that a batch of `n` two-node jobs commits most of its windows
/// in the first pass and drains the list in the second.
fn dense_list(gens: u64) -> SlotList {
    let slots: Vec<Slot> = (0..NODES * gens)
        .map(|i| {
            let node = (i % NODES) as u32;
            let gen = (i / NODES) as i64;
            let start = gen * 120 + (i % 5) as i64;
            Slot::new(
                SlotId::new(i),
                NodeId::new(node),
                Perf::UNIT,
                Price::from_credits(1 + (i % 3) as i64),
                Span::new(TimePoint::new(start), TimePoint::new(start + 110)).unwrap(),
            )
            .unwrap()
        })
        .collect();
    SlotList::from_slots(slots).unwrap()
}

/// `n` identical two-node jobs with a budget that admits any slot pair.
fn two_node_batch(n: u32) -> Batch {
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            Job::new(
                JobId::new(i),
                ResourceRequest::new(2, TimeDelta::new(60), Perf::UNIT, Price::from_credits(6))
                    .unwrap(),
            )
        })
        .collect();
    Batch::from_jobs(jobs).unwrap()
}

/// Capacity sized to the batch: ~2 windows' worth of slots per job.
fn gens_for(batch: u32) -> u64 {
    (u64::from(batch) * 4).div_ceil(NODES).max(2)
}

fn bench_coscheduled_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("coscheduled_round");
    for n in [50u32, 200, 800] {
        let list = dense_list(gens_for(n));
        let batch = two_node_batch(n);
        // Sanity: both drivers agree and the instance is non-trivial.
        let queue = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
        let rescan = find_alternatives_coscheduled_rescan(Amp::new(), &list, &batch).unwrap();
        assert_eq!(queue.alternatives, rescan.alternatives);
        assert!(queue.alternatives.total_found() >= n as usize);

        group.bench_with_input(BenchmarkId::new("queue", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    find_alternatives_coscheduled(Amp::new(), black_box(&list), &batch).unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("rescan", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    find_alternatives_coscheduled_rescan(Amp::new(), black_box(&list), &batch)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coscheduled_round);
criterion_main!(benches);
