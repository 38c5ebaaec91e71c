//! Bench: checkpointed incremental alternatives search vs the
//! restart-per-window reference driver.
//!
//! The instance is built so the number of committed alternatives is
//! bounded (~100) independent of the list size `m`: only a fixed-size band
//! of *cheap* slots at the **end** of the horizon can form windows, while
//! the long expensive prefix merely has to be scanned past. The naive
//! driver re-walks that prefix for every window (`O(A·m)` slot visits);
//! the incremental driver resumes each job at its last acceptance anchor
//! and walks the list once per job (`O(m)` amortized). The gap therefore
//! widens with `m` — that is the measured claim, recorded in
//! `BENCH_select.json`.
//!
//! The banded instance has no large same-start group, so it cannot show
//! what a resume costs on the market an engine cycle searches: after
//! a cycle's clip every slot live at `now` starts at `now`, and the group
//! at a scan's acceptance anchor is most of the list. The `clipped`
//! instance has that shape; its `incremental` medians, read against the
//! same bench built at the parent commit, are what keeping the anchor
//! group pooled buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_core::{
    Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
    TimeDelta, TimePoint, Window,
};
use ecosched_select::{
    find_alternatives, find_alternatives_naive, Alp, Amp, ScanStats, SlotSelector,
};
use std::hint::black_box;

const NODES: u64 = 64;
const CHEAP_PRICE: i64 = 2;
const DEAR_PRICE: i64 = 50;

/// `m` slots over 64 nodes, sequential per node (no same-node overlap),
/// with only the last `min(192, m/2)` slots priced within reach of the
/// jobs. Windows can only form in that cheap tail band.
fn banded_list(m: usize) -> SlotList {
    let cheap_from = m - (m / 2).min(192);
    let slots: Vec<Slot> = (0..m as u64)
        .map(|i| {
            let node = i % NODES;
            let cycle = (i / NODES) as i64;
            let start = cycle * 140 + (i % 7) as i64 * 3;
            let price = if i as usize >= cheap_from {
                CHEAP_PRICE
            } else {
                DEAR_PRICE
            };
            Slot::new(
                SlotId::new(i),
                NodeId::new(node as u32),
                Perf::UNIT,
                Price::from_credits(price),
                Span::new(TimePoint::new(start), TimePoint::new(start + 120)).unwrap(),
            )
            .unwrap()
        })
        .collect();
    SlotList::from_slots(slots).unwrap()
}

/// Four identical 4-node jobs. Budget `S = 4·60·4 = 960` admits four cheap
/// members (4·120 = 480) but no expensive one (50·60 = 3000 alone busts
/// it), and ALP's cap 4 rejects expensive slots outright.
fn banded_batch() -> Batch {
    let jobs: Vec<Job> = (0..4)
        .map(|i| {
            Job::new(
                JobId::new(i),
                ResourceRequest::new(4, TimeDelta::new(60), Perf::UNIT, Price::from_credits(4))
                    .unwrap(),
            )
        })
        .collect();
    Batch::from_jobs(jobs).unwrap()
}

const T0: i64 = 1_000;

/// `m` slots of which three in five are one node each, vacant from the
/// shared `T0` — every slot live at `T0` starts at `T0` — and the rest
/// are later vacancies on those nodes' tails.
fn clipped_list(m: usize) -> SlotList {
    let nodes = m * 3 / 5;
    let mut cursors = vec![0i64; nodes];
    let slots: Vec<Slot> = (0..m)
        .map(|i| {
            let (node, start, len) = if i < nodes {
                (i, T0, 120 + (i % 7) as i64 * 30)
            } else {
                let node = i * 7919 % nodes;
                (
                    node,
                    cursors[node] + (i % 5) as i64 * 10,
                    60 + (i % 9) as i64 * 20,
                )
            };
            cursors[node] = start + len;
            Slot::new(
                SlotId::new(i as u64),
                NodeId::new(node as u32),
                Perf::UNIT,
                Price::from_credits(1 + (node % 11) as i64),
                Span::new(TimePoint::new(start), TimePoint::new(start + len)).unwrap(),
            )
            .unwrap()
        })
        .collect();
    SlotList::from_slots(slots).unwrap()
}

/// Six jobs of 2–4 nodes and 40–90 ticks under a mid-range price cap:
/// narrow enough that the clipped market yields hundreds of windows, most
/// of them accepted at `T0`.
fn clipped_batch() -> Batch {
    let jobs: Vec<Job> = (0..6u32)
        .map(|i| {
            Job::new(
                JobId::new(i),
                ResourceRequest::new(
                    2 + (i % 3) as usize,
                    TimeDelta::new(40 + 10 * i64::from(i)),
                    Perf::UNIT,
                    Price::from_credits(6),
                )
                .unwrap(),
            )
        })
        .collect();
    Batch::from_jobs(jobs).unwrap()
}

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

fn bench_search_amp(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_incremental_amp");
    let batch = banded_batch();
    for m in [135usize, 1_000, 16_000] {
        let list = banded_list(m);
        // Sanity: the instance really commits a bounded, non-trivial
        // number of alternatives and the incremental driver resumes.
        let outcome = find_alternatives(Amp::new(), &list, &batch).unwrap();
        assert!(outcome.alternatives.total_found() >= 8);
        assert!(outcome.stats.scan.checkpoint_hits > 0);
        let reference = find_alternatives_naive(NaiveAmp(Amp::new()), &list, &batch).unwrap();
        assert_eq!(outcome.alternatives, reference.alternatives);

        group.bench_with_input(BenchmarkId::new("naive", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    find_alternatives_naive(NaiveAmp(Amp::new()), black_box(&list), &batch)
                        .unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental", m), &m, |b, _| {
            b.iter(|| black_box(find_alternatives(Amp::new(), black_box(&list), &batch).unwrap()));
        });
    }
    group.finish();
}

fn bench_search_alp(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_incremental_alp");
    let batch = banded_batch();
    for m in [135usize, 1_000, 16_000] {
        let list = banded_list(m);
        group.bench_with_input(BenchmarkId::new("naive", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    find_alternatives_naive(NaiveAlp(Alp::new()), black_box(&list), &batch)
                        .unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental", m), &m, |b, _| {
            b.iter(|| black_box(find_alternatives(Alp::new(), black_box(&list), &batch).unwrap()));
        });
    }
    group.finish();
}

fn bench_search_clipped(c: &mut Criterion) {
    let batch = clipped_batch();
    let mut amp = c.benchmark_group("search_clipped_amp");
    for m in [1_000usize, 4_000] {
        let list = clipped_list(m);
        // Sanity: the instance is clipped, resumes often, and commits what
        // the restart-per-window driver commits.
        let at_t0 = list
            .iter()
            .filter(|s| s.start() == TimePoint::new(T0))
            .count();
        assert!(2 * at_t0 >= m);
        let outcome = find_alternatives(Amp::new(), &list, &batch).unwrap();
        assert!(outcome.stats.scan.checkpoint_hits as usize > 10 * batch.len());
        let reference = find_alternatives_naive(NaiveAmp(Amp::new()), &list, &batch).unwrap();
        assert_eq!(outcome.alternatives, reference.alternatives);
        amp.bench_with_input(BenchmarkId::new("incremental", m), &m, |b, _| {
            b.iter(|| black_box(find_alternatives(Amp::new(), black_box(&list), &batch).unwrap()));
        });
    }
    amp.finish();
    let mut alp = c.benchmark_group("search_clipped_alp");
    for m in [1_000usize, 4_000] {
        let list = clipped_list(m);
        let outcome = find_alternatives(Alp::new(), &list, &batch).unwrap();
        let reference = find_alternatives_naive(NaiveAlp(Alp::new()), &list, &batch).unwrap();
        assert_eq!(outcome.alternatives, reference.alternatives);
        alp.bench_with_input(BenchmarkId::new("incremental", m), &m, |b, _| {
            b.iter(|| black_box(find_alternatives(Alp::new(), black_box(&list), &batch).unwrap()));
        });
    }
    alp.finish();
}

fn bench_single_window_amp(c: &mut Criterion) {
    // Single-shot window search: same forward scan on both sides; the
    // delta isolates the cost-ordered pool against the per-group sort.
    // With the small (~64-member) pools of the banded instance the sort
    // is cheaper; the pool pays off when the candidate pool grows with
    // the list, which is what the unsatisfiable wide request provokes
    // (every slot admitted, nothing ever expires fast enough).
    let mut group = c.benchmark_group("find_window_amp");
    // The 135-slot point sits below the adaptive pool's switch-over from
    // the sorted vector to the sorted head and lazy heaps, pinning the
    // small-market case the paper's Sec. 5 environment (m ≈ 130)
    // actually exercises.
    let request =
        ResourceRequest::new(4, TimeDelta::new(60), Perf::UNIT, Price::from_credits(4)).unwrap();
    for m in [135usize, 1_000, 16_000] {
        let list = banded_list(m);
        group.bench_with_input(BenchmarkId::new("naive", m), &m, |b, _| {
            b.iter(|| {
                let mut stats = ScanStats::new();
                black_box(Amp::new().find_window_naive(black_box(&list), &request, &mut stats))
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental", m), &m, |b, _| {
            b.iter(|| {
                let mut stats = ScanStats::new();
                black_box(Amp::new().find_window(black_box(&list), &request, &mut stats))
            });
        });
    }
    // Wide request on long slots: the pool holds O(m) members and the
    // naive path re-sorts it at every same-start group. The 1-credit cap
    // keeps the budget unreachable, so the acceptance test fails at every
    // group and the sort repeats all the way down the list.
    let wide =
        ResourceRequest::new(600, TimeDelta::new(60), Perf::UNIT, Price::from_credits(1)).unwrap();
    for m in [1_000usize, 4_000] {
        let slots: Vec<Slot> = (0..m as u64)
            .map(|i| {
                Slot::new(
                    SlotId::new(i),
                    NodeId::new(i as u32),
                    Perf::UNIT,
                    Price::from_credits(1 + (i % 13) as i64),
                    Span::new(TimePoint::new(i as i64), TimePoint::new(m as i64 + 10_000)).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let list = SlotList::from_slots(slots).unwrap();
        group.bench_with_input(BenchmarkId::new("naive_wide_pool", m), &m, |b, _| {
            b.iter(|| {
                let mut stats = ScanStats::new();
                black_box(Amp::new().find_window_naive(black_box(&list), &wide, &mut stats))
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental_wide_pool", m), &m, |b, _| {
            b.iter(|| {
                let mut stats = ScanStats::new();
                black_box(Amp::new().find_window(black_box(&list), &wide, &mut stats))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_search_amp,
    bench_search_alp,
    bench_search_clipped,
    bench_single_window_amp
);
criterion_main!(benches);
