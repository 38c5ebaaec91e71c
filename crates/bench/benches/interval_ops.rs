//! Bench: market maintenance on the one market store — the
//! carve/merge/scan costs the ordered container decides.
//!
//! Four readings, recorded in `BENCH_select.json` under the
//! `…/interval/…` keys (the `…/flat/…` rows there are the record of the
//! vector ordering, deleted since):
//!
//! * a single carve (`subtract`) splices one bounded block. The mutation
//!   benches clone the list every iteration (the carve itself must start
//!   from pristine state), and an `O(n)` clone dominates — so the `clone`
//!   group below records that baseline, and the carve cost proper is the
//!   carve median *minus* the same-size clone median;
//! * the coalescing merge pass: one walk, its output loaded back into
//!   half-full blocks;
//! * a cycle's commit — about 2 000 four-member windows released into a
//!   2 400-slot market and coalesced, one walk for both;
//! * the ALP/AMP window scan at 10⁵ slots: iteration dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_bench::{slot_list, typical_request};
use ecosched_core::{
    NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint, Window, WindowSlot,
};
use ecosched_select::{Alp, Amp, ScanStats, SlotSelector};
use std::hint::black_box;

/// The key every row is recorded under, kept from when a second
/// ordering was benched beside it so that rows compare across commits.
const NAME: &str = "interval";

/// A deterministic market of `m` slots.
fn market(m: usize) -> SlotList {
    slot_list(m, 11)
}

/// A maximally fragmented market: `m` slots in runs of ten touching
/// same-price same-perf fragments per node, so a coalesce pass absorbs
/// 90% of the list.
fn shredded(m: usize) -> SlotList {
    let mut slots = Vec::with_capacity(m);
    for id in 0..m as u64 {
        let node = id / 10;
        let step = (id % 10) as i64;
        let start = step * 50;
        slots.push(
            Slot::new(
                SlotId::new(id),
                NodeId::new(node as u32),
                Perf::UNIT,
                Price::from_credits(3),
                Span::new(TimePoint::new(start), TimePoint::new(start + 50)).unwrap(),
            )
            .unwrap(),
        );
    }
    SlotList::from_slots(slots).unwrap()
}

fn bench_clone(c: &mut Criterion) {
    // The baseline every mutation bench pays per iteration: subtract it
    // from the carve/coalesce medians to read the operation cost proper.
    let mut group = c.benchmark_group("interval_ops/clone");
    for m in [1_000usize, 10_000, 100_000, 1_000_000] {
        let list = market(m);
        group.bench_with_input(BenchmarkId::new(NAME, m), &m, |b, _| {
            b.iter(|| black_box(list.clone()));
        });
    }
    group.finish();
}

fn bench_carve(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/carve");
    for m in [1_000usize, 10_000, 100_000, 1_000_000] {
        let list = market(m);
        let victim = *list.iter().nth(m / 2).unwrap();
        let cut = Span::new(victim.start(), victim.start() + (victim.length() / 2)).unwrap();
        group.bench_with_input(BenchmarkId::new(NAME, m), &m, |b, _| {
            b.iter(|| {
                let mut copy = list.clone();
                copy.subtract(black_box(victim.id()), black_box(cut))
                    .unwrap();
                black_box(copy)
            });
        });
    }
    group.finish();
}

fn bench_subtract_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/subtract_window");
    let list = market(100_000);
    let request = typical_request();
    let mut stats = ScanStats::new();
    let window = Amp::new()
        .find_window(&list, &request, &mut stats)
        .expect("typical request is satisfiable");
    group.bench_with_input(BenchmarkId::new(NAME, 100_000), &(), |b, ()| {
        b.iter(|| {
            let mut copy = list.clone();
            copy.subtract_window(black_box(&window)).unwrap();
            black_box(copy)
        });
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/coalesce");
    for m in [1_000usize, 10_000, 100_000, 1_000_000] {
        let list = shredded(m);
        group.bench_with_input(BenchmarkId::new(NAME, m), &m, |b, &m| {
            b.iter(|| {
                let mut copy = list.clone();
                let absorbed = copy.coalesce();
                assert_eq!(absorbed, m - m / 10, "shredded list must fully merge");
                black_box(copy)
            });
        });
    }
    group.finish();
}

/// A cycle's commit (DESIGN §16): 2 000 four-member windows
/// carved back to back, from time 0, out of 2 400 nodes holding one slot
/// each, which leaves a 2 400-slot market of right remnants. Releasing
/// the windows and coalescing merges all 8 000 regions back.
fn carved() -> (SlotList, Vec<Window>) {
    const NODES: u32 = 2_400;
    let (span, length) = (Span::new(TimePoint::new(0), TimePoint::new(10_000)), 500);
    let slots = (0..NODES).map(|n| {
        let node = NodeId::new(n);
        let price = Price::from_credits(3);
        Slot::new(
            SlotId::new(n.into()),
            node,
            Perf::UNIT,
            price,
            span.unwrap(),
        )
        .unwrap()
    });
    let mut list = SlotList::from_slots(slots.collect()).unwrap();
    let mut windows = Vec::with_capacity(2_000);
    for j in 0..2_000u32 {
        let start = TimePoint::new(i64::from(j * 4 / NODES) * length);
        let used = Span::from_start_length(start, TimeDelta::new(length)).unwrap();
        let members = (0..4).map(|k| {
            let source = list.covering_slot(NodeId::new((j * 4 + k) % NODES), used);
            WindowSlot::from_slot(source.unwrap(), TimeDelta::new(length)).unwrap()
        });
        let window = Window::new(start, members.collect()).unwrap();
        list.subtract_window(&window).unwrap();
        windows.push(window);
    }
    (list, windows)
}

fn bench_release_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/release_windows");
    let (list, windows) = carved();
    group.bench_with_input(BenchmarkId::new(NAME, list.len()), &(), |b, ()| {
        b.iter(|| {
            let mut copy = list.clone();
            let absorbed = copy.release_windows(&windows, true);
            assert_eq!(absorbed, 8_000, "every released region merges");
            black_box(copy)
        });
    });
    group.finish();
}

fn bench_window_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/window_scan");
    let request = typical_request();
    let list = market(100_000);
    group.bench_with_input(
        BenchmarkId::new(&format!("alp_{NAME}"), 100_000),
        &(),
        |b, ()| {
            let alp = Alp::new();
            b.iter(|| {
                let mut stats = ScanStats::new();
                black_box(alp.find_window(black_box(&list), &request, &mut stats))
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new(&format!("amp_{NAME}"), 100_000),
        &(),
        |b, ()| {
            let amp = Amp::new();
            b.iter(|| {
                let mut stats = ScanStats::new();
                black_box(amp.find_window(black_box(&list), &request, &mut stats))
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_clone,
    bench_carve,
    bench_subtract_window,
    bench_merge,
    bench_release_windows,
    bench_window_scan
);
criterion_main!(benches);
