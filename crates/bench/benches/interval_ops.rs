//! Bench: market maintenance on the two orderings of the one market
//! store — the carve/merge/scan costs the ordered container decides.
//!
//! Three readings, recorded in `BENCH_select.json`:
//!
//! * a single carve (`subtract`) on the tree ordering is an `O(log n)`
//!   splice where the vector ordering pays an `O(n)` memmove. The
//!   mutation benches clone the list every iteration (the carve itself
//!   must start from pristine state), and an `O(n)` clone dominates both
//!   sides — so the `clone` group below records that baseline, and the
//!   carve cost proper is the carve median *minus* the same-size clone
//!   median;
//! * the coalescing merge pass is the same walk on both orderings; what
//!   differs is dropping the absorbed slots from the container (one
//!   compaction pass either way);
//! * the ALP/AMP window scan at 10⁵ slots is ordering-blind in cost as
//!   well as outcome: iteration dominates, and both containers hand the
//!   scan the same `(start, id)`-ordered stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_bench::{slot_list, typical_request};
use ecosched_core::{MarketRepr, NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
use ecosched_select::{Alp, Amp, ScanStats, SlotSelector};
use std::hint::black_box;

const REPRS: [(MarketRepr, &str); 2] = [
    (MarketRepr::Flat, "flat"),
    (MarketRepr::Interval, "interval"),
];

/// A deterministic market of `m` slots in the requested ordering.
fn market(m: usize, repr: MarketRepr) -> SlotList {
    slot_list(m, 11).with_repr(repr)
}

/// A maximally fragmented market: `m` slots in runs of ten touching
/// same-price same-perf fragments per node, so a coalesce pass absorbs
/// 90% of the list.
fn shredded(m: usize, repr: MarketRepr) -> SlotList {
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
    SlotList::from_slots_with_repr(slots, repr).unwrap()
}

fn bench_clone(c: &mut Criterion) {
    // The baseline every mutation bench pays per iteration: subtract it
    // from the carve/coalesce medians to read the operation cost proper.
    let mut group = c.benchmark_group("interval_ops/clone");
    for m in [1_000usize, 10_000, 100_000, 1_000_000] {
        for (repr, name) in REPRS {
            let list = market(m, repr);
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
                b.iter(|| black_box(list.clone()));
            });
        }
    }
    group.finish();
}

fn bench_carve(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/carve");
    for m in [1_000usize, 10_000, 100_000, 1_000_000] {
        for (repr, name) in REPRS {
            let list = market(m, repr);
            let victim = *list.iter().nth(m / 2).unwrap();
            let cut = Span::new(victim.start(), victim.start() + (victim.length() / 2)).unwrap();
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
                b.iter(|| {
                    let mut copy = list.clone();
                    copy.subtract(black_box(victim.id()), black_box(cut))
                        .unwrap();
                    black_box(copy)
                });
            });
        }
    }
    group.finish();
}

fn bench_subtract_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/subtract_window");
    for (repr, name) in REPRS {
        let list = market(100_000, repr);
        let request = typical_request();
        let mut stats = ScanStats::new();
        let window = Amp::new()
            .find_window(&list, &request, &mut stats)
            .expect("typical request is satisfiable");
        group.bench_with_input(BenchmarkId::new(name, 100_000), &(), |b, ()| {
            b.iter(|| {
                let mut copy = list.clone();
                copy.subtract_window(black_box(&window)).unwrap();
                black_box(copy)
            });
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/coalesce");
    for m in [1_000usize, 10_000, 100_000, 1_000_000] {
        for (repr, name) in REPRS {
            let list = shredded(m, repr);
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, &m| {
                b.iter(|| {
                    let mut copy = list.clone();
                    let absorbed = copy.coalesce();
                    assert_eq!(absorbed, m - m / 10, "shredded list must fully merge");
                    black_box(copy)
                });
            });
        }
    }
    group.finish();
}

fn bench_window_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_ops/window_scan");
    let request = typical_request();
    for (repr, name) in REPRS {
        let list = market(100_000, repr);
        group.bench_with_input(
            BenchmarkId::new(&format!("alp_{name}"), 100_000),
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
            BenchmarkId::new(&format!("amp_{name}"), 100_000),
            &(),
            |b, ()| {
                let amp = Amp::new();
                b.iter(|| {
                    let mut stats = ScanStats::new();
                    black_box(amp.find_window(black_box(&list), &request, &mut stats))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_clone,
    bench_carve,
    bench_subtract_window,
    bench_merge,
    bench_window_scan
);
criterion_main!(benches);
