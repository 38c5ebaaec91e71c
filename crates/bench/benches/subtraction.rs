//! Bench: slot-list maintenance — the Fig. 1 (b) subtraction, insertion,
//! and construction costs that every alternatives-search pass pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_bench::{slot_list, typical_request};
use ecosched_core::{Span, TimePoint};
use ecosched_select::{Amp, ScanStats, SlotSelector};
use std::hint::black_box;

fn bench_subtract_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("subtract_window");
    // 64,000 stresses the node-keyed path: validation and splice stay
    // O(k log m) while a naive rescan of the list would be linear.
    for m in [135usize, 1_000, 4_000, 64_000] {
        let list = slot_list(m, 11);
        let request = typical_request();
        let mut stats = ScanStats::new();
        let window = Amp::new()
            .find_window(&list, &request, &mut stats)
            .expect("typical request is satisfiable");
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                let mut copy = list.clone();
                copy.subtract_window(black_box(&window)).unwrap();
                black_box(copy)
            });
        });
    }
    group.finish();
}

fn bench_single_subtract(c: &mut Criterion) {
    let list = slot_list(1_000, 11);
    let victim = *list.iter().nth(500).unwrap();
    let cut = Span::new(victim.start(), victim.start() + (victim.length() / 2)).unwrap();
    c.bench_function("subtract_single_cut_m1000", |b| {
        b.iter(|| {
            let mut copy = list.clone();
            copy.remove_region(black_box(victim.node()), black_box(cut));
            black_box(copy)
        });
    });
}

fn bench_from_slots(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_list_from_slots");
    for m in [135usize, 1_000, 4_000] {
        let slots: Vec<_> = slot_list(m, 13).into_iter().collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                black_box(ecosched_core::SlotList::from_slots(black_box(slots.clone())).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_from_sorted_slots(c: &mut Criterion) {
    // The generators and the vacancy k-way merge hand over pre-sorted
    // input; the O(m) validating constructor should beat the general
    // sort-based one at every size.
    let mut group = c.benchmark_group("slot_list_from_sorted_slots");
    for m in [135usize, 1_000, 4_000] {
        let slots: Vec<_> = slot_list(m, 13).into_iter().collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    ecosched_core::SlotList::from_sorted_slots(black_box(slots.clone())).unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_earliest_queries(c: &mut Criterion) {
    let list = slot_list(4_000, 17);
    c.bench_function("total_vacant_time_m4000", |b| {
        b.iter(|| black_box(list.total_vacant_time()));
    });
    c.bench_function("earliest_start_m4000", |b| {
        b.iter(|| black_box(list.earliest_start()));
    });
    let _ = TimePoint::ZERO; // keep the import obviously used
}

criterion_group!(
    benches,
    bench_subtract_window,
    bench_single_subtract,
    bench_from_slots,
    bench_from_sorted_slots,
    bench_earliest_queries
);
criterion_main!(benches);
