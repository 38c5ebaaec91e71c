//! Bench: what a snapshot costs to write and to read, against how many
//! leases are live.
//!
//! `bench/`'s `service_session` takes every snapshot at one size (a fixed
//! 100-cycle session), so it cannot say how the codec scales. Most of a
//! checkpoint is its leases — each carries its surviving failover windows
//! in full (ROADMAP item 4a) — so `snapshot_codec/{encode,decode}/{50,200,800}`
//! times `encode_snapshot` / `decode_snapshot` on an engine checkpoint
//! captured at about that many live leases, with the log trimmed the way
//! the daemon holds it. Each entry records the snapshot's
//! `bytes` and `ns_per_byte` beside the median.
//!
//! Run with `ECOSCHED_BENCH_REPORT=BENCH_persist.json cargo bench
//! -p ecosched-bench --bench snapshot_codec`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig};
use ecosched_persist::{decode_snapshot, encode_snapshot};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, SlotGenConfig};
use std::hint::black_box;

/// A checkpoint of a seeded run at the first step that leaves at least
/// `leases` live — one cycle commit grants many at once, so it is cut back
/// to exactly that many (the codec does not look across sections) —
/// its log trimmed to the newest entry.
fn checkpoint_at(leases: usize) -> EngineCheckpoint {
    // A market and a stream that grow with the target, so that many jobs
    // hold a lease at once.
    let scale = leases as i64;
    let config = EngineConfig {
        cycles: 40,
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(2 * scale, 3 * scale),
            ..SlotGenConfig::default()
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 60.0 / leases as f64,
            jobs: 8 * leases as u32,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    };
    let engine = Engine::new(config, Amp::new()).expect("config is valid");
    let mut state = engine.start(42);
    while state.active_leases() < leases {
        engine
            .step(&mut state)
            .expect("seeded run must not fail")
            .expect("the stream fills the market before the run ends");
    }
    let mut checkpoint = engine.checkpoint(&state);
    checkpoint.leases.truncate(leases);
    checkpoint.log.trim();
    checkpoint
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_codec");
    for leases in [50usize, 200, 800] {
        let checkpoint = checkpoint_at(leases);
        let bytes = encode_snapshot(&checkpoint);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode", leases),
            &checkpoint,
            |b, ckpt| {
                b.iter(|| black_box(encode_snapshot(black_box(ckpt))));
            },
        );
        group.bench_with_input(BenchmarkId::new("decode", leases), &bytes, |b, bytes| {
            b.iter(|| black_box(decode_snapshot(black_box(bytes)).expect("decodes")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
