//! Bench: how long a crashed daemon takes to come back, against how long
//! it had run.
//!
//! A data directory is written the way `bench/`'s `service_session`
//! drives the daemon core — a burst of twelve submissions on every cycle
//! boundary, one group commit per burst, a cadence snapshot every fourth
//! cycle — for 25, 200 and 1 000 cycles, on two seeds, and then abandoned
//! after the last commit, as a `kill -9` leaves it. Two timings per
//! directory:
//!
//! * `boot/load/{cycles}-{seed}` — `Store::load_latest`: the newest
//!   snapshot decoded, the log segment read and re-attached;
//! * `boot/open/{cycles}-{seed}` — `Session::open`, the whole boot: the
//!   above, the WAL read and checked against the snapshot, and the WAL
//!   suffix past the snapshot re-injected.
//!
//! Run with `ECOSCHED_BENCH_REPORT=BENCH_persist.json cargo bench
//! -p ecosched-bench --bench boot`. Under `cargo test` only the 25-cycle
//! directories are written.

use std::path::{Path, PathBuf};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecosched_federation::FederationCheckpoint;
use ecosched_persist::Store;
use ecosched_select::Amp;
use ecosched_service::session::snapshot_dir;
use ecosched_service::{JobSpec, ServiceManifest, Session};
use ecosched_sim::{JobGenConfig, JobGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const SUBMITS_PER_CYCLE: usize = 12;

fn manifest(seed: u64, cycles: u32) -> ServiceManifest {
    let mut manifest = ServiceManifest {
        seed,
        ..ServiceManifest::default()
    };
    manifest.config.cycles = cycles + 1;
    manifest
}

/// The paper's jobs, with the price cap raised so that admission turns
/// none away (as `service_session` does).
fn job_specs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let jobs = JobGenerator::new(JobGenConfig::default()).generate_exact(&mut rng, count);
    jobs.iter()
        .map(|job| {
            let request = job.request();
            JobSpec {
                nodes: request.nodes() as u64,
                wall_ticks: request.wall_time().ticks(),
                min_perf_milli: request.min_perf().milli(),
                price_cap_micro: request.price_cap().scale_f64(1.6).micro(),
                deadline_tick: None,
            }
        })
        .collect()
}

/// Writes a data directory `cycles` cycles deep and abandons it.
fn write_data_dir(dir: &Path, seed: u64, cycles: u32) {
    let _ = std::fs::remove_dir_all(dir);
    let manifest = manifest(seed, cycles);
    let cycle_length = manifest.config.cycle_length;
    let mut session = Session::open(dir, manifest, Amp::new()).expect("a fresh session boots");
    let specs = job_specs(seed, cycles as usize * SUBMITS_PER_CYCLE);
    for (cycle, burst) in specs.chunks(SUBMITS_PER_CYCLE).enumerate() {
        let now = cycle as i64 * cycle_length;
        session.advance_to(now).expect("the session advances");
        for spec in burst {
            let _ = session.submit(spec, now);
        }
        session.commit().expect("the WAL takes the burst");
    }
}

fn bench_boot(c: &mut Criterion) {
    let measuring = std::env::args().any(|arg| arg == "--bench");
    let sizes: &[u32] = if measuring { &[25, 200, 1000] } else { &[25] };
    let root: PathBuf = std::env::temp_dir().join(format!("ecosched-boot-{}", std::process::id()));
    let mut group = c.benchmark_group("boot");
    for &cycles in sizes {
        for seed in [42u64, 7] {
            let dir = root.join(format!("{cycles}-{seed}"));
            write_data_dir(&dir, seed, cycles);
            let id = format!("{cycles}-{seed}");
            group.bench_with_input(BenchmarkId::new("load", &id), &dir, |b, dir| {
                let store: Store<FederationCheckpoint> =
                    Store::open(snapshot_dir(dir), 3).expect("the store opens");
                b.iter(|| black_box(store.load_latest().expect("loads").expect("a snapshot")));
            });
            group.bench_with_input(BenchmarkId::new("open", &id), &dir, |b, dir| {
                b.iter(|| {
                    black_box(
                        Session::open(dir, manifest(seed, cycles), Amp::new()).expect("boots"),
                    )
                });
            });
        }
    }
    group.finish();
    let _ = std::fs::remove_dir_all(root);
}

criterion_group!(benches, bench_boot);
criterion_main!(benches);
