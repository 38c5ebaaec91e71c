//! Bench: observability overhead on the hot engine path.
//!
//! One claim, recorded in `BENCH_select.json` and gated in CI: attaching
//! a live metrics recorder to the engine must cost less than 2% of
//! cycle time. Two medians land in the report —
//! `obs_overhead/recorder_off` runs a churned five-cycle engine with the
//! default no-op `EngineObs::off()` handle, and
//! `obs_overhead/recorder_on` runs the identical `(config, seed)` with a
//! full registry + tracer attached, so the ratio isolates exactly the
//! instrumentation cost (atomic counter adds, gauge stores, ring-buffer
//! span pushes). The A/B tests in `crates/engine/tests/obs_ab.rs` pin
//! the two runs byte-identical; this bench pins them time-identical to
//! within the gate.

use criterion::{criterion_group, criterion_main, Criterion};
use ecosched_engine::{engine_obs, ArrivalConfig, Engine, EngineConfig};
use ecosched_select::Amp;
use ecosched_sim::{JobGenConfig, RevocationConfig};
use std::hint::black_box;

const SEED: u64 = 42;

/// The churned configuration from the obs A/B suite: Poisson arrivals
/// plus per-slot revocations, so every instrumented path (cycle, scan,
/// optimize, commit, repair) runs each iteration.
fn churn_config() -> EngineConfig {
    EngineConfig {
        cycles: 5,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 20,
            job_gen: JobGenConfig::default(),
        },
        revocation: RevocationConfig::per_slot(0.05),
        ..EngineConfig::default()
    }
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");

    let plain = Engine::new(churn_config(), Amp::new()).expect("valid config");

    let observed = Engine::new(churn_config(), Amp::new())
        .expect("valid config")
        .with_obs(engine_obs());

    // Sanity: the recorder must be outcome-invisible on this instance
    // before we time it — a divergence here means the bench would be
    // comparing different work.
    let a = plain.run(SEED).expect("plain run");
    let o = observed.run(SEED).expect("observed run");
    assert_eq!(a.log.fnv1a_hash(), o.log.fnv1a_hash());
    assert_eq!(a.report.to_json(), o.report.to_json());

    group.bench_function("recorder_off", |b| {
        b.iter(|| black_box(plain.run(black_box(SEED)).expect("plain run")));
    });
    group.bench_function("recorder_on", |b| {
        b.iter(|| black_box(observed.run(black_box(SEED)).expect("observed run")));
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
