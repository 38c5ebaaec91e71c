//! One short scenario per layer that the root `cargo test -q` would
//! otherwise skip: the engine, the federation, persist and the select
//! crate's coscheduled driver. Small enough for a debug build; the crates'
//! own suites (`cargo test --workspace`) go deeper.

use ecosched::engine::{ArrivalConfig, Engine, EngineConfig, EngineRun};
use ecosched::federation::{Federation, FederationConfig};
use ecosched::persist::{encode_snapshot, resume_from, run_with_snapshots};
use ecosched::prelude::*;
use ecosched::select::find_alternatives_coscheduled_rescan;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Five cycles of the default market under per-slot revocation: every
/// event kind fires (arrivals, publication, strikes, repairs, completions).
fn churn_config() -> EngineConfig {
    EngineConfig {
        cycles: 5,
        revocation: RevocationConfig::per_slot(0.05),
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 20,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

const SEED: u64 = 42;

/// The event-log hash of `churn_config()` at `SEED` under AMP. Re-pin only
/// when a PR changes the engine's outcome on purpose, and say so in
/// CHANGES.md.
const PINNED_CHURN_LOG_HASH: &str = "dea46b66e546dba9";

fn churn_run() -> EngineRun {
    Engine::new(churn_config(), Amp::new())
        .expect("valid config")
        .run(SEED)
        .expect("run")
}

#[test]
fn engine_churn_run_reproduces_its_pinned_log() {
    let run = churn_run();
    assert!(run.report.revocations > 0, "churn must inject faults");
    assert_eq!(run.log.fnv1a_hash(), PINNED_CHURN_LOG_HASH);
    assert_eq!(run.report.log_hash, PINNED_CHURN_LOG_HASH);
}

#[test]
fn one_shard_federation_is_the_plain_engine() {
    let engine_run = churn_run();
    let fed_run = Federation::new(FederationConfig::new(churn_config(), 1), Amp::new())
        .expect("valid config")
        .run(SEED)
        .expect("run");
    assert_eq!(fed_run.shards.len(), 1);
    assert_eq!(fed_run.shards[0].log.to_json(), engine_run.log.to_json());
    assert_eq!(
        fed_run.shards[0].report.to_json(),
        engine_run.report.to_json()
    );
}

#[test]
fn checkpoint_resume_converges_on_the_uninterrupted_run() {
    let engine = Engine::new(churn_config(), Amp::new()).expect("valid config");
    let (baseline, snapshots) = run_with_snapshots(&engine, SEED, 2).expect("run");
    let checkpoint = snapshots.first().expect("a snapshot after cycle 2");
    let bytes = encode_snapshot(checkpoint);
    let suffix = &baseline.log.entries[checkpoint.log.len()..];
    let resumed = resume_from(&engine, &bytes, suffix).expect("resume");
    assert_eq!(resumed.log.fnv1a_hash(), PINNED_CHURN_LOG_HASH);
    assert_eq!(resumed, baseline);
}

#[test]
fn coscheduled_iteration_commits_what_the_rescan_oracle_commits() {
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
    let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
    let config = IterationConfig {
        search_mode: SearchMode::Coscheduled,
        ..IterationConfig::default()
    };
    let result = run_iteration(Amp::new(), &list, &batch, &config).expect("iteration");
    let oracle = find_alternatives_coscheduled_rescan(Amp::new(), &list, &batch).expect("rescan");
    assert!(oracle.alternatives.total_found() > 0);
    assert_eq!(result.search.alternatives, oracle.alternatives);
    assert_eq!(result.search.remaining, oracle.remaining);
}
