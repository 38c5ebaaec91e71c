//! One short scenario per layer that the root `cargo test -q` would
//! otherwise skip: the engine, the federation (S=1 and S=4), persist, the
//! service session, the combination optimizer against its brute-force
//! oracle and the select crate's coscheduled driver. Small enough for a
//! debug build; the crates' own suites (`cargo test --workspace`) go
//! deeper.

use ecosched::engine::{ArrivalConfig, Engine, EngineConfig, EngineRun};
use ecosched::federation::{Federation, FederationConfig, RoutePolicy};
use ecosched::optimize::brute::min_cost_under_time_brute;
use ecosched::persist::{encode_snapshot, resume_from, run_with_snapshots};
use ecosched::prelude::*;
use ecosched::select::find_alternatives_coscheduled_naive;
use ecosched::service::{BootMode, JobSpec, ServiceManifest, Session};
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
fn coscheduled_iteration_commits_what_the_naive_driver_commits() {
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
    let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
    let search = find_alternatives_coscheduled(Amp::new(), &list, &batch).expect("search");
    let naive = find_alternatives_coscheduled_naive(Amp::new(), &list, &batch).expect("naive");
    assert!(naive.alternatives.total_found() > 0);
    assert_eq!(search.alternatives, naive.alternatives);
    assert_eq!(search.remaining, naive.remaining);
}

/// The merged-log hash of `churn_config()` split over four shards under
/// cheapest-probe routing with cross-shard co-allocation, at `SEED`.
/// Pinned from the commit before the commit-and-repair core was shared.
const PINNED_S4_MERGED_LOG_HASH: &str = "38a3b817bfae7f41";

#[test]
fn four_shard_federation_reproduces_its_pinned_merged_log() {
    let config = FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: true,
        ..FederationConfig::new(churn_config(), 4)
    };
    let run = Federation::new(config, Amp::new())
        .expect("valid config")
        .run(SEED)
        .expect("run");
    assert_eq!(run.shards.len(), 4);
    assert!(run.report.jobs_completed > 0, "nothing completed");
    assert_eq!(run.merged.fnv1a_hash(), PINNED_S4_MERGED_LOG_HASH);
    assert_eq!(run.report.merged_log_hash, PINNED_S4_MERGED_LOG_HASH);
}

#[test]
fn dp_optimum_matches_the_brute_force_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
    let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
    let search = find_alternatives(Amp::new(), &list, &batch).expect("search");
    // Four covered jobs, six alternatives each: small enough to enumerate.
    let jobs: Vec<JobAlternatives> = search
        .alternatives
        .per_job()
        .iter()
        .filter(|ja| ja.len() > 1)
        .take(4)
        .map(|ja| {
            let mut kept = JobAlternatives::new(ja.alternatives()[0].job());
            ja.iter().take(6).for_each(|a| kept.push(a.clone()));
            kept
        })
        .collect();
    let combinations: usize = jobs.iter().map(|ja| ja.alternatives().len()).product();
    assert!(
        (16..=1296).contains(&combinations),
        "{combinations} combinations: not a small instance any more"
    );
    // A quota halfway between the fastest and the slowest combination, so
    // the constraint binds.
    let fastest: TimeDelta = jobs
        .iter()
        .map(|ja| ja.iter().map(|a| a.time()).min().unwrap())
        .sum();
    let slowest: TimeDelta = jobs
        .iter()
        .map(|ja| ja.iter().map(|a| a.time()).max().unwrap())
        .sum();
    let quota = TimeDelta::new((fastest.ticks() + slowest.ticks()) / 2);

    let dp = min_cost_under_time(&jobs, quota).expect("feasible");
    let oracle = min_cost_under_time_brute(&jobs, quota).expect("feasible");
    assert!(dp.total_time() <= quota);
    assert_eq!(dp.total_cost(), oracle.total_cost());
    let unconstrained = min_cost_under_time_brute(&jobs, slowest).expect("feasible");
    assert!(
        oracle.total_cost() > unconstrained.total_cost(),
        "the quota must bind"
    );
}

#[test]
fn service_session_reopens_with_every_acked_job() {
    let dir = std::env::temp_dir().join(format!("ecosched-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || Session::open(&dir, ServiceManifest::default(), Amp::new()).expect("open");
    // Two nodes for 30 ticks at a price cap above the generator ceiling.
    let spec = JobSpec {
        nodes: 2,
        wall_ticks: 30,
        min_perf_milli: 1000,
        price_cap_micro: 10_000_000,
        deadline_tick: None,
    };

    let (acked, hash) = {
        let mut session = open();
        assert_eq!(*session.boot_mode(), BootMode::Fresh { replayed: 0 });
        session.advance_to(0).expect("first publication");
        let first = session.submit(&spec, 0).expect("accepted");
        let second = session.submit(&spec, 0).expect("accepted");
        assert_eq!(session.commit().expect("group commit"), vec![first, second]);
        session.advance_to(90).expect("advance");
        let status = session.status();
        (status.accepted_total, status.log_hash)
        // Dropped without a shutdown: a crash after the acks.
    };
    assert_eq!(acked, 2);

    // The WAL replays the acked submissions; the same virtual time then
    // rebuilds the same log.
    let mut session = open();
    assert_eq!(
        session.status().accepted_total,
        acked,
        "an acked job was lost"
    );
    session.advance_to(90).expect("advance");
    assert_eq!(session.status().log_hash, hash);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
