//! Federation determinism contracts: S=1 byte-identity with the plain
//! engine, reproducible S=4 merged logs, checkpoint/resume equivalence,
//! and live cross-shard co-allocation.

use ecosched_core::{Perf, Price, ResourceRequest, TimeDelta, TimePoint};
use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, Log, LogPosition};
use ecosched_federation::{
    is_strictly_ordered, merge_shard_logs, Federation, FederationConfig, FederationError,
    FederationRun, Placement, RoutePolicy,
};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, RevocationConfig, SlotGenConfig};

/// The pinned E15 base scenario (the engine crate's default config): the
/// S=1 federation must reproduce the plain engine on it byte for byte.
fn base_config() -> EngineConfig {
    EngineConfig::default()
}

/// A churned variant of the base scenario (the E15 revocation arm).
fn churn_config() -> EngineConfig {
    EngineConfig {
        revocation: RevocationConfig::per_slot(0.08),
        ..EngineConfig::default()
    }
}

/// A federation whose shards are individually too small for most jobs:
/// 4-6 node requests over shards publishing 2-3 slots per cycle. The
/// cheapest-probe router finds no single-shard window early on and the
/// cross-shard path fires.
fn starved_config(shards: u32) -> FederationConfig {
    let base = EngineConfig {
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(2, 3),
            ..SlotGenConfig::default()
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 20.0,
            jobs: 16,
            job_gen: JobGenConfig {
                nodes: IntRange::new(4, 6),
                ..JobGenConfig::default()
            },
        },
        ..EngineConfig::default()
    };
    FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: true,
        ..FederationConfig::new(base, shards)
    }
}

/// The pinned merged-log hash of the S=1 federation over the default base
/// scenario at seed 42. Equal to the engine's own log hash only up to
/// re-tagging (the merged log carries shard indices); what is pinned here
/// is that neither the engine nor the merge layer drifts silently.
const PINNED_S1_ENGINE_LOG_HASH: &str = "d245a5529ef056e5";

#[test]
fn single_shard_is_byte_identical_to_the_engine() {
    for (config, seed) in [(base_config(), 42), (churn_config(), 1789)] {
        let engine = Engine::new(config.clone(), Amp::new()).unwrap();
        let engine_run = engine.run(seed).unwrap();

        let fed = Federation::new(FederationConfig::new(config, 1), Amp::new()).unwrap();
        let fed_run = fed.run(seed).unwrap();

        // Shard 0 *is* the engine: same log bytes, same report bytes.
        assert_eq!(fed_run.shards.len(), 1);
        assert_eq!(fed_run.shards[0].log.to_json(), engine_run.log.to_json());
        assert_eq!(
            fed_run.shards[0].report.to_json(),
            engine_run.report.to_json()
        );

        // The merged log is the engine log tagged with shard 0.
        assert_eq!(fed_run.merged.len(), engine_run.log.len());
        for (fed_entry, entry) in fed_run.merged.entries.iter().zip(&engine_run.log.entries) {
            assert_eq!(fed_entry.shard, 0);
            assert_eq!(
                (fed_entry.time, fed_entry.seq, fed_entry.event),
                (entry.time, entry.seq, entry.event)
            );
        }
        assert_eq!(fed_run.report.jobs_offered, engine_run.report.jobs_arrived);
    }
}

#[test]
fn single_shard_engine_log_hash_is_pinned() {
    let fed = Federation::new(FederationConfig::new(base_config(), 1), Amp::new()).unwrap();
    let run = fed.run(42).unwrap();
    assert_eq!(
        run.shards[0].report.log_hash, PINNED_S1_ENGINE_LOG_HASH,
        "the S=1 federation no longer reproduces the pinned engine log; \
         if the engine changed intentionally, re-pin this hash"
    );
}

#[test]
fn multi_shard_merged_log_is_reproducible_and_sorted() {
    for policy in [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastBacklog,
        RoutePolicy::CheapestProbe,
    ] {
        let config = FederationConfig {
            route: policy,
            ..FederationConfig::new(base_config(), 4)
        };
        let fed = Federation::new(config, Amp::new()).unwrap();
        let first = fed.run(7).unwrap();
        let second = fed.run(7).unwrap();

        assert_eq!(
            first.merged.to_json(),
            second.merged.to_json(),
            "{policy:?}: re-run diverged"
        );
        assert_eq!(first.report.to_json(), second.report.to_json());
        assert!(is_strictly_ordered(&first.merged.entries));

        // The live merge equals the sorted union of the final shard logs.
        let logs: Vec<_> = first.shards.iter().map(|run| &run.log).collect();
        assert_eq!(first.merged, merge_shard_logs(&logs));
        let total: usize = first.shards.iter().map(|run| run.log.len()).sum();
        assert_eq!(first.merged.len(), total);

        // Every offered job was routed somewhere.
        let routed: u64 = first.report.routing.routed.iter().sum();
        assert_eq!(
            routed + first.report.routing.cross_shard_committed,
            first.report.jobs_offered,
            "{policy:?}: offered jobs leaked"
        );
    }
}

#[test]
fn round_robin_spreads_jobs_evenly() {
    let config = FederationConfig {
        route: RoutePolicy::RoundRobin,
        ..FederationConfig::new(base_config(), 4)
    };
    let fed = Federation::new(config, Amp::new()).unwrap();
    let run = fed.run(11).unwrap();
    let lo = run.report.routing.routed.iter().min().copied().unwrap();
    let hi = run.report.routing.routed.iter().max().copied().unwrap();
    assert!(
        hi - lo <= 1,
        "round robin skewed: {:?}",
        run.report.routing.routed
    );
}

#[test]
fn checkpoint_resume_reproduces_the_merged_log() {
    let config = starved_config(4);
    let fed = Federation::new(config.clone(), Amp::new()).unwrap();
    let baseline = fed.run(23).unwrap();

    // Kill after a third of the merged events, checkpoint, resume on a
    // freshly built federation, and run to the end.
    let kill_at = baseline.merged.len() / 3;
    let mut state = fed.start(23);
    for _ in 0..kill_at {
        fed.step(&mut state).unwrap().expect("baseline ran further");
    }
    let checkpoint = fed.checkpoint(&state);
    drop(state);

    let rebuilt = Federation::new(config, Amp::new()).unwrap();
    let mut resumed = rebuilt.resume(&checkpoint).unwrap();
    while rebuilt.step(&mut resumed).unwrap().is_some() {}
    let recovered = rebuilt.finish(resumed);

    assert_eq!(recovered.merged.to_json(), baseline.merged.to_json());
    assert_eq!(recovered.report.to_json(), baseline.report.to_json());
}

#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let fed = Federation::new(starved_config(4), Amp::new()).unwrap();
    let state = fed.start(23);
    let checkpoint = fed.checkpoint(&state);

    let other = Federation::new(starved_config(2), Amp::new()).unwrap();
    assert!(other.resume(&checkpoint).is_err());
}

/// A checkpoint of a run that trimmed its logs — each the newest entry
/// after the position of the rest — resumes into the run the untrimmed
/// one finishes, report and merged-log hash alike. A merged log after a
/// later position with no entry at all (a format 3–4 store file read raw)
/// is refused by name, not resumed without the entry routing reads.
#[test]
fn resume_accepts_a_trimmed_log_and_refuses_an_empty_one_after_a_position() {
    let fed = Federation::new(starved_config(2), Amp::new()).unwrap();
    let baseline = fed.run(23).unwrap();
    let mut state = fed.start(23);
    for _ in 0..30 {
        fed.step(&mut state).unwrap().expect("the run goes further");
    }
    state.trim_logs();
    let mut checkpoint = fed.checkpoint(&state);
    assert_eq!(checkpoint.merged.entries.len(), 1);
    assert_eq!(checkpoint.merged.len(), 30);
    assert!(checkpoint.shards.iter().all(|s| s.log.entries.len() <= 1));
    let mut resumed = fed.resume(&checkpoint).expect("a trimmed log resumes");
    while fed.step(&mut resumed).unwrap().is_some() {}
    let recovered = fed.finish(resumed);
    assert_eq!(recovered.report.to_json(), baseline.report.to_json());
    assert_eq!(recovered.merged.fnv1a_hash(), baseline.merged.fnv1a_hash());

    let position = LogPosition::after(&baseline.merged.entries[..30]);
    assert_eq!(checkpoint.merged.after.len, 29);
    checkpoint.merged = Log::detached(position);
    match fed.resume(&checkpoint) {
        Err(FederationError::DetachedCheckpoint { missing }) => assert_eq!(missing, 30),
        other => panic!("expected DetachedCheckpoint, got {other:?}"),
    }
}

/// A two-shard market where the cross-shard split is the only way to
/// host a wide job: each shard publishes at most 3 slots, all starting
/// exactly at the cycle tick (`same_start_probability` 1.0 with no
/// start gap), so the alignment loop converges on the first round.
fn aligned_two_shard_config() -> FederationConfig {
    let base = EngineConfig {
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(2, 3),
            same_start_probability: 1.0,
            start_gap: IntRange::new(0, 0),
            ..SlotGenConfig::default()
        },
        arrivals: ArrivalConfig::External,
        ..EngineConfig::default()
    };
    FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: true,
        ..FederationConfig::new(base, 2)
    }
}

/// Four nodes over two shards that publish at most three slots each:
/// no single shard can host it, the `[2, 2]` split can.
fn wide_request() -> ResourceRequest {
    ResourceRequest::new(
        4,
        TimeDelta::new(20),
        Perf::from_f64(0.5),
        Price::from_credits(60),
    )
    .unwrap()
}

#[test]
fn cross_shard_coallocation_fires_when_no_shard_fits_alone() {
    let fed = Federation::new(aligned_two_shard_config(), Amp::new()).unwrap();
    let drive = || -> FederationRun {
        let mut state = fed.start(3);
        // Pop both shards' first `SlotPublished` so each market holds its
        // 2-3 slots, all starting at tick 0.
        fed.step(&mut state).unwrap().expect("shard 0 publishes");
        fed.step(&mut state).unwrap().expect("shard 1 publishes");
        let (fed_job, placement) = fed
            .submit(&mut state, wide_request(), TimePoint::new(0))
            .unwrap();
        assert_eq!(fed_job, 0);
        let Placement::Cross(window) = placement else {
            panic!("expected a cross-shard placement, got {placement:?}");
        };
        assert_eq!(window.fed_job, 0);
        assert_eq!(window.start, 0, "aligned starts converge at the tick");
        assert_eq!(window.parts.len(), 2, "the [2, 2] split spans both shards");
        for part in &window.parts {
            assert_eq!(part.window.start().ticks(), window.start);
            assert_eq!(part.window.slots().len(), 2);
        }
        let shards: Vec<u32> = window.parts.iter().map(|p| p.shard).collect();
        assert_eq!(shards, vec![0, 1], "one part per shard, in shard order");
        while fed.step(&mut state).unwrap().is_some() {}
        fed.finish(state)
    };

    let run = drive();
    assert_eq!(run.report.routing.cross_shard_committed, 1);
    assert_eq!(run.cross_shard.len(), 1);
    assert_eq!(run.report.jobs_offered, 1);
    assert_eq!(run.report.routing.fallback_submits, 0);
    assert_eq!(run.report.routing.align_rounds, 1, "converged first round");
    // Carve accounting: every carved part was leased or returned.
    let routing = &run.report.routing;
    let committed_parts: u64 = run.cross_shard.iter().map(|w| w.parts.len() as u64).sum();
    assert_eq!(
        routing.reservations_reserved,
        committed_parts + routing.reservations_released,
        "reservations leaked: {routing:?}"
    );
    // Routing is atomic — nothing steps between carve and lease, so no
    // strike can land on a carved part.
    assert_eq!(run.report.reservations_broken, 0);
    // Both shard logs record the committed lease completing.
    for shard_run in &run.shards {
        assert!(
            shard_run.report.jobs_scheduled >= 1,
            "a shard missed its part of the cross-shard lease"
        );
    }
    // And the driven sequence is reproducible, co-allocation included.
    let again = drive();
    assert_eq!(run.merged.to_json(), again.merged.to_json());
    assert_eq!(run.report.to_json(), again.report.to_json());
}

/// Alignment slack is what makes co-allocation live in jittered markets:
/// independently seeded shards almost never publish slots at exactly
/// equal ticks, so the exact fixed point (tolerance 0) starves while a
/// tolerant federation commits splits. Either way completions stay
/// federation-level — sibling parts fold back into one job.
#[test]
fn align_tolerance_unlocks_commits_in_jittered_markets() {
    let run_at = |tolerance: i64| -> FederationRun {
        // The starved scenario with slightly richer shards ([5, 6] slots
        // per cycle instead of [2, 3]): enough future-start supply that
        // near-alignments exist, still too little for any single shard
        // to host a 4-6 node job outright.
        let mut config = FederationConfig {
            max_align_rounds: 16,
            align_tolerance: tolerance,
            ..starved_config(4)
        };
        config.base.slot_gen.slot_count = IntRange::new(5, 6);
        let fed = Federation::new(config, Amp::new()).unwrap();
        fed.run(7).unwrap()
    };

    let strict = run_at(0);
    let slack = run_at(60);
    assert!(
        slack.report.routing.cross_shard_committed > strict.report.routing.cross_shard_committed,
        "slack {} must beat strict {}",
        slack.report.routing.cross_shard_committed,
        strict.report.routing.cross_shard_committed
    );
    assert!(slack.report.routing.cross_shard_committed >= 1);
    for run in [&strict, &slack] {
        assert!(
            run.report.jobs_completed <= run.report.jobs_offered,
            "split parts must fold into one completion: {} > {}",
            run.report.jobs_completed,
            run.report.jobs_offered
        );
        let routing = &run.report.routing;
        let committed_parts: u64 = run.cross_shard.iter().map(|w| w.parts.len() as u64).sum();
        assert_eq!(
            routing.reservations_reserved,
            committed_parts + routing.reservations_released,
            "reservations leaked: {routing:?}"
        );
    }
    // Every committed window respects the slack bound, and its launch
    // tick is the latest part start.
    for window in &slack.cross_shard {
        let starts: Vec<i64> = window
            .parts
            .iter()
            .map(|p| p.window.start().ticks())
            .collect();
        let latest = starts.iter().copied().max().unwrap();
        let earliest = starts.iter().copied().min().unwrap();
        assert!(latest - earliest <= 60, "spread over tolerance: {starts:?}");
        assert_eq!(window.start, latest);
    }
    // Reproducible, slack included.
    let again = run_at(60);
    assert_eq!(slack.merged.to_json(), again.merged.to_json());
    assert_eq!(slack.report.to_json(), again.report.to_json());
}
