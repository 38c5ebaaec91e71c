//! The federation observability A/B contract: a live recorder (federation
//! handle plus per-shard engine handles) must be invisible to the run —
//! byte-identical merged logs and reports — while the registry's mirrored
//! routing counters agree with the checkpointed `RouteCounters`.

use ecosched_engine::{ArrivalConfig, EngineConfig};
use ecosched_federation::{
    federation_obs, Federation, FederationConfig, FederationRun, RoutePolicy,
};
use ecosched_obs::RegistryBuilder;
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, RevocationConfig, SlotGenConfig};

/// A 4-shard cheapest-probe federation with cross-shard co-allocation
/// live (shards starved so the cross-shard path fires) and churn.
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
        revocation: RevocationConfig::per_slot(0.05),
        ..EngineConfig::default()
    };
    FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: true,
        ..FederationConfig::new(base, shards)
    }
}

fn observed_federation(config: FederationConfig) -> Federation<Amp> {
    let shards = config.shards as usize;
    let (fed_obs, shard_obs) = federation_obs(RegistryBuilder::new(), shards);
    Federation::new(config, Amp::new())
        .expect("valid config")
        .with_obs(fed_obs, shard_obs)
}

fn assert_recorder_invisible(
    config: FederationConfig,
    seed: u64,
) -> (Federation<Amp>, FederationRun) {
    let plain = Federation::new(config.clone(), Amp::new()).expect("valid config");
    let observed = observed_federation(config);
    assert_eq!(
        plain.config_fingerprint(),
        observed.config_fingerprint(),
        "the fingerprint must not see the recorder"
    );
    let a = plain.run(seed).expect("plain run");
    let b = observed.run(seed).expect("observed run");
    assert_eq!(a.report.merged_log_hash, b.report.merged_log_hash);
    assert_eq!(a.report.to_json(), b.report.to_json());
    for (pa, pb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(pa.log.to_json(), pb.log.to_json());
    }
    (observed, b)
}

#[test]
fn recorder_is_outcome_invisible_single_shard() {
    let (fed, run) =
        assert_recorder_invisible(FederationConfig::new(EngineConfig::default(), 1), 42);
    let reg = fed
        .obs()
        .recorder()
        .expect("recorder attached")
        .registry()
        .expect("recorder on");
    let merged = reg
        .find_counter("ecosched_federation_merged_events_total", &[])
        .expect("registered");
    assert_eq!(reg.counter_value(merged), run.report.merged_events);
    // The shard-0 engine handle recorded too.
    let events = reg
        .find_counter("ecosched_engine_events_total", &[("shard", "0")])
        .expect("registered");
    assert_eq!(reg.counter_value(events), run.shards[0].report.event_count);
}

#[test]
fn recorder_is_outcome_invisible_sharded_cross_shard() {
    let (fed, run) = assert_recorder_invisible(starved_config(4), 42);
    let reg = fed
        .obs()
        .recorder()
        .expect("recorder attached")
        .registry()
        .expect("recorder on");
    // Mirrored counters equal the checkpointed RouteCounters exactly.
    let routing = &run.report.routing;
    for (shard, &routed) in routing.routed.iter().enumerate() {
        let shard = shard.to_string();
        let id = reg
            .find_counter("ecosched_federation_routed_total", &[("shard", &shard)])
            .expect("registered");
        assert_eq!(reg.counter_value(id), routed);
    }
    for (name, expected) in [
        ("ecosched_federation_probes_total", routing.probes),
        (
            "ecosched_federation_cross_shard_committed_total",
            routing.cross_shard_committed,
        ),
        (
            "ecosched_federation_fallback_submits_total",
            routing.fallback_submits,
        ),
        (
            "ecosched_federation_align_rounds_total",
            routing.align_rounds,
        ),
        (
            "ecosched_federation_reservations_reserved_total",
            routing.reservations_reserved,
        ),
        (
            "ecosched_federation_reservations_released_total",
            routing.reservations_released,
        ),
        (
            "ecosched_federation_merged_events_total",
            run.report.merged_events,
        ),
        (
            "ecosched_federation_jobs_offered_total",
            run.report.jobs_offered,
        ),
    ] {
        let id = reg.find_counter(name, &[]).expect("registered");
        assert_eq!(reg.counter_value(id), expected, "{name}");
    }
    assert!(
        routing.probes > 0,
        "cheapest-probe routing must have probed"
    );
}
