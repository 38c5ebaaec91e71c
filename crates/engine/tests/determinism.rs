//! The determinism contract: an engine run is a pure function of
//! `(config, seed)`, so identically seeded runs must produce
//! byte-identical serialized event logs and reports.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, Event};
use ecosched_select::{Alp, Amp};
use ecosched_sim::{JobGenConfig, RevocationConfig};

fn base_config() -> EngineConfig {
    EngineConfig {
        cycles: 5,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 20,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

fn churn_config() -> EngineConfig {
    EngineConfig {
        revocation: RevocationConfig::per_slot(0.05),
        ..base_config()
    }
}

#[test]
fn same_seed_same_log_and_report() {
    let engine = Engine::new(base_config(), Amp::new()).unwrap();
    let a = engine.run(42).unwrap();
    let b = engine.run(42).unwrap();
    assert_eq!(a.log.to_json(), b.log.to_json());
    assert_eq!(a.log.fnv1a_hash(), b.log.fnv1a_hash());
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn same_seed_same_log_under_churn() {
    let engine = Engine::new(churn_config(), Amp::new()).unwrap();
    let a = engine.run(42).unwrap();
    let b = engine.run(42).unwrap();
    assert_eq!(a.log.to_json(), b.log.to_json());
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert!(a.report.revocations > 0, "churn config must inject faults");
}

#[test]
fn same_seed_same_log_for_alp() {
    let engine = Engine::new(churn_config(), Alp::new()).unwrap();
    let a = engine.run(17).unwrap();
    let b = engine.run(17).unwrap();
    assert_eq!(a.log.fnv1a_hash(), b.log.fnv1a_hash());
    assert_eq!(a.report, b.report);
}

#[test]
fn different_seeds_diverge() {
    let engine = Engine::new(base_config(), Amp::new()).unwrap();
    let a = engine.run(1).unwrap();
    let b = engine.run(2).unwrap();
    assert_ne!(
        a.log.fnv1a_hash(),
        b.log.fnv1a_hash(),
        "different seeds must produce different event streams"
    );
}

/// `config_fingerprint` of `EngineConfig::default()` under ALP and AMP, as
/// computed by the last build whose config still had a `threads` field
/// (normalized to 1 before hashing) and an `optimizer_cache` field (`true`
/// in every configuration a binary could build). Snapshots and WAL
/// manifests written by those builds carry these values.
const PINNED_DEFAULT_FINGERPRINT_ALP: u64 = 0xfadd_ce8c_676b_44ac;
const PINNED_DEFAULT_FINGERPRINT_AMP: u64 = 0x1639_cb84_8d1c_41d3;

#[test]
fn reserved_threads_key_keeps_old_configs_and_fingerprints_valid() {
    let json = serde_json::to_string(&EngineConfig::default()).unwrap();
    // Each reserved key sits where the field it replaced was serialized.
    assert!(
        json.contains(r#""slowdown_tau":10,"threads":1,"arrivals":{"#),
        "the reserved key must keep its position: {json}"
    );
    assert!(
        json.contains(r#""search_mode":"Sequential"},"optimizer_cache":true,"coalesce":true,"#),
        "the reserved key must keep its position: {json}"
    );
    let four = json.replace(r#""threads":1,"#, r#""threads":4,"#);
    let no_threads = json.replace(r#""threads":1,"#, "");
    let uncached = json.replace(r#""optimizer_cache":true,"#, r#""optimizer_cache":false,"#);
    let no_cache = json.replace(r#""optimizer_cache":true,"#, "");
    let variants = [&json, &four, &no_threads, &uncached, &no_cache];
    assert!(variants[1..].iter().all(|text| **text != json));
    for text in variants {
        let config: EngineConfig = serde_json::from_str(text).unwrap();
        config.validate().unwrap();
        assert_eq!(config, EngineConfig::default());
        assert_eq!(serde_json::to_string(&config).unwrap(), json);
        assert_eq!(
            Engine::new(config.clone(), Alp::new())
                .unwrap()
                .config_fingerprint(),
            PINNED_DEFAULT_FINGERPRINT_ALP
        );
        assert_eq!(
            Engine::new(config, Amp::new())
                .unwrap()
                .config_fingerprint(),
            PINNED_DEFAULT_FINGERPRINT_AMP
        );
    }
}

#[test]
fn log_covers_the_full_event_taxonomy() {
    let engine = Engine::new(churn_config(), Amp::new()).unwrap();
    let run = engine.run(42).unwrap();
    let has = |pred: fn(&Event) -> bool| run.log.entries.iter().any(|e| pred(&e.event));
    assert!(has(|e| matches!(e, Event::JobArrival { .. })));
    assert!(has(|e| matches!(e, Event::SlotPublished { .. })));
    assert!(has(|e| matches!(e, Event::SlotExpired { .. })));
    assert!(has(|e| matches!(e, Event::CycleTick { .. })));
    assert!(has(|e| matches!(e, Event::RevocationStrike { .. })));
    assert!(has(|e| matches!(e, Event::LeaseCompleted { .. })));
}

#[test]
fn log_times_and_ties_are_ordered() {
    let engine = Engine::new(churn_config(), Amp::new()).unwrap();
    let run = engine.run(23).unwrap();
    for pair in run.log.entries.windows(2) {
        assert!(
            (pair[0].time, pair[0].seq) < (pair[1].time, pair[1].seq),
            "log must be strictly ordered by (time, seq)"
        );
    }
}
