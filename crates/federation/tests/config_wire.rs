//! The engine configuration's wire bytes and fingerprints, pinned to the
//! values the build before the test-only knobs went wrote
//! (`SearchMode`, `OptimizerKind`, the full-rescan repair tier and the
//! repair attempt budget, the domain-outage and price-burst fault
//! processes, and the engine's `vos`, `completion_fraction` and
//! `slowdown_tau`). Their keys stay on the
//! wire as constants: every configuration encodes to the same JSON, so
//! every fingerprint, snapshot and manifest holds, and a configuration
//! asking for a removed behaviour is refused by name.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig};
use ecosched_federation::{Federation, FederationConfig};
use ecosched_select::{Alp, Amp};
use ecosched_sim::{JobGenConfig, RevocationConfig};

/// `EngineConfig::default()` as serialized before the removal.
const DEFAULT_JSON: &str = concat!(
    r#"{"cycle_length":60,"cycles":8,"slot_gen":{"slot_count":{"lo":120,"hi":150},"#,
    r#""slot_length":{"lo":50,"hi":300},"node_perf":{"lo":1.0,"hi":3.0},"#,
    r#""same_start_probability":0.4,"start_gap":{"lo":0,"hi":10},"price_base":1.7,"#,
    r#""price_jitter":{"lo":0.75,"hi":1.25}},"revocation":{"per_slot":0.0,"domain_outage":0.0,"#,
    r#""nodes_per_domain":8,"price_burst":0.0,"burst_fraction":0.0},"repair":{"max_attempts":8,"#,
    r#""full_rescan_on_exhaustion":false},"iteration":{"criterion":"MinTimeUnderBudget","#,
    r#""optimizer":{"BackwardRun":{"resolution_steps":1500}},"search_mode":"Sequential"},"#,
    r#""optimizer_cache":true,"coalesce":true,"vos":3,"completion_fraction":0.75,"#,
    r#""slowdown_tau":10,"threads":1,"arrivals":{"Poisson":{"mean_interarrival":12.0,"jobs":40,"#,
    r#""job_gen":{"jobs_per_batch":{"lo":3,"hi":7},"nodes":{"lo":1,"hi":6},"length":{"lo":50,"#,
    r#""hi":150},"min_perf":{"lo":1.0,"hi":2.0},"budget_factor":{"lo":0.75,"hi":1.25},"#,
    r#""price_base":1.7}}}}"#,
);

/// The `bench/` `engine_churn` configuration, likewise.
const CHURN_JSON: &str = concat!(
    r#"{"cycle_length":60,"cycles":100,"slot_gen":{"slot_count":{"lo":120,"hi":150},"#,
    r#""slot_length":{"lo":50,"hi":300},"node_perf":{"lo":1.0,"hi":3.0},"#,
    r#""same_start_probability":0.4,"start_gap":{"lo":0,"hi":10},"price_base":1.7,"#,
    r#""price_jitter":{"lo":0.75,"hi":1.25}},"revocation":{"per_slot":0.05,"domain_outage":0.0,"#,
    r#""nodes_per_domain":8,"price_burst":0.0,"burst_fraction":0.0},"repair":{"max_attempts":8,"#,
    r#""full_rescan_on_exhaustion":false},"iteration":{"criterion":"MinTimeUnderBudget","#,
    r#""optimizer":{"BackwardRun":{"resolution_steps":1500}},"search_mode":"Sequential"},"#,
    r#""optimizer_cache":true,"coalesce":true,"vos":3,"completion_fraction":0.75,"#,
    r#""slowdown_tau":10,"threads":1,"arrivals":{"Poisson":{"mean_interarrival":2.0,"jobs":3000,"#,
    r#""job_gen":{"jobs_per_batch":{"lo":3,"hi":7},"nodes":{"lo":1,"hi":6},"length":{"lo":50,"#,
    r#""hi":150},"min_perf":{"lo":1.0,"hi":2.0},"budget_factor":{"lo":0.75,"hi":1.25},"#,
    r#""price_base":1.7}}}}"#,
);

/// `bench/src/workloads/engine.rs`'s `engine_churn` configuration.
fn churn() -> EngineConfig {
    EngineConfig {
        cycles: 100,
        revocation: RevocationConfig::per_slot(0.05),
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 2.0,
            jobs: 3000,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

fn fingerprints(config: &EngineConfig) -> (u64, u64) {
    let alp = Engine::new(config.clone(), Alp::new()).unwrap();
    let amp = Engine::new(config.clone(), Amp::new()).unwrap();
    (alp.config_fingerprint(), amp.config_fingerprint())
}

#[test]
fn configs_encode_and_fingerprint_as_before_the_removal() {
    let default = EngineConfig::default();
    assert_eq!(serde_json::to_string(&default).unwrap(), DEFAULT_JSON);
    assert_eq!(
        fingerprints(&default),
        (0xfadd_ce8c_676b_44ac, 0x1639_cb84_8d1c_41d3)
    );
    assert_eq!(serde_json::to_string(&churn()).unwrap(), CHURN_JSON);
    assert_eq!(
        fingerprints(&churn()),
        (0x705b_6219_5d08_1cd0, 0x55c0_06a2_6a8c_94c3)
    );
    let federation = Federation::new(FederationConfig::new(churn(), 4), Amp::new()).unwrap();
    assert_eq!(federation.config_fingerprint(), 0x1d1a_c9fe_51de_de39);
    // Both literals decode to the configs they came from.
    let decoded: EngineConfig = serde_json::from_str(DEFAULT_JSON).unwrap();
    assert_eq!(decoded, default);
    let decoded: EngineConfig = serde_json::from_str(CHURN_JSON).unwrap();
    assert_eq!(decoded, churn());
}

/// Each reserved key with its constant, and a value asking for the
/// behaviour that went.
const RESERVED: [(&str, &str, &str); 11] = [
    ("domain_outage", "0.0", "0.4"),
    ("nodes_per_domain", "8", "6"),
    ("price_burst", "0.0", "0.8"),
    ("burst_fraction", "0.0", "0.3"),
    ("max_attempts", "8", "2"),
    ("full_rescan_on_exhaustion", "false", "true"),
    (
        "optimizer",
        r#"{"BackwardRun":{"resolution_steps":1500}}"#,
        r#""ParetoExact""#,
    ),
    ("search_mode", r#""Sequential""#, r#""Coscheduled""#),
    ("vos", "3", "4"),
    ("completion_fraction", "0.75", "1.0"),
    ("slowdown_tau", "10", "20"),
];

#[test]
fn a_reserved_key_decodes_only_as_its_constant_or_absent() {
    for (key, constant, other) in RESERVED {
        let held = format!("\"{key}\":{constant}");
        assert!(DEFAULT_JSON.contains(&held), "{held}");
        let asks = DEFAULT_JSON.replace(&held, &format!("\"{key}\":{other}"));
        let err = serde_json::from_str::<EngineConfig>(&asks)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("reserved key `{key}`")),
            "{key}: {err}"
        );

        // Dropping the key (and its comma) decodes to the default, which
        // writes the constant back.
        let absent = DEFAULT_JSON
            .replace(&format!("{held},"), "")
            .replace(&format!(",{held}"), "");
        assert!(!absent.contains(&format!("\"{key}\"")), "{absent}");
        let decoded: EngineConfig = serde_json::from_str(&absent).unwrap();
        assert_eq!(serde_json::to_string(&decoded).unwrap(), DEFAULT_JSON);
    }
}
