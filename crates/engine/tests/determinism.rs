//! The determinism contract: an engine run is a pure function of
//! `(config, seed)`, so identically seeded runs must produce
//! byte-identical serialized event logs and reports.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, Event};
use ecosched_optimize::OptStats;
use ecosched_select::{Alp, Amp};
use ecosched_sim::swf::{parse_swf, SwfImportConfig};
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

#[test]
fn trace_replay_is_deterministic() {
    let trace = parse_swf(
        "; mini trace\r\n\
         1 0 5 3600 4 -1 -1 4 3600 -1 1 1 1 1 1 1 -1 -1\r\n\
         2 30 5 1800 2 -1 -1 2 2400 -1 1 1 1 1 1 1 -1 -1\r\n\
         3 90 5 1200 1 -1 -1 1 1200 -1 1 1 1 1 1 1 -1 -1\r\n\
         4 150 5 2400 2 -1 -1 2 3000 -1 1 1 1 1 1 1 -1 -1\r\n",
    )
    .unwrap();
    let config = EngineConfig {
        cycles: 4,
        arrivals: ArrivalConfig::Trace {
            trace,
            import: SwfImportConfig::default(),
        },
        ..EngineConfig::default()
    };
    let engine = Engine::new(config, Amp::new()).unwrap();
    let a = engine.run(9).unwrap();
    let b = engine.run(9).unwrap();
    assert_eq!(a.log.to_json(), b.log.to_json());
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.report.jobs_arrived, 4);
    assert!(a.report.jobs_scheduled > 0);
}

/// Runs the same seed with and without the incremental-optimizer cache
/// and asserts the scheduling outcome is byte-identical: same event log,
/// same report once the (legitimately differing) work counters are
/// zeroed out.
fn assert_cache_invisible(config: EngineConfig, seed: u64) -> (OptStats, OptStats) {
    let cached = Engine::new(config.clone(), Amp::new()).unwrap();
    let uncached = Engine::new(
        EngineConfig {
            optimizer_cache: false,
            ..config
        },
        Amp::new(),
    )
    .unwrap();
    let a = cached.run(seed).unwrap();
    let b = uncached.run(seed).unwrap();
    assert_eq!(a.log.to_json(), b.log.to_json());
    assert_eq!(a.log.fnv1a_hash(), b.log.fnv1a_hash());
    let mut ra = a.report.clone();
    let mut rb = b.report.clone();
    let (opt_on, opt_off) = (ra.opt, rb.opt);
    ra.opt = OptStats::default();
    rb.opt = OptStats::default();
    assert_eq!(ra.to_json(), rb.to_json());
    (opt_on, opt_off)
}

#[test]
fn optimizer_cache_is_outcome_invisible() {
    let (opt_on, opt_off) = assert_cache_invisible(base_config(), 42);
    assert!(opt_on.solves > 0, "cycles must exercise the optimizer");
    assert_eq!(
        opt_on.solves, opt_off.solves,
        "both modes answer the same solve sequence"
    );
}

#[test]
fn optimizer_cache_is_outcome_invisible_under_churn() {
    let (opt_on, opt_off) = assert_cache_invisible(churn_config(), 42);
    assert_eq!(opt_on.solves, opt_off.solves);
    assert!(
        opt_on.rows_rebuilt <= opt_off.rows_rebuilt,
        "the shared cache must never rebuild more rows than from-scratch \
         solving ({} > {})",
        opt_on.rows_rebuilt,
        opt_off.rows_rebuilt
    );
}

/// `config_fingerprint` of `EngineConfig::default()` under ALP and AMP, as
/// computed by the last build whose config still had a `threads` field
/// (normalized to 1 before hashing). Snapshots and WAL manifests written
/// by that build carry these values.
const PINNED_DEFAULT_FINGERPRINT_ALP: u64 = 0xfadd_ce8c_676b_44ac;
const PINNED_DEFAULT_FINGERPRINT_AMP: u64 = 0x1639_cb84_8d1c_41d3;

#[test]
fn reserved_threads_key_keeps_old_configs_and_fingerprints_valid() {
    let json = serde_json::to_string(&EngineConfig::default()).unwrap();
    assert!(
        json.contains(r#""slowdown_tau":10,"threads":1,"arrivals":{"#),
        "the reserved key must keep its position: {json}"
    );
    let four = json.replace(r#""threads":1,"#, r#""threads":4,"#);
    let absent = json.replace(r#""threads":1,"#, "");
    assert!(four != json && absent != json);
    for text in [&json, &four, &absent] {
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
