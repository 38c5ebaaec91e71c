//! The observability A/B contract: attaching a live recorder must be
//! invisible to the run — byte-identical event logs and reports across
//! calm and churn configurations — while the registry itself fills with
//! counters that agree with the report.

use ecosched_engine::{engine_obs, ArrivalConfig, Engine, EngineConfig};
use ecosched_select::Amp;
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

fn observed_engine(config: EngineConfig) -> Engine<Amp> {
    Engine::new(config, Amp::new())
        .expect("valid config")
        .with_obs(engine_obs())
}

/// Runs the same `(config, seed)` with the recorder off and on, asserts
/// byte-identity, and returns the observed engine for registry checks.
fn assert_recorder_invisible(config: EngineConfig, seed: u64) -> Engine<Amp> {
    let plain = Engine::new(config.clone(), Amp::new()).expect("valid config");
    let observed = observed_engine(config);
    assert_eq!(
        plain.config_fingerprint(),
        observed.config_fingerprint(),
        "the fingerprint must not see the recorder"
    );
    let a = plain.run(seed).expect("plain run");
    let b = observed.run(seed).expect("observed run");
    assert_eq!(a.log.to_json(), b.log.to_json());
    assert_eq!(a.log.fnv1a_hash(), b.log.fnv1a_hash());
    assert_eq!(a.report.to_json(), b.report.to_json());
    observed
}

#[test]
fn recorder_is_outcome_invisible_calm() {
    let engine = assert_recorder_invisible(base_config(), 42);
    let run = engine.run(42).expect("observed run");
    let reg = engine
        .obs()
        .recorder()
        .expect("recorder attached")
        .registry()
        .expect("recorder on");
    // Two observed runs of the same seed happened on this registry. A
    // counter the run report backs mirrors the report, so it reads one
    // run's value; the rest count every cycle either run went through.
    let arrived = reg
        .find_counter("ecosched_engine_jobs_arrived_total", &[])
        .expect("registered");
    assert_eq!(reg.counter_value(arrived), run.report.jobs_arrived);
    let events = reg
        .find_counter("ecosched_engine_events_total", &[])
        .expect("registered");
    assert_eq!(reg.counter_value(events), run.report.event_count);
    let scheduled = reg
        .find_counter("ecosched_engine_jobs_scheduled_total", &[])
        .expect("registered");
    assert_eq!(reg.counter_value(scheduled), run.report.jobs_scheduled);
    let solves = reg
        .find_counter("ecosched_engine_opt_solves_total", &[])
        .expect("registered");
    assert_eq!(reg.counter_value(solves), run.report.opt.solves);
    let rows = reg
        .find_counter("ecosched_engine_opt_rows_rebuilt_total", &[])
        .expect("registered");
    assert_eq!(reg.counter_value(rows), run.report.opt.rows_rebuilt);
    assert!(reg
        .find_counter("ecosched_engine_opt_frontier_rebuilt_total", &[])
        .is_some());
    // A cycle's optimizer is fresh, so the reuse counters could only read
    // zero: they have no series.
    for gone in ["rows_reused", "rows_extended", "frontier_reused"] {
        let name = format!("ecosched_engine_opt_{gone}_total");
        assert!(reg.find_counter(&name, &[]).is_none(), "{name}");
    }
    assert_eq!(
        (
            run.report.opt.rows_reused,
            run.report.opt.rows_extended,
            run.report.opt.frontier_reused
        ),
        (0, 0, 0)
    );
    let examined = reg
        .find_counter("ecosched_engine_scan_slots_examined_total", &[])
        .expect("registered");
    assert!(
        reg.counter_value(examined) > 0,
        "cycles must feed scan stats into the registry"
    );
    // Pool pressure: expiries count across cycles, and the high-water
    // gauge holds the last planned cycle's largest pool, which held at
    // least the window it found.
    let expired = reg
        .find_counter("ecosched_engine_scan_slots_expired_total", &[])
        .expect("registered");
    let admitted = reg
        .find_counter("ecosched_engine_scan_slots_admitted_total", &[])
        .expect("registered");
    assert!(reg.counter_value(expired) > 0);
    assert!(reg.counter_value(expired) < reg.counter_value(admitted));
    let high_water = reg
        .find_gauge("ecosched_engine_scan_pool_high_water", &[])
        .expect("registered");
    assert!(reg.gauge_value(high_water) >= 1.0);
    let cycles = reg
        .find_counter("ecosched_engine_cycles_total", &[])
        .expect("registered");
    let planned = run.report.cycles.iter().filter(|c| c.batch_size > 0);
    assert_eq!(reg.counter_value(cycles), 2 * planned.count() as u64);
}

#[test]
fn recorder_is_outcome_invisible_churn() {
    let engine = assert_recorder_invisible(churn_config(), 42);
    let reg = engine
        .obs()
        .recorder()
        .expect("recorder attached")
        .registry()
        .expect("recorder on");
    let revocations = reg
        .find_counter("ecosched_engine_revocations_total", &[])
        .expect("registered");
    assert!(
        reg.counter_value(revocations) > 0,
        "churn must record revocations"
    );
    let tracer = engine
        .obs()
        .recorder()
        .expect("recorder attached")
        .tracer()
        .expect("recorder on");
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.kind == "cycle"));
    assert!(spans.iter().any(|s| s.kind == "scan"));
    assert!(spans.iter().any(|s| s.kind == "optimize"));
    assert!(spans.iter().any(|s| s.kind == "commit"));
    assert!(spans.iter().any(|s| s.kind == "repair"));
    // Child spans link back to their cycle parent.
    let cycle_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == "cycle")
        .map(|s| s.id)
        .collect();
    assert!(spans
        .iter()
        .filter(|s| s.kind == "scan")
        .all(|s| s.parent.is_some_and(|p| cycle_ids.contains(&p))));
}

#[test]
fn recorder_survives_checkpoint_resume_untouched() {
    // Checkpoints must not carry (or require) the recorder: a checkpoint
    // taken on an observed run resumes on an unobserved engine and
    // converges to the same log.
    let observed = observed_engine(churn_config());
    let plain = Engine::new(churn_config(), Amp::new()).expect("valid config");
    let mut state = observed.start(42);
    for _ in 0..40 {
        if observed.step(&mut state).expect("step").is_none() {
            break;
        }
    }
    let checkpoint = observed.checkpoint(&state);
    let mut resumed = plain.resume(&checkpoint).expect("resume without recorder");
    while observed.step(&mut state).expect("step").is_some() {}
    while plain.step(&mut resumed).expect("step").is_some() {}
    let a = observed.finish(state);
    let b = plain.finish(resumed);
    assert_eq!(a.log.to_json(), b.log.to_json());
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn postponements_are_counted_by_typed_reason() {
    // Heavy churn: some broken leases spend the whole repair budget on
    // stale alternatives, others run out of alternatives and scan dry.
    // Each re-postponement is counted under exactly one of the two
    // reasons — and the recorder stays invisible while counting them.
    let config = EngineConfig {
        revocation: RevocationConfig::per_slot(0.8),
        ..base_config()
    };
    let engine = assert_recorder_invisible(config, 42);
    let run = engine.run(42).expect("observed run");
    let reg = engine
        .obs()
        .recorder()
        .expect("recorder attached")
        .registry()
        .expect("recorder on");
    let postponed = |reason: &str| {
        let id = reg
            .find_counter("ecosched_engine_postponed_total", &[("reason", reason)])
            .expect("registered");
        reg.counter_value(id)
    };
    let (exhausted, stale) = (
        postponed("repair_budget_exhausted"),
        postponed("all_alternatives_stale"),
    );
    assert!(exhausted > 0 && stale > 0, "{exhausted} / {stale}");
    assert_eq!(exhausted + stale, 2 * run.report.repostponed);
    let carried: usize = run.report.cycles.iter().map(|c| c.postponed).sum();
    assert_eq!(postponed("no_alternatives"), 2 * carried as u64);
}

#[test]
fn alternative_use_histograms_count_every_lease_and_failover() {
    // One observed churn run on a fresh registry: every cycle commitment
    // observes the index of the alternative it took, every tier-1
    // failover the index of the survivor it adopted.
    let engine = observed_engine(churn_config());
    let run = engine.run(42).expect("observed run");
    let reg = engine
        .obs()
        .recorder()
        .expect("recorder attached")
        .registry()
        .expect("recorder on");
    let count = |name: &str| {
        let id = reg.find_histogram(name, &[]).expect("registered");
        reg.histogram_count(id)
    };
    assert!(run.report.failovers > 0, "churn must fail a lease over");
    assert_eq!(
        (
            count("ecosched_engine_alternative_chosen_index"),
            count("ecosched_engine_alternative_failover_index"),
        ),
        (run.report.jobs_scheduled, run.report.failovers)
    );
    let offered = reg
        .find_counter("ecosched_engine_alternatives_offered_total", &[])
        .expect("registered");
    assert!(reg.counter_value(offered) >= run.report.jobs_scheduled);
}
