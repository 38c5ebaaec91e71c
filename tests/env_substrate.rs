//! Integration of the environment substrate with the scheduling pipeline:
//! slot lists *derived from local schedules* behave like the directly
//! generated ones — the validation the paper's convenience shortcut
//! deserved.

use ecosched::engine::{ArrivalConfig, Engine, EngineConfig};
use ecosched::prelude::*;
use ecosched::sim::env::{extract_vacant_slots, generate_local_flow, EnvConfig, Environment};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn derived_list(seed: u64) -> SlotList {
    let cfg = EnvConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let env = Environment::generate(&cfg, &mut rng);
    let occupancy = generate_local_flow(&env, &cfg, &mut rng);
    extract_vacant_slots(&env, &occupancy)
}

#[test]
fn derived_lists_feed_the_pipeline() {
    let mut scheduled_somewhere = false;
    for seed in 0..10 {
        let list = derived_list(seed);
        list.validate().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
        let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
        let result = run_iteration(Amp::new(), &list, &batch, &IterationConfig::default()).unwrap();
        if let Some(assignment) = &result.assignment {
            scheduled_somewhere = true;
            assert!(assignment.total_cost() <= result.budget.unwrap());
        }
    }
    assert!(
        scheduled_somewhere,
        "derived environments must admit at least some schedules"
    );
}

#[test]
fn amp_beats_alp_on_derived_lists_too() {
    // The paper's headline relation is a property of the economics, not of
    // the list generator — it must survive the substrate swap.
    let mut alp_alts = 0usize;
    let mut amp_alts = 0usize;
    for seed in 0..12 {
        let list = derived_list(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(2000 + seed);
        let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
        alp_alts += find_alternatives(Alp::new(), &list, &batch)
            .unwrap()
            .alternatives
            .total_found();
        amp_alts += find_alternatives(Amp::new(), &list, &batch)
            .unwrap()
            .alternatives
            .total_found();
    }
    assert!(
        amp_alts > alp_alts,
        "AMP found {amp_alts} vs ALP {alp_alts} on derived lists"
    );
}

#[test]
fn same_start_clustering_emerges_from_local_flows() {
    // The paper's generator hard-codes a 0.4 same-start probability; in
    // the environment model the clustering *emerges* from multi-node local
    // jobs releasing nodes together.
    let mut shared = 0usize;
    let mut total = 0usize;
    for seed in 0..10 {
        let list = derived_list(seed);
        total += list.len().saturating_sub(1);
        shared += list
            .iter()
            .zip(list.iter().skip(1))
            .filter(|(a, b)| a.start() == b.start())
            .count();
    }
    let share = shared as f64 / total as f64;
    assert!(
        share > 0.05,
        "expected emergent same-start clustering, got {share:.3}"
    );
}

#[test]
fn metascheduler_drains_backlog_over_cycles() {
    let config = EngineConfig {
        cycles: 12,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 12.0,
            jobs: 60,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    };
    let report = Engine::new(config, Amp::new())
        .unwrap()
        .run(5)
        .unwrap()
        .report;
    assert_eq!(report.cycles.len(), 12);
    // Backlogs stay bounded: postponed jobs get rescheduled rather than
    // accumulating without bound.
    let max_backlog = report.cycles.iter().map(|c| c.postponed).max().unwrap();
    assert!(max_backlog <= 10, "backlog exploded to {max_backlog}");
    // Whenever cycle k postpones jobs, cycle k+1's batch includes them.
    for pair in report.cycles.windows(2) {
        assert!(
            pair[1].batch_size >= pair[0].postponed,
            "carried jobs must rejoin the next batch"
        );
    }
    assert!(report.jobs_scheduled >= 12 * 2);
}
