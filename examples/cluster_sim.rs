//! The environment substrate end-to-end: generate resource domains with
//! local (owner) job flows, extract the vacant slots from the local
//! schedules, and run the online metascheduler for several cycles — the
//! "whole distributed system model" the paper's study skipped for
//! convenience.
//!
//! Run with: `cargo run --example cluster_sim [seed]`

use ecosched::engine::{ArrivalConfig, Engine, EngineConfig};
use ecosched::prelude::*;
use ecosched::sim::env::{extract_vacant_slots, generate_local_flow, EnvConfig, Environment};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // 1. The physical world: domains of heterogeneous nodes.
    let env_config = EnvConfig::default();
    let env = Environment::generate(&env_config, &mut rng);
    println!(
        "environment: {} domains, {} nodes, horizon {}",
        env.domains().len(),
        env.node_count(),
        env.horizon()
    );
    for domain in env.domains() {
        let perfs: Vec<String> = domain
            .resources()
            .iter()
            .map(|r| format!("{:.1}", r.perf().to_f64()))
            .collect();
        println!(
            "  {}: {} nodes (rates {})",
            domain.id(),
            domain.len(),
            perfs.join(", ")
        );
    }

    // 2. The owners' local job flows fragment each node's schedule.
    let occupancy = generate_local_flow(&env, &env_config, &mut rng);
    println!(
        "\nlocal flows occupy {} node-ticks of {} total",
        occupancy.total_busy().ticks(),
        env.horizon().ticks() * env.node_count() as i64
    );

    // 3. The vacancies that remain are what the metascheduler sees.
    let list = extract_vacant_slots(&env, &occupancy);
    println!(
        "extracted {} vacant slots ({} node-ticks vacant)",
        list.len(),
        list.total_vacant_time().ticks()
    );

    // 4. One scheduling iteration on the derived list.
    let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
    let result = run_iteration(Amp::new(), &list, &batch, &IterationConfig::default())?;
    println!(
        "\none AMP iteration over the derived list: {} alternatives, {} of {} jobs scheduled",
        result.search.alternatives.total_found(),
        batch.len() - result.postponed.len(),
        batch.len()
    );

    // 5. And the online metascheduler over freshly published slots: the
    //    discrete-event engine runs one cycle per publication, carrying
    //    postponed jobs to the next. Thirty jobs at the default mean gap
    //    of 12 ticks arrive within the six 60-tick cycles.
    let config = EngineConfig {
        cycles: 6,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 12.0,
            jobs: 30,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    };
    let report = Engine::new(config, Amp::new())?.run(seed)?.report;
    println!("\nengine, 6 cycles:");
    for cycle in &report.cycles {
        println!(
            "  cycle {} at t={}: {} slots, batch {}, scheduled {}, postponed {}, mean wait {:.1}, spend {:.1}",
            cycle.cycle + 1,
            cycle.time,
            cycle.market_slots,
            cycle.batch_size,
            cycle.scheduled,
            cycle.postponed,
            cycle.mean_wait,
            cycle.spend
        );
    }
    println!(
        "total scheduled {}, completed {}, final backlog {}",
        report.jobs_scheduled, report.jobs_completed, report.backlog
    );
    Ok(())
}
