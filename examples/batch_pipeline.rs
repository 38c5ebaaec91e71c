//! The full two-stage pipeline on generated inputs: the paper's
//! generators → alternatives search (ALP and AMP) → VO limits (Eq. 2/3) →
//! backward-run combination optimization, under both criteria.
//!
//! Run with: `cargo run --example batch_pipeline [seed]`

use ecosched::optimize::efficient_menu;
use ecosched::prelude::*;
use ecosched::sim::IterationResult;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn describe(name: &str, result: &IterationResult) {
    println!("--- {name}");
    println!(
        "  alternatives: {} total ({:.2} per job), {} passes",
        result.search.alternatives.total_found(),
        result.search.alternatives.avg_per_job(),
        result.search.stats.passes
    );
    println!(
        "  VO limits: T* = {}, B* = {}",
        result.quota,
        result
            .budget
            .map_or_else(|| "-".to_string(), |b| b.to_string())
    );
    match &result.assignment {
        Some(a) => {
            println!(
                "  chosen combination: T(s̄) = {} ({:.2}/job), C(s̄) = {} ({:.2}/job)",
                a.total_time(),
                a.avg_time(),
                a.total_cost(),
                a.avg_cost()
            );
        }
        None => println!("  no job could be scheduled this iteration"),
    }
    if !result.postponed.is_empty() {
        println!("  postponed to the next iteration: {:?}", result.postponed);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2011);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // The paper's Sec. 5 distributions.
    let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
    let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
    println!(
        "generated {} vacant slots and a {}-job batch (seed {seed})\n",
        list.len(),
        batch.len()
    );

    for criterion in [Criterion::MinTimeUnderBudget, Criterion::MinCostUnderTime] {
        let config = IterationConfig { criterion };
        println!("== criterion: {criterion:?}");
        let alp = run_iteration(Alp::new(), &list, &batch, &config)?;
        let amp = run_iteration(Amp::new(), &list, &batch, &config)?;
        describe("ALP", &alp);
        describe("AMP", &amp);
        if let (Some(a), Some(b)) = (&alp.assignment, &amp.assignment) {
            if alp.all_covered() && amp.all_covered() {
                println!(
                    "  ⇒ AMP vs ALP: time ×{:.2}, cost ×{:.2}\n",
                    b.avg_time() / a.avg_time(),
                    b.avg_cost() / a.avg_cost()
                );
            } else {
                println!();
            }
        } else {
            println!();
        }
    }

    // The VO's full decision menu (the paper's general vector-criteria
    // case): every Pareto-efficient combination within B* and T*,
    // evaluated as ⟨C, D, T, I⟩.
    let amp = run_iteration(Amp::new(), &list, &batch, &IterationConfig::default())?;
    let covered: Vec<_> = amp
        .search
        .alternatives
        .per_job()
        .iter()
        .filter(|ja| !ja.is_empty())
        .cloned()
        .collect();
    if let Some(budget) = amp.budget {
        let menu = efficient_menu(&covered, budget, amp.quota)?;
        println!(
            "== VO decision menu over AMP's alternatives ({} efficient combinations):",
            menu.len()
        );
        for (assignment, criteria) in menu.iter().take(8) {
            println!(
                "  T(s̄)={:>5} C(s̄)={:>12}  {}",
                assignment.total_time(),
                assignment.total_cost(),
                criteria
            );
        }
        if menu.len() > 8 {
            println!("  … and {} more", menu.len() - 8);
        }
    }
    Ok(())
}
