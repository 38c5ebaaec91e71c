//! Cross-crate integration: the full two-stage pipeline on seeded inputs.

use ecosched::optimize::IncrementalOptimizer;
use ecosched::prelude::*;
use ecosched::sim::IterationResult;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn generate(seed: u64) -> (SlotList, Batch) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
    let batch = JobGenerator::new(JobGenConfig::default()).generate(&mut rng);
    (list, batch)
}

#[test]
fn assignments_respect_the_vo_limits_across_seeds() {
    for seed in 0..30 {
        let (list, batch) = generate(seed);
        for criterion in [Criterion::MinTimeUnderBudget, Criterion::MinCostUnderTime] {
            let config = IterationConfig { criterion };
            let result = run_iteration(Amp::new(), &list, &batch, &config)
                .expect("iteration never fails on generated inputs");
            let Some(assignment) = &result.assignment else {
                continue;
            };
            let budget = result.budget.expect("assignment implies budget");
            match criterion {
                Criterion::MinTimeUnderBudget => {
                    assert!(
                        assignment.total_cost() <= budget,
                        "seed {seed}: cost {} over B* {budget}",
                        assignment.total_cost()
                    );
                }
                Criterion::MinCostUnderTime => {
                    assert!(
                        assignment.total_time() <= result.quota,
                        "seed {seed}: time {} over T* {}",
                        assignment.total_time(),
                        result.quota
                    );
                }
            }
        }
    }
}

#[test]
fn chosen_windows_fit_each_jobs_own_budget() {
    for seed in 0..20 {
        let (list, batch) = generate(seed);
        for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
            let outcome = find_alternatives(selector, &list, &batch).unwrap();
            for (job, ja) in batch.iter().zip(outcome.alternatives.per_job()) {
                for alt in ja {
                    assert_eq!(alt.window().slot_count(), job.request().nodes());
                    assert!(alt.cost() <= job.request().budget());
                    for ws in alt.window().slots() {
                        assert!(ws.perf().satisfies(job.request().min_perf()));
                    }
                }
            }
        }
    }
}

/// The jobs the iteration's search covered, in batch order — what its
/// optimizer solved over.
fn covered(result: &IterationResult) -> Vec<JobAlternatives> {
    let per_job = result.search.alternatives.per_job();
    per_job
        .iter()
        .filter(|ja| !ja.is_empty())
        .cloned()
        .collect()
}

#[test]
fn time_min_never_beats_cost_min_on_cost_and_vice_versa() {
    // The two criteria optimize different measures over the same
    // alternatives, so each must win (or tie) its own measure whenever the
    // time-min answer also fits inside T* (their feasible sets differ:
    // time-min is budget-capped, cost-min quota-capped).
    for seed in 0..30 {
        let (list, batch) = generate(seed);
        let result = run_iteration(Amp::new(), &list, &batch, &IterationConfig::default()).unwrap();
        let Some(budget) = result.budget else {
            continue;
        };
        // Exact solvers on the iteration's own alternatives and limits:
        // this test checks true optimality relations, which the quantized
        // DP is (documented to be) allowed to miss.
        let jobs = covered(&result);
        let mut exact = IncrementalOptimizer::new();
        let ta = exact.pareto_min_time_under_budget(&jobs, budget).unwrap();
        let ca = exact
            .pareto_min_cost_under_time(&jobs, result.quota)
            .unwrap();
        // Same alternatives → cost-min's cost is the floor among
        // quota-feasible combos.
        if ta.total_time() <= result.quota {
            assert!(ca.total_cost() <= ta.total_cost(), "seed {seed}");
        }
        // And if the cost-min combo also fits the budget, time-min's time
        // is the floor.
        if ca.total_cost() <= budget {
            assert!(ta.total_time() <= ca.total_time(), "seed {seed}");
        }
    }
}

#[test]
fn pareto_and_dp_optimizers_agree_end_to_end() {
    for seed in 0..12 {
        let (list, batch) = generate(seed);
        let dp = run_iteration(
            Amp::new(),
            &list,
            &batch,
            &IterationConfig {
                criterion: Criterion::MinCostUnderTime,
            },
        )
        .unwrap();
        let pareto =
            IncrementalOptimizer::new().pareto_min_cost_under_time(&covered(&dp), dp.quota);
        // Cost-min is exact in both solvers (time is integral).
        match (&dp.assignment, &pareto) {
            (Some(a), Ok(b)) => assert_eq!(a.total_cost(), b.total_cost(), "seed {seed}"),
            (None, Err(_)) => {}
            other => panic!("seed {seed}: solvers disagree on feasibility: {other:?}"),
        }
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let (list, batch) = generate(99);
    let config = IterationConfig::default();
    let a = run_iteration(Amp::new(), &list, &batch, &config).unwrap();
    let b = run_iteration(Amp::new(), &list, &batch, &config).unwrap();
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.quota, b.quota);
    assert_eq!(a.budget, b.budget);
    assert_eq!(
        a.search.alternatives.total_found(),
        b.search.alternatives.total_found()
    );
}

#[test]
fn remaining_list_is_consistent_after_search() {
    for seed in 0..10 {
        let (list, batch) = generate(seed);
        let outcome = find_alternatives(Amp::new(), &list, &batch).unwrap();
        outcome.remaining.validate().unwrap();
        let used: TimeDelta = outcome
            .alternatives
            .per_job()
            .iter()
            .flat_map(|ja| ja.iter())
            .flat_map(|alt| alt.window().slots().iter().map(|ws| ws.runtime()))
            .sum();
        assert_eq!(
            outcome.remaining.total_vacant_time() + used,
            list.total_vacant_time(),
            "seed {seed}: vacancy not conserved"
        );
    }
}
