//! Experiments for the paper's Sec. 7 future-work features, implemented in
//! this repository as extensions:
//!
//! * E9 — batch-at-once co-scheduling vs the sequential search;
//! * E10 — supply-and-demand pricing dynamics;
//! * E11 — multi-version scheduling strategies under node failures.

use std::collections::BTreeSet;

use ecosched_core::{JobAlternatives, NodeId};
use ecosched_select::{find_alternatives, find_alternatives_coscheduled, Amp, SearchOutcome};
use ecosched_sim::{
    JobGenConfig, JobGenerator, MarketCycleReport, MarketSimulation, RunningStats,
    ScheduleStrategy, SlotGenConfig, SlotGenerator,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{f2, Table};

/// Aggregates for one search mode in the co-scheduling comparison.
#[derive(Debug, Clone, Default)]
pub struct CoscheduleAggregate {
    /// Iterations where every job was covered.
    pub covered_iterations: u64,
    /// Jobs covered in total.
    pub jobs_covered: u64,
    /// Mean start time of each job's *first* alternative.
    pub first_start: RunningStats,
    /// Total alternatives found.
    pub alternatives: u64,
}

/// The co-scheduling comparison outcome.
#[derive(Debug, Clone, Default)]
pub struct CoscheduleOutcome {
    /// Iterations simulated.
    pub iterations: u64,
    /// The sequential (paper) search.
    pub sequential: CoscheduleAggregate,
    /// The batch-at-once search.
    pub coscheduled: CoscheduleAggregate,
}

fn record_cos(agg: &mut CoscheduleAggregate, outcome: &SearchOutcome) {
    if outcome.alternatives.all_jobs_covered() {
        agg.covered_iterations += 1;
    }
    agg.alternatives += outcome.alternatives.total_found() as u64;
    for ja in outcome.alternatives.per_job() {
        if let Some(first) = ja.alternatives().first() {
            agg.jobs_covered += 1;
            agg.first_start.push(first.window().start().ticks() as f64);
        }
    }
}

/// E9: runs both searches over `iterations` generated workloads.
#[must_use]
pub fn run_coschedule_comparison(iterations: u64, seed_offset: u64) -> CoscheduleOutcome {
    let slot_gen = SlotGenerator::new(SlotGenConfig::default());
    let job_gen = JobGenerator::new(JobGenConfig::default());
    let mut outcome = CoscheduleOutcome {
        iterations,
        ..CoscheduleOutcome::default()
    };
    for i in 0..iterations {
        let mut rng = ChaCha8Rng::seed_from_u64(seed_offset + i);
        let list = slot_gen.generate(&mut rng);
        let batch = job_gen.generate(&mut rng);
        let seq = find_alternatives(Amp::new(), &list, &batch).expect("search never fails");
        let cos =
            find_alternatives_coscheduled(Amp::new(), &list, &batch).expect("search never fails");
        record_cos(&mut outcome.sequential, &seq);
        record_cos(&mut outcome.coscheduled, &cos);
    }
    outcome
}

/// Renders E9 as a table.
#[must_use]
pub fn coschedule_table(outcome: &CoscheduleOutcome) -> Table {
    let mut table = Table::new(&[
        "search",
        "covered iters",
        "jobs covered",
        "mean first start",
        "alternatives",
    ]);
    for (name, agg) in [
        ("sequential", &outcome.sequential),
        ("co-scheduled", &outcome.coscheduled),
    ] {
        table.row(&[
            name.to_string(),
            format!("{}/{}", agg.covered_iterations, outcome.iterations),
            agg.jobs_covered.to_string(),
            f2(agg.first_start.mean()),
            agg.alternatives.to_string(),
        ]);
    }
    table
}

/// E10: runs a market for `cycles` cycles and returns the trajectory.
#[must_use]
pub fn run_market(cycles: usize, seed: u64) -> Vec<MarketCycleReport> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut market = MarketSimulation::generate(&mut rng);
    market
        .run(Amp::new(), cycles, &mut rng)
        .expect("market cycles never fail")
}

/// Renders E10 as a table.
#[must_use]
pub fn market_table(reports: &[MarketCycleReport]) -> Table {
    let mut table = Table::new(&[
        "cycle",
        "scheduled",
        "revenue",
        "mean mult",
        "fast mult",
        "slow mult",
    ]);
    for (i, r) in reports.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            format!("{}/{}", r.scheduled, r.batch_size),
            f2(r.revenue.to_f64()),
            f2(r.mean_multiplier),
            f2(r.fast_multiplier),
            f2(r.slow_multiplier),
        ]);
    }
    table
}

/// E11: survival statistics for strategies of `k` versions under random
/// node failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrategySurvival {
    /// Versions requested.
    pub k: usize,
    /// Mean versions actually built.
    pub mean_versions: f64,
    /// Trials where some version survived the failure set.
    pub survived: u64,
    /// Total failure trials.
    pub trials: u64,
}

impl StrategySurvival {
    /// Survival rate in `[0, 1]`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.survived as f64 / self.trials as f64
        }
    }
}

/// E11: over generated workloads, build a k-version strategy and hit it
/// with `failures_per_trial` random failed nodes, for each k in `ks`.
#[must_use]
pub fn run_strategy_survival(
    iterations: u64,
    ks: &[usize],
    failures_per_trial: usize,
    seed_offset: u64,
) -> Vec<StrategySurvival> {
    let slot_gen = SlotGenerator::new(SlotGenConfig::default());
    let job_gen = JobGenerator::new(JobGenConfig::default());
    ks.iter()
        .map(|&k| {
            let mut survival = StrategySurvival {
                k,
                ..StrategySurvival::default()
            };
            let mut versions_sum = 0usize;
            let mut built = 0u64;
            for i in 0..iterations {
                let mut rng = ChaCha8Rng::seed_from_u64(seed_offset + i);
                let list = slot_gen.generate(&mut rng);
                let batch = job_gen.generate(&mut rng);
                let outcome =
                    find_alternatives(Amp::new(), &list, &batch).expect("search never fails");
                let covered: Vec<JobAlternatives> = outcome
                    .alternatives
                    .per_job()
                    .iter()
                    .filter(|ja| !ja.is_empty())
                    .cloned()
                    .collect();
                if covered.is_empty() {
                    continue;
                }
                let Ok(strategy) = ScheduleStrategy::build(&covered, k) else {
                    continue;
                };
                built += 1;
                versions_sum += strategy.len();
                // Fail random nodes among those the alternatives touch.
                let mut touched: Vec<NodeId> = covered
                    .iter()
                    .flat_map(|ja| ja.iter())
                    .flat_map(|a| a.window().slots().iter().map(|ws| ws.node()))
                    .collect();
                touched.sort();
                touched.dedup();
                touched.shuffle(&mut rng);
                let failed: BTreeSet<NodeId> =
                    touched.into_iter().take(failures_per_trial).collect();
                survival.trials += 1;
                if strategy.select(&failed).is_some() {
                    survival.survived += 1;
                }
            }
            survival.mean_versions = if built == 0 {
                0.0
            } else {
                versions_sum as f64 / built as f64
            };
            survival
        })
        .collect()
}

/// Renders E11 as a table.
#[must_use]
pub fn strategy_table(rows: &[StrategySurvival]) -> Table {
    let mut table = Table::new(&["k", "mean versions", "survived", "survival rate"]);
    for r in rows {
        table.row(&[
            r.k.to_string(),
            f2(r.mean_versions),
            format!("{}/{}", r.survived, r.trials),
            format!("{:.1}%", r.rate() * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coschedule_covers_no_fewer_jobs() {
        let outcome = run_coschedule_comparison(40, 0);
        assert!(outcome.coscheduled.jobs_covered >= outcome.sequential.jobs_covered);
        assert!(outcome.coscheduled.covered_iterations >= outcome.sequential.covered_iterations);
    }

    #[test]
    fn market_trajectory_has_requested_length() {
        let reports = run_market(6, 1);
        assert_eq!(reports.len(), 6);
        assert_eq!(market_table(&reports).render().lines().count(), 2 + 6);
    }

    #[test]
    fn more_versions_survive_more_failures() {
        let rows = run_strategy_survival(30, &[1, 3], 1, 0);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].trials > 0);
        assert!(
            rows[1].rate() >= rows[0].rate(),
            "k=3 rate {} < k=1 rate {}",
            rows[1].rate(),
            rows[0].rate()
        );
        // A single-version strategy dies whenever its own node fails — but
        // only if the failed node is among the version's nodes; rates are
        // strictly below 1 for k=1 in practice.
        assert!(rows[0].rate() < 1.0);
    }

    #[test]
    fn tables_render() {
        let outcome = run_coschedule_comparison(5, 0);
        assert!(coschedule_table(&outcome).render().contains("sequential"));
        let rows = run_strategy_survival(5, &[2], 1, 0);
        assert!(strategy_table(&rows).render().contains("survival"));
    }
}
