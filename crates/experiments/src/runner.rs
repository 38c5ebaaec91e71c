//! The paired-experiment runner shared by the Fig. 4/5/6 reproductions.
//!
//! Each simulated scheduling iteration draws one slot list and one batch
//! (from the paper's generators), then runs the *same* inputs through both
//! ALP and AMP, exactly as the study prescribes ("the alternatives search
//! is performed on the same set of available vacant system slots").
//! Following Sec. 5, an iteration is *counted* only when both algorithms
//! found at least one alternative for every batch job.

use ecosched_core::{Batch, SlotList};
use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::{
    run_iteration, Criterion, IterationConfig, JobGenConfig, JobGenerator, RunningStats,
    SlotGenConfig, SlotGenerator,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a paired experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of simulated scheduling iterations (the paper used 25 000).
    pub iterations: u64,
    /// Base RNG seed; iteration `i` uses `seed_offset + i`.
    pub seed_offset: u64,
    /// Slot-list generator parameters.
    pub slot_config: SlotGenConfig,
    /// Batch generator parameters.
    pub job_config: JobGenConfig,
    /// The VO criterion to optimize per iteration.
    pub criterion: Criterion,
    /// AMP budget discount ρ (1.0 = the paper's main experiments).
    pub rho: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            iterations: 25_000,
            seed_offset: 0,
            slot_config: SlotGenConfig::default(),
            job_config: JobGenConfig::default(),
            criterion: Criterion::MinTimeUnderBudget,
            rho: 1.0,
        }
    }
}

/// Per-algorithm outcome of one iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AlgoSeedResult {
    /// Every batch job got at least one alternative.
    pub covered: bool,
    /// Mean per-job execution time of the optimized assignment.
    pub avg_time: f64,
    /// Mean per-job execution cost of the optimized assignment.
    pub avg_cost: f64,
    /// Alternatives found across all batch jobs.
    pub alternatives: u64,
}

/// One iteration's full outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedOutcome {
    /// The iteration's seed index (0-based).
    pub index: u64,
    /// Slots in the generated list.
    pub slots: usize,
    /// Jobs in the generated batch.
    pub jobs: usize,
    /// ALP's result.
    pub alp: AlgoSeedResult,
    /// AMP's result.
    pub amp: AlgoSeedResult,
}

impl SeedOutcome {
    /// The paper's inclusion criterion: both algorithms covered every job.
    #[must_use]
    pub fn counted(&self) -> bool {
        self.alp.covered && self.amp.covered
    }
}

/// Aggregated results for one algorithm over the counted iterations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlgoAggregate {
    /// Mean-per-iteration job execution time, aggregated over counted
    /// iterations (Fig. 4 (a) / Fig. 6 (b)).
    pub job_time: RunningStats,
    /// Mean-per-iteration job execution cost (Fig. 4 (b) / Fig. 6 (a)).
    pub job_cost: RunningStats,
    /// Total alternatives found over counted iterations.
    pub alternatives: u64,
    /// Total jobs over counted iterations.
    pub jobs: u64,
}

impl AlgoAggregate {
    /// Mean alternatives per job — the paper's 7.39 (ALP) vs 34.28 (AMP)
    /// statistic.
    #[must_use]
    pub fn alternatives_per_job(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.alternatives as f64 / self.jobs as f64
        }
    }
}

/// The aggregated outcome of a paired experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PairedOutcome {
    /// Iterations simulated.
    pub total_iterations: u64,
    /// Iterations counted (both algorithms covered all jobs).
    pub counted_iterations: u64,
    /// ALP aggregates.
    pub alp: AlgoAggregate,
    /// AMP aggregates.
    pub amp: AlgoAggregate,
    /// Mean slot-list size over counted iterations (paper: 135.11).
    pub slots: RunningStats,
    /// Mean batch size over counted iterations (paper: 4.18).
    pub jobs: RunningStats,
    /// Per-iteration series of counted experiments, for Fig. 5.
    pub series: Vec<SeedOutcome>,
    /// How many counted iterations to retain in `series`.
    pub series_limit: usize,
}

/// Runs one iteration for one algorithm, returning `None` for the rare
/// iteration where an optimizer invariant fails (counted as uncovered).
fn run_algo(
    selector: impl SlotSelector,
    list: &SlotList,
    batch: &Batch,
    config: &IterationConfig,
) -> AlgoSeedResult {
    match run_iteration(selector, list, batch, config) {
        Ok(result) => {
            let (avg_time, avg_cost) = result
                .assignment
                .as_ref()
                .map_or((0.0, 0.0), |a| (a.avg_time(), a.avg_cost()));
            AlgoSeedResult {
                covered: result.all_covered(),
                avg_time,
                avg_cost,
                alternatives: result.search.alternatives.total_found() as u64,
            }
        }
        Err(_) => AlgoSeedResult::default(),
    }
}

/// Runs a single seeded iteration through both algorithms.
#[must_use]
pub fn run_seed(config: &ExperimentConfig, index: u64) -> SeedOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed_offset + index);
    let list = SlotGenerator::new(config.slot_config).generate(&mut rng);
    let batch = JobGenerator::new(config.job_config).generate(&mut rng);
    let iteration_config = IterationConfig {
        criterion: config.criterion,
    };
    let amp = if config.rho >= 1.0 {
        Amp::new()
    } else {
        Amp::with_rho(config.rho)
    };
    SeedOutcome {
        index,
        slots: list.len(),
        jobs: batch.len(),
        alp: run_algo(Alp::new(), &list, &batch, &iteration_config),
        amp: run_algo(amp, &list, &batch, &iteration_config),
    }
}

/// Runs the full paired experiment, parallelized over iterations on one
/// worker per available core.
///
/// Deterministic for a given config: iteration `i` always uses seed
/// `seed_offset + i`, and outcomes are folded in iteration order, so the
/// result does not depend on the core count.
#[must_use]
pub fn run_paired(config: &ExperimentConfig, series_limit: usize) -> PairedOutcome {
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let n = config.iterations;
    let chunk = n.div_ceil(threads as u64).max(1);

    let outcomes: Vec<SeedOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk as usize)
            .map(|start| {
                let end = (start + chunk).min(n);
                scope.spawn(move || {
                    (start..end)
                        .map(|i| run_seed(config, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    fold(n, outcomes, series_limit)
}

/// Aggregates `total_iterations` iteration outcomes, in iteration order.
fn fold(
    total_iterations: u64,
    outcomes: impl IntoIterator<Item = SeedOutcome>,
    series_limit: usize,
) -> PairedOutcome {
    let mut result = PairedOutcome {
        total_iterations,
        series_limit,
        ..PairedOutcome::default()
    };
    for outcome in outcomes {
        if !outcome.counted() {
            continue;
        }
        result.counted_iterations += 1;
        result.slots.push(outcome.slots as f64);
        result.jobs.push(outcome.jobs as f64);
        for (agg, algo) in [
            (&mut result.alp, &outcome.alp),
            (&mut result.amp, &outcome.amp),
        ] {
            agg.job_time.push(algo.avg_time);
            agg.job_cost.push(algo.avg_cost);
            agg.alternatives += algo.alternatives;
            agg.jobs += outcome.jobs as u64;
        }
        if result.series.len() < series_limit {
            result.series.push(outcome);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(criterion: Criterion) -> ExperimentConfig {
        ExperimentConfig {
            iterations: 60,
            criterion,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn run_seed_is_deterministic() {
        let config = small_config(Criterion::MinTimeUnderBudget);
        assert_eq!(run_seed(&config, 5), run_seed(&config, 5));
        assert_ne!(run_seed(&config, 5), run_seed(&config, 6));
    }

    #[test]
    fn paired_run_counts_subset() {
        let config = small_config(Criterion::MinTimeUnderBudget);
        let outcome = run_paired(&config, 10);
        assert_eq!(outcome.total_iterations, 60);
        assert!(outcome.counted_iterations > 0, "no iteration counted");
        assert!(outcome.counted_iterations <= 60);
        assert!(outcome.series.len() <= 10);
        assert!(outcome.series.iter().all(SeedOutcome::counted));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut config = small_config(Criterion::MinTimeUnderBudget);
        config.iterations = 24;
        let serial = fold(24, (0..24).map(|i| run_seed(&config, i)), 5);
        assert_eq!(run_paired(&config, 5), serial);
    }

    #[test]
    fn amp_covers_whenever_alp_does() {
        // Sec. 6: any ALP window is AMP-feasible, so ALP-covered implies
        // AMP-covered on the same inputs.
        let config = small_config(Criterion::MinTimeUnderBudget);
        for i in 0..40 {
            let outcome = run_seed(&config, i);
            if outcome.alp.covered {
                assert!(outcome.amp.covered, "iteration {i}");
            }
            if outcome.counted() {
                assert!(outcome.amp.alternatives >= outcome.alp.alternatives);
            }
        }
    }

    #[test]
    fn cost_criterion_also_runs() {
        let config = small_config(Criterion::MinCostUnderTime);
        let outcome = run_paired(&config, 0);
        assert!(outcome.counted_iterations > 0);
        assert!(outcome.alp.job_cost.mean() > 0.0);
        assert!(outcome.amp.job_cost.mean() > 0.0);
    }
}
