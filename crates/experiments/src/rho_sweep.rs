//! The ρ ablation (experiment E6): Sec. 6 proposes discounting the AMP
//! budget to `S = ρ·C·t·N` to trade execution time back for cost.

use crate::report::{f2, Table};
use crate::runner::{run_paired, ExperimentConfig, PairedOutcome};

/// One ρ level's aggregated outcome.
#[derive(Debug, Clone)]
pub struct RhoPoint {
    /// The budget discount factor.
    pub rho: f64,
    /// The paired outcome at this ρ.
    pub outcome: PairedOutcome,
}

/// Runs the sweep: the same experiment at each ρ (AMP's budget shrinks;
/// ALP is unaffected by ρ and serves as the fixed reference).
#[must_use]
pub fn run_rho_sweep(base: &ExperimentConfig, rhos: &[f64]) -> Vec<RhoPoint> {
    rhos.iter()
        .map(|&rho| {
            let config = ExperimentConfig { rho, ..*base };
            RhoPoint {
                rho,
                outcome: run_paired(&config, 0),
            }
        })
        .collect()
}

/// Renders the sweep as a table.
#[must_use]
pub fn sweep_table(points: &[RhoPoint]) -> Table {
    let mut table = Table::new(&[
        "rho",
        "counted",
        "amp_avg_time",
        "amp_avg_cost",
        "amp_alts/job",
        "alp_avg_time",
        "alp_avg_cost",
    ]);
    for p in points {
        table.row(&[
            format!("{:.2}", p.rho),
            format!(
                "{}/{}",
                p.outcome.counted_iterations, p.outcome.total_iterations
            ),
            f2(p.outcome.amp.job_time.mean()),
            f2(p.outcome.amp.job_cost.mean()),
            f2(p.outcome.amp.alternatives_per_job()),
            f2(p.outcome.alp.job_time.mean()),
            f2(p.outcome.alp.job_cost.mean()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_sim::Criterion;

    #[test]
    fn smaller_rho_reduces_amp_cost() {
        let base = ExperimentConfig {
            iterations: 250,
            criterion: Criterion::MinTimeUnderBudget,
            ..ExperimentConfig::default()
        };
        let points = run_rho_sweep(&base, &[0.7, 1.0]);
        assert_eq!(points.len(), 2);
        let tight = &points[0].outcome;
        let full = &points[1].outcome;
        assert!(tight.counted_iterations > 0);
        // Sec. 6's claim: reducing the budget limit reduces batch cost…
        assert!(
            tight.amp.job_cost.mean() < full.amp.job_cost.mean(),
            "ρ=0.7 cost {} !< ρ=1.0 cost {}",
            tight.amp.job_cost.mean(),
            full.amp.job_cost.mean()
        );
        // …and can only reduce the alternatives AMP finds.
        assert!(tight.amp.alternatives_per_job() <= full.amp.alternatives_per_job());
    }

    #[test]
    fn table_has_one_row_per_rho() {
        let base = ExperimentConfig {
            iterations: 40,
            ..ExperimentConfig::default()
        };
        let points = run_rho_sweep(&base, &[0.8, 0.9, 1.0]);
        let table = sweep_table(&points);
        assert_eq!(table.render().lines().count(), 2 + 3);
    }
}
