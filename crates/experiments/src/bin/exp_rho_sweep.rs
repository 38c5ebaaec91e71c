//! E6 — the Sec. 6 ρ ablation: AMP with the discounted budget
//! `S = ρ·C·t·N`, swept over ρ, under the time-minimization criterion.
//!
//! Usage: `exp_rho_sweep [--iterations N]`.

use ecosched_experiments::rho_sweep::{run_rho_sweep, sweep_table};
use ecosched_experiments::{arg_value, ExperimentConfig};
use ecosched_sim::Criterion;

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations"]);
    let base = ExperimentConfig {
        iterations: arg_value("--iterations").unwrap_or(5_000),
        criterion: Criterion::MinTimeUnderBudget,
        ..ExperimentConfig::default()
    };
    let rhos = [0.6, 0.7, 0.8, 0.9, 1.0];
    eprintln!(
        "sweeping rho over {rhos:?} ({} iterations each)…",
        base.iterations
    );
    let points = run_rho_sweep(&base, &rhos);
    println!("Sec. 6 — AMP with S = ρ·C·t·N (ALP columns are the ρ-independent reference)\n");
    println!("{}", sweep_table(&points).render());
}
