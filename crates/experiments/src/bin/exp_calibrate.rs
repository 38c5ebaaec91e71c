//! Calibration helper for the R3 budget-factor knob (DESIGN.md): runs a
//! short paired experiment at a given budget-factor midpoint and prints
//! the headline statistics, so the default can be re-derived if the other
//! distributions ever change.
//!
//! Usage: `exp_calibrate [--iterations N] [--factor MID]`.

use ecosched_experiments::{arg_value, run_paired, ExperimentConfig};
use ecosched_sim::{Criterion, RealRange};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations", "--factor"]);
    let mut config = ExperimentConfig {
        iterations: arg_value("--iterations").unwrap_or(500),
        ..ExperimentConfig::default()
    };
    if let Some(mid) = arg_value::<f64>("--factor") {
        config.job_config.budget_factor = RealRange::new(mid - 0.25, mid + 0.25);
    }
    for (name, criterion) in [
        ("time-min", Criterion::MinTimeUnderBudget),
        ("cost-min", Criterion::MinCostUnderTime),
    ] {
        config.criterion = criterion;
        let o = run_paired(&config, 0);
        println!(
            "== {name}: counted {}/{} (slots {:.1}, jobs {:.2})",
            o.counted_iterations,
            o.total_iterations,
            o.slots.mean(),
            o.jobs.mean()
        );
        println!(
            "  ALP time {:8.2}  cost {:8.2}  alts/job {:6.2}",
            o.alp.job_time.mean(),
            o.alp.job_cost.mean(),
            o.alp.alternatives_per_job()
        );
        println!(
            "  AMP time {:8.2}  cost {:8.2}  alts/job {:6.2}",
            o.amp.job_time.mean(),
            o.amp.job_cost.mean(),
            o.amp.alternatives_per_job()
        );
    }
}
