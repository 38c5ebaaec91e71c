//! E4 — the Fig. 6 cost-minimization experiment:
//! `min C(s̄)` subject to `T(s̄) ≤ T*` over paired ALP/AMP iterations.
//!
//! Usage: `exp_cost_min [--iterations N] [--csv DIR]`.

use ecosched_experiments::figures::{
    comparison_table, environment_table, ratio_table, FIG6_TARGETS,
};
use ecosched_experiments::{arg_value, run_paired, ExperimentConfig};
use ecosched_sim::Criterion;

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations", "--csv"]);
    let config = ExperimentConfig {
        iterations: arg_value("--iterations").unwrap_or(25_000),
        criterion: Criterion::MinCostUnderTime,
        ..ExperimentConfig::default()
    };

    eprintln!("running {} paired iterations…", config.iterations);
    let outcome = run_paired(&config, 0);

    println!("{}\n", FIG6_TARGETS.title);
    println!("{}", comparison_table(&outcome, &FIG6_TARGETS).render());
    println!("{}", ratio_table(&outcome, &FIG6_TARGETS).render());
    println!("{}", environment_table(&outcome).render());

    if let Some(dir) = arg_value::<String>("--csv") {
        std::fs::create_dir_all(&dir).expect("create csv output directory");
        comparison_table(&outcome, &FIG6_TARGETS)
            .write_csv(format!("{dir}/fig6_comparison.csv"))
            .expect("write fig6 csv");
        eprintln!("wrote {dir}/fig6_comparison.csv");
    }
}
