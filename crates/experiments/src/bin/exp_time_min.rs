//! E2/E3 — the Fig. 4 + Fig. 5 time-minimization experiment:
//! `min T(s̄)` subject to `C(s̄) ≤ B*` over paired ALP/AMP iterations.
//!
//! Usage: `exp_time_min [--iterations N] [--series K] [--csv DIR]`
//! (paper defaults: 25 000 iterations, 300-experiment series).

use ecosched_experiments::figures::{
    comparison_table, environment_table, ratio_table, series_table, FIG4_TARGETS,
};
use ecosched_experiments::{arg_value, run_paired, ExperimentConfig};
use ecosched_sim::Criterion;

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations", "--series", "--csv"]);
    let config = ExperimentConfig {
        iterations: arg_value("--iterations").unwrap_or(25_000),
        criterion: Criterion::MinTimeUnderBudget,
        ..ExperimentConfig::default()
    };
    let series_limit: usize = arg_value("--series").unwrap_or(300);

    eprintln!(
        "running {} iterations (paired counted only when both algorithms cover every job)…",
        config.iterations,
    );
    let outcome = run_paired(&config, series_limit);

    println!("{}\n", FIG4_TARGETS.title);
    println!("{}", comparison_table(&outcome, &FIG4_TARGETS).render());
    println!("{}", ratio_table(&outcome, &FIG4_TARGETS).render());
    println!("{}", environment_table(&outcome).render());

    if let Some(dir) = arg_value::<String>("--csv") {
        std::fs::create_dir_all(&dir).expect("create csv output directory");
        comparison_table(&outcome, &FIG4_TARGETS)
            .write_csv(format!("{dir}/fig4_comparison.csv"))
            .expect("write fig4 csv");
        series_table(&outcome)
            .write_csv(format!("{dir}/fig5_series.csv"))
            .expect("write fig5 csv");
        eprintln!("wrote {dir}/fig4_comparison.csv and {dir}/fig5_series.csv");
    } else {
        println!(
            "Fig. 5 series (first {} counted experiments) — pass --csv DIR for the full table",
            outcome.series.len()
        );
        let preview = series_table(&outcome);
        for line in preview.render().lines().take(12) {
            println!("{line}");
        }
    }
}
