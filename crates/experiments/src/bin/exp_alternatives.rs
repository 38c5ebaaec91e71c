//! E5 — the Sec. 5 prose statistics: alternatives found per job, average
//! slot-list size, and average batch size, under both criteria.
//!
//! Usage: `exp_alternatives [--iterations N]`.

use ecosched_experiments::report::{f2, Table};
use ecosched_experiments::{arg_value, run_paired, ExperimentConfig};
use ecosched_sim::Criterion;

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations"]);
    let iterations: u64 = arg_value("--iterations").unwrap_or(25_000);

    let mut table = Table::new(&[
        "experiment",
        "alp_alts/job",
        "amp_alts/job",
        "paper_alp",
        "paper_amp",
        "avg_slots",
        "avg_jobs",
    ]);
    for (name, criterion, paper_alp, paper_amp) in [
        (
            "time minimization",
            Criterion::MinTimeUnderBudget,
            7.39,
            34.28,
        ),
        (
            "cost minimization",
            Criterion::MinCostUnderTime,
            7.28,
            34.23,
        ),
    ] {
        let config = ExperimentConfig {
            iterations,
            criterion,
            ..ExperimentConfig::default()
        };
        eprintln!("running {name} ({iterations} iterations)…");
        let outcome = run_paired(&config, 0);
        table.row(&[
            name.to_string(),
            f2(outcome.alp.alternatives_per_job()),
            f2(outcome.amp.alternatives_per_job()),
            f2(paper_alp),
            f2(paper_amp),
            f2(outcome.slots.mean()),
            f2(outcome.jobs.mean()),
        ]);
    }
    println!("Sec. 5 prose statistics (paper: slots 135.11, jobs 4.18)\n");
    println!("{}", table.render());
}
