//! E13 — quantifying the paper's flexibility claim: the Pareto frontier
//! of (cost, time) trade-offs the VO can choose from, for ALP vs AMP
//! alternative sets on identical inputs.
//!
//! Usage: `exp_flexibility [--iterations N]`.

use ecosched_experiments::arg_value;
use ecosched_experiments::flexibility::{flexibility_table, run_flexibility};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations"]);
    let iterations: u64 = arg_value("--iterations").unwrap_or(2_000);
    eprintln!("measuring combination frontiers over {iterations} iterations…");
    let outcome = run_flexibility(iterations, 0);
    println!(
        "Flexibility of the combination choice (Sec. 5/6 claims, quantified)\n\
         counted {}/{} iterations\n",
        outcome.counted, outcome.total
    );
    println!("{}", flexibility_table(&outcome).render());
}
