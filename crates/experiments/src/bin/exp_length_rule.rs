//! E8 — the DESIGN.md R1 ablation: corrected vs paper-literal condition
//! 2°b over generated workloads.
//!
//! Usage: `exp_length_rule [--iterations N]`.

use ecosched_experiments::ablation::{ablation_table, run_ablation};
use ecosched_experiments::arg_value;

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations"]);
    let iterations: u64 = arg_value("--iterations").unwrap_or(2_000);
    eprintln!("running the length-rule ablation over {iterations} iterations…");
    let outcome = run_ablation(iterations, 0);
    println!(
        "R1 ablation — corrected rule (runtime = t/P, etalon semantics) vs the\n\
         paper's literal inequality (L ≥ t·P(s)/P, faster nodes need longer slots)\n"
    );
    println!("{}", ablation_table(&outcome).render());
}
