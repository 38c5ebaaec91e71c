//! E10 — supply-and-demand pricing (the paper's Sec. 7 future work): a
//! persistent environment whose owners adjust prices between cycles.
//!
//! Usage: `exp_market [--cycles N] [--seed S]`.

use ecosched_experiments::arg_value;
use ecosched_experiments::extensions::{market_table, run_market};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--cycles", "--seed"]);
    let cycles: usize = arg_value("--cycles").unwrap_or(20);
    let seed: u64 = arg_value("--seed").unwrap_or(2011);
    eprintln!("running the resource market for {cycles} cycles…");
    let reports = run_market(cycles, seed);
    println!(
        "Sec. 7 extension — supply-and-demand pricing\n\
         (multiplier 1.0 = the base Sec. 5 price model; fast = rate ≥ 2.0)\n"
    );
    println!("{}", market_table(&reports).render());
}
