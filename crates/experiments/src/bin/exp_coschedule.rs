//! E9 — batch-at-once co-scheduling (the paper's Sec. 7 future work) vs
//! the sequential per-job search, on generated workloads.
//!
//! Usage: `exp_coschedule [--iterations N]`.

use ecosched_experiments::arg_value;
use ecosched_experiments::extensions::{coschedule_table, run_coschedule_comparison};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations"]);
    let iterations: u64 = arg_value("--iterations").unwrap_or(2_000);
    eprintln!("comparing sequential vs co-scheduled search over {iterations} iterations…");
    let outcome = run_coschedule_comparison(iterations, 0);
    println!(
        "Sec. 7 extension — slot selection for the whole batch at once\n\
         (windows committed in global earliest-start order)\n"
    );
    println!("{}", coschedule_table(&outcome).render());
}
