//! E11 — multi-version scheduling strategies (the paper's Sec. 7 future
//! work after refs [13, 14]): survival under random node failures as a
//! function of the number of held versions.
//!
//! Usage: `exp_strategy [--iterations N] [--failures F]`.

use ecosched_experiments::arg_value;
use ecosched_experiments::extensions::{run_strategy_survival, strategy_table};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--iterations", "--failures"]);
    let iterations: u64 = arg_value("--iterations").unwrap_or(500);
    let failures: usize = arg_value("--failures").unwrap_or(1);
    eprintln!(
        "building strategies over {iterations} workloads, failing {failures} node(s) per trial…"
    );
    let rows = run_strategy_survival(iterations, &[1, 2, 3, 4], failures, 0);
    println!(
        "Sec. 7 extension — scheduling strategies (sets of versions)\n\
         ({failures} random used node(s) fail between planning and execution)\n"
    );
    println!("{}", strategy_table(&rows).render());
}
