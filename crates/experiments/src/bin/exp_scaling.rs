//! E7 — the complexity experiment: slots examined and wall time for
//! ALP/AMP (linear) vs the backfill-style window search (quadratic) as the
//! slot-list size m grows.
//!
//! Usage: `exp_scaling [--max M]` (sizes double from 250 up to M,
//! default 16 000).

use ecosched_experiments::arg_value;
use ecosched_experiments::scaling::{run_scaling, scaling_table};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--max"]);
    let max: usize = arg_value("--max").unwrap_or(16_000);
    let mut sizes = vec![];
    let mut m = 250;
    while m <= max {
        sizes.push(m);
        m *= 2;
    }
    eprintln!("measuring worst-case window searches at m = {sizes:?}…");
    let points = run_scaling(&sizes, 2011);
    println!("Sec. 3 complexity claim — O(m) ALP/AMP vs O(m²) backfill\n");
    println!("{}", scaling_table(&points).render());
    if let Some(last) = points.last() {
        let ratio = last.backfill.slots_examined as f64 / last.alp.slots_examined as f64;
        println!(
            "\nat m = {}: backfill examines {ratio:.0}× more slots than ALP/AMP",
            last.m
        );
    }
}
