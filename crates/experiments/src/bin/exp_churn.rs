//! E14 — the churn sweep: ALP vs AMP on the discrete-event engine under
//! mid-cycle slot revocation, with three-tier repair (failover → bounded
//! repair search → postpone).
//!
//! Usage: `exp_churn [--runs N] [--cycles C]`.

use ecosched_experiments::arg_value;
use ecosched_experiments::churn::{churn_table, run_churn_sweep, ChurnConfig};

fn main() {
    ecosched_experiments::reject_unknown_flags(&["--runs", "--cycles"]);
    let config = ChurnConfig {
        runs: arg_value("--runs").unwrap_or(40),
        cycles: arg_value("--cycles").map_or(8, |c: u64| c as usize),
        ..ChurnConfig::default()
    };
    eprintln!(
        "sweeping per-slot revocation over {:?} ({} runs × {} cycles each)…",
        config.levels, config.runs, config.cycles
    );
    let points = run_churn_sweep(&config);
    println!("E14 — economic scheduling under churn (engine, mid-cycle strikes)\n");
    println!("{}", churn_table(&points).render());
}
