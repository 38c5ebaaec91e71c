//! Reproduction harness for Toporkov et al. (PaCT 2011).
//!
//! One module (and one binary) per table/figure of the paper — the
//! experiment index lives in DESIGN.md §5, and EXPERIMENTS.md records
//! paper-vs-measured values:
//!
//! | Experiment | Module | Binary |
//! |------------|--------|--------|
//! | E1 — Fig. 2–3 worked example | [`paper_example`] | `fig2_3_example` |
//! | E2/E3 — Fig. 4 + Fig. 5 time minimization | [`runner`] + [`figures`] | `exp_time_min` |
//! | E4 — Fig. 6 cost minimization | [`runner`] + [`figures`] | `exp_cost_min` |
//! | E5 — alternative counts / environment prose | [`figures`] | `exp_alternatives` |
//! | E6 — ρ budget-discount ablation | [`rho_sweep`] | `exp_rho_sweep` |
//! | E7 — O(m) vs O(m²) scaling | [`scaling`] | `exp_scaling` |
//! | E8 — condition-2°b length-rule ablation | [`ablation`] | `exp_length_rule` |
//! | E9 — batch-at-once co-scheduling | [`extensions`] | `exp_coschedule` |
//! | E10 — supply-and-demand pricing | [`extensions`] | `exp_market` |
//! | E11 — multi-version strategies vs failures | [`extensions`] | `exp_strategy` |
//! | E12 — generator-vs-environment validation | `ecosched_sim::analysis` | `exp_env_validation` |
//! | E13 — flexibility claim, quantified | [`flexibility`] | `exp_flexibility` |
//! | E14 — ALP vs AMP under slot revocation | [`churn`] | `exp_churn` |
//! | E15 — online load on the discrete-event engine | [`online`] | `exp_online` |
//! | E16 — SWF workload-trace replay | [`trace`] | `exp_online --trace` |
//! | E18 — sharded federation sweep | [`federation`] | `exp_federation` |
//!
//! # Example
//!
//! Reproduce a scaled-down Fig. 4 programmatically:
//!
//! ```
//! use ecosched_experiments::figures::{comparison_table, FIG4_TARGETS};
//! use ecosched_experiments::{run_paired, ExperimentConfig};
//!
//! let outcome = run_paired(
//!     &ExperimentConfig {
//!         iterations: 200,
//!         ..ExperimentConfig::default()
//!     },
//!     0,
//! );
//! assert!(outcome.amp.job_time.mean() < outcome.alp.job_time.mean());
//! println!("{}", comparison_table(&outcome, &FIG4_TARGETS).render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod churn;
pub mod extensions;
pub mod federation;
pub mod figures;
pub mod flexibility;
pub mod gantt;
pub mod online;
pub mod paper_example;
pub mod report;
pub mod rho_sweep;
pub mod runner;
pub mod scaling;
pub mod trace;

pub use runner::{run_paired, run_seed, ExperimentConfig, PairedOutcome};

/// Parses `--key value` style arguments from the process command line.
/// Returns `None` when the flag is absent.
///
/// # Panics
///
/// Panics with a readable message when the flag is present but its value
/// is missing or unparsable.
#[must_use]
pub fn arg_value<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).map(|pos| {
        args.get(pos + 1)
            .unwrap_or_else(|| panic!("{flag} requires a value"))
            .parse()
            .unwrap_or_else(|_| panic!("{flag} value is not valid"))
    })
}

/// The first `--flag` in `args` that `known` does not list, if any.
#[must_use]
pub fn unknown_flag<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    args.iter()
        .map(String::as_str)
        .find(|arg| arg.starts_with("--") && !known.contains(arg))
}

/// Exits with status 2 and a usage line when the process command line
/// carries a `--flag` outside `known`. [`arg_value`] only looks for the
/// flags it is asked about, so without this check a misspelt or retired
/// flag would be ignored and the run would silently use the default.
pub fn reject_unknown_flags(known: &[&str]) {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    if let Some(flag) = unknown_flag(&rest, known) {
        let usage: String = known.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("unknown flag {flag}\nusage: {program}{usage}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::unknown_flag;

    #[test]
    fn unknown_flags_are_found_and_values_are_not_flags() {
        let known = ["--seed", "--smoke"];
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        assert_eq!(unknown_flag(&args("--seed 7 --smoke"), &known), None);
        assert_eq!(unknown_flag(&args("--seed -3"), &known), None);
        assert_eq!(
            unknown_flag(&args("--seed 7 --threads 4"), &known),
            Some("--threads")
        );
        assert_eq!(unknown_flag(&args("--smok"), &known), Some("--smok"));
        assert_eq!(unknown_flag(&[], &known), None);
    }
}
