//! The six workloads. Each one stresses a different layer of the stack;
//! `../README.md` says which and why.

use std::path::Path;

use crate::clock::Clock;
use crate::harness::Workload;

mod batch_replan;
mod engine;
mod federation;
mod paper_study;
pub mod service;

pub const NAMES: [&str; 6] = [
    "paper_study",
    "batch_replan",
    "engine_churn",
    "engine_widemarket",
    "federation_s4",
    "service_session",
];

/// The clock `name` is timed on; see [`Clock`].
pub fn clock(name: &str) -> Clock {
    if name == "service_session" {
        Clock::ThreadCpu
    } else {
        Clock::Wall
    }
}

/// Generates the inputs of `name` from `seed` and constructs the program
/// under test on them. `scratch` is a directory of this run's own.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    let scratch = scratch.to_path_buf();
    Some(match name {
        "paper_study" => Box::new(paper_study::PaperStudy::new(seed)),
        "batch_replan" => Box::new(batch_replan::BatchReplan::new(seed)),
        "engine_churn" => Box::new(engine::EngineWorkload::churn(seed, scratch)),
        "engine_widemarket" => Box::new(engine::EngineWorkload::widemarket(seed, scratch)),
        "federation_s4" => Box::new(federation::FederationS4::new(seed, scratch)),
        "service_session" => Box::new(service::ServiceSession::new(seed, scratch)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A directory of the test's own under `bench/out`.
    fn test_scratch(test: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()))
    }

    /// `--seed` is the only source of variation: one seed gives one set of
    /// inputs, another seed another. (The engine workloads hand the seed
    /// to `Engine::start`, which draws arrivals and slots from it; the
    /// federation's stream below is that draw.)
    #[test]
    fn the_seed_fixes_the_inputs_and_another_seed_changes_them() {
        let paper = |seed| paper_study::PaperStudy::new(seed).inputs(0);
        assert_eq!(paper(1), paper(1));
        assert_ne!(paper(1), paper(2));

        assert_eq!(batch_replan::inputs(1), batch_replan::inputs(1));
        assert_ne!(batch_replan::inputs(1), batch_replan::inputs(2));

        assert_eq!(service::job_specs(1, 50), service::job_specs(1, 50));
        assert_ne!(service::job_specs(1, 50), service::job_specs(2, 50));

        let scratch = test_scratch("seed");
        let stream = |seed| federation::FederationS4::new(seed, scratch.clone()).requests;
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn every_listed_workload_builds() {
        let scratch = test_scratch("build");
        for name in NAMES.iter().filter(|n| **n != "batch_replan") {
            assert!(build(name, 1, &scratch).is_some(), "{name}");
        }
        assert!(build("no_such_workload", 1, &scratch).is_none());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
