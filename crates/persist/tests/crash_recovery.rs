//! Crash-recovery fault injection: kill a run at an arbitrary event
//! index, restore from the latest snapshot at or before the kill point,
//! replay the surviving log suffix, and assert the completed run is
//! byte-identical — final report, full event log, and log hash — to the
//! run that never crashed.
//!
//! Coverage axes: revocation on/off, ALP and AMP selectors, the
//! determinism-suite seeds, and proptest-driven random kill points.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, LogEntry};
use ecosched_persist::{encode_snapshot, resume_from, run_with_snapshots};
use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::{JobGenConfig, RevocationConfig};
use proptest::prelude::*;

fn poisson_config(churn: bool) -> EngineConfig {
    EngineConfig {
        cycles: 5,
        revocation: if churn {
            RevocationConfig::per_slot(0.05)
        } else {
            RevocationConfig::none()
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 20,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

/// The full kill/restore/replay cycle against one engine and seed:
///
/// 1. the uninterrupted run is the ground truth (and, by determinism,
///    exactly what the "crashed" process observed up to the kill);
/// 2. the crashed process died after logging `kill_at` events, holding
///    snapshots from every cycle commit before that point;
/// 3. recovery restores the latest usable snapshot (through its *bytes*,
///    exercising the container), replays the suffix the crashed process
///    had logged after the capture, and runs to completion.
fn assert_recovery_converges<S: SlotSelector + Copy>(
    engine: &Engine<S>,
    seed: u64,
    kill_at: usize,
) {
    let (baseline, snapshots) = run_with_snapshots(engine, seed, 1).expect("baseline run");
    assert!(
        !snapshots.is_empty(),
        "every config here has at least one cycle commit"
    );
    let kill_at = kill_at.min(baseline.log.entries.len());

    let Some(checkpoint) = snapshots.iter().rev().find(|c| c.log.len() <= kill_at) else {
        // Killed before the first snapshot existed: recovery is a
        // restart, which determinism already covers.
        let rerun = engine.run(seed).expect("restart run");
        assert_eq!(rerun, baseline);
        return;
    };

    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..kill_at].to_vec();
    let bytes = encode_snapshot(checkpoint);
    let recovered = resume_from(engine, &bytes, &suffix).expect("recovery");

    assert_eq!(
        recovered.report.log_hash, baseline.report.log_hash,
        "log hash diverged (seed {seed}, kill {kill_at})"
    );
    assert_eq!(
        recovered.log.to_json(),
        baseline.log.to_json(),
        "event log diverged (seed {seed}, kill {kill_at})"
    );
    assert_eq!(
        recovered.report.to_json(),
        baseline.report.to_json(),
        "report diverged (seed {seed}, kill {kill_at})"
    );
    assert_eq!(recovered, baseline);
}

/// Every seed of the engine determinism suite converges through
/// crash-recovery, killing at a spread of points.
#[test]
fn determinism_seeds_converge_after_crash() {
    let engine = Engine::new(poisson_config(true), Amp::new()).expect("config");
    for seed in [42u64, 17, 9, 1, 2, 23] {
        for kill_at in [5usize, 30, 80, usize::MAX] {
            assert_recovery_converges(&engine, seed, kill_at);
        }
    }
}

#[test]
fn alp_selector_converges_after_crash() {
    let engine = Engine::new(poisson_config(true), Alp::new()).expect("config");
    for seed in [42u64, 17] {
        for kill_at in [10usize, 50] {
            assert_recovery_converges(&engine, seed, kill_at);
        }
    }
}

proptest! {
    // Each case is two full engine runs plus a replayed recovery; keep
    // the count small (CI raises PROPTEST_CASES for the dedicated job).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery converges for random seeds, kill points, and fault axes.
    #[test]
    fn random_kills_converge(
        seed in 0u64..100_000,
        kill_at in 0usize..200,
        churn in any::<bool>(),
    ) {
        let config = EngineConfig {
            cycles: 3,
            arrivals: ArrivalConfig::Poisson {
                mean_interarrival: 10.0,
                jobs: 10,
                job_gen: JobGenConfig::default(),
            },
            ..poisson_config(churn)
        };
        let engine = Engine::new(config, Amp::new()).expect("config");
        assert_recovery_converges(&engine, seed, kill_at);
    }
}
