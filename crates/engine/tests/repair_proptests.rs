//! Property-based tests for revocation-tolerant execution on the engine:
//! after every strike and every cycle commit, each active lease still
//! honours its own request — an AMP window costs at most the job's
//! budget, every ALP member is priced at most the job's cap, failed-over
//! and repaired windows included — and none overlaps a region the last
//! strike revoked; every broken lease has ended in exactly one recovery
//! tier. Pairwise-disjoint leases and a valid vacant list are
//! `invariants.rs`'s check.

use ecosched_core::Revocation;
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, EngineReport, Event};
use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::{JobGenConfig, RepairPolicy, RevocationConfig};
use proptest::prelude::*;

fn config(per_slot: f64, cycles: u32, repair: RepairPolicy) -> EngineConfig {
    EngineConfig {
        cycles,
        revocation: RevocationConfig::per_slot(per_slot),
        repair,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 12.0,
            jobs: 5 * cycles,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

/// Every broken lease was failed over, repaired or re-postponed — once.
fn assert_accounted(report: &EngineReport) {
    assert_eq!(
        report.leases_broken,
        report.failovers + report.repairs + report.repostponed,
        "a broken lease left the recovery tiers unaccounted"
    );
}

/// No active lease, failed-over and repaired windows included, is broken
/// by a revocation the strike just drew. `invariants.rs` cannot see this:
/// a revoked region leaves the vacant list, so a lease on it still looks
/// disjoint from vacant time.
fn clear_of_strike(checkpoint: &EngineCheckpoint, revocations: &[Revocation]) {
    for lease in &checkpoint.leases {
        for r in revocations {
            assert!(
                !r.breaks(&lease.window),
                "lease {} overlaps revoked region {:?} on node {:?}",
                lease.lease,
                r.span,
                r.node
            );
        }
    }
}

/// AMP's invariant is per window: the lease costs at most the budget.
fn amp_within_budget(checkpoint: &EngineCheckpoint) {
    for lease in &checkpoint.leases {
        assert!(
            lease.window.total_cost() <= lease.request.budget(),
            "lease {} costs {} over budget {}",
            lease.lease,
            lease.window.total_cost(),
            lease.request.budget()
        );
    }
}

/// ALP's invariant is per slot: every member within the price cap.
fn alp_within_cap(checkpoint: &EngineCheckpoint) {
    for lease in &checkpoint.leases {
        for ws in lease.window.slots() {
            assert!(
                ws.price() <= lease.request.price_cap(),
                "lease {} member price {} above cap {}",
                lease.lease,
                ws.price(),
                lease.request.price_cap()
            );
        }
    }
}

/// Steps one run to the end, checking `per_lease` and the accounting
/// after every event that commits or breaks leases; returns the report.
fn check_run(
    selector: impl SlotSelector + Copy,
    config: EngineConfig,
    seed: u64,
    per_lease: fn(&EngineCheckpoint),
) -> EngineReport {
    let engine = Engine::new(config, selector).expect("valid config");
    let mut state = engine.start(seed);
    while let Some(entry) = engine.step(&mut state).expect("step") {
        let struck = matches!(entry.event, Event::RevocationStrike { .. });
        if struck || matches!(entry.event, Event::CycleTick { .. }) {
            let checkpoint = engine.checkpoint(&state);
            per_lease(&checkpoint);
            if struck {
                clear_of_strike(&checkpoint, state.last_strike());
            }
            assert_accounted(state.report_so_far());
        }
    }
    let report = engine.finish(state).report;
    assert_accounted(&report);
    report
}

proptest! {
    // Each case is a whole engine run with a checkpoint per checked
    // event; CI raises the count through PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn repairs_preserve_consistency_under_amp(
        seed in 0u64..1_000_000,
        p_idx in 0usize..2,
        cycles in 2u32..5,
    ) {
        let p = [0.05, 0.15][p_idx];
        check_run(Amp::new(), config(p, cycles, RepairPolicy::default()), seed, amp_within_budget);
    }

    #[test]
    fn repairs_preserve_consistency_under_alp(
        seed in 0u64..1_000_000,
        p_idx in 0usize..2,
    ) {
        let p = [0.05, 0.15][p_idx];
        check_run(Alp::new(), config(p, 3, RepairPolicy::default()), seed, alp_within_cap);
    }

    #[test]
    fn heavy_per_slot_churn_stays_consistent(
        seed in 0u64..1_000_000,
        p_idx in 0usize..3,
    ) {
        // Far past the sweep's levels: most leases break, and repairs
        // compete for what the strike left.
        let p = [0.3, 0.5, 0.8][p_idx];
        check_run(Amp::new(), config(p, 3, RepairPolicy::default()), seed, amp_within_budget);
    }

    #[test]
    fn tight_budgets_still_terminate_cleanly(
        seed in 0u64..1_000_000,
        max_attempts in 0u32..4,
    ) {
        // Even with a tiny (or zero) attempt budget every broken lease
        // ends in a tier; with none at all, neither tier 1 nor the
        // tier-2 scan runs.
        let report = check_run(
            Amp::new(),
            config(0.15, 3, RepairPolicy { max_attempts }),
            seed,
            amp_within_budget,
        );
        if max_attempts == 0 {
            prop_assert_eq!(report.failovers + report.repairs, 0);
            prop_assert_eq!(report.repostponed, report.leases_broken);
        }
    }
}
