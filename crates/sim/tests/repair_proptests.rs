//! Property-based tests for revocation-tolerant execution: after any
//! interleaving of revocations and repairs, the committed state must stay
//! consistent — pairwise slot-disjoint leases, budgets respected, no lease
//! referencing a revoked region, every revocation accounted for, and every
//! job ending in a terminal fate.

use ecosched_core::{NodeId, Span};
use ecosched_select::{Alp, Amp};
use ecosched_sim::{
    CycleTrace, IterationConfig, JobFate, JobGenConfig, Metascheduler, RepairPolicy,
    RevocationConfig, SlotGenConfig, TracedRun,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn meta(churn: RevocationConfig) -> Metascheduler {
    Metascheduler::new(
        SlotGenConfig::default(),
        JobGenConfig::default(),
        IterationConfig::default(),
    )
    .with_revocation(churn)
}

fn run_amp(churn: RevocationConfig, cycles: usize, seed: u64) -> TracedRun {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    meta(churn)
        .run_traced(Amp::new(), cycles, &mut rng)
        .expect("simulation must not fail")
}

fn run_alp(churn: RevocationConfig, cycles: usize, seed: u64) -> TracedRun {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    meta(churn)
        .run_traced(Alp::new(), cycles, &mut rng)
        .expect("simulation must not fail")
}

/// Every post-repair guarantee checked on one cycle trace.
fn assert_cycle_consistent(trace: &CycleTrace) {
    // Terminal fates for the whole batch.
    assert_eq!(trace.fates.len(), trace.requests.len());
    let scheduled = trace.fates.iter().filter(|f| f.is_scheduled()).count();
    assert_eq!(trace.leases.len(), scheduled);

    // No surviving lease references a revoked region.
    for lease in &trace.leases {
        for r in &trace.revocations {
            assert!(
                !lease.broken_by(r),
                "lease of {} overlaps revocation {:?}",
                lease.job,
                r
            );
        }
    }

    // Committed windows stay pairwise slot-disjoint.
    let regions: Vec<(NodeId, Span)> = trace
        .leases
        .iter()
        .flat_map(|l| {
            l.window
                .slots()
                .iter()
                .map(move |ws| (ws.node(), l.window.used_span(ws)))
        })
        .collect();
    for (i, a) in regions.iter().enumerate() {
        for b in &regions[i + 1..] {
            assert!(
                a.0 != b.0 || !a.1.overlaps(b.1),
                "committed regions overlap: {a:?} vs {b:?}"
            );
        }
    }

    // Failed-over jobs cite a real alternative index.
    for fate in &trace.fates {
        if let JobFate::FailedOver { alternative } = fate {
            assert!(*alternative < 64, "implausible alternative index");
        }
    }
}

proptest! {
    #[test]
    fn repairs_preserve_consistency_under_amp(
        seed in 0u64..1_000_000,
        p_idx in 0usize..2,
        cycles in 2usize..5,
    ) {
        let p = [0.05f64, 0.15][p_idx];
        let run = run_amp(RevocationConfig::per_slot(p), cycles, seed);
        for (cycle, trace) in run.report.cycles.iter().zip(&run.traces) {
            assert_cycle_consistent(trace);
            // 100% revocation accounting.
            prop_assert_eq!(
                cycle.repair.revocations_injected,
                cycle.repair.revocations_breaking + cycle.repair.revocations_vacant_only
            );
            prop_assert_eq!(
                cycle.repair.revocations_injected as usize,
                trace.revocations.len()
            );
            prop_assert_eq!(
                cycle.repair.leases_broken,
                cycle.repair.recovered()
                    + cycle.repair.postponed_stale
                    + cycle.repair.postponed_budget_exhausted
            );
            // Every lease respects its job's AMP budget — including the
            // failed-over and repaired ones.
            for lease in &trace.leases {
                let request = &trace.requests[lease.job.index() as usize];
                prop_assert!(
                    lease.window.total_cost() <= request.budget(),
                    "lease cost {} exceeds budget {}",
                    lease.window.total_cost(),
                    request.budget()
                );
            }
            // Repairs are incremental: every repair scan resumed from its
            // seeded anchor instead of rescanning the whole list.
            prop_assert_eq!(
                cycle.repair.repair_scan.checkpoint_hits,
                cycle.repair.repairs_attempted
            );
        }
    }

    #[test]
    fn repairs_preserve_consistency_under_alp(
        seed in 0u64..1_000_000,
        p_idx in 0usize..2,
    ) {
        let p = [0.05f64, 0.15][p_idx];
        let run = run_alp(RevocationConfig::per_slot(p), 3, seed);
        for trace in &run.traces {
            assert_cycle_consistent(trace);
            // ALP's invariant is per-slot: every member price within the cap.
            for lease in &trace.leases {
                let request = &trace.requests[lease.job.index() as usize];
                for ws in lease.window.slots() {
                    prop_assert!(
                        ws.price() <= request.price_cap(),
                        "ALP member price {} above cap {}",
                        ws.price(),
                        request.price_cap()
                    );
                }
            }
        }
    }

    #[test]
    fn heavy_per_slot_churn_stays_consistent(
        seed in 0u64..1_000_000,
        p_idx in 0usize..3,
    ) {
        // Far past the sweep's levels: most leases break, and repairs
        // compete for what the strike left.
        let p = [0.3f64, 0.5, 0.8][p_idx];
        let run = run_amp(RevocationConfig::per_slot(p), 3, seed);
        for (cycle, trace) in run.report.cycles.iter().zip(&run.traces) {
            assert_cycle_consistent(trace);
            prop_assert_eq!(
                cycle.repair.revocations_injected,
                cycle.repair.revocations_breaking + cycle.repair.revocations_vacant_only
            );
            prop_assert_eq!(
                cycle.repair.leases_broken,
                cycle.repair.recovered()
                    + cycle.repair.postponed_stale
                    + cycle.repair.postponed_budget_exhausted
            );
        }
    }

    #[test]
    fn tight_budgets_still_terminate_cleanly(
        seed in 0u64..1_000_000,
        max_attempts in 0u32..4,
    ) {
        // Even with a tiny (or zero) repair budget, every broken lease must
        // end in a terminal fate — recovered or postponed with a reason.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let run = meta(RevocationConfig::per_slot(0.15))
            .with_repair_policy(RepairPolicy { max_attempts })
            .run_traced(Amp::new(), 3, &mut rng)
            .expect("simulation must not fail");
        for (cycle, trace) in run.report.cycles.iter().zip(&run.traces) {
            assert_cycle_consistent(trace);
            prop_assert_eq!(
                cycle.repair.leases_broken,
                cycle.repair.recovered()
                    + cycle.repair.postponed_stale
                    + cycle.repair.postponed_budget_exhausted
            );
            if max_attempts == 0 {
                prop_assert_eq!(cycle.repair.recovered(), 0);
            }
        }
    }
}
