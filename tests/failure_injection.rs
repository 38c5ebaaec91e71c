//! Failure injection: the pipeline must degrade with typed errors — never
//! panics, never partial state — when a component misbehaves.

use ecosched::prelude::*;
use ecosched::sim::IterationError;

/// A selector that fabricates windows referencing slots that do not exist.
#[derive(Debug)]
struct PhantomSlotSelector;

impl SlotSelector for PhantomSlotSelector {
    fn name(&self) -> &'static str {
        "phantom"
    }

    fn find_window(
        &self,
        _list: &SlotList,
        request: &ResourceRequest,
        _stats: &mut ScanStats,
    ) -> Option<Window> {
        let ghost = Slot::new(
            SlotId::new(u64::MAX),
            NodeId::new(u32::MAX),
            Perf::UNIT,
            Price::from_credits(1),
            Span::new(TimePoint::new(0), TimePoint::new(10_000)).unwrap(),
        )
        .unwrap();
        let ws = WindowSlot::from_slot(&ghost, request.runtime_on(Perf::UNIT)).unwrap();
        Some(Window::new(TimePoint::new(0), vec![ws]).unwrap())
    }
}

/// A selector that cites a real slot but cuts outside its vacant span.
#[derive(Debug)]
struct OverhangSelector;

impl SlotSelector for OverhangSelector {
    fn name(&self) -> &'static str {
        "overhang"
    }

    fn find_window(
        &self,
        list: &SlotList,
        _request: &ResourceRequest,
        _stats: &mut ScanStats,
    ) -> Option<Window> {
        let victim = list.iter().next()?;
        // Claim the slot for twice its actual length.
        let runtime = victim.length() * 2;
        let ws = WindowSlot::from_slot(victim, runtime).unwrap();
        Some(Window::new(victim.start(), vec![ws]).unwrap())
    }
}

fn environment() -> (SlotList, Batch) {
    let slots = (0..3)
        .map(|i| {
            Slot::new(
                SlotId::new(i),
                NodeId::new(i as u32),
                Perf::UNIT,
                Price::from_credits(2),
                Span::new(TimePoint::new(0), TimePoint::new(200)).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let list = SlotList::from_slots(slots).unwrap();
    let job = Job::new(
        JobId::new(0),
        ResourceRequest::new(1, TimeDelta::new(50), Perf::UNIT, Price::from_credits(5)).unwrap(),
    );
    (list, Batch::from_jobs(vec![job]).unwrap())
}

#[test]
fn phantom_slots_yield_a_typed_error() {
    let (list, batch) = environment();
    let err = find_alternatives(&PhantomSlotSelector, &list, &batch).unwrap_err();
    assert!(matches!(err, CoreError::SlotNotFound { .. }), "{err}");
}

#[test]
fn overhanging_cuts_yield_a_typed_error() {
    let (list, batch) = environment();
    let err = find_alternatives(&OverhangSelector, &list, &batch).unwrap_err();
    assert!(matches!(err, CoreError::CutOutsideSlot { .. }), "{err}");
}

#[test]
fn iteration_wraps_selector_failures() {
    let (list, batch) = environment();
    let err = run_iteration(
        &PhantomSlotSelector,
        &list,
        &batch,
        &IterationConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, IterationError::Core(_)));
    // The error chains to its source and formats meaningfully.
    assert!(std::error::Error::source(&err).is_some());
    assert!(format!("{err}").contains("slot bookkeeping failed"));
}

#[test]
fn coscheduled_search_rejects_misbehaving_selectors_too() {
    let (list, batch) = environment();
    let err = find_alternatives_coscheduled(&OverhangSelector, &list, &batch).unwrap_err();
    assert!(matches!(err, CoreError::CutOutsideSlot { .. }));
}

#[test]
fn original_list_is_never_mutated_by_failures() {
    let (list, batch) = environment();
    let before = list.clone();
    let _ = find_alternatives(&OverhangSelector, &list, &batch);
    let _ = find_alternatives(&PhantomSlotSelector, &list, &batch);
    assert_eq!(list, before);
}

// ---------------------------------------------------------------------------
// Environment-level faults: the revocation model withdraws committed slots
// after optimization, and the metascheduler must degrade to typed fates —
// never panics, never partial state.

use ecosched::sim::{JobGenConfig, SlotGenConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn churn_meta(churn: RevocationConfig) -> Metascheduler {
    Metascheduler::new(
        SlotGenConfig::default(),
        JobGenConfig::default(),
        IterationConfig::default(),
    )
    .with_revocation(churn)
}

#[test]
fn total_revocation_postpones_every_job_with_a_clean_reason() {
    // Every published slot is revoked: all leases break, every alternative
    // is stale, and the repair search runs on an empty survivor list. With
    // an ample attempt budget, the only possible fates are the two clean
    // postpone reasons — never a panic, never a budget artifact.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let run = churn_meta(RevocationConfig::per_slot(1.0))
        .with_repair_policy(RepairPolicy {
            max_attempts: 1_000,
        })
        .run_traced(Amp::new(), 3, &mut rng)
        .unwrap();
    for (cycle, trace) in run.report.cycles.iter().zip(&run.traces) {
        assert_eq!(cycle.scheduled, 0, "nothing can survive total revocation");
        assert!(trace.leases.is_empty());
        assert!(trace.fates.iter().all(|f| matches!(
            f,
            JobFate::Postponed(PostponeReason::NoAlternatives)
                | JobFate::Postponed(PostponeReason::AllAlternativesStale)
        )));
        // Every failover validation failed for the *revoked* reason, and
        // no repair search could succeed.
        assert_eq!(
            cycle.repair.failover_stale_revoked,
            cycle.repair.failover_validations
        );
        assert_eq!(cycle.repair.repairs_succeeded, 0);
        assert_eq!(cycle.repair.postponed_stale, cycle.repair.leases_broken);
    }
}

#[test]
fn heavy_mixed_churn_degrades_without_partial_state() {
    // Heavy per-slot churn at a different level each seed: from a third of
    // the market withdrawn to nearly all of it.
    for (seed, p) in [0.3, 0.5, 0.65, 0.8, 0.95].into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
        let run = churn_meta(RevocationConfig::per_slot(p))
            .run_traced(Amp::new(), 4, &mut rng)
            .unwrap();
        for (cycle, trace) in run.report.cycles.iter().zip(&run.traces) {
            // Full accounting: every revocation classified, every broken
            // lease terminal, every job fated.
            assert_eq!(
                cycle.repair.revocations_injected,
                cycle.repair.revocations_breaking + cycle.repair.revocations_vacant_only
            );
            assert_eq!(
                cycle.repair.leases_broken,
                cycle.repair.recovered()
                    + cycle.repair.postponed_stale
                    + cycle.repair.postponed_budget_exhausted
            );
            assert_eq!(trace.fates.len(), cycle.batch_size);
            assert_eq!(
                trace.leases.len(),
                trace.fates.iter().filter(|f| f.is_scheduled()).count()
            );
            // No surviving lease touches a revoked region.
            for lease in &trace.leases {
                for r in &trace.revocations {
                    assert!(!lease.broken_by(r));
                }
            }
        }
    }
}

#[test]
fn revocation_disabled_is_byte_identical_to_the_legacy_loop() {
    // The fault layer must be invisible when off: same RNG consumption,
    // same cycle summaries, zero repair activity.
    let run = |churn: Option<RevocationConfig>| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let meta = match churn {
            Some(c) => churn_meta(c),
            None => churn_meta(RevocationConfig::default()),
        };
        meta.run(Amp::new(), 4, &mut rng).unwrap()
    };
    let disabled = run(None);
    let explicit_none = run(Some(RevocationConfig::default()));
    assert_eq!(disabled, explicit_none);
    let totals = disabled.repair_totals();
    assert_eq!(totals.revocations_injected, 0);
    assert_eq!(totals.leases_broken, 0);
}
