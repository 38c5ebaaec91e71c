//! Failure injection: the pipeline must degrade with typed errors — never
//! panics, never partial state — when a component misbehaves.

use ecosched::prelude::*;
use ecosched::sim::IterationError;

/// A selector that fabricates windows citing a slot that does not exist:
/// on a real node, over time a real slot there covers, under an id the
/// node does not hold — so only the source's id check can refuse it.
#[derive(Debug)]
struct PhantomSlotSelector;

impl SlotSelector for PhantomSlotSelector {
    fn name(&self) -> &'static str {
        "phantom"
    }

    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        _stats: &mut ScanStats,
    ) -> Option<Window> {
        let victim = list.iter().next()?;
        let ghost = victim
            .with_span(SlotId::new(u64::MAX), victim.span())
            .unwrap();
        let ws = WindowSlot::from_slot(&ghost, request.runtime_on(Perf::UNIT)).unwrap();
        Some(Window::new(victim.start(), vec![ws]).unwrap())
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

/// Cuts `selector`'s window out of the environment's list directly, on
/// its member's node: the typed refusal, after checking that the refused
/// cut left the list as it was.
fn refused_cut(selector: &impl SlotSelector) -> CoreError {
    let (mut list, batch) = environment();
    let request = batch.as_slice()[0].request();
    let window = selector.find_window(&list, request, &mut ScanStats::new());
    let before = list.clone();
    let err = list.subtract_window(&window.unwrap()).unwrap_err();
    assert_eq!(list, before, "a refused cut changes nothing");
    err
}

#[test]
fn phantom_slots_yield_a_typed_error() {
    let (list, batch) = environment();
    let err = find_alternatives(&PhantomSlotSelector, &list, &batch).unwrap_err();
    assert!(matches!(err, CoreError::SlotNotFound { .. }), "{err}");
    let id = SlotId::new(u64::MAX);
    assert_eq!(
        refused_cut(&PhantomSlotSelector),
        CoreError::SlotNotFound { id }
    );
}

#[test]
fn overhanging_cuts_yield_a_typed_error() {
    let (list, batch) = environment();
    let err = find_alternatives(&OverhangSelector, &list, &batch).unwrap_err();
    assert!(matches!(err, CoreError::CutOutsideSlot { .. }), "{err}");
    let err = refused_cut(&OverhangSelector);
    assert!(
        matches!(err, CoreError::CutOutsideSlot { id, slot_span, cut }
            if id == SlotId::new(0) && cut.start() == slot_span.start()
                && cut.length() == slot_span.length() * 2),
        "{err}"
    );
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
    let err = find_alternatives_coscheduled(&PhantomSlotSelector, &list, &batch).unwrap_err();
    assert!(matches!(err, CoreError::SlotNotFound { .. }), "{err}");
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
// Environment-level faults: mid-cycle strikes withdraw vacant slots and
// running leases on the engine, and every broken lease must end in a
// recovery tier or back in the queue — never a panic, never partial state.

use ecosched::engine::{engine_obs, ArrivalConfig, Engine, EngineConfig, Event};
use ecosched::sim::JobGenConfig;

fn churn_config(churn: RevocationConfig) -> EngineConfig {
    EngineConfig {
        cycles: 4,
        revocation: churn,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 12.0,
            jobs: 20,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

#[test]
fn total_revocation_postpones_every_job_with_a_clean_reason() {
    // Every vacant slot and every running lease is struck: all leases
    // break, every alternative is stale, and the repair search runs on an
    // empty market. Every broken lease goes back to the queue under one
    // of the two recovery reasons — never a panic, never a recovery.
    let config = churn_config(RevocationConfig::per_slot(1.0));
    let obs = engine_obs();
    let rec = obs.recorder().expect("recorder on").clone();
    let engine = Engine::new(config, Amp::new()).unwrap().with_obs(obs);
    let report = engine.run(1).unwrap().report;
    assert!(
        report.leases_broken > 0,
        "total revocation must break leases"
    );
    assert_eq!(report.failovers, 0, "no alternative survives");
    assert_eq!(report.repairs, 0, "no repair search can succeed");
    assert_eq!(report.repostponed, report.leases_broken);

    let reg = rec.registry().unwrap();
    let postponed = |reason| {
        let id = reg
            .find_counter("ecosched_engine_postponed_total", &[("reason", reason)])
            .unwrap();
        reg.counter_value(id)
    };
    assert_eq!(
        postponed("repair_budget_exhausted") + postponed("all_alternatives_stale"),
        report.repostponed
    );
}

#[test]
fn heavy_mixed_churn_degrades_without_partial_state() {
    // Heavy per-slot churn at a different level each seed: from a third of
    // the surface withdrawn to nearly all of it.
    for (seed, p) in [0.3, 0.5, 0.65, 0.8, 0.95].into_iter().enumerate() {
        let engine = Engine::new(churn_config(RevocationConfig::per_slot(p)), Amp::new()).unwrap();
        let mut state = engine.start(seed as u64);
        let (mut strikes, mut revoked) = (0, 0);
        while let Some(entry) = engine.step(&mut state).unwrap() {
            if !matches!(entry.event, Event::RevocationStrike { .. }) {
                continue;
            }
            strikes += 1;
            // Full accounting: every broken lease ended in one tier.
            let report = state.report_so_far();
            assert_eq!(
                report.leases_broken,
                report.failovers + report.repairs + report.repostponed
            );
            // No job is both waiting and holding a window.
            let checkpoint = engine.checkpoint(&state);
            for p in &checkpoint.pending {
                assert!(
                    checkpoint.leases.iter().all(|l| l.job != p.id),
                    "job {} is both pending and leased",
                    p.id
                );
            }
            // No surviving lease, failed-over and repaired windows
            // included, touches a region this strike revoked.
            revoked += state.last_strike().len();
            for lease in &checkpoint.leases {
                for r in state.last_strike() {
                    assert!(
                        !r.breaks(&lease.window),
                        "lease {} overlaps a revoked region",
                        lease.lease
                    );
                }
            }
        }
        assert_eq!(strikes, 4, "one strike per cycle");
        assert!(revoked > 0, "p = {p} must revoke something");
        let report = engine.finish(state).report;
        assert!(report.leases_broken > 0, "p = {p} must break leases");
        assert_eq!(
            report.jobs_arrived,
            report.jobs_completed + report.backlog,
            "every arrived job completed or is still held"
        );
    }
}

#[test]
fn revocation_disabled_is_byte_identical_to_the_legacy_loop() {
    // The fault layer must be invisible when off: a configuration that
    // never mentions revocation and one that sets `none()` explicitly run
    // the same events, draw nothing and strike nothing.
    let disabled = EngineConfig {
        cycles: 4,
        ..EngineConfig::default()
    };
    let explicit_none = EngineConfig {
        revocation: RevocationConfig::none(),
        ..disabled.clone()
    };
    let a = Engine::new(disabled, Amp::new()).unwrap().run(7).unwrap();
    let b = Engine::new(explicit_none, Amp::new())
        .unwrap()
        .run(7)
        .unwrap();
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.log.fnv1a_hash(), b.log.fnv1a_hash());
    assert_eq!(a.report.revocations, 0);
    assert_eq!(a.report.leases_broken, 0);
    assert!(!a
        .log
        .entries
        .iter()
        .any(|e| matches!(e.event, Event::RevocationStrike { .. })));
}
