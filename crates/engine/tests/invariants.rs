//! Consistency of the production strike path: whatever `on_strike` /
//! `recover_lease`, the cycle commit and lease completion do to a run,
//! the state between two events must stay a market — a valid vacant list,
//! active leases that occupy pairwise-disjoint regions no vacant slot
//! overlaps, every job in exactly one place, and after a cycle tick no
//! lease holding an alternative that tick has passed at the front of its
//! list — and the finished run must account for every job that arrived.
//! Read from [`Engine::checkpoint`];
//! `repair_proptests.rs` checks each lease against its own request.

use std::collections::HashSet;

use ecosched_core::{NodeId, Span, TimePoint};
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, Event};
use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::{JobGenConfig, RevocationConfig};
use proptest::prelude::*;

fn config(per_slot: f64, coalesce: bool) -> EngineConfig {
    EngineConfig {
        cycles: 4,
        revocation: RevocationConfig::per_slot(per_slot),
        coalesce,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 16,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

/// Every between-events guarantee, checked on one captured state.
fn assert_consistent(checkpoint: &EngineCheckpoint, after: Event) {
    checkpoint
        .vacant
        .validate()
        .unwrap_or_else(|e| panic!("vacant list invalid after {after:?}: {e}"));

    let leased: Vec<(NodeId, Span)> = checkpoint
        .leases
        .iter()
        .flat_map(|l| {
            l.window
                .slots()
                .iter()
                .map(move |ws| (ws.node(), l.window.used_span(ws)))
        })
        .collect();
    for (i, a) in leased.iter().enumerate() {
        for b in &leased[i + 1..] {
            assert!(
                a.0 != b.0 || !a.1.overlaps(b.1),
                "leased regions overlap after {after:?}: {a:?} vs {b:?}"
            );
        }
        for slot in checkpoint.vacant.iter() {
            assert!(
                a.0 != slot.node() || !a.1.overlaps(slot.span()),
                "leased region {a:?} is also vacant after {after:?}: {slot:?}"
            );
        }
    }

    let mut lease_ids = HashSet::new();
    let mut leased_jobs = HashSet::new();
    for lease in &checkpoint.leases {
        assert!(
            lease_ids.insert(lease.lease),
            "lease id {} twice",
            lease.lease
        );
        assert!(
            leased_jobs.insert(lease.job),
            "job {} leased twice",
            lease.job
        );
    }
    for pending in &checkpoint.pending {
        assert!(
            !leased_jobs.contains(&pending.id),
            "job {} is both pending and leased after {after:?}",
            pending.id
        );
    }
}

/// A cycle tick drops every lease's leading alternatives that start
/// before it, and commits new leases with alternatives from a market
/// clipped to it: no lease's first alternative starts before the tick.
fn assert_no_passed_alternative_first(checkpoint: &EngineCheckpoint, tick: i64) {
    for lease in &checkpoint.leases {
        if let Some(first) = lease.alternatives.first() {
            assert!(
                first.start().ticks() >= tick,
                "lease {} keeps an alternative at {:?} after the tick at {tick}",
                lease.lease,
                first.start()
            );
        }
    }
}

/// Steps one run to the end, checking the state after every event that
/// moves capacity between the market and the leases.
fn check_run(selector: impl SlotSelector + Copy, config: EngineConfig, seed: u64) {
    let engine = Engine::new(config, selector).expect("valid config");
    let mut state = engine.start(seed);
    while let Some(entry) = engine.step(&mut state).expect("step") {
        if matches!(
            entry.event,
            Event::CycleTick { .. } | Event::RevocationStrike { .. } | Event::LeaseCompleted { .. }
        ) {
            let checkpoint = engine.checkpoint(&state);
            assert_consistent(&checkpoint, entry.event);
            if matches!(entry.event, Event::CycleTick { .. }) {
                assert_no_passed_alternative_first(&checkpoint, entry.time);
            }
        }
        // The expiry sweep looks only at the prefix that can hold a dead
        // slot and sits out a tick it has already swept; whichever it
        // did, nothing fully elapsed may be left behind.
        if matches!(entry.event, Event::SlotExpired { .. }) {
            let now = TimePoint::new(entry.time);
            if let Some(slot) = state.vacant().iter().find(|s| s.end() <= now) {
                panic!("{slot:?} outlived the sweep at {now:?}");
            }
        }
    }
    let report = engine.finish(state).report;
    assert_eq!(
        report.jobs_arrived,
        report.jobs_completed + report.backlog,
        "every arrived job completed or is still held"
    );
}

proptest! {
    // Each case is a whole engine run with a checkpoint per checked
    // event; CI raises the count through PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn strikes_repairs_and_completions_keep_the_market_consistent(
        seed in 0u64..1_000_000,
        p_idx in 0usize..3,
        amp in any::<bool>(),
        coalesce in any::<bool>(),
    ) {
        let config = config([0.0, 0.05, 0.15][p_idx], coalesce);
        if amp {
            check_run(Amp::new(), config, seed);
        } else {
            check_run(Alp::new(), config, seed);
        }
    }
}
