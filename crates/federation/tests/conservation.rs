//! Conservation of a routing action. A submission that splits a job
//! across shards carves each part's window out of its shard's vacant
//! market, then leases every part or returns every part before `submit`
//! returns. So after every submission, on every shard:
//!
//! * vacant ticks = before − the used ticks of that shard's leased parts;
//! * `jobs_scheduled` rose by exactly those parts;
//!
//! and across the federation every carved part was leased or returned:
//! `reservations_reserved == committed parts + reservations_released`.

use ecosched_core::{Perf, Price, ResourceRequest, TimeDelta, Window};
use ecosched_engine::{ArrivalConfig, EngineConfig, RunState};
use ecosched_federation::{Federation, FederationConfig, Placement, RouteCounters, RoutePolicy};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, RevocationConfig, SlotGenConfig};
use proptest::prelude::*;

/// Shards too small for most wide jobs, under light churn, so the
/// cross-shard path fires, commits, and returns misaligned rounds.
fn config(shards: u32, align_tolerance: i64) -> FederationConfig {
    let base = EngineConfig {
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(3, 5),
            same_start_probability: 0.7,
            ..SlotGenConfig::default()
        },
        revocation: RevocationConfig::per_slot(0.05),
        arrivals: ArrivalConfig::External,
        ..EngineConfig::default()
    };
    FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: true,
        align_tolerance,
        ..FederationConfig::new(base, shards)
    }
}

fn vacant_ticks(state: &RunState) -> i64 {
    state
        .vacant()
        .iter()
        .map(|s| s.span().length().ticks())
        .sum()
}

fn used_ticks(window: &Window) -> i64 {
    window
        .slots()
        .iter()
        .map(|ws| window.used_span(ws).length().ticks())
        .sum()
}

/// One submission after some steps: `(steps, nodes, wall time)`.
type Op = (usize, usize, i64);

/// Runs `ops` against a fresh federation, checking conservation after
/// every submission, and returns the router counters at the end.
fn drive(seed: u64, shards: u32, align_tolerance: i64, ops: &[Op]) -> RouteCounters {
    let fed = Federation::new(config(shards, align_tolerance), Amp::new()).unwrap();
    let mut state = fed.start(seed);
    let count = shards as usize;
    for &(steps, nodes, length) in ops {
        for _ in 0..steps {
            if fed.step(&mut state).unwrap().is_none() {
                break;
            }
        }
        let ticks: Vec<i64> = (0..count).map(|s| vacant_ticks(state.shard(s))).collect();
        let scheduled: Vec<u64> = (0..count)
            .map(|s| state.shard(s).report_so_far().jobs_scheduled)
            .collect();
        let request = ResourceRequest::new(
            nodes,
            TimeDelta::new(length),
            Perf::from_f64(0.5),
            Price::from_credits(60),
        )
        .unwrap();
        let at = state.last_time();
        let (_, placement) = fed.submit(&mut state, request, at).unwrap();

        let mut taken = vec![0i64; count];
        let mut parts = vec![0u64; count];
        if let Placement::Cross(window) = &placement {
            for part in &window.parts {
                taken[part.shard as usize] += used_ticks(&part.window);
                parts[part.shard as usize] += 1;
            }
        }
        for s in 0..count {
            assert_eq!(
                vacant_ticks(state.shard(s)),
                ticks[s] - taken[s],
                "shard {s}'s market after {placement:?}"
            );
            assert_eq!(
                state.shard(s).report_so_far().jobs_scheduled,
                scheduled[s] + parts[s],
                "shard {s}'s scheduled jobs after {placement:?}"
            );
        }
        let routing = state.counters();
        let committed: u64 = state
            .cross_shard()
            .iter()
            .map(|w| w.parts.len() as u64)
            .sum();
        assert_eq!(
            routing.reservations_reserved,
            committed + routing.reservations_released,
            "a carved part was neither leased nor returned: {routing:?}"
        );
    }
    state.counters().clone()
}

/// The property is not vacuous: on one fixed scenario, parts are both
/// leased and returned.
#[test]
fn the_scenario_leases_some_parts_and_returns_others() {
    let ops: Vec<Op> = (0..24)
        .map(|i| (i % 5, 4 + i % 5, 20 + 5 * (i as i64 % 4)))
        .collect();
    let routing = drive(0, 4, 5, &ops);
    assert!(routing.cross_shard_committed > 0, "{routing:?}");
    assert!(routing.reservations_released > 0, "{routing:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_routing_action_conserves_every_shard_market(
        seed in 0u64..10_000,
        shards in 2u32..5,
        tolerance in 0usize..3,
        ops in prop::collection::vec((0usize..12, 2usize..10, 10i64..61), 1..24),
    ) {
        drive(seed, shards, [0, 2, 5][tolerance], &ops);
    }
}
