//! Trimming cannot change a run. A run reads nothing of its logs but the
//! newest entry, so a federation whose logs are trimmed after arbitrary
//! steps — as the service daemon trims them — must return every entry,
//! hash its merged log after every step and finish with the report of an
//! untrimmed twin fed the same submissions, and a checkpoint of the
//! trimmed run, taken anywhere and sent through its wire form, must
//! resume into that same report.
//!
//! The submissions are external, as the daemon's are, at ticks around the
//! merged log's frontier — some behind it — so the arrival clamp and the
//! order-safe injection time, which read the newest merged entry, decide
//! where they land.

use ecosched_core::{Perf, Price, ResourceRequest, TimeDelta, TimePoint};
use ecosched_engine::{ArrivalConfig, EngineConfig};
use ecosched_federation::{
    Federation, FederationCheckpoint, FederationConfig, FederationState, RoutePolicy,
};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, RevocationConfig, SlotGenConfig};
use proptest::prelude::*;

fn config(shards: u32, route: usize, cross_shard: bool) -> FederationConfig {
    let base = EngineConfig {
        cycles: 5,
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(4, 8),
            ..SlotGenConfig::default()
        },
        revocation: RevocationConfig::per_slot(0.05),
        arrivals: ArrivalConfig::External,
        ..EngineConfig::default()
    };
    FederationConfig {
        route: [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastBacklog,
            RoutePolicy::CheapestProbe,
        ][route],
        cross_shard,
        ..FederationConfig::new(base, shards)
    }
}

/// One step of the script: submit a job `(nodes, wall time, tick offset
/// from the frontier)` or not, step the run `steps` times, and then trim
/// the trimmed run's logs or not.
type Op = (Option<(usize, i64, i64)>, usize, bool);

fn op() -> impl Strategy<Value = Op> {
    (
        (any::<bool>(), 1usize..5, 10i64..60, -40i64..40),
        0usize..12,
        any::<bool>(),
    )
        .prop_map(|((submit, nodes, length, offset), steps, trim)| {
            (submit.then_some((nodes, length, offset)), steps, trim)
        })
}

/// Entries held by the merged log and each shard's.
fn held(state: &FederationState) -> usize {
    (0..state.shard_count())
        .map(|s| state.shard(s).log().entries.len())
        .chain([state.merged().entries.len()])
        .max()
        .unwrap_or(0)
}

/// Applies one op's submission and steps to `runs` — the untrimmed twin
/// first, whose frontier sets the submission's tick — checking that every
/// run answers as the twin does.
fn apply(fed: &Federation<Amp>, runs: &mut [&mut FederationState], op: &Op) {
    let (submit, steps, _) = *op;
    if let Some((nodes, length, offset)) = submit {
        let request = ResourceRequest::new(
            nodes,
            TimeDelta::new(length),
            Perf::from_f64(0.5),
            Price::from_credits(60),
        )
        .unwrap();
        let at =
            TimePoint::new((runs[0].merged().entries.last().map_or(0, |e| e.time) + offset).max(0));
        let placed: Vec<_> = runs
            .iter_mut()
            .map(|run| format!("{:?}", fed.submit(run, request, at)))
            .collect();
        assert!(placed.iter().all(|p| *p == placed[0]), "{placed:?}");
    }
    for _ in 0..steps {
        let entries: Vec<_> = runs.iter_mut().map(|run| fed.step(run).unwrap()).collect();
        assert!(entries.iter().all(|e| *e == entries[0]), "{entries:?}");
        let hashes: Vec<_> = runs.iter().map(|run| run.merged().fnv1a_hash()).collect();
        assert!(hashes.iter().all(|h| *h == hashes[0]), "{hashes:?}");
    }
}

/// Steps `runs` in lockstep to the end, checking every entry as
/// [`apply`] does, and returns each one's final report.
fn finish_all(fed: &Federation<Amp>, mut runs: Vec<FederationState>) -> Vec<String> {
    loop {
        let entries: Vec<_> = runs.iter_mut().map(|run| fed.step(run).unwrap()).collect();
        assert!(entries.iter().all(|e| *e == entries[0]), "{entries:?}");
        if entries[0].is_none() {
            break;
        }
    }
    runs.into_iter()
        .map(|run| fed.finish(run).report.to_json())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trimming_cannot_change_a_run(
        seed in 0u64..10_000,
        shards in 1u32..4,
        route in 0usize..3,
        cross_shard in any::<bool>(),
        ops in prop::collection::vec(op(), 1..24),
        capture in any::<prop::sample::Index>(),
    ) {
        let fed = Federation::new(config(shards, route, cross_shard), Amp::new()).unwrap();
        let mut twin = fed.start(seed);
        let mut trimmed = fed.start(seed);
        let capture = capture.index(ops.len());
        let mut resumed: Option<FederationState> = None;
        for (i, op) in ops.iter().enumerate() {
            match resumed.as_mut() {
                Some(resumed) => apply(&fed, &mut [&mut twin, &mut trimmed, resumed], op),
                None => apply(&fed, &mut [&mut twin, &mut trimmed], op),
            }
            if op.2 {
                trimmed.trim_logs();
                prop_assert!(held(&trimmed) <= 1);
                prop_assert_eq!(trimmed.merged().len(), twin.merged().len());
            }
            if i == capture {
                trimmed.trim_logs();
                let checkpoint = fed.checkpoint(&trimmed);
                let wire = serde_json::to_string(&checkpoint).unwrap();
                let decoded: FederationCheckpoint = serde_json::from_str(&wire).unwrap();
                prop_assert_eq!(&decoded, &checkpoint);
                resumed = Some(fed.resume(&decoded).unwrap());
            }
        }
        let reports = finish_all(&fed, vec![twin, trimmed, resumed.expect("captured")]);
        prop_assert_eq!(&reports[1], &reports[0]);
        prop_assert_eq!(&reports[2], &reports[0]);
    }
}
