//! A snapshot written from the live state is the snapshot of its
//! checkpoint. The daemon saves through `Store::save_with` and the
//! engine's and federation's live writers, which never build the
//! checkpoint; the checkpoint types write through the same parts. For
//! engine runs and for federations of one to four shards under churn,
//! stopped at a random step with their logs whole or trimmed, a file
//! saved the live way must hold `encode(&checkpoint(state))` and equal
//! the one `Store::save` writes.

use std::path::PathBuf;

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig};
use ecosched_federation::{Federation, FederationConfig, RoutePolicy};
use ecosched_persist::{snapshot, Checkpoint, FederatedSnapshotMeta, SnapshotMeta, Store};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, RevocationConfig, SlotGenConfig};
use proptest::prelude::*;
use serde::Serialize;

fn churn_config() -> EngineConfig {
    EngineConfig {
        cycles: 4,
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(24, 40),
            ..SlotGenConfig::default()
        },
        revocation: RevocationConfig::per_slot(0.08),
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 6.0,
            jobs: 24,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

/// The JSON `value` writes.
fn json(value: &impl Serialize) -> Vec<u8> {
    let mut out = Vec::new();
    value.write_json(&mut out);
    out
}

/// One capture, both ways: `live` must write the checkpoint's JSON, and
/// a store saving it under `meta` after `events` events must write
/// `snapshot::encode` of the checkpoint — the file `Store::save` writes —
/// under the same name.
fn written_live_as_owned<C: Checkpoint>(
    tag: &str,
    checkpoint: &C,
    events: u64,
    meta: &C::Meta,
    live: &impl Serialize,
) where
    C::Meta: PartialEq + std::fmt::Debug,
{
    assert!(json(live) == json(checkpoint), "live JSON differs");
    assert_eq!(meta, &checkpoint.meta());

    let dir = std::env::temp_dir().join(format!("ecosched-live-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let owned = Store::<C>::open(dir.join("owned"), 1).expect("scratch store");
    let written = Store::<C>::open(dir.join("live"), 1).expect("scratch store");
    let owned = owned.save(checkpoint).expect("save");
    let written = written
        .save_with(events, meta, |out| live.write_json(out))
        .expect("save live");
    assert_eq!(owned.file_name(), written.file_name());
    let read = |path: &PathBuf| std::fs::read(path).expect("saved snapshot");
    let bytes = read(&written);
    assert!(
        bytes == snapshot::encode(checkpoint),
        "live snapshot differs"
    );
    assert!(bytes == read(&owned), "saved files differ");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    // Each case is a run to a random step and two saves; CI's
    // failure-injection job raises the count through PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn an_engine_snapshot_written_live_is_its_checkpoints(
        seed in 0u64..1_000_000,
        steps in 0usize..400,
        trim in any::<bool>(),
    ) {
        let engine = Engine::new(churn_config(), Amp::new()).expect("valid config");
        let mut state = engine.start(seed);
        for _ in 0..steps {
            if engine.step(&mut state).expect("step").is_none() {
                break;
            }
        }
        if trim {
            state.trim_log();
        }
        let meta = SnapshotMeta {
            seed,
            config_fp: engine.config_fingerprint(),
            events_processed: state.events_processed() as u64,
            events_queued: state.events_queued() as u64,
        };
        written_live_as_owned(
            "engine",
            &engine.checkpoint(&state),
            meta.events_processed,
            &meta,
            &engine.live_checkpoint(&state),
        );
    }

    #[test]
    fn a_federation_snapshot_written_live_is_its_checkpoints(
        seed in 0u64..1_000_000,
        shards in 1u32..=4,
        steps in 0usize..600,
        trim in any::<bool>(),
    ) {
        let config = FederationConfig {
            route: RoutePolicy::CheapestProbe,
            cross_shard: true,
            ..FederationConfig::new(churn_config(), shards)
        };
        let fed = Federation::new(config, Amp::new()).expect("valid config");
        let mut state = fed.start(seed);
        for _ in 0..steps {
            if fed.step(&mut state).expect("step").is_none() {
                break;
            }
        }
        if trim {
            state.trim_logs();
        }
        let meta = FederatedSnapshotMeta::of_run(&fed, &state);
        written_live_as_owned(
            "federation",
            &fed.checkpoint(&state),
            meta.merged_events,
            &meta,
            &fed.live_checkpoint(&state),
        );
    }
}
