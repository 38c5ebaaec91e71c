//! The streamed JSON writer against the tree writer, on what the snapshot
//! path stores.
//!
//! `Serialize::write_json` (what `serde_json::to_string` / `to_vec` and
//! `snapshot::encode` call) writes a value in one pass; `to_value`
//! followed by printing the tree is the form `Deserialize` reads and the
//! older of the two. Every derived impl generates both, and three
//! hand-written ones (`SlotList`, `EngineConfig`, `LogTail`) carry both, so
//! the two are pinned to each other here: on random trees, and on real
//! engine and federation checkpoints taken mid-churn — in both market
//! orderings, with the log attached and detached. The frozen fixtures in
//! `snapshot_roundtrip.rs` pin the bytes themselves.

use ecosched_core::MarketRepr;
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, LogPosition};
use ecosched_federation::{Federation, FederationCheckpoint, FederationConfig, RoutePolicy};
use ecosched_persist::{format, snapshot, Checkpoint};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, RevocationConfig, SlotGenConfig};
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The bytes the tree writer gives.
fn tree_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_vec(&serde_json::to_value(value).expect("tree")).expect("tree bytes")
}

/// Streamed bytes = tree bytes, section by section and as a container, and
/// the container decodes to the checkpoint.
fn assert_pinned<C: Checkpoint + PartialEq + std::fmt::Debug>(checkpoint: &C) {
    let state = tree_bytes(checkpoint);
    assert_eq!(
        String::from_utf8(serde_json::to_vec(checkpoint).expect("streamed")),
        String::from_utf8(state.clone()),
        "streamed state vs tree"
    );
    let from_tree = format::encode(&[
        (C::META_SECTION, &tree_bytes(&checkpoint.meta())),
        (C::STATE_SECTION, &state),
    ]);
    assert!(
        snapshot::encode(checkpoint) == from_tree,
        "container written in place vs built from the tree bytes"
    );
    assert_eq!(
        &snapshot::decode::<C>(&from_tree).expect("decodes"),
        checkpoint
    );
}

/// `checkpoint` with its log moved out, as a rotated store writes it.
fn detached<C: Checkpoint>(checkpoint: &C) -> C {
    let whole = checkpoint.log().whole().expect("a fresh checkpoint");
    let at = LogPosition::after(whole);
    let mut detached = checkpoint.clone();
    detached.detach(at);
    detached
}

fn churn_config(jobs: u32) -> EngineConfig {
    EngineConfig {
        cycles: 3,
        revocation: RevocationConfig::per_slot(0.05),
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(24, 40),
            ..SlotGenConfig::default()
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 6.0,
            jobs,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

/// A random tree off a tape of words: every variant, keys and strings
/// that need escaping, floats JSON cannot say.
fn tree(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    const TEXT: [&str; 6] = ["", "plain", "q\"uote", "back\\slash\n", "\u{1}\t", "日本 ∑"];
    let mut word = || tape.next().unwrap_or(0);
    let kind = word() % if depth < 4 { 8 } else { 6 };
    match kind {
        0 => Value::Null,
        1 => Value::Bool(word() % 2 == 0),
        2 => Value::Int(word() as i64),
        3 => Value::UInt(word()),
        4 => Value::Float(f64::from_bits(word())),
        5 => Value::Str(TEXT[(word() % 6) as usize].to_string()),
        6 => Value::Seq((0..word() % 4).map(|_| tree(tape, depth + 1)).collect()),
        _ => Value::Map(
            (0..word() % 4)
                .map(|_| {
                    let key = TEXT[(tape.next().unwrap_or(0) % 6) as usize].to_string();
                    (key, tree(tape, depth + 1))
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// What a tree prints parses back to the same text, pretty or compact,
    /// and a vector, a tuple and an option of trees frame it the way the
    /// tree's own sequences do.
    #[test]
    fn random_trees_stream_as_they_print(words in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut tape = words.into_iter();
        let a = tree(&mut tape, 0);
        let b = tree(&mut tape, 0);
        let text = serde_json::to_string(&a).expect("text");
        // Non-finite floats print as `null` and a non-negative `Int`
        // reads back as `UInt`, so the tree is not a fixed point of a
        // round trip; the text is, and the pretty form says the same.
        let back: Value = serde_json::from_str(&text).expect("output parses");
        prop_assert_eq!(serde_json::to_string(&back).expect("text"), text.clone());
        let pretty = serde_json::to_string_pretty(&a).expect("pretty");
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty).expect("pretty parses"), back);
        let framed = (vec![a.clone(), b.clone()], Some(a.clone()), None::<Value>);
        prop_assert_eq!(
            String::from_utf8(serde_json::to_vec(&framed).expect("streamed")),
            String::from_utf8(tree_bytes(&framed))
        );
        let b_text = serde_json::to_string(&b).expect("text");
        prop_assert_eq!(
            serde_json::to_string(&framed).expect("text"),
            format!("[[{text},{b_text}],{text},null]")
        );
    }

    /// Engine checkpoints from random capture points of a churned run.
    #[test]
    fn engine_checkpoints_stream_as_their_trees_print(
        seed in 0u64..100_000,
        steps in 1usize..160,
    ) {
        let engine = Engine::new(churn_config(12), Amp::new()).expect("config");
        let mut state = engine.start(seed);
        for _ in 0..steps {
            if engine.step(&mut state).expect("step").is_none() {
                break;
            }
        }
        let checkpoint: EngineCheckpoint = engine.checkpoint(&state);
        prop_assert_eq!(checkpoint.vacant.repr(), MarketRepr::Interval);
        let flat = EngineCheckpoint {
            vacant: checkpoint.vacant.clone().with_repr(MarketRepr::Flat),
            ..checkpoint.clone()
        };
        for checkpoint in [checkpoint, flat] {
            assert_pinned(&checkpoint);
            assert_pinned(&detached(&checkpoint));
        }
    }

    /// Federation checkpoints: the same, around two shard checkpoints, the
    /// merged log and the cross-shard windows.
    #[test]
    fn federation_checkpoints_stream_as_their_trees_print(
        seed in 0u64..100_000,
        steps in 1usize..300,
    ) {
        let config = FederationConfig {
            route: RoutePolicy::CheapestProbe,
            cross_shard: true,
            ..FederationConfig::new(churn_config(16), 2)
        };
        let fed = Federation::new(config, Amp::new()).expect("config");
        let mut state = fed.start(seed);
        for _ in 0..steps {
            if fed.step(&mut state).expect("step").is_none() {
                break;
            }
        }
        let checkpoint: FederationCheckpoint = fed.checkpoint(&state);
        let mut flat = checkpoint.clone();
        for shard in &mut flat.shards {
            shard.vacant = shard.vacant.clone().with_repr(MarketRepr::Flat);
        }
        for checkpoint in [checkpoint, flat] {
            assert_pinned(&checkpoint);
            assert_pinned(&detached(&checkpoint));
        }
    }
}
