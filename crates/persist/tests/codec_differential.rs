//! The streamed JSON reader against the streamed writer, on what the
//! snapshot path stores.
//!
//! `Serialize::write_json` (what `snapshot::encode` calls) and
//! `Deserialize::read_json` (what `snapshot::decode` calls) each cross the
//! text in one pass, and no tree stands between them and the bytes. So
//! they are pinned to each other here, on real engine and federation
//! checkpoints taken mid-churn — in both market orderings, with the log
//! attached and detached: a checkpoint decodes from its own bytes to
//! itself, and re-encodes to the same bytes. The reader must not lean on
//! the writer's layout either: the same text pretty-printed, with the keys
//! of every map reversed, and with whitespace between every two tokens
//! decodes to the same checkpoint. On random trees, `to_string_pretty` is
//! pinned to the tree walk it replaced. The frozen fixtures in
//! `snapshot_roundtrip.rs` pin the bytes themselves.

use ecosched_core::MarketRepr;
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, LogPosition};
use ecosched_federation::{Federation, FederationCheckpoint, FederationConfig, RoutePolicy};
use ecosched_persist::{snapshot, Checkpoint};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, RevocationConfig, SlotGenConfig};
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The indented form `to_string_pretty` gave when it walked a tree: the
/// tree's containers one entry per line, every token as the compact
/// writer prints it.
fn write_pretty(out: &mut Vec<u8>, value: &Value, depth: usize) {
    let newline = |out: &mut Vec<u8>, depth: usize| {
        out.push(b'\n');
        out.resize(out.len() + 2 * depth, b' ');
    };
    match value {
        Value::Seq(items) if !items.is_empty() => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline(out, depth + 1);
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.push(b']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push(b'{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline(out, depth + 1);
                key.write_json(out);
                out.extend_from_slice(b": ");
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.push(b'}');
        }
        scalar_or_empty => scalar_or_empty.write_json(out),
    }
}

/// `value` with the entries of every map of two or more keys in reverse
/// order.
fn reversed(value: Value) -> Value {
    match value {
        Value::Seq(items) => Value::Seq(items.into_iter().map(reversed).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .rev()
                .map(|(key, item)| (key, reversed(item)))
                .collect(),
        ),
        scalar => scalar,
    }
}

/// `text` with whitespace — a cycle of space, tab, newline and carriage
/// return runs — after every `[`, `{`, `,` and `:` and before every `]`
/// and `}` outside strings.
fn spaced(text: &str) -> String {
    const RUNS: [&str; 4] = [" ", "\t ", "\n", "\r\n  "];
    let mut out = String::with_capacity(2 * text.len());
    let (mut in_string, mut escaped, mut n) = (false, false, 0);
    for c in text.chars() {
        if in_string {
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            out.push(c);
            continue;
        }
        n += 1;
        if matches!(c, ']' | '}') {
            out.push_str(RUNS[n % 4]);
        }
        out.push(c);
        if matches!(c, '[' | '{' | ',' | ':') {
            out.push_str(RUNS[(n + 1) % 4]);
        }
        in_string = c == '"';
    }
    out
}

/// A checkpoint decodes from its bytes to itself and re-encodes to the
/// same bytes; its state decodes to itself from three re-printings.
fn assert_round_trips<C: Checkpoint + PartialEq + std::fmt::Debug>(checkpoint: &C) {
    let bytes = snapshot::encode(checkpoint);
    let decoded = snapshot::decode::<C>(&bytes).expect("decodes");
    assert_eq!(&decoded, checkpoint);
    assert!(
        snapshot::encode(&decoded) == bytes,
        "decoded checkpoint re-encodes to other bytes"
    );

    let text = serde_json::to_string(checkpoint).expect("state");
    let tree: Value = serde_json::from_str(&text).expect("state parses");
    for (form, variant) in [
        (
            "pretty",
            serde_json::to_string_pretty(checkpoint).expect("pretty"),
        ),
        (
            "reversed",
            serde_json::to_string(&reversed(tree)).expect("text"),
        ),
        ("spaced", spaced(&text)),
    ] {
        let back: C = serde_json::from_str(&variant).unwrap_or_else(|e| panic!("{form}: {e}"));
        assert_eq!(&back, checkpoint, "{form}");
    }
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

    /// What a tree prints parses back to the same text, pretty or compact
    /// or spaced; the pretty form is the old tree walk's, byte for byte;
    /// and a vector, a tuple and an option of trees frame it the way the
    /// tree's own sequences do.
    #[test]
    fn random_trees_read_back_as_they_print(words in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut tape = words.into_iter();
        let a = tree(&mut tape, 0);
        let b = tree(&mut tape, 0);
        let text = serde_json::to_string(&a).expect("text");
        // Non-finite floats print as `null` and a non-negative `Int`
        // reads back as `UInt`, so the tree is not a fixed point of a
        // round trip; the text is, and the other forms say the same.
        let back: Value = serde_json::from_str(&text).expect("output parses");
        prop_assert_eq!(serde_json::to_string(&back).expect("text"), text.clone());
        let pretty = serde_json::to_string_pretty(&a).expect("pretty");
        let mut walked = Vec::new();
        write_pretty(&mut walked, &a, 0);
        walked.push(b'\n');
        prop_assert_eq!(&pretty, &String::from_utf8(walked).expect("utf-8"));
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty).expect("pretty parses"), back.clone());
        prop_assert_eq!(serde_json::from_str::<Value>(&spaced(&text)).expect("spaced parses"), back);
        let framed = (vec![a.clone(), b.clone()], Some(a.clone()), None::<Value>);
        let b_text = serde_json::to_string(&b).expect("text");
        prop_assert_eq!(
            serde_json::to_string(&framed).expect("text"),
            format!("[[{text},{b_text}],{text},null]")
        );
    }

    /// Engine checkpoints from random capture points of a churned run.
    #[test]
    fn engine_checkpoints_round_trip(
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
            assert_round_trips(&checkpoint);
            assert_round_trips(&detached(&checkpoint));
        }
    }

    /// Federation checkpoints: the same, around two shard checkpoints, the
    /// merged log and the cross-shard windows.
    #[test]
    fn federation_checkpoints_round_trip(
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
            assert_round_trips(&checkpoint);
            assert_round_trips(&detached(&checkpoint));
        }
    }
}
