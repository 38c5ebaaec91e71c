//! Snapshot round-trip, corruption-rejection, and divergence-detection
//! tests, plus the committed golden fixture.
//!
//! The contract under test: every serialized state type survives an
//! encode/decode round trip unchanged; corrupted, truncated, or
//! version-mismatched bytes fail with *typed* errors (never panics,
//! never a silently wrong checkpoint); and replay against a tampered log
//! suffix reports the exact offending event pair.

use std::path::PathBuf;

use ecosched_core::MarketRepr;
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, Event, LogEntry};
use ecosched_federation::{
    Federation, FederationCheckpoint, FederationConfig, FederationState, RoutePolicy,
};
use ecosched_persist::{
    decode_snapshot, encode_snapshot, format, resume_and_replay, resume_from, run_with_snapshots,
    snapshot, Checkpoint, FederatedSnapshotMeta, PersistError, ReplayError, SnapshotMeta, Store,
    FORMAT_VERSION, MIN_FORMAT_VERSION,
};
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, RevocationConfig, SlotGenConfig};
use proptest::prelude::*;

/// The fixed configuration the engine fixtures were generated under.
/// Keep in sync with `tests/data/golden_v3.snap` — regenerate that
/// fixture (see `regenerate_golden_fixtures`) whenever the checkpoint
/// schema or this configuration changes. `tests/data/golden_v1.snap` and
/// `tests/data/golden_v2.snap` are **frozen**: they are the migration
/// witnesses — a container-format-1 snapshot whose market serialized in
/// the flat form, and a format-2 one whose `log` is the log itself rather
/// than the entries after a position, both carrying the row caches of the
/// optimizer their builds kept across cycles, of which this build reads
/// only that the section is there — and must never be regenerated by this
/// build.
fn golden_config() -> EngineConfig {
    EngineConfig {
        cycles: 3,
        revocation: RevocationConfig::per_slot(0.05),
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 8,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

const GOLDEN_SEED: u64 = 42;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v3.snap")
}

fn golden_v2_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v2.snap")
}

fn golden_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v1.snap")
}

/// The checkpoint the fixture stores: the golden run's second cycle
/// commit.
fn golden_checkpoint() -> EngineCheckpoint {
    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let (_, snapshots) = run_with_snapshots(&engine, GOLDEN_SEED, 1).expect("golden run");
    snapshots
        .get(1)
        .cloned()
        .expect("golden run has at least two cycle commits")
}

/// What a frozen fixture's checkpoint is once the legacy optimizer section
/// it must carry — its build kept one optimizer across cycles — is
/// dropped, as `Engine::resume` drops it: the form this build captures.
fn without_optimizer_section(mut checkpoint: EngineCheckpoint) -> EngineCheckpoint {
    assert!(
        checkpoint.optimizer.take().is_some(),
        "the frozen fixture witnesses a carried optimizer section"
    );
    checkpoint
}

/// Rewrites the current-format fixtures: the standalone engine snapshot
/// and the federated store directory (detached snapshot + log segment).
/// Run explicitly after an intentional schema change: `cargo test -p
/// ecosched-persist -- --ignored regenerate_golden_fixtures`, then
/// commit the files and bump this comment's rationale in the PR.
#[test]
#[ignore]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(golden_path().parent().expect("fixture dir")).expect("mkdir");
    snapshot::write(&golden_path(), &golden_checkpoint()).expect("write fixture");

    let _ = std::fs::remove_dir_all(golden_store_dir());
    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    Store::open(golden_store_dir(), 1)
        .expect("fixture dir")
        .save(&fed.checkpoint(&golden_fed_state(&fed)))
        .expect("write store fixture");
}

/// The committed fixture still decodes, identifies itself correctly,
/// matches a freshly generated checkpoint, and resumes into a run that
/// converges with the uninterrupted baseline.
#[test]
fn golden_fixture_decodes_and_resumes() {
    let checkpoint: EngineCheckpoint = snapshot::read(&golden_path()).expect(
        "golden fixture must decode; if the checkpoint schema changed \
         intentionally, rerun regenerate_golden_fixture and commit the file",
    );
    assert_eq!(checkpoint, golden_checkpoint(), "fixture drifted from code");

    let bytes = std::fs::read(golden_path()).expect("fixture bytes");
    assert_eq!(encode_snapshot(&checkpoint), bytes, "re-encoding drifted");
    let meta = snapshot::peek::<EngineCheckpoint>(&bytes).expect("fixture meta");
    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    assert_eq!(
        meta,
        SnapshotMeta {
            seed: GOLDEN_SEED,
            config_fp: engine.config_fingerprint(),
            events_processed: checkpoint.log.len() as u64,
            events_queued: checkpoint.queue.len() as u64,
        }
    );

    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume from fixture");
    assert_eq!(recovered, baseline);
}

/// The frozen format-2 fixture — whose `log` is `{"entries": […]}`, the
/// log itself — still decodes, as the tail after position zero; matches
/// the checkpoint this build generates once its optimizer section is
/// dropped; and resumes, section and all, into a run that converges with
/// the uninterrupted baseline.
#[test]
fn v2_fixture_decodes_as_a_whole_log_and_resumes() {
    let bytes = std::fs::read(golden_v2_path()).expect("frozen v2 fixture bytes");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        2,
        "the v2 fixture must stay a format-2 container; never regenerate it"
    );
    let checkpoint = decode_snapshot(&bytes).expect("v2 fixture must keep decoding");
    let checkpoint = without_optimizer_section(checkpoint);
    assert_eq!(
        checkpoint,
        golden_checkpoint(),
        "v2 fixture drifted from code"
    );
    assert!(checkpoint.log.whole().is_some());
    // Re-encoding moves it to the current format: the current fixture.
    assert_eq!(
        encode_snapshot(&checkpoint),
        std::fs::read(golden_path()).expect("fixture bytes")
    );

    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume v2");
    assert_eq!(recovered, baseline);
}

/// The optimizer section is read for its presence, never for its content:
/// the format-2 fixture with that section swapped for JSON no optimizer
/// ever wrote still decodes, to the same checkpoint.
#[test]
fn an_optimizer_section_of_any_content_decodes_and_is_dropped() {
    let bytes = std::fs::read(golden_v2_path()).expect("frozen v2 fixture bytes");
    let mut sections = format::decode(&bytes).expect("container");
    let state = sections
        .iter_mut()
        .find(|(tag, _)| *tag == EngineCheckpoint::STATE_SECTION)
        .expect("state section");
    let text = std::str::from_utf8(&state.1).expect("utf-8");
    let mut value: serde::Value = serde_json::from_str(text).expect("json");
    let serde::Value::Map(fields) = &mut value else {
        panic!("a checkpoint is a map");
    };
    let section = fields
        .iter_mut()
        .find(|(name, _)| name == "optimizer")
        .expect("the fixture carries the section");
    assert!(matches!(section.1, serde::Value::Map(_)));
    section.1 = serde_json::from_str(r#"[7,"rows",{"width":null}]"#).expect("json");
    state.1 = serde_json::to_string(&value).expect("json").into_bytes();

    let borrowed: Vec<_> = sections.iter().map(|(t, p)| (*t, p.as_slice())).collect();
    let checkpoint = decode_snapshot(&format::encode(&borrowed)).expect("still decodes");
    assert_eq!(
        without_optimizer_section(checkpoint),
        golden_checkpoint(),
        "nothing but the section changed"
    );
}

/// The frozen format-1 fixture — written by a build whose market only had
/// the flat representation — still decodes, matches the checkpoint this
/// build generates (market equality is representation-agnostic; the
/// optimizer section it carries is dropped), and resumes into an
/// interval-market engine whose completed run is byte-identical to the
/// uninterrupted baseline. This is the migration contract: v1 snapshots
/// carry over into the interval era losslessly.
#[test]
fn flat_v1_fixture_migrates_into_the_interval_engine() {
    let bytes = std::fs::read(golden_v1_path()).expect("frozen v1 fixture bytes");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        1,
        "the v1 fixture must stay a format-1 container; never regenerate it"
    );
    let as_read = decode_snapshot(&bytes).expect("v1 fixture must keep decoding");
    let checkpoint = without_optimizer_section(as_read);
    assert_eq!(
        checkpoint,
        golden_checkpoint(),
        "v1 fixture drifted from code"
    );

    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    assert_eq!(checkpoint.vacant.repr(), MarketRepr::Flat);
    assert_eq!(
        engine.resume(&checkpoint).expect("resume").vacant().repr(),
        MarketRepr::Interval,
        "the migration target is the interval market"
    );
    let meta = snapshot::peek::<EngineCheckpoint>(&bytes).expect("v1 fixture meta");
    assert_eq!(meta.config_fp, engine.config_fingerprint());

    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume v1 under interval");
    assert_eq!(recovered, baseline);
}

/// The configuration `tests/data/golden_fed_v2.ecosnap` was generated
/// under: two shards of a small market behind cheapest-probe routing.
fn golden_fed_config() -> FederationConfig {
    FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: true,
        ..FederationConfig::new(
            EngineConfig {
                slot_gen: SlotGenConfig {
                    slot_count: IntRange::new(24, 30),
                    ..SlotGenConfig::default()
                },
                ..golden_config()
            },
            2,
        )
    }
}

fn golden_fed_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_fed_v2.ecosnap")
}

/// Steps the golden federation to the capture point of the fixture:
/// shard 0's second cycle commit.
fn golden_fed_state(fed: &Federation<Amp>) -> FederationState {
    let mut state = fed.start(GOLDEN_SEED);
    let mut ticks = 0;
    while ticks < 2 {
        let entry = fed
            .step(&mut state)
            .expect("golden step")
            .expect("golden run reaches shard 0's second cycle commit");
        if entry.shard == 0 && matches!(entry.event, Event::CycleTick { .. }) {
            ticks += 1;
        }
    }
    state
}

/// The store fixture: what `Store<FederationCheckpoint>` leaves in a
/// directory — one snapshot detached from its log, and the log segment.
fn golden_store_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/store_v3")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecosched-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn resumes_into_the_baseline(fed: &Federation<Amp>, checkpoint: &FederationCheckpoint) {
    let baseline = fed.run(GOLDEN_SEED).expect("baseline");
    let mut resumed = fed.resume(checkpoint).expect("resume from fixture");
    while fed.step(&mut resumed).expect("step").is_some() {}
    let recovered = fed.finish(resumed);
    assert_eq!(recovered.merged.to_json(), baseline.merged.to_json());
    assert_eq!(recovered.report.to_json(), baseline.report.to_json());
}

/// The frozen format-2 federated fixture — a standalone file carrying
/// the merged log, every shard's log in full and every shard's optimizer
/// section — still decodes, identifies itself, matches a freshly generated
/// checkpoint once those sections are dropped, and resumes, as it was
/// read, into a run that converges with the uninterrupted baseline.
/// Never regenerate it; the current format is pinned by the store
/// fixture below.
#[test]
fn golden_federated_fixture_decodes_and_resumes() {
    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    let bytes = std::fs::read(golden_fed_path()).expect("federated fixture bytes");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
    let as_read: FederationCheckpoint =
        snapshot::decode(&bytes).expect("federated fixture must keep decoding");
    resumes_into_the_baseline(&fed, &as_read);
    let mut checkpoint = as_read;
    checkpoint.shards = checkpoint
        .shards
        .into_iter()
        .map(without_optimizer_section)
        .collect();
    assert_eq!(
        checkpoint,
        fed.checkpoint(&golden_fed_state(&fed)),
        "fixture drifted from code"
    );
    // Re-encoding moves it to the current format once, then is stable.
    let upgraded = snapshot::encode(&checkpoint);
    let again: FederationCheckpoint = snapshot::decode(&upgraded).expect("upgraded decodes");
    assert_eq!(snapshot::encode(&again), upgraded);
    assert_eq!(
        snapshot::peek::<FederationCheckpoint>(&bytes).expect("fixture meta"),
        FederatedSnapshotMeta {
            seed: GOLDEN_SEED,
            config_fp: fed.config_fingerprint(),
            shards: 2,
            merged_events: checkpoint.merged.len() as u64,
        }
    );
}

/// No checkpoint this build captures has an optimizer section: every
/// cycle plans with a fresh optimizer, so there is nothing to carry —
/// checked at every cycle commit of the golden engine run and of the
/// golden federated run, every shard.
#[test]
fn no_cycle_commit_checkpoint_carries_an_optimizer_section() {
    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let (_, snapshots) = run_with_snapshots(&engine, GOLDEN_SEED, 1).expect("golden run");
    assert_eq!(snapshots.len(), 3, "one per cycle");
    assert!(snapshots.iter().all(|c| c.optimizer.is_none()));

    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    let mut state = fed.start(GOLDEN_SEED);
    let mut commits = 0;
    while let Some(entry) = fed.step(&mut state).expect("golden step") {
        if matches!(entry.event, Event::CycleTick { .. }) {
            commits += 1;
            let checkpoint = fed.checkpoint(&state);
            assert!(checkpoint.shards.iter().all(|c| c.optimizer.is_none()));
        }
    }
    assert_eq!(commits, 6, "three cycles on each of two shards");
}

/// The daemon's format, pinned: a store directory written by this format
/// — a snapshot that records a log position and no entries, beside the
/// segment that holds them — loads into the whole checkpoint a fresh run
/// generates, resumes into the baseline, and is what saving that
/// checkpoint writes, byte for byte, snapshot and segment both.
/// Regenerate only after an intentional schema change (see
/// `regenerate_golden_fixtures`).
#[test]
fn golden_store_fixture_loads_resumes_and_rewrites_identically() {
    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    let fresh = fed.checkpoint(&golden_fed_state(&fed));

    let fixture = Store::<FederationCheckpoint>::open(golden_store_dir(), 1).expect("fixture dir");
    let [snapshot_path]: [PathBuf; 1] = fixture.list().expect("list").try_into().expect("one file");
    let bytes = std::fs::read(&snapshot_path).expect("snapshot bytes");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION
    );
    // On disk: positions only, for the merged log and every shard's.
    let detached: FederationCheckpoint = snapshot::decode(&bytes).expect("fixture decodes");
    assert_eq!(detached.merged.after.len, fresh.merged.len() as u64);
    assert!(detached.merged.entries.is_empty());
    for (shard, whole) in detached.shards.iter().zip(&fresh.shards) {
        assert_eq!(shard.log.after.len, whole.log.len() as u64);
        assert!(shard.log.entries.is_empty());
    }
    assert!(matches!(
        fed.resume(&detached),
        Err(ecosched_federation::FederationError::DetachedCheckpoint { .. })
    ));
    assert_eq!(
        snapshot::peek::<FederationCheckpoint>(&bytes).expect("fixture meta"),
        FederatedSnapshotMeta {
            seed: GOLDEN_SEED,
            config_fp: fed.config_fingerprint(),
            shards: 2,
            merged_events: fresh.merged.len() as u64,
        }
    );

    // Through the store: whole again, shard logs rebuilt from the merged.
    let latest = fixture.load_latest().expect("load").expect("a snapshot");
    assert!(latest.skipped.is_empty());
    assert_eq!(latest.checkpoint, fresh, "fixture drifted from code");
    resumes_into_the_baseline(&fed, &latest.checkpoint);

    let dir = scratch_dir("store");
    let store = Store::<FederationCheckpoint>::open(&dir, 1).expect("scratch dir");
    let rewritten = store.save(&latest.checkpoint).expect("save");
    assert_eq!(rewritten.file_name(), snapshot_path.file_name());
    assert_eq!(std::fs::read(&rewritten).expect("rewritten"), bytes);
    assert_eq!(
        std::fs::read(store.log_segment_path()).expect("rewritten segment"),
        std::fs::read(fixture.log_segment_path()).expect("fixture segment"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot taken under one configuration is refused by an engine
/// built under another — through the full byte path.
#[test]
fn foreign_config_is_refused_through_bytes() {
    let bytes = encode_snapshot(&golden_checkpoint());
    let other = Engine::new(
        EngineConfig {
            cycles: 4,
            ..golden_config()
        },
        Amp::new(),
    )
    .expect("config");
    match resume_from(&other, &bytes, &[]) {
        Err(ReplayError::Engine(e)) => {
            assert!(e.to_string().contains("different configuration"), "{e}");
        }
        other => panic!("expected a config-mismatch error, got {other:?}"),
    }
}

/// A tampered suffix entry is reported as `Diverged` with the exact
/// offending pair and whole-run index; a suffix longer than the run is
/// reported as `RunEnded`.
#[test]
fn divergence_names_the_offending_event() {
    let engine = Engine::new(golden_config(), Amp::new()).expect("config");
    let checkpoint = golden_checkpoint();
    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();

    // Tamper with one event mid-suffix.
    let tamper_at = suffix.len() / 2;
    let mut tampered = suffix.clone();
    tampered[tamper_at].event = Event::JobArrival { job: 4_000_000 };
    match resume_and_replay(&engine, &checkpoint, &tampered) {
        Err(ReplayError::Diverged {
            index,
            expected,
            actual,
        }) => {
            assert_eq!(index as usize, checkpoint.log.len() + tamper_at);
            assert_eq!(expected, tampered[tamper_at]);
            assert_eq!(actual, suffix[tamper_at]);
        }
        other => panic!("expected Diverged, got {other:?}"),
    }

    // Expect one event more than the run produces.
    let mut long = suffix.clone();
    long.push(LogEntry {
        time: i64::MAX,
        seq: u64::MAX,
        event: Event::CycleTick { cycle: u32::MAX },
    });
    match resume_and_replay(&engine, &checkpoint, &long) {
        Err(ReplayError::RunEnded { index, .. }) => {
            assert_eq!(index as usize, checkpoint.log.len() + suffix.len());
        }
        other => panic!("expected RunEnded, got {other:?}"),
    }
}

/// Simple state types round-trip through their canonical JSON.
#[test]
fn component_types_round_trip() {
    let checkpoint = golden_checkpoint();

    let rng_json = serde_json::to_string(&checkpoint.rng).expect("rng json");
    assert_eq!(
        serde_json::from_str::<ecosched_engine::RngState>(&rng_json).expect("rng back"),
        checkpoint.rng
    );
    for q in &checkpoint.queue {
        let json = serde_json::to_string(q).expect("queued json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::QueuedEventState>(&json).expect("queued back"),
            *q
        );
    }
    for a in &checkpoint.arrivals {
        let json = serde_json::to_string(a).expect("arrival json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::ArrivalState>(&json).expect("arrival back"),
            *a
        );
    }
    for p in &checkpoint.pending {
        let json = serde_json::to_string(p).expect("pending json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::PendingState>(&json).expect("pending back"),
            *p
        );
    }
    for l in &checkpoint.leases {
        let json = serde_json::to_string(l).expect("lease json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::LeaseState>(&json).expect("lease back"),
            *l
        );
    }
    let meta = checkpoint.meta();
    let json = serde_json::to_string(&meta).expect("meta json");
    assert_eq!(
        serde_json::from_str::<SnapshotMeta>(&json).expect("meta back"),
        meta
    );
}

proptest! {
    // Full engine runs per case; keep counts moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoints from random runs and capture points round-trip through
    /// the full byte container unchanged — covering every nested state
    /// type (slot lists, leases, windows, reports).
    #[test]
    fn checkpoints_round_trip_through_bytes(
        seed in 0u64..100_000,
        steps in 1usize..120,
        churn in any::<bool>(),
    ) {
        let config = EngineConfig {
            cycles: 3,
            revocation: if churn {
                RevocationConfig::per_slot(0.05)
            } else {
                RevocationConfig::none()
            },
            arrivals: ArrivalConfig::Poisson {
                mean_interarrival: 10.0,
                jobs: 10,
                job_gen: JobGenConfig::default(),
            },
            ..EngineConfig::default()
        };
        let engine = Engine::new(config, Amp::new()).expect("config");
        let mut state = engine.start(seed);
        for _ in 0..steps {
            if engine.step(&mut state).expect("step").is_none() {
                break;
            }
        }
        let checkpoint = engine.checkpoint(&state);
        prop_assert!(checkpoint.optimizer.is_none());
        let bytes = encode_snapshot(&checkpoint);
        let back = decode_snapshot(&bytes).expect("round trip");
        prop_assert_eq!(&back, &checkpoint);
        // Idempotent: re-encoding the decoded checkpoint is byte-stable.
        prop_assert_eq!(encode_snapshot(&back), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any truncation of a real snapshot fails with a typed error — no
    /// panic, no partial state. `encode_snapshot` of the golden
    /// checkpoint exercises the interval-form market section; the
    /// frozen fixture exercises the v1 flat-form one.
    #[test]
    fn truncation_is_rejected(cut_permille in 0u32..1000) {
        let bytes = encode_snapshot(&golden_checkpoint());
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err());

        let v1 = std::fs::read(golden_v1_path()).expect("v1 fixture bytes");
        let cut = (v1.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(decode_snapshot(&v1[..cut]).is_err());
    }

    /// Any single corrupted byte in a real snapshot fails with a typed
    /// error — in both the interval-form and v1 flat-form containers.
    #[test]
    fn byte_corruption_is_rejected(pos_permille in 0u32..1000, mask in 1u8..=255) {
        let mut bytes = encode_snapshot(&golden_checkpoint());
        let pos = (bytes.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= mask;
        prop_assert!(decode_snapshot(&bytes).is_err());

        let mut v1 = std::fs::read(golden_v1_path()).expect("v1 fixture bytes");
        let pos = (v1.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(v1.len() - 1);
        v1[pos] ^= mask;
        prop_assert!(decode_snapshot(&v1).is_err());
    }
}

/// Versions outside the supported window are refused by name, not
/// misparsed — both a future version and one below the decode floor.
#[test]
fn wrong_version_is_refused() {
    let bytes = encode_snapshot(&golden_checkpoint());
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION,
        "this build writes the current format version"
    );
    for bad in [FORMAT_VERSION + 1, MIN_FORMAT_VERSION - 1] {
        let mut patched = bytes.clone();
        patched[8..12].copy_from_slice(&bad.to_le_bytes());
        match decode_snapshot(&patched) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, bad);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion for {bad}, got {other:?}"),
        }
    }
}

/// Checksummed-but-nonsense JSON payloads fail as `Corrupt`, not panics.
#[test]
fn valid_container_with_garbage_payload_is_corrupt() {
    let bytes = format::encode(&[
        (EngineCheckpoint::META_SECTION, b"not json".as_slice()),
        (EngineCheckpoint::STATE_SECTION, b"{}".as_slice()),
    ]);
    assert!(matches!(
        snapshot::peek::<EngineCheckpoint>(&bytes),
        Err(PersistError::Corrupt { .. })
    ));
    assert!(matches!(
        decode_snapshot(&bytes),
        Err(PersistError::Corrupt { .. })
    ));
}

/// A flat-market checkpoint whose minting cursor was wound back below a
/// live slot id passes every checksum yet is refused as `Corrupt`: the
/// legacy `{slots, next_id}` payload is validated as fully as the
/// interval one, so a restart never mints an id that is already live.
#[test]
fn flat_market_with_a_stale_minting_cursor_is_corrupt() {
    let mut checkpoint = golden_checkpoint();
    checkpoint.vacant = checkpoint.vacant.with_repr(MarketRepr::Flat);
    let text = serde_json::to_string(&checkpoint).expect("json");
    let serde::Value::Map(mut fields) = serde_json::from_str(&text).expect("value") else {
        panic!("a checkpoint serializes as a map");
    };
    let vacant = fields
        .iter_mut()
        .find(|(k, _)| k == "vacant")
        .expect("vacant");
    let serde::Value::Map(market) = &mut vacant.1 else {
        panic!("a flat market serializes as a map");
    };
    let cursor = market
        .iter_mut()
        .find(|(k, _)| k == "next_id")
        .expect("next_id");
    cursor.1 = serde::Value::Int(0);

    let state = serde_json::to_string(&serde::Value::Map(fields)).expect("json");
    let bytes = format::encode(&[
        (EngineCheckpoint::META_SECTION, b"{}".as_slice()),
        (EngineCheckpoint::STATE_SECTION, state.as_bytes()),
    ]);
    match decode_snapshot(&bytes) {
        Err(PersistError::Corrupt { detail, .. }) => {
            assert!(detail.contains("next_id 0 is not above"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
