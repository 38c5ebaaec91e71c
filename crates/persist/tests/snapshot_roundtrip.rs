//! Snapshot round-trip, corruption-rejection, and divergence-detection
//! tests, plus the committed golden fixture.
//!
//! The contract under test: every serialized state type survives an
//! encode/decode round trip unchanged; corrupted, truncated, or
//! version-mismatched bytes fail with *typed* errors (never panics,
//! never a silently wrong checkpoint); and replay against a tampered log
//! suffix reports the exact offending event pair.

use std::path::PathBuf;

use ecosched_core::Slot;
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
/// Keep in sync with `tests/data/golden_v5.snap` — regenerate that
/// fixture (see `regenerate_golden_fixtures`) whenever the checkpoint
/// schema or this configuration changes. `tests/data/golden_v1.snap`
/// through `tests/data/golden_v4.snap` are **frozen**: they are the
/// migration witnesses — a container-format-1 snapshot whose market
/// serialized in the flat form, and a format-2 one whose `log` is the log
/// itself rather than the entries after a position, both carrying the row
/// caches of the optimizer their builds kept across cycles, of which this
/// build reads only that the section is there; a format-3 one, whose
/// sections are checksummed a byte at a time; and a format-4 one, the
/// last whose store files could leave their log to a segment — and must
/// never be regenerated by this build.
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
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v5.snap")
}

fn golden_v4_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v4.snap")
}

fn golden_v3_path() -> PathBuf {
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
/// and the federated store directory (one snapshot of the golden state,
/// its logs trimmed, and no log segment). The fixtures of earlier formats
/// are frozen: a format bump adds a new pair beside them.
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
        .save(&fed.checkpoint(&golden_trimmed_state(&fed)))
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

/// The container version a fixture's header names.
fn header_version(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

/// A frozen standalone fixture of format 3 or 4 still decodes, matches
/// the checkpoint this build generates, re-encodes to the current fixture
/// — the same sections, only the container moved — and resumes into a
/// run that converges with the uninterrupted baseline.
fn frozen_fixture_decodes_and_resumes(path: PathBuf, version: u32) {
    let bytes = std::fs::read(path).expect("frozen fixture bytes");
    assert_eq!(
        header_version(&bytes),
        version,
        "a frozen fixture must keep its format; never regenerate it"
    );
    let checkpoint = decode_snapshot(&bytes).expect("a frozen fixture must keep decoding");
    assert_eq!(checkpoint, golden_checkpoint(), "fixture drifted from code");
    let current = std::fs::read(golden_path()).expect("fixture bytes");
    assert_eq!(encode_snapshot(&checkpoint), current);
    assert_eq!(bytes.len(), current.len());

    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume a frozen fixture");
    assert_eq!(recovered, baseline);
}

/// The frozen format-3 fixture, its sections checksummed by FNV-1a a
/// byte at a time.
#[test]
fn v3_fixture_decodes_and_resumes() {
    frozen_fixture_decodes_and_resumes(golden_v3_path(), 3);
}

/// The frozen format-4 fixture, checksummed by words as format 5 is.
#[test]
fn v4_fixture_decodes_and_resumes() {
    frozen_fixture_decodes_and_resumes(golden_v4_path(), 4);
}

/// Each checksum under the other's header is refused: the current
/// fixture relabelled format 3, and the frozen format-3 one relabelled 4.
#[test]
fn a_header_over_the_other_formats_checksums_is_refused() {
    for (path, relabel) in [(golden_path(), 3u32), (golden_v3_path(), 4)] {
        let mut bytes = std::fs::read(&path).expect("fixture bytes");
        assert_ne!(header_version(&bytes), relabel);
        bytes[8..12].copy_from_slice(&relabel.to_le_bytes());
        assert!(
            matches!(
                decode_snapshot(&bytes),
                Err(PersistError::ChecksumMismatch { .. })
            ),
            "{} relabelled {relabel}",
            path.display()
        );
    }
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
        header_version(&bytes),
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

/// The frozen format-1 fixture — written by a build whose market wrote
/// the untagged `{slots, next_id}` form — still decodes, matches the
/// checkpoint this build generates (market equality is observational; the
/// optimizer section it carries is dropped), and resumes into an engine
/// whose completed run is byte-identical to the uninterrupted baseline.
/// This is the migration contract: v1 snapshots carry over losslessly.
#[test]
fn flat_v1_fixture_migrates_into_the_interval_engine() {
    let bytes = std::fs::read(golden_v1_path()).expect("frozen v1 fixture bytes");
    assert_eq!(
        header_version(&bytes),
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

/// The golden state as a daemon holds it: its logs trimmed.
fn golden_trimmed_state(fed: &Federation<Amp>) -> FederationState {
    let mut state = golden_fed_state(fed);
    state.trim_logs();
    state
}

/// The store fixture: what `Store<FederationCheckpoint>` leaves in a
/// directory — one snapshot of the trimmed golden state, and nothing
/// else.
fn golden_store_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/store_v5")
}

/// A store directory written by a format-4 build — one snapshot detached
/// from its log, and the log segment; frozen.
fn golden_store_v4_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/store_v4")
}

/// The same, written by a format-3 build; frozen.
fn golden_store_v3_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/store_v3")
}

/// The legacy log segment's name in a federated store directory.
const SEGMENT: &str = "fsnap-log.ndjson";

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
    // A trimmed checkpoint holds the log from its newest entry on.
    assert!(baseline.merged.entries.ends_with(&recovered.merged.entries));
    assert_eq!(recovered.merged.fnv1a_hash(), baseline.merged.fnv1a_hash());
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
    assert_eq!(header_version(&bytes), 2);
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
/// — one snapshot whose logs are true positions plus the newest entry
/// each, and no segment — loads into the checkpoint of the trimmed golden
/// state, resumes into the baseline, and is what saving that checkpoint
/// writes, byte for byte. Regenerate only after an intentional schema
/// change (see `regenerate_golden_fixtures`).
#[test]
fn golden_store_fixture_loads_resumes_and_rewrites_identically() {
    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    let whole = fed.checkpoint(&golden_fed_state(&fed));
    let trimmed = fed.checkpoint(&golden_trimmed_state(&fed));

    let fixture = Store::<FederationCheckpoint>::open(golden_store_dir(), 1).expect("fixture dir");
    let [snapshot_path]: [PathBuf; 1] = fixture.list().expect("list").try_into().expect("one file");
    assert!(!golden_store_dir().join(SEGMENT).exists());
    let bytes = std::fs::read(&snapshot_path).expect("snapshot bytes");
    assert_eq!(header_version(&bytes), FORMAT_VERSION);
    // On disk: true positions and the newest entry, for the merged log
    // and every shard's.
    let on_disk: FederationCheckpoint = snapshot::decode(&bytes).expect("fixture decodes");
    assert_eq!(on_disk, trimmed, "fixture drifted from code");
    assert_eq!(on_disk.merged.entries.len(), 1);
    assert_eq!(on_disk.merged.fnv1a_hash(), whole.merged.fnv1a_hash());
    for (shard, whole) in on_disk.shards.iter().zip(&whole.shards) {
        assert!(shard.log.entries.len() <= 1);
        assert_eq!(shard.log.len(), whole.log.len());
        assert_eq!(shard.log.fnv1a_hash(), whole.log.fnv1a_hash());
    }
    assert_eq!(
        snapshot::peek::<FederationCheckpoint>(&bytes).expect("fixture meta"),
        FederatedSnapshotMeta {
            seed: GOLDEN_SEED,
            config_fp: fed.config_fingerprint(),
            shards: 2,
            merged_events: whole.merged.len() as u64,
        }
    );

    // Through the store: as it is on disk.
    let latest = fixture.load_latest().expect("load").expect("a snapshot");
    assert!(latest.skipped.is_empty());
    assert_eq!(latest.checkpoint, trimmed);
    resumes_into_the_baseline(&fed, &latest.checkpoint);

    let dir = scratch_dir("store");
    let store = Store::<FederationCheckpoint>::open(&dir, 1).expect("scratch dir");
    let rewritten = store.save(&latest.checkpoint).expect("save");
    assert_eq!(rewritten.file_name(), snapshot_path.file_name());
    assert_eq!(std::fs::read(&rewritten).expect("rewritten"), bytes);
    assert!(!dir.join(SEGMENT).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frozen store directory of format 3 or 4 — a snapshot detached from
/// its log, beside the log segment — loads into the whole checkpoint a
/// fresh run generates and resumes into the baseline; trimmed and saved,
/// that checkpoint is the current store fixture, and no segment is
/// written.
fn frozen_store_fixture_loads_and_resumes(frozen_dir: PathBuf, version: u32) {
    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    let frozen = Store::<FederationCheckpoint>::open(&frozen_dir, 1).expect("fixture dir");
    let [snapshot_path]: [PathBuf; 1] = frozen.list().expect("list").try_into().expect("one file");
    let bytes = std::fs::read(&snapshot_path).expect("snapshot bytes");
    assert_eq!(
        header_version(&bytes),
        version,
        "a frozen store must keep its format; never regenerate it"
    );
    // Read raw, it is a position with no entry: not resumable.
    let detached: FederationCheckpoint = snapshot::decode(&bytes).expect("fixture decodes");
    assert!(detached.merged.entries.is_empty() && detached.merged.after.len > 0);
    assert!(matches!(
        fed.resume(&detached),
        Err(ecosched_federation::FederationError::DetachedCheckpoint { .. })
    ));
    let latest = frozen.load_latest().expect("load").expect("a snapshot");
    assert!(latest.skipped.is_empty());
    assert_eq!(
        latest.checkpoint,
        fed.checkpoint(&golden_fed_state(&fed)),
        "frozen store drifted from code"
    );
    resumes_into_the_baseline(&fed, &latest.checkpoint);

    let mut trimmed = latest.checkpoint;
    trimmed.merged.trim();
    for shard in &mut trimmed.shards {
        shard.log.trim();
    }
    let dir = scratch_dir(&format!("store-v{version}"));
    let store = Store::<FederationCheckpoint>::open(&dir, 1).expect("scratch dir");
    let rewritten = store.save(&trimmed).expect("save");
    let current = Store::<FederationCheckpoint>::open(golden_store_dir(), 1).expect("fixture dir");
    let [current_path]: [PathBuf; 1] = current.list().expect("list").try_into().expect("one file");
    assert_eq!(
        std::fs::read(&rewritten).expect("rewritten"),
        std::fs::read(current_path).expect("current snapshot")
    );
    assert!(!dir.join(SEGMENT).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v3_store_fixture_loads_and_resumes() {
    frozen_store_fixture_loads_and_resumes(golden_store_v3_dir(), 3);
}

#[test]
fn v4_store_fixture_loads_and_resumes() {
    frozen_store_fixture_loads_and_resumes(golden_store_v4_dir(), 4);
}

/// A scratch copy of the frozen format-4 store, its segment damaged.
fn damaged_v4_store(
    tag: &str,
    damage: impl FnOnce(&std::path::Path),
) -> Store<FederationCheckpoint> {
    let dir = scratch_dir(&format!("damaged-{tag}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for entry in std::fs::read_dir(golden_store_v4_dir()).expect("fixture dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("name"))).expect("copy");
    }
    damage(&dir.join(SEGMENT));
    Store::open(&dir, 1).expect("scratch store")
}

/// The legacy segment is never trusted blind. A torn last line past the
/// snapshot's position costs nothing. A segment cut short of the
/// position, deleted, or holding another entry makes the snapshot
/// skipped — typed, like a corrupt file — never loaded with a wrong log.
#[test]
fn a_damaged_legacy_segment_skips_the_snapshot_it_cannot_satisfy() {
    let fed = Federation::new(golden_fed_config(), Amp::new()).expect("golden config");
    let intact = std::fs::read_to_string(golden_store_v4_dir().join(SEGMENT)).expect("segment");
    let lines: Vec<&str> = intact.lines().collect();

    let torn = damaged_v4_store("torn", |segment| {
        let text = format!("{intact}{}", &lines[0][..lines[0].len() / 2]);
        std::fs::write(segment, text).expect("tear");
    });
    let latest = torn.load_latest().expect("load").expect("a snapshot");
    assert_eq!(latest.checkpoint, fed.checkpoint(&golden_fed_state(&fed)));

    let keep: usize = lines[..lines.len() - 1].iter().map(|l| l.len() + 1).sum();
    let short = damaged_v4_store("short", |segment| {
        std::fs::write(segment, &intact[..keep]).expect("cut");
    });
    let cut_mid_line = damaged_v4_store("cut-mid-line", |segment| {
        std::fs::write(segment, &intact[..keep + 3]).expect("cut");
    });
    let deleted = damaged_v4_store("deleted", |segment| {
        std::fs::remove_file(segment).expect("delete");
    });
    let foreign = damaged_v4_store("foreign", |segment| {
        let mut swapped = lines.clone();
        swapped[3] = lines[4];
        std::fs::write(segment, swapped.join("\n") + "\n").expect("swap");
    });
    for store in [short, cut_mid_line, deleted, foreign] {
        let [path]: [PathBuf; 1] = store.list().expect("list").try_into().expect("one file");
        assert!(matches!(
            store.load(&path),
            Err(PersistError::LogSegment { .. })
        ));
        assert!(store.load_latest().expect("load").is_none());
    }
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

/// A lease's count of the alternatives it dropped survives checkpoint →
/// encode → decode → resume: the resumed run holds the same leases and
/// finishes as the uninterrupted one. The count is on the wire only
/// where it is non-zero, and a lease without it — every lease a build
/// before the count wrote — decodes with none.
#[test]
fn a_dropped_count_survives_the_snapshot_and_a_missing_one_reads_zero() {
    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let (baseline, snapshots) = run_with_snapshots(&engine, GOLDEN_SEED, 1).expect("golden run");
    let checkpoint = snapshots
        .iter()
        .find(|c| c.leases.iter().any(|l| l.dropped > 0))
        .expect("a cycle commit after some lease dropped an alternative");
    let decoded = decode_snapshot(&encode_snapshot(checkpoint)).expect("round trip");
    assert_eq!(&decoded, checkpoint);
    let mut resumed = engine.resume(&decoded).expect("resume");
    assert_eq!(&engine.checkpoint(&resumed), checkpoint);
    while engine.step(&mut resumed).expect("step").is_some() {}
    assert_eq!(engine.finish(resumed), baseline);

    for lease in &checkpoint.leases {
        let json = serde_json::to_string(lease).expect("lease json");
        let key = format!(r#","dropped":{},"#, lease.dropped);
        assert_eq!(json.contains(&key), lease.dropped > 0, "{json}");
        let older = json.replace(&key, ",");
        let read: ecosched_engine::LeaseState =
            serde_json::from_str(&older).expect("a lease without the count");
        assert_eq!(read.dropped, 0);
        assert_eq!(
            read,
            ecosched_engine::LeaseState {
                dropped: 0,
                ..lease.clone()
            }
        );
    }
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
        prop_assert_eq!(header_version(&bytes), FORMAT_VERSION);
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
        prop_assert_eq!(header_version(&bytes), FORMAT_VERSION);
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
        header_version(&bytes),
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

/// A checkpoint whose market is in the untagged format-1 form, its
/// minting cursor wound back below a live slot id, passes every checksum
/// yet is refused as `Corrupt`: the untagged `{slots, next_id}` payload is
/// validated as fully as the tagged one, so a restart never mints an id
/// that is already live.
#[test]
fn flat_market_with_a_stale_minting_cursor_is_corrupt() {
    let checkpoint = golden_checkpoint();
    let text = serde_json::to_string(&checkpoint).expect("json");
    let serde::Value::Map(mut fields) = serde_json::from_str(&text).expect("value") else {
        panic!("a checkpoint serializes as a map");
    };
    let vacant = fields
        .iter_mut()
        .find(|(k, _)| k == "vacant")
        .expect("vacant");
    let slots: Vec<&Slot> = checkpoint.vacant.iter().collect();
    let slots = serde_json::to_string(&slots).expect("slots");
    vacant.1 = serde::Value::Map(vec![
        (
            "slots".to_owned(),
            serde_json::from_str(&slots).expect("parses"),
        ),
        ("next_id".to_owned(), serde::Value::Int(0)),
    ]);

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
