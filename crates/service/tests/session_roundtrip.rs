//! In-process durability tests for [`ecosched_service::Session`]:
//! fresh boot, staged-then-committed submissions, crash-replay from the
//! WAL alone, snapshot+suffix resume, trimmed logs and the snapshots that
//! hold them, the damage modes of a format-4 directory's log segment, a
//! data directory written before the segment existed, and offline
//! verification — all without sockets or child processes (the lifecycle
//! harness covers those).

mod legacy;

use std::path::{Path, PathBuf};

use ecosched_core::ResourceRequest;
use ecosched_federation::{Federation, FederationCheckpoint};
use ecosched_persist::{format, snapshot, Checkpoint, Store, FORMAT_VERSION};
use ecosched_select::Amp;
use ecosched_service::session::snapshot_dir;
use ecosched_service::{
    build_service_obs, load_manifest, load_wal, replay_wal, verify_data_dir, BootMode, JobSpec,
    RejectReason, ServiceManifest, Session, Wal,
};
use ecosched_sim::{IntRange, JobGenConfig, JobGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecosched-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spec virtually every generated node satisfies: minimum performance
/// at the generator floor, price cap above the generator ceiling
/// (`1.7^3 * 1.25 ≈ 6.1`), no deadline.
fn easy_spec() -> JobSpec {
    JobSpec {
        nodes: 2,
        wall_ticks: 30,
        min_perf_milli: 1000,
        price_cap_micro: 10_000_000,
        deadline_tick: None,
    }
}

fn open(dir: &Path) -> Session<Amp> {
    Session::open(dir, ServiceManifest::default(), Amp::new()).expect("session open")
}

#[test]
fn fresh_boot_submit_commit_advance_verify() {
    let dir = scratch_dir("fresh");
    let mut session = open(&dir);
    assert_eq!(*session.boot_mode(), BootMode::Fresh { replayed: 0 });

    // The market is empty until the first publication event runs.
    let rejected = session.submit(&easy_spec(), 0).unwrap_err();
    assert!(
        matches!(rejected, RejectReason::BudgetInfeasible { .. }),
        "pre-publication market should reject: {rejected}"
    );
    session.advance_to(0).expect("advance to t=0");

    let a = session.submit(&easy_spec(), 0).expect("first accept");
    let b = session.submit(&easy_spec(), 0).expect("second accept");
    assert_eq!((a.job, b.job), (0, 1), "job ids are arrival indices");

    // Staged-but-uncommitted submissions block advancement: an ack
    // could otherwise be lost between injection and fsync.
    assert!(session.advance_to(60).is_err());

    let acks = session.commit().expect("group commit");
    assert_eq!(acks, vec![a, b]);
    assert!(session.commit().expect("empty commit").is_empty());

    session
        .advance_to(250)
        .expect("advance past snapshot cadence");
    let c = session.submit(&easy_spec(), 250).expect("third accept");
    assert_eq!(c.job, 2);
    session.commit().expect("commit third");

    let status = session.status();
    assert_eq!(status.accepted_total, 3);
    assert_eq!(status.rejected_total, 1);

    let report = verify_data_dir(&dir).expect("offline verification");
    assert_eq!(report.wal_entries, 3);
    assert_eq!(report.wal_dropped_lines, 0);
    assert!(
        report.snapshot_events > 0,
        "default cadence (every 4 cycles) should have snapshotted by t=250"
    );
}

#[test]
fn crash_without_snapshot_replays_the_wal_exactly() {
    let dir = scratch_dir("wal-only");
    let (hash, accepted) = {
        let mut session = Session::open(
            &dir,
            ServiceManifest {
                // Cadence off: the WAL is the only durable record.
                snapshot_every_cycles: 0,
                ..ServiceManifest::default()
            },
            Amp::new(),
        )
        .expect("first open");
        session.advance_to(0).expect("advance");
        session.submit(&easy_spec(), 0).expect("accept 0");
        session.submit(&easy_spec(), 0).expect("accept 1");
        session.commit().expect("commit");
        let status = session.status();
        (status.log_hash, status.accepted_total)
        // Dropped here without shutdown: a crash after the acks.
    };

    let session = Session::open(
        &dir,
        ServiceManifest {
            snapshot_every_cycles: 0,
            ..ServiceManifest::default()
        },
        Amp::new(),
    )
    .expect("reopen after crash");
    assert_eq!(*session.boot_mode(), BootMode::Fresh { replayed: accepted });
    let status = session.status();
    assert_eq!(status.accepted_total, accepted, "no acked job lost");
    assert_eq!(
        status.log_hash, hash,
        "byte-identical event log after replay"
    );
}

#[test]
fn crash_after_snapshot_resumes_from_snapshot_plus_wal_suffix() {
    let dir = scratch_dir("snap-suffix");
    let hash = {
        let mut session = open(&dir);
        session.advance_to(0).expect("advance");
        session.submit(&easy_spec(), 0).expect("accept 0");
        session.commit().expect("commit");
        // Past t=180 the 4-cycle cadence has taken a snapshot; the next
        // submission exists only in the WAL suffix.
        let taken = session.advance_to(250).expect("advance");
        assert!(taken > 0, "cadence snapshot expected before t=250");
        session.submit(&easy_spec(), 250).expect("accept 1");
        session.commit().expect("commit");
        session.status().log_hash
    };

    let session = open(&dir);
    match session.boot_mode() {
        BootMode::Resumed {
            snapshot_events,
            replayed,
            snapshots_skipped,
            ..
        } => {
            assert!(*snapshot_events > 0);
            assert_eq!(*replayed, 1, "exactly the post-snapshot submission");
            assert_eq!(*snapshots_skipped, 0);
        }
        other => panic!("expected snapshot resume, got {other:?}"),
    }
    assert_eq!(session.status().accepted_total, 2);
    assert_eq!(session.status().log_hash, hash);

    let report = verify_data_dir(&dir).expect("offline verification");
    assert_eq!(report.wal_entries, 2);
    assert_eq!(report.acked_in_snapshot, 1);
}

#[test]
fn graceful_shutdown_then_reopen_is_clean_resume() {
    let dir = scratch_dir("graceful");
    let hash = {
        let mut session = open(&dir);
        session.advance_to(100).expect("advance");
        session.submit(&easy_spec(), 100).expect("accept");
        session.shutdown().expect("graceful shutdown");
        // Draining: everything after shutdown is refused.
        assert!(matches!(
            session.submit(&easy_spec(), 100),
            Err(RejectReason::ShuttingDown)
        ));
        session.status().log_hash
    };

    let session = open(&dir);
    match session.boot_mode() {
        BootMode::Resumed { replayed, .. } => {
            assert_eq!(*replayed, 0, "shutdown snapshot already held every arrival");
        }
        other => panic!("expected snapshot resume, got {other:?}"),
    }
    assert_eq!(session.status().log_hash, hash);
}

/// One `/metrics` page means one thing after a restart: the engine
/// counters the checkpointed run report backs carry on from the snapshot
/// like the federation's mirrored ones, instead of restarting from zero
/// beside them (five jobs, shutdown, reopen, one job used to read
/// `jobs_offered 6` next to `jobs_arrived 1`).
#[test]
fn engine_counters_agree_with_federation_counters_after_a_reopen() {
    let dir = scratch_dir("obs-reopen");
    let sharded = ServiceManifest {
        shards: 2,
        route: ecosched_federation::RoutePolicy::RoundRobin,
        ..ServiceManifest::default()
    };
    {
        let mut session = Session::open(&dir, sharded.clone(), Amp::new()).expect("open");
        session.advance_to(0).expect("advance");
        for _ in 0..5 {
            session.submit(&easy_spec(), 0).expect("accept");
        }
        session.commit().expect("commit");
        session.advance_to(100).expect("advance");
        session.shutdown().expect("graceful shutdown");
    }

    let mut session = Session::open(&dir, sharded, Amp::new()).expect("reopen");
    let bundle = build_service_obs(2);
    let recorder = bundle.recorder.clone();
    session.set_obs(bundle);
    session.submit(&easy_spec(), 100).expect("accept");
    session.commit().expect("commit");
    session.advance_to(130).expect("advance");

    let registry = recorder.registry().expect("recorder on");
    let counter = |name: &str, labels: &[(&str, &str)]| {
        let id = registry.find_counter(name, labels).expect("registered");
        registry.counter_value(id)
    };
    let over_shards = |name: &str| -> u64 {
        ["0", "1"]
            .map(|shard| counter(name, &[("shard", shard)]))
            .iter()
            .sum()
    };
    assert_eq!(counter("ecosched_federation_jobs_offered_total", &[]), 6);
    assert_eq!(over_shards("ecosched_engine_jobs_arrived_total"), 6);
    assert_eq!(
        over_shards("ecosched_engine_events_total"),
        counter("ecosched_federation_merged_events_total", &[]),
    );
    assert_eq!(
        over_shards("ecosched_engine_events_total"),
        session.status().events_processed
    );
}

#[test]
fn sharded_session_routes_commits_and_crash_resumes_exactly() {
    let dir = scratch_dir("sharded");
    let sharded = ServiceManifest {
        shards: 2,
        route: ecosched_federation::RoutePolicy::RoundRobin,
        ..ServiceManifest::default()
    };
    let (hash, acks) = {
        let mut session = Session::open(&dir, sharded.clone(), Amp::new()).expect("sharded open");
        session.advance_to(0).expect("advance");
        let a = session.submit(&easy_spec(), 0).expect("accept 0");
        let b = session.submit(&easy_spec(), 0).expect("accept 1");
        // Round-robin spreads consecutive submissions; job ids are
        // shard-local arrival indices, so both are job 0 on their shard.
        assert_eq!((a.shard, a.job), (0, 0));
        assert_eq!((b.shard, b.job), (1, 0));
        session.commit().expect("commit");
        let taken = session.advance_to(250).expect("advance");
        assert!(taken > 0, "cadence snapshot expected before t=250");
        let c = session.submit(&easy_spec(), 250).expect("accept 2");
        assert_eq!((c.shard, c.job), (0, 1));
        session.commit().expect("commit suffix");
        (session.status().log_hash, vec![a, b, c])
        // Dropped without shutdown: a crash after the acks.
    };

    let session = Session::open(&dir, sharded, Amp::new()).expect("reopen after crash");
    match session.boot_mode() {
        BootMode::Resumed { replayed, .. } => {
            assert_eq!(*replayed, 1, "exactly the post-snapshot submission");
        }
        other => panic!("expected snapshot resume, got {other:?}"),
    }
    let status = session.status();
    assert_eq!(
        status.accepted_total,
        acks.len() as u64,
        "no acked job lost"
    );
    assert_eq!(
        status.log_hash, hash,
        "byte-identical merged log after sharded replay"
    );

    let report = verify_data_dir(&dir).expect("offline verification");
    assert_eq!(report.wal_entries, 3);
    assert_eq!(report.acked_in_snapshot, 2);
}

#[test]
fn torn_wal_tail_loses_only_unacked_work() {
    let dir = scratch_dir("torn");
    {
        let mut session = Session::open(
            &dir,
            ServiceManifest {
                snapshot_every_cycles: 0,
                ..ServiceManifest::default()
            },
            Amp::new(),
        )
        .expect("open");
        session.advance_to(0).expect("advance");
        session.submit(&easy_spec(), 0).expect("accept 0");
        session.submit(&easy_spec(), 0).expect("accept 1");
        session.commit().expect("commit");
    }

    // Simulate a torn final write: chop bytes off the last WAL line.
    let wal = ecosched_service::session::wal_path(&dir);
    let text = std::fs::read_to_string(&wal).expect("read wal");
    let keep = text.len() - 9;
    std::fs::write(&wal, &text.as_bytes()[..keep]).expect("tear wal");

    let mut session = Session::open(
        &dir,
        ServiceManifest {
            snapshot_every_cycles: 0,
            ..ServiceManifest::default()
        },
        Amp::new(),
    )
    .expect("reopen with torn tail");
    // The torn entry was never durable, so it was never acked; only the
    // intact prefix must survive.
    assert_eq!(*session.boot_mode(), BootMode::Fresh { replayed: 1 });
    assert_eq!(session.status().accepted_total, 1);

    // Regression: boot must have truncated the tear, so a new accepted
    // submission lands on the trusted prefix — not behind garbage that
    // would make the next load drop it.
    session.advance_to(0).expect("advance");
    session.submit(&easy_spec(), 0).expect("accept after tear");
    session.commit().expect("commit after tear");
    drop(session);

    let session = Session::open(
        &dir,
        ServiceManifest {
            snapshot_every_cycles: 0,
            ..ServiceManifest::default()
        },
        Amp::new(),
    )
    .expect("reopen again");
    assert_eq!(*session.boot_mode(), BootMode::Fresh { replayed: 2 });
    assert_eq!(session.status().accepted_total, 2);
}

// -- trimmed logs and the snapshots that hold them ------------------------

const CYCLE: i64 = 60;

/// The default daemon on a market a fifth the size: what is tested below
/// is where the log lives, and debug-profile cycles on the full market
/// take a tenth of a second each.
fn small_manifest() -> ServiceManifest {
    let mut manifest = ServiceManifest::default();
    manifest.config.slot_gen.slot_count = IntRange::new(24, 30);
    manifest
}

fn open_small(dir: &Path) -> Session<Amp> {
    Session::open(dir, small_manifest(), Amp::new()).expect("session open")
}

/// Runs the session through `cycles`, two submissions at each boundary,
/// each burst committed; returns how many were acknowledged.
fn run_cycles(session: &mut Session<Amp>, cycles: std::ops::Range<i64>) -> u64 {
    let mut acked = 0;
    for cycle in cycles {
        let now = cycle * CYCLE;
        session.advance_to(now).expect("advance");
        for _ in 0..2 {
            session.submit(&easy_spec(), now).expect("accept");
        }
        acked += session.commit().expect("commit").len() as u64;
    }
    acked
}

fn snapshots(dir: &Path) -> Vec<PathBuf> {
    Store::<FederationCheckpoint>::open(snapshot_dir(dir), 3)
        .expect("store")
        .list()
        .expect("list")
}

/// Every log a session holds: the merged log and each shard's.
fn held_entries(session: &Session<Amp>) -> Vec<usize> {
    let state = session.state();
    std::iter::once(state.merged().entries.len())
        .chain((0..state.shard_count()).map(|s| state.shard(s).log().entries.len()))
        .collect()
}

/// A session run for ten cycles (cadence snapshots at the ticks of
/// cycles 3 and 7, each before that boundary's burst, so the last three
/// bursts are in the WAL only) and dropped without shutdown; returns what
/// the crashed process had acknowledged and its final log hash.
fn crashed_after_ten_cycles(dir: &Path) -> (u64, String) {
    let mut session = open_small(dir);
    let acked = run_cycles(&mut session, 0..10);
    assert_eq!(snapshots(dir).len(), 2);
    (acked, session.status().log_hash)
}

/// Reopens `dir`, checks nothing acknowledged was lost and the log is
/// the crashed process's, byte for byte, then runs on until the store
/// keeps only snapshots this process took (cadence snapshots at cycles
/// 11, 15 and 19) and has the offline verifier pass the result.
fn reopens_identically(dir: &Path, acked: u64, hash: &str) -> BootMode {
    let mut session = open_small(dir);
    let status = session.status();
    assert_eq!(status.accepted_total, acked, "an acknowledged job was lost");
    assert_eq!(status.log_hash, hash, "the reopened log differs");
    let boot = session.boot_mode().clone();
    run_cycles(&mut session, 10..20);
    let before = session.status().log_hash;
    drop(session);
    let report = verify_data_dir(dir).expect("offline verification after the next snapshots");
    assert_eq!(report.snapshots_checked, 3);
    let session = open_small(dir);
    assert_eq!(session.status().log_hash, before);
    match session.boot_mode() {
        BootMode::Resumed {
            snapshots_skipped, ..
        } => assert_eq!(*snapshots_skipped, 0, "the next snapshot is usable"),
        other => panic!("expected a resume from the new snapshot, got {other:?}"),
    }
    boot
}

/// `status().log_hash` is the trimmed log's position extended over what
/// it holds; it must be the hash of the whole merged log at every call —
/// the offline replay's, which never trims — and start over correctly in
/// a process that resumed mid-history.
#[test]
fn status_hash_equals_the_merged_log_hash_after_every_burst() {
    let dir = scratch_dir("status-hash");
    let mut session = open_small(&dir);
    let fed = Federation::new(small_manifest().fed_config(), Amp::new()).expect("config");
    for cycle in 0..20 {
        run_cycles(&mut session, cycle..cycle + 1);
        assert_eq!(
            session.status().log_hash,
            session.state().merged().fnv1a_hash(),
            "after burst {cycle}"
        );
        // Asking twice changes nothing.
        assert_eq!(
            session.status().log_hash,
            session.state().merged().fnv1a_hash()
        );
    }
    let wal = load_wal(&dir.join("wal.ndjson")).expect("wal").entries;
    let mut offline = replay_wal(&fed, small_manifest().seed, &wal).expect("replay");
    while offline.merged().len() < session.state().merged().len() {
        fed.step(&mut offline)
            .expect("step")
            .expect("the run goes on");
    }
    assert_eq!(offline.merged().entries.len(), offline.merged().len());
    assert_eq!(session.status().log_hash, offline.merged().fnv1a_hash());
    let hash = session.status().log_hash;
    drop(session);

    let mut session = open_small(&dir);
    assert!(matches!(session.boot_mode(), BootMode::Resumed { .. }));
    assert_eq!(session.status().log_hash, hash);
    run_cycles(&mut session, 20..22);
    assert_eq!(
        session.status().log_hash,
        session.state().merged().fnv1a_hash()
    );
}

/// A session holds no history: after boot, after every `advance_to` and
/// after every `snapshot()`, the merged log and each shard's hold at most
/// one entry, and no log segment is ever written — with cadence snapshots
/// off too.
#[test]
fn logs_hold_at_most_one_entry_and_no_segment_is_written() {
    for every in [4, 0] {
        let dir = scratch_dir(&format!("trimmed-{every}"));
        let manifest = ServiceManifest {
            shards: 2,
            route: ecosched_federation::RoutePolicy::RoundRobin,
            snapshot_every_cycles: every,
            ..small_manifest()
        };
        let mut session = Session::open(&dir, manifest.clone(), Amp::new()).expect("open");
        for cycle in 0..9 {
            run_cycles(&mut session, cycle..cycle + 1);
            assert!(held_entries(&session).iter().all(|&n| n <= 1));
            assert!(session.state().merged().len() > 1);
            if cycle % 3 == 2 {
                session.snapshot().expect("snapshot");
                assert!(held_entries(&session).iter().all(|&n| n <= 1));
            }
            assert!(!legacy::segment_path(&dir).exists());
        }
        drop(session);
        let session = Session::open(&dir, manifest, Amp::new()).expect("reopen");
        assert!(held_entries(&session).iter().all(|&n| n <= 1));
        assert!(!legacy::segment_path(&dir).exists());
    }
}

/// A store-written snapshot carries its logs as positions: the merged
/// log's and every shard's hold at most one entry after a true position,
/// and no log segment exists beside it.
#[test]
fn snapshots_carry_positions_and_no_segment_exists() {
    let dir = scratch_dir("positions");
    let mut session = open_small(&dir);
    run_cycles(&mut session, 0..5);
    let path = session.snapshot().expect("snapshot");
    let on_disk: FederationCheckpoint = snapshot::read(&path).expect("decode");
    let merged = session.state().merged();
    assert_eq!(on_disk.merged.len(), merged.len());
    assert_eq!(on_disk.merged.after.len, merged.len() as u64 - 1);
    assert_eq!(on_disk.merged.entries.len(), 1);
    assert_eq!(on_disk.merged.fnv1a_hash(), merged.fnv1a_hash());
    for (shard, on_disk) in on_disk.shards.iter().enumerate() {
        assert!(on_disk.log.entries.len() <= 1);
        assert_eq!(
            on_disk.log.fnv1a_hash(),
            session.state().shard(shard).log().fnv1a_hash()
        );
    }
    assert!(!legacy::segment_path(&dir).exists());
    let report = verify_data_dir(&dir).expect("offline verification");
    assert_eq!(report.snapshots_checked, snapshots(&dir).len() as u64);
    assert_eq!(report.snapshot_events, merged.len() as u64);
    assert_eq!(report.log_hash, merged.fnv1a_hash());
}

/// A directory this build wrote, rewritten as a format-4 build left it —
/// snapshots detached from their logs, the log in the segment — boots
/// and verifies as it is; the daemon's first snapshot is of the current
/// format and the segment is never written again.
#[test]
fn a_format_4_directory_boots_verifies_and_is_never_written_to() {
    let dir = scratch_dir("format-4");
    let (acked, hash) = crashed_after_ten_cycles(&dir);
    let lines = legacy::rewrite_as_format_4(&dir);
    let segment = std::fs::read(legacy::segment_path(&dir)).expect("segment");
    let newest = snapshots(&dir).pop().expect("newest");
    let detached: FederationCheckpoint = snapshot::read(&newest).expect("decode");
    assert_eq!(detached.merged.after.len, lines as u64);
    assert!(detached.merged.entries.is_empty());
    let report = verify_data_dir(&dir).expect("the legacy layout verifies");
    assert_eq!(report.snapshots_checked, 2);
    assert_eq!(report.snapshot_events, lines as u64);
    match reopens_identically(&dir, acked, &hash) {
        BootMode::Resumed {
            snapshots_skipped,
            replayed,
            ..
        } => {
            assert_eq!(snapshots_skipped, 0);
            assert_eq!(replayed, 6, "the bursts of cycles 7 to 9");
        }
        other => panic!("expected a resume from the newest snapshot, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(legacy::segment_path(&dir)).expect("segment"),
        segment
    );
}

/// Killed mid-append, a format-4 build left its segment ending in half a
/// line past the newest position: nothing is lost.
#[test]
fn torn_last_segment_line_is_dropped() {
    let dir = scratch_dir("window-torn");
    let (acked, hash) = crashed_after_ten_cycles(&dir);
    legacy::rewrite_as_format_4(&dir);
    {
        use std::io::Write as _;
        let mut segment = std::fs::OpenOptions::new()
            .append(true)
            .open(legacy::segment_path(&dir))
            .expect("segment");
        segment
            .write_all(b"{\"shard\":0,\"time\":480,\"se")
            .expect("tear");
    }
    match reopens_identically(&dir, acked, &hash) {
        BootMode::Resumed {
            snapshots_skipped,
            replayed,
            ..
        } => {
            assert_eq!(snapshots_skipped, 0);
            assert_eq!(replayed, 6, "the bursts of cycles 7 to 9");
        }
        other => panic!("expected a resume from the newest snapshot, got {other:?}"),
    }
}

/// A format-4 segment cut back below the newest snapshot's position
/// (damage: a crash cannot do it, the append was fsynced first) makes
/// that snapshot skipped; the older one, whose position it still
/// satisfies, is used.
#[test]
fn segment_shorter_than_the_newest_position_falls_back_one_snapshot() {
    let dir = scratch_dir("short-segment");
    let (acked, hash) = crashed_after_ten_cycles(&dir);
    legacy::rewrite_as_format_4(&dir);
    let older: FederationCheckpoint = snapshot::read(&snapshots(&dir)[0]).expect("older snapshot");
    let segment = std::fs::read_to_string(legacy::segment_path(&dir)).expect("segment");
    let keep: usize = segment
        .split_inclusive('\n')
        .take(older.merged.after.len as usize + 5)
        .map(str::len)
        .sum();
    std::fs::write(legacy::segment_path(&dir), &segment.as_bytes()[..keep]).expect("cut");
    assert!(verify_data_dir(&dir).is_err(), "the verifier must notice");
    match reopens_identically(&dir, acked, &hash) {
        BootMode::Resumed {
            snapshots_skipped,
            snapshot_events,
            ..
        } => {
            assert_eq!(snapshots_skipped, 1);
            assert_eq!(snapshot_events, older.merged.after.len);
        }
        other => panic!("expected a resume from the older snapshot, got {other:?}"),
    }
}

/// No segment at all: no format-4 snapshot is usable, and the whole run
/// is regenerated from the seed and the WAL.
#[test]
fn deleted_segment_replays_from_the_seed() {
    let dir = scratch_dir("no-segment");
    let (acked, hash) = crashed_after_ten_cycles(&dir);
    legacy::rewrite_as_format_4(&dir);
    std::fs::remove_file(legacy::segment_path(&dir)).expect("delete");
    assert!(verify_data_dir(&dir).is_err(), "the verifier must notice");
    assert_eq!(
        reopens_identically(&dir, acked, &hash),
        BootMode::Fresh { replayed: acked }
    );
}

/// A format-4 segment holding another history's entries (here: one line
/// swapped for another) hashes differently and is refused the same way,
/// by boot and by the verifier.
#[test]
fn foreign_segment_entries_are_refused() {
    let dir = scratch_dir("foreign-segment");
    let (acked, hash) = crashed_after_ten_cycles(&dir);
    legacy::rewrite_as_format_4(&dir);
    let segment = std::fs::read_to_string(legacy::segment_path(&dir)).expect("segment");
    let mut lines: Vec<&str> = segment.lines().collect();
    lines[3] = lines[4];
    std::fs::write(legacy::segment_path(&dir), lines.join("\n") + "\n").expect("swap");
    let error = verify_data_dir(&dir).expect_err("the verifier must notice");
    assert!(
        error.to_string().contains("log segment cannot supply"),
        "{error}"
    );
    assert_eq!(
        reopens_identically(&dir, acked, &hash),
        BootMode::Fresh { replayed: acked }
    );
}

/// The newest snapshot corrupt: one snapshot back.
#[test]
fn corrupt_newest_snapshot_falls_back_one_snapshot() {
    let dir = scratch_dir("corrupt-newest");
    let (acked, hash) = crashed_after_ten_cycles(&dir);
    let newest = snapshots(&dir).pop().expect("newest");
    let mut bytes = std::fs::read(&newest).expect("bytes");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&newest, &bytes).expect("corrupt");
    assert!(verify_data_dir(&dir).is_err(), "the verifier must notice");
    match reopens_identically(&dir, acked, &hash) {
        BootMode::Resumed {
            snapshots_skipped, ..
        } => assert_eq!(snapshots_skipped, 1),
        other => panic!("expected a resume from the older snapshot, got {other:?}"),
    }
}

/// A kept snapshot whose log position the offline replay does not reach
/// is placed between two snapshots: the verifier names it and the last
/// one that agreed.
#[test]
fn a_diverging_snapshot_is_placed_after_the_last_one_that_agreed() {
    let dir = scratch_dir("diverged-between");
    crashed_after_ten_cycles(&dir);
    let [older, newest]: [PathBuf; 2] = snapshots(&dir).try_into().expect("two snapshots");
    let mut forged: FederationCheckpoint = snapshot::read(&newest).expect("decode");
    forged.merged.after.hash ^= 1;
    std::fs::write(&newest, snapshot::encode(&forged)).expect("rewrite");
    let error = verify_data_dir(&dir).expect_err("the verifier must notice");
    let text = error.to_string();
    assert!(text.contains("records log position"), "{text}");
    assert!(
        text.contains(&format!("after snapshot {}", older.display())),
        "{text}"
    );
}

/// The newest snapshot, in a valid container, carrying an arrival whose
/// request its WAL entry contradicts: boot refuses the data directory,
/// and the offline verifier, walking the arrivals as boot walks them,
/// refuses it too.
#[test]
fn a_snapshot_arrival_the_wal_contradicts_fails_boot_and_verify() {
    let dir = scratch_dir("forged-arrival");
    crashed_after_ten_cycles(&dir);
    let newest = snapshots(&dir).pop().expect("newest");
    let mut forged: FederationCheckpoint = snapshot::read(&newest).expect("decode");
    let arrival = forged
        .shards
        .iter_mut()
        .find_map(|shard| shard.arrivals.first_mut())
        .expect("an arrival");
    let request = arrival.request;
    arrival.request = ResourceRequest::new(
        request.nodes() + 1,
        request.wall_time(),
        request.min_perf(),
        request.price_cap(),
    )
    .expect("a valid request");
    std::fs::write(&newest, snapshot::encode(&forged)).expect("rewrite");

    let boot = Session::open(&dir, small_manifest(), Amp::new()).expect_err("boot must refuse");
    assert!(boot.to_string().contains("does not match WAL"), "{boot}");
    let verify = verify_data_dir(&dir).expect_err("the verifier must refuse it too");
    assert!(
        verify.to_string().contains("does not match WAL"),
        "{verify}"
    );
}

/// Rewrites `dir`'s WAL with entry `index` naming shard 9 of the one the
/// default daemon runs; returns the text boot and the verifier must show.
fn misroute_wal_entry(dir: &Path, index: usize) -> String {
    let path = dir.join("wal.ndjson");
    let mut entries = load_wal(&path).expect("load").entries;
    entries[index].shard = 9;
    std::fs::remove_file(&path).expect("remove");
    Wal::open_append(&path)
        .expect("reopen")
        .append_batch(&entries)
        .expect("rewrite");
    format!("WAL entry {index} names shard 9, the federation has 1")
}

/// A WAL entry naming a shard the federation lacks is refused by boot
/// and by the offline verifier, naming the entry, the shard and the
/// shard count: past the newest snapshot, and with no snapshot at all.
#[test]
fn a_wal_entry_naming_a_missing_shard_fails_boot_and_verify() {
    let past = scratch_dir("misrouted-past-snapshot");
    crashed_after_ten_cycles(&past);
    let last = load_wal(&past.join("wal.ndjson"))
        .expect("load")
        .entries
        .len()
        - 1;
    let unsnapshotted = scratch_dir("misrouted-no-snapshot");
    run_cycles(&mut open_small(&unsnapshotted), 0..2);
    assert!(snapshots(&unsnapshotted).is_empty());

    for (dir, index) in [(&past, last), (&unsnapshotted, 1)] {
        let expected = misroute_wal_entry(dir, index);
        let boot = Session::open(dir, small_manifest(), Amp::new()).expect_err("boot must refuse");
        assert!(boot.to_string().contains(&expected), "{boot}");
        let verify = verify_data_dir(dir).expect_err("the verifier must refuse it too");
        assert!(verify.to_string().contains(&expected), "{verify}");
    }
}

/// A cadence snapshot is what saving the whole run's checkpoint writes
/// once that checkpoint is trimmed — the whole run being the offline
/// replay, which never trims — also in a process that resumed
/// mid-history.
#[test]
fn cadence_snapshots_write_what_whole_saves_write() {
    let dir = scratch_dir("cadence");
    let mut session = open_small(&dir);
    run_cycles(&mut session, 0..9);
    drop(session);
    let mut session = open_small(&dir);
    run_cycles(&mut session, 9..17);
    let hash = session.status().log_hash;
    drop(session);
    assert_eq!(snapshots(&dir).len(), 3);

    let fed = Federation::new(small_manifest().fed_config(), Amp::new()).expect("config");
    let wal = load_wal(&dir.join("wal.ndjson")).expect("wal").entries;
    let scratch = scratch_dir("cadence-whole");
    let whole = Store::<FederationCheckpoint>::open(&scratch, 3).expect("scratch store");
    for cadence in snapshots(&dir) {
        let on_disk: FederationCheckpoint = snapshot::read(&cadence).expect("decode");
        // The run as it stood at the capture: the WAL entries injected by
        // then, stepped to the snapshot's length.
        let arrivals: usize = on_disk.shards.iter().map(|s| s.arrivals.len()).sum();
        let mut offline =
            replay_wal(&fed, small_manifest().seed, &wal[..arrivals]).expect("replay");
        while offline.merged().len() < on_disk.merged.len() {
            fed.step(&mut offline)
                .expect("step")
                .expect("the run goes on");
        }
        let mut checkpoint = fed.checkpoint(&offline);
        assert!(checkpoint.merged.whole().is_some());
        whole.save(&checkpoint).expect("whole save");
        offline.trim_logs();
        checkpoint = fed.checkpoint(&offline);
        let path = whole.save(&checkpoint).expect("trimmed save");
        assert_eq!(
            std::fs::read(&cadence).expect("cadence snapshot"),
            std::fs::read(path).expect("whole snapshot, trimmed")
        );
    }
    assert!(!legacy::segment_path(&dir).exists());
    assert_eq!(open_small(&dir).status().log_hash, hash);
    verify_data_dir(&dir).expect("offline verification");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Three shards: each shard log a snapshot holds is its newest entry
/// after its *true* position — the one the shard's report hashes — so a
/// resumed session's shard logs hash as the crashed process's did.
#[test]
fn sharded_logs_keep_their_true_positions() {
    let dir = scratch_dir("sharded-positions");
    let sharded = ServiceManifest {
        shards: 3,
        route: ecosched_federation::RoutePolicy::RoundRobin,
        ..small_manifest()
    };
    let mut session = Session::open(&dir, sharded.clone(), Amp::new()).expect("open");
    let acked = run_cycles(&mut session, 0..10);
    let live: Vec<(usize, String)> = (0..3)
        .map(|s| {
            let log = session.state().shard(s).log();
            (log.len(), log.fnv1a_hash())
        })
        .collect();
    let hash = session.status().log_hash;
    drop(session);

    // What the store hands back, checked against the whole shard logs of
    // the offline replay at the snapshot's length.
    let store = Store::<FederationCheckpoint>::open(snapshot_dir(&dir), 3).expect("store");
    let latest = store.load_latest().expect("load").expect("a snapshot");
    let fed = Federation::new(sharded.fed_config(), Amp::new()).expect("config");
    let wal = load_wal(&dir.join("wal.ndjson")).expect("wal").entries;
    let arrivals: usize = latest
        .checkpoint
        .shards
        .iter()
        .map(|s| s.arrivals.len())
        .sum();
    let mut offline = replay_wal(&fed, sharded.seed, &wal[..arrivals]).expect("replay");
    while offline.merged().len() < latest.checkpoint.merged.len() {
        fed.step(&mut offline)
            .expect("step")
            .expect("the run goes on");
    }
    for (shard, checkpoint) in latest.checkpoint.shards.iter().enumerate() {
        let whole = offline.shard(shard).log();
        assert!(!whole.is_empty());
        assert!(checkpoint.log.entries.len() <= 1);
        assert_eq!(checkpoint.log.len(), whole.len());
        assert_eq!(checkpoint.log.fnv1a_hash(), whole.fnv1a_hash());
    }

    let session = Session::open(&dir, sharded, Amp::new()).expect("reopen");
    assert!(matches!(session.boot_mode(), BootMode::Resumed { .. }));
    assert_eq!(session.status().accepted_total, acked);
    assert_eq!(session.status().log_hash, hash);
    for (shard, (len, hash)) in live.iter().enumerate() {
        let log = session.state().shard(shard).log();
        assert_eq!((log.len(), &log.fnv1a_hash()), (*len, hash));
    }
    verify_data_dir(&dir).expect("offline verification");
}

/// `tests/data/v2_data_dir` was written by the build *before* the log
/// segment existed (format-2 snapshots that carry their whole log and the
/// row caches of the optimizer that build kept across cycles, no
/// segment; two cadence snapshots, then a crash with four submissions in
/// the WAL only — generated through `Session` at commit `a89fa03`, which
/// printed the status pinned below). It boots under this build — the
/// optimizer section read and dropped — answers `status` with the same
/// hash, and its first new snapshot is of the current format: its logs
/// trimmed, no optimizer section, and no segment; from then on it is a
/// directory like any other.
#[test]
fn a_data_directory_written_before_the_segment_boots_and_migrates() {
    let (fixture, dir) = copied_fixture("v2_data_dir");
    for snapshot in snapshots(&fixture) {
        let old: FederationCheckpoint = snapshot::read(&snapshot).expect("decode");
        assert!(old.shards.iter().all(|shard| shard.optimizer.is_some()));
    }
    let manifest = load_manifest(&dir).expect("manifest").expect("present");

    let before = verify_data_dir(&dir).expect("the old layout verifies as it is");
    assert_eq!((before.snapshot_events, before.snapshots_checked), (32, 2));

    let mut session = Session::open(&dir, manifest.clone(), Amp::new()).expect("boots");
    assert_eq!(
        *session.boot_mode(),
        BootMode::Resumed {
            snapshot: snapshot_dir(&dir).join("fsnap-0000000000000032.ecosnap"),
            snapshot_events: 32,
            replayed: 4,
            snapshots_skipped: 0,
        }
    );
    let status = session.status();
    assert_eq!(
        (status.arrivals, status.events_processed),
        (10, 47),
        "what the old build reported"
    );
    assert_eq!(status.log_hash, "69573ab5585df7f4");

    let migrated = session.snapshot().expect("first new snapshot");
    let bytes = std::fs::read(&migrated).expect("bytes");
    assert_eq!(header_version(&bytes), FORMAT_VERSION);
    let on_disk: FederationCheckpoint = snapshot::decode(&bytes).expect("decode");
    assert_eq!(on_disk.merged.len(), 47);
    assert_eq!(on_disk.merged.entries.len(), 1);
    assert_eq!(on_disk.merged.fnv1a_hash(), status.log_hash);
    assert!(on_disk.shards.iter().all(|shard| shard.optimizer.is_none()));
    assert!(!legacy::segment_path(&dir).exists());
    let after = verify_data_dir(&dir).expect("the migrated layout verifies");
    assert_eq!((after.snapshot_events, after.snapshots_checked), (47, 2));
    assert_eq!(after.log_hash, status.log_hash);
    drop(session);

    let session = Session::open(&dir, manifest, Amp::new()).expect("boots again");
    assert_eq!(
        *session.boot_mode(),
        BootMode::Resumed {
            snapshot: migrated,
            snapshot_events: 47,
            replayed: 0,
            snapshots_skipped: 0,
        }
    );
    assert_eq!(session.status().log_hash, status.log_hash);
}

/// A scratch copy of the frozen data directory `tests/data/<name>`:
/// the fixture's path and the copy's.
fn copied_fixture(name: &str) -> (PathBuf, PathBuf) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    let dir = scratch_dir(name);
    std::fs::create_dir_all(snapshot_dir(&dir)).expect("mkdir");
    for file in ["manifest.json", "wal.ndjson"] {
        std::fs::copy(fixture.join(file), dir.join(file)).expect("copy");
    }
    for snapshot in snapshots(&fixture) {
        let name = snapshot.file_name().expect("name");
        std::fs::copy(&snapshot, snapshot_dir(&dir).join(name)).expect("copy");
    }
    (fixture, dir)
}

/// The container version in a snapshot file's header.
fn header_version(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[8..12].try_into().expect("header"))
}

/// `tests/data/v5_data_dir` was written by the last format-5 build
/// (commit `3ae36f2`) through `Session`: the small market of
/// [`small_manifest`] with 16 cycles configured, the first six jobs of
/// each of the steady script's first ten bursts, cadence snapshots at the
/// ticks of cycles 3 and 7, each before that boundary's burst, then a
/// crash with the last three bursts in the WAL only. Its snapshots hold every market slot and window member as a
/// record. It verifies as it is, boots into the status that build
/// printed, and its first new snapshot is of the current format and
/// smaller; from then on it is a directory like any other.
#[test]
fn a_format_5_data_directory_boots_into_its_recorded_status() {
    let (fixture, dir) = copied_fixture("v5_data_dir");
    let state = |bytes: &[u8]| {
        let sections = format::decode(bytes).expect("container");
        format::require(&sections, FederationCheckpoint::STATE_SECTION)
            .expect("state")
            .to_vec()
    };
    for snapshot in snapshots(&fixture) {
        let bytes = std::fs::read(&snapshot).expect("bytes");
        assert_eq!(header_version(&bytes), 5);
        // The records the format-4 rewrite prints are that build's bytes.
        let checkpoint: FederationCheckpoint = snapshot::decode(&bytes).expect("decode");
        let rows = state(&snapshot::encode(&checkpoint));
        assert_eq!(legacy::as_records(&rows), state(&bytes));
    }
    let manifest = load_manifest(&dir).expect("manifest").expect("present");
    let before = verify_data_dir(&dir).expect("the old snapshots verify as they are");
    assert_eq!((before.snapshot_events, before.snapshots_checked), (182, 2));

    let mut session = Session::open(&dir, manifest.clone(), Amp::new()).expect("boots");
    let newest = snapshot_dir(&dir).join("fsnap-0000000000000182.ecosnap");
    assert_eq!(
        *session.boot_mode(),
        BootMode::Resumed {
            snapshot: newest.clone(),
            snapshot_events: 182,
            replayed: 18,
            snapshots_skipped: 0,
        }
    );
    let status = session.status();
    assert_eq!(
        (
            status.arrivals,
            status.accepted_total,
            status.events_processed
        ),
        (60, 60, 266),
        "what the old build reported"
    );
    assert_eq!(status.log_hash, "5ac4ce5663d26141");

    let old_len = std::fs::metadata(&newest).expect("metadata").len();
    let migrated = session.snapshot().expect("first new snapshot");
    let bytes = std::fs::read(&migrated).expect("bytes");
    assert_eq!(header_version(&bytes), FORMAT_VERSION);
    assert!((bytes.len() as u64) < old_len);
    drop(session);

    let session = Session::open(&dir, manifest, Amp::new()).expect("boots again");
    assert_eq!(
        *session.boot_mode(),
        BootMode::Resumed {
            snapshot: migrated,
            snapshot_events: 266,
            replayed: 0,
            snapshots_skipped: 0,
        }
    );
    assert_eq!(session.status().log_hash, status.log_hash);
    verify_data_dir(&dir).expect("the migrated directory verifies");
}

/// The benchmark's steady script (`bench/src/workloads/service.rs`):
/// twelve of the paper's jobs, price cap lifted by 1.6 so that admission
/// takes them all, at every cycle boundary.
fn steady_script(cycles: usize) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    JobGenerator::new(JobGenConfig::default())
        .generate_exact(&mut rng, cycles * 12)
        .iter()
        .map(|job| {
            let request = job.request();
            JobSpec {
                nodes: request.nodes() as u64,
                wall_ticks: request.wall_time().ticks(),
                min_perf_milli: request.min_perf().milli(),
                price_cap_micro: request.price_cap().scale_f64(1.6).micro(),
                deadline_tick: None,
            }
        })
        .collect()
}

/// Snapshots are flat in run length: under a steady load the snapshot
/// after 200 cycles is no bigger than the one after 25 (it was 3.5 times
/// as big while snapshots carried the log), because the session holds
/// no history: no segment exists and every log holds at most one entry.
/// Observability, attached, reports the same.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two hundred loaded cycles are slow under the debug profile; run with --release"
)]
fn snapshot_size_is_flat_in_run_length() {
    let dir = scratch_dir("flat");
    let mut manifest = ServiceManifest::default();
    manifest.config.cycles = 201;
    let mut session = Session::open(&dir, manifest, Amp::new()).expect("open");
    let bundle = build_service_obs(1);
    let recorder = bundle.recorder.clone();
    session.set_obs(bundle);

    let script = steady_script(200);
    let mut sizes = Vec::new();
    for (cycle, burst) in script.chunks(12).enumerate() {
        let now = cycle as i64 * CYCLE;
        session.advance_to(now).expect("advance");
        for spec in burst {
            session
                .submit(spec, now)
                .expect("the lifted cap admits every job");
        }
        session.commit().expect("commit");
        if cycle + 1 == 25 || cycle + 1 == 200 {
            let path = session.snapshot().expect("snapshot");
            sizes.push(std::fs::metadata(path).expect("metadata").len());
        }
    }
    let [early, late] = sizes[..] else {
        panic!("two snapshots were measured");
    };
    assert!(
        late as f64 <= early as f64 * 1.25,
        "snapshot grew from {early} bytes after 25 cycles to {late} after 200"
    );
    assert!(!legacy::segment_path(&dir).exists());
    assert!(held_entries(&session).iter().all(|&n| n <= 1));

    let registry = recorder.registry().expect("recorder on");
    let gauge = |name| {
        let id = registry.find_gauge(name, &[]).expect("registered");
        registry.gauge_value(id) as u64
    };
    assert_eq!(gauge("ecosched_service_snapshot_bytes"), late);
    assert_eq!(
        gauge("ecosched_service_log_entries_held"),
        session.state().merged().entries.len() as u64
    );
    let snapshots = registry
        .find_counter("ecosched_service_snapshots_total", &[])
        .expect("registered");
    let timed = registry
        .find_histogram("ecosched_service_snapshot_us", &[])
        .expect("registered");
    assert_eq!(
        registry.counter_value(snapshots),
        registry.histogram_count(timed)
    );
    assert_eq!(registry.counter_value(snapshots), 200 / 4 + 2);
}
