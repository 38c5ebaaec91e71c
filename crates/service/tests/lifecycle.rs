//! Daemon lifecycle crash harness: spawns the real `ecosched-serve`
//! binary, drives it over a Unix socket, kills it with SIGKILL at
//! varied points under load, restarts it on the same data directory,
//! and asserts the durability contract — **no acknowledged job is ever
//! lost**, and the write-ahead log replays to a byte-identical event
//! log (`--verify`).

#![cfg(unix)]

mod legacy;

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ecosched_service::protocol::{decode_line, encode_line};
use ecosched_service::{Client, Endpoint, JobSpec, Request, Response};

const SERVE: &str = env!("CARGO_BIN_EXE_ecosched-serve");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecosched-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn easy_spec() -> JobSpec {
    JobSpec {
        nodes: 2,
        wall_ticks: 30,
        min_perf_milli: 1000,
        price_cap_micro: 10_000_000,
        deadline_tick: None,
    }
}

struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

/// Spawns the daemon on `data_dir` and blocks until its READY line
/// (boot replay finished, socket accepting).
fn spawn_daemon(data_dir: &Path, socket: &Path) -> Daemon {
    let mut child = Command::new(SERVE)
        .arg("--data-dir")
        .arg(data_dir)
        .arg("--listen")
        .arg(format!("unix:{}", socket.display()))
        // Slow virtual clock so the horizon far outlasts every kill
        // point, and a short run with a bounded backlog so each
        // generation's resume replay and the final offline `--verify`
        // stay fast (durability semantics don't depend on scale).
        .args([
            "--ticks-per-sec",
            "200",
            "--cycles",
            "32",
            "--max-backlog",
            "32",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ecosched-serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .expect("daemon exited before READY")
        .expect("read READY line");
    assert!(ready.starts_with("READY "), "unexpected boot line: {ready}");
    // Drain any further stdout in the background so the pipe never fills.
    std::thread::spawn(move || for _ in lines {});
    let endpoint =
        Endpoint::parse(ready.trim_start_matches("READY ").trim()).expect("parse READY endpoint");
    Daemon { child, endpoint }
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect(
        endpoint,
        Duration::from_millis(2000),
        20,
        Duration::from_millis(10),
    )
    .expect("connect to daemon")
}

/// Submits until `want` acks are recorded (retrying early market-empty
/// rejections), returning the acked `(shard, job, time)` triples.
fn submit_until(client: &mut Client, want: usize) -> Vec<(u32, u32, i64)> {
    let mut acked = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while acked.len() < want {
        assert!(Instant::now() < deadline, "timed out collecting acks");
        match client.submit(easy_spec()) {
            Ok(Response::Accepted { shard, job, time }) => acked.push((shard, job, time)),
            Ok(Response::Rejected { .. }) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(other) => panic!("unexpected response: {other:?}"),
            Err(e) => panic!("submit failed: {e}"),
        }
    }
    acked
}

fn status(client: &mut Client) -> ecosched_service::DaemonStatus {
    match client.status().expect("status request") {
        Response::Status { status } => status,
        other => panic!("unexpected status response: {other:?}"),
    }
}

fn verify(data_dir: &Path) -> String {
    let out = Command::new(SERVE)
        .arg("--data-dir")
        .arg(data_dir)
        .arg("--verify")
        .output()
        .expect("run --verify");
    assert!(
        out.status.success(),
        "--verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).trim().to_owned()
}

/// `--ticks-per-sec` takes a positive, finite number only: anything
/// else exits 2 with a usage line before the data directory is touched.
#[test]
fn a_pace_that_is_not_positive_and_finite_exits_2() {
    let data_dir = scratch_dir("pace");
    let absent = data_dir.join("never-created");
    for pace in ["0", "-1", "nan", "inf", "1e400", "fast"] {
        let out = Command::new(SERVE)
            .arg("--data-dir")
            .arg(&absent)
            .args(["--listen", "tcp:127.0.0.1:0", "--ticks-per-sec", pace])
            .output()
            .expect("run ecosched-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{pace}: {stderr}");
        assert!(stderr.contains("--ticks-per-sec"), "{pace}: {stderr}");
        assert!(stderr.contains("usage: ecosched-serve"), "{pace}: {stderr}");
        assert!(out.stdout.is_empty(), "{pace}: never READY");
    }
    assert!(!absent.exists(), "nothing was written");
}

#[test]
fn graceful_shutdown_and_resume() {
    let data_dir = scratch_dir("graceful");
    let socket = data_dir.join("sock");

    let mut daemon = spawn_daemon(&data_dir, &socket);
    let mut client = connect(&daemon.endpoint);
    let acked = submit_until(&mut client, 5);
    match client.shutdown().expect("shutdown request") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
    let code = daemon.child.wait().expect("daemon exit");
    assert!(code.success(), "graceful exit should be clean: {code}");

    let mut daemon = spawn_daemon(&data_dir, &socket);
    let mut client = connect(&daemon.endpoint);
    let st = status(&mut client);
    assert_eq!(st.arrivals as usize, acked.len(), "all acked jobs resumed");
    let _ = client.shutdown();
    let _ = daemon.child.wait();

    let report = verify(&data_dir);
    assert!(report.starts_with("VERIFIED"), "{report}");
    assert!(report.contains("wal_entries=5"), "{report}");
}

/// A request line nested 60 000 deep — deep enough to overflow the
/// connection thread's stack, which once took the daemon down with it, and
/// still under the 64 KiB line cap — is answered with a typed error, and
/// the same connection then acks a submit.
#[test]
fn a_deeply_nested_request_line_is_refused_and_the_connection_lives() {
    let data_dir = scratch_dir("nested");
    let socket = data_dir.join("sock");
    let mut daemon = spawn_daemon(&data_dir, &socket);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut replies = BufReader::new(stream.try_clone().expect("clone stream")).lines();
    let mut ask = |line: &str| -> Response {
        writeln!(stream, "{line}").expect("send line");
        let reply = replies
            .next()
            .expect("daemon closed the connection")
            .expect("read reply");
        decode_line(&reply).expect("reply parses")
    };

    for nested in ["[".repeat(60_000), "{\"Submit\":".repeat(6_000)] {
        match ask(&nested) {
            Response::Error { detail } => assert!(detail.contains("128 levels"), "{detail}"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let submit = encode_line(&Request::Submit { spec: easy_spec() });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "timed out waiting for an ack");
        match ask(&submit) {
            Response::Accepted { .. } => break,
            Response::Rejected { .. } => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    let mut client = connect(&daemon.endpoint);
    assert_eq!(status(&mut client).arrivals, 1);
    let _ = client.shutdown();
    assert!(daemon.child.wait().expect("daemon exit").success());
}

/// A request line past the daemon's 64 KiB cap is answered with an error
/// and the connection is closed, without the daemon buffering the rest; a
/// new connection then gets a submit acked.
#[test]
fn an_oversized_request_line_is_refused_and_the_daemon_lives() {
    let data_dir = scratch_dir("oversized");
    let socket = data_dir.join("sock");
    let mut daemon = spawn_daemon(&data_dir, &socket);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let timeout = Some(Duration::from_secs(10));
    stream.set_read_timeout(timeout).expect("read timeout");
    stream.set_write_timeout(timeout).expect("write timeout");
    // The daemon stops reading at the cap and closes the connection, so
    // the rest of this write may fail.
    let _ = stream.write_all(format!("{}\n", "a".repeat(1 << 20)).as_bytes());
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read reply");
    match decode_line(&reply).expect("reply parses") {
        Response::Error { detail } => assert!(detail.contains("65536 bytes"), "{detail}"),
        other => panic!("unexpected response: {other:?}"),
    }

    let mut client = connect(&daemon.endpoint);
    submit_until(&mut client, 1);
    let _ = client.shutdown();
    assert!(daemon.child.wait().expect("daemon exit").success());
}

#[test]
// The three-generation harness replays real multi-cycle scheduling
// histories four times over; debug binaries stretch that into many
// minutes. CI's service-smoke job runs this under --release.
#[cfg_attr(
    debug_assertions,
    ignore = "slow under the debug profile; run with --release"
)]
fn sigkill_under_load_never_loses_an_acked_job() {
    let data_dir = scratch_dir("sigkill");
    let socket = data_dir.join("sock");

    // Three crash-resume generations on one data directory, each killed
    // at a different point in the run (before the first cadence
    // snapshot, after it, and later still), each adding more load.
    let mut all_acked: Vec<(u32, u32, i64)> = Vec::new();
    for (generation, kill_after_ms) in [300u64, 900, 1800].into_iter().enumerate() {
        let mut daemon = spawn_daemon(&data_dir, &socket);
        let endpoint = daemon.endpoint.clone();

        // Resume check first: every previously acked job must be there.
        let mut client = connect(&endpoint);
        let st = status(&mut client);
        assert!(
            (st.arrivals as usize) >= all_acked.len(),
            "generation {generation}: resumed with {} arrivals, {} were acked",
            st.arrivals,
            all_acked.len()
        );

        // Load from a worker thread while the main thread aims the kill.
        let handle = std::thread::spawn(move || {
            let mut client = connect(&endpoint);
            let mut acked = Vec::new();
            loop {
                match client.submit(easy_spec()) {
                    Ok(Response::Accepted { shard, job, time }) => acked.push((shard, job, time)),
                    Ok(Response::Rejected { .. }) => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // Daemon died mid-request (expected) or said
                    // something unexpected — either way the run is over.
                    _ => return acked,
                }
            }
        });

        std::thread::sleep(Duration::from_millis(kill_after_ms));
        daemon.child.kill().expect("SIGKILL daemon");
        let _ = daemon.child.wait();
        let acked = handle.join().expect("load thread");
        assert!(
            !acked.is_empty(),
            "generation {generation}: load thread never got an ack"
        );
        all_acked.extend(acked);
    }

    // Final restart: every ack from every generation must be present.
    let mut daemon = spawn_daemon(&data_dir, &socket);
    let mut client = connect(&daemon.endpoint);
    let st = status(&mut client);
    let highest = all_acked
        .iter()
        .map(|&(_, job, _)| job)
        .max()
        .expect("acks");
    assert!(
        st.arrivals > u64::from(highest),
        "job {highest} was acked but only {} arrivals survived",
        st.arrivals
    );
    assert!(
        (st.arrivals as usize) >= all_acked.len(),
        "{} acked in total, only {} arrivals survived",
        all_acked.len(),
        st.arrivals
    );
    let _ = client.shutdown();
    let _ = daemon.child.wait();

    // Byte-identical offline replay of the whole crash-scarred history.
    let report = verify(&data_dir);
    assert!(report.starts_with("VERIFIED"), "{report}");
    assert!(
        report.contains("dropped_lines=0") || report.contains("dropped_lines=1"),
        "{report}"
    );
}

#[test]
fn verify_rejects_a_tampered_wal() {
    let data_dir = scratch_dir("tamper");
    let socket = data_dir.join("sock");

    let mut daemon = spawn_daemon(&data_dir, &socket);
    let mut client = connect(&daemon.endpoint);
    let _ = submit_until(&mut client, 3);
    let _ = client.shutdown();
    let _ = daemon.child.wait();

    // Flip one digit inside the middle WAL entry's payload. The line
    // checksum catches it, trust stops there, and verification fails
    // because the shutdown snapshot now claims arrivals the truncated
    // WAL no longer vouches for.
    let wal = data_dir.join("wal.ndjson");
    let text = std::fs::read_to_string(&wal).expect("read wal");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines.len() >= 3);
    lines[1] = lines[1].replace("\"nodes\":2", "\"nodes\":9");
    std::fs::write(&wal, lines.join("\n") + "\n").expect("tamper wal");

    let out = Command::new(SERVE)
        .arg("--data-dir")
        .arg(&data_dir)
        .arg("--verify")
        .output()
        .expect("run --verify");
    assert!(
        !out.status.success(),
        "--verify must fail on a tampered WAL: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A data directory the daemon wrote, rewritten as a format-4 build
/// left it (snapshots detached from their logs, the log in the segment),
/// verifies; with one segment line changed it does not, and the daemon
/// walks past the snapshots that line is under instead of trusting it.
#[test]
fn verify_rejects_a_tampered_log_segment() {
    let data_dir = scratch_dir("tamper-segment");
    let socket = data_dir.join("sock");

    let mut daemon = spawn_daemon(&data_dir, &socket);
    let mut client = connect(&daemon.endpoint);
    let _ = submit_until(&mut client, 3);
    let _ = client.shutdown();
    let _ = daemon.child.wait();
    assert!(verify(&data_dir).starts_with("VERIFIED"));
    let lines = legacy::rewrite_as_format_4(&data_dir);
    assert!(verify(&data_dir).starts_with("VERIFIED"));

    // The shutdown snapshot records a position; the entries it stands
    // for are in the segment. Change one: the line still parses, so only
    // the position's hash can tell.
    let segment = legacy::segment_path(&data_dir);
    let text = std::fs::read_to_string(&segment).expect("read segment");
    let mut tampered: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(tampered.len(), lines);
    assert!(lines >= 3, "the daemon logged {lines} events");
    assert!(tampered[1].contains("\"seq\":"));
    tampered[1] = tampered[1].replacen("\"seq\":", "\"seq\":9", 1);
    std::fs::write(&segment, tampered.join("\n") + "\n").expect("tamper segment");

    let out = Command::new(SERVE)
        .arg("--data-dir")
        .arg(&data_dir)
        .arg("--verify")
        .output()
        .expect("run --verify");
    assert!(
        !out.status.success(),
        "--verify must fail on a tampered segment: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let complaint = String::from_utf8_lossy(&out.stderr);
    assert!(
        complaint.contains("log segment cannot supply"),
        "{complaint}"
    );

    // The daemon itself degrades, it does not trust: the snapshot is
    // skipped, the WAL replayed from the seed, nothing acknowledged lost.
    let mut daemon = spawn_daemon(&data_dir, &socket);
    let mut client = connect(&daemon.endpoint);
    assert_eq!(status(&mut client).arrivals, 3);
    let _ = client.shutdown();
    let _ = daemon.child.wait();
    // Its shutdown snapshot is format 6. The verifier checks every kept
    // snapshot, so it passes exactly when no tampered format-4 one is
    // left — the new one may have replaced it under the same name.
    let legacy_kept = std::fs::read_dir(data_dir.join("snapshots"))
        .expect("snapshots")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "ecosnap"))
        .any(|path| std::fs::read(path).expect("snapshot")[8] == 4);
    let out = Command::new(SERVE)
        .arg("--data-dir")
        .arg(&data_dir)
        .arg("--verify")
        .output()
        .expect("run --verify");
    assert_eq!(out.status.success(), !legacy_kept);
    assert_eq!(
        std::fs::read_to_string(&segment).expect("segment"),
        tampered.join("\n") + "\n"
    );
}
