//! The daemon's whole metrics page, pinned: a fixed session run on a
//! two-shard registry, scraped through the metrics listener, must render
//! exactly `data/exposition_two_shards.prom` — every `# HELP` / `# TYPE`
//! line, series, label set and value, in registration order — and
//! `/healthz` must answer exactly `data/healthz_two_shards.json`.
//!
//! Wall-clock values cannot be pinned: the bucket and `_sum` lines of the
//! three microsecond histograms (their `_count` lines stay pinned) and
//! the value of `/healthz`'s `snapshot_age_ms` (its key stays pinned) are
//! replaced by `*` before the comparison.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use ecosched_federation::RoutePolicy;
use ecosched_select::Amp;
use ecosched_service::{
    build_service_obs, spawn_metrics_listener, Endpoint, JobSpec, ServiceManifest, Session,
};

const WALL_CLOCK_HISTOGRAMS: [&str; 3] = [
    "ecosched_service_wal_fsync_us",
    "ecosched_service_ack_us",
    "ecosched_service_snapshot_us",
];

fn spec(nodes: u64, deadline_tick: Option<i64>) -> JobSpec {
    JobSpec {
        nodes,
        wall_ticks: 30,
        min_perf_milli: 1000,
        price_cap_micro: 10_000_000,
        deadline_tick,
    }
}

/// A seeded two-shard session: rejections of three kinds, two group
/// commits around a cadence snapshot, and cycles on both shards.
fn run_session(dir: &Path) -> Session<Amp> {
    let _ = std::fs::remove_dir_all(dir);
    let manifest = ServiceManifest {
        shards: 2,
        route: RoutePolicy::RoundRobin,
        ..ServiceManifest::default()
    };
    let mut session = Session::open(dir, manifest, Amp::new()).expect("open");
    let bundle = build_service_obs(2);
    session.set_obs(bundle);
    // Nothing is published yet: a budget rejection.
    assert!(session.submit(&spec(2, None), 0).is_err());
    session.advance_to(0).expect("advance");
    assert!(session.submit(&spec(0, None), 0).is_err(), "malformed");
    assert!(session.submit(&spec(2, Some(1)), 0).is_err(), "deadline");
    for _ in 0..5 {
        session.submit(&spec(2, None), 0).expect("accept");
    }
    session.commit().expect("commit");
    session.advance_to(250).expect("advance past a snapshot");
    for _ in 0..3 {
        session.submit(&spec(3, None), 250).expect("accept");
    }
    session.commit().expect("commit");
    session.advance_to(400).expect("advance");
    session
}

fn get(endpoint: &Endpoint, path: &str) -> String {
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("the test listens on TCP");
    };
    let mut stream = TcpStream::connect(addr.as_str()).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert_eq!(line.trim(), "HTTP/1.1 200 OK", "{path}");
    while line != "\r\n" {
        line.clear();
        reader.read_line(&mut line).expect("header");
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).expect("body");
    body
}

fn mask_wall_clock(page: &str) -> String {
    page.lines()
        .map(|line| {
            let timed = WALL_CLOCK_HISTOGRAMS.iter().any(|name| {
                line.starts_with(&format!("{name}_bucket"))
                    || line.starts_with(&format!("{name}_sum"))
            });
            match line.rsplit_once(' ') {
                Some((series, _)) if timed => format!("{series} *\n"),
                _ => format!("{line}\n"),
            }
        })
        .collect()
}

fn mask_snapshot_age(health: &str) -> String {
    let key = "\"snapshot_age_ms\":";
    let at = health.find(key).expect("snapshot_age_ms key") + key.len();
    let end = at + health[at..].find(['}', ',']).expect("value end");
    format!("{}*{}", &health[..at], &health[end..])
}

fn assert_matches_file(actual: &str, file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file);
    let expected = std::fs::read_to_string(&path).expect("golden file");
    if actual != expected {
        let out = std::env::temp_dir().join(format!("actual-{file}"));
        std::fs::write(&out, actual).expect("write actual");
        panic!(
            "{} differs from {}; the rendered text is at {}",
            file,
            path.display(),
            out.display()
        );
    }
}

#[test]
fn metrics_page_and_health_match_their_golden_files() {
    let dir = std::env::temp_dir().join(format!("ecosched-exposition-{}", std::process::id()));
    let session = run_session(&dir);
    let endpoint = spawn_metrics_listener(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        session.obs().recorder().expect("recorder on").clone(),
        session.obs().clone(),
    )
    .expect("metrics listener");

    assert_matches_file(
        &mask_wall_clock(&get(&endpoint, "/metrics")),
        "exposition_two_shards.prom",
    );
    assert_matches_file(
        &format!("{}\n", mask_snapshot_age(&get(&endpoint, "/healthz"))),
        "healthz_two_shards.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
