//! Service-layer observability: admission outcomes, WAL fsync and ack
//! latency histograms, and the one-call bundle that wires a recorder
//! through every layer of the daemon (service → federation → shard
//! engines) against a single registry.
//!
//! Latency histograms here measure *wall-clock* durations — the one
//! place in the stack where real time is a legitimate observable,
//! because the daemon's fsyncs and acks happen in real time. The
//! scheduling layers below record only virtual-time-keyed facts. Either
//! way the registry is observe-only: nothing in it feeds back into
//! admission, routing, or scheduling decisions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use ecosched_engine::EngineObs;
use ecosched_federation::{federation_obs, FederationObs};
use ecosched_obs::{Buckets, Family, Handle, Recorder, RegistryBuilder, Row, Table, Value};

use crate::protocol::RejectReason;

/// An optional service recorder handle: runtime state, never serialized,
/// a no-op when off — the same handle as the engine's and federation's.
pub type ServiceObs = Handle<ServiceIds>;

/// The registry's canonical label value for each rejection reason, in
/// [`reason_index`] order.
pub const REJECT_REASONS: [&str; 6] = [
    "malformed",
    "backlog_full",
    "budget_infeasible",
    "deadline_infeasible",
    "beyond_horizon",
    "shutting_down",
];

/// Index of a [`RejectReason`] into [`REJECT_REASONS`].
#[must_use]
pub fn reason_index(reason: &RejectReason) -> usize {
    match reason {
        RejectReason::Malformed { .. } => 0,
        RejectReason::BacklogFull { .. } => 1,
        RejectReason::BudgetInfeasible { .. } => 2,
        RejectReason::DeadlineInfeasible { .. } => 3,
        RejectReason::BeyondHorizon { .. } => 4,
        RejectReason::ShuttingDown => 5,
    }
}

/// What the daemon feeds its service handle.
#[derive(Debug, Clone, Copy)]
pub enum Fact<'a> {
    /// One submit attempt arrived.
    Submission,
    /// A submission was admitted and staged.
    Accept,
    /// A submission was rejected.
    Reject(&'a RejectReason),
    /// A request line over the length cap was refused.
    OversizedLine,
    /// A connection over a listener's cap was refused.
    ConnectionRefused,
    /// A connection was closed after a read waited out the idle timeout.
    IdleClose,
    /// One group commit fsynced this many staged entries in this wall
    /// time. The duration is attributed to every entry it made durable,
    /// so the fsync histogram's count tracks the accepted counter
    /// exactly; an empty commit records nothing.
    Commit(usize, Duration),
    /// A rotated snapshot was written in this wall time, this many bytes.
    Snapshot(Duration, u64),
    /// One acknowledgement left the serve loop this long after its batch
    /// was taken off the channel.
    Ack(Duration),
    /// The session's progress: pending plus leased jobs across all
    /// shards, the latest merged-log virtual tick, and the merged-log
    /// entries held in memory.
    Progress(usize, i64, usize),
}

/// Which fact feeds a service series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Rejected,
    Submissions,
    Accepted,
    OversizedLines,
    ConnectionsRefused,
    IdleClosed,
    WalCommits,
    Snapshots,
    WalFsync,
    AckTime,
    SnapshotTime,
    SnapshotBytes,
    LogEntriesHeld,
    Backlog,
    VirtualTime,
}

use Source::*;

/// The service family, in registration order.
const FAMILY: &[Row<Source>] = &[
    Row::counter(
        "ecosched_service_rejected_total",
        "Submissions rejected by admission control, by typed reason",
        Rejected,
    )
    .each("reason"),
    Row::counter(
        "ecosched_service_submissions_total",
        "Submit requests handled (accepted plus rejected)",
        Submissions,
    ),
    Row::counter(
        "ecosched_service_accepted_total",
        "Submissions admitted, routed, and staged for commit",
        Accepted,
    ),
    Row::counter(
        "ecosched_service_oversized_lines_total",
        "Request lines over the length cap, each answered with an error \
         and a closed connection",
        OversizedLines,
    ),
    Row::counter(
        "ecosched_service_connections_refused_total",
        "Connections over a listener's cap on live connections, answered \
         with an error line (protocol) or a 503 (metrics) and closed",
        ConnectionsRefused,
    ),
    Row::counter(
        "ecosched_service_idle_connections_closed_total",
        "Connections closed because a read waited out the idle timeout",
        IdleClosed,
    ),
    Row::counter(
        "ecosched_service_wal_commits_total",
        "Group commits fsynced to the write-ahead log",
        WalCommits,
    ),
    Row::counter(
        "ecosched_service_snapshots_total",
        "Rotated snapshots written",
        Snapshots,
    ),
    Row::histogram(
        "ecosched_service_wal_fsync_us",
        "WAL group-commit fsync latency in microseconds, one observation \
         per entry made durable",
        || Buckets::pow2(1, 20),
        WalFsync,
    ),
    Row::histogram(
        "ecosched_service_ack_us",
        "Serve-loop latency from batch intake to acknowledgement send, \
         in microseconds",
        || Buckets::pow2(1, 20),
        AckTime,
    ),
    Row::histogram(
        "ecosched_service_snapshot_us",
        "Wall time of one rotated snapshot (checkpoint, encode, durable write) \
         in microseconds",
        || Buckets::pow2(1, 24),
        SnapshotTime,
    ),
    Row::gauge(
        "ecosched_service_snapshot_bytes",
        "Size of the newest snapshot file; follows the state, not the run length",
        SnapshotBytes,
    ),
    Row::gauge(
        "ecosched_service_log_entries_held",
        "Merged event-log entries the session holds in memory; the rest \
         of the log is a position",
        LogEntriesHeld,
    ),
    Row::gauge(
        "ecosched_service_backlog",
        "Pending plus leased jobs across all shards",
        Backlog,
    ),
    Row::gauge(
        "ecosched_service_virtual_time",
        "Latest merged-log virtual tick the session has reached",
        VirtualTime,
    ),
];

/// The service family, registered.
#[derive(Debug)]
pub struct ServiceIds {
    table: Table<Source>,
    /// Wall-clock time of the newest snapshot, in milliseconds since the
    /// Unix epoch; 0 until one is written. Read by `/healthz` only.
    last_snapshot_ms: AtomicU64,
}

fn micros(duration: Duration) -> u64 {
    duration.as_micros().min(u128::from(u64::MAX)) as u64
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64)
}

impl Family for ServiceIds {
    type Fact<'a> = Fact<'a>;

    fn record(&self, rec: &Recorder, fact: Fact<'_>) {
        self.table.record(rec, |&source, index| {
            Some(match (source, fact) {
                (Submissions, Fact::Submission)
                | (Accepted, Fact::Accept)
                | (OversizedLines, Fact::OversizedLine)
                | (ConnectionsRefused, Fact::ConnectionRefused)
                | (IdleClosed, Fact::IdleClose)
                | (Snapshots, Fact::Snapshot(..)) => Value::Add(1),
                (Rejected, Fact::Reject(reason)) if reason_index(reason) == index => Value::Add(1),
                (WalCommits, Fact::Commit(staged, _)) if staged > 0 => Value::Add(1),
                (WalFsync, Fact::Commit(staged, fsync)) => {
                    Value::Observe(micros(fsync), staged as u64)
                }
                (AckTime, Fact::Ack(elapsed)) => Value::Observe(micros(elapsed), 1),
                (SnapshotTime, Fact::Snapshot(took, _)) => Value::Observe(micros(took), 1),
                (SnapshotBytes, Fact::Snapshot(_, bytes)) => Value::Set(bytes as f64),
                (Backlog, Fact::Progress(backlog, _, _)) => Value::Set(backlog as f64),
                (VirtualTime, Fact::Progress(_, time, _)) => Value::Set(time as f64),
                (LogEntriesHeld, Fact::Progress(_, _, held)) => Value::Set(held as f64),
                _ => return None,
            })
        });
        if let Fact::Snapshot(..) = fact {
            // A statistic that publishes nothing else.
            self.last_snapshot_ms.store(unix_ms(), Ordering::Relaxed);
        }
    }
}

/// The `/healthz` answer: a single JSON object summarizing liveness from
/// the registry's own counters and gauges.
#[must_use]
pub fn health_json(obs: &ServiceObs) -> String {
    let (Some(ids), Some(reg)) = (obs.ids(), obs.recorder().and_then(Recorder::registry)) else {
        return "{\"status\":\"ok\",\"metrics\":false}".to_string();
    };
    let sum = |source| ids.table.sum(reg, |&s| s == source);
    let snapshot_age_ms = match ids.last_snapshot_ms.load(Ordering::Relaxed) {
        0 => "null".to_string(),
        at => unix_ms().saturating_sub(at).to_string(),
    };
    format!(
        "{{\"status\":\"ok\",\"metrics\":true,\"virtual_time\":{},\"backlog\":{},\
         \"submissions\":{},\"accepted\":{},\"rejected\":{},\
         \"snapshots\":{},\"snapshot_bytes\":{},\"log_entries_held\":{},\
         \"snapshot_age_ms\":{snapshot_age_ms}}}",
        sum(VirtualTime) as i64,
        sum(Backlog) as i64,
        sum(Submissions) as u64,
        sum(Accepted) as u64,
        sum(Rejected) as u64,
        sum(Snapshots) as u64,
        sum(SnapshotBytes) as u64,
        sum(LogEntriesHeld) as u64,
    )
}

/// Every observability handle the daemon needs, wired to one registry.
#[derive(Debug, Clone)]
pub struct ServiceObsBundle {
    /// The shared recorder (hand this to the metrics listener).
    pub recorder: Recorder,
    /// The service-layer handle.
    pub service: ServiceObs,
    /// The federation-layer handle.
    pub federation: FederationObs,
    /// One engine handle per shard, in shard order.
    pub shards: Vec<EngineObs>,
}

/// Builds a fresh registry carrying the full service → federation →
/// engine metric family for `shards` shards, and returns live handles
/// for every layer.
#[must_use]
pub fn build_service_obs(shards: usize) -> ServiceObsBundle {
    let mut b = RegistryBuilder::new();
    let service = ServiceIds {
        table: Table::register(&mut b, FAMILY, &[], &REJECT_REASONS),
        last_snapshot_ms: AtomicU64::new(0),
    };
    let (federation, shards) = federation_obs(b, shards);
    let recorder = federation
        .recorder()
        .expect("a fresh recorder is on")
        .clone();
    ServiceObsBundle {
        service: ServiceObs::new(recorder.clone(), service),
        federation,
        shards,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_indices_cover_every_variant() {
        let reasons = [
            RejectReason::Malformed { detail: "x".into() },
            RejectReason::BacklogFull {
                backlog: 1,
                limit: 1,
            },
            RejectReason::BudgetInfeasible {
                needed_nodes: 1,
                eligible_nodes: 0,
            },
            RejectReason::DeadlineInfeasible {
                deadline: 0,
                earliest_finish: 1,
            },
            RejectReason::BeyondHorizon {
                time: 0,
                horizon: 1,
            },
            RejectReason::ShuttingDown,
        ];
        let mut seen = [false; 6];
        for reason in &reasons {
            seen[reason_index(reason)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fsync_histogram_count_tracks_accepted() {
        let bundle = build_service_obs(1);
        let obs = &bundle.service;
        for _ in 0..5 {
            obs.feed(Fact::Submission);
            obs.feed(Fact::Accept);
        }
        for (staged, us) in [(3, 120), (2, 80), (0, 999)] {
            obs.feed(Fact::Commit(staged, Duration::from_micros(us)));
        }
        let reg = bundle.recorder.registry().expect("recorder on");
        let accepted = reg
            .find_counter("ecosched_service_accepted_total", &[])
            .expect("registered");
        let fsync = reg
            .find_histogram("ecosched_service_wal_fsync_us", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(accepted), 5);
        assert_eq!(reg.histogram_count(fsync), 5);
        let commits = reg
            .find_counter("ecosched_service_wal_commits_total", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(commits), 2, "empty commits don't count");
    }

    #[test]
    fn snapshot_histogram_count_tracks_snapshots_and_health_reports_them() {
        let bundle = build_service_obs(1);
        let obs = &bundle.service;
        assert!(health_json(obs).contains("\"snapshot_age_ms\":null"));
        for (us, bytes) in [(9_000, 1_000_000), (11_000, 1_010_000)] {
            obs.feed(Fact::Snapshot(Duration::from_micros(us), bytes));
        }
        obs.feed(Fact::Progress(3, 120, 1));
        let reg = bundle.recorder.registry().expect("recorder on");
        let snapshots = reg
            .find_counter("ecosched_service_snapshots_total", &[])
            .expect("registered");
        let timed = reg
            .find_histogram("ecosched_service_snapshot_us", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(snapshots), 2);
        assert_eq!(reg.histogram_count(timed), 2);
        let health = health_json(obs);
        assert!(health.contains("\"snapshots\":2"), "{health}");
        assert!(health.contains("\"snapshot_bytes\":1010000"), "{health}");
        assert!(health.contains("\"log_entries_held\":1"), "{health}");
        assert!(!health.contains("\"snapshot_age_ms\":null"), "{health}");
        let parsed: serde::Value = serde_json::from_str(&health).expect("valid JSON");
        assert!(parsed.as_map().is_some());
    }

    #[test]
    fn health_json_reflects_counters() {
        let bundle = build_service_obs(1);
        bundle.service.feed(Fact::Submission);
        bundle.service.feed(Fact::Accept);
        bundle.service.feed(Fact::Progress(7, 1234, 1));
        let health = health_json(&bundle.service);
        assert!(health.contains("\"accepted\":1"));
        assert!(health.contains("\"backlog\":7"));
        assert!(health.contains("\"virtual_time\":1234"));
        assert!(health_json(&ServiceObs::off()).contains("\"metrics\":false"));
    }
}
