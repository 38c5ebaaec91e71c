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
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use ecosched_engine::{EngineIds, EngineObs};
use ecosched_federation::{FedIds, FederationObs};
use ecosched_obs::{Buckets, CounterId, GaugeId, HistogramId, Recorder, RegistryBuilder};

use crate::protocol::RejectReason;

/// The registry's canonical label value for each rejection reason, in a
/// fixed order so the typed counters can live in a dense array.
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

/// Dense metric ids for the service layer, registered at startup.
#[derive(Debug, Clone)]
pub struct ServiceIds {
    /// `ecosched_service_submissions_total` — every submit attempt.
    pub submissions: CounterId,
    /// `ecosched_service_accepted_total`.
    pub accepted: CounterId,
    /// `ecosched_service_rejected_total{reason=...}`, indexed by
    /// [`reason_index`].
    pub rejected: [CounterId; 6],
    /// `ecosched_service_oversized_lines_total`.
    pub oversized_lines: CounterId,
    /// `ecosched_service_connections_refused_total` — connections over a
    /// listener's cap on live connections.
    pub connections_refused: CounterId,
    /// `ecosched_service_idle_connections_closed_total`.
    pub idle_closed: CounterId,
    /// `ecosched_service_wal_commits_total` — group-commit fsyncs.
    pub wal_commits: CounterId,
    /// `ecosched_service_snapshots_total`.
    pub snapshots: CounterId,
    /// `ecosched_service_wal_fsync_us` — observed once per staged entry
    /// (the commit's fsync duration attributed to each entry it made
    /// durable), so its count equals the accepted counter.
    pub wal_fsync_us: HistogramId,
    /// `ecosched_service_ack_us` — serve-loop batch intake to ack send.
    pub ack_us: HistogramId,
    /// `ecosched_service_snapshot_us` — one observation per snapshot, so
    /// its count equals the snapshots counter.
    pub snapshot_us: HistogramId,
    /// `ecosched_service_snapshot_bytes` gauge — the newest snapshot file.
    pub snapshot_bytes: GaugeId,
    /// `ecosched_service_log_entries_held` gauge — merged-log entries
    /// the session holds in memory.
    pub log_entries_held: GaugeId,
    /// `ecosched_service_backlog` gauge.
    pub backlog: GaugeId,
    /// `ecosched_service_virtual_time` gauge.
    pub virtual_time: GaugeId,
}

impl ServiceIds {
    /// Registers the service metric family.
    #[must_use]
    pub fn register(b: &mut RegistryBuilder) -> Self {
        let rejected = REJECT_REASONS.map(|reason| {
            b.counter_with(
                "ecosched_service_rejected_total",
                "Submissions rejected by admission control, by typed reason",
                &[("reason", reason)],
            )
        });
        ServiceIds {
            submissions: b.counter(
                "ecosched_service_submissions_total",
                "Submit requests handled (accepted plus rejected)",
            ),
            accepted: b.counter(
                "ecosched_service_accepted_total",
                "Submissions admitted, routed, and staged for commit",
            ),
            rejected,
            oversized_lines: b.counter(
                "ecosched_service_oversized_lines_total",
                "Request lines over the length cap, each answered with an error \
                 and a closed connection",
            ),
            connections_refused: b.counter(
                "ecosched_service_connections_refused_total",
                "Connections over a listener's cap on live connections, answered \
                 with an error line (protocol) or a 503 (metrics) and closed",
            ),
            idle_closed: b.counter(
                "ecosched_service_idle_connections_closed_total",
                "Connections closed because a read waited out the idle timeout",
            ),
            wal_commits: b.counter(
                "ecosched_service_wal_commits_total",
                "Group commits fsynced to the write-ahead log",
            ),
            snapshots: b.counter(
                "ecosched_service_snapshots_total",
                "Rotated snapshots written",
            ),
            wal_fsync_us: b.histogram(
                "ecosched_service_wal_fsync_us",
                "WAL group-commit fsync latency in microseconds, one observation \
                 per entry made durable",
                Buckets::pow2(1, 20),
            ),
            ack_us: b.histogram(
                "ecosched_service_ack_us",
                "Serve-loop latency from batch intake to acknowledgement send, \
                 in microseconds",
                Buckets::pow2(1, 20),
            ),
            snapshot_us: b.histogram(
                "ecosched_service_snapshot_us",
                "Wall time of one rotated snapshot (checkpoint, encode, durable write) \
                 in microseconds",
                Buckets::pow2(1, 24),
            ),
            snapshot_bytes: b.gauge(
                "ecosched_service_snapshot_bytes",
                "Size of the newest snapshot file; follows the state, not the run length",
            ),
            log_entries_held: b.gauge(
                "ecosched_service_log_entries_held",
                "Merged event-log entries the session holds in memory; the rest \
                 of the log is a position",
            ),
            backlog: b.gauge(
                "ecosched_service_backlog",
                "Pending plus leased jobs across all shards",
            ),
            virtual_time: b.gauge(
                "ecosched_service_virtual_time",
                "Latest merged-log virtual tick the session has reached",
            ),
        }
    }
}

#[derive(Debug)]
struct ServiceObsInner {
    rec: Recorder,
    ids: ServiceIds,
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

/// An optional service recorder handle: runtime state, never serialized,
/// a no-op when off — the same shape as the engine and federation
/// handles.
#[derive(Debug, Clone, Default)]
pub struct ServiceObs {
    inner: Option<Arc<ServiceObsInner>>,
}

impl ServiceObs {
    /// A disabled handle; every call is a no-op.
    #[must_use]
    pub fn off() -> Self {
        ServiceObs { inner: None }
    }

    /// A live handle. Degrades to [`off`](Self::off) when the recorder
    /// itself is off.
    #[must_use]
    pub fn new(rec: Recorder, ids: ServiceIds) -> Self {
        if !rec.is_on() {
            return ServiceObs::off();
        }
        ServiceObs {
            inner: Some(Arc::new(ServiceObsInner {
                rec,
                ids,
                last_snapshot_ms: AtomicU64::new(0),
            })),
        }
    }

    /// Whether recording is live.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying recorder, when live.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_ref().map(|i| &i.rec)
    }

    /// One submit attempt arrived.
    pub fn on_submission(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.submissions);
        }
    }

    /// A submission was admitted and staged.
    pub fn on_accept(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.accepted);
        }
    }

    /// A submission was rejected.
    pub fn on_reject(&self, reason: &RejectReason) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.rejected[reason_index(reason)]);
        }
    }

    /// A request line over the length cap was refused.
    pub fn on_oversized_line(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.oversized_lines);
        }
    }

    /// A connection over a listener's cap was refused.
    pub fn on_connection_refused(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.connections_refused);
        }
    }

    /// A connection was closed after a read waited out the idle timeout.
    pub fn on_idle_close(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.idle_closed);
        }
    }

    /// One group commit fsynced `staged` entries in `fsync` wall time.
    /// The duration is attributed to every entry it made durable, so the
    /// fsync histogram's count tracks the accepted counter exactly.
    pub fn on_commit(&self, staged: usize, fsync: Duration) {
        let Some(i) = self.inner.as_deref() else {
            return;
        };
        if staged == 0 {
            return;
        }
        i.rec.inc(i.ids.wal_commits);
        let us = micros(fsync);
        for _ in 0..staged {
            i.rec.observe(i.ids.wal_fsync_us, us);
        }
    }

    /// A rotated snapshot of `snapshot_bytes` was written in `took` wall
    /// time.
    pub fn on_snapshot(&self, took: Duration, snapshot_bytes: u64) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.snapshots);
            i.rec.observe(i.ids.snapshot_us, micros(took));
            i.rec.set(i.ids.snapshot_bytes, snapshot_bytes as f64);
            // A statistic that publishes nothing else.
            i.last_snapshot_ms.store(unix_ms(), Ordering::Relaxed);
        }
    }

    /// One acknowledgement left the serve loop `elapsed` after its batch
    /// was taken off the channel.
    pub fn observe_ack(&self, elapsed: Duration) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.observe(i.ids.ack_us, micros(elapsed));
        }
    }

    /// Refreshes the session progress gauges.
    pub fn set_progress(&self, backlog: usize, virtual_time: i64, log_entries_held: usize) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.set(i.ids.backlog, backlog as f64);
            i.rec.set(i.ids.virtual_time, virtual_time as f64);
            i.rec.set(i.ids.log_entries_held, log_entries_held as f64);
        }
    }

    /// The `/healthz` answer: a single JSON object summarizing liveness
    /// from the registry's own counters and gauges.
    #[must_use]
    pub fn health_json(&self) -> String {
        let Some(i) = self.inner.as_deref() else {
            return "{\"status\":\"ok\",\"metrics\":false}".to_string();
        };
        let Some(reg) = i.rec.registry() else {
            return "{\"status\":\"ok\",\"metrics\":false}".to_string();
        };
        let rejected: u64 = i.ids.rejected.iter().map(|&id| reg.counter_value(id)).sum();
        let snapshot_age_ms = match i.last_snapshot_ms.load(Ordering::Relaxed) {
            0 => "null".to_string(),
            at => unix_ms().saturating_sub(at).to_string(),
        };
        format!(
            "{{\"status\":\"ok\",\"metrics\":true,\"virtual_time\":{},\"backlog\":{},\
             \"submissions\":{},\"accepted\":{},\"rejected\":{},\
             \"snapshots\":{},\"snapshot_bytes\":{},\"log_entries_held\":{},\
             \"snapshot_age_ms\":{snapshot_age_ms}}}",
            reg.gauge_value(i.ids.virtual_time) as i64,
            reg.gauge_value(i.ids.backlog) as i64,
            reg.counter_value(i.ids.submissions),
            reg.counter_value(i.ids.accepted),
            rejected,
            reg.counter_value(i.ids.snapshots),
            reg.gauge_value(i.ids.snapshot_bytes) as u64,
            reg.gauge_value(i.ids.log_entries_held) as u64,
        )
    }
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
    let service_ids = ServiceIds::register(&mut b);
    let fed_ids = FedIds::register(&mut b, shards);
    let shard_ids: Vec<EngineIds> = (0..shards)
        .map(|s| EngineIds::register(&mut b, Some(s as u32)))
        .collect();
    let recorder = Recorder::new(b.build());
    ServiceObsBundle {
        service: ServiceObs::new(recorder.clone(), service_ids),
        federation: FederationObs::new(recorder.clone(), fed_ids),
        shards: shard_ids
            .into_iter()
            .map(|ids| EngineObs::new(recorder.clone(), ids))
            .collect(),
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
            obs.on_submission();
            obs.on_accept();
        }
        obs.on_commit(3, Duration::from_micros(120));
        obs.on_commit(2, Duration::from_micros(80));
        obs.on_commit(0, Duration::from_micros(999));
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
        assert!(obs.health_json().contains("\"snapshot_age_ms\":null"));
        obs.on_snapshot(Duration::from_micros(9_000), 1_000_000);
        obs.on_snapshot(Duration::from_micros(11_000), 1_010_000);
        obs.set_progress(3, 120, 1);
        let reg = bundle.recorder.registry().expect("recorder on");
        let snapshots = reg
            .find_counter("ecosched_service_snapshots_total", &[])
            .expect("registered");
        let timed = reg
            .find_histogram("ecosched_service_snapshot_us", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(snapshots), 2);
        assert_eq!(reg.histogram_count(timed), 2);
        let health = obs.health_json();
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
        bundle.service.on_submission();
        bundle.service.on_accept();
        bundle.service.set_progress(7, 1234, 1);
        let health = bundle.service.health_json();
        assert!(health.contains("\"accepted\":1"));
        assert!(health.contains("\"backlog\":7"));
        assert!(health.contains("\"virtual_time\":1234"));
        assert!(ServiceObs::off()
            .health_json()
            .contains("\"metrics\":false"));
    }
}
