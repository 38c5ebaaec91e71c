//! The daemon's core state machine, socket-free and fully testable
//! in-process: boot (fresh or crash-resume), admission, routing,
//! injection, group commit, virtual-time advancement, snapshot cadence,
//! and graceful shutdown.
//!
//! Since the federation refactor the session always runs a
//! [`Federation`] — at one shard it is byte-identical to the classic
//! single-engine daemon (the federation's S=1 identity theorem), at
//! more shards the router spreads submissions and the WAL records the
//! decision per job. Cross-shard co-allocation stays off in service
//! mode (see [`ServiceManifest::fed_config`]), so every accepted
//! submission is exactly one single-shard injection and recovery never
//! re-runs a cross-shard placement.
//!
//! # Durability and ordering
//!
//! A submission moves through exactly this sequence:
//!
//! 1. [`Session::submit`] — admission check, then [`Federation::submit`]
//!    routes and injects the arrival into live state and the entry —
//!    including the chosen shard — is *staged*;
//! 2. [`Session::commit`] — every staged entry is appended to the
//!    write-ahead log and fsynced **once** (group commit), then handed
//!    back as acknowledgements;
//! 3. only now does the daemon send `Accepted` to the client.
//!
//! Snapshots are only taken with an empty stage ([`Session::advance_to`]
//! and [`Session::shutdown`] both commit first), so every snapshot's
//! arrival set is a prefix of the WAL — the invariant crash recovery
//! rests on. Losing the process at any point therefore loses only
//! unacknowledged submissions.
//!
//! The session holds no history. The run reads nothing of its logs but
//! the newest entry, so after boot, after every [`Session::advance_to`]
//! and before every snapshot it trims the merged log and every shard's
//! to that entry ([`FederationState::trim_logs`]); the rest of each log
//! is its position, whose hash [`Session::status`] reports. Memory is
//! bounded whether or not snapshots are taken. A snapshot is the trimmed
//! checkpoint, written straight from the live state
//! ([`Federation::live_checkpoint`]) — no copy of the state is built — in
//! one atomic rename: its size and cost follow the state, however long
//! the daemon has run. The WAL is the truth; nothing but the snapshot
//! itself must be made durable first.
//!
//! # Resume
//!
//! [`Session::open`] loads the newest usable federated snapshot —
//! walking past corrupt ones, and format 3–4 ones whose legacy log
//! segment cannot satisfy them — verifies that every arrival each shard's
//! checkpoint carries matches the WAL's record for that shard, rebuilds
//! the run with [`Federation::resume`], and re-injects the WAL suffix by
//! stepping the federation to each entry's recorded merged-log injection
//! point and replaying its routing decision verbatim — reproducing the
//! crashed process's merged event log byte-for-byte.

use std::path::{Path, PathBuf};

use ecosched_core::TimePoint;
use ecosched_engine::Event;
use ecosched_federation::{Federation, FederationCheckpoint, FederationState, Placement};
use ecosched_persist::{FederatedSnapshotMeta, Store};
use ecosched_select::SlotSelector;
use serde::Serialize as _;

use crate::admission::{decide, MarketView};
use crate::error::ServiceError;
use crate::manifest::ServiceManifest;
use crate::obs::{Fact, ServiceObs, ServiceObsBundle};
use crate::protocol::{DaemonStatus, JobSpec, RejectReason};
use crate::wal::{load_wal, Wal, WalEntry};

/// An acknowledgement owed to a client after a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The shard the job was routed to.
    pub shard: u32,
    /// The shard-local job id.
    pub job: u32,
    /// The effective arrival time.
    pub time: i64,
}

/// How a session came up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootMode {
    /// No usable snapshot: fresh run, whole WAL replayed from the seed.
    Fresh {
        /// WAL entries re-injected during boot.
        replayed: u64,
    },
    /// Resumed from a snapshot, WAL suffix re-injected.
    Resumed {
        /// The snapshot file used.
        snapshot: PathBuf,
        /// Merged-log events the snapshot contained.
        snapshot_events: u64,
        /// WAL entries re-injected past the snapshot.
        replayed: u64,
        /// Newer snapshot files skipped as corrupt or truncated.
        snapshots_skipped: usize,
    },
}

/// The live daemon state: federated run + durability apparatus.
#[derive(Debug)]
pub struct Session<S> {
    fed: Federation<S>,
    state: FederationState,
    manifest: ServiceManifest,
    store: Store<FederationCheckpoint>,
    wal: Wal,
    staged: Vec<WalEntry>,
    rejected_total: u64,
    draining: bool,
    boot_mode: BootMode,
    /// Observability handle — runtime state, never serialized, off by
    /// default (attach with [`Session::set_obs`] after boot so recovery
    /// replay is not counted as live traffic).
    obs: ServiceObs,
}

/// WAL file name inside a data directory.
#[must_use]
pub fn wal_path(data_dir: &Path) -> PathBuf {
    data_dir.join("wal.ndjson")
}

/// Snapshot directory inside a data directory.
#[must_use]
pub fn snapshot_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("snapshots")
}

impl<S: SlotSelector + Copy> Session<S> {
    /// Boots a session from a data directory: fresh when it holds no
    /// snapshot, crash-resume otherwise. The WAL (or its suffix) is
    /// re-injected; on return the state is exactly what the previous
    /// process would have reached, and every previously acknowledged
    /// job is present.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Diverged`] when the durable record is internally
    /// inconsistent (snapshot and WAL disagree); otherwise the
    /// underlying federation/persist/io error.
    pub fn open(
        data_dir: &Path,
        manifest: ServiceManifest,
        selector: S,
    ) -> Result<Self, ServiceError> {
        manifest.validate()?;
        std::fs::create_dir_all(data_dir)?;
        // Every bootable data directory self-describes: offline
        // verification needs the manifest even if the daemon never
        // wrote one.
        if crate::manifest::load_manifest(data_dir)?.is_none() {
            crate::manifest::save_manifest(data_dir, &manifest)?;
        }
        let fed = Federation::new(manifest.fed_config(), selector)
            .map_err(|e| ServiceError::Config(e.to_string()))?;
        let store: Store<FederationCheckpoint> =
            Store::open(snapshot_dir(data_dir), manifest.keep_snapshots)?;
        let loaded = load_wal(&wal_path(data_dir))?;

        let (mut state, boot_mode) = match store.load_latest()? {
            Some(latest) => {
                let snapshot_events = latest.checkpoint.merged.len() as u64;
                let acked_in_snapshot =
                    check_snapshot_arrivals(&latest.checkpoint, &loaded.entries)?;
                let state = fed.resume(&latest.checkpoint)?;
                (
                    state,
                    BootMode::Resumed {
                        snapshot: latest.path,
                        snapshot_events,
                        replayed: (loaded.entries.len() - acked_in_snapshot) as u64,
                        snapshots_skipped: latest.skipped.len(),
                    },
                )
            }
            None => (
                fed.start(manifest.seed),
                BootMode::Fresh {
                    replayed: loaded.entries.len() as u64,
                },
            ),
        };

        // Re-inject the WAL suffix at its recorded injection points.
        let already = arrivals_total(&state).min(loaded.entries.len());
        for (i, entry) in loaded.entries.iter().enumerate().skip(already) {
            reinject(&fed, &mut state, i, entry)?;
        }
        if arrivals_total(&state) != loaded.entries.len() {
            return Err(ServiceError::Diverged(format!(
                "replay produced {} arrivals for {} WAL entries",
                arrivals_total(&state),
                loaded.entries.len()
            )));
        }

        // Cut a torn/corrupt tail (never acknowledged — acks follow
        // fsync of intact lines) so this process's appends extend the
        // trusted prefix instead of hiding behind garbage the next load
        // would refuse to read past. Runs after the snapshot checks:
        // a tail the snapshot vouches for is a divergence, not a tear.
        if loaded.dropped_lines > 0 {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(wal_path(data_dir))?;
            file.set_len(loaded.trusted_bytes)?;
            file.sync_data()?;
        }
        let wal = Wal::open_append(wal_path(data_dir))?;
        state.trim_logs();
        Ok(Session {
            fed,
            state,
            manifest,
            store,
            wal,
            staged: Vec::new(),
            rejected_total: 0,
            draining: false,
            boot_mode,
            obs: ServiceObs::off(),
        })
    }

    /// Attaches a full observability bundle: the service handle here,
    /// the federation and per-shard engine handles on the live
    /// federation. Call after [`Self::open`] so boot replay is not
    /// recorded as live traffic.
    pub fn set_obs(&mut self, bundle: ServiceObsBundle) {
        self.obs = bundle.service;
        self.fed.set_obs(bundle.federation, bundle.shards);
        self.set_progress();
    }

    fn set_progress(&self) {
        self.obs.feed(Fact::Progress(
            self.state.backlog(),
            self.virtual_time(),
            self.state.merged().entries.len(),
        ));
    }

    /// The service-layer observability handle.
    #[must_use]
    pub fn obs(&self) -> &ServiceObs {
        &self.obs
    }

    /// How this session booted.
    #[must_use]
    pub fn boot_mode(&self) -> &BootMode {
        &self.boot_mode
    }

    /// The manifest in force.
    #[must_use]
    pub fn manifest(&self) -> &ServiceManifest {
        &self.manifest
    }

    /// The live federated run state (read-only).
    #[must_use]
    pub fn state(&self) -> &FederationState {
        &self.state
    }

    /// Virtual time the session has advanced to so far (the latest
    /// merged-log tick).
    #[must_use]
    pub fn virtual_time(&self) -> i64 {
        self.state.last_time().ticks()
    }

    /// Wall-clock time until the next queued event is due, given the
    /// current virtual time and the pacing rate; zero when it is already
    /// due, `None` when every shard's queue is drained. The serve loop
    /// uses this to sleep exactly as long as pacing allows instead of
    /// polling.
    #[must_use]
    pub fn next_event_in(&self, now: i64, ticks_per_sec: f64) -> Option<std::time::Duration> {
        let next = self.state.next_time()?.ticks();
        let ticks = (next - now).max(0) as f64;
        Some(std::time::Duration::from_secs_f64(
            ticks / ticks_per_sec.max(1e-9),
        ))
    }

    /// Admits, routes, and injects one submission at virtual time `now`.
    /// On acceptance the entry is staged — it is durable (and may be
    /// acknowledged) only after the next [`Self::commit`].
    ///
    /// # Errors
    ///
    /// The typed rejection; nothing was staged or mutated.
    pub fn submit(&mut self, spec: &JobSpec, now: i64) -> Result<Ack, RejectReason> {
        self.obs.feed(Fact::Submission);
        if self.draining {
            self.rejected_total += 1;
            self.obs.feed(Fact::Reject(&RejectReason::ShuttingDown));
            return Err(RejectReason::ShuttingDown);
        }
        let markets: Vec<_> = (0..self.state.shard_count())
            .map(|s| self.state.shard(s).vacant())
            .collect();
        let view = MarketView {
            backlog: self.state.backlog() as u64,
            markets: &markets,
            now,
            cycle_length: self.manifest.config.cycle_length,
            horizon: self.manifest.horizon(),
        };
        let request = match decide(
            &self.manifest.admission,
            &view,
            spec,
            self.staged.len() as u64,
        ) {
            Ok(request) => request,
            Err(reason) => {
                self.rejected_total += 1;
                self.obs.feed(Fact::Reject(&reason));
                return Err(reason);
            }
        };
        let injected_after = self.state.merged().len() as u64;
        // With cross-shard co-allocation off (service invariant, see the
        // manifest) routing cannot fail and always places on one shard.
        let placed = self
            .fed
            .submit(&mut self.state, request, TimePoint::new(now));
        let (shard, job, time) = match placed {
            Ok((_, Placement::Single { shard, job, time })) => (shard, job, time),
            Ok((_, Placement::Cross(_))) | Err(_) => {
                self.rejected_total += 1;
                let reason = RejectReason::Malformed {
                    detail: "internal routing failure (cross-shard placement in service mode)"
                        .into(),
                };
                self.obs.feed(Fact::Reject(&reason));
                return Err(reason);
            }
        };
        self.obs.feed(Fact::Accept);
        self.staged.push(WalEntry {
            shard,
            job,
            injected_after,
            time: time.ticks(),
            spec: *spec,
        });
        Ok(Ack {
            shard,
            job,
            time: time.ticks(),
        })
    }

    /// Makes every staged submission durable with one fsync and returns
    /// the acknowledgements now safe to send.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] — **fatal**: the staged injections are
    /// already in live state but not durable, so the daemon must exit
    /// (clients were never acked; the restart recovers consistently).
    pub fn commit(&mut self) -> Result<Vec<Ack>, ServiceError> {
        let fsync_start =
            (!self.staged.is_empty() && self.obs.is_on()).then(std::time::Instant::now);
        self.wal.append_batch(&self.staged)?;
        if let Some(start) = fsync_start {
            self.obs
                .feed(Fact::Commit(self.staged.len(), start.elapsed()));
        }
        let acks = self
            .staged
            .drain(..)
            .map(|e| Ack {
                shard: e.shard,
                job: e.job,
                time: e.time,
            })
            .collect();
        Ok(acks)
    }

    /// Processes every queued event at or before virtual time `target`,
    /// taking cadence snapshots after shard 0's cycle ticks (each shard
    /// ticks every cycle, so shard 0 is the cadence clock), then trims the
    /// logs. Commits first so no snapshot can outrun the WAL. Returns
    /// snapshots taken.
    ///
    /// # Errors
    ///
    /// Federation or snapshot failures.
    pub fn advance_to(&mut self, target: i64) -> Result<u32, ServiceError> {
        if !self.staged.is_empty() {
            return Err(ServiceError::Diverged(
                "advance_to with uncommitted staged submissions (acks would be lost)".into(),
            ));
        }
        let mut snapshots = 0u32;
        while let Some(next) = self.state.next_time() {
            if next.ticks() > target {
                break;
            }
            let Some(entry) = self.fed.step(&mut self.state)? else {
                break;
            };
            if entry.shard != 0 {
                continue;
            }
            if let Event::CycleTick { cycle } = entry.event {
                let every = self.manifest.snapshot_every_cycles;
                if every > 0 && (cycle + 1) % every == 0 {
                    self.snapshot()?;
                    snapshots += 1;
                }
            }
        }
        self.state.trim_logs();
        self.set_progress();
        Ok(snapshots)
    }

    /// Trims the logs and captures a rotated snapshot now, written
    /// straight from the live state: no checkpoint is built.
    ///
    /// # Errors
    ///
    /// Snapshot write failures.
    pub fn snapshot(&mut self) -> Result<PathBuf, ServiceError> {
        let start = self.obs.is_on().then(std::time::Instant::now);
        self.state.trim_logs();
        let meta = FederatedSnapshotMeta::of_run(&self.fed, &self.state);
        let live = self.fed.live_checkpoint(&self.state);
        let (path, bytes) = self
            .store
            .save_with(meta.merged_events, &meta, |out| live.write_json(out))?;
        if let Some(start) = start {
            self.obs.feed(Fact::Snapshot(start.elapsed(), bytes));
        }
        Ok(path)
    }

    /// Commits, snapshots, and switches to draining: all later submits
    /// are rejected with [`RejectReason::ShuttingDown`]. Returns the
    /// final acks to deliver before exit.
    ///
    /// # Errors
    ///
    /// Commit or snapshot failures.
    pub fn shutdown(&mut self) -> Result<Vec<Ack>, ServiceError> {
        let acks = self.commit()?;
        self.snapshot()?;
        self.draining = true;
        Ok(acks)
    }

    /// The status answer. The merged-log hash extends the trimmed log's
    /// position over the entries held since the last trim, so polling
    /// costs what happened in between, not the whole history.
    #[must_use]
    pub fn status(&self) -> DaemonStatus {
        let arrivals = arrivals_total(&self.state) as u64;
        let active_leases: usize = (0..self.state.shard_count())
            .map(|s| self.state.shard(s).active_leases())
            .sum();
        DaemonStatus {
            virtual_time: self.virtual_time(),
            events_processed: self.state.merged().len() as u64,
            arrivals,
            backlog: self.state.backlog() as u64,
            active_leases: active_leases as u64,
            accepted_total: arrivals,
            rejected_total: self.rejected_total,
            log_hash: self.state.merged().fnv1a_hash(),
        }
    }
}

/// Checks that every arrival `checkpoint` carries is the WAL's prefix —
/// same shards, same job ids, same times, same requests — and returns
/// how many WAL entries that prefix holds. Walks the WAL in order,
/// keeping a per-shard cursor: entry i of shard s must be that shard's
/// i-th checkpointed arrival.
///
/// # Errors
///
/// [`ServiceError::Diverged`] naming the first arrival that does not
/// match its WAL entry, or the WAL's end if it is too short.
pub(crate) fn check_snapshot_arrivals(
    checkpoint: &FederationCheckpoint,
    wal: &[WalEntry],
) -> Result<usize, ServiceError> {
    let acked_in_snapshot: usize = checkpoint.shards.iter().map(|cp| cp.arrivals.len()).sum();
    if wal.len() < acked_in_snapshot {
        return Err(ServiceError::Diverged(format!(
            "snapshot holds {acked_in_snapshot} arrivals but the WAL only records {}",
            wal.len()
        )));
    }
    let mut cursor = vec![0usize; checkpoint.shards.len()];
    for (i, entry) in wal[..acked_in_snapshot].iter().enumerate() {
        let shard = entry.shard as usize;
        let Some(shard_cp) = checkpoint.shards.get(shard) else {
            return Err(ServiceError::Diverged(format!(
                "WAL entry {i} names shard {shard}, snapshot has {}",
                checkpoint.shards.len()
            )));
        };
        let idx = cursor[shard];
        let Some(arrival) = shard_cp.arrivals.get(idx) else {
            return Err(ServiceError::Diverged(format!(
                "WAL entry {i} is shard {shard}'s arrival {idx}, but its snapshot only holds {}",
                shard_cp.arrivals.len()
            )));
        };
        let request = entry
            .spec
            .to_request()
            .map_err(|e| ServiceError::Diverged(format!("WAL entry {i}: {e}")))?;
        if entry.job as usize != idx
            || arrival.time.ticks() != entry.time
            || arrival.request != request
        {
            return Err(ServiceError::Diverged(format!(
                "snapshot arrival {idx} of shard {shard} does not match WAL entry {i} \
                 (job {}, time {} vs {})",
                entry.job,
                arrival.time.ticks(),
                entry.time
            )));
        }
        cursor[shard] = idx + 1;
    }
    Ok(acked_in_snapshot)
}

/// Externally injected arrivals across every shard — one per accepted
/// submission, so also the count of WAL-recorded jobs in live state.
pub(crate) fn arrivals_total(state: &FederationState) -> usize {
    (0..state.shard_count())
        .map(|s| state.shard(s).arrivals_len())
        .sum()
}

/// Steps `state` to `entry`'s recorded merged-log injection point and
/// replays its recorded routing decision, checking the reconstruction
/// matches the record. `index` is the entry's position in the WAL.
pub(crate) fn reinject<S: SlotSelector + Copy>(
    fed: &Federation<S>,
    state: &mut FederationState,
    index: usize,
    entry: &WalEntry,
) -> Result<(), ServiceError> {
    if entry.shard as usize >= state.shard_count() {
        return Err(ServiceError::Diverged(format!(
            "WAL entry {index} names shard {}, the federation has {}",
            entry.shard,
            state.shard_count()
        )));
    }
    while (state.merged().len() as u64) < entry.injected_after {
        if fed.step(state)?.is_none() {
            return Err(ServiceError::Diverged(format!(
                "merged log drained at {} events, before WAL entry {}'s \
                 injection point {}",
                state.merged().len(),
                entry.job,
                entry.injected_after
            )));
        }
    }
    if state.merged().len() as u64 != entry.injected_after {
        return Err(ServiceError::Diverged(format!(
            "stepped past WAL entry {}'s injection point ({} > {})",
            entry.job,
            state.merged().len(),
            entry.injected_after
        )));
    }
    let request = entry
        .spec
        .to_request()
        .map_err(|e| ServiceError::Diverged(format!("WAL entry {}: {e}", entry.job)))?;
    let (job, time) = fed.submit_routed(state, entry.shard, request, TimePoint::new(entry.time))?;
    if job != entry.job || time.ticks() != entry.time {
        return Err(ServiceError::Diverged(format!(
            "re-injection of WAL entry {} on shard {} produced (job {job}, time {}), \
             recorded (job {}, time {})",
            entry.job,
            entry.shard,
            time.ticks(),
            entry.job,
            entry.time
        )));
    }
    Ok(())
}
