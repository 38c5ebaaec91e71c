//! The discrete-event engine: a virtual clock driving the batch pipeline
//! under continuous, trace- or Poisson-driven load.
//!
//! The engine owns one seeded RNG and one event queue. Every state change
//! happens inside an event handler, handlers run in the queue's
//! deterministic `(time, seq)` order, and every draw happens in handler
//! order — so a run is a pure function of `(config, seed)` and two
//! identically seeded runs produce byte-identical event logs and reports.
//!
//! Per [`crate::event::Event`] (one `on_*` method each):
//!
//! * `JobArrival` feeds the pending queue;
//! * `SlotPublished` adds a fresh batch of vacant slots (re-homed onto
//!   fresh nodes and shifted to the current virtual time);
//! * `CycleTick` clips the live market to the future in place, runs the
//!   existing pipeline on it ([`ecosched_sim::run_iteration_in`]:
//!   alternatives search, Eq. (2)/(3) VO limits, combination optimization
//!   — planned cold, from this cycle's alternatives alone, as the paper
//!   plans each iteration) and commits the chosen windows
//!   ([`ecosched_sim::cycle::commit`]) as leases with their surviving
//!   alternatives attached;
//! * `RevocationStrike` draws faults against the *live* state (vacant
//!   slots plus active leases, via `RevocationModel::draw_live`) and runs
//!   the recovery tiers ([`ecosched_sim::cycle::recover`]) on every broken
//!   lease;
//! * `LeaseCompleted` retires a lease and returns its unused tail
//!   capacity to the vacant list;
//! * `SlotExpired` sweeps fully elapsed vacant slots.
//!
//! The run loop is decomposed for checkpoint/restore: [`Engine::start`]
//! builds a [`RunState`], [`Engine::step`] processes exactly one event,
//! and [`Engine::finish`] closes the books. [`Engine::run`] is the
//! one-shot composition. Between any two steps, [`Engine::checkpoint`]
//! captures the full resumable state and [`Engine::resume`] rebuilds a
//! `RunState` that continues byte-identically — the foundation the
//! `ecosched-persist` crate's snapshot files and crash-recovery replay
//! are built on.

use std::collections::BTreeMap;

use ecosched_core::{
    Alternative, Batch, BatchAlternatives, Job, JobId, NodeId, ResourceRequest, Revocation,
    SlotList, Span, TimeDelta, TimePoint, Window,
};
use ecosched_select::SlotSelector;
use ecosched_sim::cycle::{self, Recovery};
use ecosched_sim::{
    run_iteration_in, ConfigError, IterationError, IterationResult, JobGenerator, RevocationModel,
    SlotGenerator,
};
use rand::{Rng, SeedableRng};
use rand_chacha::{ChaCha8Rng, ChaChaState};
use serde::Serialize;

use crate::config::{ArrivalConfig, EngineConfig, COMPLETION_FRACTION, SLOWDOWN_TAU, VOS};
use crate::event::{fnv1a_64, Event, Log, LogEntry};
use crate::obs::{EngineObs, Fact};
use crate::queue::EventQueue;
use crate::report::{CyclePoint, EngineReport};
use crate::state::{
    ArrivalState, CheckpointParts, EngineCheckpoint, LeaseState, PendingState, QueuedEventState,
    RngState,
};

mod carve;

/// Errors from an engine run.
#[derive(Debug)]
pub enum EngineError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The scheduling pipeline failed inside a cycle.
    Iteration(IterationError),
    /// A checkpoint was taken under a different configuration or selector
    /// than the engine trying to resume it. Replay convergence is only
    /// guaranteed under the identical `(config, selector)` pair, so
    /// resume refuses rather than silently diverging.
    CheckpointMismatch {
        /// The resuming engine's configuration fingerprint.
        expected: u64,
        /// The fingerprint stored in the checkpoint.
        found: u64,
    },
    /// A checkpoint's contents are structurally invalid (for example an
    /// RNG key of the wrong width). Indicates corruption that slipped
    /// past the container's checksums, or a hand-edited file.
    MalformedCheckpoint {
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint's log sits after a later position but holds no
    /// entry, not even the newest, which the run reads. That is a format
    /// 3–4 store file read raw: its entries are in the store's log
    /// segment. Load it through the store, which attaches the verified
    /// prefix.
    DetachedCheckpoint {
        /// Log entries the checkpoint does not carry.
        missing: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid engine configuration: {e}"),
            EngineError::Iteration(e) => write!(f, "scheduling cycle failed: {e}"),
            EngineError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration: \
                 engine fingerprint {expected:016x}, checkpoint fingerprint {found:016x}"
            ),
            EngineError::MalformedCheckpoint { detail } => {
                write!(f, "malformed checkpoint: {detail}")
            }
            EngineError::DetachedCheckpoint { missing } => write!(
                f,
                "checkpoint is detached from the first {missing} entries of its log; \
                 load it through the snapshot store that holds them"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::Iteration(e) => Some(e),
            EngineError::CheckpointMismatch { .. }
            | EngineError::MalformedCheckpoint { .. }
            | EngineError::DetachedCheckpoint { .. } => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<IterationError> for EngineError {
    fn from(e: IterationError) -> Self {
        EngineError::Iteration(e)
    }
}

/// The outcome of one engine run: aggregate metrics plus the full event
/// log the determinism contract is checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// Aggregate and per-cycle metrics.
    pub report: EngineReport,
    /// Every processed event, in order.
    pub log: Log<LogEntry>,
}

/// The live state of an in-flight engine run, between events.
///
/// Produced by [`Engine::start`] (or [`Engine::resume`]), advanced one
/// event at a time by [`Engine::step`], consumed by [`Engine::finish`].
/// All mutation happens through the engine; the state only exposes
/// read-only progress accessors so external drivers (snapshot cadence,
/// fault injection) can decide when to act.
pub struct RunState {
    seed: u64,
    rng: ChaCha8Rng,
    queue: EventQueue,
    log: Log<LogEntry>,
    arrivals: Vec<ArrivalState>,
    vacant: SlotList,
    next_node: u32,
    pub(crate) pending: Vec<PendingState>,
    leases: BTreeMap<u64, LeaseState>,
    next_lease: u64,
    report: EngineReport,
    published_ticks: i64,
    busy_ticks: i64,
    wait_sum: f64,
    slowdown_sum: f64,
    /// The revocations the most recent strike drew. Runtime state for
    /// tests and drivers to read: never serialized, so a checkpoint
    /// resumes with it empty.
    last_strike: Vec<Revocation>,
}

impl std::fmt::Debug for RunState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunState")
            .field("seed", &self.seed)
            .field("events_processed", &self.log.len())
            .field("events_queued", &self.queue.len())
            .field("pending_jobs", &self.pending.len())
            .field("active_leases", &self.leases.len())
            .finish_non_exhaustive()
    }
}

impl RunState {
    /// The seed the run was started with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The event log so far, in processing order.
    #[must_use]
    pub fn log(&self) -> &Log<LogEntry> {
        &self.log
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> usize {
        self.log.len()
    }

    /// Number of future events still queued. Zero means the run is done.
    #[must_use]
    pub fn events_queued(&self) -> usize {
        self.queue.len()
    }

    /// Drops every log entry but the newest ([`Log::trim`]): the run goes
    /// on, and hashes its log, exactly as before, holding one entry where
    /// it held its history.
    pub fn trim_log(&mut self) {
        self.log.trim();
    }

    /// The most recently processed event, if any.
    #[must_use]
    pub fn last_entry(&self) -> Option<&LogEntry> {
        self.log.entries.last()
    }

    /// The virtual time of the most recently processed event
    /// ([`TimePoint::ZERO`] before the first step). Externally submitted
    /// arrivals are clamped to this floor so log times stay monotone.
    #[must_use]
    pub fn last_time(&self) -> TimePoint {
        self.log
            .entries
            .last()
            .map_or(TimePoint::ZERO, |e| TimePoint::new(e.time))
    }

    /// The virtual time of the next queued event, if any — what a pacing
    /// loop compares against its virtual-clock target.
    #[must_use]
    pub fn next_event_time(&self) -> Option<TimePoint> {
        self.queue.peek().map(|(t, _)| t)
    }

    /// Jobs waiting to be scheduled: pending batch members plus arrivals
    /// injected or precomputed but not yet processed. This is the
    /// backlog the service layer's admission control bounds.
    #[must_use]
    pub fn backlog(&self) -> usize {
        let processed = self.report.jobs_arrived as usize;
        self.pending.len() + self.arrivals.len().saturating_sub(processed)
    }

    /// Number of arrivals known to the run (processed or still queued);
    /// also the id the next [`Engine::submit`] will assign.
    #[must_use]
    pub fn arrivals_len(&self) -> usize {
        self.arrivals.len()
    }

    /// Number of active (committed, not yet completed) leases.
    #[must_use]
    pub fn active_leases(&self) -> usize {
        self.leases.len()
    }

    /// The live vacant-slot market — the state the service layer's
    /// budget/deadline admission test reads.
    #[must_use]
    pub fn vacant(&self) -> &SlotList {
        &self.vacant
    }

    /// Busy node-ticks over published node-ticks so far (0 before the
    /// first publication).
    pub(crate) fn utilization(&self) -> f64 {
        if self.published_ticks > 0 {
            self.busy_ticks as f64 / self.published_ticks as f64
        } else {
            0.0
        }
    }

    /// The report accumulated so far (final means are only computed by
    /// [`Engine::finish`]).
    #[must_use]
    pub fn report_so_far(&self) -> &EngineReport {
        &self.report
    }

    /// The revocations the most recent `RevocationStrike` drew (empty
    /// before the first strike and after a resume). After that strike's
    /// step no active lease's window is broken by any of them.
    #[must_use]
    pub fn last_strike(&self) -> &[Revocation] {
        &self.last_strike
    }

    /// The `(time, seq)` key of the next queued event, if any — what the
    /// federation's merge loop compares across shards to pop the
    /// globally earliest event under `(time, seq, shard)` order.
    #[must_use]
    pub fn next_event_key(&self) -> Option<(i64, u64)> {
        self.queue.peek().map(|(t, seq)| (t.ticks(), seq))
    }

    /// The sequence number the next queued event will receive — what a
    /// submitted arrival would be keyed with if injected right now.
    #[must_use]
    pub fn next_event_seq(&self) -> u64 {
        self.queue.next_seq()
    }

    /// The RNG's position, as a checkpoint stores it.
    fn rng_state(&self) -> RngState {
        let rng = self.rng.capture();
        RngState {
            key: rng.key.to_vec(),
            counter: rng.counter,
            cursor: rng.cursor as u64,
        }
    }

    /// The queue's next sequence number and its events in pop order, as a
    /// checkpoint stores them.
    fn queued(&self) -> (u64, Vec<QueuedEventState>) {
        let (next_seq, entries) = self.queue.snapshot();
        let entries = entries
            .into_iter()
            .map(|(time, seq, event)| QueuedEventState {
                time: time.ticks(),
                seq,
                event,
            });
        (next_seq, entries.collect())
    }
}

/// A live run's checkpoint as [`Serialize`]: see
/// [`Engine::live_checkpoint`]. Only the RNG position, the queue in pop
/// order and the lease order are built; the rest is read in place.
#[derive(Debug)]
pub struct LiveCheckpoint<'a, S> {
    engine: &'a Engine<S>,
    state: &'a RunState,
}

impl<S: SlotSelector + Copy> Serialize for LiveCheckpoint<'_, S> {
    fn write_json(&self, out: &mut Vec<u8>) {
        let state = self.state;
        let (queue_next_seq, queue) = state.queued();
        let leases: Vec<&LeaseState> = state.leases.values().collect();
        CheckpointParts {
            seed: state.seed,
            config_fp: self.engine.config_fingerprint(),
            rng: &state.rng_state(),
            queue_next_seq,
            queue: &queue,
            log: &state.log,
            arrivals: &state.arrivals,
            vacant: &state.vacant,
            next_node: state.next_node,
            pending: &state.pending,
            leases: &leases,
            next_lease: state.next_lease,
            report: &state.report,
            published_ticks: state.published_ticks,
            busy_ticks: state.busy_ticks,
            wait_sum_bits: state.wait_sum.to_bits(),
            slowdown_sum_bits: state.slowdown_sum.to_bits(),
            optimizer: None,
        }
        .write_json(out);
    }
}

/// The discrete-event metascheduling engine.
#[derive(Debug, Clone)]
pub struct Engine<S> {
    config: EngineConfig,
    selector: S,
    /// The slot generator and revocation model the configuration
    /// describes, built once.
    slot_gen: SlotGenerator,
    revocation: RevocationModel,
    /// Observability handle — runtime state like the thread budget:
    /// never serialized, absent from the fingerprint and checkpoints.
    obs: EngineObs,
}

impl<S: SlotSelector + Copy> Engine<S> {
    /// Creates an engine over a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first invalid field.
    pub fn new(config: EngineConfig, selector: S) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Engine {
            slot_gen: SlotGenerator::new(config.slot_gen),
            revocation: RevocationModel::new(config.revocation),
            config,
            selector,
            obs: EngineObs::off(),
        })
    }

    /// Attaches an observability handle (builder style). Purely an
    /// execution knob: a recorder-on engine produces byte-identical
    /// logs and reports to a recorder-off one.
    #[must_use]
    pub fn with_obs(mut self, obs: EngineObs) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the observability handle in place.
    pub fn set_obs(&mut self, obs: EngineObs) {
        self.obs = obs;
    }

    /// The observability handle in use.
    #[must_use]
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// FNV-1a 64 fingerprint of the configuration and selector name.
    ///
    /// Checkpoints carry this value; [`Self::resume`] refuses a
    /// checkpoint whose fingerprint differs, because replay only
    /// converges under the identical `(config, selector)` pair.
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        let mut keyed = format!("{}|", self.selector.name()).into_bytes();
        self.config.write_json(&mut keyed);
        fnv1a_64(&keyed)
    }

    /// Runs the simulation to queue exhaustion.
    ///
    /// Deterministic: the run is a pure function of `(config, seed)`, and
    /// two identical calls produce byte-identical [`EngineRun`]s.
    ///
    /// # Errors
    ///
    /// Propagates [`IterationError`] from any scheduling cycle.
    pub fn run(&self, seed: u64) -> Result<EngineRun, EngineError> {
        let mut state = self.start(seed);
        while self.step(&mut state)?.is_some() {}
        Ok(self.finish(state))
    }

    /// Builds the initial [`RunState`]: seeds the RNG, precomputes the
    /// arrival stream, and schedules the cycle skeleton (publication,
    /// tick, and — when enabled — the mid-cycle strike, per cycle).
    #[must_use]
    pub fn start(&self, seed: u64) -> RunState {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut queue = EventQueue::new();

        // -- setup: arrivals, then the cycle skeleton -------------------
        let arrivals: Vec<ArrivalState> = self
            .generate_arrivals(&mut rng)
            .into_iter()
            .map(|(time, request)| ArrivalState { time, request })
            .collect();
        for (i, arrival) in arrivals.iter().enumerate() {
            queue.push(arrival.time, Event::JobArrival { job: i as u32 });
        }
        let strikes = self.config.revocation.is_enabled();
        for k in 0..self.config.cycles {
            let t = TimePoint::new(i64::from(k) * self.config.cycle_length);
            let count = rng
                .gen_range(self.config.slot_gen.slot_count.lo..=self.config.slot_gen.slot_count.hi)
                as u32;
            // Publication precedes the tick at equal time (lower seq).
            queue.push(t, Event::SlotPublished { round: k, count });
            queue.push(t, Event::CycleTick { cycle: k });
            if strikes {
                let mid = t + TimeDelta::new(self.config.cycle_length / 2);
                queue.push(mid, Event::RevocationStrike { strike: k });
            }
        }

        RunState {
            seed,
            rng,
            queue,
            log: Log::new(),
            arrivals,
            vacant: SlotList::new(),
            next_node: 0,
            pending: Vec::new(),
            leases: BTreeMap::new(),
            next_lease: 0,
            report: EngineReport {
                vo_spend: vec![0.0; VOS as usize],
                ..EngineReport::default()
            },
            published_ticks: 0,
            busy_ticks: 0,
            wait_sum: 0.0,
            slowdown_sum: 0.0,
            last_strike: Vec::new(),
        }
    }

    /// Processes exactly one event: pops it, logs it, and runs its
    /// handler. Returns the logged entry, or `None` when the queue has
    /// drained and the run is complete.
    ///
    /// # Errors
    ///
    /// Propagates [`IterationError`] from a scheduling cycle, which ends
    /// the run: the cycle's market went into the failed search, so the
    /// state is left with none.
    pub fn step(&self, state: &mut RunState) -> Result<Option<LogEntry>, EngineError> {
        let Some((now, seq, event)) = state.queue.pop() else {
            return Ok(None);
        };
        let entry = LogEntry {
            time: now.ticks(),
            seq,
            event,
        };
        state.log.push(entry);
        self.handle(state, now, event)?;
        self.obs.feed(Fact::Step(state));
        Ok(Some(entry))
    }

    /// Closes the books on a drained (or abandoned) run: backlog, means,
    /// utilization, and the log fingerprint.
    #[must_use]
    pub fn finish(&self, state: RunState) -> EngineRun {
        let utilization = state.utilization();
        let RunState {
            log,
            pending,
            leases,
            mut report,
            wait_sum,
            slowdown_sum,
            ..
        } = state;
        report.backlog = (pending.len() + leases.len()) as u64;
        if report.jobs_completed > 0 {
            report.mean_wait = wait_sum / report.jobs_completed as f64;
            report.mean_bounded_slowdown = slowdown_sum / report.jobs_completed as f64;
        }
        report.utilization = utilization;
        report.event_count = log.len() as u64;
        report.log_hash = log.fnv1a_hash();
        EngineRun { report, log }
    }

    /// Captures the full resumable state of an in-flight run.
    ///
    /// Safe to call between any two [`Self::step`]s; the intended cadence
    /// is after a `CycleTick` commit (check [`RunState::last_entry`]).
    /// The log is cloned as the run holds it, whole or
    /// [trimmed](RunState::trim_log). [`EngineCheckpoint::optimizer`] is
    /// always `None`: no optimizer outlives the cycle it planned.
    #[must_use]
    pub fn checkpoint(&self, state: &RunState) -> EngineCheckpoint {
        let (queue_next_seq, queue) = state.queued();
        EngineCheckpoint {
            seed: state.seed,
            config_fp: self.config_fingerprint(),
            rng: state.rng_state(),
            queue_next_seq,
            queue,
            log: state.log.clone(),
            arrivals: state.arrivals.clone(),
            vacant: state.vacant.clone(),
            next_node: state.next_node,
            pending: state.pending.clone(),
            leases: state.leases.values().cloned().collect(),
            next_lease: state.next_lease,
            report: state.report.clone(),
            published_ticks: state.published_ticks,
            busy_ticks: state.busy_ticks,
            wait_sum_bits: state.wait_sum.to_bits(),
            slowdown_sum_bits: state.slowdown_sum.to_bits(),
            optimizer: None,
        }
    }

    /// The JSON of [`Self::checkpoint`]'s result, written straight from
    /// the run: byte for byte the same, without cloning the state into a
    /// checkpoint first. What a snapshot of a live run serializes.
    #[must_use]
    pub fn live_checkpoint<'a>(&'a self, state: &'a RunState) -> LiveCheckpoint<'a, S> {
        LiveCheckpoint {
            engine: self,
            state,
        }
    }

    /// Rebuilds a [`RunState`] from a checkpoint taken by
    /// [`Self::checkpoint`] under the same configuration and selector.
    /// Stepping the resumed state produces exactly the events the
    /// captured run would have produced.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointMismatch`] when the checkpoint was taken
    /// under a different `(config, selector)` fingerprint;
    /// [`EngineError::MalformedCheckpoint`] when its contents are
    /// structurally invalid — among them a `next_node` at or below a node
    /// its market or its leases hold, which the next publication would
    /// reuse; [`EngineError::DetachedCheckpoint`] when its log holds
    /// neither the whole history nor its newest entry.
    pub fn resume(&self, checkpoint: &EngineCheckpoint) -> Result<RunState, EngineError> {
        let expected = self.config_fingerprint();
        if checkpoint.config_fp != expected {
            return Err(EngineError::CheckpointMismatch {
                expected,
                found: checkpoint.config_fp,
            });
        }
        if checkpoint.log.after.len > 0 && checkpoint.log.entries.is_empty() {
            return Err(EngineError::DetachedCheckpoint {
                missing: checkpoint.log.after.len,
            });
        }
        let key: [u32; 8] = checkpoint.rng.key.as_slice().try_into().map_err(|_| {
            EngineError::MalformedCheckpoint {
                detail: format!("rng key has {} words, expected 8", checkpoint.rng.key.len()),
            }
        })?;
        if checkpoint.rng.cursor > 16 {
            return Err(EngineError::MalformedCheckpoint {
                detail: format!("rng cursor {} out of range 0..=16", checkpoint.rng.cursor),
            });
        }
        let windows = checkpoint.leases.iter();
        let windows = windows.flat_map(|l| std::iter::once(&l.window).chain(&l.alternatives));
        let leased = windows.flat_map(|w| w.slots().iter().map(|m| m.node()));
        let mut held = checkpoint.vacant.iter().map(|s| s.node()).chain(leased);
        if let Some(node) = held.find(|node| node.index() >= checkpoint.next_node) {
            return Err(EngineError::MalformedCheckpoint {
                detail: format!(
                    "next node {} is not above held node {}",
                    checkpoint.next_node,
                    node.index()
                ),
            });
        }
        let rng = ChaCha8Rng::restore(ChaChaState {
            key,
            counter: checkpoint.rng.counter,
            cursor: checkpoint.rng.cursor as usize,
        });
        Ok(RunState {
            seed: checkpoint.seed,
            rng,
            queue: EventQueue::restore(
                checkpoint.queue_next_seq,
                checkpoint
                    .queue
                    .iter()
                    .map(|q| (TimePoint::new(q.time), q.seq, q.event)),
            ),
            log: checkpoint.log.clone(),
            arrivals: checkpoint.arrivals.clone(),
            vacant: checkpoint.vacant.clone(),
            next_node: checkpoint.next_node,
            pending: checkpoint.pending.clone(),
            leases: checkpoint
                .leases
                .iter()
                .map(|l| (l.lease, l.clone()))
                .collect(),
            next_lease: checkpoint.next_lease,
            report: checkpoint.report.clone(),
            published_ticks: checkpoint.published_ticks,
            busy_ticks: checkpoint.busy_ticks,
            wait_sum: f64::from_bits(checkpoint.wait_sum_bits),
            slowdown_sum: f64::from_bits(checkpoint.slowdown_sum_bits),
            last_strike: Vec::new(),
        })
    }

    /// Injects an externally submitted job between two steps (service
    /// mode). Returns the engine job id and the effective arrival time.
    ///
    /// The request is appended to the arrival stream and scheduled as an
    /// ordinary `JobArrival` at `at`, clamped so it never precedes the
    /// last processed event (log times stay monotone). No randomness is
    /// drawn, so determinism sharpens to: a run is a pure function of
    /// `(config, seed)` **plus the accepted-submission sequence** — each
    /// submission identified by `(events processed at injection, arrival
    /// time, request)`. Re-injecting the same sequence at the same
    /// points (what the service write-ahead log records) reproduces a
    /// byte-identical event log.
    pub fn submit(
        &self,
        state: &mut RunState,
        request: ResourceRequest,
        at: TimePoint,
    ) -> (u32, TimePoint) {
        let time = at.max(state.last_time());
        let job = state.arrivals.len() as u32;
        state.arrivals.push(ArrivalState { time, request });
        state.queue.push(time, Event::JobArrival { job });
        (job, time)
    }

    /// Runs one event's handler. Every state change of the run happens
    /// in the method the event's type names.
    fn handle(
        &self,
        state: &mut RunState,
        now: TimePoint,
        event: Event,
    ) -> Result<(), EngineError> {
        match event {
            Event::JobArrival { job } => self.on_arrival(state, job),
            Event::SlotPublished { count, .. } => return self.on_publish(state, now, count),
            Event::SlotExpired { .. } => Self::on_expire(state, now),
            Event::CycleTick { cycle } => return self.on_cycle(state, now, cycle),
            Event::RevocationStrike { .. } => self.on_strike(state, now),
            Event::LeaseCompleted { lease } => self.on_complete(state, lease),
        }
        Ok(())
    }

    /// `JobArrival`: the job joins the pending queue.
    fn on_arrival(&self, state: &mut RunState, job: u32) {
        let ArrivalState { time, request } = state.arrivals[job as usize];
        state.report.jobs_arrived += 1;
        state.pending.push(PendingState {
            id: job,
            arrival: time.ticks(),
            vo: job % VOS,
            request,
        });
    }

    /// `SlotPublished`: `count` generated slots, re-homed onto fresh
    /// nodes and shifted to `now`, join the vacant market.
    ///
    /// Node ids never wrap: a run resumed too close to `u32::MAX` to mint
    /// the next one ends with [`EngineError::MalformedCheckpoint`].
    fn on_publish(
        &self,
        state: &mut RunState,
        now: TimePoint,
        count: u32,
    ) -> Result<(), EngineError> {
        let generated = self.slot_gen.generate_exact(&mut state.rng, count as usize);
        for s in generated.iter() {
            let Some(next) = state.next_node.checked_add(1) else {
                return Err(EngineError::MalformedCheckpoint {
                    detail: format!("node ids exhausted at node {}", state.next_node),
                });
            };
            let node = NodeId::new(std::mem::replace(&mut state.next_node, next));
            let span = Span::new(now + (s.start() - TimePoint::ZERO), {
                now + (s.end() - TimePoint::ZERO)
            })
            .expect("generated spans are non-empty");
            let id = state
                .vacant
                .insert(node, s.perf(), s.price(), span)
                .expect("fresh nodes cannot collide with existing slots");
            state.published_ticks += span.length().ticks();
            state
                .queue
                .push(span.end(), Event::SlotExpired { slot: id.raw() });
        }
        Ok(())
    }

    /// `SlotExpired`: the id is only a trigger — sweep everything that
    /// has fully elapsed. The sweep is by time, not by id: a left remnant
    /// carved from a slot carries a fresh id and ends *before* its
    /// parent, at a tick no event was queued for.
    ///
    /// A slot with `end <= now` starts before `now`, and the list is
    /// `(start, id)`-ordered, so only that prefix is looked at. When the
    /// event logged just before this one is a `SlotExpired` at the same
    /// tick, its sweep already ran and no handler ran in between — what
    /// a federation carves or returns between two steps lies at or after
    /// `now` — so there is nothing to find.
    fn on_expire(state: &mut RunState, now: TimePoint) {
        let entries = &state.log.entries;
        let swept = entries.len().checked_sub(2).is_some_and(|prev| {
            let prev = &entries[prev];
            prev.time == now.ticks() && matches!(prev.event, Event::SlotExpired { .. })
        });
        if swept {
            debug_assert!(
                state
                    .vacant
                    .iter()
                    .take_while(|s| s.start() < now)
                    .all(|s| s.end() > now),
                "a slot died between two sweeps of tick {now:?}"
            );
            return;
        }
        state.vacant.expire(now);
    }

    /// `CycleTick`: drop passed alternatives → clip → plan → commit →
    /// coalesce → lease → carry.
    ///
    /// Every lease first drops the alternatives that start before `now`
    /// ([`LeaseState::drop_started`]): a failover can never adopt them, so
    /// no checkpoint need hold them.
    ///
    /// With a batch to plan, the market is clipped to `now` in place and
    /// moved into the search, which carves its alternatives from it; the
    /// commit hands back what is left as the next market. A planning
    /// error ends the run (every caller propagates it) and leaves
    /// `state.vacant` empty. With no batch the market is left unclipped,
    /// and the cycle counts the slots still alive at `now`.
    fn on_cycle(
        &self,
        state: &mut RunState,
        now: TimePoint,
        cycle: u32,
    ) -> Result<(), EngineError> {
        for lease in state.leases.values_mut() {
            lease.drop_started(now);
        }
        let batch_size = state.pending.len();
        let mut point = CyclePoint {
            cycle,
            time: now.ticks(),
            market_slots: 0,
            batch_size,
            scheduled: 0,
            postponed: 0,
            mean_wait: 0.0,
            spend: 0.0,
        };
        if batch_size == 0 {
            let started = state.vacant.iter().take_while(|s| s.start() < now);
            let dead = started.filter(|s| s.end() <= now).count();
            point.market_slots = state.vacant.len() - dead;
            state.report.cycles.push(point);
            return Ok(());
        }

        state.vacant.clip(now);
        point.market_slots = state.vacant.len();
        let market = std::mem::take(&mut state.vacant);
        let mut result = self.plan(state, market)?;
        state.report.opt.merge(&result.opt);
        // Fragments accumulate at commit boundaries (released
        // alternatives, returned tails, clip remnants); merging touching
        // same-attribute neighbours, in the walk that releases the
        // alternatives, keeps the list — and every later scan over it —
        // small.
        let (chosen, exec, absorbed) = cycle::commit(&mut result, self.config.coalesce);
        state.report.slots_coalesced += absorbed as u64;
        state.vacant = exec;

        let alternatives = std::mem::take(&mut result.search.alternatives);
        let cycle_wait = self.lease_chosen(state, alternatives, &chosen, &mut point);
        state.report.jobs_scheduled += point.scheduled as u64;
        point.postponed = state.pending.len();
        if point.scheduled > 0 {
            point.mean_wait = cycle_wait as f64 / point.scheduled as f64;
        }
        self.obs.feed(Fact::Cycle(&point, &result));
        state.report.cycles.push(point);
        Ok(())
    }

    /// The plan step of a cycle: the pending queue re-keyed as a batch —
    /// its order is `(arrival, id)`, so the longest-waiting job takes the
    /// highest priority — through alternatives search, VO limits and
    /// combination optimization over `market`, which the search carves
    /// into its leftover. Planned from this cycle's alternatives alone;
    /// nothing is carried to the next cycle.
    fn plan(&self, state: &RunState, market: SlotList) -> Result<IterationResult, EngineError> {
        let jobs: Vec<Job> = state
            .pending
            .iter()
            .enumerate()
            .map(|(i, p)| Job::new(JobId::new(i as u32), p.request))
            .collect();
        let batch = Batch::from_jobs(jobs).expect("re-keyed ids are unique");
        Ok(run_iteration_in(
            self.selector,
            market,
            &batch,
            &self.config.iteration,
        )?)
    }

    /// The lease and carry steps of a cycle: every pending job the
    /// optimizer covered becomes a lease holding its chosen window, with
    /// the non-chosen alternatives attached for failover; the rest stay
    /// pending. The cycle's alternatives (one set per pending job, in
    /// queue order) are moved into the leases, not copied. Books
    /// `scheduled` and `spend` into `point` and returns the summed wait of
    /// the committed jobs.
    fn lease_chosen(
        &self,
        state: &mut RunState,
        alternatives: BatchAlternatives,
        chosen: &[Option<usize>],
        point: &mut CyclePoint,
    ) -> i64 {
        let mut cycle_wait: i64 = 0;
        let pending = std::mem::take(&mut state.pending);
        for ((p, found), picked) in pending.into_iter().zip(alternatives).zip(chosen) {
            let Some(alt_idx) = *picked else {
                state.pending.push(p);
                continue;
            };
            let mut alternatives: Vec<Window> =
                found.into_iter().map(Alternative::into_window).collect();
            let window = alternatives.remove(alt_idx);
            self.obs.feed(Fact::Chosen(alt_idx));
            let cost = window.total_cost().to_f64();
            cycle_wait += window.start().ticks() - p.arrival;
            point.spend += cost;
            point.scheduled += 1;
            state.report.vo_spend[p.vo as usize] += cost;
            self.commit_lease(state, p, window, alternatives, 0);
        }
        cycle_wait
    }

    /// `RevocationStrike`: draw revocations → find the broken leases →
    /// release their survivors → recover each, in lease-id (commitment)
    /// order.
    fn on_strike(&self, state: &mut RunState, now: TimePoint) {
        // Sample against the live surface: vacant slots and active lease
        // regions (so strikes can land on windows carved by earlier
        // repairs).
        let surface = state.leases.values().map(|al| &al.window);
        let revocations = self
            .revocation
            .draw_live(&state.vacant, surface, &mut state.rng);
        state.report.revocations += revocations.len() as u64;
        if revocations.is_empty() {
            state.last_strike.clear();
            return;
        }
        for r in &revocations {
            state.vacant.remove_region(r.node, r.span);
        }

        let struck = |window: &Window| revocations.iter().any(|r| r.breaks(window));
        let mut broken: Vec<u64> = Vec::new();
        for (id, al) in state.leases.iter().filter(|(_, al)| struck(&al.window)) {
            cycle::release_broken(&mut state.vacant, &al.window, &revocations, now);
            broken.push(*id);
        }
        state.report.leases_broken += broken.len() as u64;

        self.obs.feed(Fact::Repair(now.ticks(), broken.len()));
        for id in broken {
            self.recover_lease(state, id, &revocations, now);
        }
        state.last_strike = revocations;
    }

    /// Runs the shared recovery tiers over one broken lease and books the
    /// outcome: a recovered window is re-committed under a fresh lease id
    /// (the old id dies here; its pending completion event goes stale), a
    /// postponed job rejoins the pending queue.
    fn recover_lease(
        &self,
        state: &mut RunState,
        id: u64,
        revocations: &[Revocation],
        now: TimePoint,
    ) {
        let mut original = state.leases.remove(&id).expect("broken ids are live");
        let job = original.pending();
        let recovery = cycle::recover(
            &self.selector,
            &self.config.repair,
            &original.request,
            &original.window,
            original.alternatives.iter().enumerate(),
            &mut state.vacant,
            revocations,
            now,
        );
        match recovery {
            Recovery::FailedOver {
                alternative,
                window,
            } => {
                state.report.failovers += 1;
                self.obs
                    .feed(Fact::Failover(original.dropped + alternative));
                original.alternatives.remove(alternative);
                // The dropped alternatives came before the adopted one, so
                // the survivors' labels still count them.
                let survivors = original.alternatives;
                self.commit_lease(state, job, window, survivors, original.dropped);
            }
            Recovery::Repaired { window } => {
                state.report.repairs += 1;
                self.commit_lease(state, job, window, Vec::new(), 0);
            }
            Recovery::Postponed(reason) => {
                state.report.repostponed += 1;
                self.obs.feed(Fact::Postponed(reason));
                state.pending.push(job);
                state.pending.sort_by_key(|p| (p.arrival, p.id));
            }
        }
    }

    /// `LeaseCompleted`: retires the lease and returns its unused tails
    /// (members faster than the elapsed run, or the completion-fraction
    /// shortfall) to the vacant list as ordinary inserts.
    fn on_complete(&self, state: &mut RunState, lease: u64) {
        let Some(al) = state.leases.remove(&lease) else {
            // The lease broke and was replaced after this event was
            // scheduled.
            state.report.stale_completions += 1;
            return;
        };
        state.report.jobs_completed += 1;
        let run = al.actual_length;
        let wait = al.window.start().ticks() - al.arrival;
        state.wait_sum += wait as f64;
        state.slowdown_sum += ((wait + run) as f64 / run.max(SLOWDOWN_TAU) as f64).max(1.0);

        for ws in al.window.slots() {
            state.busy_ticks += ws.runtime().ticks().min(run);
            if ws.runtime().ticks() > run {
                let tail = Span::new(
                    al.window.start() + TimeDelta::new(run),
                    al.window.start() + ws.runtime(),
                )
                .expect("tails are non-empty");
                state.vacant.release_region(ws, tail);
            }
        }
    }

    /// Commits a window as a fresh lease of `job`, holding `alternatives`
    /// after `dropped` earlier ones, and schedules its completion.
    fn commit_lease(
        &self,
        state: &mut RunState,
        job: PendingState,
        window: Window,
        alternatives: Vec<Window>,
        dropped: usize,
    ) {
        let planned = window.length().ticks();
        let actual = ((planned as f64 * COMPLETION_FRACTION).ceil() as i64).clamp(1, planned);
        let lease_id = state.next_lease;
        state.next_lease += 1;
        state.queue.push(
            window.start() + TimeDelta::new(actual),
            Event::LeaseCompleted { lease: lease_id },
        );
        state.leases.insert(
            lease_id,
            LeaseState {
                lease: lease_id,
                job: job.id,
                arrival: job.arrival,
                vo: job.vo,
                request: job.request,
                window,
                alternatives,
                dropped,
                actual_length: actual,
            },
        );
    }

    /// Precomputes the `(arrival time, request)` stream this engine's
    /// configuration describes, drawing from `rng` exactly as
    /// [`Engine::start`] does before it draws anything else.
    ///
    /// Public so the federation layer can generate the *offered load*
    /// once at the superscheduler level (from the base configuration and
    /// seed) and then route each arrival to an `External`-mode shard —
    /// keeping the stream identical to what a single engine at the same
    /// seed would have faced, whatever the shard count.
    pub fn generate_arrivals(&self, rng: &mut ChaCha8Rng) -> Vec<(TimePoint, ResourceRequest)> {
        match &self.config.arrivals {
            ArrivalConfig::Poisson {
                mean_interarrival,
                jobs,
                job_gen,
            } => {
                let job_gen = JobGenerator::new(*job_gen);
                let mut t = 0.0f64;
                let mut out = Vec::with_capacity(*jobs as usize);
                for _ in 0..*jobs {
                    let u: f64 = rng.gen_range(0.0..=1.0);
                    // Inverse-CDF exponential draw, clamped away from
                    // ln(0).
                    t += -((1.0 - u).max(1e-12)).ln() * mean_interarrival;
                    let batch = job_gen.generate_exact(rng, 1);
                    out.push((TimePoint::new(t as i64), *batch.as_slice()[0].request()));
                }
                out
            }
            // Service mode: the stream starts empty and grows through
            // `Engine::submit`.
            ArrivalConfig::External => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::event::LogPosition;
    use crate::obs::engine_obs;
    use ecosched_core::{Perf, Price, Slot, SlotId, WindowSlot};
    use ecosched_select::{Alp, Amp};
    use ecosched_sim::RevocationConfig;

    pub(super) fn small_config() -> EngineConfig {
        EngineConfig {
            cycles: 4,
            arrivals: ArrivalConfig::Poisson {
                mean_interarrival: 10.0,
                jobs: 12,
                job_gen: ecosched_sim::JobGenConfig::default(),
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn run_schedules_and_completes_jobs() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let run = engine.run(7).unwrap();
        assert_eq!(run.report.jobs_arrived, 12);
        assert!(run.report.jobs_scheduled > 0, "nothing scheduled");
        assert!(run.report.jobs_completed > 0, "nothing completed");
        assert_eq!(run.report.cycles.len(), 4);
        assert!(run.report.utilization > 0.0 && run.report.utilization <= 1.0);
        assert_eq!(run.report.event_count, run.log.len() as u64);
        // Accounting: every arrival is scheduled-and-completed, still
        // pending, or holds no lease only because the run ended.
        assert!(run.report.jobs_completed + run.report.backlog <= run.report.jobs_arrived);
    }

    /// A window scan reads each slot of its list at most once, so no
    /// `find_window` examines more than the `m` slots it is handed: for
    /// ALP and AMP, every request of the run, on the market as slots are
    /// published into it (fresh) and after each cycle clipped to `now` the
    /// way a cycle clips it.
    #[test]
    fn a_window_scan_examines_no_slot_twice() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let mut scans = 0;
        while let Some(entry) = engine.step(&mut state).unwrap() {
            let now = TimePoint::new(entry.time);
            let market = match entry.event {
                Event::SlotPublished { .. } => state.vacant.clone(),
                Event::CycleTick { .. } => {
                    let mut market = state.vacant.clone();
                    market.clip(now);
                    market
                }
                _ => continue,
            };
            let m = market.len() as u64;
            for ArrivalState { request, .. } in &state.arrivals {
                for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
                    let mut stats = ecosched_select::ScanStats::new();
                    let _ = selector.find_window(&market, request, &mut stats);
                    assert!(
                        stats.slots_examined <= m,
                        "{} examined {} slots of {m} at {now:?}",
                        selector.name(),
                        stats.slots_examined
                    );
                    scans += 1;
                }
            }
        }
        assert!(scans > 100, "{scans} scans");
    }

    #[test]
    fn log_times_are_monotone() {
        let engine = Engine::new(small_config(), Alp::new()).unwrap();
        let run = engine.run(3).unwrap();
        for pair in run.log.entries.windows(2) {
            assert!(pair[0].time <= pair[1].time, "virtual time went backwards");
        }
    }

    #[test]
    fn vo_spend_matches_cycle_spend() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let run = engine.run(11).unwrap();
        let by_vo: f64 = run.report.vo_spend.iter().sum();
        let by_cycle: f64 = run.report.cycles.iter().map(|c| c.spend).sum();
        // Repair re-commitments do not add cycle spend, so VO spend can
        // only exceed cycle spend under churn; without churn they match.
        assert!((by_vo - by_cycle).abs() < 1e-6);
    }

    #[test]
    fn churn_breaks_and_recovers_leases() {
        let config = EngineConfig {
            revocation: RevocationConfig::per_slot(0.06),
            ..small_config()
        };
        let engine = Engine::new(config, Amp::new()).unwrap();
        let run = engine.run(5).unwrap();
        assert!(run.report.revocations > 0, "churn must inject faults");
        assert!(
            run.log
                .entries
                .iter()
                .any(|e| matches!(e.event, Event::RevocationStrike { .. })),
            "strikes must be logged"
        );
        assert_eq!(
            run.report.leases_broken,
            run.report.failovers + run.report.repairs + run.report.repostponed,
            "every broken lease ends in a terminal tier"
        );
    }

    #[test]
    fn zero_attempt_budget_repostpones_every_broken_lease() {
        // With no attempts to spend, neither tier 1 nor the tier-2 scan
        // runs, so every broken lease goes straight back to pending.
        let config = EngineConfig {
            revocation: RevocationConfig::per_slot(0.15),
            repair: ecosched_sim::RepairPolicy { max_attempts: 0 },
            ..small_config()
        };
        let engine = Engine::new(config, Alp::new()).unwrap();
        let run = engine.run(13).unwrap();
        assert!(run.report.leases_broken > 0, "churn must break something");
        assert_eq!(run.report.failovers + run.report.repairs, 0);
        assert_eq!(run.report.repostponed, run.report.leases_broken);
        assert_eq!(engine.run(13).unwrap(), run, "log must be deterministic");
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = EngineConfig {
            cycles: 0,
            ..EngineConfig::default()
        };
        assert!(Engine::new(bad, Amp::new()).is_err());
    }

    #[test]
    fn stepwise_run_matches_one_shot_run() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let oneshot = engine.run(7).unwrap();
        let mut state = engine.start(7);
        let mut logged = Vec::new();
        while let Some(entry) = engine.step(&mut state).unwrap() {
            logged.push(entry);
        }
        let stepped = engine.finish(state);
        assert_eq!(stepped, oneshot);
        assert_eq!(logged, oneshot.log.entries);
    }

    #[test]
    fn checkpoint_resume_converges_mid_run() {
        let config = EngineConfig {
            revocation: RevocationConfig::per_slot(0.05),
            ..small_config()
        };
        let engine = Engine::new(config, Amp::new()).unwrap();
        let baseline = engine.run(5).unwrap();

        // Checkpoint after every event; resume from a spread of points.
        for cut in [1usize, 3, 10, 25, 60] {
            let mut state = engine.start(5);
            for _ in 0..cut {
                if engine.step(&mut state).unwrap().is_none() {
                    break;
                }
            }
            let checkpoint = engine.checkpoint(&state);
            assert!(
                checkpoint.optimizer.is_none(),
                "no optimizer state to carry"
            );
            let mut resumed = engine.resume(&checkpoint).unwrap();
            while engine.step(&mut resumed).unwrap().is_some() {}
            let run = engine.finish(resumed);
            assert_eq!(run, baseline, "divergence after resume at event {cut}");
        }
    }

    #[test]
    fn resume_rejects_foreign_config() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(7);
        for _ in 0..5 {
            engine.step(&mut state).unwrap();
        }
        let checkpoint = engine.checkpoint(&state);

        let other_config = Engine::new(
            EngineConfig {
                cycles: 5,
                ..small_config()
            },
            Amp::new(),
        )
        .unwrap();
        assert!(matches!(
            other_config.resume(&checkpoint),
            Err(EngineError::CheckpointMismatch { .. })
        ));
        let other_selector = Engine::new(small_config(), Alp::new()).unwrap();
        assert!(matches!(
            other_selector.resume(&checkpoint),
            Err(EngineError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn resume_rejects_malformed_rng_state() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let state = engine.start(7);
        let good = engine.checkpoint(&state);

        let mut short_key = good.clone();
        short_key.rng.key.pop();
        assert!(matches!(
            engine.resume(&short_key),
            Err(EngineError::MalformedCheckpoint { .. })
        ));

        let mut bad_cursor = good;
        bad_cursor.rng.cursor = 17;
        assert!(matches!(
            engine.resume(&bad_cursor),
            Err(EngineError::MalformedCheckpoint { .. })
        ));
    }

    /// A trimmed log — its newest entry and the position of the rest —
    /// resumes into the run the whole one resumes into, at every step. A
    /// log after a later position with no entry at all (a format 3–4
    /// store file read raw) is refused by name.
    #[test]
    fn resume_accepts_a_trimmed_log_and_refuses_an_empty_one_after_a_position() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut whole = engine.start(7);
        let mut trimmed = engine.start(7);
        for step in 0..40 {
            engine.step(&mut whole).unwrap();
            engine.step(&mut trimmed).unwrap();
            trimmed.trim_log();
            assert_eq!(trimmed.log().entries.len(), 1);
            assert_eq!(trimmed.last_entry(), whole.last_entry());
            if step % 13 != 0 {
                continue;
            }
            let checkpoint = engine.checkpoint(&trimmed);
            assert_eq!(checkpoint.log.len(), whole.log().len());
            let (mut a, mut b) = (
                engine.resume(&checkpoint).unwrap(),
                engine.resume(&engine.checkpoint(&whole)).unwrap(),
            );
            while let Some(entry) = engine.step(&mut a).unwrap() {
                assert_eq!(Some(entry), engine.step(&mut b).unwrap());
            }
            assert!(engine.step(&mut b).unwrap().is_none());
            assert_eq!(engine.finish(a).report, engine.finish(b).report);
        }

        let mut detached = engine.checkpoint(&whole);
        let position = LogPosition::after(&detached.log.entries);
        detached.log = Log::detached(position);
        match engine.resume(&detached) {
            Err(EngineError::DetachedCheckpoint { missing }) => assert_eq!(missing, 40),
            other => panic!("expected DetachedCheckpoint, got {other:?}"),
        }
        // Put back, it is the checkpoint it was.
        detached.log.attach(whole.log().entries.clone());
        assert_eq!(detached, engine.checkpoint(&whole));
        assert!(engine.resume(&detached).is_ok());
    }

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    /// A unit-performance slot on `node` over `[a, b)` at 2 credits a tick.
    fn slot(id: u64, node: u32, a: i64, b: i64) -> Slot {
        let price = Price::from_credits(2);
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            price,
            span(a, b),
        )
        .unwrap()
    }

    /// `[start, start + 20)` on each of `nodes`.
    fn window(nodes: &[u32], start: i64) -> Window {
        let members = nodes.iter().map(|&node| {
            WindowSlot::from_slot(&slot(900, node, start, start + 20), TimeDelta::new(20)).unwrap()
        });
        Window::new(TimePoint::new(start), members.collect()).unwrap()
    }

    fn starts(windows: &[Window]) -> Vec<i64> {
        windows.iter().map(|w| w.start().ticks()).collect()
    }

    /// Two unit-performance nodes for 20 ticks, any price up to 5.
    fn request() -> ResourceRequest {
        ResourceRequest::new(2, TimeDelta::new(20), Perf::UNIT, Price::from_credits(5)).unwrap()
    }

    /// A lease drops exactly the prefix of its alternatives that starts
    /// before the tick, and counts it; a later stale one out of start
    /// order stays for recovery to skip.
    #[test]
    fn a_lease_drops_only_the_started_prefix_of_its_alternatives() {
        let mut lease = LeaseState {
            lease: 0,
            job: 0,
            arrival: 0,
            vo: 0,
            request: request(),
            window: window(&[0, 1], 0),
            alternatives: [10, 20, 40, 15].map(|t| window(&[2, 3], t)).to_vec(),
            dropped: 0,
            actual_length: 15,
        };
        lease.drop_started(TimePoint::new(20));
        assert_eq!(
            (starts(&lease.alternatives), lease.dropped),
            (vec![20, 40, 15], 1)
        );
        lease.drop_started(TimePoint::new(20));
        assert_eq!(
            (starts(&lease.alternatives), lease.dropped),
            (vec![20, 40, 15], 1)
        );
        lease.drop_started(TimePoint::new(30));
        assert_eq!(
            (starts(&lease.alternatives), lease.dropped),
            (vec![40, 15], 2)
        );
    }

    /// A lease that dropped `k` alternatives and fails over to its `j`-th
    /// survivor feeds label `k + j` — the position it had in the whole
    /// list — and is re-committed with `k` and the other survivors.
    #[test]
    fn a_failover_label_counts_the_dropped_alternatives() {
        let engine = Engine::new(small_config(), Amp::new())
            .unwrap()
            .with_obs(engine_obs());
        let mut state = engine.start(7);
        state.vacant = SlotList::from_slots(vec![slot(0, 0, 0, 200), slot(1, 1, 0, 200)]).unwrap();
        state.next_node = 6;
        let job = PendingState {
            id: 0,
            arrival: 0,
            vo: 0,
            request: request(),
        };
        // Survivor 0 is on nodes nobody offers any more; survivor 1 is
        // vacant.
        let survivors = vec![window(&[4, 5], 100), window(&[0, 1], 130)];
        let (k, j) = (3, 1);
        engine.commit_lease(&mut state, job, window(&[2, 3], 100), survivors.clone(), k);
        let broken = state.next_lease - 1;
        let strike = [Revocation {
            slot: SlotId::new(77),
            node: NodeId::new(2),
            span: span(0, 1000),
        }];
        engine.recover_lease(&mut state, broken, &strike, TimePoint::new(90));

        let leases: Vec<&LeaseState> = state.leases.values().collect();
        let [lease] = leases[..] else {
            panic!("one lease, not {}", leases.len());
        };
        assert_ne!(lease.lease, broken);
        assert_eq!(lease.window, survivors[j]);
        assert_eq!(lease.alternatives, survivors[..j]);
        assert_eq!(lease.dropped, k);
        let reg = engine.obs().recorder().unwrap().registry().unwrap();
        let failovers = reg
            .find_histogram("ecosched_engine_alternative_failover_index", &[])
            .unwrap();
        assert_eq!(
            (reg.histogram_count(failovers), reg.histogram_sum(failovers)),
            (1, (k + j) as u64)
        );
    }

    #[test]
    fn coalescing_reduces_market_fragmentation() {
        let on = Engine::new(small_config(), Amp::new()).unwrap();
        let off = Engine::new(
            EngineConfig {
                coalesce: false,
                ..small_config()
            },
            Amp::new(),
        )
        .unwrap();
        let run_on = on.run(7).unwrap();
        let run_off = off.run(7).unwrap();
        assert!(run_on.report.slots_coalesced > 0, "nothing coalesced");
        assert_eq!(run_off.report.slots_coalesced, 0);
        // Same arrivals either way; coalescing only changes the market's
        // granularity.
        assert_eq!(run_on.report.jobs_arrived, run_off.report.jobs_arrived);
    }
}
