//! The superscheduler: S shard engines behind one submission surface,
//! with pluggable routing, cross-shard co-allocation, and a
//! deterministic merged event log.
//!
//! # Determinism under sharding
//!
//! Each shard is the unmodified single engine — a pure function of
//! `(config, seed, routed-arrival sequence)`. The federation adds no
//! randomness of its own: the offered stream is generated once from the
//! federation seed with the base engine's own generator, and every
//! routing decision reads only shard state that is itself deterministic.
//!
//! The merge loop maintains one invariant: **route before step**. An
//! arrival at time `t` is routed before any shard processes an event at
//! time ≥ `t` (ties go to the router). Under that invariant every event
//! the loop pops is the global minimum of the remaining events under
//! `(time, seq, shard)`, every push lands at a key strictly above
//! everything already popped, and therefore the live merged log equals
//! the sorted union of the final shard logs — which [`finish`] asserts
//! by recomputing the union with [`merge_shard_logs`].
//!
//! [`finish`]: Federation::finish

use ecosched_core::{Money, ResourceRequest, TimePoint, Window};
use ecosched_engine::{
    fnv1a_64, ArrivalState, Engine, EngineCheckpoint, EngineError, EngineRun, Log, LogEntry,
    RunState,
};
use ecosched_select::{repair_search, RepairError, ScanStats, SlotSelector};
use ecosched_sim::ConfigError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::coalloc::{split_nodes, CrossShardPart, CrossShardWindow};
use crate::config::{FederationConfig, RoutePolicy};
use crate::merge::{merge_shard_logs, FederatedLogEntry};
use crate::obs::FederationObs;
use crate::report::{FederationReport, RouteCounters};
use ecosched_engine::EngineObs;

/// Errors from a federated run.
#[derive(Debug)]
pub enum FederationError {
    /// A shard engine failed.
    Engine {
        /// The failing shard.
        shard: u32,
        /// The underlying engine error.
        source: EngineError,
    },
    /// A cross-shard part probed on a shard's market did not carve out
    /// of it; every part already carved was returned.
    Carve {
        /// The refusing shard.
        shard: u32,
        /// Why the window no longer fits.
        source: RepairError,
    },
    /// The federation was handed a shard it does not have: a routed
    /// submission naming one, or a checkpoint of another shard count.
    Protocol {
        /// What was refused.
        detail: String,
    },
    /// A checkpoint was taken under a different `(config, selector)`
    /// fingerprint.
    CheckpointMismatch {
        /// The fingerprint of this federation.
        expected: u64,
        /// The fingerprint in the checkpoint.
        found: u64,
    },
    /// A checkpoint's merged log sits after a later position but holds
    /// no entry, not even the newest, which routing reads. That is a
    /// format 3–4 store file read raw: its entries are in the store's log
    /// segment. Load it through the store, which attaches the verified
    /// prefix.
    DetachedCheckpoint {
        /// Merged-log entries the checkpoint does not carry.
        missing: u64,
    },
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::Engine { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            FederationError::Carve { shard, source } => {
                write!(f, "shard {shard} refused a cross-shard part: {source}")
            }
            FederationError::Protocol { detail } => write!(f, "{detail}"),
            FederationError::CheckpointMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint fingerprint {found:#018x} does not match this \
                     federation's {expected:#018x}"
                )
            }
            FederationError::DetachedCheckpoint { missing } => {
                write!(
                    f,
                    "checkpoint is detached from the first {missing} entries of its \
                     merged log; load it through the snapshot store that holds them"
                )
            }
        }
    }
}

impl std::error::Error for FederationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FederationError::Engine { source, .. } => Some(source),
            FederationError::Carve { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Where a submission landed.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// The whole job went to one shard.
    Single {
        /// The hosting shard.
        shard: u32,
        /// The shard-local job id.
        job: u32,
        /// The (possibly clamped) arrival time the shard recorded.
        time: TimePoint,
    },
    /// The job was split across shards by cross-shard co-allocation.
    Cross(CrossShardWindow),
}

/// The resumable state of a federated run: the shard run states plus the
/// superscheduler's own stream cursor, router state, merged log, and
/// committed cross-shard placements.
#[derive(Debug)]
pub struct FederationState {
    seed: u64,
    shards: Vec<RunState>,
    /// The federation-level offered stream (empty for S=1, where shard 0
    /// drives its own arrivals, and for external-only service runs).
    arrivals: Vec<ArrivalState>,
    next_arrival: usize,
    next_fed_job: u64,
    rr_cursor: u64,
    merged: Log<FederatedLogEntry>,
    cross_shard: Vec<CrossShardWindow>,
    counters: RouteCounters,
}

impl FederationState {
    /// The federation seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One shard's run state.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &RunState {
        &self.shards[shard]
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The merged log so far.
    #[must_use]
    pub fn merged(&self) -> &Log<FederatedLogEntry> {
        &self.merged
    }

    /// Trims the merged log and every shard's ([`Log::trim`]) to its
    /// newest entry. The run goes on, and hashes its logs, exactly as
    /// before; each shard keeps its log's true position, which its report
    /// hashes.
    pub fn trim_logs(&mut self) {
        self.merged.trim();
        for shard in &mut self.shards {
            shard.trim_log();
        }
    }

    /// Cross-shard placements committed so far.
    #[must_use]
    pub fn cross_shard(&self) -> &[CrossShardWindow] {
        &self.cross_shard
    }

    /// Router counters so far.
    #[must_use]
    pub fn counters(&self) -> &RouteCounters {
        &self.counters
    }

    /// Federation jobs accepted so far (stream arrivals routed plus
    /// external submissions).
    #[must_use]
    pub fn jobs_offered(&self) -> u64 {
        self.next_fed_job
    }

    /// Total backlog (pending plus leased) across shards.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(RunState::backlog).sum()
    }

    /// The latest virtual time any shard has reached.
    #[must_use]
    pub fn last_time(&self) -> TimePoint {
        self.shards
            .iter()
            .map(RunState::last_time)
            .max()
            .unwrap_or(TimePoint::ZERO)
    }

    /// The `(time, seq, shard)` key of the globally next shard event, if
    /// any shard still has one queued.
    #[must_use]
    pub fn next_event_key(&self) -> Option<(i64, u64, u32)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, st)| st.next_event_key().map(|(t, q)| (t, q, s as u32)))
            .min()
    }

    /// Virtual time of the next thing the merge loop would process
    /// (stream arrival or shard event), if anything remains.
    #[must_use]
    pub fn next_time(&self) -> Option<TimePoint> {
        let arrival = self.arrivals.get(self.next_arrival).map(|a| a.time);
        let event = self.next_event_key().map(|(t, _, _)| TimePoint::new(t));
        match (arrival, event) {
            (Some(a), Some(e)) => Some(a.min(e)),
            (Some(a), None) => Some(a),
            (None, e) => e,
        }
    }
}

/// What the merge loop does next.
enum NextAction {
    /// Route the next pending stream arrival.
    Route,
    /// Step the shard holding the globally earliest event.
    Step(usize),
}

/// A fully checkpointed federation: per-shard engine checkpoints plus the
/// router state, in one serializable container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationCheckpoint {
    /// The federation seed.
    pub seed: u64,
    /// Fingerprint of `(config, selector)`; resume refuses a mismatch.
    pub config_fp: u64,
    /// Per-shard engine checkpoints, in shard order.
    pub shards: Vec<EngineCheckpoint>,
    /// The federation-level offered stream.
    pub arrivals: Vec<ArrivalState>,
    /// Stream arrivals already routed.
    pub next_arrival: u64,
    /// Federation jobs accepted so far.
    pub next_fed_job: u64,
    /// Round-robin router cursor.
    pub rr_cursor: u64,
    /// The merged log so far, as the run held it: all of it, or — for a
    /// run that trims its logs — the newest entry after the position of
    /// the rest. A format 3–4 store file holds only the position; its
    /// store attaches the entries, and rebuilds the shards' logs from
    /// them, on load.
    pub merged: Log<FederatedLogEntry>,
    /// Cross-shard placements committed so far.
    pub cross_shard: Vec<CrossShardWindow>,
    /// Router counters so far.
    pub counters: RouteCounters,
}

/// The result of a drained federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationRun {
    /// The aggregate report.
    pub report: FederationReport,
    /// The merged, shard-tagged event log.
    pub merged: Log<FederatedLogEntry>,
    /// Every committed cross-shard placement.
    pub cross_shard: Vec<CrossShardWindow>,
    /// The per-shard engine runs (each with its own log and report).
    pub shards: Vec<EngineRun>,
}

/// The superscheduler: S shard engines, a routing policy, and the merge
/// loop that interleaves routing with shard stepping deterministically.
#[derive(Debug, Clone)]
pub struct Federation<S> {
    config: FederationConfig,
    selector: S,
    /// An engine over the *base* configuration — the arrival-stream
    /// generator for S>1 (and, for S=1, configured identically to the
    /// single shard).
    base: Engine<S>,
    shards: Vec<Engine<S>>,
    /// Observability handle — runtime state like the engine's: never
    /// serialized, absent from the fingerprint and checkpoints.
    obs: FederationObs,
}

impl<S: SlotSelector + Copy> Federation<S> {
    /// Creates a federation over a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first invalid field.
    pub fn new(config: FederationConfig, selector: S) -> Result<Self, ConfigError> {
        config.validate()?;
        let base = Engine::new(config.base.clone(), selector)?;
        let shards = (0..config.shards)
            .map(|s| Engine::new(config.shard_config(s), selector))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Federation {
            config,
            selector,
            base,
            shards,
            obs: FederationObs::off(),
        })
    }

    /// Attaches observability: a federation-level handle for routing
    /// counters and shard gauges, plus one engine handle per shard
    /// (pass [`EngineObs::off`] entries to skip shards). Extra entries
    /// beyond the shard count are ignored.
    #[must_use]
    pub fn with_obs(mut self, fed: FederationObs, shard_obs: Vec<EngineObs>) -> Self {
        self.set_obs(fed, shard_obs);
        self
    }

    /// In-place form of [`Self::with_obs`], for callers that built the
    /// federation before the recorder (the service session attaches
    /// observability only after boot replay, so recovery is never
    /// recorded as live traffic).
    pub fn set_obs(&mut self, fed: FederationObs, shard_obs: Vec<EngineObs>) {
        self.obs = fed;
        for (engine, obs) in self.shards.iter_mut().zip(shard_obs) {
            engine.set_obs(obs);
        }
    }

    /// The federation-level observability handle.
    #[must_use]
    pub fn obs(&self) -> &FederationObs {
        &self.obs
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The engine of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_engine(&self, shard: usize) -> &Engine<S> {
        &self.shards[shard]
    }

    /// FNV-1a 64 fingerprint of the federation configuration and selector
    /// name.
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        let mut keyed = format!("{}|", self.selector.name()).into_bytes();
        self.config.write_json(&mut keyed);
        fnv1a_64(&keyed)
    }

    /// Builds the initial federation state: starts every shard on its
    /// derived seed and, for S>1, generates the offered stream from the
    /// base configuration on the federation seed.
    #[must_use]
    pub fn start(&self, seed: u64) -> FederationState {
        let shards: Vec<RunState> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, engine)| engine.start(self.config.shard_seed(seed, s as u32)))
            .collect();
        let arrivals = if self.config.shards == 1 {
            Vec::new()
        } else {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            self.base
                .generate_arrivals(&mut rng)
                .into_iter()
                .map(|(time, request)| ArrivalState { time, request })
                .collect()
        };
        let counters = RouteCounters::new(self.shards.len());
        FederationState {
            seed,
            shards,
            arrivals,
            next_arrival: 0,
            next_fed_job: 0,
            rr_cursor: 0,
            merged: Log::new(),
            cross_shard: Vec::new(),
            counters,
        }
    }

    /// Runs the federation to queue exhaustion.
    ///
    /// Deterministic: a pure function of `(config, seed)`; two identical
    /// calls produce byte-identical [`FederationRun`]s.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn run(&self, seed: u64) -> Result<FederationRun, FederationError> {
        let mut state = self.start(seed);
        while self.step(&mut state)?.is_some() {}
        Ok(self.finish(state))
    }

    /// What the merge loop does next: route the pending stream arrival if
    /// it is due at or before the earliest shard event (route-before-step,
    /// ties to the router), otherwise step the shard holding the globally
    /// earliest `(time, seq, shard)` event.
    fn next_action(&self, state: &FederationState) -> Option<NextAction> {
        let arrival = state
            .arrivals
            .get(state.next_arrival)
            .map(|a| a.time.ticks());
        let head = state.next_event_key();
        match (arrival, head) {
            (Some(at), Some((ht, _, _))) if at <= ht => Some(NextAction::Route),
            (Some(_), None) => Some(NextAction::Route),
            (_, Some((_, _, shard))) => Some(NextAction::Step(shard as usize)),
            (None, None) => None,
        }
    }

    /// Advances the federation by exactly one merged-log entry: routes
    /// every stream arrival that is due, then steps the shard holding the
    /// globally earliest event. Returns `None` when the run has drained.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn step(
        &self,
        state: &mut FederationState,
    ) -> Result<Option<FederatedLogEntry>, FederationError> {
        self.advance_one(state, None)
    }

    /// Processes merge-loop work with virtual time at most `target`;
    /// returns the number of merged entries produced. The service daemon
    /// uses this to pace shards against the wall clock.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn advance_to(
        &self,
        state: &mut FederationState,
        target: TimePoint,
    ) -> Result<u64, FederationError> {
        let mut processed = 0;
        while self.advance_one(state, Some(target.ticks()))?.is_some() {
            processed += 1;
        }
        Ok(processed)
    }

    /// One iteration of the merge loop, bounded by an optional time
    /// limit. Routing consumes arrivals without producing entries, so the
    /// loop continues until a shard steps (one entry) or nothing due
    /// remains.
    fn advance_one(
        &self,
        state: &mut FederationState,
        limit: Option<i64>,
    ) -> Result<Option<FederatedLogEntry>, FederationError> {
        loop {
            let due = |time: i64| limit.is_none_or(|l| time <= l);
            match self.next_action(state) {
                None => return Ok(None),
                Some(NextAction::Route) => {
                    let ArrivalState { time: at, request } = state.arrivals[state.next_arrival];
                    if !due(at.ticks()) {
                        return Ok(None);
                    }
                    state.next_arrival += 1;
                    let fed_job = state.next_fed_job;
                    state.next_fed_job += 1;
                    self.place(state, fed_job, request, at)?;
                    self.obs.feed(state);
                }
                Some(NextAction::Step(shard)) => {
                    let Some((time, _, _)) = state.next_event_key() else {
                        return Ok(None);
                    };
                    if !due(time) {
                        return Ok(None);
                    }
                    let engine = &self.shards[shard];
                    let stepped = engine.step(&mut state.shards[shard]).map_err(|source| {
                        FederationError::Engine {
                            shard: shard as u32,
                            source,
                        }
                    })?;
                    let Some(entry) = stepped else {
                        // The head vanished between peek and pop — cannot
                        // happen single-threaded; treat as drained.
                        return Ok(None);
                    };
                    let fed = FederatedLogEntry {
                        shard: shard as u32,
                        time: entry.time,
                        seq: entry.seq,
                        event: entry.event,
                    };
                    state.merged.push(fed);
                    self.obs.feed(state);
                    return Ok(Some(fed));
                }
            }
        }
    }

    /// Submits an external job to the federation (the service-mode
    /// surface): assigns a federation job id, routes it under the
    /// configured policy, and returns where it landed.
    ///
    /// With more than one shard the arrival time is clamped to no earlier
    /// than the last merged entry's tick, so probes anchor at a tick the
    /// merged log has reached; the per-shard submit then nudges past the
    /// frontier only when the injected arrival's `(time, seq, shard)` key
    /// would otherwise sort before an already-merged entry. With one
    /// shard the engine's own last-time clamp is already exact.
    ///
    /// # Errors
    ///
    /// Propagates shard failures from routing.
    pub fn submit(
        &self,
        state: &mut FederationState,
        request: ResourceRequest,
        at: TimePoint,
    ) -> Result<(u64, Placement), FederationError> {
        let eff = if self.config.shards > 1 {
            match state.merged.entries.last() {
                Some(last) => at.max(TimePoint::new(last.time)),
                None => at,
            }
        } else {
            at
        };
        let fed_job = state.next_fed_job;
        state.next_fed_job += 1;
        let placement = self.place(state, fed_job, request, eff)?;
        self.obs.feed(state);
        Ok((fed_job, placement))
    }

    /// The earliest tick at or after `at` where injecting an arrival into
    /// `shard` keeps the merged log strictly ordered: at the frontier
    /// tick itself when the arrival's predicted `(seq, shard)` still
    /// sorts after the last merged entry, one past it otherwise.
    fn order_safe_time(&self, state: &FederationState, shard: usize, at: TimePoint) -> TimePoint {
        let Some(last) = state.merged.entries.last() else {
            return at;
        };
        let at = at.max(TimePoint::new(last.time));
        if at.ticks() > last.time {
            return at;
        }
        let seq = state.shards[shard].next_event_seq();
        if (seq, shard as u32) > (last.seq, last.shard) {
            at
        } else {
            TimePoint::new(last.time + 1)
        }
    }

    /// Replays a recorded routing decision: submits directly to `shard`
    /// with no policy evaluation. The service WAL records `(shard, time)`
    /// per accepted job precisely so recovery can re-inject without
    /// re-deciding.
    ///
    /// # Errors
    ///
    /// [`FederationError::Protocol`] naming the shard and the shard count
    /// if the federation has no such shard.
    pub fn submit_routed(
        &self,
        state: &mut FederationState,
        shard: u32,
        request: ResourceRequest,
        at: TimePoint,
    ) -> Result<(u32, TimePoint), FederationError> {
        let index = shard as usize;
        if index >= self.shards.len() {
            return Err(FederationError::Protocol {
                detail: format!(
                    "a routed submission names shard {shard}, the federation has {}",
                    self.shards.len()
                ),
            });
        }
        state.next_fed_job += 1;
        state.counters.routed[index] += 1;
        let landed = self.shards[index].submit(&mut state.shards[index], request, at);
        self.obs.feed(state);
        Ok(landed)
    }

    /// Routes one job: picks a shard under the policy, or — when
    /// cheapest-probe finds no feasible shard — attempts cross-shard
    /// co-allocation before falling back to a least-backlog submit.
    fn place(
        &self,
        state: &mut FederationState,
        fed_job: u64,
        request: ResourceRequest,
        at: TimePoint,
    ) -> Result<Placement, FederationError> {
        let chosen = match self.config.route {
            RoutePolicy::RoundRobin => {
                let shard = (state.rr_cursor % self.shards.len() as u64) as usize;
                state.rr_cursor += 1;
                Some(shard)
            }
            RoutePolicy::LeastBacklog => self.least_backlog(state),
            RoutePolicy::CheapestProbe => {
                state.counters.probes += self.shards.len() as u64;
                self.cheapest_shard(&state.shards, &request, at)
            }
        };
        if let Some(shard) = chosen {
            let at = self.order_safe_time(state, shard, at);
            let (job, time) = self.shards[shard].submit(&mut state.shards[shard], request, at);
            state.counters.routed[shard] += 1;
            return Ok(Placement::Single {
                shard: shard as u32,
                job,
                time,
            });
        }
        // Cheapest-probe found no host. Coscheduled jobs may still fit in
        // pieces: try the cross-shard path.
        if self.config.cross_shard && self.shards.len() > 1 {
            if let Some(window) = self.try_cross_shard(state, fed_job, &request, at)? {
                return Ok(Placement::Cross(window));
            }
        }
        // Last resort: park it on the least-loaded shard and let that
        // shard's own cycles place it when capacity appears.
        state.counters.fallback_submits += 1;
        let shard = self.least_backlog(state).unwrap_or(0);
        let at = self.order_safe_time(state, shard, at);
        let (job, time) = self.shards[shard].submit(&mut state.shards[shard], request, at);
        state.counters.routed[shard] += 1;
        Ok(Placement::Single {
            shard: shard as u32,
            job,
            time,
        })
    }

    /// The cheapest-probe core: scans every shard's vacant market for
    /// the earliest feasible window and returns the shard offering the
    /// cheapest one (ties by shard index).
    fn cheapest_shard(
        &self,
        shards: &[RunState],
        request: &ResourceRequest,
        at: TimePoint,
    ) -> Option<usize> {
        let mut best: Option<(Money, usize)> = None;
        for (shard, shard_state) in shards.iter().enumerate() {
            let mut scan = ScanStats::new();
            if let Some(window) =
                repair_search(&self.selector, request, at, shard_state.vacant(), &mut scan)
            {
                let key = (window.total_cost(), shard);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, shard)| shard)
    }

    /// Probes every shard's vacant market for the cheapest feasible
    /// window *without* routing, carving, or mutating anything — the
    /// read-only core of [`RoutePolicy::CheapestProbe`], exposed so
    /// clients (and benchmarks) can ask "where would this job land?"
    /// before submitting. Returns the winning shard index, or `None`
    /// when no single shard can host the request.
    #[must_use]
    pub fn probe_cheapest(
        &self,
        state: &FederationState,
        request: &ResourceRequest,
        at: TimePoint,
    ) -> Option<u32> {
        self.cheapest_shard(&state.shards, request, at)
            .map(|s| s as u32)
    }

    /// The shard with the fewest uncompleted jobs, ties to the lowest
    /// index.
    fn least_backlog(&self, state: &FederationState) -> Option<usize> {
        (0..self.shards.len()).min_by_key(|&s| (state.shards[s].backlog(), s))
    }

    /// The cross-shard alignment fixed point, as one routing action:
    /// split the job across shards, probe each shard for its earliest
    /// sub-window at or after the anchor and carve it out of that shard's
    /// market, and lease every part when the start spread is within
    /// [`FederationConfig::align_tolerance`] — exact agreement at the
    /// default tolerance of zero. A misaligned round returns every part
    /// and retries from the latest start; an infeasible shard or round
    /// exhaustion returns every part and gives up. Either way nothing
    /// carved outlives the call.
    fn try_cross_shard(
        &self,
        state: &mut FederationState,
        fed_job: u64,
        request: &ResourceRequest,
        at: TimePoint,
    ) -> Result<Option<CrossShardWindow>, FederationError> {
        let splits = split_nodes(request.nodes(), self.config.shards);
        if splits.len() < 2 {
            return Ok(None);
        }
        let mut subs = Vec::with_capacity(splits.len());
        for nodes in &splits {
            match ResourceRequest::new(
                *nodes,
                request.wall_time(),
                request.min_perf(),
                request.price_cap(),
            ) {
                Ok(sub) => subs.push(sub),
                Err(_) => return Ok(None),
            }
        }
        let mut anchor = at;
        for _round in 0..self.config.max_align_rounds {
            state.counters.align_rounds += 1;
            let mut carved: Vec<(u32, Window)> = Vec::with_capacity(subs.len());
            for (shard, sub) in subs.iter().enumerate() {
                state.counters.probes += 1;
                let mut scan = ScanStats::new();
                let window = repair_search(
                    &self.selector,
                    sub,
                    anchor,
                    state.shards[shard].vacant(),
                    &mut scan,
                );
                let Some(window) = window else {
                    self.return_parts(state, &carved);
                    return Ok(None);
                };
                if let Err(source) =
                    self.shards[shard].carve_window(&mut state.shards[shard], &window)
                {
                    self.return_parts(state, &carved);
                    return Err(FederationError::Carve {
                        shard: shard as u32,
                        source,
                    });
                }
                state.counters.reservations_reserved += 1;
                carved.push((shard as u32, window));
            }
            let starts = carved.iter().map(|(_, window)| window.start().ticks());
            let latest = starts.clone().max().unwrap_or(anchor.ticks());
            let earliest = starts.min().unwrap_or(anchor.ticks());
            if latest - earliest <= self.config.align_tolerance {
                return Ok(Some(
                    self.lease_parts(state, fed_job, carved, &subs, latest, at),
                ));
            }
            // Misaligned: return the round's parts and retry anchored at
            // the latest start — the classic co-allocation fixed point.
            self.return_parts(state, &carved);
            anchor = TimePoint::new(latest);
        }
        Ok(None)
    }

    /// Leases every carved part of one aligned round to a new shard job
    /// running its share of the request, and records the placement.
    /// `start` is the synchronized launch tick, the latest part start:
    /// at tolerance 0 every part starts there; with slack, earlier parts
    /// hold their nodes until the last one is up.
    fn lease_parts(
        &self,
        state: &mut FederationState,
        fed_job: u64,
        carved: Vec<(u32, Window)>,
        requests: &[ResourceRequest],
        start: i64,
        at: TimePoint,
    ) -> CrossShardWindow {
        let parts = carved
            .into_iter()
            .zip(requests)
            .map(|((shard, window), request)| {
                let index = shard as usize;
                let (job, lease) = self.shards[index].lease_window(
                    &mut state.shards[index],
                    window.clone(),
                    *request,
                    at,
                );
                CrossShardPart {
                    shard,
                    job,
                    lease,
                    window,
                }
            })
            .collect();
        let window = CrossShardWindow {
            fed_job,
            start,
            parts,
        };
        state.cross_shard.push(window.clone());
        state.counters.cross_shard_committed += 1;
        window
    }

    /// Returns every carved part to its shard's market, in part order.
    fn return_parts(&self, state: &mut FederationState, carved: &[(u32, Window)]) {
        for (shard, window) in carved {
            let index = *shard as usize;
            self.shards[index].return_window(&mut state.shards[index], window);
            state.counters.reservations_released += 1;
        }
    }

    /// Closes the books: finishes every shard, folds the reports, and —
    /// when the logs are whole, as in every run never trimmed — asserts
    /// the live merged log equals the sorted union of the final shard
    /// logs.
    #[must_use]
    pub fn finish(&self, state: FederationState) -> FederationRun {
        let FederationState {
            shards,
            merged,
            cross_shard,
            counters,
            next_fed_job,
            ..
        } = state;
        let shard_runs: Vec<EngineRun> = self
            .shards
            .iter()
            .zip(shards)
            .map(|(engine, shard_state)| engine.finish(shard_state))
            .collect();
        let logs: Vec<&Log<LogEntry>> = shard_runs.iter().map(|run| &run.log).collect();
        // A trimmed log's prefix is gone, and with it the union.
        debug_assert!(
            merged.whole().is_none() || merged == merge_shard_logs(&logs),
            "live merge diverged from the sorted union of shard logs"
        );
        let jobs_offered = if self.config.shards == 1 {
            shard_runs[0].report.jobs_arrived
        } else {
            next_fed_job
        };
        // A cross-shard job runs as one shard-level job per part, so the
        // raw sum over shard reports counts each committed split
        // `parts - 1` times too many. Fold the siblings back into one
        // federation-level completion.
        let extra_parts: u64 = cross_shard
            .iter()
            .map(|w| w.parts.len().saturating_sub(1) as u64)
            .sum();
        let raw_completed: u64 = shard_runs.iter().map(|r| r.report.jobs_completed).sum();
        let report = FederationReport {
            jobs_offered,
            jobs_completed: raw_completed.saturating_sub(extra_parts),
            backlog: shard_runs.iter().map(|r| r.report.backlog).sum(),
            routing: counters,
            // Nothing is held across a step for a strike to break.
            reservations_broken: 0,
            merged_events: merged.len() as u64,
            merged_log_hash: merged.fnv1a_hash(),
            shards: shard_runs.iter().map(|r| r.report.clone()).collect(),
        };
        FederationRun {
            report,
            merged,
            cross_shard,
            shards: shard_runs,
        }
    }

    /// Captures the full resumable state of an in-flight federated run:
    /// every shard's engine checkpoint plus the router state, the logs as
    /// the run holds them.
    #[must_use]
    pub fn checkpoint(&self, state: &FederationState) -> FederationCheckpoint {
        FederationCheckpoint {
            seed: state.seed,
            config_fp: self.config_fingerprint(),
            shards: self
                .shards
                .iter()
                .zip(&state.shards)
                .map(|(engine, shard)| engine.checkpoint(shard))
                .collect(),
            arrivals: state.arrivals.clone(),
            next_arrival: state.next_arrival as u64,
            next_fed_job: state.next_fed_job,
            rr_cursor: state.rr_cursor,
            merged: state.merged.clone(),
            cross_shard: state.cross_shard.clone(),
            counters: state.counters.clone(),
        }
    }

    /// Rebuilds a [`FederationState`] from a checkpoint taken by
    /// [`Self::checkpoint`] under the same configuration and selector.
    /// Stepping the resumed state reproduces exactly the merged entries
    /// the captured run would have produced.
    ///
    /// # Errors
    ///
    /// [`FederationError::CheckpointMismatch`] on a fingerprint mismatch,
    /// [`FederationError::Protocol`] on a shard-count mismatch,
    /// [`FederationError::DetachedCheckpoint`] when the merged log holds
    /// neither the whole history nor its newest entry, and shard resume
    /// failures verbatim.
    pub fn resume(
        &self,
        checkpoint: &FederationCheckpoint,
    ) -> Result<FederationState, FederationError> {
        let expected = self.config_fingerprint();
        if checkpoint.config_fp != expected {
            return Err(FederationError::CheckpointMismatch {
                expected,
                found: checkpoint.config_fp,
            });
        }
        if checkpoint.shards.len() != self.shards.len() {
            return Err(FederationError::Protocol {
                detail: format!(
                    "the checkpoint holds {} shards, the federation has {}",
                    checkpoint.shards.len(),
                    self.shards.len()
                ),
            });
        }
        if checkpoint.counters.routed.len() != self.shards.len() {
            return Err(FederationError::Protocol {
                detail: format!(
                    "the checkpoint's router counts {} shards, the federation has {}",
                    checkpoint.counters.routed.len(),
                    self.shards.len()
                ),
            });
        }
        if checkpoint.merged.after.len > 0 && checkpoint.merged.entries.is_empty() {
            return Err(FederationError::DetachedCheckpoint {
                missing: checkpoint.merged.after.len,
            });
        }
        let shards = self
            .shards
            .iter()
            .zip(&checkpoint.shards)
            .enumerate()
            .map(|(shard, (engine, cp))| {
                engine.resume(cp).map_err(|source| FederationError::Engine {
                    shard: shard as u32,
                    source,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FederationState {
            seed: checkpoint.seed,
            shards,
            arrivals: checkpoint.arrivals.clone(),
            next_arrival: checkpoint.next_arrival as usize,
            next_fed_job: checkpoint.next_fed_job,
            rr_cursor: checkpoint.rr_cursor,
            merged: checkpoint.merged.clone(),
            cross_shard: checkpoint.cross_shard.clone(),
            counters: checkpoint.counters.clone(),
        })
    }
}
