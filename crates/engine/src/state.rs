//! The serialized form of a paused engine run.
//!
//! [`EngineCheckpoint`] captures everything [`Engine::resume`] needs to
//! rebuild a [`RunState`] that continues *byte-identically*: the RNG
//! position, the future-event queue with its already-assigned sequence
//! numbers, the event log so far, the precomputed arrival stream,
//! the vacant-slot market, pending jobs, active leases with their
//! surviving failover alternatives, and the report accumulated so far.
//! No optimizer state is among them: every cycle plans with a fresh
//! optimizer, so the next `step()` reads none.
//!
//! Floating-point accumulators are stored as IEEE-754 bit patterns
//! (`f64::to_bits`) rather than decimal text, so restore is exact by
//! construction and the resumed report's derived means are bit-equal.
//!
//! The checkpoint is an ordinary serde-serializable value; the container
//! format (version header, per-section checksums) lives in the
//! `ecosched-persist` crate, which treats this type as one payload.
//!
//! [`Engine::resume`]: crate::engine::Engine::resume
//! [`RunState`]: crate::engine::RunState

use ecosched_core::{ResourceRequest, SlotList, TimePoint, Window};
use ecosched_optimize::OptimizerSnapshot;
use serde::{Deserialize, Serialize};

use crate::event::{Event, Log, LogEntry};
use crate::report::EngineReport;

/// A ChaCha8 generator's position in its output stream.
///
/// The block buffer is not stored: ChaCha output is a pure function of
/// `(key, block counter)`, so restore regenerates the in-flight block and
/// seeks to `cursor`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// The 8-word key the generator was seeded with.
    pub key: Vec<u32>,
    /// The next block counter a refill would use.
    pub counter: u64,
    /// Next unread word in the current block; 16 means "exhausted".
    pub cursor: u64,
}

/// One future event still in the queue, with the sequence number it was
/// assigned at push time (restore must preserve it — re-pushing would
/// mint fresh numbers and change `(time, seq)` tie-breaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedEventState {
    /// Virtual time the event fires at, in ticks.
    pub time: i64,
    /// The queue sequence number already assigned to it.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

/// One entry of the arrival stream — like [`PendingState`], the run's
/// live form and its serialized form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalState {
    /// Arrival tick.
    pub time: TimePoint,
    /// The job's resource request.
    pub request: ResourceRequest,
}

/// A job waiting in the pending queue — the run's live form and its
/// serialized form are the same struct.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PendingState {
    /// The engine job id (arrival order).
    pub id: u32,
    /// Arrival tick (batch priority key).
    pub arrival: i64,
    /// The virtual organisation the job bills to.
    pub vo: u32,
    /// The job's resource request.
    pub request: ResourceRequest,
}

/// An active lease with everything repair and completion need — like
/// [`PendingState`], the run's live form and its serialized form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseState {
    /// The lease id (commitment order; keys the completion event).
    pub lease: u64,
    /// The engine job id the lease executes.
    pub job: u32,
    /// The job's arrival tick.
    pub arrival: i64,
    /// The virtual organisation the job bills to.
    pub vo: u32,
    /// The job's resource request.
    pub request: ResourceRequest,
    /// The committed window.
    pub window: Window,
    /// Surviving pre-computed alternatives, for tier-1 failover.
    pub alternatives: Vec<Window>,
    /// How long the lease actually runs, in ticks (three quarters of the
    /// planned length, rounded up).
    pub actual_length: i64,
}

impl LeaseState {
    /// The job the lease executes, as a re-commitment or the pending
    /// queue takes it back when the lease breaks.
    pub(crate) fn pending(&self) -> PendingState {
        PendingState {
            id: self.job,
            arrival: self.arrival,
            vo: self.vo,
            request: self.request,
        }
    }
}

/// The full resumable state of an engine run, captured between events.
///
/// Produced by [`Engine::checkpoint`], consumed by [`Engine::resume`].
/// The `config_fp` field fingerprints the engine configuration *and*
/// selector the checkpoint was taken under; resume refuses a checkpoint
/// whose fingerprint does not match the resuming engine, because replay
/// convergence is only guaranteed under the identical configuration.
///
/// [`Engine::checkpoint`]: crate::engine::Engine::checkpoint
/// [`Engine::resume`]: crate::engine::Engine::resume
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// The seed the run was started with (metadata; the RNG position
    /// below is what resume actually uses).
    pub seed: u64,
    /// FNV-1a 64 fingerprint of the engine configuration and selector
    /// name this state was produced under.
    pub config_fp: u64,
    /// The RNG's position in its stream.
    pub rng: RngState,
    /// The queue's next sequence number.
    pub queue_next_seq: u64,
    /// Every future event still queued, in pop order.
    pub queue: Vec<QueuedEventState>,
    /// The event log up to the capture point, as the run held it: all of
    /// it, or — for a run that trims its log — the newest entry after the
    /// position of the rest. A format 3–4 store file holds only the
    /// position; its store attaches the entries on load.
    ///
    /// [`Engine::checkpoint`]: crate::engine::Engine::checkpoint
    pub log: Log<LogEntry>,
    /// The arrival stream: precomputed, then grown by submissions.
    pub arrivals: Vec<ArrivalState>,
    /// The vacant-slot market.
    pub vacant: SlotList,
    /// Next fresh node id for slot publication.
    pub next_node: u32,
    /// Jobs waiting to be scheduled, in queue order.
    pub pending: Vec<PendingState>,
    /// Active leases, in lease-id order.
    pub leases: Vec<LeaseState>,
    /// Next lease id to mint.
    pub next_lease: u64,
    /// The report accumulated so far (final-only fields still zero).
    pub report: EngineReport,
    /// Published node-ticks so far (utilization denominator).
    pub published_ticks: i64,
    /// Busy node-ticks so far (utilization numerator).
    pub busy_ticks: i64,
    /// The wait-time accumulator as an IEEE-754 bit pattern.
    pub wait_sum_bits: u64,
    /// The bounded-slowdown accumulator as an IEEE-754 bit pattern.
    pub slowdown_sum_bits: u64,
    /// Legacy: whether the file carried an optimizer section, and nothing
    /// of what was in it. Earlier builds kept one optimizer across all
    /// cycles and stored its row caches here; snapshot files of formats
    /// 1–3 written by them carry the section, which decodes to a marker
    /// whatever it holds. [`Engine::checkpoint`] always writes `None` and
    /// [`Engine::resume`] never looks at it.
    ///
    /// [`Engine::checkpoint`]: crate::engine::Engine::checkpoint
    /// [`Engine::resume`]: crate::engine::Engine::resume
    pub optimizer: Option<OptimizerSnapshot>,
}
