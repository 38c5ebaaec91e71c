//! The two-phase reservation protocol the federation layer drives for
//! cross-shard co-allocation: reserve (carve and hold), then commit (turn
//! into a lease) or release (return to the market).

use ecosched_core::{ResourceRequest, TimePoint, Window};
use ecosched_select::{try_adopt_window, RepairError, SlotSelector};

use super::{Engine, RunState};
use crate::config::VOS;
use crate::state::{ArrivalState, PendingState};

/// Errors from the two-phase reservation protocol (see
/// [`Engine::reserve`]).
#[derive(Debug)]
pub enum ReserveError {
    /// The window no longer fits the vacant market (another reservation,
    /// lease, or revocation consumed part of its regions).
    Stale(RepairError),
    /// No reservation with this id is held.
    Unknown {
        /// The offending reservation id.
        reservation: u64,
    },
    /// The reservation was struck by a revocation between reserve and
    /// commit. Its surviving fragments already returned to the vacant
    /// list; the caller must release every sibling reservation.
    Broken {
        /// The broken reservation's id.
        reservation: u64,
    },
}

impl std::fmt::Display for ReserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReserveError::Stale(e) => write!(f, "window no longer fits the vacant market: {e}"),
            ReserveError::Unknown { reservation } => {
                write!(f, "no reservation {reservation} is held")
            }
            ReserveError::Broken { reservation } => {
                write!(f, "reservation {reservation} was revoked before commit")
            }
        }
    }
}

impl std::error::Error for ReserveError {}

/// A window held under phase one of the two-phase reservation protocol:
/// carved out of the vacant market but not yet committed as a lease.
///
/// Reservations are deliberately *transient* state: they exist only
/// between a [`Engine::reserve`] and the matching
/// [`Engine::commit_reservation`] / [`Engine::release_reservation`], and
/// a checkpoint must never be taken while one is held (the federation
/// layer completes or aborts the whole two-phase exchange within a
/// single routing action, so its snapshots never see one).
#[derive(Debug, Clone)]
pub struct Reservation {
    pub(super) window: Window,
    pub(super) broken: bool,
}

impl Reservation {
    /// The reserved window.
    #[must_use]
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Whether a revocation strike landed on the reserved regions after
    /// phase one. A broken reservation can only be released.
    #[must_use]
    pub fn is_broken(&self) -> bool {
        self.broken
    }
}

impl<S: SlotSelector + Copy> Engine<S> {
    /// Phase one of the two-phase cross-shard protocol: revalidates
    /// `window` against the live vacant market and, on success, carves
    /// its regions out and holds them under a reservation id. The
    /// regions are invisible to single-shard scheduling until the
    /// reservation is committed or released — but *not* to revocation
    /// strikes, which sample the full live surface (vacant, leased, and
    /// reserved capacity alike).
    ///
    /// # Errors
    ///
    /// [`ReserveError::Stale`] when the window no longer fits; the
    /// vacant list is untouched in that case.
    pub fn reserve(&self, state: &mut RunState, window: &Window) -> Result<u64, ReserveError> {
        try_adopt_window(window, &mut state.vacant, &[]).map_err(ReserveError::Stale)?;
        let id = state.next_reservation;
        state.next_reservation += 1;
        state.reservations.insert(
            id,
            Reservation {
                window: window.clone(),
                broken: false,
            },
        );
        Ok(id)
    }

    /// Phase two, success path: turns a held reservation into an active
    /// lease executing `request` (arrived at `arrival`), schedules its
    /// completion, and books the job into the shard's report. Returns
    /// `(job id, lease id)`.
    ///
    /// # Errors
    ///
    /// [`ReserveError::Unknown`] for an id that is not held;
    /// [`ReserveError::Broken`] when a revocation struck the reserved
    /// regions after phase one — the reservation is dropped (its
    /// surviving fragments already returned to the vacant list when the
    /// strike landed) and the caller must release all of its siblings.
    pub fn commit_reservation(
        &self,
        state: &mut RunState,
        reservation: u64,
        request: ResourceRequest,
        arrival: TimePoint,
    ) -> Result<(u32, u64), ReserveError> {
        match state.reservations.get(&reservation) {
            None => return Err(ReserveError::Unknown { reservation }),
            Some(r) if r.broken => {
                state.reservations.remove(&reservation);
                return Err(ReserveError::Broken { reservation });
            }
            Some(_) => {}
        }
        let held = state
            .reservations
            .remove(&reservation)
            .expect("presence checked above");
        let job = state.arrivals.len() as u32;
        state.arrivals.push(ArrivalState {
            time: arrival,
            request,
        });
        state.report.jobs_arrived += 1;
        state.report.jobs_scheduled += 1;
        let vo = job % VOS;
        state.report.vo_spend[vo as usize] += held.window.total_cost().to_f64();
        let lease = state.next_lease;
        let job = PendingState {
            id: job,
            arrival: arrival.ticks(),
            vo,
            request,
        };
        self.commit_lease(state, job, held.window, Vec::new());
        Ok((job.id, lease))
    }

    /// Phase two, abort path: drops a held reservation and returns its
    /// regions to the vacant market. Releasing a *broken* reservation
    /// only drops it — the strike that broke it already returned the
    /// surviving fragments.
    ///
    /// # Errors
    ///
    /// [`ReserveError::Unknown`] for an id that is not held.
    pub fn release_reservation(
        &self,
        state: &mut RunState,
        reservation: u64,
    ) -> Result<(), ReserveError> {
        let held = state
            .reservations
            .remove(&reservation)
            .ok_or(ReserveError::Unknown { reservation })?;
        if !held.broken {
            state.vacant.release_window(&held.window);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_config;
    use super::*;
    use crate::config::{ArrivalConfig, EngineConfig};
    use ecosched_core::{Perf, Price, TimeDelta};
    use ecosched_select::{repair_search, Amp, ScanStats};
    use ecosched_sim::RevocationConfig;

    /// Steps until the market is populated, then probes a one-node
    /// window launchable at the current time.
    fn probed_window<S: SlotSelector + Copy>(
        engine: &Engine<S>,
        state: &mut RunState,
    ) -> (ResourceRequest, Window) {
        while state.vacant.is_empty() {
            engine
                .step(state)
                .unwrap()
                .expect("run drained before any publication");
        }
        let request = ResourceRequest::new(
            1,
            TimeDelta::new(20),
            Perf::from_f64(0.5),
            Price::from_credits(60),
        )
        .unwrap();
        let mut scan = ScanStats::new();
        let window = repair_search(
            &Amp::new(),
            &request,
            state.last_time(),
            &state.vacant,
            &mut scan,
        )
        .expect("a fresh market hosts a one-node window");
        (request, window)
    }

    /// Total vacant node-ticks — the capacity invariant reserve/release
    /// must conserve.
    fn vacant_ticks(state: &RunState) -> i64 {
        state.vacant.iter().map(|s| s.span().length().ticks()).sum()
    }

    #[test]
    fn reserve_commit_books_a_lease_that_completes() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let (request, window) = probed_window(&engine, &mut state);
        let id = engine.reserve(&mut state, &window).unwrap();
        assert_eq!(state.reservations_held(), 1);
        assert!(!state.reservation(id).unwrap().is_broken());

        let arrived = state.report.jobs_arrived;
        let leases = state.leases.len();
        let at = state.last_time();
        let (job, lease) = engine
            .commit_reservation(&mut state, id, request, at)
            .unwrap();
        assert_eq!(state.reservations_held(), 0);
        assert_eq!(state.leases.len(), leases + 1);
        assert!(state.leases.contains_key(&lease));
        assert_eq!(state.leases[&lease].job, job);
        assert_eq!(state.report.jobs_arrived, arrived + 1);

        while engine.step(&mut state).unwrap().is_some() {}
        let run = engine.finish(state);
        assert!(run.report.jobs_completed >= 1, "the lease never completed");
    }

    #[test]
    fn release_conserves_market_capacity() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let (_, window) = probed_window(&engine, &mut state);
        let before = vacant_ticks(&state);
        let id = engine.reserve(&mut state, &window).unwrap();
        assert!(vacant_ticks(&state) < before, "reserve must carve capacity");
        engine.release_reservation(&mut state, id).unwrap();
        assert_eq!(vacant_ticks(&state), before, "release must restore it");
        assert_eq!(state.reservations_held(), 0);
        assert!(matches!(
            engine.release_reservation(&mut state, id),
            Err(ReserveError::Unknown { .. })
        ));
    }

    #[test]
    fn stale_windows_are_refused_without_side_effects() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let (_, window) = probed_window(&engine, &mut state);
        engine.reserve(&mut state, &window).unwrap();
        let held = vacant_ticks(&state);
        // The same window cannot be carved twice.
        assert!(matches!(
            engine.reserve(&mut state, &window),
            Err(ReserveError::Stale(_))
        ));
        assert_eq!(vacant_ticks(&state), held);
        assert_eq!(state.reservations_held(), 1);
    }

    #[test]
    fn strike_between_reserve_and_commit_breaks_the_reservation() {
        let engine = Engine::new(
            EngineConfig {
                cycles: 2,
                revocation: RevocationConfig::per_slot(1.0),
                arrivals: ArrivalConfig::Poisson {
                    mean_interarrival: 10.0,
                    jobs: 1,
                    job_gen: ecosched_sim::JobGenConfig::default(),
                },
                ..EngineConfig::default()
            },
            Amp::new(),
        )
        .unwrap();
        let mut state = engine.start(9);
        let (request, window) = probed_window(&engine, &mut state);
        let id = engine.reserve(&mut state, &window).unwrap();

        // Step across the mid-cycle strike; per-slot probability 1.0
        // revokes the entire live surface, the reservation included.
        while state.reservations_broken() == 0 {
            engine
                .step(&mut state)
                .unwrap()
                .expect("strike never fired");
        }
        assert!(state.reservation(id).unwrap().is_broken());

        // Phase two must refuse; the reservation is consumed either way.
        let at = state.last_time();
        assert!(matches!(
            engine.commit_reservation(&mut state, id, request, at),
            Err(ReserveError::Broken { .. })
        ));
        assert_eq!(state.reservations_held(), 0);

        // The run continues to completion untroubled.
        while engine.step(&mut state).unwrap().is_some() {}
    }
}
