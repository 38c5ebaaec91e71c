//! One shard's side of a cross-shard placement: carve a window out of
//! the vacant market, then lease it for a new job or return it. The
//! federation does both inside one routing action, so no carved window
//! outlives the call that carved it and no step ever sees one.

use ecosched_core::{ResourceRequest, TimePoint, Window};
use ecosched_select::{try_adopt_window, RepairError, SlotSelector};

use super::{Engine, RunState};
use crate::config::VOS;
use crate::state::{ArrivalState, PendingState};

impl<S: SlotSelector + Copy> Engine<S> {
    /// Revalidates `window` against the live vacant market and carves its
    /// regions out of it. The caller leases ([`Self::lease_window`]) or
    /// returns ([`Self::return_window`]) the window before the next step.
    ///
    /// # Errors
    ///
    /// The [`RepairError`] of a window that no longer fits; the vacant
    /// list is untouched in that case.
    pub fn carve_window(&self, state: &mut RunState, window: &Window) -> Result<(), RepairError> {
        try_adopt_window(window, &mut state.vacant, &[])
    }

    /// Returns a carved window's regions to the vacant market.
    pub fn return_window(&self, state: &mut RunState, window: &Window) {
        state.vacant.release_window(window);
    }

    /// Leases a carved window to a new job executing `request` (arrived
    /// at `arrival`): books the job into the shard's report and schedules
    /// its completion. Returns `(job id, lease id)`.
    pub fn lease_window(
        &self,
        state: &mut RunState,
        window: Window,
        request: ResourceRequest,
        arrival: TimePoint,
    ) -> (u32, u64) {
        let id = state.arrivals.len() as u32;
        state.arrivals.push(ArrivalState {
            time: arrival,
            request,
        });
        state.report.jobs_arrived += 1;
        state.report.jobs_scheduled += 1;
        let vo = id % VOS;
        state.report.vo_spend[vo as usize] += window.total_cost().to_f64();
        let lease = state.next_lease;
        let job = PendingState {
            id,
            arrival: arrival.ticks(),
            vo,
            request,
        };
        self.commit_lease(state, job, window, Vec::new(), 0);
        (id, lease)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_config;
    use super::*;
    use ecosched_core::{Perf, Price, TimeDelta};
    use ecosched_select::{repair_search, Amp, ScanStats};

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

    /// Total vacant node-ticks — the capacity a carve takes and a return
    /// gives back.
    fn vacant_ticks(state: &RunState) -> i64 {
        state.vacant.iter().map(|s| s.span().length().ticks()).sum()
    }

    #[test]
    fn a_leased_window_books_a_job_that_completes() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let (request, window) = probed_window(&engine, &mut state);
        engine.carve_window(&mut state, &window).unwrap();

        let arrived = state.report.jobs_arrived;
        let leases = state.leases.len();
        let at = state.last_time();
        let (job, lease) = engine.lease_window(&mut state, window, request, at);
        assert_eq!(state.leases.len(), leases + 1);
        assert_eq!(state.leases[&lease].job, job);
        assert_eq!(state.report.jobs_arrived, arrived + 1);

        while engine.step(&mut state).unwrap().is_some() {}
        let run = engine.finish(state);
        assert!(run.report.jobs_completed >= 1, "the lease never completed");
    }

    #[test]
    fn a_returned_window_restores_the_market() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let (_, window) = probed_window(&engine, &mut state);
        let before = vacant_ticks(&state);
        engine.carve_window(&mut state, &window).unwrap();
        assert!(vacant_ticks(&state) < before, "a carve must take capacity");
        engine.return_window(&mut state, &window);
        assert_eq!(vacant_ticks(&state), before, "a return must restore it");
    }

    #[test]
    fn a_stale_window_is_refused_with_nothing_changed() {
        let engine = Engine::new(small_config(), Amp::new()).unwrap();
        let mut state = engine.start(5);
        let (_, window) = probed_window(&engine, &mut state);
        engine.carve_window(&mut state, &window).unwrap();
        let carved = state.vacant.clone();
        // The same window cannot be carved twice.
        assert!(engine.carve_window(&mut state, &window).is_err());
        assert_eq!(state.vacant, carved);
    }
}
