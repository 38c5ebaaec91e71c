//! Workload-trace replay: drive the discrete-event engine from a
//! Standard Workload Format (SWF) file instead of the synthetic Poisson
//! generator.
//!
//! SWF is the archive format of the Parallel Workloads Archive: one job
//! per line, 18 whitespace-separated integer fields, `;`-prefixed
//! comment header. The trace is read by [`ecosched_sim::swf::parse_swf`];
//! replay takes the three fields the engine needs — submit time,
//! requested processor count, requested runtime (falling back to the
//! actual runtime when the request is absent) — and injects each job as
//! an external submission at its (scaled) submit tick while the engine
//! runs. Everything else about the run (market publication, cycle ticks,
//! lease lifecycle) is the standard engine pipeline, so trace replay
//! answers the same questions as E15 but against recorded rather than
//! generated demand.
//!
//! Traces carry no prices, so every job gets a generous flat price cap
//! and the etalon performance floor: admission-by-budget is not the
//! question a trace replay asks.

use ecosched_core::{Perf, Price, ResourceRequest, TimeDelta, TimePoint};
use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, EngineRun};
use ecosched_select::SlotSelector;
use ecosched_sim::swf::SwfJob;

use crate::report::Table;

/// The flat per-slot price cap trace jobs carry (credits/tick) — above
/// the generator's price ceiling, so no market ever prices a trace job
/// out.
pub const TRACE_PRICE_CAP: i64 = 10;

/// The trace on the engine clock: every job with its `submit` and
/// `requested_time` divided by `seconds_per_tick` (the runtime at least
/// one tick), sorted by submit tick, ties by job id, so replay order is
/// deterministic regardless of archive quirks.
///
/// Refuses a scale under which some job's finish tick, `submit +
/// requested_time`, does not fit the clock.
fn on_clock(jobs: &[SwfJob], seconds_per_tick: f64) -> Result<Vec<SwfJob>, String> {
    if !(seconds_per_tick.is_finite() && seconds_per_tick > 0.0) {
        return Err(format!(
            "seconds per tick must be positive and finite, got {seconds_per_tick}"
        ));
    }
    // `i64::MAX as f64` rounds up to 2^63, which no tick reaches.
    let ticks = |seconds: i64| {
        let ticks = seconds as f64 / seconds_per_tick;
        (ticks < i64::MAX as f64).then_some(ticks as i64)
    };
    let scale = |job: &SwfJob| {
        let submit = ticks(job.submit)?;
        let requested_time = ticks(job.requested_time)?.max(1);
        submit.checked_add(requested_time)?;
        Some(SwfJob {
            submit,
            requested_time,
            ..*job
        })
    };
    let mut scaled = jobs
        .iter()
        .map(|job| {
            scale(job).ok_or_else(|| {
                format!(
                    "{seconds_per_tick} seconds per tick puts job {} past the end of the clock",
                    job.id
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    scaled.sort_by_key(|job| (job.submit, job.id));
    Ok(scaled)
}

/// Converts one on-clock trace job to an engine request.
fn to_request(job: &SwfJob) -> Result<ResourceRequest, String> {
    ResourceRequest::new(
        job.procs,
        TimeDelta::new(job.requested_time),
        Perf::UNIT,
        Price::from_credits(TRACE_PRICE_CAP),
    )
    .map_err(|e| e.to_string())
}

/// The engine configuration a trace replay runs: external arrivals (the
/// trace is the stream) over the standard market, with enough cycles to
/// cover the last submission plus its runtime.
///
/// # Errors
///
/// `seconds_per_tick` is not a positive, finite number, or puts the
/// trace's horizon past what the clock or a `u32` cycle count holds.
pub fn trace_config(jobs: &[SwfJob], seconds_per_tick: f64) -> Result<EngineConfig, String> {
    let base = EngineConfig::default();
    let span = on_clock(jobs, seconds_per_tick)?
        .iter()
        .map(|j| j.submit + j.requested_time)
        .max()
        .unwrap_or(0)
        .max(1);
    let cycles = u32::try_from(span / base.cycle_length.max(1) + 2).map_err(|_| {
        format!(
            "{seconds_per_tick} seconds per tick stretches the trace over {span} ticks, \
             more cycles than a run holds"
        )
    })?;
    Ok(EngineConfig {
        arrivals: ArrivalConfig::External,
        cycles,
        ..base
    })
}

/// Replays a trace: steps the engine to each job's submit tick, injects
/// it, then drains the run.
///
/// Deterministic: a pure function of `(config, seed, trace,
/// seconds_per_tick)`.
///
/// # Errors
///
/// A scale [`trace_config`] refuses, the first engine failure, or an
/// unconvertible trace record.
pub fn run_trace<S: SlotSelector + Copy>(
    engine: &Engine<S>,
    seed: u64,
    jobs: &[SwfJob],
    seconds_per_tick: f64,
) -> Result<EngineRun, String> {
    let jobs = on_clock(jobs, seconds_per_tick)?;
    let mut state = engine.start(seed);
    for job in &jobs {
        // Process everything due strictly before the submit tick, so the
        // job arrives into exactly the market state of that instant.
        while state
            .next_event_time()
            .is_some_and(|t| t.ticks() < job.submit)
        {
            engine
                .step(&mut state)
                .map_err(|e| format!("engine failed: {e}"))?;
        }
        let request = to_request(job).map_err(|e| format!("job {}: {e}", job.id))?;
        engine.submit(&mut state, request, TimePoint::new(job.submit));
    }
    while engine
        .step(&mut state)
        .map_err(|e| format!("engine failed: {e}"))?
        .is_some()
    {}
    Ok(engine.finish(state))
}

/// Renders the one-row-per-algorithm trace replay table.
#[must_use]
pub fn trace_table(rows: &[(&str, &EngineRun)]) -> Table {
    let mut table = Table::new(&[
        "algo",
        "jobs",
        "scheduled",
        "completed",
        "backlog",
        "mean wait",
        "log hash",
    ]);
    for (algo, run) in rows {
        table.row(&[
            (*algo).to_string(),
            run.report.jobs_arrived.to_string(),
            run.report.jobs_scheduled.to_string(),
            run.report.jobs_completed.to_string(),
            run.report.backlog.to_string(),
            crate::report::f2(run.report.mean_wait),
            run.report.log_hash.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_select::{Alp, Amp};
    use ecosched_sim::swf::parse_swf;

    fn mini() -> Vec<SwfJob> {
        parse_swf(include_str!("../fixtures/mini.swf")).expect("mini.swf parses")
    }

    #[test]
    fn mini_fixture_goes_on_the_clock_scaled() {
        let jobs = mini();
        assert_eq!(jobs.len(), 10, "10 usable jobs (1 cancelled record)");
        let clock = on_clock(&jobs, 1.0).unwrap();
        assert_eq!(clock, jobs, "mini.swf is in submit order, in seconds");
        let halved = on_clock(&jobs, 2.0).unwrap();
        assert_eq!(halved.len(), jobs.len());
        assert!(halved
            .iter()
            .zip(&jobs)
            .all(|(h, j)| h.submit == j.submit / 2 && h.requested_time <= j.requested_time));
    }

    #[test]
    fn ties_on_the_clock_go_by_the_whole_job_id() {
        // Both submit at tick 0 once scaled; 2^32 must sort after 1, not
        // wrap to 0 and sort before it.
        let text = "4294967296 9 0 30 1 -1 -1 1 30\n1 5 0 30 1 -1 -1 1 30\n";
        let jobs = parse_swf(text).unwrap();
        let ids: Vec<u64> = on_clock(&jobs, 60.0)
            .unwrap()
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(ids, [1, 1 << 32]);
    }

    #[test]
    fn a_scale_that_is_not_positive_and_finite_is_refused() {
        let jobs = mini();
        let engine = Engine::new(EngineConfig::default(), Amp::new()).expect("config");
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(trace_config(&jobs, scale).is_err(), "{scale}");
            assert!(run_trace(&engine, 42, &jobs, scale).is_err(), "{scale}");
        }
    }

    /// A scale so fine that the horizon overflows the cycle count (1e-12)
    /// or the clock itself (1e-18) is refused, not clamped or wrapped.
    #[test]
    fn a_scale_whose_horizon_does_not_fit_is_refused() {
        let jobs = mini();
        let engine = Engine::new(EngineConfig::default(), Amp::new()).expect("config");
        for scale in [1e-12, 1e-18] {
            assert!(trace_config(&jobs, scale).is_err(), "{scale}");
        }
        assert!(run_trace(&engine, 42, &jobs, 1e-18).is_err());
    }

    // The E16 replay contract: replaying mini.swf schedules work and is
    // deterministic (same hash twice, for both selectors).
    #[test]
    fn mini_trace_replay_is_deterministic_and_schedules() {
        let jobs = mini();
        let config = trace_config(&jobs, 1.0).expect("scale 1");
        let amp = Engine::new(config.clone(), Amp::new()).expect("config");
        let alp = Engine::new(config, Alp::new()).expect("config");
        let a1 = run_trace(&amp, 42, &jobs, 1.0).expect("amp run");
        let a2 = run_trace(&amp, 42, &jobs, 1.0).expect("amp rerun");
        let l1 = run_trace(&alp, 42, &jobs, 1.0).expect("alp run");
        assert_eq!(a1.report.log_hash, a2.report.log_hash);
        assert_eq!(a1.report.to_json(), a2.report.to_json());
        assert_eq!(a1.report.jobs_arrived, jobs.len() as u64);
        assert!(a1.report.jobs_scheduled > 0, "mini trace schedules jobs");
        assert!(l1.report.jobs_scheduled > 0);
    }
}
