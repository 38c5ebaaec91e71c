//! Fragmentation regression: a long churned run shreds the vacant market
//! with window carves, revocation strikes, and tail returns every cycle —
//! the coalescing commit pass must keep the live slot count bounded
//! instead of letting remnants accumulate without limit.
//!
//! This is the scenario the interval-timeline representation exists for:
//! each carve is an `O(log n)` split and each merge an `O(log n)` join,
//! so the bound below is also what keeps the per-cycle market work flat
//! over arbitrarily long runs. The test pins (a) the bound and (b) that
//! coalescing is genuinely load-bearing — the uncoalesced run must
//! fragment measurably worse, else the regression test is vacuous.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig};
use ecosched_select::Amp;
use ecosched_sim::{JobGenConfig, RevocationConfig};

/// A long, dense, churned scenario: 40 cycles, a steady arrival stream,
/// and per-slot revocation pressure.
fn churn_config(coalesce: bool) -> EngineConfig {
    EngineConfig {
        cycles: 40,
        revocation: RevocationConfig::per_slot(0.05),
        coalesce,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 6.0,
            jobs: 120,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

/// Steps a run to completion, sampling the vacant-market size after
/// every logged event.
fn market_sizes(config: EngineConfig) -> Vec<usize> {
    let engine = Engine::new(config, Amp::new()).unwrap();
    let mut state = engine.start(42);
    let mut sizes = Vec::new();
    while engine.step(&mut state).unwrap().is_some() {
        sizes.push(engine.checkpoint(&state).vacant.len());
    }
    sizes
}

#[test]
fn coalesced_market_size_stays_bounded_under_churn() {
    let sizes = market_sizes(churn_config(true));

    // The regression bound. The scenario plateaus around 950 live slots
    // mid-run (carve remnants balanced by expiry and coalescing) and
    // drains at the end; 1.5× headroom separates "dense market" from
    // "leak". A remnant leak (coalesce or expiry regression) grows
    // linearly in committed windows and blows past this within a few of
    // the 40 cycles.
    let peak = sizes.iter().copied().max().unwrap();
    assert!(
        peak <= 1_500,
        "vacant market fragmented to {peak} slots — remnants are leaking"
    );

    // And the run was actually hostile: churn fired, slots were carved.
    assert!(
        sizes.len() > 1_000,
        "scenario too small to regress fragmentation"
    );
}

#[test]
fn coalescing_is_load_bearing() {
    // Without the merge pass the same scenario must fragment measurably
    // worse — otherwise the bound above tests nothing.
    let coalesced = market_sizes(churn_config(true));
    let shredded = market_sizes(churn_config(false));

    let peak_coalesced = coalesced.iter().copied().max().unwrap();
    let peak_shredded = shredded.iter().copied().max().unwrap();
    assert!(
        peak_shredded > peak_coalesced,
        "uncoalesced run ({peak_shredded}) did not fragment past the \
         coalesced run ({peak_coalesced}) — the scenario has gone stale"
    );
}
