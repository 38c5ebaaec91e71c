//! A checkpoint's `next_node` must lie above every node it holds: the
//! next publication mints fresh nodes from it, so one at or below a node
//! of the market or of a lease would file a new slot on a live node.
//! `resume` refuses such a checkpoint, and minting never wraps.

use ecosched_core::SlotList;
use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, EngineError};
use ecosched_select::Amp;
use ecosched_sim::{JobGenConfig, RevocationConfig};

fn engine() -> Engine<Amp> {
    let config = EngineConfig {
        cycles: 5,
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 20,
            job_gen: JobGenConfig::default(),
        },
        revocation: RevocationConfig::per_slot(0.05),
        ..EngineConfig::default()
    };
    Engine::new(config, Amp::new()).expect("valid config")
}

/// A checkpoint taken once the run holds both vacant slots and leases.
fn checkpoint_with_leases(engine: &Engine<Amp>) -> EngineCheckpoint {
    let mut state = engine.start(42);
    loop {
        let checkpoint = engine.checkpoint(&state);
        if !checkpoint.leases.is_empty() && !checkpoint.vacant.is_empty() {
            return checkpoint;
        }
        engine
            .step(&mut state)
            .expect("step")
            .expect("the run leases something before it ends");
    }
}

fn is_malformed(result: Result<impl Sized, EngineError>) -> bool {
    matches!(result, Err(EngineError::MalformedCheckpoint { .. }))
}

#[test]
fn resume_refuses_a_next_node_that_is_not_above_every_held_node() {
    let engine = engine();
    let checkpoint = checkpoint_with_leases(&engine);
    assert!(
        engine.resume(&checkpoint).is_ok(),
        "an engine-written checkpoint resumes"
    );

    let market_top = checkpoint.vacant.iter().map(|s| s.node().index()).max();
    let market_top = market_top.expect("a market");
    let stale = EngineCheckpoint {
        next_node: market_top,
        ..checkpoint.clone()
    };
    assert!(
        is_malformed(engine.resume(&stale)),
        "a market node would be reused"
    );

    // With the market gone, the leases' windows and alternatives alone
    // still hold nodes.
    let leases_only = EngineCheckpoint {
        vacant: SlotList::new(),
        next_node: 0,
        ..checkpoint
    };
    assert!(
        is_malformed(engine.resume(&leases_only)),
        "a leased node would be reused"
    );
}

#[test]
fn minting_a_node_past_u32_max_ends_the_run_instead_of_wrapping() {
    let engine = engine();
    let checkpoint = EngineCheckpoint {
        next_node: u32::MAX,
        ..checkpoint_with_leases(&engine)
    };
    let mut state = engine
        .resume(&checkpoint)
        .expect("every held node is below");
    let outcome = loop {
        match engine.step(&mut state) {
            Ok(Some(_)) => {}
            other => break other,
        }
    };
    assert!(
        is_malformed(outcome),
        "the first publication must run out of node ids"
    );
}
