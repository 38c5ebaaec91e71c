//! Federation-level observability: mirrors the superscheduler's routing
//! counters and per-shard frontier into an [`ecosched_obs`] registry.
//!
//! The federation already keeps its routing state in [`RouteCounters`]
//! because the router is part of the resumable checkpoint. Rather than
//! instrumenting every mutation site (and risking a missed one), the
//! recorder *mirrors*: after each routing decision or merged step the
//! federation feeds its handle the [`FederationState`], and every
//! registry counter is raised to the checkpointed value with a monotone
//! `fetch_max` and the shard gauges refreshed. Mirroring is idempotent,
//! so resume replays cannot double-count, and it keeps the registry
//! observe-only — the checkpointed counters remain the single source of
//! truth.
//!
//! [`RouteCounters`]: crate::RouteCounters

use ecosched_engine::{EngineIds, EngineObs, RunState};
use ecosched_obs::{Family, Handle, Recorder, RegistryBuilder, Row, Table, Value};

use crate::federation::FederationState;

/// An optional federation recorder handle. Like the engine's, this is
/// runtime state: never serialized, absent from the configuration
/// fingerprint and checkpoints, and a no-op when off.
pub type FederationObs = Handle<FedIds>;

/// Where a federation series' value comes from; every one is read off
/// the [`FederationState`] after a routing decision or merged step.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Raised to a checkpointed count.
    Count(fn(&FederationState) -> u64),
    /// Raised to the jobs placed directly on each shard.
    Routed,
    /// Set from each shard's state.
    Shard(fn(&RunState) -> f64),
    /// Set to the spread between the fastest and slowest shard frontier.
    Lag,
}

use Source::{Count, Shard};

/// The federation family, in registration order.
const FAMILY: &[Row<Source>] = &[
    Row::counter(
        "ecosched_federation_routed_total",
        "Jobs placed directly on this shard",
        Source::Routed,
    )
    .each("shard"),
    Row::counter(
        "ecosched_federation_probes_total",
        "Shard-market window probes by cheapest-probe routing and cross-shard alignment",
        Count(|s| s.counters().probes),
    ),
    Row::counter(
        "ecosched_federation_cross_shard_committed_total",
        "Cross-shard placements whose every part was leased",
        Count(|s| s.counters().cross_shard_committed),
    ),
    Row::counter(
        "ecosched_federation_fallback_submits_total",
        "Jobs that probed infeasible everywhere and fell back to least-backlog submit",
        Count(|s| s.counters().fallback_submits),
    ),
    Row::counter(
        "ecosched_federation_align_rounds_total",
        "Alignment rounds run by the cross-shard fixed point",
        Count(|s| s.counters().align_rounds),
    ),
    Row::counter(
        "ecosched_federation_reservations_reserved_total",
        "Cross-shard part windows carved out of a shard market",
        Count(|s| s.counters().reservations_reserved),
    ),
    Row::counter(
        "ecosched_federation_reservations_released_total",
        "Carved cross-shard parts returned to their market unleased",
        Count(|s| s.counters().reservations_released),
    ),
    Row::counter(
        "ecosched_federation_merged_events_total",
        "Entries appended to the merged (time, seq, shard) log",
        Count(|s| s.merged().len() as u64),
    ),
    Row::counter(
        "ecosched_federation_jobs_offered_total",
        "Federation jobs accepted (routed stream arrivals plus external submissions)",
        Count(FederationState::jobs_offered),
    ),
    Row::gauge(
        "ecosched_federation_shard_backlog",
        "Pending plus leased jobs on this shard",
        Shard(|shard| shard.backlog() as f64),
    )
    .each("shard"),
    Row::gauge(
        "ecosched_federation_shard_last_time",
        "Virtual-time frontier of this shard",
        Shard(|shard| shard.last_time().ticks() as f64),
    )
    .each("shard"),
    Row::gauge(
        "ecosched_federation_merged_lag_ticks",
        "Virtual-time spread between the fastest and slowest shard frontier",
        Source::Lag,
    ),
];

/// The federation family, registered for `shards` shards.
#[derive(Debug)]
pub struct FedIds(Table<Source>);

impl Family for FedIds {
    type Fact<'a> = &'a FederationState;

    /// Mirrors the checkpointed routing counters and shard frontier into
    /// the registry. Monotone (`fetch_max`) on counters, so feeding it
    /// more often than strictly needed — or replaying after resume — is
    /// harmless.
    fn record(&self, rec: &Recorder, state: &FederationState) {
        let shards = || (0..state.shard_count()).map(|i| state.shard(i).last_time().ticks());
        self.0.record(rec, |source, i| match *source {
            Count(f) => Some(Value::RaiseTo(f(state))),
            Source::Routed => state.counters().routed.get(i).map(|&v| Value::RaiseTo(v)),
            Shard(f) => (i < state.shard_count()).then(|| Value::Set(f(state.shard(i)))),
            Source::Lag => {
                let lag = shards().max()? - shards().min()?;
                Some(Value::Set(lag as f64))
            }
        });
    }
}

/// Registers the federation family and one shard-labelled engine family
/// per shard after whatever `b` holds, builds the registry, and returns
/// the live handles on it: the federation's and one per shard.
#[must_use]
pub fn federation_obs(mut b: RegistryBuilder, shards: usize) -> (FederationObs, Vec<EngineObs>) {
    let names: Vec<String> = (0..shards).map(|i| i.to_string()).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let fed = FedIds(Table::register(&mut b, FAMILY, &[], &names));
    let engines: Vec<EngineIds> = (0..shards as u32)
        .map(|s| EngineIds::register(&mut b, Some(s)))
        .collect();
    let rec = Recorder::new(b.build());
    let engines = engines
        .into_iter()
        .map(|ids| EngineObs::new(rec.clone(), ids))
        .collect();
    (FederationObs::new(rec, fed), engines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_per_shard_labelled() {
        let (fed, shards) = federation_obs(RegistryBuilder::new(), 3);
        assert_eq!(shards.len(), 3);
        let reg = fed.recorder().and_then(Recorder::registry).expect("on");
        assert!(reg
            .find_counter("ecosched_federation_routed_total", &[("shard", "2")])
            .is_some());
        assert!(reg
            .find_gauge("ecosched_federation_shard_backlog", &[("shard", "0")])
            .is_some());
        assert!(reg
            .find_counter("ecosched_engine_events_total", &[("shard", "2")])
            .is_some());
    }
}
