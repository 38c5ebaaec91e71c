//! Federation-level observability: mirrors the superscheduler's routing
//! counters and per-shard frontier into an [`ecosched_obs`] registry.
//!
//! The federation already keeps its routing state in [`RouteCounters`]
//! because the router is part of the resumable checkpoint. Rather than
//! instrumenting every mutation site (and risking a missed one), the
//! recorder *mirrors*: after each routing decision or merged step,
//! [`FederationObs::sync`] raises each registry counter to the
//! checkpointed value with a monotone `fetch_max` and refreshes the
//! shard gauges. Mirroring is idempotent, so resume replays cannot
//! double-count, and it keeps the registry observe-only — the
//! checkpointed counters remain the single source of truth.

use ecosched_obs::{CounterId, GaugeId, Recorder, RegistryBuilder};
use std::sync::Arc;

use crate::federation::FederationState;
use crate::report::RouteCounters;

/// Dense metric ids for one federation, registered at startup.
#[derive(Debug, Clone)]
pub struct FedIds {
    /// `ecosched_federation_routed_total{shard=i}` — direct placements.
    pub routed: Vec<CounterId>,
    /// `ecosched_federation_probes_total`.
    pub probes: CounterId,
    /// `ecosched_federation_cross_shard_committed_total`.
    pub cross_shard_committed: CounterId,
    /// `ecosched_federation_fallback_submits_total`.
    pub fallback_submits: CounterId,
    /// `ecosched_federation_align_rounds_total`.
    pub align_rounds: CounterId,
    /// `ecosched_federation_reservations_reserved_total`.
    pub reservations_reserved: CounterId,
    /// `ecosched_federation_reservations_released_total`.
    pub reservations_released: CounterId,
    /// `ecosched_federation_merged_events_total`.
    pub merged_events: CounterId,
    /// `ecosched_federation_jobs_offered_total`.
    pub jobs_offered: CounterId,
    /// `ecosched_federation_shard_backlog{shard=i}`.
    pub shard_backlog: Vec<GaugeId>,
    /// `ecosched_federation_shard_last_time{shard=i}` — each shard's
    /// virtual-time frontier.
    pub shard_last_time: Vec<GaugeId>,
    /// `ecosched_federation_merged_lag_ticks` — spread between the
    /// fastest and slowest shard frontier (how far the merged log trails
    /// the leading shard).
    pub merged_lag: GaugeId,
}

impl FedIds {
    /// Registers the federation metric family for `shards` shards.
    #[must_use]
    pub fn register(b: &mut RegistryBuilder, shards: usize) -> Self {
        FedIds {
            routed: (0..shards)
                .map(|i| {
                    let shard = i.to_string();
                    b.counter_with(
                        "ecosched_federation_routed_total",
                        "Jobs placed directly on this shard",
                        &[("shard", &shard)],
                    )
                })
                .collect(),
            probes: b.counter(
                "ecosched_federation_probes_total",
                "Shard-market window probes by cheapest-probe routing and cross-shard alignment",
            ),
            cross_shard_committed: b.counter(
                "ecosched_federation_cross_shard_committed_total",
                "Cross-shard placements whose every part was leased",
            ),
            fallback_submits: b.counter(
                "ecosched_federation_fallback_submits_total",
                "Jobs that probed infeasible everywhere and fell back to least-backlog submit",
            ),
            align_rounds: b.counter(
                "ecosched_federation_align_rounds_total",
                "Alignment rounds run by the cross-shard fixed point",
            ),
            reservations_reserved: b.counter(
                "ecosched_federation_reservations_reserved_total",
                "Cross-shard part windows carved out of a shard market",
            ),
            reservations_released: b.counter(
                "ecosched_federation_reservations_released_total",
                "Carved cross-shard parts returned to their market unleased",
            ),
            merged_events: b.counter(
                "ecosched_federation_merged_events_total",
                "Entries appended to the merged (time, seq, shard) log",
            ),
            jobs_offered: b.counter(
                "ecosched_federation_jobs_offered_total",
                "Federation jobs accepted (routed stream arrivals plus external submissions)",
            ),
            shard_backlog: (0..shards)
                .map(|i| {
                    let shard = i.to_string();
                    b.gauge_with(
                        "ecosched_federation_shard_backlog",
                        "Pending plus leased jobs on this shard",
                        &[("shard", &shard)],
                    )
                })
                .collect(),
            shard_last_time: (0..shards)
                .map(|i| {
                    let shard = i.to_string();
                    b.gauge_with(
                        "ecosched_federation_shard_last_time",
                        "Virtual-time frontier of this shard",
                        &[("shard", &shard)],
                    )
                })
                .collect(),
            merged_lag: b.gauge(
                "ecosched_federation_merged_lag_ticks",
                "Virtual-time spread between the fastest and slowest shard frontier",
            ),
        }
    }
}

#[derive(Debug)]
struct FederationObsInner {
    rec: Recorder,
    ids: FedIds,
}

/// An optional federation recorder handle. Like the engine's, this is
/// runtime state: never serialized, absent from the configuration
/// fingerprint and checkpoints, and a no-op when off.
#[derive(Debug, Clone, Default)]
pub struct FederationObs {
    inner: Option<Arc<FederationObsInner>>,
}

impl FederationObs {
    /// A disabled handle; every call is a no-op.
    #[must_use]
    pub fn off() -> Self {
        FederationObs { inner: None }
    }

    /// A live handle over a recorder and pre-registered ids. Degrades to
    /// [`off`](Self::off) when the recorder itself is off.
    #[must_use]
    pub fn new(rec: Recorder, ids: FedIds) -> Self {
        if !rec.is_on() {
            return FederationObs::off();
        }
        FederationObs {
            inner: Some(Arc::new(FederationObsInner { rec, ids })),
        }
    }

    /// Whether recording is live.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying recorder, when live.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_ref().map(|i| &i.rec)
    }

    /// Mirrors the checkpointed routing counters and shard frontier into
    /// the registry. Monotone (`fetch_max`) on counters, so calling it
    /// more often than strictly needed — or replaying after resume — is
    /// harmless.
    pub fn sync(&self, state: &FederationState) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let rec = &inner.rec;
        let ids = &inner.ids;
        let counters: &RouteCounters = state.counters();
        for (id, &value) in ids.routed.iter().zip(&counters.routed) {
            rec.raise_to(*id, value);
        }
        rec.raise_to(ids.probes, counters.probes);
        rec.raise_to(ids.cross_shard_committed, counters.cross_shard_committed);
        rec.raise_to(ids.fallback_submits, counters.fallback_submits);
        rec.raise_to(ids.align_rounds, counters.align_rounds);
        rec.raise_to(ids.reservations_reserved, counters.reservations_reserved);
        rec.raise_to(ids.reservations_released, counters.reservations_released);
        rec.raise_to(ids.merged_events, state.merged().len() as u64);
        rec.raise_to(ids.jobs_offered, state.jobs_offered());
        let mut min_time = i64::MAX;
        let mut max_time = i64::MIN;
        for shard in 0..state.shard_count() {
            let shard_state = state.shard(shard);
            let t = shard_state.last_time().ticks();
            min_time = min_time.min(t);
            max_time = max_time.max(t);
            if let Some(&id) = ids.shard_backlog.get(shard) {
                rec.set(id, shard_state.backlog() as f64);
            }
            if let Some(&id) = ids.shard_last_time.get(shard) {
                rec.set(id, t as f64);
            }
        }
        if state.shard_count() > 0 {
            rec.set(ids.merged_lag, (max_time - min_time) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_obs::Registry;

    fn registry_with_ids(shards: usize) -> (Registry, FedIds) {
        let mut b = RegistryBuilder::new();
        let ids = FedIds::register(&mut b, shards);
        (b.build(), ids)
    }

    #[test]
    fn off_handle_is_noop() {
        let obs = FederationObs::off();
        assert!(!obs.is_on());
        assert!(obs.recorder().is_none());
    }

    #[test]
    fn registration_is_per_shard_labelled() {
        let (reg, ids) = registry_with_ids(3);
        assert_eq!(ids.routed.len(), 3);
        assert!(reg
            .find_counter("ecosched_federation_routed_total", &[("shard", "2")])
            .is_some());
        assert!(reg
            .find_gauge("ecosched_federation_shard_backlog", &[("shard", "0")])
            .is_some());
    }
}
