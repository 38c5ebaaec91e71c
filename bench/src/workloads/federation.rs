//! `federation_s4`: four shard engines under the superscheduler, with
//! cheapest-probe routing and two-phase cross-shard co-allocation.
//!
//! `exp_federation --single --shards 4 --mean-gap 2 --cycles 400` runs
//! this configuration.

use std::path::PathBuf;
use std::time::Instant;

use ecosched::core::{ResourceRequest, TimePoint};
use ecosched::engine::{Engine, Event};
use ecosched::experiments::federation::fed_config;
use ecosched::experiments::online::OnlineConfig;
use ecosched::federation::{Federation, FederationReport, FederationState};
use ecosched::persist::SnapshotStore;
use ecosched::select::Amp;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::engine::{
    derive_cycle_shares, event_kind, record_probed_cycle, shadow_probe, EVENT_STATS, PROBE_EVERY,
};
use crate::harness::{Checks, Recorder, Rep, Traced, Workload};

const SHARDS: u32 = 4;
const CYCLES: u32 = 200;
const MEAN_GAP: f64 = 2.0;
/// Requests a traced repetition asks `probe_cheapest` about at each
/// probed cycle.
const PROBES_PER_CYCLE: usize = 8;

/// Per kind of event: the statistic of a merged step that routed nothing
/// and that of one that also routed stream arrivals.
const STEP_STATS: [(&str, &str); 6] = [
    (EVENT_STATS[0], "federation.routing_step.arrival"),
    (EVENT_STATS[1], "federation.routing_step.publish"),
    (EVENT_STATS[2], "federation.routing_step.expire"),
    (EVENT_STATS[3], "federation.routing_step.complete"),
    (EVENT_STATS[4], "federation.routing_step.strike"),
    (EVENT_STATS[5], "federation.routing_step.cycle"),
];

pub struct FederationS4 {
    federation: Federation<Amp>,
    seed: u64,
    cycle_length: i64,
    /// The offered stream, for the routing probes.
    pub(super) requests: Vec<ResourceRequest>,
    probe_store: SnapshotStore,
    report: Option<FederationReport>,
}

impl FederationS4 {
    pub fn new(seed: u64, scratch: PathBuf) -> Self {
        let online = OnlineConfig {
            seed,
            cycles: CYCLES,
            ..OnlineConfig::default()
        };
        let config = fed_config(&online, SHARDS, MEAN_GAP);
        // The stream `Federation::start` generates, drawn the same way.
        let requests = Engine::new(config.base.clone(), Amp::new())
            .expect("the configuration is valid")
            .generate_arrivals(&mut ChaCha8Rng::seed_from_u64(seed))
            .into_iter()
            .map(|(_, request)| request)
            .collect();
        FederationS4 {
            cycle_length: config.base.cycle_length,
            federation: Federation::new(config, Amp::new()).expect("the configuration is valid"),
            seed,
            requests,
            probe_store: SnapshotStore::open(scratch.join("probe-snapshots"), 3)
                .expect("the scratch directory is writable"),
            report: None,
        }
    }

    /// One cycle length of virtual time per `advance_to`.
    fn drive(&self, rec: &mut Recorder, state: &mut FederationState) -> u64 {
        let mut target = 0;
        while state.next_time().is_some() {
            let started = rec.now();
            if self
                .federation
                .advance_to(state, TimePoint::new(target))
                .is_err()
            {
                return 1;
            }
            rec.op(started);
            target += self.cycle_length;
        }
        0
    }

    /// The same run one merged entry at a time, so that every step can be
    /// attributed: to the event its shard processed, and — when the step
    /// also routed stream arrivals — to the superscheduler.
    fn drive_traced(&self, rec: &mut Recorder, state: &mut FederationState) -> u64 {
        let fed = &self.federation;
        let mut shadow = None;
        let mut cycle_started = rec.now();
        loop {
            let offered = state.jobs_offered();
            let start = Instant::now();
            let entry = match fed.step(state) {
                Ok(Some(entry)) => entry,
                Ok(None) => break,
                Err(_) => return 1,
            };
            let ns = start.elapsed().as_nanos() as u64;
            let (plain, routing) = STEP_STATS[event_kind(&entry.event)];
            let routed = state.jobs_offered() - offered;
            if routed == 0 {
                rec.add(plain, ns as f64);
            } else {
                rec.add(routing, ns as f64);
                rec.add("federation.routed", routed as f64);
            }
            rec.add("federation.step_ns", ns as f64);
            if entry.shard != 0 {
                continue;
            }
            match entry.event {
                Event::SlotPublished { round, .. } if round % PROBE_EVERY == 0 => {
                    let now = TimePoint::new(entry.time);
                    let from = round as usize * PROBES_PER_CYCLE % self.requests.len();
                    shadow = Some(rec.exclude(|rec| {
                        for request in self
                            .requests
                            .iter()
                            .cycle()
                            .skip(from)
                            .take(PROBES_PER_CYCLE)
                        {
                            rec.span("federation.probe_us", || {
                                fed.probe_cheapest(state, request, now)
                            });
                        }
                        shadow_probe(
                            rec,
                            fed.shard_engine(0),
                            state.shard(0),
                            round,
                            &self.probe_store,
                        )
                    }));
                }
                Event::CycleTick { .. } => {
                    if let Some(shadow) = shadow.take() {
                        record_probed_cycle(rec, ns, &shadow);
                    }
                    // A cycle of the first shard is the traced run's
                    // operation: calibrations need a boundary.
                    rec.op(cycle_started);
                    cycle_started = rec.now();
                }
                _ => {}
            }
        }
        0
    }
}

impl Workload for FederationS4 {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut state = self.federation.start(self.seed);
        let failed = if rec.tracing() {
            self.drive_traced(rec, &mut state)
        } else {
            self.drive(rec, &mut state)
        };
        let report = self.federation.finish(state).report;
        if rec.tracing() {
            let r = &report.routing;
            rec.add("federation.probes", r.probes as f64);
            rec.add("federation.xshard_reserved", r.reservations_reserved as f64);
            rec.add("federation.xshard_released", r.reservations_released as f64);
            rec.add(
                "federation.xshard_committed",
                r.cross_shard_committed as f64,
            );
            rec.add("federation.align_rounds", r.align_rounds as f64);
            rec.add("federation.merged_events", report.merged_events as f64);
        }
        let rep = Rep {
            ops: report.jobs_offered,
            failed,
            hash: report.merged_log_hash.clone(),
        };
        self.report = Some(report);
        rep
    }

    fn pinned_hash(&self) -> Option<&'static str> {
        Some("971ac8752b5b1534")
    }

    fn verify(&mut self, checks: &mut Checks) {
        let report = self.report.as_ref().expect("a repetition ran");
        checks.check(report.jobs_offered == self.requests.len() as u64, || {
            format!(
                "{} of {} jobs were offered",
                report.jobs_offered,
                self.requests.len()
            )
        });
        let r = &report.routing;
        let held = r.reservations_reserved - r.reservations_released;
        checks.check(held >= r.cross_shard_committed, || {
            format!(
                "{} reservations kept for {} commits",
                held, r.cross_shard_committed
            )
        });
    }

    fn derive(&self, rec: &mut Recorder, traced: &Traced) {
        let wall = traced.wall_ns;
        derive_cycle_shares(rec, wall);
        // A routing step also steps a shard; what it took beyond a plain
        // step on the same kind of event went to probing, reserving and
        // placing the arrivals.
        let route: f64 = STEP_STATS
            .iter()
            .map(|(plain, routing)| {
                (rec.sum(routing) - rec.count(routing) * rec.mean(plain)).max(0.0)
            })
            .sum();
        let routed = rec.sum("federation.routed");
        if routed > 0.0 {
            rec.set("federation.route_us", route / routed / 1e3);
        }
        rec.set("federation.wall_share", route / wall);
        rec.set(
            "federation.shard_step_share",
            (rec.sum("federation.step_ns") - route) / wall,
        );
        let reserved = rec.sum("federation.xshard_reserved");
        if reserved > 0.0 {
            rec.set(
                "federation.xshard_commit_ratio",
                1.0 - rec.sum("federation.xshard_released") / reserved,
            );
        }
    }
}
