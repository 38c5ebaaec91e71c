//! Engine-level observability: live counters, gauges, and cycle spans.
//!
//! [`EngineObs`] is the engine's recorder handle — runtime state,
//! never serialized, absent from
//! [`Engine::config_fingerprint`](crate::Engine::config_fingerprint)
//! and from checkpoints. Every method is a no-op when observability is
//! off, and a recorder-on run is byte-identical to a recorder-off run
//! (pinned by the `obs_ab` integration tests).
//!
//! The ids are registered once at startup ([`EngineIds::register`]),
//! optionally labelled with a federation shard index, so a sharded
//! daemon exposes one metric family with per-shard series.
//!
//! Two kinds of counter, told apart by their help text. Those the
//! checkpointed [`EngineReport`] backs *mirror* it — raised to the
//! report's value after every event — so they carry on across a restart
//! exactly as the federation's mirrored counters do. The scan, cycle,
//! postponement and alternative-use series have no report field behind
//! them and count since process start.
//!
//! The scan counters count *list reads*: `slots_examined` is slots taken
//! from the ordered list, `slots_admitted` those that entered a pool as
//! they were read. A resumed window search re-tests acceptance at its
//! checkpoint anchor from the pool it kept, which reads nothing and
//! shows only in `acceptance_tests`. That counter counts tests run on
//! `N` live pool members. `slots_expired` counts pool members found
//! dead: a small pool drops every dead member as its anchor moves, but a
//! wide AMP pool (over 128 members) tests a member only when acceptance
//! reads it or a removal promotes it, so members that die unread are
//! never counted. `pool_high_water` may include such members.
//!
//! Of [`OptStats`] the family carries the work a cycle's fresh optimizer
//! does — solves, DP rows and Pareto layers built. Its three reuse
//! counters (rows reused, rows extended, layers reused) have no series:
//! nothing survives from one cycle's plan to the next, so they could only
//! read zero. Neither has [`EngineReport::full_rescans`], which is always
//! zero since the full-rescan repair tier went.

use std::sync::Arc;

use ecosched_obs::{Buckets, CounterId, GaugeId, HistogramId, Recorder, RegistryBuilder};
use ecosched_optimize::OptStats;
use ecosched_select::SearchStats;
use ecosched_sim::PostponeReason;

use crate::report::EngineReport;

/// Dense metric ids for one engine instance.
#[derive(Debug, Clone)]
pub struct EngineIds {
    // -- mirrors of the checkpointed run report -------------------------
    events: CounterId,
    jobs_arrived: CounterId,
    jobs_scheduled: CounterId,
    jobs_completed: CounterId,
    revocations: CounterId,
    leases_broken: CounterId,
    failovers: CounterId,
    repairs: CounterId,
    repostponed: CounterId,
    stale_completions: CounterId,
    slots_coalesced: CounterId,
    opt_solves: CounterId,
    opt_rows_rebuilt: CounterId,
    opt_frontier_rebuilt: CounterId,
    // -- per-cycle counts since process start (not in the run report) ---
    cycles: CounterId,
    scan_slots_examined: CounterId,
    scan_slots_admitted: CounterId,
    scan_slots_expired: CounterId,
    scan_acceptance_tests: CounterId,
    scan_windows_found: CounterId,
    scan_passes: CounterId,
    // -- postponements by typed reason, likewise -------------------------
    postponed: [CounterId; 3],
    // -- which of a job's alternatives is ever used, likewise ------------
    alternatives_offered: CounterId,
    alternative_chosen: HistogramId,
    alternative_failover: HistogramId,
    // -- gauges ---------------------------------------------------------
    backlog: GaugeId,
    queue_depth: GaugeId,
    active_leases: GaugeId,
    vacant_slots: GaugeId,
    virtual_time: GaugeId,
    utilization: GaugeId,
    cycle_mean_wait: GaugeId,
    scan_pool_high_water: GaugeId,
}

impl EngineIds {
    /// Registers the engine metric family, optionally labelled with a
    /// shard index (federation mode).
    #[must_use]
    pub fn register(b: &mut RegistryBuilder, shard: Option<u32>) -> EngineIds {
        let shard_value = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = match &shard_value {
            Some(v) => vec![("shard", v.as_str())],
            None => Vec::new(),
        };
        let l = labels.as_slice();
        let c = |b: &mut RegistryBuilder, name: &str, help: &str| b.counter_with(name, help, l);
        let g = |b: &mut RegistryBuilder, name: &str, help: &str| b.gauge_with(name, help, l);
        EngineIds {
            events: c(b, "ecosched_engine_events_total", "Events processed"),
            jobs_arrived: c(b, "ecosched_engine_jobs_arrived_total", "Jobs arrived"),
            jobs_scheduled: c(
                b,
                "ecosched_engine_jobs_scheduled_total",
                "Lease commitments at cycle ticks",
            ),
            jobs_completed: c(
                b,
                "ecosched_engine_jobs_completed_total",
                "Leases run to completion",
            ),
            revocations: c(
                b,
                "ecosched_engine_revocations_total",
                "Slot revocations drawn by the fault model",
            ),
            leases_broken: c(
                b,
                "ecosched_engine_leases_broken_total",
                "Active leases broken by a strike",
            ),
            failovers: c(
                b,
                "ecosched_engine_repair_failovers_total",
                "Broken leases recovered by adopting a surviving alternative (tier 1)",
            ),
            repairs: c(
                b,
                "ecosched_engine_repair_searches_total",
                "Broken leases recovered by repair search (tier 2)",
            ),
            repostponed: c(
                b,
                "ecosched_engine_repair_repostponed_total",
                "Broken leases returned to the pending queue (tier 3)",
            ),
            stale_completions: c(
                b,
                "ecosched_engine_stale_completions_total",
                "Completion events for already-replaced leases",
            ),
            slots_coalesced: c(
                b,
                "ecosched_engine_slots_coalesced_total",
                "Vacant slots absorbed by cycle-commit coalescing",
            ),
            cycles: c(
                b,
                "ecosched_engine_cycles_total",
                "Scheduling cycles run since process start",
            ),
            scan_slots_examined: c(
                b,
                "ecosched_engine_scan_slots_examined_total",
                "Slots read from the ordered list by the alternatives search since process start (a pooled re-test at a resume anchor reads none)",
            ),
            scan_slots_admitted: c(
                b,
                "ecosched_engine_scan_slots_admitted_total",
                "Slots admitted into candidate pools as they were read from the list since process start",
            ),
            scan_slots_expired: c(
                b,
                "ecosched_engine_scan_slots_expired_total",
                "Pooled slots the alternatives search found expired since process start (a wide AMP pool tests only the members it reads)",
            ),
            scan_acceptance_tests: c(
                b,
                "ecosched_engine_scan_acceptance_tests_total",
                "Window acceptance tests evaluated on N live pool members since process start, pooled re-tests at a resume anchor included",
            ),
            scan_windows_found: c(
                b,
                "ecosched_engine_scan_windows_found_total",
                "Windows found by the alternatives search since process start",
            ),
            scan_passes: c(
                b,
                "ecosched_engine_scan_passes_total",
                "Alternatives-search passes over the batch since process start",
            ),
            opt_solves: c(
                b,
                "ecosched_engine_opt_solves_total",
                "Combination-optimizer solves",
            ),
            opt_rows_rebuilt: c(
                b,
                "ecosched_engine_opt_rows_rebuilt_total",
                "DP rows built by the combination optimizer",
            ),
            opt_frontier_rebuilt: c(
                b,
                "ecosched_engine_opt_frontier_rebuilt_total",
                "Pareto layers built by the exact sweep",
            ),
            // In `on_postponed`'s slot order.
            postponed: [
                "no_alternatives",
                "all_alternatives_stale",
                "repair_budget_exhausted",
            ]
            .map(|reason| {
                b.counter_with(
                    "ecosched_engine_postponed_total",
                    "Jobs left unscheduled by a cycle or a repair pass since process start, by reason",
                    &[l, &[("reason", reason)]].concat(),
                )
            }),
            alternatives_offered: c(
                b,
                "ecosched_engine_alternatives_offered_total",
                "Alternative windows the search found for cycle batches since process start",
            ),
            alternative_chosen: b.histogram_with(
                "ecosched_engine_alternative_chosen_index",
                "Position, in search order, of the alternative a cycle committed for a job",
                alternative_index_buckets(),
                l,
            ),
            alternative_failover: b.histogram_with(
                "ecosched_engine_alternative_failover_index",
                "Position, among a broken lease's surviving alternatives, of the one tier-1 failover adopted",
                alternative_index_buckets(),
                l,
            ),
            backlog: g(b, "ecosched_engine_backlog", "Pending jobs"),
            queue_depth: g(
                b,
                "ecosched_engine_event_queue_depth",
                "Events waiting in the queue",
            ),
            active_leases: g(b, "ecosched_engine_active_leases", "Leases in flight"),
            vacant_slots: g(b, "ecosched_engine_vacant_slots", "Vacant market slots"),
            virtual_time: g(
                b,
                "ecosched_engine_virtual_time",
                "Last processed event tick",
            ),
            utilization: g(
                b,
                "ecosched_engine_utilization",
                "Busy node-ticks over published node-ticks so far",
            ),
            cycle_mean_wait: g(
                b,
                "ecosched_engine_cycle_mean_wait",
                "Mean wait (ticks) of the jobs committed by the last cycle",
            ),
            scan_pool_high_water: g(
                b,
                "ecosched_engine_scan_pool_high_water",
                "Largest candidate pool any window search of the last cycle held, members not yet found expired included",
            ),
        }
    }
}

/// Exact buckets for the first few positions — the question is how short
/// a prefix of a job's alternatives is ever used — then doubling.
fn alternative_index_buckets() -> Buckets {
    Buckets::explicit(&[0, 1, 2, 3, 4, 5, 7, 11, 15, 31, 63, 127, 255])
}

#[derive(Debug)]
struct EngineObsInner {
    rec: Recorder,
    ids: EngineIds,
}

/// The engine's observability handle; off by default.
#[derive(Debug, Clone, Default)]
pub struct EngineObs {
    inner: Option<Arc<EngineObsInner>>,
}

/// Per-step gauge values pushed out of the event loop (the engine owns
/// the private state; observability only sees these numbers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepGauges {
    pub(crate) now: i64,
    pub(crate) backlog: usize,
    pub(crate) queue_depth: usize,
    pub(crate) active_leases: usize,
    pub(crate) vacant_slots: usize,
    pub(crate) utilization: f64,
}

impl EngineObs {
    /// The disabled handle.
    #[must_use]
    pub fn off() -> EngineObs {
        EngineObs { inner: None }
    }

    /// Binds registered ids to a recorder.
    #[must_use]
    pub fn new(rec: Recorder, ids: EngineIds) -> EngineObs {
        if !rec.is_on() {
            return EngineObs::off();
        }
        EngineObs {
            inner: Some(Arc::new(EngineObsInner { rec, ids })),
        }
    }

    /// Whether recording is enabled.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying recorder, when on.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_deref().map(|i| &i.rec)
    }

    /// Records one processed event: every counter the checkpointed run
    /// report backs is raised to the report's value (`events_total` to
    /// `events`, the log's length), so a run resumed in a new process
    /// reads as the whole run, like the federation's mirrored counters;
    /// then the per-step gauges.
    pub(crate) fn post_step(&self, report: &EngineReport, events: u64, gauges: StepGauges) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let rec = &inner.rec;
        let ids = &inner.ids;
        for (id, value) in [
            (ids.events, events),
            (ids.jobs_arrived, report.jobs_arrived),
            (ids.jobs_scheduled, report.jobs_scheduled),
            (ids.jobs_completed, report.jobs_completed),
            (ids.revocations, report.revocations),
            (ids.leases_broken, report.leases_broken),
            (ids.failovers, report.failovers),
            (ids.repairs, report.repairs),
            (ids.repostponed, report.repostponed),
            (ids.stale_completions, report.stale_completions),
            (ids.slots_coalesced, report.slots_coalesced),
            (ids.opt_solves, report.opt.solves),
            (ids.opt_rows_rebuilt, report.opt.rows_rebuilt),
            (ids.opt_frontier_rebuilt, report.opt.frontier_rebuilt),
        ] {
            rec.raise_to(id, value);
        }
        rec.set(ids.backlog, gauges.backlog as f64);
        rec.set(ids.queue_depth, gauges.queue_depth as f64);
        rec.set(ids.active_leases, gauges.active_leases as f64);
        rec.set(ids.vacant_slots, gauges.vacant_slots as f64);
        rec.set(ids.virtual_time, gauges.now as f64);
        rec.set(ids.utilization, gauges.utilization);
    }

    /// Records one scheduling cycle: scan work counters, the cycle's
    /// largest pool, plus a `cycle` span with `scan` / `optimize` /
    /// `commit` children.
    pub(crate) fn on_cycle(
        &self,
        now: i64,
        search: &SearchStats,
        opt: &OptStats,
        batch: usize,
        committed: usize,
        mean_wait: f64,
    ) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let rec = &inner.rec;
        let ids = &inner.ids;
        rec.inc(ids.cycles);
        rec.add(ids.scan_slots_examined, search.scan.slots_examined);
        rec.add(ids.scan_slots_admitted, search.scan.slots_admitted);
        rec.add(ids.scan_slots_expired, search.scan.slots_expired);
        rec.add(ids.scan_acceptance_tests, search.scan.acceptance_tests);
        rec.add(ids.scan_windows_found, search.scan.windows_found);
        rec.add(ids.scan_passes, search.passes);
        rec.add(ids.alternatives_offered, search.windows_committed);
        rec.set(ids.cycle_mean_wait, mean_wait);
        rec.set(ids.scan_pool_high_water, search.scan.pool_high_water as f64);
        let cycle = rec.span(now, "cycle", None, batch as u64);
        rec.span(now, "scan", cycle, search.scan.slots_examined);
        rec.span(now, "optimize", cycle, opt.solves);
        rec.span(now, "commit", cycle, committed as u64);
    }

    /// Records which of a job's alternatives its cycle committed.
    pub(crate) fn on_alternative_chosen(&self, index: usize) {
        if let Some(inner) = self.inner.as_deref() {
            inner
                .rec
                .observe(inner.ids.alternative_chosen, index as u64);
        }
    }

    /// Records which of a broken lease's surviving alternatives tier-1
    /// failover adopted.
    pub(crate) fn on_alternative_failover(&self, index: usize) {
        if let Some(inner) = self.inner.as_deref() {
            inner
                .rec
                .observe(inner.ids.alternative_failover, index as u64);
        }
    }

    /// Counts `jobs` postponements under their typed reason.
    pub(crate) fn on_postponed(&self, reason: PostponeReason, jobs: usize) {
        if let Some(inner) = self.inner.as_deref() {
            let slot = match reason {
                PostponeReason::NoAlternatives => 0,
                PostponeReason::AllAlternativesStale => 1,
                PostponeReason::RepairBudgetExhausted => 2,
            };
            inner.rec.add(inner.ids.postponed[slot], jobs as u64);
        }
    }

    /// Records one revocation strike's repair pass as a span.
    pub(crate) fn on_repair(&self, now: i64, broken: usize) {
        if let Some(inner) = self.inner.as_deref() {
            inner.rec.span(now, "repair", None, broken as u64);
        }
    }
}
