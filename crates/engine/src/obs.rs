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
//! Of [`OptStats`] the family carries the work a cycle's fresh optimizer
//! does — solves, DP rows and Pareto layers built. Its three reuse
//! counters (rows reused, rows extended, layers reused) have no series:
//! nothing survives from one cycle's plan to the next, so they could only
//! read zero.

use std::sync::Arc;

use ecosched_obs::{CounterId, GaugeId, Recorder, RegistryBuilder};
use ecosched_optimize::OptStats;
use ecosched_select::SearchStats;
use ecosched_sim::PostponeReason;

use crate::report::EngineReport;

/// Dense metric ids for one engine instance.
#[derive(Debug, Clone)]
pub struct EngineIds {
    // -- event-loop counters (deltas of the run report) ----------------
    events: CounterId,
    jobs_arrived: CounterId,
    jobs_scheduled: CounterId,
    jobs_completed: CounterId,
    revocations: CounterId,
    leases_broken: CounterId,
    failovers: CounterId,
    repairs: CounterId,
    full_rescans: CounterId,
    repostponed: CounterId,
    stale_completions: CounterId,
    slots_coalesced: CounterId,
    // -- per-cycle select/optimize counters -----------------------------
    cycles: CounterId,
    scan_slots_examined: CounterId,
    scan_slots_admitted: CounterId,
    scan_acceptance_tests: CounterId,
    scan_windows_found: CounterId,
    scan_passes: CounterId,
    opt_solves: CounterId,
    opt_rows_rebuilt: CounterId,
    opt_frontier_rebuilt: CounterId,
    // -- postponements by typed reason (not in the run report) ----------
    postponed: [CounterId; 3],
    // -- gauges ---------------------------------------------------------
    backlog: GaugeId,
    queue_depth: GaugeId,
    active_leases: GaugeId,
    vacant_slots: GaugeId,
    virtual_time: GaugeId,
    utilization: GaugeId,
    cycle_mean_wait: GaugeId,
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
                "Broken leases recovered by repair search (tiers 2/2.5)",
            ),
            full_rescans: c(
                b,
                "ecosched_engine_repair_full_rescans_total",
                "Full-rescan repair attempts (tier 2.5)",
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
            cycles: c(b, "ecosched_engine_cycles_total", "Scheduling cycles run"),
            scan_slots_examined: c(
                b,
                "ecosched_engine_scan_slots_examined_total",
                "Slots examined by the alternatives search",
            ),
            scan_slots_admitted: c(
                b,
                "ecosched_engine_scan_slots_admitted_total",
                "Slots admitted into candidate pools",
            ),
            scan_acceptance_tests: c(
                b,
                "ecosched_engine_scan_acceptance_tests_total",
                "Window acceptance tests evaluated",
            ),
            scan_windows_found: c(
                b,
                "ecosched_engine_scan_windows_found_total",
                "Windows found by the alternatives search",
            ),
            scan_passes: c(
                b,
                "ecosched_engine_scan_passes_total",
                "Alternatives-search passes over the batch",
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
                    "Jobs left unscheduled by a cycle or a repair pass, by reason",
                    &[l, &[("reason", reason)]].concat(),
                )
            }),
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
        }
    }
}

/// Point-in-time copy of the run report's monotone counters, taken
/// before an event handler runs so the per-event delta can be recorded
/// after it — regardless of which arm (or early return) it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportSnap {
    jobs_arrived: u64,
    jobs_scheduled: u64,
    jobs_completed: u64,
    revocations: u64,
    leases_broken: u64,
    failovers: u64,
    repairs: u64,
    full_rescans: u64,
    repostponed: u64,
    stale_completions: u64,
    slots_coalesced: u64,
}

impl ReportSnap {
    fn of(report: &EngineReport) -> ReportSnap {
        ReportSnap {
            jobs_arrived: report.jobs_arrived,
            jobs_scheduled: report.jobs_scheduled,
            jobs_completed: report.jobs_completed,
            revocations: report.revocations,
            leases_broken: report.leases_broken,
            failovers: report.failovers,
            repairs: report.repairs,
            full_rescans: report.full_rescans,
            repostponed: report.repostponed,
            stale_completions: report.stale_completions,
            slots_coalesced: report.slots_coalesced,
        }
    }
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

    /// Snapshot of the report counters before an event handler runs;
    /// `None` when off (so the off path does no copying).
    pub(crate) fn pre_step(&self, report: &EngineReport) -> Option<ReportSnap> {
        self.inner.as_ref().map(|_| ReportSnap::of(report))
    }

    /// Records one processed event: report-counter deltas plus the
    /// per-step gauges.
    pub(crate) fn post_step(
        &self,
        snap: Option<ReportSnap>,
        report: &EngineReport,
        gauges: StepGauges,
    ) {
        let (Some(inner), Some(prev)) = (self.inner.as_deref(), snap) else {
            return;
        };
        let rec = &inner.rec;
        let ids = &inner.ids;
        rec.inc(ids.events);
        rec.add(ids.jobs_arrived, report.jobs_arrived - prev.jobs_arrived);
        rec.add(
            ids.jobs_scheduled,
            report.jobs_scheduled - prev.jobs_scheduled,
        );
        rec.add(
            ids.jobs_completed,
            report.jobs_completed - prev.jobs_completed,
        );
        rec.add(ids.revocations, report.revocations - prev.revocations);
        rec.add(ids.leases_broken, report.leases_broken - prev.leases_broken);
        rec.add(ids.failovers, report.failovers - prev.failovers);
        rec.add(ids.repairs, report.repairs - prev.repairs);
        rec.add(ids.full_rescans, report.full_rescans - prev.full_rescans);
        rec.add(ids.repostponed, report.repostponed - prev.repostponed);
        rec.add(
            ids.stale_completions,
            report.stale_completions - prev.stale_completions,
        );
        rec.add(
            ids.slots_coalesced,
            report.slots_coalesced - prev.slots_coalesced,
        );
        rec.set(ids.backlog, gauges.backlog as f64);
        rec.set(ids.queue_depth, gauges.queue_depth as f64);
        rec.set(ids.active_leases, gauges.active_leases as f64);
        rec.set(ids.vacant_slots, gauges.vacant_slots as f64);
        rec.set(ids.virtual_time, gauges.now as f64);
        rec.set(ids.utilization, gauges.utilization);
    }

    /// Records one scheduling cycle: scan and optimizer work counters
    /// plus a `cycle` span with `scan` / `optimize` / `commit` children.
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
        rec.add(ids.scan_acceptance_tests, search.scan.acceptance_tests);
        rec.add(ids.scan_windows_found, search.scan.windows_found);
        rec.add(ids.scan_passes, search.passes);
        rec.add(ids.opt_solves, opt.solves);
        rec.add(ids.opt_rows_rebuilt, opt.rows_rebuilt);
        rec.add(ids.opt_frontier_rebuilt, opt.frontier_rebuilt);
        rec.set(ids.cycle_mean_wait, mean_wait);
        let cycle = rec.span(now, "cycle", None, batch as u64);
        rec.span(now, "scan", cycle, search.scan.slots_examined);
        rec.span(now, "optimize", cycle, opt.solves);
        rec.span(now, "commit", cycle, committed as u64);
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
