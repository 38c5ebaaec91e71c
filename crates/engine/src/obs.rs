//! Engine-level observability: live counters, gauges, and cycle spans.
//!
//! [`EngineObs`] is the engine's recorder handle — runtime state,
//! never serialized, absent from
//! [`Engine::config_fingerprint`](crate::Engine::config_fingerprint)
//! and from checkpoints. Feeding it is a no-op when observability is
//! off, and a recorder-on run is byte-identical to a recorder-off run
//! (pinned by the `obs_ab` integration tests).
//!
//! The family is one table of rows, each naming the [`Fact`] that feeds
//! it and how. The ids are registered once at startup
//! ([`EngineIds::register`]), optionally labelled with a federation shard
//! index, so a sharded daemon exposes one metric family with per-shard
//! series; [`engine_obs`] builds a registry holding the family alone.
//!
//! Two kinds of counter, told apart by their help text. Those the
//! checkpointed [`EngineReport`](crate::EngineReport) backs *mirror* it — raised to the
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
//! Of [`OptStats`](ecosched_optimize::OptStats) the family carries the work a cycle's fresh optimizer
//! does — solves, DP rows and Pareto layers built. Its three reuse
//! counters (rows reused, rows extended, layers reused) have no series:
//! nothing survives from one cycle's plan to the next, so they could only
//! read zero. Neither has
//! [`EngineReport::full_rescans`](crate::EngineReport::full_rescans), which is always
//! zero since the full-rescan repair tier went.

use ecosched_obs::{Buckets, Family, Handle, Recorder, RegistryBuilder, Row, Table, Value};
use ecosched_select::SearchStats;
use ecosched_sim::{IterationResult, PostponeReason};

use crate::engine::RunState;
use crate::report::CyclePoint;

/// The engine's observability handle; off by default.
pub type EngineObs = Handle<EngineIds>;

/// What the engine feeds its handle.
#[derive(Debug, Clone, Copy)]
pub enum Fact<'a> {
    /// One event processed: the run's state after it.
    Step(&'a RunState),
    /// One cycle committed: its report point and its plan (whose
    /// postponed jobs count as `no_alternatives`).
    Cycle(&'a CyclePoint, &'a IterationResult),
    /// A cycle committed the alternative at this position, in search
    /// order, for a job.
    Chosen(usize),
    /// Tier-1 failover adopted the alternative at this position among a
    /// broken lease's surviving ones, counting those the lease dropped
    /// when time passed them.
    Failover(usize),
    /// A repair pass left one broken lease's job unscheduled.
    Postponed(PostponeReason),
    /// A strike's repair pass at this tick over this many broken leases.
    Repair(i64, usize),
}

/// Where an engine series' value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Raised after every event to a count the run holds: its log's
    /// length or a checkpointed run-report field.
    Report(fn(&RunState) -> u64),
    /// Set after every event.
    Step(fn(&RunState) -> f64),
    /// Added once per cycle from its search's work; counts since process
    /// start.
    Search(fn(&SearchStats) -> u64),
    /// Set once per cycle.
    Cycle(fn(&CyclePoint, &SearchStats) -> f64),
    /// Added where jobs are postponed, one series per reason in
    /// [`POSTPONE_REASONS`] order; counts since process start.
    Postponed,
    /// Observed where a cycle commits an alternative.
    Chosen,
    /// Observed where tier-1 failover adopts an alternative.
    Failover,
}

/// The `reason` label values of `ecosched_engine_postponed_total`.
const POSTPONE_REASONS: [&str; 3] = [
    "no_alternatives",
    "all_alternatives_stale",
    "repair_budget_exhausted",
];

/// Exact buckets for the first few positions — the question is how short
/// a prefix of a job's alternatives is ever used — then doubling.
fn alternative_index_buckets() -> Buckets {
    Buckets::explicit(&[0, 1, 2, 3, 4, 5, 7, 11, 15, 31, 63, 127, 255])
}

use Source::{Chosen, Failover, Postponed, Report};

/// The engine family, in registration order.
const FAMILY: &[Row<Source>] = &[
    // -- mirrors of the checkpointed run report -------------------------
    Row::counter(
        "ecosched_engine_events_total",
        "Events processed",
        Report(|s| s.events_processed() as u64),
    ),
    Row::counter(
        "ecosched_engine_jobs_arrived_total",
        "Jobs arrived",
        Report(|s| s.report_so_far().jobs_arrived),
    ),
    Row::counter(
        "ecosched_engine_jobs_scheduled_total",
        "Lease commitments at cycle ticks",
        Report(|s| s.report_so_far().jobs_scheduled),
    ),
    Row::counter(
        "ecosched_engine_jobs_completed_total",
        "Leases run to completion",
        Report(|s| s.report_so_far().jobs_completed),
    ),
    Row::counter(
        "ecosched_engine_revocations_total",
        "Slot revocations drawn by the fault model",
        Report(|s| s.report_so_far().revocations),
    ),
    Row::counter(
        "ecosched_engine_leases_broken_total",
        "Active leases broken by a strike",
        Report(|s| s.report_so_far().leases_broken),
    ),
    Row::counter(
        "ecosched_engine_repair_failovers_total",
        "Broken leases recovered by adopting a surviving alternative (tier 1)",
        Report(|s| s.report_so_far().failovers),
    ),
    Row::counter(
        "ecosched_engine_repair_searches_total",
        "Broken leases recovered by repair search (tier 2)",
        Report(|s| s.report_so_far().repairs),
    ),
    Row::counter(
        "ecosched_engine_repair_repostponed_total",
        "Broken leases returned to the pending queue (tier 3)",
        Report(|s| s.report_so_far().repostponed),
    ),
    Row::counter(
        "ecosched_engine_stale_completions_total",
        "Completion events for already-replaced leases",
        Report(|s| s.report_so_far().stale_completions),
    ),
    Row::counter(
        "ecosched_engine_slots_coalesced_total",
        "Vacant slots absorbed by cycle-commit coalescing",
        Report(|s| s.report_so_far().slots_coalesced),
    ),
    // -- per-cycle counts since process start (not in the run report) ---
    Row::counter(
        "ecosched_engine_cycles_total",
        "Scheduling cycles run since process start",
        Source::Search(|_| 1),
    ),
    Row::counter(
        "ecosched_engine_scan_slots_examined_total",
        "Slots read from the ordered list by the alternatives search since process start (a pooled re-test at a resume anchor reads none)",
        Source::Search(|s| s.scan.slots_examined),
    ),
    Row::counter(
        "ecosched_engine_scan_slots_admitted_total",
        "Slots admitted into candidate pools as they were read from the list since process start",
        Source::Search(|s| s.scan.slots_admitted),
    ),
    Row::counter(
        "ecosched_engine_scan_slots_expired_total",
        "Pooled slots the alternatives search found expired since process start (a wide AMP pool tests only the members it reads)",
        Source::Search(|s| s.scan.slots_expired),
    ),
    Row::counter(
        "ecosched_engine_scan_acceptance_tests_total",
        "Window acceptance tests evaluated on N live pool members since process start, pooled re-tests at a resume anchor included",
        Source::Search(|s| s.scan.acceptance_tests),
    ),
    Row::counter(
        "ecosched_engine_scan_windows_found_total",
        "Windows found by the alternatives search since process start",
        Source::Search(|s| s.scan.windows_found),
    ),
    Row::counter(
        "ecosched_engine_scan_passes_total",
        "Alternatives-search passes over the batch since process start",
        Source::Search(|s| s.passes),
    ),
    // -- the cycle optimizer's work, mirrored from the run report --------
    Row::counter(
        "ecosched_engine_opt_solves_total",
        "Combination-optimizer solves",
        Report(|s| s.report_so_far().opt.solves),
    ),
    Row::counter(
        "ecosched_engine_opt_rows_rebuilt_total",
        "DP rows built by the combination optimizer",
        Report(|s| s.report_so_far().opt.rows_rebuilt),
    ),
    Row::counter(
        "ecosched_engine_opt_frontier_rebuilt_total",
        "Pareto layers built by the exact sweep",
        Report(|s| s.report_so_far().opt.frontier_rebuilt),
    ),
    // -- postponements by typed reason, since process start --------------
    Row::counter(
        "ecosched_engine_postponed_total",
        "Jobs left unscheduled by a cycle or a repair pass since process start, by reason",
        Postponed,
    )
    .each("reason"),
    // -- which of a job's alternatives is ever used, likewise ------------
    Row::counter(
        "ecosched_engine_alternatives_offered_total",
        "Alternative windows the search found for cycle batches since process start",
        Source::Search(|s| s.windows_committed),
    ),
    Row::histogram(
        "ecosched_engine_alternative_chosen_index",
        "Position, in search order, of the alternative a cycle committed for a job",
        alternative_index_buckets,
        Chosen,
    ),
    Row::histogram(
        "ecosched_engine_alternative_failover_index",
        "Position, among a broken lease's surviving alternatives, of the one tier-1 failover adopted",
        alternative_index_buckets,
        Failover,
    ),
    // -- gauges ---------------------------------------------------------
    Row::gauge("ecosched_engine_backlog", "Pending jobs", Source::Step(|s| s.pending.len() as f64)),
    Row::gauge(
        "ecosched_engine_event_queue_depth",
        "Events waiting in the queue",
        Source::Step(|s| s.events_queued() as f64),
    ),
    Row::gauge(
        "ecosched_engine_active_leases",
        "Leases in flight",
        Source::Step(|s| s.active_leases() as f64),
    ),
    Row::gauge(
        "ecosched_engine_vacant_slots",
        "Vacant market slots",
        Source::Step(|s| s.vacant().len() as f64),
    ),
    Row::gauge(
        "ecosched_engine_virtual_time",
        "Last processed event tick",
        Source::Step(|s| s.last_time().ticks() as f64),
    ),
    Row::gauge(
        "ecosched_engine_utilization",
        "Busy node-ticks over published node-ticks so far",
        Source::Step(RunState::utilization),
    ),
    Row::gauge(
        "ecosched_engine_cycle_mean_wait",
        "Mean wait (ticks) of the jobs committed by the last cycle",
        Source::Cycle(|point, _| point.mean_wait),
    ),
    Row::gauge(
        "ecosched_engine_scan_pool_high_water",
        "Largest candidate pool any window search of the last cycle held, members not yet found expired included",
        Source::Cycle(|_, search| search.scan.pool_high_water as f64),
    ),
];

/// The engine family, registered for one engine instance.
#[derive(Debug)]
pub struct EngineIds(Table<Source>);

impl EngineIds {
    /// Registers the engine metric family, optionally labelled with a
    /// shard index (federation mode).
    #[must_use]
    pub fn register(b: &mut RegistryBuilder, shard: Option<u32>) -> EngineIds {
        let shard = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = shard.iter().map(|s| ("shard", s.as_str())).collect();
        EngineIds(Table::register(b, FAMILY, &labels, &POSTPONE_REASONS))
    }
}

impl Family for EngineIds {
    type Fact<'a> = Fact<'a>;

    /// Records one fact. A step raises every counter the checkpointed
    /// run report backs to the report's value (`events_total` to the
    /// log's length), so a run resumed in a new process reads as the
    /// whole run, like the federation's mirrored counters. A cycle also
    /// leaves a `cycle` span with `scan` / `optimize` / `commit`
    /// children, a repair pass a `repair` span.
    fn record(&self, rec: &Recorder, fact: Fact<'_>) {
        let slot = |reason| match reason {
            PostponeReason::NoAlternatives => 0,
            PostponeReason::AllAlternativesStale => 1,
            PostponeReason::RepairBudgetExhausted => 2,
        };
        self.0.record(rec, |source, index| match (*source, fact) {
            (Report(f), Fact::Step(s)) => Some(Value::RaiseTo(f(s))),
            (Source::Step(f), Fact::Step(s)) => Some(Value::Set(f(s))),
            (Source::Search(f), Fact::Cycle(_, plan)) => Some(Value::Add(f(&plan.search.stats))),
            (Source::Cycle(f), Fact::Cycle(point, plan)) => {
                Some(Value::Set(f(point, &plan.search.stats)))
            }
            (Postponed, Fact::Cycle(_, plan)) => (index == slot(PostponeReason::NoAlternatives))
                .then_some(Value::Add(plan.postponed.len() as u64)),
            (Postponed, Fact::Postponed(reason)) => {
                (index == slot(reason)).then_some(Value::Add(1))
            }
            (Chosen, Fact::Chosen(i)) | (Failover, Fact::Failover(i)) => {
                Some(Value::Observe(i as u64, 1))
            }
            _ => None,
        });
        match fact {
            Fact::Cycle(point, plan) => {
                let now = point.time;
                let cycle = rec.span(now, "cycle", None, point.batch_size as u64);
                rec.span(now, "scan", cycle, plan.search.stats.scan.slots_examined);
                rec.span(now, "optimize", cycle, plan.opt.solves);
                rec.span(now, "commit", cycle, point.scheduled as u64);
            }
            Fact::Repair(now, broken) => {
                rec.span(now, "repair", None, broken as u64);
            }
            _ => {}
        }
    }
}

/// A fresh registry holding the engine family alone (no shard label),
/// and the live handle on it.
#[must_use]
pub fn engine_obs() -> EngineObs {
    let mut b = RegistryBuilder::new();
    let ids = EngineIds::register(&mut b, None);
    EngineObs::new(Recorder::new(b.build()), ids)
}
