//! The two stages of one scheduling iteration, called through the
//! layers' public functions so each stage can be timed on its own.
//!
//! This follows `ecosched_sim::run_iteration` under its default
//! configuration (sequential search, time minimization, backward-run DP
//! at 1 500 money levels); `paper_study` checks on every traced
//! iteration that the two agree.

use std::borrow::Cow;

use ecosched::core::{Batch, JobAlternatives, Money, SlotList, TimeDelta};
use ecosched::optimize::{time_quota, Assignment, IncrementalOptimizer, OptimizeError};
use ecosched::select::{find_alternatives, SearchOutcome, SlotSelector};

use crate::harness::Recorder;

/// Money levels of the backward-run DP (`OptimizerKind::default()`).
pub const RESOLUTION_STEPS: i64 = 1500;

/// The jobs the search covered, in batch order: borrowed when that is
/// every job, so that the common case copies nothing.
pub fn covered(search: &SearchOutcome) -> Cow<'_, [JobAlternatives]> {
    let per_job = search.alternatives.per_job();
    if per_job.iter().all(|ja| !ja.is_empty()) {
        Cow::Borrowed(per_job)
    } else {
        Cow::Owned(
            per_job
                .iter()
                .filter(|ja| !ja.is_empty())
                .cloned()
                .collect(),
        )
    }
}

/// Eq. (2) relaxed to the tightest feasible total, as the iteration
/// driver does when flooring undercuts it.
pub fn relaxed_quota(covered: &[JobAlternatives]) -> TimeDelta {
    let tightest: TimeDelta = covered
        .iter()
        .map(|ja| {
            ja.iter()
                .map(|a| a.time())
                .min()
                .expect("covered jobs have alternatives")
        })
        .sum();
    time_quota(covered).max(tightest)
}

/// `min T` under `B*` at [`RESOLUTION_STEPS`] money levels, with the
/// exact Pareto sweep settling instances that quantization starves.
pub fn min_time(
    optimizer: &mut IncrementalOptimizer,
    covered: &[JobAlternatives],
    budget: Money,
) -> Result<Assignment, OptimizeError> {
    let resolution = Money::from_micro((budget.micro() / RESOLUTION_STEPS).max(1));
    match optimizer.min_time_under_budget(covered, budget, resolution) {
        Err(OptimizeError::Infeasible) => optimizer.pareto_min_time_under_budget(covered, budget),
        other => other,
    }
}

/// Eq. (2), Eq. (3), then the time-minimizing combination.
pub fn solve(
    optimizer: &mut IncrementalOptimizer,
    covered: &[JobAlternatives],
) -> Result<Assignment, OptimizeError> {
    let quota = relaxed_quota(covered);
    let budget = optimizer.vo_budget_with_quota(covered, quota)?;
    min_time(optimizer, covered, budget)
}

/// Searches `batch` on `market` inside a `select.scan` span and records
/// the scan's work counters.
pub fn traced_search(
    rec: &mut Recorder,
    selector: impl SlotSelector,
    market: &SlotList,
    batch: &Batch,
) -> SearchOutcome {
    let search = rec
        .span("select.scan_ms", || {
            find_alternatives(selector, market, batch)
        })
        .expect("the built-in selectors cannot fail slot bookkeeping");
    let scan = &search.stats.scan;
    rec.add("select.slots_examined", scan.slots_examined as f64);
    rec.add("select.groups_scanned", scan.groups_scanned as f64);
    rec.add("select.windows_found", scan.windows_found as f64);
    rec.add("select.checkpoint_hits", scan.checkpoint_hits as f64);
    rec.add(
        "select.alternatives",
        search.alternatives.total_found() as f64,
    );
    rec.add("select.jobs", batch.len() as f64);
    search
}

/// Runs [`solve`] on a search's covered jobs inside an
/// `optimize.solve` span and records the optimizer's row counters.
pub fn traced_solve(
    rec: &mut Recorder,
    optimizer: &mut IncrementalOptimizer,
    covered: &[JobAlternatives],
) -> Option<Assignment> {
    if covered.is_empty() {
        return None;
    }
    let before = optimizer.stats();
    let solved = rec.span("optimize.solve_ms", || solve(optimizer, covered));
    let work = optimizer.stats().delta_since(&before);
    rec.add("optimize.rows_rebuilt", work.rows_rebuilt as f64);
    rec.add("optimize.rows_reused", work.rows_reused as f64);
    solved.ok()
}

/// Sets the ratios that are quotients of summed counters.
pub fn derive_ratios(rec: &mut Recorder) {
    let jobs = rec.sum("select.jobs");
    if jobs > 0.0 {
        rec.set(
            "select.alternatives_per_job",
            rec.sum("select.alternatives") / jobs,
        );
    }
    let rows = rec.sum("optimize.rows_rebuilt") + rec.sum("optimize.rows_reused");
    if rows > 0.0 {
        rec.set(
            "optimize.reuse_ratio",
            rec.sum("optimize.rows_reused") / rows,
        );
    }
}
