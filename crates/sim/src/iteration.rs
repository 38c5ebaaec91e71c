//! One scheduling iteration: alternatives search → VO limits → combination
//! optimization.
//!
//! This is the paper's two-stage scheme end to end. Jobs whose alternative
//! set comes back empty are postponed (reported, not optimized); the
//! remaining jobs are optimized under the configured criterion with the VO
//! limits derived from Eq. (2)/(3).
//!
//! Nothing is carried from one iteration to the next, as in the paper:
//! each call searches the list it is given and solves from that search's
//! alternatives alone. (Measured: the market changes under every job
//! between two engine cycles, and no optimizer row of one cycle was ever
//! still valid in the next — EXPERIMENTS.md E15.)

use std::borrow::Cow;

use ecosched_core::{Batch, CoreError, JobAlternatives, JobId, Money, SlotList, TimeDelta};
use ecosched_optimize::{time_quota, Assignment, IncrementalOptimizer, OptStats, OptimizeError};
use ecosched_select::{SearchOutcome, SlotSelector};
use serde::{Deserialize, Serialize};

use crate::config::reserved_key;

/// The VO-level optimization criterion for the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Criterion {
    /// `min T(s̄)` subject to `C(s̄) ≤ B*` (the paper's Fig. 4–5 task).
    #[default]
    MinTimeUnderBudget,
    /// `min C(s̄)` subject to `T(s̄) ≤ T*` (the paper's Fig. 6 task).
    MinCostUnderTime,
}

/// Configuration of a scheduling iteration: the paper's sequential
/// alternatives search, then the backward-run DP under `criterion`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterationConfig {
    /// The optimization criterion.
    pub criterion: Criterion,
}

/// Money levels of the backward-run DP: the budget is quantized into this
/// many steps.
const RESOLUTION_STEPS: u32 = 1500;

// Serde through a derived wire struct, which keeps the keys of the removed
// solver and search-traversal choices as reserved constants
// (`config::reserved_key`).
#[derive(Serialize)]
struct IterationConfigWire {
    criterion: Criterion,
    optimizer: ReservedOptimizer,    // reserved
    search_mode: ReservedSearchMode, // reserved
}

#[derive(PartialEq, Serialize, Deserialize)]
enum ReservedOptimizer {
    BackwardRun { resolution_steps: u32 },
}

#[derive(PartialEq, Serialize, Deserialize)]
enum ReservedSearchMode {
    Sequential,
}

const OPTIMIZER: ReservedOptimizer = ReservedOptimizer::BackwardRun {
    resolution_steps: RESOLUTION_STEPS,
};
const SEARCH_MODE: ReservedSearchMode = ReservedSearchMode::Sequential;

impl Serialize for IterationConfig {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.wire().write_json(out);
    }
}

impl IterationConfig {
    fn wire(&self) -> IterationConfigWire {
        IterationConfigWire {
            criterion: self.criterion,
            optimizer: OPTIMIZER,
            search_mode: SEARCH_MODE,
        }
    }
}

impl<'de> Deserialize<'de> for IterationConfig {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let mut criterion = None;
        parser.read_map(|parser, key| match key {
            "criterion" => parser.field(&mut criterion, key),
            "optimizer" => reserved_key(parser, key, &OPTIMIZER),
            "search_mode" => reserved_key(parser, key, &SEARCH_MODE),
            _ => parser.skip_value(),
        })?;
        Ok(IterationConfig {
            criterion: serde::required(criterion, "criterion")?,
        })
    }
}

/// The result of one scheduling iteration.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// The alternatives search outcome (alternatives, stats, leftover list).
    pub search: SearchOutcome,
    /// Eq. (2)'s time quota `T*` over the covered jobs (possibly relaxed —
    /// see [`IterationResult::quota_relaxed`]).
    pub quota: TimeDelta,
    /// Whether Eq. (2)'s quota had to be relaxed to the tightest feasible
    /// total time (its flooring can undercut the minimum — DESIGN.md).
    pub quota_relaxed: bool,
    /// Eq. (3)'s VO budget `B*` over the covered jobs (`None` when no job
    /// was covered).
    pub budget: Option<Money>,
    /// The optimized combination over the covered jobs (`None` when no job
    /// was covered).
    pub assignment: Option<Assignment>,
    /// Jobs postponed to the next iteration (no alternatives found).
    pub postponed: Vec<JobId>,
    /// Optimizer work counters for this iteration: solves answered, DP
    /// rows and Pareto layers built.
    pub opt: OptStats,
}

impl IterationResult {
    /// Returns `true` if every batch job got at least one alternative — the
    /// paper's precondition for counting an experiment.
    #[must_use]
    pub fn all_covered(&self) -> bool {
        self.postponed.is_empty()
    }
}

/// Errors from the iteration driver.
#[derive(Debug)]
pub enum IterationError {
    /// Slot subtraction failed (only possible with a misbehaving custom
    /// selector).
    Core(CoreError),
    /// The optimizer failed on a covered, feasible-looking instance.
    Optimize(OptimizeError),
}

impl std::fmt::Display for IterationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IterationError::Core(e) => write!(f, "slot bookkeeping failed: {e}"),
            IterationError::Optimize(e) => write!(f, "combination optimization failed: {e}"),
        }
    }
}

impl std::error::Error for IterationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IterationError::Core(e) => Some(e),
            IterationError::Optimize(e) => Some(e),
        }
    }
}

impl From<CoreError> for IterationError {
    fn from(e: CoreError) -> Self {
        IterationError::Core(e)
    }
}

impl From<OptimizeError> for IterationError {
    fn from(e: OptimizeError) -> Self {
        IterationError::Optimize(e)
    }
}

/// Runs one full scheduling iteration of `batch` over `list` with
/// `selector` (ALP/AMP/baseline) under `config`.
///
/// # Errors
///
/// Returns [`IterationError`] on slot-bookkeeping failures (impossible with
/// the built-in selectors) or optimizer failures that survive the fallback.
pub fn run_iteration(
    selector: impl SlotSelector,
    list: &SlotList,
    batch: &Batch,
    config: &IterationConfig,
) -> Result<IterationResult, IterationError> {
    let search = ecosched_select::find_alternatives(selector, list, batch)?;
    let postponed: Vec<JobId> = search.postponed().collect();
    // The optimizer wants the covered jobs as one slice: the search's own
    // table when nothing was postponed, a filtered copy otherwise.
    let per_job = search.alternatives.per_job();
    let covered: Cow<[JobAlternatives]> = if postponed.is_empty() {
        Cow::Borrowed(per_job)
    } else {
        per_job
            .iter()
            .filter(|ja| !ja.is_empty())
            .cloned()
            .collect()
    };

    if covered.is_empty() {
        return Ok(IterationResult {
            search,
            quota: TimeDelta::ZERO,
            quota_relaxed: false,
            budget: None,
            assignment: None,
            postponed,
            opt: OptStats::default(),
        });
    }

    // Eq. (2), relaxed to the tightest feasible total when flooring
    // undercuts it.
    let tightest: TimeDelta = covered
        .iter()
        .map(|ja| {
            ja.iter()
                .map(|a| a.time())
                .min()
                // invariant: `covered` holds only non-empty sets — the
                // partition above moved empty ones into `postponed`.
                .expect("covered jobs have alternatives")
        })
        .sum();
    let eq2 = time_quota(&covered);
    let (quota, quota_relaxed) = if eq2 < tightest {
        (tightest, true)
    } else {
        (eq2, false)
    };

    // Every iteration plans from its own alternatives: the optimizer is
    // fresh, so its counters are this iteration's work.
    let mut optimizer = IncrementalOptimizer::new();

    // Eq. (3).
    let budget = optimizer.vo_budget_with_quota(&covered, quota)?;

    let assignment = match config.criterion {
        Criterion::MinTimeUnderBudget => optimize_min_time(&mut optimizer, &covered, budget)?,
        Criterion::MinCostUnderTime => optimizer.min_cost_under_time(&covered, quota)?,
    };

    Ok(IterationResult {
        search,
        quota,
        quota_relaxed,
        budget: Some(budget),
        assignment: Some(assignment),
        postponed,
        opt: optimizer.stats(),
    })
}

fn optimize_min_time(
    optimizer: &mut IncrementalOptimizer,
    covered: &[JobAlternatives],
    budget: Money,
) -> Result<Assignment, OptimizeError> {
    let resolution = Money::from_micro((budget.micro() / i64::from(RESOLUTION_STEPS)).max(1));
    match optimizer.min_time_under_budget(covered, budget, resolution) {
        // Quantization can starve a feasible instance; the exact sweep
        // settles it.
        Err(OptimizeError::Infeasible) => optimizer.pareto_min_time_under_budget(covered, budget),
        solved => solved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{Job, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, Span, TimePoint};
    use ecosched_select::{Alp, Amp};

    fn slot(id: u64, node: u32, perf: f64, price: i64, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::from_f64(perf),
            Price::from_credits(price),
            Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
        )
        .unwrap()
    }

    fn job(id: u32, n: usize, t: i64, c: i64) -> Job {
        Job::new(
            JobId::new(id),
            ResourceRequest::new(n, TimeDelta::new(t), Perf::UNIT, Price::from_credits(c)).unwrap(),
        )
    }

    fn environment() -> SlotList {
        SlotList::from_slots(vec![
            slot(0, 0, 1.0, 2, 0, 600),
            slot(1, 1, 1.5, 3, 0, 600),
            slot(2, 2, 2.0, 4, 0, 600),
            slot(3, 3, 2.5, 6, 0, 600),
        ])
        .unwrap()
    }

    #[test]
    fn full_iteration_produces_feasible_assignment() {
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 4), job(1, 1, 80, 5)]).unwrap();
        let result = run_iteration(
            Amp::new(),
            &environment(),
            &batch,
            &IterationConfig::default(),
        )
        .unwrap();
        assert!(result.all_covered());
        let a = result.assignment.unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.total_cost() <= result.budget.unwrap());
    }

    #[test]
    fn cost_criterion_respects_quota() {
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 4), job(1, 1, 80, 5)]).unwrap();
        let config = IterationConfig {
            criterion: Criterion::MinCostUnderTime,
        };
        let result = run_iteration(Amp::new(), &environment(), &batch, &config).unwrap();
        let a = result.assignment.unwrap();
        assert!(a.total_time() <= result.quota);
    }

    #[test]
    fn uncovered_jobs_are_postponed_not_fatal() {
        // Second job wants 9 nodes — impossible in a 4-node environment.
        let batch = Batch::from_jobs(vec![job(0, 1, 50, 5), job(1, 9, 50, 5)]).unwrap();
        let result = run_iteration(
            Alp::new(),
            &environment(),
            &batch,
            &IterationConfig::default(),
        )
        .unwrap();
        assert_eq!(result.postponed, vec![JobId::new(1)]);
        assert!(!result.all_covered());
        // The covered job is still optimized.
        assert_eq!(result.assignment.unwrap().len(), 1);
    }

    #[test]
    fn fully_uncovered_batch_yields_no_assignment() {
        let batch = Batch::from_jobs(vec![job(0, 9, 50, 5)]).unwrap();
        let result = run_iteration(
            Alp::new(),
            &environment(),
            &batch,
            &IterationConfig::default(),
        )
        .unwrap();
        assert!(result.assignment.is_none());
        assert!(result.budget.is_none());
        assert_eq!(result.postponed.len(), 1);
    }

    #[test]
    fn the_dp_reaches_the_exact_sweeps_optimum_time() {
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 4), job(1, 1, 80, 5)]).unwrap();
        let dp = run_iteration(
            Amp::new(),
            &environment(),
            &batch,
            &IterationConfig::default(),
        )
        .unwrap();
        let exact = IncrementalOptimizer::new()
            .pareto_min_time_under_budget(dp.search.alternatives.per_job(), dp.budget.unwrap())
            .unwrap();
        // At the iteration's resolution the DP reaches the optimum time.
        assert_eq!(dp.assignment.unwrap().total_time(), exact.total_time());
    }

    #[test]
    fn quota_relaxation_engages_when_eq2_undercuts() {
        // One job, two identical tiny alternatives of time 3 →
        // T* = ⌊3/2⌋+⌊3/2⌋ = 2 < 3 → relaxed to 3.
        let list =
            SlotList::from_slots(vec![slot(0, 0, 1.0, 1, 0, 6), slot(1, 1, 1.0, 1, 0, 6)]).unwrap();
        let batch = Batch::from_jobs(vec![job(0, 1, 3, 2)]).unwrap();
        let result = run_iteration(
            Alp::new(),
            &list,
            &batch,
            &IterationConfig {
                criterion: Criterion::MinCostUnderTime,
            },
        )
        .unwrap();
        assert!(result.quota_relaxed);
        assert_eq!(result.quota, TimeDelta::new(3));
        assert!(result.assignment.is_some());
    }

    #[test]
    fn error_display_chains() {
        let err = IterationError::from(OptimizeError::Infeasible);
        assert!(format!("{err}").contains("optimization failed"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
