//! The backward-run dynamic program (Eq. (1) of the paper).
//!
//! The scheme of ref. \[2\], as summarized in Sec. 2: for jobs `i = n…1` and
//! admissible resource totals `Z_i`, compute
//!
//! ```text
//! f_i(Z_i) = extr { g_i(s̄_i) + f_{i+1}(Z_i − z_i(s̄_i)) },   f_{n+1} ≡ 0
//! ```
//!
//! where `g` is the optimized measure (time or cost) and `z` the
//! constrained one. Time is naturally integral (ticks); money is quantized
//! to a caller-chosen resolution, rounding each alternative's cost *up* so
//! a DP-feasible combination is always truly within budget.
//!
//! This module holds the *from-scratch* drivers, retained as `*_naive`
//! oracles (mirroring `select`'s pattern), plus the row-level primitives
//! shared with [`crate::incremental`]. Because both paths build rows with
//! the same [`compute_row`]/[`extend_row`] code and reconstruct with the
//! same [`reconstruct_choices`], the incremental solvers are byte-identical
//! to the naive ones by construction — the differential harness in
//! `tests/equivalence.rs` checks exactly that.

use ecosched_core::{JobAlternatives, Money, TimeDelta};

use crate::assignment::Assignment;
use crate::error::OptimizeError;

/// One alternative reduced to DP terms: a constrained-resource weight and
/// an objective value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Item {
    pub(crate) weight: i64,
    pub(crate) value: i64,
}

/// Sense of the extremum in Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sense {
    Minimize,
    Maximize,
}

/// One cell of Eq. (1): the extremum over this job's alternatives of
/// `value + f[i+1][w - weight]`. A pure function of its arguments, which
/// is what makes row extension sound.
fn row_cell(items: &[Item], next: &[Option<i64>], w: usize, sense: Sense) -> Option<i64> {
    let mut best: Option<i64> = None;
    for item in items {
        if item.weight > w as i64 {
            continue;
        }
        let Some(rest) = next[w - item.weight as usize] else {
            continue;
        };
        let candidate = item.value + rest;
        best = Some(match (best, sense) {
            (None, _) => candidate,
            (Some(b), Sense::Minimize) => b.min(candidate),
            (Some(b), Sense::Maximize) => b.max(candidate),
        });
    }
    best
}

/// Extends `row` (row `i` of the table) in place up to column `width`,
/// computing each new column from the *already extended* next row
/// (`f[i+1]`). Starting from an empty `row` this builds the whole row.
///
/// Soundness of extension: `f[i][w]` reads `next` only at columns `≤ w`,
/// and each cell is a pure function of `items` and `next` — so appending
/// columns to an existing row yields exactly the row a from-scratch build
/// at the wider capacity would produce. Callers must extend rows back to
/// front so `next` is always at full width first.
pub(crate) fn extend_row(
    items: &[Item],
    next: &[Option<i64>],
    row: &mut Vec<Option<i64>>,
    width: usize,
    sense: Sense,
) {
    debug_assert!(next.len() > width, "next row must already span the width");
    row.extend((row.len()..=width).map(|w| row_cell(items, next, w, sense)));
}

/// Builds row `i` of the table (columns `0..=width`) from the next row.
pub(crate) fn compute_row(
    items: &[Item],
    next: &[Option<i64>],
    width: usize,
    sense: Sense,
) -> Vec<Option<i64>> {
    let mut row = Vec::with_capacity(width + 1);
    extend_row(items, next, &mut row, width, sense);
    row
}

/// Forward reconstruction over a full set of rows (`rows[n]` is the base
/// `f_{n+1} ≡ 0` row): at each job pick the first alternative achieving the
/// table optimum (first hit → deterministic). Returns `None` when
/// `rows[0][cap]` is infeasible.
pub(crate) fn reconstruct_choices(
    items: &[Vec<Item>],
    rows: &[&[Option<i64>]],
    cap: usize,
) -> Option<Vec<usize>> {
    rows[0][cap]?;
    let n = items.len();
    let mut choices = Vec::with_capacity(n);
    let mut w = cap;
    for i in 0..n {
        let target = rows[i][w].expect("reconstruction follows feasible states");
        let mut picked = None;
        for (j, item) in items[i].iter().enumerate() {
            if item.weight > w as i64 {
                continue;
            }
            if let Some(rest) = rows[i + 1][w - item.weight as usize] {
                if item.value + rest == target {
                    picked = Some((j, item.weight as usize));
                    break;
                }
            }
        }
        let (j, used) = picked.expect("feasible table states have a witness");
        choices.push(j);
        w -= used;
    }
    Some(choices)
}

/// Solves the backward run over `items` with total weight ≤ `capacity`.
/// Returns the chosen per-job indices, or `None` when infeasible.
fn backward_run(items: &[Vec<Item>], capacity: i64, sense: Sense) -> Option<Vec<usize>> {
    if capacity < 0 {
        return None;
    }
    let n = items.len();
    let cap = capacity as usize;
    let base: Vec<Option<i64>> = vec![Some(0); cap + 1];
    // Rows built back to front; `computed` holds them in reverse order.
    let mut computed: Vec<Vec<Option<i64>>> = Vec::with_capacity(n);
    for i in (0..n).rev() {
        let next = computed.last().unwrap_or(&base);
        let row = compute_row(&items[i], next, cap, sense);
        computed.push(row);
    }
    computed.reverse();
    let mut rows: Vec<&[Option<i64>]> = computed.iter().map(Vec::as_slice).collect();
    rows.push(&base);
    reconstruct_choices(items, &rows, cap)
}

/// Validates the alternatives table: non-empty, and every job covered.
pub(crate) fn validate(alternatives: &[JobAlternatives]) -> Result<(), OptimizeError> {
    if alternatives.is_empty() {
        return Err(OptimizeError::EmptyBatch);
    }
    for ja in alternatives {
        if ja.is_empty() {
            return Err(OptimizeError::NoAlternatives { job: ja.job() });
        }
    }
    Ok(())
}

/// Rounds `cost` up to `resolution` units.
pub(crate) fn quantize_up(cost: Money, resolution: Money) -> i64 {
    let r = resolution.micro();
    (cost.micro() + r - 1) / r
}

/// Reduces a table to time-axis DP terms: weight = execution time (ticks),
/// value = cost (micro-credits). Used by both cost-extremum solvers.
pub(crate) fn time_axis_items(alternatives: &[JobAlternatives]) -> Vec<Vec<Item>> {
    alternatives
        .iter()
        .map(|ja| {
            ja.iter()
                .map(|alt| Item {
                    weight: alt.time().ticks(),
                    value: alt.cost().micro(),
                })
                .collect()
        })
        .collect()
}

/// Reduces a table to cost-axis DP terms: weight = cost quantized *up* to
/// `resolution` units, value = execution time (ticks). Used by the
/// time-minimization solver.
pub(crate) fn cost_axis_items(
    alternatives: &[JobAlternatives],
    resolution: Money,
) -> Vec<Vec<Item>> {
    alternatives
        .iter()
        .map(|ja| {
            ja.iter()
                .map(|alt| Item {
                    weight: quantize_up(alt.cost(), resolution),
                    value: alt.time().ticks(),
                })
                .collect()
        })
        .collect()
}

/// Checks the `resolution` parameter of the time-minimization task.
pub(crate) fn validate_resolution(resolution: Money) -> Result<(), OptimizeError> {
    if resolution <= Money::ZERO {
        return Err(OptimizeError::InvalidParameter {
            reason: format!("resolution must be positive, got {resolution}"),
        });
    }
    Ok(())
}

/// Checks the `quota` parameter of the cost-extremum tasks.
pub(crate) fn validate_quota(quota: TimeDelta) -> Result<(), OptimizeError> {
    if !quota.is_positive() {
        return Err(OptimizeError::InvalidParameter {
            reason: format!("time quota must be positive, got {quota}"),
        });
    }
    Ok(())
}

/// From-scratch oracle for [`crate::min_time_under_budget`]: minimizes
/// total batch time `T(s̄)` subject to the budget `C(s̄) ≤ B*` (the paper's
/// Sec. 5 *time-minimization* task), rebuilding the full DP table.
///
/// Money is quantized to `resolution`; each alternative's cost rounds up,
/// so the returned assignment always truly satisfies the budget, at the
/// price of possibly missing combinations within `n · resolution` of it.
///
/// # Errors
///
/// * [`OptimizeError::EmptyBatch`] / [`OptimizeError::NoAlternatives`] on a
///   malformed table;
/// * [`OptimizeError::InvalidParameter`] if `resolution` is not positive;
/// * [`OptimizeError::Infeasible`] if no combination fits the budget.
pub fn min_time_under_budget_naive(
    alternatives: &[JobAlternatives],
    budget: Money,
    resolution: Money,
) -> Result<Assignment, OptimizeError> {
    validate(alternatives)?;
    validate_resolution(resolution)?;
    let items = cost_axis_items(alternatives, resolution);
    let capacity = budget.micro() / resolution.micro();
    let choices =
        backward_run(&items, capacity, Sense::Minimize).ok_or(OptimizeError::Infeasible)?;
    Ok(Assignment::from_indices(alternatives, &choices))
}

/// From-scratch oracle for [`crate::min_cost_under_time`]: minimizes total
/// batch cost `C(s̄)` subject to the time quota `T(s̄) ≤ T*` (the paper's
/// Sec. 5 *cost-minimization* task). Exact: time is already integral.
///
/// # Errors
///
/// See [`min_time_under_budget_naive`]; there is no resolution parameter.
pub fn min_cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    cost_under_time_naive(alternatives, quota, Sense::Minimize)
}

/// From-scratch oracle for [`crate::max_cost_under_time`]: maximizes the
/// total batch cost (the resource owners' income) subject to the time quota
/// — Eq. (3)'s inner optimization, used to derive the VO budget `B*`.
///
/// # Errors
///
/// See [`min_time_under_budget_naive`].
pub fn max_cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    cost_under_time_naive(alternatives, quota, Sense::Maximize)
}

fn cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
    sense: Sense,
) -> Result<Assignment, OptimizeError> {
    validate(alternatives)?;
    validate_quota(quota)?;
    let items = time_axis_items(alternatives);
    let choices = backward_run(&items, quota.ticks(), sense).ok_or(OptimizeError::Infeasible)?;
    Ok(Assignment::from_indices(alternatives, &choices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::alts;

    #[test]
    fn min_cost_prefers_cheap_within_quota() {
        // Job 0: (cost 10, time 10) or (cost 2, time 40).
        // Job 1: (cost 8, time 10) or (cost 3, time 30).
        let table = vec![alts(0, &[(10, 10), (2, 40)]), alts(1, &[(8, 10), (3, 30)])];
        // Loose quota: take both cheap ones.
        let a = min_cost_under_time_naive(&table, TimeDelta::new(100)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(5));
        // Tight quota 50: cheap+cheap needs 70 → must mix; the cheapest
        // feasible mix is (2,40)+(8,10) = cost 10 at exactly 50 ticks.
        let a = min_cost_under_time_naive(&table, TimeDelta::new(50)).unwrap();
        assert_eq!(a.total_time().ticks(), 50);
        assert_eq!(a.total_cost(), Money::from_credits(2 + 8));
        // Quota 45 rules that out; best becomes (10,10)+(3,30) = 13.
        let a = min_cost_under_time_naive(&table, TimeDelta::new(45)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(10 + 3));
    }

    #[test]
    fn min_time_spends_budget_for_speed() {
        let table = vec![alts(0, &[(10, 10), (2, 40)]), alts(1, &[(8, 10), (3, 30)])];
        let res = Money::from_credits(1);
        // Rich budget: both fast.
        let a = min_time_under_budget_naive(&table, Money::from_credits(18), res).unwrap();
        assert_eq!(a.total_time(), TimeDelta::new(20));
        // Budget 13: fast+cheap (10+3) time 40, or cheap+fast (2+8) time 50.
        let a = min_time_under_budget_naive(&table, Money::from_credits(13), res).unwrap();
        assert_eq!(a.total_time(), TimeDelta::new(40));
        assert_eq!(a.total_cost(), Money::from_credits(13));
    }

    #[test]
    fn max_cost_maximizes_owner_income() {
        let table = vec![alts(0, &[(10, 10), (2, 40)]), alts(1, &[(8, 10), (3, 30)])];
        let a = max_cost_under_time_naive(&table, TimeDelta::new(100)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(18));
        // Tight quota forces a cheaper mix even when maximizing.
        let a = max_cost_under_time_naive(&table, TimeDelta::new(40)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(18));
        let a = max_cost_under_time_naive(&table, TimeDelta::new(25)).unwrap();
        assert_eq!(a.total_time().ticks(), 20);
    }

    #[test]
    fn infeasible_quota_reports_error() {
        let table = vec![alts(0, &[(1, 50)])];
        assert_eq!(
            min_cost_under_time_naive(&table, TimeDelta::new(49)).unwrap_err(),
            OptimizeError::Infeasible
        );
    }

    #[test]
    fn infeasible_budget_reports_error() {
        let table = vec![alts(0, &[(10, 10)])];
        assert_eq!(
            min_time_under_budget_naive(&table, Money::from_credits(9), Money::from_credits(1))
                .unwrap_err(),
            OptimizeError::Infeasible
        );
    }

    #[test]
    fn empty_and_uncovered_tables_rejected() {
        assert_eq!(
            min_cost_under_time_naive(&[], TimeDelta::new(10)).unwrap_err(),
            OptimizeError::EmptyBatch
        );
        let table = vec![alts(0, &[]), alts(1, &[(1, 1)])];
        assert!(matches!(
            min_cost_under_time_naive(&table, TimeDelta::new(10)).unwrap_err(),
            OptimizeError::NoAlternatives { .. }
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let table = vec![alts(0, &[(1, 1)])];
        assert!(matches!(
            min_time_under_budget_naive(&table, Money::from_credits(1), Money::ZERO).unwrap_err(),
            OptimizeError::InvalidParameter { .. }
        ));
        assert!(matches!(
            min_cost_under_time_naive(&table, TimeDelta::ZERO).unwrap_err(),
            OptimizeError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn quantization_never_violates_budget() {
        // Costs 3.4 and 3.4, budget 7, coarse resolution 2 credits:
        // each quantizes up to 2 units (4 credits), capacity 3 units →
        // together 4 units > 3 → infeasible under quantization even though
        // 6.8 ≤ 7. Conservative, never over budget.
        let table = vec![
            alts_micro(0, &[(3_400_000, 10)]),
            alts_micro(1, &[(3_400_000, 10)]),
        ];
        let result =
            min_time_under_budget_naive(&table, Money::from_credits(7), Money::from_credits(2));
        assert_eq!(result.unwrap_err(), OptimizeError::Infeasible);
        // Fine resolution finds it.
        let a =
            min_time_under_budget_naive(&table, Money::from_credits(7), Money::from_micro(100_000))
                .unwrap();
        assert!(a.total_cost() <= Money::from_credits(7));
    }

    #[test]
    fn single_job_single_alternative() {
        let table = vec![alts(0, &[(5, 20)])];
        let a = min_cost_under_time_naive(&table, TimeDelta::new(20)).unwrap();
        assert_eq!(a.choices()[0].alternative, 0);
        assert_eq!(a.total_time(), TimeDelta::new(20));
    }

    #[test]
    fn extended_row_matches_from_scratch_build() {
        let items = vec![
            Item {
                weight: 3,
                value: 7,
            },
            Item {
                weight: 5,
                value: 2,
            },
        ];
        let base_small: Vec<Option<i64>> = vec![Some(0); 9];
        let base_big: Vec<Option<i64>> = vec![Some(0); 21];
        for sense in [Sense::Minimize, Sense::Maximize] {
            let mut grown = compute_row(&items, &base_small, 8, sense);
            extend_row(&items, &base_big, &mut grown, 20, sense);
            let scratch = compute_row(&items, &base_big, 20, sense);
            assert_eq!(grown, scratch);
        }
    }

    /// Like `alts` but with micro-credit cost precision.
    fn alts_micro(job: u32, specs: &[(i64, i64)]) -> ecosched_core::JobAlternatives {
        crate::test_support::alts_with(job, specs, Money::from_micro)
    }
}
