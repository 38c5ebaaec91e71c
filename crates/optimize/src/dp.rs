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
//! the same [`build_row`] and reconstruct with the same
//! [`reconstruct_choices`], the incremental solvers are byte-identical
//! to the naive ones by construction — the differential harness in
//! `tests/equivalence.rs` checks exactly that.
//!
//! # The row kernel
//!
//! A row is a flat `Vec<i64>`, one cell per capacity `0..=width`. A cell
//! no combination reaches holds the sense's sentinel ([`Sense::unreachable`],
//! `±2^62`) instead of being an `Option`; [`validate_items`] bounds every
//! real partial sum below `2^61` once per solve, so "unreachable" is one
//! magnitude comparison ([`reachable`]) and no row sum can wrap. A row is
//! filled item-major ([`fold_items`]): one branch-free pass per item over
//! two contiguous slices. Before the passes the job's items are reduced
//! to their non-dominated set ([`non_dominated`]) — exact because table
//! rows are monotone in `w`, see there. Only the cell *values* go through
//! the reduced list: [`reconstruct_choices`] and the memo's comparison
//! of questions read the job's full item list in its original order, so
//! which alternative wins a tie is unchanged. The definition itself —
//! one `Option` cell at a time — survives as the test-only oracle
//! `row_cell`, which the property tests below hold the kernel to.

use std::cmp::Ordering;

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

/// Every real cell value is smaller than this in magnitude
/// ([`validate_items`] bounds `Σ_i max_j |value_ij|` by it), and every
/// unreachable cell is at least this large — so reachability is one
/// comparison on the cell, for either sense.
const BAND: i64 = 1 << 61;

impl Sense {
    /// The "unreachable" cell: the extremum's identity, `±2^62`. Adding a
    /// job's value to it moves it by less than [`BAND`] in total over a
    /// whole table, so it stays outside `(-BAND, BAND)`, never wraps, and
    /// loses every comparison against a real cell — which is what lets
    /// the row passes run without a branch on reachability.
    pub(crate) const fn unreachable(self) -> i64 {
        match self {
            Sense::Minimize => 1 << 62,
            Sense::Maximize => -(1 << 62),
        }
    }

    /// Orders two objective values, the better one first.
    fn rank(self, a: i64, b: i64) -> Ordering {
        match self {
            Sense::Minimize => a.cmp(&b),
            Sense::Maximize => b.cmp(&a),
        }
    }
}

/// Whether `cell` holds a real optimum rather than an "unreachable" mark
/// (the exact sentinel or a sentinel shifted by item values).
pub(crate) fn reachable(cell: i64) -> bool {
    cell.unsigned_abs() < BAND as u64
}

/// One job's items minus every item that another one dominates (no
/// lighter and no better, or equal), lightest first.
///
/// Dropping dominated items is exact, not a cap. `f_i(w)` is an extremum
/// over a feasible set that only grows with `w`, and `f_{n+1} ≡ 0`, so
/// every row is monotone in `w` (never worse to the right, unreachable
/// cells forming a prefix). If `a` is no heavier and no worse than `b`,
/// then `next[w − a.weight]` is no worse than `next[w − b.weight]`, so
/// `a`'s candidate is no worse than `b`'s in every cell `b` reaches.
fn non_dominated(items: &[Item], sense: Sense) -> Vec<Item> {
    let mut kept = items.to_vec();
    // Lightest first, the best value first among equals: an item survives
    // the sweep only if it beats everything no heavier than itself.
    kept.sort_unstable_by(|a, b| a.weight.cmp(&b.weight).then(sense.rank(a.value, b.value)));
    let mut best: Option<i64> = None;
    kept.retain(|item| {
        let improves = best.is_none_or(|b| sense.rank(item.value, b).is_lt());
        if improves {
            best = Some(item.value);
        }
        improves
    });
    kept
}

/// One item's pass over a row: `cells[k] = extr(cells[k], value +
/// rests[k])`, compiled once per extremum so the loop body has no branch.
fn fold_pass(cells: &mut [i64], rests: &[i64], value: i64, extr: impl Fn(i64, i64) -> i64) {
    for (cell, &rest) in cells.iter_mut().zip(rests) {
        *cell = extr(*cell, value + rest);
    }
}

/// Fills `row` with columns `0..=width` of the extremum over `items` of
/// `value + next[w − weight]`, item-major: the first item that fits writes
/// the row (the sentinel left of its weight), and each further one folds
/// itself in with one pass of `row[w] = extr(row[w], value + next[w −
/// weight])` over two contiguous slices — no `Option`, no branch per cell
/// (see [`Sense::unreachable`]). Exact for any `next` and any item list.
/// Whatever `row` held is dropped; its allocation is kept.
fn fold_items(items: &[Item], next: &[i64], row: &mut Vec<i64>, width: usize, sense: Sense) {
    debug_assert!(next.len() > width, "next row must span the width");
    row.clear();
    row.reserve(width + 1);
    for item in items.iter().filter(|item| item.weight <= width as i64) {
        let weight = item.weight as usize;
        let rests = &next[..=width - weight];
        if row.is_empty() {
            row.resize(weight, sense.unreachable());
            row.extend(rests.iter().map(|&rest| item.value + rest));
            continue;
        }
        let cells = &mut row[weight..];
        match sense {
            Sense::Minimize => fold_pass(cells, rests, item.value, i64::min),
            Sense::Maximize => fold_pass(cells, rests, item.value, i64::max),
        }
    }
    // No item fits: every column is unreachable.
    row.resize(width + 1, sense.unreachable());
}

/// Builds row `i` of the table (columns `0..=width`) into `row` from the
/// next row (`f[i+1]`), which must be a row of the table (monotone in
/// `w`): that is what [`non_dominated`] rests on.
pub(crate) fn build_row(
    items: &[Item],
    next: &[i64],
    row: &mut Vec<i64>,
    width: usize,
    sense: Sense,
) {
    fold_items(&non_dominated(items, sense), next, row, width, sense);
}

/// Forward reconstruction over a full set of rows (`rows[n]` is the base
/// `f_{n+1} ≡ 0` row): at each job pick the first alternative achieving the
/// table optimum (first hit → deterministic). It scans the job's *full*
/// item list in its original order, not the kernel's reduced one, so ties
/// — including a dominated twin listed before the item that built the
/// cell — resolve exactly as a cell-by-cell build would. Returns `None`
/// when `rows[0][cap]` is infeasible.
pub(crate) fn reconstruct_choices(
    items: &[Vec<Item>],
    rows: &[&[i64]],
    cap: usize,
) -> Option<Vec<usize>> {
    if !reachable(rows[0][cap]) {
        return None;
    }
    let n = items.len();
    let mut choices = Vec::with_capacity(n);
    let mut w = cap;
    for i in 0..n {
        let target = rows[i][w];
        debug_assert!(reachable(target), "reconstruction follows feasible states");
        let (j, used) = items[i]
            .iter()
            .enumerate()
            .find_map(|(j, item)| {
                if item.weight > w as i64 {
                    return None;
                }
                let used = item.weight as usize;
                let rest = rows[i + 1][w - used];
                (reachable(rest) && item.value + rest == target).then_some((j, used))
            })
            .expect("feasible table states have a witness");
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
    let base = vec![0i64; cap + 1];
    // Rows built back to front; `computed` holds them in reverse order.
    let mut computed: Vec<Vec<i64>> = Vec::with_capacity(n);
    for i in (0..n).rev() {
        let next = computed.last().unwrap_or(&base);
        let mut row = Vec::new();
        build_row(&items[i], next, &mut row, cap, sense);
        computed.push(row);
    }
    computed.reverse();
    let mut rows: Vec<&[i64]> = computed.iter().map(Vec::as_slice).collect();
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

/// Checks that the flat-row kernel can represent the table: no negative
/// weight (a column index), and `Σ_i max_j |value_ij|` — a bound on every
/// partial sum a cell can hold — inside the band that separates real
/// cells from unreachable ones, so no row sum can wrap.
pub(crate) fn validate_items(items: &[Vec<Item>]) -> Result<(), OptimizeError> {
    let mut total: u64 = 0;
    for job in items {
        if let Some(item) = job.iter().find(|item| item.weight < 0) {
            return Err(OptimizeError::InvalidParameter {
                reason: format!("negative constrained measure {}", item.weight),
            });
        }
        let peak = job.iter().map(|item| item.value.unsigned_abs()).max();
        total = total.saturating_add(peak.unwrap_or(0));
    }
    if total >= BAND as u64 {
        return Err(OptimizeError::InvalidParameter {
            reason: format!(
                "objective values sum to {total} in magnitude; the optimizer needs less than 2^61"
            ),
        });
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

/// From-scratch oracle for [`crate::min_time_under_budget`]: the same
/// answer and the same errors, rebuilding the full DP table on every call.
///
/// # Errors
///
/// See [`crate::min_time_under_budget`].
#[doc(hidden)]
pub fn min_time_under_budget_naive(
    alternatives: &[JobAlternatives],
    budget: Money,
    resolution: Money,
) -> Result<Assignment, OptimizeError> {
    validate(alternatives)?;
    validate_resolution(resolution)?;
    let items = cost_axis_items(alternatives, resolution);
    validate_items(&items)?;
    let capacity = budget.micro() / resolution.micro();
    let choices =
        backward_run(&items, capacity, Sense::Minimize).ok_or(OptimizeError::Infeasible)?;
    Ok(Assignment::from_indices(alternatives, &choices))
}

/// From-scratch oracle for [`crate::min_cost_under_time`]: the same answer
/// and the same errors, rebuilding the full DP table on every call.
///
/// # Errors
///
/// See [`crate::min_cost_under_time`].
#[doc(hidden)]
pub fn min_cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    cost_under_time_naive(alternatives, quota, Sense::Minimize)
}

/// From-scratch oracle for [`crate::max_cost_under_time`]: the same answer
/// and the same errors, rebuilding the full DP table on every call.
///
/// # Errors
///
/// See [`crate::max_cost_under_time`].
#[doc(hidden)]
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
    validate_items(&items)?;
    let choices = backward_run(&items, quota.ticks(), sense).ok_or(OptimizeError::Infeasible)?;
    Ok(Assignment::from_indices(alternatives, &choices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::alts;
    use proptest::prelude::*;

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
    fn value_sums_up_to_the_sentinel_band_solve_exactly() {
        // Σ_i max_j |value_ij| = 2^61 − 1, the largest table the rows hold.
        let half = 1i64 << 60;
        let table = vec![
            alts_micro(0, &[(half, 10), (1, 50)]),
            alts_micro(1, &[(half - 1, 10), (2, 50)]),
        ];
        let quota = TimeDelta::new(60);
        let dearest = max_cost_under_time_naive(&table, quota).unwrap();
        assert_eq!(dearest.total_cost(), Money::from_micro(2 * half - 1));
        assert_eq!(dearest, crate::max_cost_under_time(&table, quota).unwrap());
        let cheapest = min_cost_under_time_naive(&table, quota).unwrap();
        assert_eq!(cheapest.total_cost(), Money::from_micro(half));
        assert_eq!(cheapest.total_time(), quota);
        assert_eq!(cheapest, crate::min_cost_under_time(&table, quota).unwrap());
    }

    #[test]
    fn value_sums_in_the_sentinel_band_are_refused_not_wrapped() {
        let half = 1i64 << 60;
        let quota = TimeDelta::new(60);
        // 2^61 exactly: one past the bound. 2^63: the sum that used to wrap.
        for value in [half, 1 << 62] {
            let table = vec![
                alts_micro(0, &[(value, 10), (1, 50)]),
                alts_micro(1, &[(value, 10), (2, 50)]),
            ];
            let mut warm = crate::IncrementalOptimizer::new();
            for result in [
                min_cost_under_time_naive(&table, quota),
                max_cost_under_time_naive(&table, quota),
                warm.min_cost_under_time(&table, quota),
                warm.max_cost_under_time(&table, quota),
            ] {
                assert!(
                    matches!(result, Err(OptimizeError::InvalidParameter { .. })),
                    "{result:?}"
                );
            }
        }
        let negative = [vec![Item {
            weight: -1,
            value: 0,
        }]];
        assert!(validate_items(&negative).is_err());
    }

    #[test]
    fn unreachable_cells_stay_out_of_the_real_band_at_the_bound() {
        // Values of both signs summing to just under the bound, behind a
        // job that makes narrow columns unreachable: the sentinel shifted
        // by every value must still read as unreachable, for both senses.
        let big = (1i64 << 60) - 1;
        let items = vec![
            vec![item(0, -big), item(1, big)],
            vec![item(0, big), item(2, -big)],
            vec![item(5, 0)],
        ];
        validate_items(&items).unwrap();
        for sense in SENSES {
            assert_eq!(backward_run(&items, 4, sense), None);
            let lightest = backward_run(&items, 5, sense).unwrap();
            assert_eq!(lightest, vec![0, 0, 0]);
            let extreme = backward_run(&items, 8, sense).unwrap();
            let expected = match sense {
                Sense::Minimize => vec![0, 1, 0],
                Sense::Maximize => vec![1, 0, 0],
            };
            assert_eq!(extreme, expected);
        }
    }

    const SENSES: [Sense; 2] = [Sense::Minimize, Sense::Maximize];

    fn item(weight: i64, value: i64) -> Item {
        Item { weight, value }
    }

    /// Item lists over ranges small enough that zero weights, weights
    /// above the width, duplicates, dominated and mutually non-dominated
    /// pairs all turn up.
    fn items_strategy(min: usize) -> impl Strategy<Value = Vec<Item>> {
        prop::collection::vec((0i64..24, -9i64..10), min..9)
            .prop_map(|specs| specs.into_iter().map(|(w, v)| item(w, v)).collect())
    }

    fn flat(row: &[Option<i64>], sense: Sense) -> Vec<i64> {
        row.iter()
            .map(|cell| cell.unwrap_or(sense.unreachable()))
            .collect()
    }

    fn wrapped(row: &[i64]) -> Vec<Option<i64>> {
        row.iter()
            .map(|&cell| reachable(cell).then_some(cell))
            .collect()
    }

    /// One cell of Eq. (1), computed the way the definition reads: the
    /// extremum over this job's alternatives of `value + f[i+1][w - weight]`,
    /// on `Option` cells. The oracle the row kernel is proved against.
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

    fn oracle_row(
        items: &[Item],
        next: &[Option<i64>],
        width: usize,
        sense: Sense,
    ) -> Vec<Option<i64>> {
        (0..=width)
            .map(|w| row_cell(items, next, w, sense))
            .collect()
    }

    /// The rows of a whole table built cell by cell, front (row 0) first,
    /// with the base row last.
    fn oracle_table(jobs: &[Vec<Item>], width: usize, sense: Sense) -> Vec<Vec<Option<i64>>> {
        let mut rows = vec![vec![Some(0); width + 1]];
        for items in jobs.iter().rev() {
            let row = oracle_row(items, rows.last().unwrap(), width, sense);
            rows.push(row);
        }
        rows.reverse();
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The item-major passes alone are exact for *any* next row —
        /// unreachable prefixes, holes, either sign — whatever the buffer
        /// they fill held before.
        #[test]
        fn passes_match_the_cell_oracle_on_any_next_row(
            items in items_strategy(0),
            cells in prop::collection::vec((0u8..4, -30i64..30), 1..40),
            prefix in 0usize..40,
            stale in prop::collection::vec(-30i64..30, 0..60),
        ) {
            let next: Vec<Option<i64>> = cells
                .iter()
                .enumerate()
                .map(|(w, &(hole, value))| (w >= prefix && hole != 0).then_some(value))
                .collect();
            let width = next.len() - 1;
            for sense in SENSES {
                let expected = oracle_row(&items, &next, width, sense);
                let mut row = stale.clone();
                fold_items(&items, &flat(&next, sense), &mut row, width, sense);
                prop_assert_eq!(wrapped(&row), expected);
            }
        }

        /// On the rows of a real table the kernel — dominated items
        /// skipped — equals the cell oracle column by column, also when
        /// each row refills a buffer that held something else.
        #[test]
        fn kernel_rows_match_the_cell_oracle_on_real_tables(
            jobs in prop::collection::vec(items_strategy(1), 1..5),
            width in 0usize..40,
            stale in prop::collection::vec(-30i64..30, 0..60),
        ) {
            let base = vec![0i64; width + 1];
            for sense in SENSES {
                let expected = oracle_table(&jobs, width, sense);
                let mut rows: Vec<Vec<i64>> = Vec::new();
                for items in jobs.iter().rev() {
                    let next = rows.last().unwrap_or(&base);
                    let mut row = stale.clone();
                    build_row(items, next, &mut row, width, sense);
                    rows.push(row);
                }
                for (k, row) in expected.iter().rev().skip(1).enumerate() {
                    prop_assert_eq!(&wrapped(&rows[k]), row);
                }
            }
        }

        /// The premise of the dominance step: every row of a table is
        /// monotone in `w` — unreachable cells form a prefix, and a wider
        /// column is never worse.
        #[test]
        fn table_rows_are_monotone(
            jobs in prop::collection::vec(items_strategy(1), 1..5),
            width in 0usize..40,
        ) {
            for sense in SENSES {
                for row in oracle_table(&jobs, width, sense) {
                    for pair in row.windows(2) {
                        let ok = match (pair[0], pair[1], sense) {
                            (None, _, _) => true,
                            (Some(_), None, _) => false,
                            (Some(a), Some(b), Sense::Minimize) => b <= a,
                            (Some(a), Some(b), Sense::Maximize) => b >= a,
                        };
                        prop_assert!(ok, "{:?} row not monotone: {:?}", sense, row);
                    }
                }
            }
        }

        /// Dropping dominated items changes no cell of any table row,
        /// with the cell-by-cell oracle on both sides.
        #[test]
        fn non_dominated_reduction_never_changes_a_row(
            jobs in prop::collection::vec(items_strategy(1), 1..5),
            width in 0usize..40,
        ) {
            for sense in SENSES {
                let table = oracle_table(&jobs, width, sense);
                for (items, next) in jobs.iter().zip(&table[1..]) {
                    let kept = non_dominated(items, sense);
                    prop_assert!(kept.len() <= items.len());
                    prop_assert_eq!(
                        oracle_row(&kept, next, width, sense),
                        oracle_row(items, next, width, sense)
                    );
                }
            }
        }
    }

    /// Like `alts` but with micro-credit cost precision.
    fn alts_micro(job: u32, specs: &[(i64, i64)]) -> ecosched_core::JobAlternatives {
        crate::test_support::alts_with(job, specs, Money::from_micro)
    }
}
