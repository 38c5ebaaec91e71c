//! Incremental combination optimization: each solver keeps the last
//! question it answered, with that question's DP rows.
//!
//! # What the cache keeps
//!
//! Each of the three backward-run solvers (one per DP axis) keeps one
//! memo: the item lists of the last question it answered, moved in as the
//! solve quantized them, and the rows it built for them. A solve whose
//! items equal the memo's, at a capacity no wider than the memo's width,
//! reconstructs from the resident rows — `f[i][w]` never reads a column
//! `> w`, so a narrower capacity reads a prefix of each row. Any other
//! solve rebuilds every row at its own capacity. Comparing the quantized
//! items covers a change of the money `resolution` too: one that
//! re-weights an item makes the lists differ.
//!
//! That is what the recorded traffic asks for. The product never reuses
//! a row: `ecosched_sim::run_iteration` asks a fresh optimizer one
//! question per solver. The one warm caller, `bench/`'s `batch_replan`,
//! asks the question of the round before on two rounds of three and a
//! slid window on the third, which shares no row's suffix with the
//! window before (DESIGN §11 has the counts).
//!
//! The exact Pareto sweep is not cached: every `pareto_*` call builds one
//! [`ParetoFrontier`] and drops it. No recorded traffic ever asked the
//! same optimizer for a second sweep over a shared job prefix.
//!
//! Equivalence with the `*_naive` oracles is by construction — both paths
//! build rows with [`dp::build_row`] and reconstruct with
//! [`dp::reconstruct_choices`] — and is enforced byte-for-byte by the
//! differential harness in `tests/equivalence.rs`.
//!
//! # Row storage
//!
//! A row is kept exactly as the kernel in [`crate::dp`] reads and writes
//! it — a flat `Vec<i64>` with a sentinel for unreachable cells. A rebuild
//! refills the buffers of the rows it retires, when wide enough. The memo
//! lives and dies with its optimizer: nothing exports it.

use ecosched_core::{JobAlternatives, Money, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::assignment::Assignment;
use crate::dp::{self, Item, Sense};
use crate::error::OptimizeError;
use crate::pareto::{ParetoFrontier, DEFAULT_FRONTIER_CAP};

/// Work counters for the incremental optimizer: how many DP rows were
/// read from a memo versus built. Each scheduling iteration's counters are
/// surfaced through `EngineReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    /// DP + frontier solver invocations answered.
    pub solves: u64,
    /// DP rows a solve read from the memo of a repeated question.
    pub rows_reused: u64,
    /// DP rows built.
    pub rows_rebuilt: u64,
    /// Always zero: no row is widened in place. A wire field of every
    /// stored [`OptStats`].
    pub rows_extended: u64,
    /// Always zero: no Pareto layer outlives the sweep that built it. A
    /// wire field of every stored [`OptStats`].
    pub frontier_reused: u64,
    /// Pareto layers built.
    pub frontier_rebuilt: u64,
    /// Peak table size: resident DP rows plus, during an exact sweep, its
    /// Pareto layers.
    pub cache_high_water: u64,
}

impl OptStats {
    /// Accumulates `other` into `self` (counters add, high-water maxes).
    pub fn merge(&mut self, other: &OptStats) {
        self.solves += other.solves;
        self.rows_reused += other.rows_reused;
        self.rows_rebuilt += other.rows_rebuilt;
        self.rows_extended += other.rows_extended;
        self.frontier_reused += other.frontier_reused;
        self.frontier_rebuilt += other.frontier_rebuilt;
        self.cache_high_water = self.cache_high_water.max(other.cache_high_water);
    }

    /// The work done since an earlier snapshot (counters subtract; the
    /// high-water mark carries the current peak).
    #[must_use]
    pub fn delta_since(&self, earlier: &OptStats) -> OptStats {
        OptStats {
            solves: self.solves - earlier.solves,
            rows_reused: self.rows_reused - earlier.rows_reused,
            rows_rebuilt: self.rows_rebuilt - earlier.rows_rebuilt,
            rows_extended: self.rows_extended - earlier.rows_extended,
            frontier_reused: self.frontier_reused - earlier.frontier_reused,
            frontier_rebuilt: self.frontier_rebuilt - earlier.frontier_rebuilt,
            cache_high_water: self.cache_high_water,
        }
    }
}

/// The last question one solver answered: its items and their rows.
#[derive(Debug)]
struct DpCache {
    sense: Sense,
    /// The items of the last rebuild, one list per job.
    items: Vec<Vec<Item>>,
    /// `rows[i]` is row `i` of the table for `items`, columns `0..=width`.
    rows: Vec<Vec<i64>>,
    width: usize,
    /// The base row `f_{n+1} ≡ 0`, kept across solves and only ever grown.
    zeros: Vec<i64>,
}

impl DpCache {
    fn new(sense: Sense) -> Self {
        DpCache {
            sense,
            items: Vec::new(),
            rows: Vec::new(),
            width: 0,
            zeros: Vec::new(),
        }
    }

    /// Solves the backward run over `items` at `capacity`, from the
    /// resident rows when `items` repeats the last rebuild's within its
    /// width. Returns per-job choices, or `None` when infeasible —
    /// byte-identical to `dp::backward_run`.
    fn solve(
        &mut self,
        items: Vec<Vec<Item>>,
        capacity: i64,
        stats: &mut OptStats,
    ) -> Option<Vec<usize>> {
        if capacity < 0 {
            return None;
        }
        let cap = capacity as usize;
        let n = items.len() as u64;
        stats.solves += 1;
        if cap <= self.width && items == self.items {
            stats.rows_reused += n;
        } else {
            self.rebuild(items, cap);
            stats.rows_rebuilt += n;
        }
        let mut rows: Vec<&[i64]> = self.rows.iter().map(Vec::as_slice).collect();
        rows.push(&self.zeros);
        dp::reconstruct_choices(&self.items, &rows, cap)
    }

    /// Builds every row of `items` at `width`, back to front. The retired
    /// rows' buffers are refilled, each freed only if too narrow, so a
    /// sliding window does not hand the whole table back to the allocator
    /// and ask for it again on every slide.
    fn rebuild(&mut self, items: Vec<Vec<Item>>, width: usize) {
        if self.zeros.len() <= width {
            self.zeros.resize(width + 1, 0);
        }
        let mut spare = std::mem::take(&mut self.rows);
        let mut rows: Vec<Vec<i64>> = Vec::with_capacity(items.len());
        for job in items.iter().rev() {
            let next = rows.last().unwrap_or(&self.zeros);
            let mut row = spare
                .pop()
                .filter(|row| row.capacity() > width)
                .unwrap_or_default();
            dp::build_row(job, next, &mut row, width, self.sense);
            rows.push(row);
        }
        rows.reverse();
        self.items = items;
        self.rows = rows;
        self.width = width;
    }
}

/// What is left of the optimizer section engine checkpoints of snapshot
/// formats 1–3 could carry, when one optimizer lived across cycles and
/// exported its row caches: a marker that a section was present. It reads
/// from any content and keeps none of it, and writes as an empty map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerSnapshot;

impl Serialize for OptimizerSnapshot {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{}");
    }
}

impl<'de> Deserialize<'de> for OptimizerSnapshot {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        parser.skip_value().map(|()| OptimizerSnapshot)
    }
}

/// A combination optimizer that remembers, per DP solver, the last
/// question it answered.
///
/// Drop-in equivalent to the free functions — every solve returns exactly
/// what the corresponding `*_naive` oracle returns — but a solver asked
/// the same table again, at a limit no wider than before, answers from
/// the rows it already holds.
///
/// Keep one where the same table is asked again — `bench/`'s
/// `batch_replan` re-asks a window two rounds in three. Do not keep one
/// across engine cycles: each cycle's search re-derives every job's
/// alternatives from a market that changed, so no question repeats —
/// `ecosched_sim::run_iteration` creates a fresh one per iteration.
#[derive(Debug)]
pub struct IncrementalOptimizer {
    /// min C(s̄) s.t. T ≤ T*: time-axis weights, minimize cost.
    cost_min: DpCache,
    /// max C(s̄) s.t. T ≤ T* (Eq. (3) inner task): time axis, maximize.
    cost_max: DpCache,
    /// min T(s̄) s.t. C ≤ B*: quantized-cost-axis weights, minimize time.
    time_min: DpCache,
    stats: OptStats,
}

impl Default for IncrementalOptimizer {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalOptimizer {
    /// Creates an empty optimizer (no cached state).
    #[must_use]
    pub fn new() -> Self {
        IncrementalOptimizer {
            cost_min: DpCache::new(Sense::Minimize),
            cost_max: DpCache::new(Sense::Maximize),
            time_min: DpCache::new(Sense::Minimize),
            stats: OptStats::default(),
        }
    }

    /// Cumulative work counters since construction.
    #[must_use]
    pub fn stats(&self) -> OptStats {
        self.stats
    }

    /// A cold optimizer: the legacy section holds nothing to restore. By
    /// the equivalence `tests/equivalence.rs` checks, a cold optimizer
    /// answers exactly as any warm one would.
    #[doc(hidden)]
    #[must_use]
    pub fn from_snapshot(_: &OptimizerSnapshot) -> Self {
        Self::new()
    }

    /// Raises the high-water mark to the resident DP rows plus
    /// `frontier_layers`, the layers of the exact sweep in progress.
    fn note_high_water(&mut self, frontier_layers: usize) {
        let resident = self.cost_min.rows.len()
            + self.cost_max.rows.len()
            + self.time_min.rows.len()
            + frontier_layers;
        self.stats.cache_high_water = self.stats.cache_high_water.max(resident as u64);
    }

    /// The body of the three DP solvers, in the naive drivers' order:
    /// validate the table, let `question` check its limit and reduce the
    /// table to items and a capacity, bound the items, and answer on the
    /// solver `memo` picks.
    fn solve_dp(
        &mut self,
        memo: fn(&mut Self) -> &mut DpCache,
        alternatives: &[JobAlternatives],
        question: impl FnOnce() -> Result<(Vec<Vec<Item>>, i64), OptimizeError>,
    ) -> Result<Assignment, OptimizeError> {
        dp::validate(alternatives)?;
        let (items, capacity) = question()?;
        dp::validate_items(&items)?;
        let mut stats = self.stats;
        let choices = memo(self).solve(items, capacity, &mut stats);
        self.stats = stats;
        self.note_high_water(0);
        let choices = choices.ok_or(OptimizeError::Infeasible)?;
        Ok(Assignment::from_indices(alternatives, &choices))
    }

    /// [`min_time_under_budget`] on this optimizer's memo; see it for
    /// semantics and errors.
    pub fn min_time_under_budget(
        &mut self,
        alternatives: &[JobAlternatives],
        budget: Money,
        resolution: Money,
    ) -> Result<Assignment, OptimizeError> {
        self.solve_dp(
            |opt| &mut opt.time_min,
            alternatives,
            || {
                dp::validate_resolution(resolution)?;
                let items = dp::cost_axis_items(alternatives, resolution);
                Ok((items, budget.micro() / resolution.micro()))
            },
        )
    }

    /// [`min_cost_under_time`] on this optimizer's memo; see it for
    /// semantics and errors.
    pub fn min_cost_under_time(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Assignment, OptimizeError> {
        self.solve_dp(
            |opt| &mut opt.cost_min,
            alternatives,
            || time_axis_question(alternatives, quota),
        )
    }

    /// [`max_cost_under_time`] on this optimizer's memo; see it for
    /// semantics and errors.
    pub fn max_cost_under_time(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Assignment, OptimizeError> {
        self.solve_dp(
            |opt| &mut opt.cost_max,
            alternatives,
            || time_axis_question(alternatives, quota),
        )
    }

    /// Eq. (3)'s `B*` against an explicit quota, via the cached
    /// [`Self::max_cost_under_time`].
    ///
    /// # Errors
    ///
    /// See [`crate::vo_budget`].
    pub fn vo_budget_with_quota(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Money, OptimizeError> {
        let assignment = self.max_cost_under_time(alternatives, quota)?;
        Ok(assignment.total_cost())
    }

    /// One exact sweep over `alternatives`, counted as a solve of one
    /// layer per job. The frontier is the caller's to query and drop.
    fn sweep<'a>(
        &mut self,
        alternatives: &'a [JobAlternatives],
        cap: usize,
    ) -> Result<ParetoFrontier<'a>, OptimizeError> {
        dp::validate(alternatives)?;
        self.stats.solves += 1;
        self.stats.frontier_rebuilt += alternatives.len() as u64;
        self.note_high_water(alternatives.len());
        ParetoFrontier::with_cap(alternatives, cap)
    }

    /// Exact `min T(s̄)` s.t. `C(s̄) ≤ budget`:
    /// `ParetoFrontier::new(..)?.min_time_under_budget(..)`, counted in
    /// [`Self::stats`].
    ///
    /// # Errors
    ///
    /// See [`crate::ParetoFrontier::with_cap`] and
    /// [`crate::ParetoFrontier::min_time_under_budget`].
    pub fn pareto_min_time_under_budget(
        &mut self,
        alternatives: &[JobAlternatives],
        budget: Money,
    ) -> Result<Assignment, OptimizeError> {
        self.pareto_min_time_with_cap(alternatives, budget, DEFAULT_FRONTIER_CAP)
    }

    /// [`Self::pareto_min_time_under_budget`] with an explicit layer cap.
    ///
    /// # Errors
    ///
    /// See [`Self::pareto_min_time_under_budget`].
    pub fn pareto_min_time_with_cap(
        &mut self,
        alternatives: &[JobAlternatives],
        budget: Money,
        cap: usize,
    ) -> Result<Assignment, OptimizeError> {
        self.sweep(alternatives, cap)?.min_time_under_budget(budget)
    }

    /// Exact `min C(s̄)` s.t. `T(s̄) ≤ quota`:
    /// `ParetoFrontier::new(..)?.min_cost_under_time(..)`, counted in
    /// [`Self::stats`].
    ///
    /// # Errors
    ///
    /// See [`Self::pareto_min_time_under_budget`].
    pub fn pareto_min_cost_under_time(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Assignment, OptimizeError> {
        self.sweep(alternatives, DEFAULT_FRONTIER_CAP)?
            .min_cost_under_time(quota)
    }
}

/// The cost-extremum solvers' question: the quota, checked, as the
/// capacity over the time-axis items.
fn time_axis_question(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<(Vec<Vec<Item>>, i64), OptimizeError> {
    dp::validate_quota(quota)?;
    Ok((dp::time_axis_items(alternatives), quota.ticks()))
}

/// Minimizes total batch time `T(s̄)` subject to the budget `C(s̄) ≤ B*`
/// (the paper's Sec. 5 *time-minimization* task), via a one-shot
/// [`IncrementalOptimizer`].
///
/// Money is quantized to `resolution`; each alternative's cost rounds up,
/// so the returned assignment always truly satisfies the budget, at the
/// price of possibly missing combinations within `n · resolution` of it.
///
/// # Errors
///
/// * [`OptimizeError::EmptyBatch`] / [`OptimizeError::NoAlternatives`] on a
///   malformed table;
/// * [`OptimizeError::InvalidParameter`] if `resolution` is not positive,
///   an alternative's constrained measure is negative, or the objective
///   values could sum to `2^61` or more in magnitude (the rows would wrap);
/// * [`OptimizeError::Infeasible`] if no combination fits the budget.
pub fn min_time_under_budget(
    alternatives: &[JobAlternatives],
    budget: Money,
    resolution: Money,
) -> Result<Assignment, OptimizeError> {
    IncrementalOptimizer::new().min_time_under_budget(alternatives, budget, resolution)
}

/// Minimizes total batch cost `C(s̄)` subject to the time quota
/// `T(s̄) ≤ T*` (the paper's Sec. 5 *cost-minimization* task), via a
/// one-shot [`IncrementalOptimizer`]. Exact: time is already integral.
///
/// # Errors
///
/// See [`min_time_under_budget`]; there is no resolution parameter.
pub fn min_cost_under_time(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    IncrementalOptimizer::new().min_cost_under_time(alternatives, quota)
}

/// Maximizes total batch cost (the resource owners' income) subject to
/// the time quota — Eq. (3)'s inner optimization, used to derive the VO
/// budget `B*` — via a one-shot [`IncrementalOptimizer`].
///
/// # Errors
///
/// See [`min_time_under_budget`].
pub fn max_cost_under_time(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    IncrementalOptimizer::new().max_cost_under_time(alternatives, quota)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{max_cost_under_time_naive, min_cost_under_time_naive};
    use crate::test_support::alts;

    fn table() -> Vec<JobAlternatives> {
        vec![
            alts(0, &[(10, 10), (2, 40), (5, 20)]),
            alts(1, &[(8, 10), (3, 30)]),
            alts(2, &[(6, 15), (1, 60), (4, 25)]),
        ]
    }

    #[test]
    fn quota_shift_reuses_every_row() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        let wide = opt.min_cost_under_time(&t, TimeDelta::new(110)).unwrap();
        assert_eq!(opt.stats().rows_rebuilt, 3);
        // A tighter quota reads shorter row prefixes: zero rows rebuilt.
        let tight = opt.min_cost_under_time(&t, TimeDelta::new(60)).unwrap();
        let stats = opt.stats();
        assert_eq!(stats.rows_rebuilt, 3);
        assert_eq!(stats.rows_reused, 3);
        assert_eq!(
            tight,
            min_cost_under_time_naive(&t, TimeDelta::new(60)).unwrap()
        );
        assert_eq!(
            wide,
            min_cost_under_time_naive(&t, TimeDelta::new(110)).unwrap()
        );
    }

    #[test]
    fn a_wider_quota_rebuilds_and_a_narrower_repeat_reuses() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&t, TimeDelta::new(60)).unwrap();
        let wide = opt.min_cost_under_time(&t, TimeDelta::new(120)).unwrap();
        assert_eq!(opt.stats().rows_rebuilt, 6, "a wider quota rebuilds");
        let mid = opt.min_cost_under_time(&t, TimeDelta::new(90)).unwrap();
        let stats = opt.stats();
        assert_eq!((stats.rows_rebuilt, stats.rows_reused), (6, 3));
        assert_eq!(stats.rows_extended, 0);
        for (got, ticks) in [(wide, 120), (mid, 90)] {
            let naive = min_cost_under_time_naive(&t, TimeDelta::new(ticks)).unwrap();
            assert_eq!(got, naive);
        }
    }

    /// A wide table of cheap, short alternatives and then a narrower,
    /// dearer one on the same solvers: every row of the second refills a
    /// retired buffer that is wide enough and holds cells, reachable and
    /// better than the new ones, that the refill must not keep.
    #[test]
    fn a_narrower_table_refills_the_retired_rows() {
        let wide: Vec<_> = (0..4).map(|job| alts(job, &[(1, 1), (2, 2)])).collect();
        let narrow = vec![alts(0, &[(9, 12), (20, 4)]), alts(1, &[(7, 15), (30, 3)])];
        let resolution = Money::from_credits(1);
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&wide, TimeDelta::new(200)).unwrap();
        opt.max_cost_under_time(&wide, TimeDelta::new(200)).unwrap();
        opt.min_time_under_budget(&wide, Money::from_credits(60), resolution)
            .unwrap();
        let quota = TimeDelta::new(20);
        let budget = Money::from_credits(30);
        assert_eq!(
            opt.min_cost_under_time(&narrow, quota),
            min_cost_under_time_naive(&narrow, quota)
        );
        assert_eq!(
            opt.max_cost_under_time(&narrow, quota),
            max_cost_under_time_naive(&narrow, quota)
        );
        assert_eq!(
            opt.min_time_under_budget(&narrow, budget, resolution),
            dp::min_time_under_budget_naive(&narrow, budget, resolution)
        );
        let stats = opt.stats();
        assert_eq!((stats.rows_rebuilt, stats.rows_reused), (18, 0));
    }

    #[test]
    fn caches_are_independent_per_criterion() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        let min = opt.min_cost_under_time(&t, TimeDelta::new(80)).unwrap();
        let max = opt.max_cost_under_time(&t, TimeDelta::new(80)).unwrap();
        assert_eq!(
            min,
            min_cost_under_time_naive(&t, TimeDelta::new(80)).unwrap()
        );
        assert_eq!(
            max,
            max_cost_under_time_naive(&t, TimeDelta::new(80)).unwrap()
        );
        assert!(min.total_cost() <= max.total_cost());
    }

    #[test]
    fn a_resolution_change_rebuilds_only_when_it_reweights() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        let budget = Money::from_credits(15);
        let mut ask = |resolution: Money| {
            let got = opt.min_time_under_budget(&t, budget, resolution);
            let naive = dp::min_time_under_budget_naive(&t, budget, resolution);
            assert_eq!(got, naive, "resolution {resolution}");
            opt.stats()
        };
        ask(Money::from_credits(1));
        // Half a credit doubles every weight: a new question.
        let stats = ask(Money::from_micro(500_000));
        assert_eq!((stats.rows_rebuilt, stats.rows_reused), (6, 0));
        // A credit and a micro-credit rounds every whole-credit cost up to
        // the weight one credit gives, at a capacity of 14 ≤ 15.
        ask(Money::from_credits(1));
        let stats = ask(Money::from_micro(1_000_001));
        assert_eq!((stats.rows_rebuilt, stats.rows_reused), (9, 3));
    }

    #[test]
    fn pareto_sweeps_are_counted_and_never_reused() {
        let mut t = table();
        let mut opt = IncrementalOptimizer::new();
        let budget = Money::from_credits(20);
        let a = opt.pareto_min_time_under_budget(&t, budget).unwrap();
        let naive = crate::ParetoFrontier::new(&t).unwrap();
        assert_eq!(a, naive.min_time_under_budget(budget).unwrap());
        // Mutate the *last* job: every layer is built again all the same.
        t[2] = alts(2, &[(6, 15), (2, 45)]);
        let b = opt.pareto_min_cost_under_time(&t, TimeDelta::new(90));
        let naive = crate::ParetoFrontier::new(&t).unwrap();
        assert_eq!(b, naive.min_cost_under_time(TimeDelta::new(90)));
        assert_eq!(
            opt.stats(),
            OptStats {
                solves: 2,
                frontier_rebuilt: 6,
                cache_high_water: 3,
                ..OptStats::default()
            }
        );
        // A malformed table is no solve; a blown cap is one.
        assert!(opt.pareto_min_time_under_budget(&[], budget).is_err());
        assert_eq!(opt.stats().solves, 2);
        assert!(matches!(
            opt.pareto_min_time_with_cap(&t, budget, 1),
            Err(OptimizeError::InvalidParameter { .. })
        ));
        assert_eq!(opt.stats().solves, 3);
    }

    #[test]
    fn one_shot_wrappers_match_naive() {
        let t = table();
        assert_eq!(
            min_cost_under_time(&t, TimeDelta::new(70)).unwrap(),
            min_cost_under_time_naive(&t, TimeDelta::new(70)).unwrap()
        );
        assert_eq!(
            max_cost_under_time(&t, TimeDelta::new(70)).unwrap(),
            max_cost_under_time_naive(&t, TimeDelta::new(70)).unwrap()
        );
        assert_eq!(
            min_time_under_budget(&t, Money::from_credits(14), Money::from_credits(1)).unwrap(),
            dp::min_time_under_budget_naive(&t, Money::from_credits(14), Money::from_credits(1))
                .unwrap()
        );
    }

    #[test]
    fn errors_match_naive_semantics() {
        let mut opt = IncrementalOptimizer::new();
        assert_eq!(
            opt.min_cost_under_time(&[], TimeDelta::new(5)).unwrap_err(),
            OptimizeError::EmptyBatch
        );
        let t = vec![alts(0, &[(1, 50)])];
        assert_eq!(
            opt.min_cost_under_time(&t, TimeDelta::new(49)).unwrap_err(),
            OptimizeError::Infeasible
        );
        assert!(matches!(
            opt.min_cost_under_time(&t, TimeDelta::ZERO).unwrap_err(),
            OptimizeError::InvalidParameter { .. }
        ));
        // An infeasible solve must not poison the cache for the next one.
        let a = opt.min_cost_under_time(&t, TimeDelta::new(50)).unwrap();
        assert_eq!(
            a,
            min_cost_under_time_naive(&t, TimeDelta::new(50)).unwrap()
        );
    }

    #[test]
    fn a_legacy_section_of_any_content_reads_as_the_marker() {
        for json in [
            "{}",
            r#"[1,"x",null]"#,
            "7",
            r#"{"cost_min":{"width":3,"rows":[]},"stats":{"solves":9}}"#,
        ] {
            let section: Option<OptimizerSnapshot> = serde_json::from_str(json).unwrap();
            assert_eq!(section, Some(OptimizerSnapshot), "{json}");
        }
        let absent: Option<OptimizerSnapshot> = serde_json::from_str("null").unwrap();
        assert_eq!(absent, None);
        assert_eq!(serde_json::to_string(&OptimizerSnapshot).unwrap(), "{}");
        // Whatever the section was, the optimizer it yields is cold.
        let restored = IncrementalOptimizer::from_snapshot(&OptimizerSnapshot);
        assert_eq!(restored.stats(), OptStats::default());
    }

    #[test]
    fn stats_merge_and_delta() {
        let mut a = OptStats {
            solves: 2,
            rows_reused: 5,
            rows_rebuilt: 7,
            rows_extended: 1,
            frontier_reused: 0,
            frontier_rebuilt: 3,
            cache_high_water: 9,
        };
        let b = OptStats {
            solves: 1,
            rows_reused: 1,
            rows_rebuilt: 2,
            rows_extended: 0,
            frontier_reused: 2,
            frontier_rebuilt: 0,
            cache_high_water: 4,
        };
        let before = a;
        a.merge(&b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.rows_reused, 6);
        assert_eq!(a.cache_high_water, 9);
        let delta = a.delta_since(&before);
        assert_eq!(delta.solves, 1);
        assert_eq!(delta.rows_rebuilt, 2);
        assert_eq!(delta.frontier_reused, 2);
    }
}
