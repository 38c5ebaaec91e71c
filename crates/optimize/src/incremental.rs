//! Incremental combination optimization: cached backward-run DP rows,
//! revalidated by fingerprint instead of rebuilt per call.
//!
//! # Why suffix rows are reusable
//!
//! Row `i` of the Eq. (1) table (`f_i`) is a pure function of job `i`'s
//! alternative set and row `i+1`; the base row `f_{n+1} ≡ 0` depends on
//! nothing. By induction, row `i` is fully determined by the alternative
//! sets of jobs `i..n` — the *suffix* — and is independent of the query
//! capacity beyond its width (`f[i][w]` never reads a column `> w`). Two
//! consequences drive the cache design:
//!
//! * A mutation at job `k` (add/drop/repair/revoke) invalidates only rows
//!   `0..=k`; rows `k+1..n` are byte-identical and are reused.
//! * Tightening or loosening the limit (`B*`/`T*`) invalidates *nothing*:
//!   a smaller capacity reads a prefix of each cached row; a larger one
//!   appends columns in place, back to front ([`dp::extend_row`]).
//!
//! # Cache keying and invalidation
//!
//! Each cached row stores a *suffix fingerprint*: an FNV-1a hash of its
//! job's alternative set (weight/value pairs, in order) chained with the
//! next row's fingerprint. Matching one fingerprint therefore certifies
//! the whole suffix in O(1). Cache entries are aligned to the **end** of
//! the job list, so a batch that grew or shrank at the front still reuses
//! its common tail; the first position whose diagonal fingerprint matches
//! marks the reusable suffix. Job identity is deliberately *not* part of
//! the key — row values depend only on the items, so two jobs with equal
//! alternative sets may share rows, and a caller's positional re-keying
//! of batches does not defeat the cache. In debug builds every reused row
//! is additionally checked structurally against the live alternative set,
//! so a fingerprint collision (or a stale-reuse bug) aborts loudly.
//!
//! The time-minimization cache is additionally keyed by the money
//! `resolution` (it changes the quantized weights); a mismatch clears it.
//!
//! The exact Pareto sweep is not cached: every `pareto_*` call builds one
//! [`ParetoFrontier`] and drops it. No recorded traffic ever asked the
//! same optimizer for a second sweep over a shared job prefix.
//!
//! Equivalence with the `*_naive` oracles is by construction — both paths
//! share [`dp::compute_row`]/[`dp::extend_row`]/[`dp::reconstruct_choices`]
//! — and is enforced byte-for-byte by the differential harness in
//! `tests/equivalence.rs`.
//!
//! # Row storage
//!
//! A cached row is kept exactly as the kernel in [`crate::dp`] reads and
//! writes it — a flat `Vec<i64>` with a sentinel for unreachable cells.
//! The cache lives and dies with its optimizer: nothing exports it.

use ecosched_core::{JobAlternatives, Money, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::assignment::Assignment;
use crate::dp::{self, Item, Sense};
use crate::error::OptimizeError;
use crate::pareto::{ParetoFrontier, DEFAULT_FRONTIER_CAP};

/// Work counters for the incremental optimizer: how much cached state was
/// reused versus recomputed. Each scheduling iteration's counters are
/// surfaced through `EngineReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    /// DP + frontier solver invocations answered.
    pub solves: u64,
    /// Cached DP rows revalidated and reused unchanged.
    pub rows_reused: u64,
    /// DP rows recomputed because their suffix changed.
    pub rows_rebuilt: u64,
    /// Cached rows widened in place after a capacity increase.
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fingerprint of one job's alternative set in DP terms.
fn fp_items(items: &[Item]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(items.len() as u64).to_le_bytes());
    for item in items {
        h = fnv1a(h, &item.weight.to_le_bytes());
        h = fnv1a(h, &item.value.to_le_bytes());
    }
    h
}

/// Chains a job fingerprint with the fingerprint of the suffix after it.
fn chain(job_fp: u64, suffix: u64) -> u64 {
    fnv1a(job_fp, &suffix.to_le_bytes())
}

/// One cached DP row, keyed by the fingerprint of the job suffix it heads.
#[derive(Debug)]
struct RowEntry {
    suffix_fp: u64,
    /// The row as the kernel reads and writes it: flat cells, unreachable
    /// ones marked by the sense's sentinel ([`dp::reachable`]).
    row: Vec<i64>,
    /// Structural copy of the items the row was built from, which debug
    /// builds check against the live alternative set to catch fingerprint
    /// collisions / stale reuse outright.
    #[cfg(debug_assertions)]
    items: Vec<Item>,
}

/// A backward-run row cache for one (sense, weight-axis) combination.
#[derive(Debug)]
struct DpCache {
    sense: Sense,
    /// Rows for the most recent job list, aligned to its *end*.
    entries: Vec<RowEntry>,
    /// Number of columns − 1 every cached row currently spans.
    width: usize,
    /// The base row `f_{n+1} ≡ 0`, kept across solves and only ever grown.
    zeros: Vec<i64>,
}

impl DpCache {
    fn new(sense: Sense) -> Self {
        DpCache {
            sense,
            entries: Vec::new(),
            width: 0,
            zeros: Vec::new(),
        }
    }

    fn invalidate(&mut self) {
        self.entries.clear();
        self.width = 0;
    }

    fn resident_rows(&self) -> usize {
        self.entries.len()
    }

    /// Solves the backward run at `capacity`, reusing every cached row
    /// whose job suffix is unchanged. Returns per-job choices, or `None`
    /// when infeasible — byte-identical to `dp::backward_run`.
    fn solve(
        &mut self,
        items: &[Vec<Item>],
        capacity: i64,
        stats: &mut OptStats,
    ) -> Option<Vec<usize>> {
        if capacity < 0 {
            return None;
        }
        let n = items.len();
        let cap = capacity as usize;
        stats.solves += 1;

        let job_fps: Vec<u64> = items.iter().map(|row| fp_items(row)).collect();
        let mut suffix_fps = vec![0u64; n];
        let mut acc = FNV_OFFSET;
        for i in (0..n).rev() {
            acc = chain(job_fps[i], acc);
            suffix_fps[i] = acc;
        }

        // Entries are end-aligned: cached entry j describes new position
        // j - offset. The first diagonal fingerprint match certifies the
        // entire remaining suffix (the chain includes everything after it).
        let offset = self.entries.len() as i64 - n as i64;
        let mut reuse_from = n;
        for (i, fp) in suffix_fps.iter().enumerate() {
            let j = i as i64 + offset;
            if j >= 0 && (j as usize) < self.entries.len() {
                if self.entries[j as usize].suffix_fp == *fp {
                    reuse_from = i;
                    break;
                }
            } else if j >= self.entries.len() as i64 {
                break;
            }
        }

        if reuse_from == n {
            // Nothing survives: start a fresh cache sized to this query.
            self.entries.clear();
            self.width = cap;
        } else {
            let first_kept = (reuse_from as i64 + offset) as usize;
            self.entries.drain(..first_kept);
        }
        let kept = self.entries.len();
        debug_assert_eq!(kept, n - reuse_from);

        // Never shrink: wider rows answer narrower queries by prefix.
        let target = self.width.max(cap);
        if self.zeros.len() <= target {
            self.zeros.resize(target + 1, 0);
        }
        let base = self.zeros.as_slice();

        // Stale-reuse guard: a reused row must describe exactly the live
        // alternative set at its position. The fingerprint chain implies
        // it; debug builds verify structurally.
        #[cfg(debug_assertions)]
        for (k, entry) in self.entries.iter().enumerate() {
            debug_assert_eq!(
                entry.items,
                items[reuse_from + k],
                "stale DP row reused at position {} (alternative set changed)",
                reuse_from + k
            );
        }

        // Widen surviving rows in place, back to front so each row's next
        // row is already at full width.
        if target > self.width && kept > 0 {
            for k in (0..kept).rev() {
                let (head, tail) = self.entries.split_at_mut(k + 1);
                let next = match tail.first() {
                    Some(entry) => entry.row.as_slice(),
                    None => base,
                };
                dp::extend_row(
                    &items[reuse_from + k],
                    next,
                    &mut head[k].row,
                    target,
                    self.sense,
                );
            }
            stats.rows_extended += kept as u64;
        }
        self.width = target;
        stats.rows_reused += kept as u64;

        // Rebuild the invalidated prefix, back to front.
        let mut fresh: Vec<RowEntry> = Vec::with_capacity(reuse_from);
        for i in (0..reuse_from).rev() {
            let next: &[i64] = if i + 1 == n {
                base
            } else if i + 1 == reuse_from {
                &self.entries[0].row
            } else {
                &fresh.last().expect("rows are built back to front").row
            };
            fresh.push(RowEntry {
                suffix_fp: suffix_fps[i],
                row: dp::compute_row(&items[i], next, target, self.sense),
                #[cfg(debug_assertions)]
                items: items[i].clone(),
            });
        }
        stats.rows_rebuilt += fresh.len() as u64;
        fresh.reverse();
        fresh.append(&mut self.entries);
        self.entries = fresh;

        let mut rows: Vec<&[i64]> = self.entries.iter().map(|e| e.row.as_slice()).collect();
        rows.push(base);
        dp::reconstruct_choices(items, &rows, cap)
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

/// A stateful combination optimizer caching backward-run DP rows (per
/// criterion) across solves.
///
/// Drop-in equivalent to the free functions — every solve returns exactly
/// what the corresponding `*_naive` oracle returns — but a solver that is
/// re-run after small batch mutations, or re-queried at shifted `B*`/`T*`
/// limits, pays only for the rows whose job suffix actually changed.
///
/// Keep one where alternative sets persist between solves — a sweep of
/// `B*`/`T*` limits over one table, a window sliding over a fixed table of
/// jobs. Do not keep one across engine cycles: each cycle's search
/// re-derives every job's alternatives from a market that changed, no
/// suffix fingerprint matches, and every row is rebuilt anyway
/// (EXPERIMENTS.md E15 has the counts) — `ecosched_sim::run_iteration`
/// creates a fresh one per iteration.
#[derive(Debug)]
pub struct IncrementalOptimizer {
    /// min C(s̄) s.t. T ≤ T*: time-axis weights, minimize cost.
    cost_min: DpCache,
    /// max C(s̄) s.t. T ≤ T* (Eq. (3) inner task): time axis, maximize.
    cost_max: DpCache,
    /// min T(s̄) s.t. C ≤ B*: quantized-cost-axis weights, minimize time.
    time_min: DpCache,
    /// Resolution the `time_min` rows were quantized at (micro-credits);
    /// zero until first use. A different resolution re-weights every item,
    /// so it clears that cache.
    time_min_resolution: i64,
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
            time_min_resolution: 0,
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
        let resident = self.cost_min.resident_rows()
            + self.cost_max.resident_rows()
            + self.time_min.resident_rows()
            + frontier_layers;
        self.stats.cache_high_water = self.stats.cache_high_water.max(resident as u64);
    }

    /// [`min_time_under_budget`] over this optimizer's cached rows; see it
    /// for semantics and errors.
    pub fn min_time_under_budget(
        &mut self,
        alternatives: &[JobAlternatives],
        budget: Money,
        resolution: Money,
    ) -> Result<Assignment, OptimizeError> {
        dp::validate(alternatives)?;
        dp::validate_resolution(resolution)?;
        if resolution.micro() != self.time_min_resolution {
            self.time_min.invalidate();
            self.time_min_resolution = resolution.micro();
        }
        let items = dp::cost_axis_items(alternatives, resolution);
        dp::validate_items(&items)?;
        let capacity = budget.micro() / resolution.micro();
        let choices = self
            .time_min
            .solve(&items, capacity, &mut self.stats)
            .ok_or(OptimizeError::Infeasible);
        self.note_high_water(0);
        Ok(Assignment::from_indices(alternatives, &choices?))
    }

    /// [`min_cost_under_time`] over this optimizer's cached rows; see it
    /// for semantics and errors.
    pub fn min_cost_under_time(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Assignment, OptimizeError> {
        dp::validate(alternatives)?;
        dp::validate_quota(quota)?;
        let items = dp::time_axis_items(alternatives);
        dp::validate_items(&items)?;
        let choices = self
            .cost_min
            .solve(&items, quota.ticks(), &mut self.stats)
            .ok_or(OptimizeError::Infeasible);
        self.note_high_water(0);
        Ok(Assignment::from_indices(alternatives, &choices?))
    }

    /// [`max_cost_under_time`] over this optimizer's cached rows; see it
    /// for semantics and errors.
    pub fn max_cost_under_time(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Assignment, OptimizeError> {
        dp::validate(alternatives)?;
        dp::validate_quota(quota)?;
        let items = dp::time_axis_items(alternatives);
        dp::validate_items(&items)?;
        let choices = self
            .cost_max
            .solve(&items, quota.ticks(), &mut self.stats)
            .ok_or(OptimizeError::Infeasible);
        self.note_high_water(0);
        Ok(Assignment::from_indices(alternatives, &choices?))
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

/// Minimizes total batch time `T(s̄)` subject to the budget `C(s̄) ≤ B*`
/// (the paper's Sec. 5 *time-minimization* task), via a one-shot
/// [`IncrementalOptimizer`]. Hold an optimizer instead to reuse rows
/// across calls.
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
    fn quota_growth_extends_rows_in_place() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&t, TimeDelta::new(60)).unwrap();
        let wide = opt.min_cost_under_time(&t, TimeDelta::new(120)).unwrap();
        let stats = opt.stats();
        assert_eq!(stats.rows_rebuilt, 3, "widening must not rebuild");
        assert_eq!(stats.rows_extended, 3);
        assert_eq!(
            wide,
            min_cost_under_time_naive(&t, TimeDelta::new(120)).unwrap()
        );
    }

    #[test]
    fn front_mutation_keeps_suffix_rows() {
        let mut t = table();
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&t, TimeDelta::new(110)).unwrap();
        // Change job 0's alternatives: rows 1..3 must survive.
        t[0] = alts(0, &[(7, 12), (2, 40)]);
        let a = opt.min_cost_under_time(&t, TimeDelta::new(110)).unwrap();
        let stats = opt.stats();
        assert_eq!(stats.rows_rebuilt, 4);
        assert_eq!(stats.rows_reused, 2);
        assert_eq!(
            a,
            min_cost_under_time_naive(&t, TimeDelta::new(110)).unwrap()
        );
    }

    #[test]
    fn job_add_and_drop_realign_the_tail() {
        let mut t = table();
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&t, TimeDelta::new(140)).unwrap();
        // Drop the front job: both remaining rows reused.
        t.remove(0);
        opt.min_cost_under_time(&t, TimeDelta::new(140)).unwrap();
        assert_eq!(opt.stats().rows_reused, 2);
        assert_eq!(opt.stats().rows_rebuilt, 3);
        // Prepend a new job: the two old rows are still the tail.
        t.insert(0, alts(9, &[(4, 18), (1, 50)]));
        let a = opt.min_cost_under_time(&t, TimeDelta::new(140)).unwrap();
        assert_eq!(opt.stats().rows_reused, 4);
        assert_eq!(opt.stats().rows_rebuilt, 4);
        assert_eq!(
            a,
            min_cost_under_time_naive(&t, TimeDelta::new(140)).unwrap()
        );
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
    fn resolution_change_invalidates_time_min_cache() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        let budget = Money::from_credits(15);
        opt.min_time_under_budget(&t, budget, Money::from_credits(1))
            .unwrap();
        let rebuilt_before = opt.stats().rows_rebuilt;
        let a = opt
            .min_time_under_budget(&t, budget, Money::from_micro(500_000))
            .unwrap();
        assert_eq!(
            opt.stats().rows_rebuilt,
            rebuilt_before + 3,
            "new resolution re-weights every item"
        );
        assert_eq!(
            a,
            dp::min_time_under_budget_naive(&t, budget, Money::from_micro(500_000)).unwrap()
        );
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
