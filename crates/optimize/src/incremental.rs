//! Incremental combination optimization: cached backward-run DP rows and
//! Pareto layers, revalidated by fingerprint instead of rebuilt per call.
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
//! `resolution` (it changes the quantized weights), and the Pareto cache
//! by the layer-size cap; a mismatch clears them.
//!
//! The Pareto frontier is the mirror image: layer `i` depends on layers
//! `< i`, so it caches the longest matching *prefix* (chained front-to-
//! back) and rebuilds only the layers after the first mutated job.
//!
//! Equivalence with the `*_naive` oracles is by construction — both paths
//! share [`dp::compute_row`]/[`dp::extend_row`]/[`dp::reconstruct_choices`]
//! and the layer builders in [`crate::pareto`] — and is enforced
//! byte-for-byte by the differential harness in `tests/equivalence.rs`.
//!
//! # Row storage
//!
//! A cached row is kept exactly as the kernel in [`crate::dp`] reads and
//! writes it — a flat `Vec<i64>` with a sentinel for unreachable cells —
//! next to the job's *full* item list, which the fingerprints, the debug
//! stale-reuse check and reconstruction read. Only the wire form differs:
//! [`RowSnapshot::row`] stays `Vec<Option<i64>>`, converted in
//! `DpCache::snapshot` / `DpCache::restore` and nowhere else, so snapshot
//! bytes do not depend on the sentinel's value.

use ecosched_core::{JobAlternatives, Money, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::assignment::Assignment;
use crate::dp::{self, Item, Sense};
use crate::error::OptimizeError;
use crate::pareto::{self, Point, DEFAULT_FRONTIER_CAP};

/// Work counters for the incremental optimizer: how much cached state was
/// reused versus recomputed. Each scheduling iteration's counters are
/// surfaced through `CycleSummary`/`EngineReport`.
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
    /// Cached Pareto layers reused.
    pub frontier_reused: u64,
    /// Pareto layers rebuilt.
    pub frontier_rebuilt: u64,
    /// Peak resident cache size (DP rows + frontier layers).
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

/// Chains a job fingerprint with an adjacent (suffix or prefix) chain value.
fn chain(job_fp: u64, neighbor: u64) -> u64 {
    fnv1a(job_fp, &neighbor.to_le_bytes())
}

/// One cached DP row, keyed by the fingerprint of the job suffix it heads.
#[derive(Debug)]
struct RowEntry {
    suffix_fp: u64,
    /// The row as the kernel reads and writes it: flat cells, unreachable
    /// ones marked by the sense's sentinel ([`dp::reachable`]).
    row: Vec<i64>,
    /// Structural copy of the items the row was built from. Debug builds
    /// check it against the live alternative set to catch fingerprint
    /// collisions / stale reuse outright; snapshot export carries it so a
    /// restored cache can keep making the same check.
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

/// A plain-data export of one cached DP row: the fingerprint, the row
/// values, and the (weight, value) items the row was built from, as
/// parallel vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowSnapshot {
    /// The chained suffix fingerprint keying the row.
    pub suffix_fp: u64,
    /// The row values (`None` marks an unreachable capacity).
    pub row: Vec<Option<i64>>,
    /// Item weights, parallel to `values`.
    pub weights: Vec<i64>,
    /// Item values, parallel to `weights`.
    pub values: Vec<i64>,
}

/// A plain-data export of one backward-run row cache.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpCacheSnapshot {
    /// Columns − 1 every cached row spans.
    pub width: u64,
    /// The cached rows, front (row 0) first.
    pub rows: Vec<RowSnapshot>,
}

/// A plain-data export of one cached Pareto point.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierPointSnapshot {
    /// Total cost in micro-credits.
    pub cost_micro: i64,
    /// Total time in ticks.
    pub time_ticks: i64,
    /// Alternative index chosen for the layer's job.
    pub alt: u64,
    /// Index of the predecessor point in the previous layer.
    pub parent: u64,
}

/// A plain-data export of one cached Pareto layer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierLayerSnapshot {
    /// The chained prefix fingerprint keying the layer.
    pub prefix_fp: u64,
    /// The layer's Pareto points, in frontier order.
    pub points: Vec<FrontierPointSnapshot>,
}

/// A resumable export of an [`IncrementalOptimizer`]'s full cached state —
/// DP rows per criterion, Pareto layers, and work counters. Restoring it
/// with [`IncrementalOptimizer::from_snapshot`] yields an optimizer whose
/// subsequent solves (results *and* [`OptStats`] deltas) are identical to
/// the captured one's.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizerSnapshot {
    /// The `min C(s̄) s.t. T ≤ T*` row cache.
    pub cost_min: DpCacheSnapshot,
    /// The `max C(s̄) s.t. T ≤ T*` row cache.
    pub cost_max: DpCacheSnapshot,
    /// The `min T(s̄) s.t. C ≤ B*` row cache.
    pub time_min: DpCacheSnapshot,
    /// The money resolution (micro-credits) the `time_min` rows were
    /// quantized at; zero when that cache is untouched.
    pub time_min_resolution: i64,
    /// The Pareto layer-size cap in force.
    pub frontier_cap: u64,
    /// The cached Pareto layers, front first.
    pub frontier_layers: Vec<FrontierLayerSnapshot>,
    /// Cumulative work counters at capture time.
    pub stats: OptStats,
}

impl DpCache {
    fn snapshot(&self) -> DpCacheSnapshot {
        DpCacheSnapshot {
            width: self.width as u64,
            rows: self
                .entries
                .iter()
                .map(|e| RowSnapshot {
                    suffix_fp: e.suffix_fp,
                    row: e
                        .row
                        .iter()
                        .map(|&cell| dp::reachable(cell).then_some(cell))
                        .collect(),
                    weights: e.items.iter().map(|i| i.weight).collect(),
                    values: e.items.iter().map(|i| i.value).collect(),
                })
                .collect(),
        }
    }

    fn restore(sense: Sense, snapshot: &DpCacheSnapshot) -> Self {
        DpCache {
            sense,
            entries: snapshot
                .rows
                .iter()
                .map(|r| RowEntry {
                    suffix_fp: r.suffix_fp,
                    // A cell no solve could have produced reads as
                    // unreachable rather than entering the row sums.
                    row: r
                        .row
                        .iter()
                        .map(|cell| {
                            cell.filter(|&value| dp::reachable(value))
                                .unwrap_or(sense.unreachable())
                        })
                        .collect(),
                    items: r
                        .weights
                        .iter()
                        .zip(&r.values)
                        .map(|(&weight, &value)| Item { weight, value })
                        .collect(),
                })
                .collect(),
            width: snapshot.width as usize,
            zeros: Vec::new(),
        }
    }
}

/// One cached Pareto layer, keyed by the fingerprint of the job prefix
/// that produced it.
#[derive(Debug)]
struct FrontierLayer {
    prefix_fp: u64,
    layer: Vec<Point>,
}

/// Prefix-cached Pareto frontier (layer `i` depends on layers `< i`).
#[derive(Debug)]
struct FrontierCache {
    cap: usize,
    layers: Vec<FrontierLayer>,
}

impl FrontierCache {
    fn new() -> Self {
        FrontierCache {
            cap: DEFAULT_FRONTIER_CAP,
            layers: Vec::new(),
        }
    }

    /// Brings the cached layers in sync with `alternatives`, rebuilding
    /// only the layers after the longest unchanged prefix.
    fn ensure(
        &mut self,
        alternatives: &[JobAlternatives],
        cap: usize,
        stats: &mut OptStats,
    ) -> Result<(), OptimizeError> {
        dp::validate(alternatives)?;
        stats.solves += 1;
        if cap != self.cap {
            self.layers.clear();
            self.cap = cap;
        }

        let n = alternatives.len();
        let mut prefix_fps = Vec::with_capacity(n);
        let mut acc = FNV_OFFSET;
        for ja in alternatives {
            let mut h = fnv1a(FNV_OFFSET, &(ja.len() as u64).to_le_bytes());
            for alt in ja {
                h = fnv1a(h, &alt.cost().micro().to_le_bytes());
                h = fnv1a(h, &alt.time().ticks().to_le_bytes());
            }
            acc = chain(h, acc);
            prefix_fps.push(acc);
        }

        let mut reuse_len = 0;
        while reuse_len < self.layers.len()
            && reuse_len < n
            && self.layers[reuse_len].prefix_fp == prefix_fps[reuse_len]
        {
            reuse_len += 1;
        }
        self.layers.truncate(reuse_len);
        stats.frontier_reused += reuse_len as u64;
        stats.frontier_rebuilt += (n - reuse_len) as u64;

        for i in reuse_len..n {
            let layer = match self.layers.last() {
                Some(previous) => pareto::next_layer(&previous.layer, &alternatives[i]),
                None => pareto::next_layer(&pareto::seed_layer(), &alternatives[i]),
            };
            pareto::check_cap(layer.len(), cap)?;
            self.layers.push(FrontierLayer {
                prefix_fp: prefix_fps[i],
                layer,
            });
        }
        Ok(())
    }

    fn reconstruct(&self, alternatives: &[JobAlternatives], index: usize) -> Assignment {
        let layers: Vec<&[Point]> = self.layers.iter().map(|l| l.layer.as_slice()).collect();
        let indices = pareto::reconstruct_indices(&layers, index);
        Assignment::from_indices(alternatives, &indices)
    }
}

/// A stateful combination optimizer caching backward-run DP rows (per
/// criterion) and Pareto layers across solves.
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
    frontier: FrontierCache,
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
            frontier: FrontierCache::new(),
            stats: OptStats::default(),
        }
    }

    /// Cumulative work counters since construction.
    #[must_use]
    pub fn stats(&self) -> OptStats {
        self.stats
    }

    /// Exports the full cached state as plain serializable data, for
    /// checkpointing. See [`OptimizerSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> OptimizerSnapshot {
        OptimizerSnapshot {
            cost_min: self.cost_min.snapshot(),
            cost_max: self.cost_max.snapshot(),
            time_min: self.time_min.snapshot(),
            time_min_resolution: self.time_min_resolution,
            frontier_cap: self.frontier.cap as u64,
            frontier_layers: self
                .frontier
                .layers
                .iter()
                .map(|l| FrontierLayerSnapshot {
                    prefix_fp: l.prefix_fp,
                    points: l
                        .layer
                        .iter()
                        .map(|p| FrontierPointSnapshot {
                            cost_micro: p.cost.micro(),
                            time_ticks: p.time.ticks(),
                            alt: p.alt as u64,
                            parent: p.parent as u64,
                        })
                        .collect(),
                })
                .collect(),
            stats: self.stats,
        }
    }

    /// Rebuilds an optimizer from a [`Self::snapshot`] export. The restored
    /// optimizer's subsequent solves produce the same results and the same
    /// [`OptStats`] deltas as the captured one's would have.
    #[must_use]
    pub fn from_snapshot(snapshot: &OptimizerSnapshot) -> Self {
        IncrementalOptimizer {
            cost_min: DpCache::restore(Sense::Minimize, &snapshot.cost_min),
            cost_max: DpCache::restore(Sense::Maximize, &snapshot.cost_max),
            time_min: DpCache::restore(Sense::Minimize, &snapshot.time_min),
            time_min_resolution: snapshot.time_min_resolution,
            frontier: FrontierCache {
                cap: snapshot.frontier_cap as usize,
                layers: snapshot
                    .frontier_layers
                    .iter()
                    .map(|l| FrontierLayer {
                        prefix_fp: l.prefix_fp,
                        layer: l
                            .points
                            .iter()
                            .map(|p| Point {
                                cost: Money::from_micro(p.cost_micro),
                                time: TimeDelta::new(p.time_ticks),
                                alt: p.alt as usize,
                                parent: p.parent as usize,
                            })
                            .collect(),
                    })
                    .collect(),
            },
            stats: snapshot.stats,
        }
    }

    fn note_high_water(&mut self) {
        let resident = self.cost_min.resident_rows()
            + self.cost_max.resident_rows()
            + self.time_min.resident_rows()
            + self.frontier.layers.len();
        self.stats.cache_high_water = self.stats.cache_high_water.max(resident as u64);
    }

    /// Incremental [`min_time_under_budget`]; see
    /// [`dp::min_time_under_budget_naive`] for semantics and errors.
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
        self.note_high_water();
        Ok(Assignment::from_indices(alternatives, &choices?))
    }

    /// Incremental [`min_cost_under_time`]; see
    /// [`dp::min_cost_under_time_naive`] for semantics and errors.
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
        self.note_high_water();
        Ok(Assignment::from_indices(alternatives, &choices?))
    }

    /// Incremental [`max_cost_under_time`]; see
    /// [`dp::max_cost_under_time_naive`] for semantics and errors.
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
        self.note_high_water();
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

    /// Exact `min T(s̄)` s.t. `C(s̄) ≤ budget` from the cached Pareto
    /// frontier (equivalent to
    /// `ParetoFrontier::new(..)?.min_time_under_budget(..)`).
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
        let ensured = self.frontier.ensure(alternatives, cap, &mut self.stats);
        self.note_high_water();
        ensured?;
        let last = &self
            .frontier
            .layers
            .last()
            .expect("batch is non-empty")
            .layer;
        let best = pareto::best_under_budget(last, budget).ok_or(OptimizeError::Infeasible)?;
        Ok(self.frontier.reconstruct(alternatives, best))
    }

    /// Exact `min C(s̄)` s.t. `T(s̄) ≤ quota` from the cached Pareto
    /// frontier (equivalent to
    /// `ParetoFrontier::new(..)?.min_cost_under_time(..)`).
    ///
    /// # Errors
    ///
    /// See [`Self::pareto_min_time_under_budget`].
    pub fn pareto_min_cost_under_time(
        &mut self,
        alternatives: &[JobAlternatives],
        quota: TimeDelta,
    ) -> Result<Assignment, OptimizeError> {
        let ensured = self
            .frontier
            .ensure(alternatives, DEFAULT_FRONTIER_CAP, &mut self.stats);
        self.note_high_water();
        ensured?;
        let last = &self
            .frontier
            .layers
            .last()
            .expect("batch is non-empty")
            .layer;
        let best = pareto::best_under_quota(last, quota).ok_or(OptimizeError::Infeasible)?;
        Ok(self.frontier.reconstruct(alternatives, best))
    }
}

/// Minimizes total batch time `T(s̄)` subject to the budget `C(s̄) ≤ B*`
/// (the paper's Sec. 5 *time-minimization* task), via a one-shot
/// [`IncrementalOptimizer`]. Hold an optimizer instead to reuse rows
/// across calls.
///
/// # Errors
///
/// See [`dp::min_time_under_budget_naive`], the from-scratch oracle this
/// is byte-identical to.
pub fn min_time_under_budget(
    alternatives: &[JobAlternatives],
    budget: Money,
    resolution: Money,
) -> Result<Assignment, OptimizeError> {
    IncrementalOptimizer::new().min_time_under_budget(alternatives, budget, resolution)
}

/// Minimizes total batch cost `C(s̄)` subject to the time quota
/// `T(s̄) ≤ T*` (the paper's Sec. 5 *cost-minimization* task), via a
/// one-shot [`IncrementalOptimizer`].
///
/// # Errors
///
/// See [`dp::min_cost_under_time_naive`], the from-scratch oracle this is
/// byte-identical to.
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
/// See [`dp::max_cost_under_time_naive`], the from-scratch oracle this is
/// byte-identical to.
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
    fn pareto_prefix_reuse_after_tail_mutation() {
        let mut t = table();
        let mut opt = IncrementalOptimizer::new();
        let budget = Money::from_credits(20);
        let a = opt.pareto_min_time_under_budget(&t, budget).unwrap();
        let naive = crate::ParetoFrontier::new(&t).unwrap();
        assert_eq!(a, naive.min_time_under_budget(budget).unwrap());
        assert_eq!(opt.stats().frontier_rebuilt, 3);
        // Mutate the *last* job: layers 0..2 reused.
        t[2] = alts(2, &[(6, 15), (2, 45)]);
        let b = opt.pareto_min_time_under_budget(&t, budget).unwrap();
        assert_eq!(opt.stats().frontier_reused, 2);
        assert_eq!(opt.stats().frontier_rebuilt, 4);
        let naive = crate::ParetoFrontier::new(&t).unwrap();
        assert_eq!(b, naive.min_time_under_budget(budget).unwrap());
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

    /// Warms an optimizer across all three DP criteria plus the Pareto
    /// frontier so a snapshot carries non-trivial state everywhere.
    fn warmed() -> (Vec<JobAlternatives>, IncrementalOptimizer) {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&t, TimeDelta::new(110)).unwrap();
        opt.max_cost_under_time(&t, TimeDelta::new(90)).unwrap();
        opt.min_time_under_budget(&t, Money::from_credits(15), Money::from_credits(1))
            .unwrap();
        opt.pareto_min_time_under_budget(&t, Money::from_credits(20))
            .unwrap();
        (t, opt)
    }

    #[test]
    fn snapshot_restore_is_behavior_identical() {
        let (mut t, mut original) = warmed();
        let mut restored = IncrementalOptimizer::from_snapshot(&original.snapshot());
        assert_eq!(restored.stats(), original.stats());

        // A front mutation followed by re-solves: both optimizers must do
        // the same work (stats) and return the same assignments.
        t[0] = alts(0, &[(7, 12), (2, 40)]);
        let a = original
            .min_cost_under_time(&t, TimeDelta::new(110))
            .unwrap();
        let b = restored
            .min_cost_under_time(&t, TimeDelta::new(110))
            .unwrap();
        assert_eq!(a, b);
        let a = original
            .pareto_min_time_under_budget(&t, Money::from_credits(18))
            .unwrap();
        let b = restored
            .pareto_min_time_under_budget(&t, Money::from_credits(18))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(
            restored.stats(),
            original.stats(),
            "a restored cache must reuse and rebuild exactly what the \
             original would"
        );
    }

    #[test]
    fn snapshot_serializes_round_trip() {
        let (_, opt) = warmed();
        let snapshot = opt.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: OptimizerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
        // The restored optimizer re-exports the same snapshot.
        assert_eq!(
            IncrementalOptimizer::from_snapshot(&back).snapshot(),
            snapshot
        );
    }

    #[test]
    fn snapshot_rows_keep_the_option_wire_form() {
        let t = table();
        let mut opt = IncrementalOptimizer::new();
        opt.min_cost_under_time(&t, TimeDelta::new(110)).unwrap();
        opt.max_cost_under_time(&t, TimeDelta::new(110)).unwrap();
        let snapshot = opt.snapshot();
        for cache in [&snapshot.cost_min, &snapshot.cost_max] {
            // Nothing fits in fewer than 10 + 10 + 15 ticks, and exactly
            // one combination (10 + 8 + 6 credits) fits in 35. The cells
            // left of it hold the sentinel plus two jobs' values in
            // memory; on the wire they are `None`, as they always were.
            let row = &cache.rows[0].row;
            assert_eq!(row.len(), 111);
            assert!(row[..35].iter().all(Option::is_none));
            assert_eq!(row[35], Some(Money::from_credits(24).micro()));
            assert!(row[35..].iter().all(Option::is_some));
        }
    }

    #[test]
    fn empty_snapshot_restores_a_cold_optimizer() {
        let cold = IncrementalOptimizer::new();
        let restored = IncrementalOptimizer::from_snapshot(&cold.snapshot());
        assert_eq!(restored.snapshot(), cold.snapshot());
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
