//! Exact Pareto-frontier solver — an extension beyond the paper's
//! discretized backward run.
//!
//! Instead of quantizing money, this solver sweeps the jobs once, keeping
//! for every suffix the Pareto frontier of achievable `(total cost, total
//! time)` pairs with backpointers. Both constrained problems can then be
//! answered *exactly* from the final frontier. Frontier size is bounded in
//! practice by the number of distinct cost sums; a configurable cap guards
//! against pathological blow-up.

use ecosched_core::{JobAlternatives, Money, TimeDelta};

use crate::assignment::Assignment;
use crate::error::OptimizeError;

/// One frontier point: cumulative measures plus backpointers for
/// reconstruction.
#[derive(Debug, Clone, Copy)]
struct Point {
    cost: Money,
    time: TimeDelta,
    /// Alternative index chosen for the layer's job.
    alt: usize,
    /// Index of the predecessor point in the previous layer.
    parent: usize,
}

/// The virtual layer before the first job: one zero point.
fn seed_layer() -> Vec<Point> {
    vec![Point {
        cost: Money::ZERO,
        time: TimeDelta::ZERO,
        alt: usize::MAX,
        parent: usize::MAX,
    }]
}

/// Builds the next frontier layer: every (previous point × alternative)
/// candidate, pruned down to the Pareto-optimal set.
fn next_layer(previous: &[Point], ja: &JobAlternatives) -> Vec<Point> {
    let mut candidates: Vec<Point> = Vec::with_capacity(previous.len() * ja.len());
    for (parent, prev) in previous.iter().enumerate() {
        for (alt, a) in ja.iter().enumerate() {
            candidates.push(Point {
                cost: prev.cost + a.cost(),
                time: prev.time + a.time(),
                alt,
                parent,
            });
        }
    }
    prune(candidates)
}

/// Index of the time-minimal point within `budget`, if any.
fn best_under_budget(last: &[Point], budget: Money) -> Option<usize> {
    last.iter()
        .enumerate()
        .filter(|(_, p)| p.cost <= budget)
        .min_by_key(|(_, p)| (p.time, p.cost))
        .map(|(i, _)| i)
}

/// Index of the cost-minimal point within `quota`, if any.
fn best_under_quota(last: &[Point], quota: TimeDelta) -> Option<usize> {
    last.iter()
        .enumerate()
        .filter(|(_, p)| p.time <= quota)
        .min_by_key(|(_, p)| (p.cost, p.time))
        .map(|(i, _)| i)
}

/// Walks backpointers from `index` in the last layer down to the first,
/// yielding one alternative index per job.
fn reconstruct_indices(layers: &[&[Point]], mut index: usize) -> Vec<usize> {
    let mut indices = vec![0usize; layers.len()];
    for (i, layer) in layers.iter().enumerate().rev() {
        let point = layer[index];
        indices[i] = point.alt;
        index = point.parent;
    }
    indices
}

/// The layered Pareto frontier over a batch's alternatives.
#[derive(Debug)]
pub struct ParetoFrontier<'a> {
    alternatives: &'a [JobAlternatives],
    layers: Vec<Vec<Point>>,
}

/// Default cap on any single layer's frontier size.
pub const DEFAULT_FRONTIER_CAP: usize = 200_000;

impl<'a> ParetoFrontier<'a> {
    /// Builds the frontier over `alternatives` with the default size cap.
    ///
    /// # Errors
    ///
    /// See [`ParetoFrontier::with_cap`].
    pub fn new(alternatives: &'a [JobAlternatives]) -> Result<Self, OptimizeError> {
        Self::with_cap(alternatives, DEFAULT_FRONTIER_CAP)
    }

    /// Builds the frontier with an explicit per-layer size cap.
    ///
    /// # Errors
    ///
    /// * [`OptimizeError::EmptyBatch`] / [`OptimizeError::NoAlternatives`]
    ///   on a malformed table;
    /// * [`OptimizeError::InvalidParameter`] if a layer exceeds `cap`.
    pub fn with_cap(
        alternatives: &'a [JobAlternatives],
        cap: usize,
    ) -> Result<Self, OptimizeError> {
        crate::dp::validate(alternatives)?;
        let mut layers: Vec<Vec<Point>> = Vec::with_capacity(alternatives.len());
        for ja in alternatives {
            let frontier = match layers.last() {
                Some(previous) => next_layer(previous, ja),
                None => next_layer(&seed_layer(), ja),
            };
            check_cap(frontier.len(), cap)?;
            layers.push(frontier);
        }
        Ok(ParetoFrontier {
            alternatives,
            layers,
        })
    }

    /// The final frontier as `(total cost, total time)` pairs, sorted by
    /// increasing cost (and therefore decreasing time).
    #[must_use]
    pub fn points(&self) -> Vec<(Money, TimeDelta)> {
        self.layers
            .last()
            .map(|layer| layer.iter().map(|p| (p.cost, p.time)).collect())
            .unwrap_or_default()
    }

    /// Exact `min T(s̄)` s.t. `C(s̄) ≤ budget`.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Infeasible`] when no point fits the budget.
    pub fn min_time_under_budget(&self, budget: Money) -> Result<Assignment, OptimizeError> {
        let last = self.layers.last().expect("layers are non-empty");
        let best = best_under_budget(last, budget).ok_or(OptimizeError::Infeasible)?;
        Ok(self.reconstruct(best))
    }

    /// Exact `min C(s̄)` s.t. `T(s̄) ≤ quota`.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Infeasible`] when no point fits the quota.
    pub fn min_cost_under_time(&self, quota: TimeDelta) -> Result<Assignment, OptimizeError> {
        let last = self.layers.last().expect("layers are non-empty");
        let best = best_under_quota(last, quota).ok_or(OptimizeError::Infeasible)?;
        Ok(self.reconstruct(best))
    }

    /// Materializes every frontier point as a full [`Assignment`], sorted
    /// by increasing cost (and therefore decreasing time) — the menu of
    /// efficient combinations the VO administration chooses from.
    #[must_use]
    pub fn assignments(&self) -> Vec<Assignment> {
        let last = self.layers.last().expect("layers are non-empty");
        (0..last.len()).map(|i| self.reconstruct(i)).collect()
    }

    fn reconstruct(&self, index: usize) -> Assignment {
        let layers: Vec<&[Point]> = self.layers.iter().map(Vec::as_slice).collect();
        let indices = reconstruct_indices(&layers, index);
        Assignment::from_indices(self.alternatives, &indices)
    }
}

/// Errors when a layer exceeds the configured frontier size cap.
fn check_cap(layer_len: usize, cap: usize) -> Result<(), OptimizeError> {
    if layer_len > cap {
        return Err(OptimizeError::InvalidParameter {
            reason: format!("Pareto frontier exceeded cap ({layer_len} > {cap})"),
        });
    }
    Ok(())
}

/// Keeps only Pareto-optimal points: minimal time among any cost level,
/// strictly improving as cost grows.
fn prune(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_by_key(|p| (p.cost, p.time));
    let mut frontier: Vec<Point> = Vec::new();
    for p in points {
        match frontier.last() {
            Some(last) if p.time >= last.time => {} // dominated
            _ => frontier.push(p),
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{min_cost_under_time_brute, min_time_under_budget_brute};
    use crate::test_support::alts;

    fn table() -> Vec<JobAlternatives> {
        vec![
            alts(0, &[(10, 10), (2, 40), (5, 20)]),
            alts(1, &[(8, 10), (3, 30)]),
            alts(2, &[(6, 15), (1, 60), (4, 25)]),
        ]
    }

    #[test]
    fn frontier_points_are_strictly_improving() {
        let t = table();
        let f = ParetoFrontier::new(&t).unwrap();
        let pts = f.points();
        assert!(!pts.is_empty());
        for pair in pts.windows(2) {
            assert!(pair[0].0 < pair[1].0, "costs strictly increase");
            assert!(pair[0].1 > pair[1].1, "times strictly decrease");
        }
    }

    #[test]
    fn matches_brute_force_min_time() {
        let t = table();
        let f = ParetoFrontier::new(&t).unwrap();
        for budget in [10, 13, 15, 18, 20, 24] {
            let budget = Money::from_credits(budget);
            match (
                f.min_time_under_budget(budget),
                min_time_under_budget_brute(&t, budget),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.total_time(), b.total_time(), "budget {budget}");
                    assert!(a.total_cost() <= budget);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (a, b) => panic!("feasibility disagrees: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn matches_brute_force_min_cost() {
        let t = table();
        let f = ParetoFrontier::new(&t).unwrap();
        for quota in [35, 50, 70, 90, 130] {
            let quota = TimeDelta::new(quota);
            match (
                f.min_cost_under_time(quota),
                min_cost_under_time_brute(&t, quota),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.total_cost(), b.total_cost(), "quota {quota}");
                    assert!(a.total_time() <= quota);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (a, b) => panic!("feasibility disagrees: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn infeasible_constraints_error() {
        let t = table();
        let f = ParetoFrontier::new(&t).unwrap();
        assert_eq!(
            f.min_time_under_budget(Money::from_credits(5)).unwrap_err(),
            OptimizeError::Infeasible
        );
        assert_eq!(
            f.min_cost_under_time(TimeDelta::new(30)).unwrap_err(),
            OptimizeError::Infeasible
        );
    }

    #[test]
    fn cap_is_enforced() {
        let t = table();
        assert!(matches!(
            ParetoFrontier::with_cap(&t, 1).unwrap_err(),
            OptimizeError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn malformed_tables_rejected() {
        assert!(ParetoFrontier::new(&[]).is_err());
        let t = vec![alts(0, &[])];
        assert!(ParetoFrontier::new(&t).is_err());
    }
}
