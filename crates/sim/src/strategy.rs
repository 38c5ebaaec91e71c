//! Scheduling strategies — the paper's third future-work thread (Sec. 7,
//! after refs [13, 14]): because nodes can fail between planning and
//! execution, the metascheduler should hold "a set of versions of
//! scheduling, or a strategy, … instead of a single version".
//!
//! A [`ScheduleStrategy`] is an ordered list of complete assignments
//! (versions). Version 1 is the cost-optimal plan; each further version is
//! built by *forbidding the nodes used by all earlier versions*, so the
//! versions degrade gracefully: when a node fails, the first version whose
//! node set avoids every failed node executes unchanged.

use std::collections::BTreeSet;

use ecosched_core::{JobAlternatives, NodeId, TimeDelta};
use ecosched_optimize::{min_cost_under_time, Assignment, OptimizeError};
use serde::{Deserialize, Serialize};

/// One scheduling version: a complete assignment plus the nodes it uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyVersion {
    /// The combination to execute.
    pub assignment: Assignment,
    /// Every node any chosen window runs on.
    pub nodes: BTreeSet<NodeId>,
}

impl StrategyVersion {
    /// Returns `true` if this version uses none of the failed nodes.
    #[must_use]
    pub fn survives(&self, failed: &BTreeSet<NodeId>) -> bool {
        self.nodes.is_disjoint(failed)
    }
}

/// An ordered set of scheduling versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStrategy {
    versions: Vec<StrategyVersion>,
}

impl ScheduleStrategy {
    /// Builds up to `max_versions` versions over the covered jobs'
    /// alternatives. Every version minimizes total cost within the loose
    /// quota `Σ_i max_j t_ij` (always feasible), the later ones over
    /// progressively node-disjoint alternative subsets. A job with no
    /// alternative avoiding the nodes used so far keeps its full set, so
    /// a later version may overlap the earlier ones on that job's nodes.
    ///
    /// # Errors
    ///
    /// Propagates [`OptimizeError`] from the first version's optimization
    /// (a malformed or empty table). Later versions stop silently when no
    /// further node-diverse version exists.
    pub fn build(
        alternatives: &[JobAlternatives],
        max_versions: usize,
    ) -> Result<Self, OptimizeError> {
        let quota: TimeDelta = alternatives
            .iter()
            .map(|ja| ja.iter().map(|a| a.time()).max().unwrap_or(TimeDelta::ZERO))
            .sum();
        let first = min_cost_under_time(alternatives, quota.max(TimeDelta::new(1)))?;
        let mut versions = vec![version_from(alternatives, first)];
        let mut forbidden: BTreeSet<NodeId> = versions[0].nodes.clone();

        while versions.len() < max_versions {
            // Restrict each job to alternatives avoiding every node used
            // so far.
            let mut restricted: Vec<JobAlternatives> = Vec::with_capacity(alternatives.len());
            let mut fully_diverse = true;
            for ja in alternatives {
                let mut filtered = JobAlternatives::new(ja.job());
                for alt in ja {
                    let clean = alt
                        .window()
                        .slots()
                        .iter()
                        .all(|ws| !forbidden.contains(&ws.node()));
                    if clean {
                        filtered.push(alt.clone());
                    }
                }
                if filtered.is_empty() {
                    fully_diverse = false;
                    filtered = ja.clone();
                }
                restricted.push(filtered);
            }
            let Ok(assignment) = min_cost_under_time(&restricted, quota.max(TimeDelta::new(1)))
            else {
                break;
            };
            let version = version_from(&restricted, assignment);
            if versions.iter().any(|v| v.nodes == version.nodes) {
                // No new diversity left; a repeat version adds nothing.
                break;
            }
            forbidden.extend(version.nodes.iter().copied());
            versions.push(version);
            if !fully_diverse && versions.len() >= max_versions {
                break;
            }
        }
        Ok(ScheduleStrategy { versions })
    }

    /// The versions, best first.
    #[must_use]
    pub fn versions(&self) -> &[StrategyVersion] {
        &self.versions
    }

    /// Number of versions held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Returns `true` if the strategy holds no version (never produced by
    /// [`ScheduleStrategy::build`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The first version that avoids every failed node, if any.
    #[must_use]
    pub fn select(&self, failed: &BTreeSet<NodeId>) -> Option<&StrategyVersion> {
        self.versions.iter().find(|v| v.survives(failed))
    }
}

fn version_from(alternatives: &[JobAlternatives], assignment: Assignment) -> StrategyVersion {
    let mut nodes = BTreeSet::new();
    for choice in assignment.choices() {
        let ja = alternatives
            .iter()
            .find(|ja| ja.job() == choice.job)
            .expect("choices refer to the optimized table");
        for ws in ja.alternatives()[choice.alternative].window().slots() {
            nodes.insert(ws.node());
        }
    }
    StrategyVersion { assignment, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{
        Alternative, JobId, Perf, Price, Slot, SlotId, Span, TimePoint, Window, WindowSlot,
    };

    /// One job with one single-node alternative per listed (node, price).
    fn job_with_options(job: u32, options: &[(u32, i64)]) -> JobAlternatives {
        let mut ja = JobAlternatives::new(JobId::new(job));
        for &(node, price) in options {
            let slot = Slot::new(
                SlotId::new(u64::from(node)),
                NodeId::new(node),
                Perf::UNIT,
                Price::from_credits(price),
                Span::new(TimePoint::ZERO, TimePoint::new(1_000)).unwrap(),
            )
            .unwrap();
            let ws = WindowSlot::from_slot(&slot, TimeDelta::new(10)).unwrap();
            ja.push(Alternative::new(
                JobId::new(job),
                Window::new(TimePoint::ZERO, vec![ws]).unwrap(),
            ));
        }
        ja
    }

    #[test]
    fn builds_node_disjoint_versions() {
        // Each job can run on node 0/1 (cheap) or node 2/3 (pricey).
        let table = vec![
            job_with_options(0, &[(0, 1), (2, 5)]),
            job_with_options(1, &[(1, 1), (3, 5)]),
        ];
        let strategy = ScheduleStrategy::build(&table, 3).unwrap();
        assert!(strategy.len() >= 2);
        let v1 = &strategy.versions()[0];
        let v2 = &strategy.versions()[1];
        // Best version takes the cheap nodes; the backup the pricey ones.
        assert_eq!(v1.nodes, BTreeSet::from([NodeId::new(0), NodeId::new(1)]));
        assert_eq!(v2.nodes, BTreeSet::from([NodeId::new(2), NodeId::new(3)]));
        assert!(v1.assignment.total_cost() < v2.assignment.total_cost());
    }

    #[test]
    fn select_falls_through_failed_versions() {
        let table = vec![
            job_with_options(0, &[(0, 1), (2, 5)]),
            job_with_options(1, &[(1, 1), (3, 5)]),
        ];
        let strategy = ScheduleStrategy::build(&table, 3).unwrap();
        // No failures → the optimum.
        assert_eq!(
            strategy.select(&BTreeSet::new()).unwrap(),
            &strategy.versions()[0]
        );
        // Node 0 fails → version 2 executes unchanged.
        let failed = BTreeSet::from([NodeId::new(0)]);
        let chosen = strategy.select(&failed).unwrap();
        assert!(chosen.survives(&failed));
        assert_eq!(chosen, &strategy.versions()[1]);
        // Everything fails → no version survives.
        let all = BTreeSet::from([
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        ]);
        assert!(strategy.select(&all).is_none());
    }

    #[test]
    fn overlap_fallback_does_not_duplicate_versions() {
        let table = vec![job_with_options(0, &[(0, 1)])];
        let strategy = ScheduleStrategy::build(&table, 3).unwrap();
        // The fallback re-derives the same node set, which is dropped.
        assert_eq!(strategy.len(), 1);
        assert!(!strategy.is_empty());
    }

    #[test]
    fn max_versions_is_honoured() {
        let table = vec![job_with_options(
            0,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        )];
        let strategy = ScheduleStrategy::build(&table, 4).unwrap();
        assert_eq!(strategy.len(), 4);
        // Versions are increasingly expensive: cost-optimal first.
        for pair in strategy.versions().windows(2) {
            assert!(pair[0].assignment.total_cost() <= pair[1].assignment.total_cost());
        }
    }

    #[test]
    fn empty_table_is_an_error() {
        assert!(ScheduleStrategy::build(&[], 3).is_err());
    }
}
