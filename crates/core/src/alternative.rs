//! Alternatives: candidate executions found for a job.
//!
//! The alternatives search (Sec. 2 of the paper) collects, for every job in
//! the batch, a set of disjoint candidate windows. The combination optimizer
//! later picks exactly one [`Alternative`] per job.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::job::JobId;
use crate::money::Money;
use crate::time::TimeDelta;
use crate::window::Window;

/// A candidate execution of one job: a concrete window plus its derived
/// cost/time measures (the paper's `c_i(s̄_i)` and `t_i(s̄_i)`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alternative {
    job: JobId,
    window: Window,
}

impl Alternative {
    /// Wraps a window found for `job`.
    #[must_use]
    pub fn new(job: JobId, window: Window) -> Self {
        Alternative { job, window }
    }

    /// The job this alternative belongs to.
    #[must_use]
    pub const fn job(&self) -> JobId {
        self.job
    }

    /// The underlying window.
    #[must_use]
    pub const fn window(&self) -> &Window {
        &self.window
    }

    /// Consumes the alternative, returning the window.
    #[must_use]
    pub fn into_window(self) -> Window {
        self.window
    }

    /// Execution cost `c_i(s̄_i)`: the window's total cost.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.window.total_cost()
    }

    /// Execution time `t_i(s̄_i)`: elapsed time from job start to the end of
    /// its slowest task.
    #[must_use]
    pub fn time(&self) -> TimeDelta {
        self.window.length()
    }
}

impl fmt::Display for Alternative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← {}", self.job, self.window)
    }
}

/// All alternatives found for one job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobAlternatives {
    job: JobId,
    found: Vec<Alternative>,
}

impl JobAlternatives {
    /// Creates an (initially empty) alternatives set for `job`.
    #[must_use]
    pub fn new(job: JobId) -> Self {
        JobAlternatives {
            job,
            found: Vec::new(),
        }
    }

    /// The job these alternatives belong to.
    #[must_use]
    pub const fn job(&self) -> JobId {
        self.job
    }

    /// Records another alternative.
    ///
    /// # Panics
    ///
    /// Panics if the alternative belongs to a different job.
    pub fn push(&mut self, alternative: Alternative) {
        assert_eq!(
            alternative.job(),
            self.job,
            "alternative for {} pushed into set for {}",
            alternative.job(),
            self.job
        );
        self.found.push(alternative);
    }

    /// The alternatives in discovery order (earliest pass first).
    #[must_use]
    pub fn alternatives(&self) -> &[Alternative] {
        &self.found
    }

    /// Number of alternatives found.
    #[must_use]
    pub fn len(&self) -> usize {
        self.found.len()
    }

    /// Returns `true` if no alternative was found for the job.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.found.is_empty()
    }

    /// Iterates the alternatives.
    pub fn iter(&self) -> std::slice::Iter<'_, Alternative> {
        self.found.iter()
    }
}

impl IntoIterator for JobAlternatives {
    type Item = Alternative;
    type IntoIter = std::vec::IntoIter<Alternative>;
    fn into_iter(self) -> Self::IntoIter {
        self.found.into_iter()
    }
}

impl<'a> IntoIterator for &'a JobAlternatives {
    type Item = &'a Alternative;
    type IntoIter = std::slice::Iter<'a, Alternative>;
    fn into_iter(self) -> Self::IntoIter {
        self.found.iter()
    }
}

/// The alternatives found for an entire batch, in batch (priority) order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchAlternatives {
    per_job: Vec<JobAlternatives>,
}

impl BatchAlternatives {
    /// Creates sets for the given jobs, in priority order.
    #[must_use]
    pub fn for_jobs(jobs: impl IntoIterator<Item = JobId>) -> Self {
        BatchAlternatives {
            per_job: jobs.into_iter().map(JobAlternatives::new).collect(),
        }
    }

    /// The per-job sets in batch order.
    #[must_use]
    pub fn per_job(&self) -> &[JobAlternatives] {
        &self.per_job
    }

    /// Mutable access for the search driver.
    #[must_use]
    pub fn per_job_mut(&mut self) -> &mut [JobAlternatives] {
        &mut self.per_job
    }

    /// The set for a particular job.
    #[must_use]
    pub fn get(&self, job: JobId) -> Option<&JobAlternatives> {
        self.per_job.iter().find(|ja| ja.job() == job)
    }

    /// Total alternatives found across all jobs.
    #[must_use]
    pub fn total_found(&self) -> usize {
        self.per_job.iter().map(JobAlternatives::len).sum()
    }

    /// Mean alternatives per job (the statistic the paper reports: e.g.
    /// 7.39 for ALP vs 34.28 for AMP). Returns 0.0 for an empty batch.
    #[must_use]
    pub fn avg_per_job(&self) -> f64 {
        if self.per_job.is_empty() {
            0.0
        } else {
            self.total_found() as f64 / self.per_job.len() as f64
        }
    }

    /// Returns `true` if *every* job has at least one alternative — the
    /// precondition for an experiment to be counted in the paper's study.
    #[must_use]
    pub fn all_jobs_covered(&self) -> bool {
        self.per_job.iter().all(|ja| !ja.is_empty())
    }

    /// Jobs with no alternatives (to be postponed to the next iteration).
    pub fn uncovered_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.per_job
            .iter()
            .filter(|ja| ja.is_empty())
            .map(JobAlternatives::job)
    }
}

impl IntoIterator for BatchAlternatives {
    type Item = JobAlternatives;
    type IntoIter = std::vec::IntoIter<JobAlternatives>;
    fn into_iter(self) -> Self::IntoIter {
        self.per_job.into_iter()
    }
}

impl fmt::Display for BatchAlternatives {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "alternatives: {} total, {:.2} per job",
            self.total_found(),
            self.avg_per_job()
        )?;
        for ja in &self.per_job {
            writeln!(f, "  {}: {} found", ja.job(), ja.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::perf::Perf;
    use crate::resource::NodeId;
    use crate::slot::{Slot, SlotId};
    use crate::time::{Span, TimePoint};
    use crate::window::WindowSlot;

    fn alt(job: u32, price: i64, runtime: i64) -> Alternative {
        let slot = Slot::new(
            SlotId::new(0),
            NodeId::new(0),
            Perf::UNIT,
            Price::from_credits(price),
            Span::new(TimePoint::ZERO, TimePoint::new(1000)).unwrap(),
        )
        .unwrap();
        let ws = WindowSlot::from_slot(&slot, TimeDelta::new(runtime)).unwrap();
        Alternative::new(
            JobId::new(job),
            Window::new(TimePoint::ZERO, vec![ws]).unwrap(),
        )
    }

    #[test]
    fn measures_come_from_window() {
        let a = alt(0, 3, 40);
        assert_eq!(a.cost(), Money::from_credits(120));
        assert_eq!(a.time(), TimeDelta::new(40));
    }

    #[test]
    #[should_panic(expected = "pushed into set")]
    fn pushing_wrong_job_panics() {
        let mut set = JobAlternatives::new(JobId::new(0));
        set.push(alt(1, 1, 1));
    }

    #[test]
    fn batch_statistics() {
        let mut batch = BatchAlternatives::for_jobs([JobId::new(0), JobId::new(1)]);
        batch.per_job_mut()[0].push(alt(0, 1, 10));
        batch.per_job_mut()[0].push(alt(0, 2, 10));
        batch.per_job_mut()[1].push(alt(1, 1, 10));
        assert_eq!(batch.total_found(), 3);
        assert!((batch.avg_per_job() - 1.5).abs() < 1e-12);
        assert!(batch.all_jobs_covered());
        assert_eq!(batch.uncovered_jobs().count(), 0);
    }

    #[test]
    fn uncovered_jobs_reported() {
        let batch = BatchAlternatives::for_jobs([JobId::new(0), JobId::new(1)]);
        assert!(!batch.all_jobs_covered());
        let uncovered: Vec<JobId> = batch.uncovered_jobs().collect();
        assert_eq!(uncovered, vec![JobId::new(0), JobId::new(1)]);
    }

    #[test]
    fn empty_batch_avg_is_zero() {
        let batch = BatchAlternatives::for_jobs([]);
        assert_eq!(batch.avg_per_job(), 0.0);
        assert!(batch.all_jobs_covered());
    }

    #[test]
    fn get_finds_job_set() {
        let batch = BatchAlternatives::for_jobs([JobId::new(3)]);
        assert!(batch.get(JobId::new(3)).is_some());
        assert!(batch.get(JobId::new(4)).is_none());
    }

    #[test]
    fn display_reports_totals() {
        let batch = BatchAlternatives::for_jobs([JobId::new(0)]);
        assert!(format!("{batch}").contains("0 total"));
    }
}
