//! The metascheduler loop: job batch scheduling runs iteratively on
//! periodically updated local schedules (paper Sec. 1–2).
//!
//! Each cycle the local managers publish fresh vacant slots, newly arrived
//! jobs join whatever was postponed before, and one scheduling iteration
//! runs ([`crate::run_iteration`], planned from that cycle's own
//! alternatives). Jobs that fail to accumulate `N` suitable slots are
//! carried to the next cycle, exactly as the paper prescribes — and they
//! are all that is carried: no search or optimizer state crosses cycles.
//!
//! # Revocation-tolerant execution
//!
//! The paper's Sec. 5 study keeps the environment static between the
//! combination optimization and "scheduled". Our extension inserts an
//! execution step: a [`RevocationModel`] withdraws vacant regions after
//! commitment, and every broken lease goes through the shared recovery
//! tiers of [`crate::cycle`] (failover → bounded repair search → postpone)
//! within a bounded attempt budget ([`RepairPolicy`]).
//!
//! Every job therefore ends each cycle in a terminal [`JobFate`], and
//! [`RepairStats`] accounts for 100% of the injected revocations.

use ecosched_core::{
    Batch, Job, JobAlternatives, JobId, Lease, LeaseOrigin, Money, ResourceRequest, Revocation,
    SlotList, TimePoint,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use ecosched_optimize::OptStats;
use ecosched_select::SlotSelector;

use crate::config::{JobGenConfig, SlotGenConfig};
use crate::cycle::{self, PostponeReason, Recovery, RepairPolicy};
use crate::iteration::{run_iteration, IterationConfig, IterationError};
use crate::job_gen::JobGenerator;
use crate::revocation::{RepairStats, RevocationConfig, RevocationModel};
use crate::slot_gen::SlotGenerator;

/// The terminal state of one job at the end of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobFate {
    /// The planned window survived the cycle untouched.
    ScheduledIntact,
    /// Revocation broke the plan; a pre-computed alternative took over.
    FailedOver {
        /// Index of the adopted alternative within the job's set.
        alternative: usize,
    },
    /// A bounded repair search found a fresh window on the survivors.
    Repaired,
    /// The job is carried to the next cycle.
    Postponed(PostponeReason),
}

impl JobFate {
    /// Returns `true` when the job holds a window at cycle end.
    #[must_use]
    pub fn is_scheduled(&self) -> bool {
        !matches!(self, JobFate::Postponed(_))
    }
}

/// Summary of one metascheduler cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleSummary {
    /// Jobs in the cycle's batch (new + carried over).
    pub batch_size: usize,
    /// Jobs holding a window at cycle end (intact + failed over +
    /// repaired).
    pub scheduled: usize,
    /// Of the scheduled jobs, how many kept their planned window.
    pub scheduled_intact: usize,
    /// Of the scheduled jobs, how many adopted a surviving alternative.
    pub failed_over: usize,
    /// Of the scheduled jobs, how many hold a freshly searched window.
    pub repaired: usize,
    /// Jobs postponed to the next cycle.
    pub postponed: usize,
    /// Of the postponed jobs, how many were already carried over before.
    pub postponed_again: usize,
    /// Mean per-job execution time over the cycle's final leases (0 when
    /// no job holds a window).
    pub avg_time: f64,
    /// Mean per-job execution cost over the cycle's final leases.
    pub avg_cost: f64,
    /// Fault-and-repair accounting for the cycle.
    pub repair: RepairStats,
    /// Combination-optimizer work counters for the cycle's iteration.
    pub opt: OptStats,
}

/// The report of a multi-cycle metascheduler run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetaschedulerReport {
    /// Per-cycle summaries, in order.
    pub cycles: Vec<CycleSummary>,
}

impl MetaschedulerReport {
    /// Total jobs scheduled across all cycles.
    #[must_use]
    pub fn total_scheduled(&self) -> usize {
        self.cycles.iter().map(|c| c.scheduled).sum()
    }

    /// Jobs still postponed after the final cycle.
    #[must_use]
    pub fn final_backlog(&self) -> usize {
        self.cycles.last().map_or(0, |c| c.postponed)
    }

    /// Fault-and-repair totals over all cycles.
    #[must_use]
    pub fn repair_totals(&self) -> RepairStats {
        let mut total = RepairStats::default();
        for c in &self.cycles {
            total.merge(&c.repair);
        }
        total
    }
}

/// Everything one cycle decided, for tests and deep analysis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CycleTrace {
    /// The batch's resource requests, in batch (priority) order.
    pub requests: Vec<ResourceRequest>,
    /// The terminal fate of each job, in batch order.
    pub fates: Vec<JobFate>,
    /// The leases held at cycle end (scheduled jobs only, batch order).
    pub leases: Vec<Lease>,
    /// The revocations injected this cycle.
    pub revocations: Vec<Revocation>,
}

/// A [`MetaschedulerReport`] plus per-cycle traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// The per-cycle summaries.
    pub report: MetaschedulerReport,
    /// One trace per cycle, in order.
    pub traces: Vec<CycleTrace>,
}

/// The iterative metascheduler.
#[derive(Debug, Clone)]
pub struct Metascheduler {
    slot_gen: SlotGenerator,
    job_gen: JobGenerator,
    config: IterationConfig,
    revocation: RevocationModel,
    policy: RepairPolicy,
}

impl Metascheduler {
    /// Creates a metascheduler over the given generator configurations,
    /// with revocation disabled.
    ///
    /// # Panics
    ///
    /// Panics if either generator configuration is invalid.
    #[must_use]
    pub fn new(
        slot_config: SlotGenConfig,
        job_config: JobGenConfig,
        config: IterationConfig,
    ) -> Self {
        Metascheduler {
            slot_gen: SlotGenerator::new(slot_config),
            job_gen: JobGenerator::new(job_config),
            config,
            revocation: RevocationModel::new(RevocationConfig::none()),
            policy: RepairPolicy::default(),
        }
    }

    /// Enables the given revocation model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RevocationConfig::validate`]).
    #[must_use]
    pub fn with_revocation(mut self, config: RevocationConfig) -> Self {
        self.revocation = RevocationModel::new(config);
        self
    }

    /// Overrides the repair attempt budget.
    #[must_use]
    pub fn with_repair_policy(mut self, policy: RepairPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs `cycles` scheduling cycles with `selector`, carrying postponed
    /// jobs forward.
    ///
    /// # Errors
    ///
    /// Propagates [`IterationError`] from any cycle.
    pub fn run<R: Rng + ?Sized>(
        &self,
        selector: impl SlotSelector + Copy,
        cycles: usize,
        rng: &mut R,
    ) -> Result<MetaschedulerReport, IterationError> {
        self.run_traced(selector, cycles, rng).map(|t| t.report)
    }

    /// Like [`Metascheduler::run`], but also returns per-cycle traces
    /// (leases, fates, and injected revocations).
    ///
    /// # Errors
    ///
    /// Propagates [`IterationError`] from any cycle.
    pub fn run_traced<R: Rng + ?Sized>(
        &self,
        selector: impl SlotSelector + Copy,
        cycles: usize,
        rng: &mut R,
    ) -> Result<TracedRun, IterationError> {
        let mut report = MetaschedulerReport::default();
        let mut traces = Vec::with_capacity(cycles);
        // Requests carried over, with their carry count.
        let mut backlog: Vec<(ResourceRequest, u32)> = Vec::new();
        for _ in 0..cycles {
            let (summary, trace) = self.run_cycle(selector, &mut backlog, rng)?;
            report.cycles.push(summary);
            traces.push(trace);
        }
        Ok(TracedRun { report, traces })
    }

    /// One cycle: publish, batch, plan, commit, execute under revocation,
    /// and replace `backlog` with the jobs this cycle postponed.
    fn run_cycle<R: Rng + ?Sized>(
        &self,
        selector: impl SlotSelector + Copy,
        backlog: &mut Vec<(ResourceRequest, u32)>,
        rng: &mut R,
    ) -> Result<(CycleSummary, CycleTrace), IterationError> {
        let list: SlotList = self.slot_gen.generate(rng);
        let fresh = self.job_gen.generate(rng);

        // Postponed jobs take the head of the batch (they have waited
        // longest — highest priority), then the fresh arrivals. Ids are
        // re-keyed per cycle.
        let carried = backlog.len();
        let requests: Vec<ResourceRequest> = backlog
            .iter()
            .map(|(request, _)| *request)
            .chain(fresh.iter().map(|job| *job.request()))
            .collect();
        let jobs = requests
            .iter()
            .enumerate()
            .map(|(i, request)| Job::new(JobId::new(i as u32), *request))
            .collect();
        let batch = Batch::from_jobs(jobs).expect("re-keyed ids are unique");

        let mut result = run_iteration(selector, &list, &batch, &self.config)?;
        let (chosen, exec, _) = cycle::commit(&mut result, false);
        let per_job = result.search.alternatives.per_job();

        // Every covered job starts the cycle holding its chosen window;
        // the rest found no alternatives at all.
        let mut stats = RepairStats {
            postponed_no_alternatives: result.postponed.len() as u64,
            ..RepairStats::default()
        };
        let mut leases: Vec<Option<Lease>> = Vec::with_capacity(batch.len());
        let mut fates: Vec<JobFate> = Vec::with_capacity(batch.len());
        for (i, job) in batch.as_slice().iter().enumerate() {
            leases.push(chosen[i].map(|alt| {
                Lease::planned(job.id(), per_job[i].alternatives()[alt].window().clone())
            }));
            fates.push(match chosen[i] {
                Some(_) => JobFate::ScheduledIntact,
                None => JobFate::Postponed(PostponeReason::NoAlternatives),
            });
        }

        let revocations = if self.revocation.config().is_enabled() {
            self.execute_and_repair(
                &selector,
                &list,
                exec,
                &requests,
                per_job,
                &chosen,
                &mut leases,
                &mut fates,
                &mut stats,
                rng,
            )
        } else {
            Vec::new()
        };

        let mut postponed_again = 0;
        let mut next_backlog: Vec<(ResourceRequest, u32)> = Vec::new();
        for (i, fate) in fates.iter().enumerate() {
            if let JobFate::Postponed(_) = fate {
                let age = if i < carried {
                    postponed_again += 1;
                    backlog[i].1 + 1
                } else {
                    1
                };
                next_backlog.push((requests[i], age));
            }
        }
        *backlog = next_backlog;

        let leases: Vec<Lease> = leases.into_iter().flatten().collect();
        let summary = summarize(&fates, &leases, postponed_again, stats, result.opt);
        let trace = CycleTrace {
            requests,
            fates,
            leases,
            revocations,
        };
        Ok((summary, trace))
    }

    /// Injects this cycle's revocations into the execution list and runs
    /// the shared recovery tiers over every broken lease, in batch
    /// (priority) order. `leases`, `fates`, and `stats` are updated in
    /// place; returns the injected revocations.
    #[allow(clippy::too_many_arguments)]
    fn execute_and_repair<R: Rng + ?Sized>(
        &self,
        selector: &impl SlotSelector,
        published: &SlotList,
        mut exec: SlotList,
        requests: &[ResourceRequest],
        per_job: &[JobAlternatives],
        chosen: &[Option<usize>],
        leases: &mut [Option<Lease>],
        fates: &mut [JobFate],
        stats: &mut RepairStats,
        rng: &mut R,
    ) -> Vec<Revocation> {
        // The batch loop has no clock: a `now` at or before every
        // published start switches the core's clock clauses off.
        let now = published.earliest_start().unwrap_or(TimePoint::ZERO);
        let revocations = self.revocation.draw(published, rng);
        for r in &revocations {
            exec.remove_region(r.node, r.span);
        }
        stats.revocations_injected = revocations.len() as u64;

        // Classify every revocation and find the broken leases.
        let struck = |lease: &Lease| revocations.iter().any(|r| lease.broken_by(r));
        let broken: Vec<usize> = (0..leases.len())
            .filter(|&li| leases[li].as_ref().is_some_and(struck))
            .collect();
        stats.revocations_breaking = revocations
            .iter()
            .filter(|r| leases.iter().flatten().any(|lease| lease.broken_by(r)))
            .count() as u64;
        stats.revocations_vacant_only = stats.revocations_injected - stats.revocations_breaking;
        stats.leases_broken = broken.len() as u64;

        // Broken leases first release their surviving fragments, so later
        // failovers and repairs — including their own — can reuse them.
        let originals: Vec<Lease> = broken
            .iter()
            // invariant: `broken` only holds indices of leased jobs.
            .map(|&li| leases[li].take().expect("broken implies leased"))
            .collect();
        for original in &originals {
            cycle::release_broken(&mut exec, &original.window, &revocations, now);
        }

        for (li, original) in broken.into_iter().zip(originals) {
            let alternatives = per_job[li]
                .alternatives()
                .iter()
                .enumerate()
                .filter(|(alt_idx, _)| chosen[li] != Some(*alt_idx))
                .map(|(alt_idx, alt)| (alt_idx, alt.window()));
            let (window, origin, fate) = match cycle::recover(
                selector,
                &self.policy,
                &requests[li],
                &original.window,
                alternatives,
                &mut exec,
                &revocations,
                now,
                stats,
            ) {
                Recovery::FailedOver {
                    alternative,
                    window,
                } => (
                    window,
                    LeaseOrigin::FailedOver { alternative },
                    JobFate::FailedOver { alternative },
                ),
                Recovery::Repaired { window } => (window, LeaseOrigin::Repaired, JobFate::Repaired),
                Recovery::Postponed(reason) => {
                    fates[li] = JobFate::Postponed(reason);
                    continue;
                }
            };
            fates[li] = fate;
            leases[li] = Some(Lease {
                job: original.job,
                window,
                origin,
            });
        }
        revocations
    }
}

/// Folds one cycle's terminal fates and final leases into its summary.
fn summarize(
    fates: &[JobFate],
    leases: &[Lease],
    postponed_again: usize,
    repair: RepairStats,
    opt: OptStats,
) -> CycleSummary {
    let (mut scheduled_intact, mut failed_over, mut repaired) = (0, 0, 0);
    for fate in fates {
        match fate {
            JobFate::ScheduledIntact => scheduled_intact += 1,
            JobFate::FailedOver { .. } => failed_over += 1,
            JobFate::Repaired => repaired += 1,
            JobFate::Postponed(_) => {}
        }
    }
    let scheduled = scheduled_intact + failed_over + repaired;
    let (avg_time, avg_cost) = if leases.is_empty() {
        (0.0, 0.0)
    } else {
        let ticks: i64 = leases.iter().map(|l| l.window.length().ticks()).sum();
        let cost: Money = leases.iter().map(|l| l.window.total_cost()).sum();
        let n = leases.len() as f64;
        (ticks as f64 / n, cost.to_f64() / n)
    };
    CycleSummary {
        batch_size: fates.len(),
        scheduled,
        scheduled_intact,
        failed_over,
        repaired,
        postponed: fates.len() - scheduled,
        postponed_again,
        avg_time,
        avg_cost,
        repair,
        opt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_select::{Alp, Amp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn meta() -> Metascheduler {
        Metascheduler::new(
            SlotGenConfig::default(),
            JobGenConfig::default(),
            IterationConfig::default(),
        )
    }

    #[test]
    fn runs_requested_number_of_cycles() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = meta().run(Amp::new(), 5, &mut rng).unwrap();
        assert_eq!(report.cycles.len(), 5);
        assert!(report.total_scheduled() > 0);
    }

    #[test]
    fn batch_accounting_balances() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let report = meta().run(Alp::new(), 8, &mut rng).unwrap();
        for c in &report.cycles {
            assert_eq!(c.scheduled + c.postponed, c.batch_size);
            assert_eq!(c.scheduled_intact + c.failed_over + c.repaired, c.scheduled);
            assert!(c.postponed_again <= c.postponed);
        }
    }

    #[test]
    fn postponed_jobs_are_carried_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = meta().run(Alp::new(), 10, &mut rng).unwrap();
        // Whenever cycle k postpones jobs, cycle k+1's batch includes them.
        for pair in report.cycles.windows(2) {
            assert!(
                pair[1].batch_size >= pair[0].postponed + 3,
                "carried jobs must rejoin the next batch (plus ≥3 fresh)"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng1 = ChaCha8Rng::seed_from_u64(4);
        let mut rng2 = ChaCha8Rng::seed_from_u64(4);
        let a = meta().run(Amp::new(), 4, &mut rng1).unwrap();
        let b = meta().run(Amp::new(), 4, &mut rng2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_revocation_stays_fault_free() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let run = meta().run_traced(Amp::new(), 4, &mut rng).unwrap();
        let totals = run.report.repair_totals();
        assert_eq!(totals.revocations_injected, 0);
        assert_eq!(totals.leases_broken, 0);
        assert_eq!(totals.recovered(), 0);
        for (c, t) in run.report.cycles.iter().zip(&run.traces) {
            assert_eq!(c.scheduled_intact, c.scheduled);
            assert!(t.revocations.is_empty());
            assert!(t.fates.iter().all(|f| matches!(
                f,
                JobFate::ScheduledIntact | JobFate::Postponed(PostponeReason::NoAlternatives)
            )));
        }
    }

    #[test]
    fn deterministic_under_churn() {
        let churn = RevocationConfig::per_slot(0.1);
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            meta()
                .with_revocation(churn)
                .run_traced(Amp::new(), 5, &mut rng)
                .unwrap()
        };
        let a = run(6);
        assert_eq!(a, run(6));
        assert_ne!(a, run(7));
    }

    #[test]
    fn churn_accounting_is_complete() {
        for &p in &[0.05, 0.15] {
            for seed in 0..4 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let run = meta()
                    .with_revocation(RevocationConfig::per_slot(p))
                    .run_traced(Amp::new(), 4, &mut rng)
                    .unwrap();
                for (c, t) in run.report.cycles.iter().zip(&run.traces) {
                    // Every revocation is accounted for, exactly once.
                    assert_eq!(
                        c.repair.revocations_injected,
                        c.repair.revocations_breaking + c.repair.revocations_vacant_only
                    );
                    assert_eq!(c.repair.revocations_injected as usize, t.revocations.len());
                    // Every job ends in a terminal fate.
                    assert_eq!(t.fates.len(), c.batch_size);
                    assert_eq!(c.scheduled + c.postponed, c.batch_size);
                    assert_eq!(c.scheduled_intact + c.failed_over + c.repaired, c.scheduled);
                    assert_eq!(t.leases.len(), c.scheduled);
                    // Recovery arithmetic: every broken lease either
                    // recovered or was postponed with a churn reason.
                    assert_eq!(
                        c.repair.leases_broken,
                        c.repair.recovered()
                            + c.repair.postponed_stale
                            + c.repair.postponed_budget_exhausted
                    );
                    // No surviving lease references a revoked region.
                    for lease in &t.leases {
                        for r in &t.revocations {
                            assert!(!lease.broken_by(r), "final lease overlaps a revocation");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn final_leases_stay_pairwise_disjoint_under_churn() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let run = meta()
            .with_revocation(RevocationConfig::per_slot(0.15))
            .run_traced(Amp::new(), 5, &mut rng)
            .unwrap();
        for t in &run.traces {
            let regions: Vec<_> = t
                .leases
                .iter()
                .flat_map(|l| {
                    l.window
                        .slots()
                        .iter()
                        .map(move |ws| (ws.node(), l.window.used_span(ws)))
                })
                .collect();
            for (i, a) in regions.iter().enumerate() {
                for b in &regions[i + 1..] {
                    assert!(
                        a.0 != b.0 || !a.1.overlaps(b.1),
                        "two leases share {:?} {:?}",
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn repairs_resume_from_checkpoints() {
        // Under churn heavy enough to trigger repair scans, every scan
        // must resume from its seeded anchor — never a full rescan.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let report = meta()
            .with_revocation(RevocationConfig::per_slot(0.15))
            .run(Amp::new(), 6, &mut rng)
            .unwrap();
        let totals = report.repair_totals();
        assert!(totals.leases_broken > 0, "churn must break something");
        assert_eq!(
            totals.repair_scan.checkpoint_hits, totals.repairs_attempted,
            "every repair scan resumes from its anchor"
        );
    }

    #[test]
    fn zero_attempt_budget_postpones_with_reason() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let report = meta()
            .with_revocation(RevocationConfig::per_slot(0.15))
            .with_repair_policy(RepairPolicy { max_attempts: 0 })
            .run(Alp::new(), 5, &mut rng)
            .unwrap();
        let totals = report.repair_totals();
        assert!(totals.leases_broken > 0);
        assert_eq!(totals.recovered(), 0);
        assert_eq!(totals.repairs_attempted, 0);
        assert_eq!(totals.postponed_budget_exhausted, totals.leases_broken);
    }
}
