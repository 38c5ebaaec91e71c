//! The metascheduler loop: job batch scheduling runs iteratively on
//! periodically updated local schedules (paper Sec. 1–2).
//!
//! Each cycle the local managers publish fresh vacant slots, newly arrived
//! jobs join whatever was postponed before, and one scheduling iteration
//! runs. Jobs that fail to accumulate `N` suitable slots are carried to the
//! next cycle, exactly as the paper prescribes.
//!
//! # Revocation-tolerant execution
//!
//! The paper's Sec. 5 study keeps the environment static between the
//! combination optimization and "scheduled". Our extension inserts an
//! execution step: a [`RevocationModel`] withdraws vacant regions after
//! commitment, and a three-tier repair pass recovers each broken lease
//! within a bounded attempt budget ([`RepairPolicy`]):
//!
//! 1. **failover** — adopt a surviving pre-computed alternative (they are
//!    pairwise disjoint by construction, but must be re-validated against
//!    regions consumed by other jobs and against the revocations);
//! 2. **bounded repair search** — re-run the window search for just the
//!    broken job on the post-revocation execution list, resuming from the
//!    broken window's start via the incremental checkpoint machinery;
//! 3. **postpone** — carry the job to the next cycle with a
//!    [`PostponeReason`].
//!
//! Every job therefore ends each cycle in a terminal [`JobFate`], and
//! [`RepairStats`] accounts for 100% of the injected revocations.

use ecosched_core::{
    Batch, Job, JobId, Lease, LeaseOrigin, Money, ResourceRequest, Revocation, Slot, SlotList,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use ecosched_optimize::{IncrementalOptimizer, OptStats};
use ecosched_select::{repair_search, try_adopt_window, RepairError, ScanStats, SlotSelector};

use crate::config::{JobGenConfig, SlotGenConfig};
use crate::iteration::{run_iteration_cached, IterationConfig, IterationError};
use crate::job_gen::JobGenerator;
use crate::revocation::{RepairStats, RevocationConfig, RevocationModel};
use crate::slot_gen::SlotGenerator;

/// Why a job left a cycle unscheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PostponeReason {
    /// The alternatives search found no suitable window (the paper's
    /// original postpone path).
    NoAlternatives,
    /// Revocation broke the lease, every surviving alternative failed
    /// re-validation, and the repair search found no replacement.
    AllAlternativesStale,
    /// The repair attempt budget ran out before a replacement was secured.
    RepairBudgetExhausted,
}

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

/// Bounds the per-lease recovery work.
///
/// Each broken lease may spend at most `max_attempts` recovery attempts,
/// where one attempt is either one failover re-validation or one bounded
/// repair scan. Exhausting the budget postpones the job with
/// [`PostponeReason::RepairBudgetExhausted`].
///
/// # Earlier-start exclusion
///
/// The tier-2 repair scan deliberately resumes **at the broken window's
/// start** (via the incremental checkpoint machinery's `resume_from`),
/// never earlier. Windows beginning before the broken plan are excluded
/// by design: the original search already walked that prefix against a
/// strictly *larger* availability list and committed or rejected every
/// start point in it, so under slot subtraction (which only removes
/// availability) no start earlier than the original plan can newly become
/// feasible. Skipping the prefix keeps the repair O(survivors past the
/// anchor) instead of O(list) without giving up any window the sequential
/// rescan could have found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairPolicy {
    /// Maximum recovery attempts (validations plus scans) per broken lease.
    pub max_attempts: u32,
    /// When the bounded anchored repair is exhausted — the attempt budget
    /// ran out, or the anchored scan came up dry — retry **once** with a
    /// full rescan from the start of the execution list before
    /// postponing. This is the escape hatch from the earlier-start
    /// exclusion: under pure slot *subtraction* no earlier start can
    /// newly become feasible, but broken leases **release** their
    /// surviving fragments back into the list first, so a fragment of a
    /// pre-anchor slot can make a window feasible that starts before the
    /// broken plan. The full rescan is the only tier that can see it.
    /// Costs one O(list) scan per otherwise-postponed lease; default off.
    pub full_rescan_on_exhaustion: bool,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            max_attempts: 8,
            full_rescan_on_exhaustion: false,
        }
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
    /// Combination-optimizer cache accounting for the cycle (rows reused
    /// vs rebuilt across the shared [`ecosched_optimize::IncrementalOptimizer`]).
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

    /// Combination-optimizer cache totals over all cycles.
    #[must_use]
    pub fn opt_totals(&self) -> OptStats {
        let mut total = OptStats::default();
        for c in &self.cycles {
            total.merge(&c.opt);
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
        // One optimizer for the whole run: cycles that carry most of their
        // batch (or only shift the VO limits) reuse the cached DP rows.
        let mut optimizer = IncrementalOptimizer::new();

        for _ in 0..cycles {
            let list: SlotList = self.slot_gen.generate(rng);
            let fresh = self.job_gen.generate(rng);

            // Postponed jobs take the head of the batch (they have waited
            // longest — highest priority), then the fresh arrivals. Ids are
            // re-keyed per cycle.
            let mut jobs: Vec<Job> = Vec::with_capacity(backlog.len() + fresh.len());
            let carried = backlog.len();
            for (i, (request, _)) in backlog.iter().enumerate() {
                jobs.push(Job::new(JobId::new(i as u32), *request));
            }
            for (i, job) in fresh.iter().enumerate() {
                jobs.push(Job::new(JobId::new((carried + i) as u32), *job.request()));
            }
            let batch = Batch::from_jobs(jobs).expect("re-keyed ids are unique");

            let result =
                run_iteration_cached(selector, &list, &batch, &self.config, &mut optimizer)?;
            let per_job = result.search.alternatives.per_job();

            let mut stats = RepairStats::default();
            let mut fates: Vec<Option<JobFate>> = vec![None; batch.len()];
            for id in &result.postponed {
                fates[id.index() as usize] =
                    Some(JobFate::Postponed(PostponeReason::NoAlternatives));
            }
            stats.postponed_no_alternatives = result.postponed.len() as u64;

            // The optimizer's choice per batch index (None for uncovered
            // jobs).
            let mut chosen: Vec<Option<usize>> = vec![None; batch.len()];
            if let Some(assignment) = &result.assignment {
                for choice in assignment.choices() {
                    chosen[choice.job.index() as usize] = Some(choice.alternative);
                }
            }

            let mut leases: Vec<Option<Lease>> = vec![None; batch.len()];
            for (i, job) in batch.as_slice().iter().enumerate() {
                if let Some(alt) = chosen[i] {
                    let window = per_job[i].alternatives()[alt].window().clone();
                    leases[i] = Some(Lease::planned(job.id(), window));
                }
            }

            let revocations = if self.revocation.config().is_enabled() {
                self.execute_and_repair(
                    &selector,
                    &list,
                    &result.search.remaining,
                    &batch,
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

            // Whatever holds a lease and was never broken survived intact.
            for (i, fate) in fates.iter_mut().enumerate() {
                if fate.is_none() {
                    debug_assert!(leases[i].is_some(), "fateless jobs must hold a lease");
                    *fate = Some(JobFate::ScheduledIntact);
                }
            }

            let mut postponed_again = 0;
            let mut next_backlog: Vec<(ResourceRequest, u32)> = Vec::new();
            let mut final_fates: Vec<JobFate> = Vec::with_capacity(batch.len());
            for (i, fate) in fates.into_iter().enumerate() {
                // invariant: every index was assigned a fate above — jobs
                // are either search-postponed, leased, or repair-postponed.
                let fate = fate.expect("every job ends the cycle with a fate");
                if let JobFate::Postponed(_) = fate {
                    let (request, age) = if i < carried {
                        postponed_again += 1;
                        (backlog[i].0, backlog[i].1 + 1)
                    } else {
                        (*batch.as_slice()[i].request(), 1)
                    };
                    next_backlog.push((request, age));
                }
                final_fates.push(fate);
            }

            let (mut scheduled_intact, mut failed_over, mut repaired) = (0, 0, 0);
            for fate in &final_fates {
                match fate {
                    JobFate::ScheduledIntact => scheduled_intact += 1,
                    JobFate::FailedOver { .. } => failed_over += 1,
                    JobFate::Repaired => repaired += 1,
                    JobFate::Postponed(_) => {}
                }
            }
            let scheduled = scheduled_intact + failed_over + repaired;

            let final_leases: Vec<Lease> = leases.into_iter().flatten().collect();
            let (avg_time, avg_cost) = if final_leases.is_empty() {
                (0.0, 0.0)
            } else {
                let ticks: i64 = final_leases.iter().map(|l| l.window.length().ticks()).sum();
                let cost: Money = final_leases.iter().map(|l| l.window.total_cost()).sum();
                let n = final_leases.len() as f64;
                (ticks as f64 / n, cost.to_f64() / n)
            };

            report.cycles.push(CycleSummary {
                batch_size: batch.len(),
                scheduled,
                scheduled_intact,
                failed_over,
                repaired,
                postponed: batch.len() - scheduled,
                postponed_again,
                avg_time,
                avg_cost,
                repair: stats,
                opt: result.opt,
            });
            traces.push(CycleTrace {
                requests: batch.as_slice().iter().map(|j| *j.request()).collect(),
                fates: final_fates,
                leases: final_leases,
                revocations,
            });
            backlog = next_backlog;
        }
        Ok(TracedRun { report, traces })
    }

    /// Injects this cycle's revocations and runs the three-tier repair
    /// pass. `leases`, `fates`, and `stats` are updated in place; returns
    /// the injected revocations.
    #[allow(clippy::too_many_arguments)]
    fn execute_and_repair<R: Rng + ?Sized>(
        &self,
        selector: &(impl SlotSelector + Copy),
        published: &SlotList,
        remaining: &SlotList,
        batch: &Batch,
        per_job: &[ecosched_core::JobAlternatives],
        chosen: &[Option<usize>],
        leases: &mut [Option<Lease>],
        fates: &mut [Option<JobFate>],
        stats: &mut RepairStats,
        rng: &mut R,
    ) -> Vec<Revocation> {
        // The execution list: everything still vacant after the committed
        // windows were carved out. The search subtracted *every* found
        // alternative; the non-chosen ones return to the pool as freshly
        // minted slots so failovers and repairs can reuse that time.
        let mut exec = remaining.clone();
        for (i, ja) in per_job.iter().enumerate() {
            for (alt_idx, alt) in ja.alternatives().iter().enumerate() {
                if chosen[i] == Some(alt_idx) {
                    continue;
                }
                release_window(&mut exec, alt.window());
            }
        }

        let revocations = self.revocation.draw(published, rng);
        for r in &revocations {
            exec.remove_region(r.node, r.span);
        }
        stats.revocations_injected = revocations.len() as u64;

        // Classify every revocation and find the broken leases.
        let mut breaking = vec![false; revocations.len()];
        let mut broken = vec![false; leases.len()];
        for (ri, r) in revocations.iter().enumerate() {
            for (li, lease) in leases.iter().enumerate() {
                if lease.as_ref().is_some_and(|l| l.broken_by(r)) {
                    breaking[ri] = true;
                    broken[li] = true;
                }
            }
        }
        stats.revocations_breaking = breaking.iter().filter(|&&b| b).count() as u64;
        stats.revocations_vacant_only = stats.revocations_injected - stats.revocations_breaking;
        stats.leases_broken = broken.iter().filter(|&&b| b).count() as u64;

        // Broken leases first release their surviving (non-revoked)
        // fragments back into the execution list, so later failovers and
        // repairs — including their own — can reuse that time.
        for (li, lease) in leases.iter().enumerate() {
            if !broken[li] {
                continue;
            }
            // invariant: `broken` is only set for indices holding a lease.
            let lease = lease.as_ref().expect("broken implies leased");
            for ws in lease.window.slots() {
                let mut fragments = vec![lease.window.used_span(ws)];
                for r in revocations.iter().filter(|r| r.node == ws.node()) {
                    let mut survivors = Vec::new();
                    for frag in fragments {
                        let (left, right) = frag.subtract(r.span);
                        survivors.extend(left);
                        survivors.extend(right);
                    }
                    fragments = survivors;
                }
                for frag in fragments {
                    let id = exec.mint_id();
                    let slot = Slot::new(id, ws.node(), ws.perf(), ws.price(), frag)
                        .expect("surviving fragments are non-empty");
                    exec.insert(slot)
                        .expect("lease regions were held exclusively");
                }
            }
        }

        // Three-tier recovery, in batch (priority) order.
        for li in 0..leases.len() {
            if !broken[li] {
                continue;
            }
            // invariant: `broken` is only set for indices holding a lease.
            let original = leases[li].take().expect("broken implies leased");
            let request = batch.as_slice()[li].request();
            let original_cost = original.window.total_cost();
            let mut attempts: u32 = 0;
            let mut recovered: Option<(Lease, JobFate)> = None;

            // Tier 1: fail over to a surviving pre-computed alternative.
            // Disjoint from the broken window by construction, but other
            // jobs' commitments and this cycle's revocations may have
            // consumed it since — re-validate before adopting.
            for (alt_idx, alt) in per_job[li].alternatives().iter().enumerate() {
                if chosen[li] == Some(alt_idx) {
                    continue;
                }
                if attempts >= self.policy.max_attempts {
                    break;
                }
                attempts += 1;
                stats.failover_validations += 1;
                match try_adopt_window(alt.window(), &mut exec, &revocations) {
                    Ok(()) => {
                        stats.failovers_taken += 1;
                        stats.repair_cost_delta +=
                            (alt.window().total_cost() - original_cost).to_f64();
                        recovered = Some((
                            Lease {
                                job: original.job,
                                window: alt.window().clone(),
                                origin: LeaseOrigin::FailedOver {
                                    alternative: alt_idx,
                                },
                            },
                            JobFate::FailedOver {
                                alternative: alt_idx,
                            },
                        ));
                        break;
                    }
                    Err(RepairError::Revoked { .. }) => stats.failover_stale_revoked += 1,
                    Err(RepairError::Consumed { .. }) => stats.failover_stale_consumed += 1,
                }
            }

            // Tier 2: bounded repair search on the survivors, resuming at
            // the broken window's start (checkpointed, O(survivors)).
            if recovered.is_none() && attempts < self.policy.max_attempts {
                attempts += 1;
                stats.repairs_attempted += 1;
                let mut scan = ScanStats::new();
                let found =
                    repair_search(selector, request, original.window.start(), &exec, &mut scan);
                stats.budget_violations_avoided += scan.acceptance_tests - scan.windows_found;
                stats.repair_scan.merge(&scan);
                if let Some(window) = found {
                    exec.subtract_window(&window)
                        .expect("repair windows are carved from the execution list");
                    stats.repairs_succeeded += 1;
                    stats.repair_cost_delta += (window.total_cost() - original_cost).to_f64();
                    recovered = Some((
                        Lease {
                            job: original.job,
                            window,
                            origin: LeaseOrigin::Repaired,
                        },
                        JobFate::Repaired,
                    ));
                }
            }

            // Tier 2.5 (optional, off by default): the anchored repair is
            // exhausted — budget spent or scan dry. Retry once from the
            // start of the execution list. Released fragments of *other*
            // broken leases can make a window feasible that starts before
            // this job's broken plan, and the anchored scan can never see
            // it (earlier-start exclusion); the full rescan can.
            if recovered.is_none() && self.policy.full_rescan_on_exhaustion {
                stats.full_rescans_attempted += 1;
                let mut scan = ScanStats::new();
                let found = selector.find_window(&exec, request, &mut scan);
                stats.budget_violations_avoided += scan.acceptance_tests - scan.windows_found;
                stats.repair_scan.merge(&scan);
                if let Some(window) = found {
                    exec.subtract_window(&window)
                        .expect("repair windows are carved from the execution list");
                    stats.full_rescans_succeeded += 1;
                    stats.repair_cost_delta += (window.total_cost() - original_cost).to_f64();
                    recovered = Some((
                        Lease {
                            job: original.job,
                            window,
                            origin: LeaseOrigin::Repaired,
                        },
                        JobFate::Repaired,
                    ));
                }
            }

            // Tier 3: postpone with the reason.
            match recovered {
                Some((lease, fate)) => {
                    leases[li] = Some(lease);
                    fates[li] = Some(fate);
                }
                None => {
                    let reason = if attempts >= self.policy.max_attempts {
                        stats.postponed_budget_exhausted += 1;
                        PostponeReason::RepairBudgetExhausted
                    } else {
                        stats.postponed_stale += 1;
                        PostponeReason::AllAlternativesStale
                    };
                    fates[li] = Some(JobFate::Postponed(reason));
                }
            }
        }

        revocations
    }
}

/// Returns a window's regions to the execution list as freshly minted
/// slots.
fn release_window(exec: &mut SlotList, window: &ecosched_core::Window) {
    for ws in window.slots() {
        let id = exec.mint_id();
        let slot = Slot::new(id, ws.node(), ws.perf(), ws.price(), window.used_span(ws))
            .expect("window members have positive runtimes");
        exec.insert(slot)
            .expect("released regions were carved from this list");
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
        let churn = RevocationConfig {
            per_slot: 0.1,
            domain_outage: 0.05,
            nodes_per_domain: 10,
            price_burst: 0.3,
            burst_fraction: 0.1,
        };
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
            .with_repair_policy(RepairPolicy {
                max_attempts: 0,
                ..RepairPolicy::default()
            })
            .run(Alp::new(), 5, &mut rng)
            .unwrap();
        let totals = report.repair_totals();
        assert!(totals.leases_broken > 0);
        assert_eq!(totals.recovered(), 0);
        assert_eq!(totals.repairs_attempted, 0);
        assert_eq!(totals.postponed_budget_exhausted, totals.leases_broken);
    }
}
