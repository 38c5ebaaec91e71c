//! Batch-at-once slot selection — the paper's first future-work item
//! (Sec. 7: "the problem of slot selection for the whole job batch at once
//! and not for each job consecutively").
//!
//! The sequential search serves jobs in fixed priority order, so a
//! high-priority job may grab resources that block a *much earlier* window
//! for a lower-priority one. The co-scheduled search instead evaluates
//! every live job's candidate window on the current list and commits the
//! globally earliest one first (ties fall back to batch priority), then
//! re-evaluates. Every pass still hands each job at most one alternative,
//! and the outcome is a drop-in [`SearchOutcome`].
//!
//! Built-in selectors run the checkpointed driver: every pending job's
//! [`JobScan`] resumes from its checkpoint after every commit, so a
//! re-evaluation is a cheap resume rather than a head-of-list restart
//! (`O(batch)` resumes per commit). It commits **byte-identical
//! alternatives, remaining lists, pass counts, and commit counts** to
//! [`find_alternatives_coscheduled_naive`], the restart-per-window form
//! every other selector runs; only the scan work counters differ.
//! Re-evaluating only the jobs a commit disturbed (a lazily revalidated
//! priority queue) pays from batches of 50 up, which no caller issues:
//! DESIGN.md §13 has the numbers.

use std::collections::HashSet;

use ecosched_core::{Alternative, Batch, BatchAlternatives, CoreError, JobId, SlotList, Window};

use crate::incremental::{AlgoSpec, JobScan};
use crate::search::SearchOutcome;
use crate::selector::SlotSelector;
use crate::stats::SearchStats;

/// Runs the batch-at-once alternatives search.
///
/// Same contract as [`crate::find_alternatives`]: non-destructive, and all
/// returned alternatives are pairwise disjoint. Within a pass each job
/// receives at most one window; commits happen in order of window start
/// time rather than job priority.
///
/// Built-in selectors run the checkpointed driver — every pending job
/// resumes its scan from its checkpoint after every commit. What it
/// commits is byte-identical to [`find_alternatives_coscheduled_naive`];
/// only the scan work counters differ.
///
/// # Errors
///
/// Propagates [`CoreError`] from slot subtraction (impossible with the
/// built-in selectors).
///
/// # Examples
///
/// ```
/// use ecosched_core::{
///     Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
///     TimeDelta, TimePoint,
/// };
/// use ecosched_select::{find_alternatives_coscheduled, Amp};
///
/// let slots = (0..2)
///     .map(|i| {
///         Slot::new(
///             SlotId::new(i),
///             NodeId::new(i as u32),
///             Perf::UNIT,
///             Price::from_credits(2),
///             Span::new(TimePoint::new(0), TimePoint::new(300)).unwrap(),
///         )
///     })
///     .collect::<Result<Vec<_>, _>>()?;
/// let list = SlotList::from_slots(slots)?;
/// let mk = |id| {
///     Job::new(
///         JobId::new(id),
///         ResourceRequest::new(1, TimeDelta::new(100), Perf::UNIT, Price::from_credits(3))
///             .unwrap(),
///     )
/// };
/// let batch = Batch::from_jobs(vec![mk(0), mk(1)])?;
/// let outcome = find_alternatives_coscheduled(&Amp::new(), &list, &batch)?;
/// assert!(outcome.alternatives.all_jobs_covered());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_alternatives_coscheduled(
    selector: impl SlotSelector,
    list: &SlotList,
    batch: &Batch,
) -> Result<SearchOutcome, CoreError> {
    if let Some(spec) = selector.as_algo() {
        return find_alternatives_coscheduled_incremental(&spec, list, batch);
    }
    find_alternatives_coscheduled_naive(selector, list, batch)
}

/// The restart-per-window form of [`find_alternatives_coscheduled`]: the
/// path every selector without an [`crate::AlgoSpec`] takes.
///
/// Every round re-runs a full [`SlotSelector::find_window`] scan for every
/// pending job. For the built-in selectors it doubles as the equivalence
/// reference of the checkpointed driver.
///
/// # Errors
///
/// Propagates [`CoreError`] from slot subtraction, as
/// [`find_alternatives_coscheduled`] does.
pub fn find_alternatives_coscheduled_naive(
    selector: impl SlotSelector,
    list: &SlotList,
    batch: &Batch,
) -> Result<SearchOutcome, CoreError> {
    let mut remaining = list.clone();
    let mut alternatives = BatchAlternatives::for_jobs(batch.iter().map(|j| j.id()));
    let mut stats = SearchStats::new();
    let mut dead: HashSet<JobId> = HashSet::new();

    loop {
        let mut committed_this_pass = 0u64;
        // Jobs still waiting for their window in this pass, in priority
        // order (the tie-break).
        let mut pending: Vec<usize> = (0..batch.len())
            .filter(|&i| !dead.contains(&batch.as_slice()[i].id()))
            .collect();

        while !pending.is_empty() {
            // Evaluate every pending job on the *current* list.
            let mut best: Option<(usize, Window)> = None;
            let mut found_for: Vec<(usize, Window)> = Vec::with_capacity(pending.len());
            for &index in &pending {
                let job = &batch.as_slice()[index];
                match selector.find_window(&remaining, job.request(), &mut stats.scan) {
                    Some(window) => found_for.push((index, window)),
                    None => {
                        dead.insert(job.id());
                    }
                }
            }
            for (index, window) in found_for {
                let better = match &best {
                    None => true,
                    Some((best_index, best_window)) => {
                        (window.start(), index) < (best_window.start(), *best_index)
                    }
                };
                if better {
                    best = Some((index, window));
                }
            }
            let Some((index, window)) = best else { break };
            remaining.subtract_window(&window)?;
            alternatives.per_job_mut()[index]
                .push(Alternative::new(batch.as_slice()[index].id(), window));
            stats.windows_committed += 1;
            committed_this_pass += 1;
            pending.retain(|&i| i != index && !dead.contains(&batch.as_slice()[i].id()));
        }

        stats.passes += 1;
        if committed_this_pass == 0 {
            break;
        }
        // Subtraction only shrinks the list and both built-in selectors
        // are monotone in list content, so a job that failed once can
        // never succeed later — dead stays dead, exactly as in the
        // sequential search.
    }

    Ok(SearchOutcome {
        alternatives,
        stats,
        remaining,
    })
}

/// The checkpointed batch-at-once (earliest-window-first) search.
/// Byte-identical results to [`find_alternatives_coscheduled_naive`].
fn find_alternatives_coscheduled_incremental(
    spec: &AlgoSpec,
    list: &SlotList,
    batch: &Batch,
) -> Result<SearchOutcome, CoreError> {
    let mut remaining = list.clone();
    let mut alternatives = BatchAlternatives::for_jobs(batch.iter().map(|j| j.id()));
    let mut stats = SearchStats::new();
    let mut scans: Vec<JobScan> = batch
        .iter()
        .map(|job| JobScan::new(spec, job.request()))
        .collect();

    loop {
        let mut committed_this_pass = 0u64;
        let mut pending: Vec<usize> = (0..batch.len()).filter(|&i| !scans[i].is_dead()).collect();

        while !pending.is_empty() {
            // Evaluate every pending job on the *current* list; losers keep
            // their checkpoint and re-evaluate cheaply next round.
            let mut best: Option<(usize, Window)> = None;
            for &index in &pending {
                if let Some(window) = scans[index].run(&remaining, &mut stats.scan) {
                    let better = match &best {
                        None => true,
                        Some((best_index, best_window)) => {
                            (window.start(), index) < (best_window.start(), *best_index)
                        }
                    };
                    if better {
                        best = Some((index, window));
                    }
                }
            }
            let Some((index, window)) = best else { break };
            let report = remaining.subtract_window_report(&window)?;
            for scan in &mut scans {
                scan.apply_report(&report);
            }
            alternatives.per_job_mut()[index]
                .push(Alternative::new(batch.as_slice()[index].id(), window));
            stats.windows_committed += 1;
            committed_this_pass += 1;
            pending.retain(|&i| i != index && !scans[i].is_dead());
        }

        stats.passes += 1;
        if committed_this_pass == 0 {
            break;
        }
    }

    Ok(SearchOutcome {
        alternatives,
        stats,
        remaining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alp::Alp;
    use crate::amp::Amp;
    use crate::search::find_alternatives;
    use ecosched_core::{
        Job, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, Span, TimeDelta, TimePoint,
    };

    fn slot(id: u64, node: u32, price: i64, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(price),
            Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
        )
        .unwrap()
    }

    fn job(id: u32, n: usize, t: i64, c: i64) -> Job {
        Job::new(
            ecosched_core::JobId::new(id),
            ResourceRequest::new(n, TimeDelta::new(t), Perf::UNIT, Price::from_credits(c)).unwrap(),
        )
    }

    #[test]
    fn commits_globally_earliest_window_first() {
        // Job 0 (high priority) can only start at t=100; job 1 could start
        // at t=0 — and the sequential order would also allow that, but the
        // co-scheduler must commit job 1's window *first*.
        let list = SlotList::from_slots(vec![
            slot(0, 0, 2, 100, 400), // only node fast/large enough for job 0
            slot(1, 1, 2, 0, 90),
        ])
        .unwrap();
        let batch = Batch::from_jobs(vec![job(0, 1, 150, 5), job(1, 1, 80, 5)]).unwrap();
        let outcome = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
        let j0 = &outcome.alternatives.per_job()[0];
        let j1 = &outcome.alternatives.per_job()[1];
        assert_eq!(j1.alternatives()[0].window().start(), TimePoint::new(0));
        assert_eq!(j0.alternatives()[0].window().start(), TimePoint::new(100));
    }

    #[test]
    fn beats_sequential_order_when_priority_blocks_an_early_window() {
        // One shared cheap node vacant [0, 200). Sequential: job 0 takes
        // [0, 100), forcing job 1 to [100, 180). Both get scheduled either
        // way, but co-scheduling picks the same result here — the win case
        // is when job 0 has *another* (later) option and job 1 does not.
        let list = SlotList::from_slots(vec![
            slot(0, 0, 2, 0, 200),   // the contested early node
            slot(1, 1, 2, 120, 300), // job 0's fallback (too short for job 1)
        ])
        .unwrap();
        // Job 0 (priority) needs 100 ticks; job 1 needs 200 and only fits
        // on node 0 starting at 0.
        let batch = Batch::from_jobs(vec![job(0, 1, 100, 5), job(1, 1, 200, 5)]).unwrap();

        let sequential = find_alternatives(Amp::new(), &list, &batch).unwrap();
        let coscheduled = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();

        // Sequential: job 0 grabs node 0 at t=0 → job 1 (200 ticks on
        // node 0) no longer fits → postponed.
        assert!(sequential.alternatives.per_job()[1].is_empty());
        // Co-scheduled: job 1's earliest window (t=0, 200 ticks) and job
        // 0's earliest (t=0 on node 0, 100 ticks) tie on start; priority
        // breaks the tie for job 0… which again blocks job 1. The true win
        // needs job 1 to start strictly earlier: shrink job 0's earliest.
        // (Kept as documentation of the tie-break; the strict case is
        // below.)
        let _ = coscheduled;

        // The strict-win case: job 1's earliest window starts strictly
        // before job 0's, and job 0's commit destroys it.
        //   A: perf 1.0, price 2,  vacant [0, 250)  — job 1 only (perf)
        //   C: perf 1.5, price 2,  vacant [60, 300) — contested
        //   E: perf 2.0, price 25, vacant [80, 300) — affordable to job 0 only
        let a = Slot::new(
            SlotId::new(0),
            NodeId::new(0),
            Perf::from_f64(1.0),
            Price::from_credits(2),
            Span::new(TimePoint::new(0), TimePoint::new(250)).unwrap(),
        )
        .unwrap();
        let c = Slot::new(
            SlotId::new(1),
            NodeId::new(1),
            Perf::from_f64(1.5),
            Price::from_credits(2),
            Span::new(TimePoint::new(60), TimePoint::new(300)).unwrap(),
        )
        .unwrap();
        let e = Slot::new(
            SlotId::new(2),
            NodeId::new(2),
            Perf::from_f64(2.0),
            Price::from_credits(25),
            Span::new(TimePoint::new(80), TimePoint::new(300)).unwrap(),
        )
        .unwrap();
        let list2 = SlotList::from_slots(vec![a, c, e]).unwrap();
        let job0 = Job::new(
            ecosched_core::JobId::new(0),
            ResourceRequest::new(
                2,
                TimeDelta::new(100),
                Perf::from_f64(1.5),
                Price::from_credits(8),
            )
            .unwrap(),
        );
        let job1 = Job::new(
            ecosched_core::JobId::new(1),
            ResourceRequest::new(
                2,
                TimeDelta::new(180),
                Perf::from_f64(1.0),
                Price::from_credits(5),
            )
            .unwrap(),
        );
        let batch2 = Batch::from_jobs(vec![job0, job1]).unwrap();
        let seq2 = find_alternatives(Amp::new(), &list2, &batch2).unwrap();
        let cos2 = find_alternatives_coscheduled(Amp::new(), &list2, &batch2).unwrap();
        // Sequential: job 0 (priority) takes {C, E} at t=80; by the time
        // job 1 gets C back, node A has expired and E busts its budget.
        assert!(seq2.alternatives.per_job()[1].is_empty());
        // Co-scheduled: job 1's strictly earlier {A, C} window at t=60 is
        // committed first; job 0 still gets {C, E} afterwards.
        assert!(cos2.alternatives.all_jobs_covered());
        assert_eq!(
            cos2.alternatives.per_job()[1].alternatives()[0]
                .window()
                .start(),
            TimePoint::new(60)
        );
    }

    #[test]
    fn alternatives_remain_disjoint() {
        let list =
            SlotList::from_slots((0..6).map(|i| slot(i, i as u32, 2, 0, 500)).collect()).unwrap();
        let batch =
            Batch::from_jobs(vec![job(0, 2, 100, 5), job(1, 3, 80, 5), job(2, 1, 120, 5)]).unwrap();
        let outcome = find_alternatives_coscheduled(Alp::new(), &list, &batch).unwrap();
        let windows: Vec<&Window> = outcome
            .alternatives
            .per_job()
            .iter()
            .flat_map(|ja| ja.iter().map(|a| a.window()))
            .collect();
        assert!(windows.len() >= 3);
        for i in 0..windows.len() {
            for j in (i + 1)..windows.len() {
                assert!(!windows[i].overlaps(windows[j]));
            }
        }
        outcome.remaining.validate().unwrap();
    }

    #[test]
    fn covers_as_many_jobs_as_sequential_on_spot_checked_instances() {
        // A spot check on a few structured instances, not a property:
        // committing a low-priority job's earlier window first can cut up
        // capacity a wide high-priority job needed whole, and then the
        // co-scheduler covers *fewer* jobs than the sequential order
        // (`tests/proptests.rs::coscheduled_can_cover_fewer_jobs_than_sequential`).
        for shift in 0..5i64 {
            let list = SlotList::from_slots(vec![
                slot(0, 0, 2, shift, 200 + shift),
                slot(1, 1, 2, 0, 150),
                slot(2, 2, 2, 100, 400),
            ])
            .unwrap();
            let batch = Batch::from_jobs(vec![job(0, 1, 100, 5), job(1, 1, 140, 5)]).unwrap();
            let seq = find_alternatives(Amp::new(), &list, &batch).unwrap();
            let cos = find_alternatives_coscheduled(Amp::new(), &list, &batch).unwrap();
            let seq_covered = seq
                .alternatives
                .per_job()
                .iter()
                .filter(|ja| !ja.is_empty())
                .count();
            let cos_covered = cos
                .alternatives
                .per_job()
                .iter()
                .filter(|ja| !ja.is_empty())
                .count();
            assert!(
                cos_covered >= seq_covered,
                "shift {shift}: coscheduled covered {cos_covered} < sequential {seq_covered}"
            );
        }
    }

    #[test]
    fn empty_batch_is_one_empty_pass() {
        let list = SlotList::from_slots(vec![slot(0, 0, 1, 0, 10)]).unwrap();
        let outcome = find_alternatives_coscheduled(Amp::new(), &list, &Batch::new()).unwrap();
        assert_eq!(outcome.stats.passes, 1);
        assert_eq!(outcome.stats.windows_committed, 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let list = SlotList::from_slots(vec![slot(0, 0, 1, 0, 10)]).unwrap();
        let outcome = find_alternatives_coscheduled(Amp::new(), &list, &Batch::new()).unwrap();
        assert_eq!(outcome.alternatives.total_found(), 0);
    }
}
