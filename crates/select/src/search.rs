//! The multi-pass alternatives search (paper Sec. 2).
//!
//! A scheduling iteration repeatedly scans the batch in priority order.
//! Whenever a window is found for a job it is recorded as an *alternative*
//! and subtracted from the vacant-slot list, so all recorded alternatives
//! are pairwise disjoint in processor time and any one alternative per job
//! can later be committed without revisiting the others. The search ends
//! when a full pass finds no window for any job.
//!
//! Because subtraction only removes availability and both ALP and AMP are
//! monotone in list content (their candidate pool at a given anchor is a
//! pure function of the surviving slots), a job that fails once can never
//! succeed later in the same iteration; such jobs are marked dead and
//! skipped, which keeps the search linear in the number of alternatives
//! actually found.
//!
//! Each job's search is one [`Scan`]: a built-in selector's resumes from
//! its checkpoint after every subtraction, any other selector's restarts
//! its `find_window` on the current list. There is no second driver.

use ecosched_core::{Alternative, Batch, BatchAlternatives, CoreError, JobId, SlotList};

use crate::incremental::Scan;
use crate::selector::SlotSelector;
use crate::stats::SearchStats;

/// The result of an alternatives search over one batch.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Alternatives per job, in batch order.
    pub alternatives: BatchAlternatives,
    /// Work counters.
    pub stats: SearchStats,
    /// The vacant-slot list after all found windows were subtracted.
    pub remaining: SlotList,
}

impl SearchOutcome {
    /// Jobs that found no alternative and must be postponed to the next
    /// scheduling iteration.
    pub fn postponed(&self) -> impl Iterator<Item = JobId> + '_ {
        self.alternatives.uncovered_jobs()
    }
}

/// Runs the multi-pass alternatives search for `batch` on `list` using
/// `selector` (ALP or AMP).
///
/// The input list is cloned; the caller's copy is untouched. A caller
/// done with its list hands it to [`find_alternatives_in`] instead.
///
/// # Errors
///
/// Propagates [`CoreError`] from slot subtraction. This can only happen if
/// the selector returns a window whose cuts do not match the list —
/// impossible for the built-in algorithms, but a custom [`SlotSelector`]
/// could misbehave.
///
/// # Examples
///
/// ```
/// use ecosched_core::{
///     Batch, Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span,
///     TimeDelta, TimePoint,
/// };
/// use ecosched_select::{find_alternatives, Amp};
///
/// let slots = (0..4)
///     .map(|i| {
///         Slot::new(
///             SlotId::new(i),
///             NodeId::new(i as u32),
///             Perf::UNIT,
///             Price::from_credits(2),
///             Span::new(TimePoint::new(0), TimePoint::new(400)).unwrap(),
///         )
///     })
///     .collect::<Result<Vec<_>, _>>()?;
/// let list = SlotList::from_slots(slots)?;
/// let batch = Batch::from_jobs(vec![Job::new(
///     JobId::new(0),
///     ResourceRequest::new(2, TimeDelta::new(100), Perf::UNIT, Price::from_credits(3))?,
/// )])?;
///
/// let outcome = find_alternatives(&Amp::new(), &list, &batch)?;
/// // 4 node-slots of 400 ticks admit 8 disjoint 2×100 windows.
/// assert_eq!(outcome.alternatives.total_found(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_alternatives(
    selector: impl SlotSelector,
    list: &SlotList,
    batch: &Batch,
) -> Result<SearchOutcome, CoreError> {
    find_alternatives_in(selector, list.clone(), batch)
}

/// [`find_alternatives`] on a list the caller gives up: every found
/// window is carved from `list` itself, which comes back as
/// [`SearchOutcome::remaining`]. No copy is made.
///
/// # Errors
///
/// As [`find_alternatives`]; the list is then lost with the search.
pub fn find_alternatives_in(
    selector: impl SlotSelector,
    mut remaining: SlotList,
    batch: &Batch,
) -> Result<SearchOutcome, CoreError> {
    let mut alternatives = BatchAlternatives::for_jobs(batch.iter().map(|j| j.id()));
    let mut stats = SearchStats::new();
    let mut scans: Vec<Scan<'_, _>> = batch
        .iter()
        .map(|job| Scan::new(&selector, job.request()))
        .collect();

    loop {
        let mut found_any = false;
        for (index, job) in batch.iter().enumerate() {
            if let Some(window) = scans[index].run(&remaining, &mut stats.scan) {
                let report = remaining.subtract_window_report(&window)?;
                for scan in &mut scans {
                    scan.apply_report(&report);
                }
                alternatives.per_job_mut()[index].push(Alternative::new(job.id(), window));
                stats.windows_committed += 1;
                found_any = true;
            }
        }
        stats.passes += 1;
        if !found_any {
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
    use ecosched_core::TimeDelta;
    use ecosched_core::{Job, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, Span, TimePoint};

    fn slot(id: u64, node: u32, perf: f64, price: i64, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::from_f64(perf),
            Price::from_credits(price),
            Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
        )
        .unwrap()
    }

    fn job(id: u32, n: usize, t: i64, p: f64, c: i64) -> Job {
        Job::new(
            ecosched_core::JobId::new(id),
            ResourceRequest::new(
                n,
                TimeDelta::new(t),
                Perf::from_f64(p),
                Price::from_credits(c),
            )
            .unwrap(),
        )
    }

    fn four_node_list(len: i64) -> SlotList {
        SlotList::from_slots((0..4).map(|i| slot(i, i as u32, 1.0, 2, 0, len)).collect()).unwrap()
    }

    #[test]
    fn alternatives_are_pairwise_disjoint() {
        let list = four_node_list(300);
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 1.0, 3), job(1, 2, 100, 1.0, 3)]).unwrap();
        let outcome = find_alternatives(Alp::new(), &list, &batch).unwrap();
        let all: Vec<_> = outcome
            .alternatives
            .per_job()
            .iter()
            .flat_map(|ja| ja.iter())
            .collect();
        assert!(all.len() >= 4);
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert!(
                    !all[i].window().overlaps(all[j].window()),
                    "windows {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn search_exhausts_the_list() {
        // 4 nodes × 300 ticks, jobs of 2×100 → exactly 6 windows total fit.
        let list = four_node_list(300);
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 1.0, 3)]).unwrap();
        let outcome = find_alternatives(Alp::new(), &list, &batch).unwrap();
        assert_eq!(outcome.alternatives.total_found(), 6);
        // Remaining vacancy cannot host another 2×100 window.
        let mut stats = crate::stats::ScanStats::new();
        assert!(Alp::new()
            .find_window(
                &outcome.remaining,
                batch.as_slice()[0].request(),
                &mut stats
            )
            .is_none());
    }

    #[test]
    fn priority_order_gives_first_job_the_earliest_window() {
        let list = four_node_list(200);
        let batch = Batch::from_jobs(vec![job(7, 2, 100, 1.0, 3), job(3, 2, 100, 1.0, 3)]).unwrap();
        let outcome = find_alternatives(Alp::new(), &list, &batch).unwrap();
        let first = &outcome.alternatives.per_job()[0];
        let second = &outcome.alternatives.per_job()[1];
        assert_eq!(first.job().index(), 7);
        let first_start = first.alternatives()[0].window().start();
        let second_start = second.alternatives()[0].window().start();
        assert!(first_start <= second_start);
    }

    #[test]
    fn failed_job_is_postponed_others_continue() {
        let list = four_node_list(300);
        let batch = Batch::from_jobs(vec![
            job(0, 6, 100, 1.0, 3), // needs 6 nodes, only 4 exist
            job(1, 2, 100, 1.0, 3),
        ])
        .unwrap();
        let outcome = find_alternatives(Amp::new(), &list, &batch).unwrap();
        let postponed: Vec<JobId> = outcome.postponed().collect();
        assert_eq!(postponed, vec![JobId::new(0)]);
        assert!(!outcome.alternatives.all_jobs_covered());
        assert!(outcome.alternatives.per_job()[1].len() >= 4);
    }

    #[test]
    fn amp_finds_strictly_more_alternatives_than_alp() {
        // One cheap node, two expensive ones above the per-slot cap: ALP
        // can never assemble a pair, while AMP pairs the cheap node with an
        // expensive one within the budget (2·100 + 6·100 = 800 ≤ 4·100·2).
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 2, 0, 400),
            slot(1, 1, 1.0, 6, 0, 400),
            slot(2, 2, 1.0, 6, 0, 400),
        ])
        .unwrap();
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 1.0, 4)]).unwrap();
        let alp = find_alternatives(Alp::new(), &list, &batch).unwrap();
        let amp = find_alternatives(Amp::new(), &list, &batch).unwrap();
        assert_eq!(alp.alternatives.total_found(), 0);
        // The cheap node's 400 ticks host four 100-tick windows.
        assert_eq!(amp.alternatives.total_found(), 4);
    }

    #[test]
    fn empty_batch_terminates_immediately() {
        let list = four_node_list(100);
        let outcome = find_alternatives(Alp::new(), &list, &Batch::new()).unwrap();
        assert_eq!(outcome.stats.passes, 1);
        assert_eq!(outcome.alternatives.total_found(), 0);
        assert_eq!(outcome.remaining.len(), list.len());
    }

    #[test]
    fn stats_track_committed_windows() {
        let list = four_node_list(200);
        let batch = Batch::from_jobs(vec![job(0, 2, 100, 1.0, 3)]).unwrap();
        let outcome = find_alternatives(Alp::new(), &list, &batch).unwrap();
        assert_eq!(
            outcome.stats.windows_committed,
            outcome.alternatives.total_found() as u64
        );
        assert!(outcome.stats.scan.windows_found >= outcome.stats.windows_committed);
    }
}
