//! The commit-and-repair core of a scheduling cycle, run by the
//! discrete-event engine at every `CycleTick` and `RevocationStrike`.
//!
//! The paper's cycle is one thing — search alternatives, optimise the
//! combination, commit, and, its resources being *non-dedicated*, survive
//! slots being withdrawn by postponing to the next iteration. The first
//! two steps are [`crate::run_iteration`]; this module is the rest, as
//! plain functions over a [`SlotList`]:
//!
//! * [`commit`] turns an [`IterationResult`] into the chosen-alternative
//!   map and the *execution list* (what is still vacant once the chosen
//!   windows are carved out);
//! * [`release_broken`] returns what a revocation left of a broken lease;
//! * [`recover`] runs the recovery tiers for one broken lease, bounded by
//!   [`REPAIR_ATTEMPTS`]:
//!
//!   1. **failover** — adopt a surviving pre-computed alternative (they
//!      are pairwise disjoint by construction, but must be re-validated
//!      against regions consumed by other jobs and against the
//!      revocations);
//!   2. **bounded repair search** — re-run the window search for just the
//!      broken job on the post-revocation list, resuming from the broken
//!      window's start via the incremental checkpoint machinery;
//!   3. **postpone** — carry the job to the next cycle with a
//!      [`PostponeReason`].
//!
//! The caller owns what happens with the outcome (the engine re-commits
//! leases and re-queues jobs) and the clock: it passes the strike's
//! virtual time as `now`, below which alternatives are skipped, repair
//! scans do not start and fragments count as elapsed. A `now` at or before
//! every start switches those three clock clauses off.

use ecosched_core::{ResourceRequest, Revocation, SlotList, Span, TimePoint, Window};
use ecosched_select::{repair_search, try_adopt_window, ScanStats, SlotSelector};

use crate::iteration::IterationResult;

/// Why a job left a cycle unscheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The recovery budget of one broken lease: at most this many attempts,
/// where one attempt is either one failover re-validation or one bounded
/// repair scan. Exhausting it postpones the job with
/// [`PostponeReason::RepairBudgetExhausted`]. The engine configuration
/// keeps the removed setting's wire key, `"repair":{"max_attempts":8,…}`,
/// as a reserved constant.
pub const REPAIR_ATTEMPTS: u32 = 8;

/// How [`recover`] left one broken lease.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery {
    /// Tier 1: a pre-computed alternative survived and was carved out.
    FailedOver {
        /// The adopted alternative's index, as the caller labelled it.
        alternative: usize,
        /// The adopted window.
        window: Window,
    },
    /// Tier 2: a repair search found a fresh window (already carved out of
    /// the execution list).
    Repaired {
        /// The freshly searched window.
        window: Window,
    },
    /// Tier 3: nothing was secured; the job waits for the next cycle.
    Postponed(PostponeReason),
}

/// The commit step: the optimizer's choice per batch index (`None` for
/// jobs it did not cover), the execution list — everything still vacant
/// after the chosen windows were carved out — and how many slots the
/// release merged away. The search subtracted *every* found alternative;
/// the non-chosen ones return to the pool as freshly minted slots (job
/// order, then alternative order) so failovers and repairs can reuse that
/// time. They go back in one walk over the list
/// ([`SlotList::release_windows`]), which with `coalesce` also merges
/// touching same-attribute neighbours, as [`SlotList::coalesce`] would.
///
/// The execution list *is* the search's leftover list, moved out of
/// `result` (`result.search.remaining` is left empty) rather than copied:
/// no caller reads the leftover once the cycle is committed.
#[must_use]
pub fn commit(
    result: &mut IterationResult,
    coalesce: bool,
) -> (Vec<Option<usize>>, SlotList, usize) {
    let mut exec = std::mem::take(&mut result.search.remaining);
    let per_job = result.search.alternatives.per_job();
    let mut chosen: Vec<Option<usize>> = vec![None; per_job.len()];
    if let Some(assignment) = &result.assignment {
        for choice in assignment.choices() {
            chosen[choice.job.index() as usize] = Some(choice.alternative);
        }
    }
    let unchosen = per_job.iter().zip(&chosen).flat_map(|(ja, picked)| {
        let alternatives = ja.alternatives().iter().enumerate();
        alternatives
            .filter(move |(i, _)| *picked != Some(*i))
            .map(|(_, alt)| alt.window())
    });
    let absorbed = exec.release_windows(unchosen, coalesce);
    (chosen, exec, absorbed)
}

/// Returns the surviving fragments of a broken `window` — everything the
/// `revocations` did not consume and that has not elapsed by `now` — to
/// `exec` as freshly minted slots, so later failovers and repairs
/// (including the broken lease's own) can reuse that time.
pub fn release_broken(
    exec: &mut SlotList,
    window: &Window,
    revocations: &[Revocation],
    now: TimePoint,
) {
    for ws in window.slots() {
        let mut fragments = vec![window.used_span(ws)];
        for r in revocations.iter().filter(|r| r.node == ws.node()) {
            fragments = fragments
                .into_iter()
                .flat_map(|frag| {
                    let (left, right) = frag.subtract(r.span);
                    left.into_iter().chain(right)
                })
                .collect();
        }
        for frag in fragments {
            if frag.end() <= now {
                continue; // already elapsed
            }
            let span = Span::new(frag.start().max(now), frag.end())
                .expect("clipped fragments are non-empty");
            exec.release_region(ws, span);
        }
    }
}

/// Recovers one broken lease: tier 1 over `alternatives` (pairs of the
/// caller's label and the window, in adoption-preference order), then
/// tier 2 anchored at the `broken` window's start, then postponement. A
/// recovered window is already carved out of `exec` on return.
///
/// The caller must have removed the `revocations` from `exec` and released
/// the broken leases' survivors ([`release_broken`]) first. Every
/// validation and the scan spend one of [`REPAIR_ATTEMPTS`]; skipping an
/// alternative that starts before `now` spends none.
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
/// rescan could have found. The one exception is time that *returns*:
/// broken leases release their surviving fragments first, and those can
/// make a window feasible before the anchor. The scan does not see it;
/// the job waits for the next cycle's search (DESIGN.md §9).
pub fn recover<'a>(
    selector: &impl SlotSelector,
    request: &ResourceRequest,
    broken: &Window,
    alternatives: impl IntoIterator<Item = (usize, &'a Window)>,
    exec: &mut SlotList,
    revocations: &[Revocation],
    now: TimePoint,
) -> Recovery {
    let mut attempts: u32 = 0;

    // Tier 1: fail over to a surviving pre-computed alternative. Disjoint
    // from the broken window by construction, but other jobs' commitments
    // and this strike's revocations may have consumed it since —
    // re-validate before adopting.
    for (alternative, window) in alternatives {
        if attempts >= REPAIR_ATTEMPTS {
            break;
        }
        if window.start() < now {
            continue; // cannot launch in the past
        }
        attempts += 1;
        if try_adopt_window(window, exec, revocations).is_ok() {
            return Recovery::FailedOver {
                alternative,
                window: window.clone(),
            };
        }
    }

    // Tier 2: bounded repair search on the survivors, resuming at the
    // broken window's start (checkpointed, O(survivors)) — never the past.
    // A hit is carved out of `exec`.
    if attempts < REPAIR_ATTEMPTS {
        attempts += 1;
        let anchor = broken.start().max(now);
        if let Some(window) = repair_search(selector, request, anchor, exec, &mut ScanStats::new())
        {
            exec.subtract_window(&window)
                .expect("repair windows are carved from the execution list");
            return Recovery::Repaired { window };
        }
    }

    // Tier 3: postpone with the reason.
    Recovery::Postponed(if attempts >= REPAIR_ATTEMPTS {
        PostponeReason::RepairBudgetExhausted
    } else {
        PostponeReason::AllAlternativesStale
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iteration::{run_iteration, IterationConfig};
    use ecosched_core::{
        Batch, Job, JobId, NodeId, Perf, Price, Slot, SlotId, TimeDelta, WindowSlot,
    };
    use ecosched_select::{Alp, RepairError};

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    /// A unit-performance slot priced at 2 credits per tick.
    fn slot(id: u64, node: u32, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(2),
            span(a, b),
        )
        .unwrap()
    }

    /// The market: one slot per `(node, a, b)`, ids in order.
    fn market(slots: &[(u32, i64, i64)]) -> SlotList {
        let slots = slots
            .iter()
            .enumerate()
            .map(|(id, &(node, a, b))| slot(id as u64, node, a, b))
            .collect();
        SlotList::from_slots(slots).unwrap()
    }

    /// `[start, start + len)` on each of `nodes`.
    fn window(nodes: &[u32], start: i64, len: i64) -> Window {
        let members = nodes
            .iter()
            .map(|&node| {
                WindowSlot::from_slot(&slot(900, node, start, start + len), TimeDelta::new(len))
                    .unwrap()
            })
            .collect();
        Window::new(TimePoint::new(start), members).unwrap()
    }

    /// Two unit-performance nodes for 20 ticks, any price up to 5.
    fn request() -> ResourceRequest {
        ResourceRequest::new(2, TimeDelta::new(20), Perf::UNIT, Price::from_credits(5)).unwrap()
    }

    /// The owner of `node` withdraws `[a, b)`.
    fn revocation(node: u32, a: i64, b: i64) -> Revocation {
        Revocation {
            slot: SlotId::new(77),
            node: NodeId::new(node),
            span: span(a, b),
        }
    }

    fn ticks(window: &Window) -> i64 {
        window
            .slots()
            .iter()
            .map(|ws| window.used_span(ws).length().ticks())
            .sum()
    }

    /// `recover` for the lease broken at `broken`, at `now`, with
    /// `alternatives` labelled from 7 upwards.
    fn run(
        broken: &Window,
        alternatives: &[Window],
        exec: &mut SlotList,
        revocations: &[Revocation],
        now: i64,
    ) -> Recovery {
        recover(
            &Alp::new(),
            &request(),
            broken,
            alternatives.iter().enumerate().map(|(i, w)| (7 + i, w)),
            exec,
            revocations,
            TimePoint::new(now),
        )
    }

    /// `n` alternatives on nodes 0 and 1, which the markets below never
    /// hold: each validation fails and spends an attempt.
    fn stale(n: u32) -> Vec<Window> {
        (0..n)
            .map(|i| window(&[0, 1], 30 + i64::from(i), 20))
            .collect()
    }

    /// The nodes a window runs on, in member order.
    fn nodes(window: &Window) -> Vec<u32> {
        window.slots().iter().map(|ws| ws.node().index()).collect()
    }

    #[test]
    fn tier_1_adopts_a_surviving_alternative() {
        let mut exec = market(&[(0, 0, 100), (1, 0, 100)]);
        let alt = window(&[0, 1], 30, 20);
        let recovery = run(
            &window(&[2, 3], 0, 20),
            std::slice::from_ref(&alt),
            &mut exec,
            &[revocation(2, 0, 100)],
            0,
        );
        assert_eq!(
            recovery,
            Recovery::FailedOver {
                alternative: 7,
                window: alt
            }
        );
        // The adopted regions, and nothing else, left the execution list.
        assert!(exec.covering_slot(NodeId::new(0), span(30, 50)).is_none());
        assert_eq!(exec.total_vacant_time().ticks(), 200 - 40);
    }

    #[test]
    fn a_revoked_alternative_falls_through_to_the_anchored_repair() {
        // Node 0 was withdrawn with the alternative on it; nodes 4 and 5
        // still host a window at or after the broken start. Node 1 could
        // host one at 40 with node 4, but its slot starts before the
        // anchor, so the scan that resumes there never reads it.
        let mut exec = market(&[(1, 0, 100), (4, 40, 100), (5, 45, 100)]);
        let revocations = [revocation(2, 0, 100), revocation(0, 0, 100)];
        let recovery = run(
            &window(&[2, 3], 40, 20),
            &[window(&[0, 1], 60, 20)],
            &mut exec,
            &revocations,
            0,
        );
        let Recovery::Repaired { window } = recovery else {
            panic!("expected a repair, got {recovery:?}");
        };
        assert_eq!(
            window.start(),
            TimePoint::new(45),
            "scan resumed at its anchor"
        );
        assert_eq!(nodes(&window), [4, 5]);
        assert_eq!(exec.total_vacant_time().ticks(), 100 + 60 + 55 - 40);
    }

    #[test]
    fn a_consumed_alternative_is_counted_as_such() {
        // Nobody revoked node 1, but its time is no longer vacant.
        let mut exec = market(&[(0, 0, 100)]);
        let (alt, revocations) = (window(&[0, 1], 30, 20), [revocation(2, 0, 100)]);
        assert_eq!(
            ecosched_select::revalidate_window(&alt, &exec, &revocations),
            Err(RepairError::Consumed {
                node: NodeId::new(1),
                span: span(30, 50)
            })
        );
        let recovery = run(&window(&[2, 3], 0, 20), &[alt], &mut exec, &revocations, 0);
        assert_eq!(
            recovery,
            Recovery::Postponed(PostponeReason::AllAlternativesStale)
        );
        assert_eq!(
            exec.total_vacant_time().ticks(),
            100,
            "failed adoption carves nothing"
        );
    }

    #[test]
    fn an_exhausted_budget_postpones_before_the_scan() {
        // `REPAIR_ATTEMPTS` stale alternatives spend the budget: the valid
        // one after them is never validated and tier 2 never runs,
        // although nodes 4 and 5 could host the job.
        let mut exec = market(&[(4, 0, 100), (5, 0, 100)]);
        let before = exec.clone();
        let valid = window(&[4, 5], 0, 20);
        let broken = window(&[2, 3], 0, 20);
        let revocations = [revocation(2, 0, 100)];
        let mut alternatives = stale(REPAIR_ATTEMPTS);
        alternatives.push(valid.clone());
        let recovery = run(&broken, &alternatives, &mut exec, &revocations, 0);
        assert_eq!(
            recovery,
            Recovery::Postponed(PostponeReason::RepairBudgetExhausted)
        );
        assert_eq!(exec, before, "nothing was adopted or carved");
        // One stale alternative fewer leaves the last attempt for the
        // valid one.
        alternatives.remove(0);
        let recovery = run(&broken, &alternatives, &mut exec, &revocations, 0);
        assert_eq!(
            recovery,
            Recovery::FailedOver {
                alternative: 7 + REPAIR_ATTEMPTS as usize - 1,
                window: valid
            }
        );
    }

    #[test]
    fn a_dry_scan_postpones_as_stale() {
        let mut exec = market(&[(4, 0, 100)]);
        let before = exec.clone();
        let broken = window(&[2, 3], 0, 20);
        let revocations = [revocation(2, 0, 100)];
        assert_eq!(
            run(&broken, &[], &mut exec, &revocations, 0),
            Recovery::Postponed(PostponeReason::AllAlternativesStale)
        );
        assert_eq!(exec, before);
        // The scan ran and spent an attempt: after one stale alternative
        // fewer than the budget, it spent the last one, and the budget is
        // what ran out.
        let alternatives = stale(REPAIR_ATTEMPTS - 1);
        assert_eq!(
            run(&broken, &alternatives, &mut exec, &revocations, 0),
            Recovery::Postponed(PostponeReason::RepairBudgetExhausted)
        );
    }

    #[test]
    fn a_window_released_before_the_anchor_waits_for_the_next_cycle() {
        // Node 0 alone cannot host two nodes. Another broken lease held
        // nodes 1 and 5 over [10, 40); node 5 was withdrawn, node 1 was
        // not, so its fragment comes back — a window at 10, before this
        // job's broken plan at 60, where the anchored scan never looks.
        let revocations = [revocation(2, 0, 100), revocation(5, 0, 100)];
        let mut exec = market(&[(0, 0, 100)]);
        release_broken(
            &mut exec,
            &window(&[1, 5], 10, 30),
            &revocations,
            TimePoint::ZERO,
        );
        let broken = window(&[2, 3], 60, 20);
        let recovery = run(&broken, &[], &mut exec, &revocations, 0);
        assert_eq!(
            recovery,
            Recovery::Postponed(PostponeReason::AllAlternativesStale)
        );
    }

    #[test]
    fn alternatives_starting_in_the_past_are_skipped_for_free() {
        // A whole budget's worth of copies of one alternative at 10.
        let alternatives = vec![window(&[0, 1], 10, 20); REPAIR_ATTEMPTS as usize];
        // Nodes 4 and 5 open at 20: a scan from 20 finds them, one from 10
        // would too, but none from before 10 is asked for.
        let recover_at = |now: i64| {
            let mut exec = market(&[(0, 0, 100), (1, 0, 100), (4, 20, 100), (5, 20, 100)]);
            run(
                &window(&[2, 3], 5, 20),
                &alternatives,
                &mut exec,
                &[revocation(2, 0, 100)],
                now,
            )
        };
        assert!(matches!(
            recover_at(10),
            Recovery::FailedOver { alternative: 7, .. }
        ));
        // At 20 none of them can launch any more. Skipping them spends no
        // attempt, so the budget still buys the scan — which only looks
        // at slots starting at or after `now`, and finds nodes 4 and 5
        // there, not the older slots on 0 and 1.
        let Recovery::Repaired { window } = recover_at(20) else {
            panic!("the skips must leave the attempts for the scan");
        };
        assert_eq!(window.start(), TimePoint::new(20));
        assert_eq!(nodes(&window), [4, 5]);
    }

    #[test]
    fn release_broken_drops_revoked_and_elapsed_time() {
        let mut exec = SlotList::new();
        // Node 0 loses [20, 30) of its [10, 50) region; at `now` = 15 the
        // left fragment is clipped, and node 1's region is untouched.
        release_broken(
            &mut exec,
            &window(&[0, 1], 10, 40),
            &[revocation(0, 20, 30)],
            TimePoint::new(15),
        );
        let spans: Vec<(u32, Span)> = exec.iter().map(|s| (s.node().index(), s.span())).collect();
        assert_eq!(
            spans,
            vec![(0, span(15, 20)), (1, span(15, 50)), (0, span(30, 50))]
        );
    }

    #[test]
    fn commit_conserves_vacant_time() {
        for coalesce in [false, true] {
            commit_conserves_vacant_time_with(coalesce);
        }
    }

    fn commit_conserves_vacant_time_with(coalesce: bool) {
        let list = market(&[(0, 0, 600), (1, 0, 600), (2, 0, 600), (3, 0, 600)]);
        let job = |id: u32, nodes: usize, length: i64| {
            let request = ResourceRequest::new(
                nodes,
                TimeDelta::new(length),
                Perf::UNIT,
                Price::from_credits(5),
            );
            Job::new(JobId::new(id), request.unwrap())
        };
        let batch = Batch::from_jobs(vec![job(0, 2, 100), job(1, 1, 80)]).unwrap();
        let mut result =
            run_iteration(Alp::new(), &list, &batch, &IterationConfig::default()).unwrap();
        let vacant = |l: &SlotList| l.total_vacant_time().ticks();
        let leftover_ticks = vacant(&result.search.remaining);
        let leftover_slots = result.search.remaining.len();
        let (chosen, exec, absorbed) = commit(&mut result, coalesce);
        assert!(result.search.remaining.is_empty(), "the leftover is moved");

        let (mut chosen_ticks, mut released_ticks, mut released) = (0, 0, 0);
        for (ja, picked) in result.search.alternatives.per_job().iter().zip(&chosen) {
            assert!(
                ja.alternatives().len() > 1,
                "the market hosts several alternatives"
            );
            for (alt_idx, alt) in ja.alternatives().iter().enumerate() {
                if *picked == Some(alt_idx) {
                    chosen_ticks += ticks(alt.window());
                } else {
                    released_ticks += ticks(alt.window());
                    released += alt.window().slot_count();
                }
            }
        }
        assert!(chosen.iter().all(Option::is_some));
        assert_eq!(vacant(&exec), leftover_ticks + released_ticks);
        assert_eq!(vacant(&exec) + chosen_ticks, vacant(&list));
        assert_eq!(exec.len(), leftover_slots + released - absorbed);
        assert_eq!(
            absorbed > 0,
            coalesce,
            "released regions touch the leftover"
        );
        exec.validate().unwrap();
    }
}
