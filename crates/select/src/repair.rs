//! Failover re-validation and bounded repair search.
//!
//! The paper's resources are non-dedicated: a vacant slot published to the
//! metascheduler can be withdrawn by its owner between the alternatives
//! search and the launch. This module provides the two search-layer tiers
//! of the recovery policy (the third tier — postponing to the next cycle —
//! is the caller's, `ecosched_sim::cycle::recover`):
//!
//! 1. **Failover** — [`try_adopt_window`] re-validates one of the job's
//!    pre-computed alternatives against the current execution list and the
//!    revocations of this cycle, and carves it out atomically. The
//!    alternatives are pairwise disjoint by construction, but other jobs'
//!    commitments and revocations may have consumed their slots since the
//!    search ran; [`RepairError`] says which region went stale and why.
//! 2. **Bounded repair search** — [`repair_search`] re-runs the window
//!    search for just the broken job on the post-revocation list, resuming
//!    from the broken window's start via the incremental checkpoint
//!    machinery so the scan is O(survivors after the anchor), never a full
//!    rescan.
//!
//! Windows are validated by *region*, not by slot id: committed windows
//! reference remnant ids minted during subtraction while revocations are
//! drawn against the published list, so the `(node, span)` region is the
//! only identity both sides share.

use ecosched_core::{NodeId, Revocation, SlotList, Span, TimePoint, Window};

use crate::incremental::JobScan;
use crate::selector::SlotSelector;
use crate::stats::ScanStats;
use ecosched_core::ResourceRequest;

/// Why a pre-computed alternative can no longer be adopted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// A member's used region intersects a revocation of this cycle.
    Revoked {
        /// The node the revoked member runs on.
        node: NodeId,
        /// The member's used region.
        span: Span,
    },
    /// A member's used region is no longer covered by any vacant slot —
    /// another job's commitment (or an earlier repair) consumed it.
    Consumed {
        /// The node the consumed member runs on.
        node: NodeId,
        /// The member's used region.
        span: Span,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Revoked { node, span } => {
                write!(f, "region {span} on node {node} was revoked")
            }
            RepairError::Consumed { node, span } => {
                write!(
                    f,
                    "region {span} on node {node} was consumed by another commitment"
                )
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// Checks that every member of `window` is still launchable: its used
/// region intersects no revocation and is fully covered by a vacant slot
/// on its node. `O(k log m)` for a `k`-member window via the slot list's
/// per-node timelines.
pub fn revalidate_window(
    window: &Window,
    list: &SlotList,
    revocations: &[Revocation],
) -> Result<(), RepairError> {
    for ws in window.slots() {
        let (node, span) = (ws.node(), window.used_span(ws));
        if revocations.iter().any(|r| r.hits(node, span)) {
            return Err(RepairError::Revoked { node, span });
        }
        if list.covering_slot(node, span).is_none() {
            return Err(RepairError::Consumed { node, span });
        }
    }
    Ok(())
}

/// Re-validates `window` and, if every member is still launchable, carves
/// its used regions out of `list` by node and region
/// ([`SlotList::remove_region`]): each cuts the one slot that covers it,
/// minting the remnants left then right, as a subtraction would.
///
/// Validation runs to completion before any mutation, and window members
/// sit on distinct nodes, so adoption either happens in full or leaves the
/// list untouched — there is no partial carve to roll back.
pub fn try_adopt_window(
    window: &Window,
    list: &mut SlotList,
    revocations: &[Revocation],
) -> Result<(), RepairError> {
    revalidate_window(window, list, revocations)?;
    for ws in window.slots() {
        list.remove_region(ws.node(), window.used_span(ws));
    }
    Ok(())
}

/// Tier-2 recovery: re-runs the window search for one broken job on the
/// post-revocation `list`, looking forward from `resume_at` (the broken
/// window's start).
///
/// Built-in selectors go through the incremental checkpoint machinery
/// ([`crate::SlotSelector::as_algo`]), so the scan resumes at `resume_at`
/// and examines only the slots starting there or later — `stats.
/// checkpoint_hits` increments and `stats.slots_examined` is bounded by
/// the survivor suffix, never the full list. Custom selectors fall back to
/// their own `find_window`.
///
/// The caller owns the commitment: on `Some(window)`, subtract it from
/// `list` before repairing the next job.
pub fn repair_search(
    selector: &impl SlotSelector,
    request: &ResourceRequest,
    resume_at: TimePoint,
    list: &SlotList,
    stats: &mut ScanStats,
) -> Option<Window> {
    match selector.as_algo() {
        Some(spec) => {
            let mut scan = JobScan::new(&spec, request);
            scan.resume_from(resume_at);
            scan.run(list, stats)
        }
        None => selector.find_window(list, request, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alp::Alp;
    use crate::amp::Amp;
    use ecosched_core::{Perf, Price, Slot, SlotId, TimeDelta, WindowSlot};

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn slot(id: u64, node: u32, price: i64, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(price),
            span(a, b),
        )
        .unwrap()
    }

    fn request(nodes: usize, length: i64, cap: i64) -> ResourceRequest {
        ResourceRequest::new(
            nodes,
            TimeDelta::new(length),
            Perf::UNIT,
            Price::from_credits(cap),
        )
        .unwrap()
    }

    /// A 2-node window [start, start+len) on nodes 0 and 1.
    fn window(start: i64, len: i64) -> Window {
        let members = (0..2)
            .map(|node| {
                WindowSlot::from_slot(
                    &slot(90 + node as u64, node, 2, start, start + len),
                    TimeDelta::new(len),
                )
                .unwrap()
            })
            .collect();
        Window::new(TimePoint::new(start), members).unwrap()
    }

    fn revocation(node: u32, a: i64, b: i64) -> Revocation {
        Revocation {
            slot: SlotId::new(77),
            node: NodeId::new(node),
            span: span(a, b),
        }
    }

    fn wide_list() -> SlotList {
        SlotList::from_slots(vec![
            slot(0, 0, 2, 0, 600),
            slot(1, 1, 2, 0, 600),
            slot(2, 2, 2, 0, 600),
        ])
        .unwrap()
    }

    #[test]
    fn revalidate_passes_on_covered_regions() {
        let list = wide_list();
        assert_eq!(revalidate_window(&window(100, 50), &list, &[]), Ok(()));
    }

    #[test]
    fn revalidate_reports_revoked_before_consumed() {
        let list = SlotList::from_slots(vec![slot(0, 0, 2, 0, 600)]).unwrap();
        // Node 1 has no coverage at all, but the revocation on node 0 is
        // reported first (member order).
        let err = revalidate_window(&window(100, 50), &list, &[revocation(0, 120, 130)]);
        assert_eq!(
            err,
            Err(RepairError::Revoked {
                node: NodeId::new(0),
                span: span(100, 150),
            })
        );
        let err = revalidate_window(&window(100, 50), &list, &[]);
        assert_eq!(
            err,
            Err(RepairError::Consumed {
                node: NodeId::new(1),
                span: span(100, 150),
            })
        );
        // A revocation elsewhere on the node does not break the window.
        assert!(revalidate_window(
            &window(100, 50),
            &wide_list(),
            &[revocation(0, 150, 200), revocation(2, 0, 600)]
        )
        .is_ok());
    }

    #[test]
    fn try_adopt_carves_atomically_or_not_at_all() {
        let mut list = wide_list();
        let before = list.clone();
        // Node 1's region is consumed → nothing on node 0 may be carved.
        list.remove_region(NodeId::new(1), span(0, 600));
        let snapshot = list.clone();
        let err = try_adopt_window(&window(100, 50), &mut list, &[]);
        assert!(matches!(err, Err(RepairError::Consumed { node, .. }) if node == NodeId::new(1)));
        assert_eq!(list, snapshot);

        // On the intact list adoption subtracts exactly the used regions.
        let mut list = before;
        try_adopt_window(&window(100, 50), &mut list, &[]).unwrap();
        list.validate().unwrap();
        assert!(list.covering_slot(NodeId::new(0), span(100, 150)).is_none());
        assert!(list.covering_slot(NodeId::new(1), span(100, 150)).is_none());
        assert!(list.covering_slot(NodeId::new(2), span(100, 150)).is_some());
        // Each covering slot is replaced by its remnants, minted left then
        // right, member by member.
        let node = |n: u32| {
            let on = list.iter().filter(move |s| s.node() == NodeId::new(n));
            on.map(|s| (s.id().raw(), s.span())).collect::<Vec<_>>()
        };
        assert_eq!(node(0), [(3, span(0, 100)), (4, span(150, 600))]);
        assert_eq!(node(1), [(5, span(0, 100)), (6, span(150, 600))]);
    }

    #[test]
    fn repair_search_resumes_at_the_anchor() {
        // 30 early slots the repair scan must NOT examine, plus survivors
        // at and after the anchor.
        let mut slots: Vec<Slot> = (0u32..30)
            .map(|i| slot(u64::from(i), 5 + i, 2, 0, 10))
            .collect();
        slots.push(slot(40, 0, 2, 200, 400));
        slots.push(slot(41, 1, 2, 200, 400));
        let list = SlotList::from_slots(slots).unwrap();

        let mut stats = ScanStats::new();
        let found = repair_search(
            &Alp::new(),
            &request(2, 50, 5),
            TimePoint::new(200),
            &list,
            &mut stats,
        )
        .unwrap();
        assert_eq!(found.start(), TimePoint::new(200));
        assert_eq!(stats.checkpoint_hits, 1, "repair must resume, not rescan");
        assert_eq!(
            stats.slots_examined, 2,
            "only the survivor suffix is scanned"
        );
    }

    #[test]
    fn repair_search_excludes_windows_before_the_broken_start() {
        // Earlier-start exclusion (see `RepairPolicy` in ecosched-sim): a
        // window that is perfectly feasible but starts BEFORE the broken
        // plan's start must not be returned — the original search already
        // rejected or consumed that prefix against a larger list, so the
        // repair scan resumes at the anchor and keeps whatever it finds
        // at or after it.
        let list = SlotList::from_slots(vec![
            // A feasible 2-node window at t=0, strictly before the anchor.
            slot(0, 0, 2, 0, 100),
            slot(1, 1, 2, 0, 100),
            // The survivors at the anchor.
            slot(2, 2, 2, 300, 500),
            slot(3, 3, 2, 300, 500),
        ])
        .unwrap();
        for selector in [&Alp::new() as &dyn SlotSelector, &Amp::new()] {
            let mut stats = ScanStats::new();
            let found = repair_search(
                &selector,
                &request(2, 50, 5),
                TimePoint::new(300),
                &list,
                &mut stats,
            )
            .unwrap();
            assert_eq!(
                found.start(),
                TimePoint::new(300),
                "repair must not adopt the earlier (pre-anchor) window"
            );
            assert!(found.slots().iter().all(|ws| ws.source() >= SlotId::new(2)));
            assert_eq!(stats.checkpoint_hits, 1, "resume, never a full rescan");
        }
    }

    #[test]
    fn repair_search_enforces_amp_budget() {
        let list =
            SlotList::from_slots(vec![slot(0, 0, 9, 100, 400), slot(1, 1, 9, 100, 400)]).unwrap();
        // Budget S = C·t·N = 2·50·2 = 200 credits < 2 slots · 9/tick · 50.
        let mut stats = ScanStats::new();
        let none = repair_search(
            &Amp::new(),
            &request(2, 50, 2),
            TimePoint::new(100),
            &list,
            &mut stats,
        );
        assert!(none.is_none());
        assert_eq!(stats.checkpoint_hits, 1);
        assert_eq!(
            stats.acceptance_tests - stats.windows_found,
            1,
            "the budget rejection is visible in the stats"
        );
    }

    #[test]
    fn repair_search_falls_back_for_custom_selectors() {
        #[derive(Clone, Copy)]
        struct Never;
        impl SlotSelector for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn find_window(
                &self,
                _list: &SlotList,
                _request: &ResourceRequest,
                stats: &mut ScanStats,
            ) -> Option<Window> {
                stats.slots_examined += 1;
                None
            }
        }
        let mut stats = ScanStats::new();
        let none = repair_search(
            &Never,
            &request(1, 10, 5),
            TimePoint::new(0),
            &wide_list(),
            &mut stats,
        );
        assert!(none.is_none());
        assert_eq!(stats.slots_examined, 1);
        assert_eq!(stats.checkpoint_hits, 0);
    }
}
