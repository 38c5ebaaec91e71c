//! ALP — the Algorithm based on Local Price of slots (paper Sec. 3).
//!
//! ALP restricts admission to slots whose *individual* price per time unit
//! is within the request's cap `C` (condition 2°c) and accepts the first
//! moment the candidate pool holds `N` live slots. The scan moves only
//! forward, so one call examines each slot of the list at most once.

use ecosched_core::{ResourceRequest, SlotList, Window};

use crate::incremental::{AlgoSpec, JobScan};
use crate::scan::{forward_scan, LengthRule};
use crate::selector::SlotSelector;
use crate::stats::ScanStats;

/// The Algorithm based on Local Price.
///
/// # Examples
///
/// ```
/// use ecosched_core::{
///     NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint,
/// };
/// use ecosched_select::{Alp, ScanStats, SlotSelector};
///
/// let slots = (0..3)
///     .map(|i| {
///         Slot::new(
///             SlotId::new(i),
///             NodeId::new(i as u32),
///             Perf::UNIT,
///             Price::from_credits(2),
///             Span::new(TimePoint::new(10 * i as i64), TimePoint::new(500)).unwrap(),
///         )
///     })
///     .collect::<Result<Vec<_>, _>>()?;
/// let list = SlotList::from_slots(slots)?;
/// let request = ResourceRequest::new(2, TimeDelta::new(80), Perf::UNIT, Price::from_credits(3))?;
///
/// let mut stats = ScanStats::new();
/// let window = Alp::new().find_window(&list, &request, &mut stats).expect("window exists");
/// assert_eq!(window.slot_count(), 2);
/// assert_eq!(window.start(), TimePoint::new(10));
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Alp {
    rule: LengthRule,
}

impl Alp {
    /// Creates ALP with the corrected length rule (see DESIGN.md R1).
    #[must_use]
    pub fn new() -> Self {
        Alp {
            rule: LengthRule::Corrected,
        }
    }

    /// Creates ALP with an explicit length rule (for the R1 ablation).
    #[must_use]
    pub fn with_length_rule(rule: LengthRule) -> Self {
        Alp { rule }
    }

    /// The configured length rule.
    #[must_use]
    pub fn length_rule(&self) -> LengthRule {
        self.rule
    }

    /// The restart-from-scratch reference implementation of
    /// [`SlotSelector::find_window`].
    ///
    /// An oracle: the equivalence reference for the incremental scan and
    /// the "before" side of the search benchmarks, which no search calls.
    /// Returns exactly the same window and counters as `find_window`.
    #[doc(hidden)]
    pub fn find_window_naive(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        let n = request.nodes();
        forward_scan(
            list,
            request,
            self.rule,
            stats,
            |slot| request.price_ok(slot), // condition 2°c
            |pool, stats| {
                stats.acceptance_tests += 1;
                // The first N admitted members, in list order — a same-start
                // group can push the pool past N in one step.
                Some(pool.members()[..n].to_vec())
            },
        )
    }
}

impl SlotSelector for Alp {
    fn name(&self) -> &'static str {
        "ALP"
    }

    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        JobScan::new(&AlgoSpec::alp(self.rule), request).run(list, stats)
    }

    fn as_algo(&self) -> Option<AlgoSpec> {
        Some(AlgoSpec::alp(self.rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, Span, TimeDelta, TimePoint};

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

    fn req(n: usize, t: i64, p: f64, c: i64) -> ResourceRequest {
        ResourceRequest::new(
            n,
            TimeDelta::new(t),
            Perf::from_f64(p),
            Price::from_credits(c),
        )
        .unwrap()
    }

    #[test]
    fn skips_overpriced_slots() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 10, 0, 500), // too expensive
            slot(1, 1, 1.0, 2, 20, 500),
            slot(2, 2, 1.0, 2, 40, 500),
        ])
        .unwrap();
        let mut stats = ScanStats::new();
        let w = Alp::new()
            .find_window(&list, &req(2, 50, 1.0, 3), &mut stats)
            .unwrap();
        assert!(!w.uses_node(NodeId::new(0)));
        assert_eq!(w.start(), TimePoint::new(40));
        assert_eq!(stats.slots_admitted, 2);
    }

    #[test]
    fn fails_when_not_enough_concurrent_slots() {
        // Two suitable slots, but they never coexist: the first expires
        // before the second starts.
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 1, 0, 60),
            slot(1, 1, 1.0, 1, 100, 200),
        ])
        .unwrap();
        let mut stats = ScanStats::new();
        assert!(Alp::new()
            .find_window(&list, &req(2, 50, 1.0, 5), &mut stats)
            .is_none());
        assert_eq!(stats.slots_examined, 2);
        assert_eq!(stats.slots_expired, 1);
    }

    #[test]
    fn window_has_rough_right_edge_on_heterogeneous_nodes() {
        let list =
            SlotList::from_slots(vec![slot(0, 0, 1.0, 1, 0, 500), slot(1, 1, 2.0, 1, 0, 500)])
                .unwrap();
        let mut stats = ScanStats::new();
        let w = Alp::new()
            .find_window(&list, &req(2, 100, 1.0, 5), &mut stats)
            .unwrap();
        // Slowest node (rate 1) defines the window length.
        assert_eq!(w.length(), TimeDelta::new(100));
        let runtimes: Vec<i64> = w.slots().iter().map(|ws| ws.runtime().ticks()).collect();
        assert!(runtimes.contains(&100));
        assert!(runtimes.contains(&50));
    }

    #[test]
    fn earliest_window_is_selected() {
        // A full pool forms at t=30 (slots 0,1); a cheaper one would form
        // at t=200, but ALP takes the earliest.
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 3, 0, 500),
            slot(1, 1, 1.0, 3, 30, 500),
            slot(2, 2, 1.0, 1, 200, 500),
            slot(3, 3, 1.0, 1, 200, 500),
        ])
        .unwrap();
        let mut stats = ScanStats::new();
        let w = Alp::new()
            .find_window(&list, &req(2, 50, 1.0, 5), &mut stats)
            .unwrap();
        assert_eq!(w.start(), TimePoint::new(30));
        assert_eq!(stats.slots_examined, 2); // stopped early
    }

    #[test]
    fn examines_each_slot_at_most_once() {
        let slots: Vec<Slot> = (0..100)
            .map(|i| slot(i, i as u32, 1.0, 1, i as i64, i as i64 + 20))
            .collect();
        let list = SlotList::from_slots(slots).unwrap();
        let mut stats = ScanStats::new();
        // Request impossible to satisfy: wants 50 concurrent 10-tick tasks.
        assert!(Alp::new()
            .find_window(&list, &req(50, 10, 1.0, 5), &mut stats)
            .is_none());
        assert_eq!(stats.slots_examined, 100);
    }

    #[test]
    fn name_is_alp() {
        assert_eq!(Alp::new().name(), "ALP");
        assert_eq!(
            Alp::with_length_rule(LengthRule::PaperLiteral).length_rule(),
            LengthRule::PaperLiteral
        );
    }
}
