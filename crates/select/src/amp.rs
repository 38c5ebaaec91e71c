//! AMP — the Algorithm based on Maximal job Price (paper Sec. 3).
//!
//! AMP drops ALP's per-slot price cap and instead constrains the *window*:
//! the `N` cheapest live pool members must together cost no more than the
//! job budget `S = C·t·N` (optionally discounted to `ρ·C·t·N`, Sec. 6).
//! Expensive fast nodes can therefore join a window as long as cheaper
//! members compensate — the behaviour the paper credits for AMP's larger
//! alternative counts and shorter batch times.

use ecosched_core::{Money, ResourceRequest, SlotList, Window};

use crate::incremental::{AlgoSpec, JobScan};
use crate::scan::{forward_scan, LengthRule, PoolMember};
use crate::selector::SlotSelector;
use crate::stats::ScanStats;

/// The Algorithm based on Maximal job Price.
///
/// # Examples
///
/// AMP can use a slot priced above the per-slot cap when the window still
/// fits the budget — ALP cannot:
///
/// ```
/// use ecosched_core::{
///     NodeId, Perf, Price, ResourceRequest, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint,
/// };
/// use ecosched_select::{Alp, Amp, ScanStats, SlotSelector};
///
/// let mk = |id: u64, node: u32, price: i64| {
///     Slot::new(
///         SlotId::new(id),
///         NodeId::new(node),
///         Perf::UNIT,
///         Price::from_credits(price),
///         Span::new(TimePoint::new(0), TimePoint::new(500)).unwrap(),
///     )
/// };
/// // One cheap and one expensive slot; cap C = 5 per slot, budget = 5·80·2.
/// let list = SlotList::from_slots(vec![mk(0, 0, 2)?, mk(1, 1, 7)?])?;
/// let request = ResourceRequest::new(2, TimeDelta::new(80), Perf::UNIT, Price::from_credits(5))?;
///
/// let mut stats = ScanStats::new();
/// assert!(Alp::new().find_window(&list, &request, &mut stats).is_none());
/// assert!(Amp::new().find_window(&list, &request, &mut stats).is_some());
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Amp {
    rule: LengthRule,
    rho: f64,
}

impl Amp {
    /// Creates AMP with the full budget `S = C·t·N` and the corrected
    /// length rule.
    #[must_use]
    pub fn new() -> Self {
        Amp {
            rule: LengthRule::Corrected,
            rho: 1.0,
        }
    }

    /// Creates AMP with the discounted budget `S = ρ·C·t·N` (Sec. 6).
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `(0, 1]`.
    #[must_use]
    pub fn with_rho(rho: f64) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1], got {rho}");
        Amp {
            rule: LengthRule::Corrected,
            rho,
        }
    }

    /// Creates AMP with an explicit length rule (for the R1 ablation).
    #[must_use]
    pub fn with_length_rule(rule: LengthRule) -> Self {
        Amp { rule, rho: 1.0 }
    }

    /// The budget discount factor ρ.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The configured length rule.
    #[must_use]
    pub fn length_rule(&self) -> LengthRule {
        self.rule
    }

    /// The effective job budget for `request` under this configuration.
    #[must_use]
    pub fn budget(&self, request: &ResourceRequest) -> Money {
        if self.rho >= 1.0 {
            request.budget()
        } else {
            request.budget_scaled(self.rho)
        }
    }

    /// The sort-per-group reference implementation of
    /// [`SlotSelector::find_window`].
    ///
    /// An oracle: the equivalence reference for the incremental
    /// cost-ordered pool and the "before" side of the search benchmarks,
    /// which no search calls. Returns exactly the same window and counters
    /// as `find_window`, in `O(p log p)` per acceptance test instead of
    /// `O(log p)`.
    #[doc(hidden)]
    pub fn find_window_naive(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        let n = request.nodes();
        let budget = self.budget(request);
        forward_scan(
            list,
            request,
            self.rule,
            stats,
            |_| true, // no per-slot price condition
            |pool, stats| {
                stats.acceptance_tests += 1;
                // Step 2°: sort live members by cost (ties broken by slot
                // id for determinism — DESIGN.md R5) and price the N
                // cheapest.
                let mut by_cost: Vec<&PoolMember> = pool.members().iter().collect();
                by_cost.sort_by_key(|m| (m.cost(), m.slot.id()));
                let chosen = &by_cost[..n];
                let total: Money = chosen.iter().map(|m| m.cost()).sum();
                if total <= budget {
                    Some(chosen.iter().map(|&&m| m).collect())
                } else {
                    None
                }
            },
        )
    }
}

impl Default for Amp {
    fn default() -> Self {
        Amp::new()
    }
}

impl SlotSelector for Amp {
    fn name(&self) -> &'static str {
        "AMP"
    }

    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        JobScan::new(&AlgoSpec::amp(self.rule, self.rho), request).run(list, stats)
    }

    fn as_algo(&self) -> Option<AlgoSpec> {
        Some(AlgoSpec::amp(self.rule, self.rho))
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
    fn accepts_expensive_slot_within_budget() {
        // Cap 5/slot → budget 5·50·2 = 500. Slots cost 2·50=100 and
        // 7·50=350; total 450 ≤ 500, so AMP accepts what ALP would reject.
        let list =
            SlotList::from_slots(vec![slot(0, 0, 1.0, 2, 0, 500), slot(1, 1, 1.0, 7, 0, 500)])
                .unwrap();
        let mut stats = ScanStats::new();
        let w = Amp::new()
            .find_window(&list, &req(2, 50, 1.0, 5), &mut stats)
            .unwrap();
        assert_eq!(w.slot_count(), 2);
        assert_eq!(w.total_cost(), ecosched_core::Money::from_credits(450));
    }

    #[test]
    fn keeps_scanning_when_cheapest_n_over_budget() {
        // First two slots cost 6·50+7·50 = 650 > 500; a later cheap slot
        // brings the cheapest-2 down to 6·50+2·50 = 400 ≤ 500.
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 6, 0, 500),
            slot(1, 1, 1.0, 7, 10, 500),
            slot(2, 2, 1.0, 2, 30, 500),
        ])
        .unwrap();
        let mut stats = ScanStats::new();
        let w = Amp::new()
            .find_window(&list, &req(2, 50, 1.0, 5), &mut stats)
            .unwrap();
        assert!(w.uses_node(NodeId::new(0)));
        assert!(w.uses_node(NodeId::new(2)));
        assert!(!w.uses_node(NodeId::new(1)));
        assert_eq!(w.start(), TimePoint::new(30));
        assert!(stats.acceptance_tests >= 2);
    }

    #[test]
    fn cheapest_selection_prefers_fast_cheap_total() {
        // A fast node with a high price can still be the cheaper member
        // because it occupies fewer ticks. The slow node alone exceeds the
        // budget (5·100 = 500 > 4·100·1), so the scan must continue and
        // pick the fast node (6·50 = 300 ≤ 400).
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 5, 0, 500), // cost 5·100 = 500 — over budget
            slot(1, 1, 2.0, 6, 0, 500), // cost 6·50 = 300 — cheaper!
        ])
        .unwrap();
        let mut stats = ScanStats::new();
        let w = Amp::new()
            .find_window(&list, &req(1, 100, 1.0, 4), &mut stats)
            .unwrap();
        assert!(w.uses_node(NodeId::new(1)));
        assert_eq!(w.length(), TimeDelta::new(50));
    }

    #[test]
    fn fails_when_budget_unreachable() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 20, 0, 500),
            slot(1, 1, 1.0, 20, 0, 500),
        ])
        .unwrap();
        let mut stats = ScanStats::new();
        assert!(Amp::new()
            .find_window(&list, &req(2, 50, 1.0, 5), &mut stats)
            .is_none());
        assert_eq!(stats.slots_examined, 2);
    }

    #[test]
    fn rho_discount_tightens_budget() {
        // Costs: 5·50 + 5·50 = 500 = budget exactly → accepted at ρ=1.
        let list =
            SlotList::from_slots(vec![slot(0, 0, 1.0, 5, 0, 500), slot(1, 1, 1.0, 5, 0, 500)])
                .unwrap();
        let request = req(2, 50, 1.0, 5);
        let mut stats = ScanStats::new();
        assert!(Amp::new()
            .find_window(&list, &request, &mut stats)
            .is_some());
        assert!(Amp::with_rho(0.8)
            .find_window(&list, &request, &mut stats)
            .is_none());
    }

    #[test]
    fn any_alp_window_is_amp_feasible() {
        // Sec. 6: every window ALP can find, AMP can find too. Spot-check:
        // all slots within cap → both find a window with the same cost
        // bound satisfied.
        use crate::alp::Alp;
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 3, 0, 500),
            slot(1, 1, 1.0, 4, 10, 500),
            slot(2, 2, 1.0, 5, 20, 500),
        ])
        .unwrap();
        let request = req(3, 50, 1.0, 5);
        let mut stats = ScanStats::new();
        let alp_w = Alp::new().find_window(&list, &request, &mut stats).unwrap();
        let amp_w = Amp::new().find_window(&list, &request, &mut stats).unwrap();
        assert!(alp_w.total_cost() <= request.budget());
        assert!(amp_w.total_cost() <= request.budget());
    }

    #[test]
    #[should_panic(expected = "rho must be in (0, 1]")]
    fn invalid_rho_panics() {
        let _ = Amp::with_rho(0.0);
    }

    #[test]
    fn accessors() {
        let amp = Amp::with_rho(0.8);
        assert!((amp.rho() - 0.8).abs() < 1e-12);
        assert_eq!(amp.name(), "AMP");
        assert_eq!(Amp::default(), Amp::new());
        assert_eq!(
            Amp::with_length_rule(LengthRule::PaperLiteral).length_rule(),
            LengthRule::PaperLiteral
        );
    }
}
