//! Shared forward-scan machinery for ALP and AMP.
//!
//! Both algorithms walk the start-ordered slot list exactly once,
//! maintaining a *candidate pool*. When slot `s_k` is examined, the window
//! anchor (the synchronized start of all tasks) is `s_k`'s start time —
//! every pooled slot started no later, so all of them can still start
//! together at that moment, provided enough of their span remains.
//!
//! A pooled member `m` is **live** at anchor `a` iff
//! `a + runtime_m ≤ m.end` — this is the paper's step 3° expiration test
//! `L'(s_k) < (t − (T_last − T(s_k)))·…` rewritten in absolute coordinates.
//! Note the pool is therefore a pure function of the anchor, which is what
//! makes the single forward pass sound: expiring a member can never need to
//! be undone.

use ecosched_core::{
    Money, Perf, ResourceRequest, Slot, TimeDelta, TimePoint, Window, WindowSlot, PERF_SCALE,
};
use serde::{Deserialize, Serialize};

use crate::stats::ScanStats;

/// Which reading of the paper's condition 2°b to use (DESIGN.md note R1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LengthRule {
    /// Corrected rule: the request's wall time `t` is *etalon-relative*
    /// (Sec. 6: "in assumption that the job will be executed on the etalon
    /// nodes with `P = 1`"), so the runtime on node `k` is `ceil(t/P(s_k))`
    /// — faster nodes finish sooner, and the slot cost works out to
    /// Sec. 6's `C·t/P`. The minimum performance `P` is an admission
    /// filter only. This is the default.
    #[default]
    Corrected,
    /// The paper's literal step-2°b inequality `L(s_k) ≥ t·P(s_k)/P`,
    /// under which faster nodes need longer slots. Kept for the R1
    /// ablation bench.
    PaperLiteral,
}

impl LengthRule {
    /// Runtime of a task with the given request on a node of rate `perf`.
    #[must_use]
    pub fn runtime(self, request: &ResourceRequest, perf: Perf) -> TimeDelta {
        match self {
            LengthRule::Corrected => perf.runtime_for(request.wall_time(), Perf::UNIT),
            LengthRule::PaperLiteral => {
                perf.runtime_for_paper_literal(request.wall_time(), request.min_perf())
            }
        }
    }
}

/// A pooled candidate: a suited slot plus its precomputed task runtime.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolMember {
    pub(crate) slot: Slot,
    pub(crate) runtime: TimeDelta,
}

/// Tests admission conditions 2°a (performance) and 2°b (length) for one
/// slot and returns the pool member on success. Condition 2°c (price) is
/// the algorithm-specific filter and is *not* applied here. Shared by the
/// naive [`forward_scan`] pool and the incremental per-job scans.
///
/// Under the corrected rule a slot of length `L` on a node of rate `p`
/// is too short iff `L < ceil(t·PERF_SCALE / p)`, that is iff
/// `t·PERF_SCALE > L·p`: a slot too short is refused by that product,
/// before the division that prices the runtime.
pub(crate) fn admit_slot(
    request: &ResourceRequest,
    rule: LengthRule,
    slot: &Slot,
) -> Option<PoolMember> {
    if !slot.perf().satisfies(request.min_perf()) {
        return None;
    }
    if rule == LengthRule::Corrected {
        let work = i128::from(request.wall_time().ticks()) * i128::from(PERF_SCALE);
        if work > i128::from(slot.length().ticks()) * i128::from(slot.perf().milli()) {
            return None;
        }
    }
    let runtime = rule.runtime(request, slot.perf());
    if !runtime.is_positive() || slot.length() < runtime {
        return None;
    }
    Some(PoolMember {
        slot: *slot,
        runtime,
    })
}

impl PoolMember {
    /// Cost of occupying this member for its runtime.
    pub(crate) fn cost(&self) -> Money {
        self.slot.price() * self.runtime
    }

    /// Returns `true` if the member can still host a task starting at
    /// `anchor`.
    pub(crate) fn live_at(&self, anchor: TimePoint) -> bool {
        debug_assert!(self.slot.start() <= anchor);
        anchor + self.runtime <= self.slot.end()
    }
}

/// The forward-scan candidate pool.
#[derive(Debug)]
pub(crate) struct Pool<'req> {
    request: &'req ResourceRequest,
    rule: LengthRule,
    members: Vec<PoolMember>,
}

impl<'req> Pool<'req> {
    pub(crate) fn new(request: &'req ResourceRequest, rule: LengthRule) -> Self {
        Pool {
            request,
            rule,
            members: Vec::with_capacity(request.nodes() * 2),
        }
    }

    /// Tests admission conditions 2°a (performance) and 2°b (length) and
    /// returns the member on success. Condition 2°c (price) is the
    /// algorithm-specific filter and is *not* applied here.
    pub(crate) fn admit(&self, slot: &Slot) -> Option<PoolMember> {
        admit_slot(self.request, self.rule, slot)
    }

    /// Advances the anchor to `anchor`, expiring members whose remaining
    /// span is too short (step 3°). Returns the number expired.
    pub(crate) fn advance(&mut self, anchor: TimePoint) -> u64 {
        let before = self.members.len();
        self.members.retain(|m| m.live_at(anchor));
        (before - self.members.len()) as u64
    }

    /// Adds a previously admitted member.
    pub(crate) fn push(&mut self, member: PoolMember) {
        self.members.push(member);
    }

    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    pub(crate) fn members(&self) -> &[PoolMember] {
        &self.members
    }

    /// Assembles a window from the given members. The window start is the
    /// latest member start — the earliest moment all chosen tasks can begin
    /// together.
    ///
    /// # Panics
    ///
    /// Panics (via `expect`) if `chosen` is empty or violates window
    /// invariants; callers only pass non-empty live pool subsets, which
    /// satisfy them by construction.
    pub(crate) fn build_window(chosen: &[PoolMember]) -> Window {
        let start = chosen
            .iter()
            .map(|m| m.slot.start())
            .max()
            .expect("build_window requires at least one member");
        let members = chosen
            .iter()
            .map(|m| {
                WindowSlot::from_slot(&m.slot, m.runtime)
                    .expect("pool members have positive runtimes")
            })
            .collect();
        Window::new(start, members).expect("live pool members form a valid window")
    }
}

/// Runs the shared forward scan.
///
/// `slot_filter` is the per-slot admission predicate beyond conditions
/// 2°a/2°b (ALP's price cap; AMP admits everything). `try_accept` inspects
/// the live pool and, if the algorithm's acceptance test passes, returns
/// the chosen members; the scan then stops.
///
/// Slots are processed in *groups of equal start time* and acceptance is
/// tested once per group: resources released together (the paper's 0.4
/// same-start probability, domain releases) must all be on the table
/// before the algorithm prices a window at that instant. For ALP this is
/// behaviour-neutral (it takes the first `N` admitted members either way);
/// for AMP it is what lets the Fig. 2 worked example pick the cheap
/// {cpu1, cpu2, cpu4} window over a costlier subset of the same-start
/// group.
pub(crate) fn forward_scan<'a>(
    slots: impl IntoIterator<Item = &'a Slot>,
    request: &ResourceRequest,
    rule: LengthRule,
    stats: &mut ScanStats,
    mut slot_filter: impl FnMut(&Slot) -> bool,
    mut try_accept: impl FnMut(&Pool<'_>, &mut ScanStats) -> Option<Vec<PoolMember>>,
) -> Option<Window> {
    let mut pool = Pool::new(request, rule);
    let mut iter = slots.into_iter().peekable();
    while let Some(first) = iter.next() {
        // The anchor is the group's shared start: the list is
        // start-ordered, so this is the latest start seen so far.
        let anchor = first.start();
        let mut admitted: Vec<PoolMember> = Vec::new();
        stats.slots_examined += 1;
        if slot_filter(first) {
            if let Some(member) = pool.admit(first) {
                admitted.push(member);
            }
        }
        while iter.peek().is_some_and(|s| s.start() == anchor) {
            let slot = iter.next().expect("peeked element exists");
            stats.slots_examined += 1;
            if !slot_filter(slot) {
                continue;
            }
            if let Some(member) = pool.admit(slot) {
                admitted.push(member);
            }
        }
        if admitted.is_empty() {
            continue;
        }
        stats.groups_scanned += 1;
        stats.slots_expired += pool.advance(anchor);
        stats.slots_admitted += admitted.len() as u64;
        for member in admitted {
            pool.push(member);
        }
        stats.pool_high_water = stats.pool_high_water.max(pool.len() as u64);
        if pool.len() >= request.nodes() {
            if let Some(chosen) = try_accept(&pool, stats) {
                stats.windows_found += 1;
                return Some(Pool::build_window(&chosen));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{NodeId, Price, SlotId, Span};

    fn req(n: usize, t: i64, p: f64, c: i64) -> ResourceRequest {
        ResourceRequest::new(
            n,
            TimeDelta::new(t),
            Perf::from_f64(p),
            Price::from_credits(c),
        )
        .unwrap()
    }

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

    #[test]
    fn admit_rejects_slow_nodes() {
        let request = req(1, 50, 2.0, 10);
        let pool = Pool::new(&request, LengthRule::Corrected);
        assert!(pool.admit(&slot(0, 0, 1.0, 1, 0, 1000)).is_none());
        assert!(pool.admit(&slot(0, 0, 2.0, 1, 0, 1000)).is_some());
    }

    #[test]
    fn admit_rejects_short_slots() {
        let request = req(1, 50, 1.0, 10);
        let pool = Pool::new(&request, LengthRule::Corrected);
        assert!(pool.admit(&slot(0, 0, 1.0, 1, 0, 49)).is_none());
        assert!(pool.admit(&slot(0, 0, 1.0, 1, 0, 50)).is_some());
    }

    /// The product test refuses exactly the slots shorter than the
    /// ceiled runtime: at, one tick under and one over it, for rates on
    /// and off the scale's multiples.
    #[test]
    fn admission_matches_the_ceiled_runtime() {
        for milli in (1000..=3000).step_by(7) {
            for t in 1..120 {
                let request = req(1, t, 1.0, 10);
                let runtime = Perf::from_milli(milli).runtime_for(TimeDelta::new(t), Perf::UNIT);
                for length in (runtime.ticks() - 1).max(1)..=runtime.ticks() + 1 {
                    let slot = Slot::new(
                        SlotId::new(0),
                        NodeId::new(0),
                        Perf::from_milli(milli),
                        Price::from_credits(1),
                        Span::new(TimePoint::ZERO, TimePoint::new(length)).unwrap(),
                    )
                    .unwrap();
                    let member = admit_slot(&request, LengthRule::Corrected, &slot);
                    assert_eq!(
                        member.map(|m| m.runtime),
                        (length >= runtime.ticks()).then_some(runtime)
                    );
                }
            }
        }
    }

    #[test]
    fn admit_scales_length_with_perf() {
        let request = req(1, 100, 1.0, 10);
        let pool = Pool::new(&request, LengthRule::Corrected);
        // Rate-2 node needs only 50 ticks.
        assert!(pool.admit(&slot(0, 0, 2.0, 1, 0, 50)).is_some());
        // Literal rule would require 200.
        let literal = Pool::new(&request, LengthRule::PaperLiteral);
        assert!(literal.admit(&slot(0, 0, 2.0, 1, 0, 50)).is_none());
        assert!(literal.admit(&slot(0, 0, 2.0, 1, 0, 200)).is_some());
    }

    #[test]
    fn member_expires_when_anchor_advances() {
        let request = req(2, 50, 1.0, 10);
        let mut pool = Pool::new(&request, LengthRule::Corrected);
        let early = pool.admit(&slot(0, 0, 1.0, 1, 0, 60)).unwrap();
        pool.push(early);
        // Anchor at 10: member [0,60) still fits a 50-tick task.
        assert_eq!(pool.advance(TimePoint::new(10)), 0);
        // Anchor at 11: 11 + 50 > 60 → expired.
        assert_eq!(pool.advance(TimePoint::new(11)), 1);
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn build_window_anchors_at_latest_start() {
        let request = req(2, 50, 1.0, 10);
        let pool = Pool::new(&request, LengthRule::Corrected);
        let a = pool.admit(&slot(0, 0, 1.0, 1, 0, 100)).unwrap();
        let b = pool.admit(&slot(1, 1, 1.0, 1, 20, 100)).unwrap();
        let window = Pool::build_window(&[a, b]);
        assert_eq!(window.start(), TimePoint::new(20));
        assert_eq!(window.length(), TimeDelta::new(50));
    }

    #[test]
    fn forward_scan_counts_all_slots_once() {
        let request = req(3, 50, 1.0, 10);
        let slots: Vec<Slot> = (0..10)
            .map(|i| slot(i, i as u32, 1.0, 100, i as i64 * 5, i as i64 * 5 + 40))
            .collect();
        let mut stats = ScanStats::new();
        // Filter admits nothing → scan visits every slot and finds nothing.
        let result = forward_scan(
            &slots,
            &request,
            LengthRule::Corrected,
            &mut stats,
            |_| false,
            |_, _| None,
        );
        assert!(result.is_none());
        assert_eq!(stats.slots_examined, 10);
        assert_eq!(stats.slots_admitted, 0);
    }

    #[test]
    fn forward_scan_accepts_first_full_pool() {
        let request = req(2, 50, 1.0, 10);
        let slots = vec![
            slot(0, 0, 1.0, 1, 0, 100),
            slot(1, 1, 1.0, 1, 10, 100),
            slot(2, 2, 1.0, 1, 20, 100),
        ];
        let mut stats = ScanStats::new();
        let window = forward_scan(
            &slots,
            &request,
            LengthRule::Corrected,
            &mut stats,
            |_| true,
            |pool, _| Some(pool.members().to_vec()),
        )
        .unwrap();
        assert_eq!(window.slot_count(), 2);
        assert_eq!(window.start(), TimePoint::new(10));
        // Scan stopped early: slot 2 never examined.
        assert_eq!(stats.slots_examined, 2);
        assert_eq!(stats.windows_found, 1);
    }

    #[test]
    fn member_cost_is_price_times_runtime() {
        let request = req(1, 60, 1.0, 10);
        let pool = Pool::new(&request, LengthRule::Corrected);
        let m = pool.admit(&slot(0, 0, 2.0, 4, 0, 100)).unwrap();
        assert_eq!(m.runtime, TimeDelta::new(30));
        assert_eq!(m.cost(), Money::from_credits(120));
    }
}
