//! Checkpointed, incremental alternatives search.
//!
//! The naive multi-pass search restarts every window search from the head
//! of the slot list, so a batch that commits `A` alternatives on a list of
//! `m` slots performs `O(A·m)` slot examinations (plus a full cost sort
//! per candidate group for AMP). This module keeps a **checkpoint** per
//! job — the anchor of its last accepted window and the candidate pool of
//! everything admitted *before* that anchor — and resumes each subsequent
//! search there, re-admitting only the remnants that slot subtraction
//! minted behind the checkpoint. Amortized over a search this is
//! `O(m + A·N·log m)`.
//!
//! # Why resuming is sound
//!
//! Let a job's scan accept at anchor `a` on list `L`, and let `L'` be `L`
//! after any [`SlotList::subtract_window_report`] (this job's or another
//! job's). A fresh scan of `L'` can never accept at an anchor `< a`:
//!
//! * Subtraction only removes availability: each surviving slot maps to
//!   itself and each remnant maps to its parent slot. The map preserves
//!   admission, liveness at any anchor, and cost (a remnant shares its
//!   parent's node, performance, and price), and at most one remnant per
//!   parent is live at a given anchor (the left remnant dies at the cut
//!   start, the right one is born after the cut end). So the candidate
//!   pool on `L'` at any anchor injects cost-preservingly into the pool on
//!   `L` at that anchor.
//! * Both acceptance tests are monotone under that injection: ALP needs
//!   `N` pool members and AMP needs the `N` cheapest to fit the budget,
//!   and a subset has fewer members and a no-cheaper `N`-cheapest sum.
//! * Between group anchors the pool only expires, so anchors that did not
//!   exist in `L` (remnant starts) cannot accept either: their pool is a
//!   subset of the pool at the last tested anchor before them.
//!
//! Every anchor `< a` failed on `L`, hence fails on `L'`, and the scan can
//! resume at `a` — provided the carried pool equals what a fresh scan of
//! `L'` holds right after inserting the group at `a`: every admitted slot
//! of `L'` that starts at or before `a` and is live there. That is the
//! checkpoint invariant, and [`JobScan::apply_report`] maintains it slot
//! for slot: consumed ids leave the pool, and remnants starting at or
//! before `a` that are still live there join it. A fresh scan tests
//! acceptance at `a` only if `L'` has an admitted slot starting exactly
//! at `a`, so the checkpoint also counts how many pooled members do
//! (the *group* at `a`): a resume re-tests acceptance at `a` straight
//! from the pool when that count is non-zero and the pool holds `N`
//! members, and otherwise continues from the first slot starting after
//! `a`. No list slot is read twice by one scan.
//!
//! Three callers rely on the invariant, all through [`JobScan::run`] and
//! [`JobScan::apply_report`] alone: the sequential driver below, the
//! coscheduled driver in [`crate::coschedule`] (which also re-runs a scan
//! whose window was found but not committed), and the bounded repair
//! search in [`crate::repair`] (one window from a
//! [`JobScan::resume_from`]-seeded scan). Nothing reads the pool from
//! outside this module.

use std::collections::{BTreeSet, HashMap};

use ecosched_core::{
    Alternative, Batch, BatchAlternatives, CoreError, IdBuildHasher, Money, ResourceRequest, Slot,
    SlotId, SlotList, SubtractionReport, TimeDelta, TimePoint, Window,
};

use crate::scan::{admit_slot, LengthRule, Pool, PoolMember};
use crate::search::SearchOutcome;
use crate::stats::{ScanStats, SearchStats};

/// An opaque description of a built-in selection algorithm, used by
/// [`crate::SlotSelector::as_algo`] to opt into the incremental search.
///
/// Only the built-in selectors ([`crate::Alp`], [`crate::Amp`]) can
/// construct one; custom selectors return `None` from `as_algo` and the
/// search falls back to the naive restart-per-window driver.
#[derive(Debug, Clone, Copy)]
pub struct AlgoSpec {
    kind: AlgoKind,
}

#[derive(Debug, Clone, Copy)]
enum AlgoKind {
    Alp { rule: LengthRule },
    Amp { rule: LengthRule, rho: f64 },
}

impl AlgoSpec {
    /// ALP with the given length rule.
    pub(crate) fn alp(rule: LengthRule) -> Self {
        AlgoSpec {
            kind: AlgoKind::Alp { rule },
        }
    }

    /// AMP with the given length rule and budget discount ρ.
    pub(crate) fn amp(rule: LengthRule, rho: f64) -> Self {
        AlgoSpec {
            kind: AlgoKind::Amp { rule, rho },
        }
    }
}

/// The pool size at which AMP's candidate pool switches from the flat
/// vector to the cost-ordered tree representation.
///
/// The paper-scale lists (`m ∈ [120, 150]`) produce pools of a few dozen
/// members, where the tree's per-operation pointer chasing and the
/// four-structure bookkeeping cost ~2× the flat vector's memmove (the
/// ROADMAP small-pool item, measured by the `find_window_amp` bench).
/// Pools only cross this threshold on large lists with slow-expiring
/// slots — exactly where the tree's `O(log m)` operations win.
const SMALL_POOL_MAX: usize = 128;

/// AMP's cost-ordered candidate pool, with an adaptive representation.
///
/// Below [`SMALL_POOL_MAX`] members the pool is a flat vector sorted by
/// `(cost, id)` — the exact DESIGN.md R5 tie-break — where insertion is a
/// binary search plus memmove and acceptance reads the first `n` members.
/// Above the threshold it promotes (one way) to [`LargeCostPool`], which
/// splits members into a `head` of the `n` cheapest and a `tail` of
/// everything else with a running head sum, making every operation
/// `O(log m)`. Both representations accept byte-identically: the same
/// `n` cheapest members in `(cost, id)` order under the same budget test.
#[derive(Debug)]
struct CostPool {
    n: usize,
    repr: CostRepr,
}

#[derive(Debug)]
enum CostRepr {
    /// Members sorted by `(cost, id)`; acceptance reads the prefix.
    Small(Vec<PoolMember>),
    /// Head/tail trees with a running head sum.
    Large(LargeCostPool),
}

impl CostPool {
    fn new(n: usize) -> Self {
        CostPool {
            n,
            repr: CostRepr::Small(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match &self.repr {
            CostRepr::Small(members) => members.len(),
            CostRepr::Large(pool) => pool.len(),
        }
    }

    fn insert(&mut self, member: PoolMember) {
        match &mut self.repr {
            CostRepr::Small(members) => {
                let key = (member.cost(), member.slot.id());
                let pos = members.partition_point(|m| (m.cost(), m.slot.id()) < key);
                members.insert(pos, member);
                if members.len() > SMALL_POOL_MAX {
                    let mut pool = LargeCostPool::new(self.n);
                    for member in members.drain(..) {
                        pool.insert(member);
                    }
                    self.repr = CostRepr::Large(pool);
                }
            }
            CostRepr::Large(pool) => pool.insert(member),
        }
    }

    fn remove(&mut self, id: SlotId) -> Option<PoolMember> {
        match &mut self.repr {
            CostRepr::Small(members) => {
                let pos = members.iter().position(|m| m.slot.id() == id)?;
                Some(members.remove(pos))
            }
            CostRepr::Large(pool) => pool.remove(id),
        }
    }

    /// Expires every member no longer live at `anchor`; returns the count.
    fn advance(&mut self, anchor: TimePoint) -> u64 {
        match &mut self.repr {
            CostRepr::Small(members) => {
                let before = members.len();
                members.retain(|m| m.live_at(anchor));
                (before - members.len()) as u64
            }
            CostRepr::Large(pool) => pool.advance(anchor),
        }
    }

    /// The `n` cheapest members in `(cost, id)` order iff the pool holds
    /// at least `n` and they fit `budget` — byte-identical to the naive
    /// sort-and-take in both representations.
    fn accept(&self, budget: Money) -> Option<Vec<PoolMember>> {
        match &self.repr {
            CostRepr::Small(members) => {
                if members.len() < self.n {
                    return None;
                }
                let sum: Money = members[..self.n].iter().map(PoolMember::cost).sum();
                if sum <= budget {
                    Some(members[..self.n].to_vec())
                } else {
                    None
                }
            }
            CostRepr::Large(pool) => pool.accept(budget),
        }
    }
}

/// The tree representation of [`CostPool`], used above [`SMALL_POOL_MAX`]:
/// a `head` of the `n` cheapest by `(cost, id)` and a `tail` of everything
/// else, with a running sum of the head. One insertion, removal, or expiry
/// costs `O(log m)`, and the acceptance test (`head` full and within
/// budget) is `O(1)` instead of the naive `O(p log p)` sort of the whole
/// pool.
#[derive(Debug)]
struct LargeCostPool {
    n: usize,
    head: BTreeSet<(Money, SlotId)>,
    head_sum: Money,
    tail: BTreeSet<(Money, SlotId)>,
    /// Members keyed by the last anchor they are live at
    /// (`end − runtime`), for incremental expiry.
    by_deadline: BTreeSet<(TimePoint, SlotId)>,
    members: HashMap<SlotId, PoolMember, IdBuildHasher>,
}

impl LargeCostPool {
    fn new(n: usize) -> Self {
        LargeCostPool {
            n,
            head: BTreeSet::new(),
            head_sum: Money::ZERO,
            tail: BTreeSet::new(),
            by_deadline: BTreeSet::new(),
            members: HashMap::default(),
        }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn insert(&mut self, member: PoolMember) {
        let id = member.slot.id();
        let key = (member.cost(), id);
        let deadline = member.slot.end() - member.runtime;
        let replaced = self.members.insert(id, member);
        debug_assert!(replaced.is_none(), "slot {id} pooled twice");
        self.by_deadline.insert((deadline, id));
        if self.head.len() < self.n {
            self.head.insert(key);
            self.head_sum += key.0;
        } else if self.head.last().is_some_and(|max| key < *max) {
            let max = *self.head.last().expect("head is non-empty");
            self.head.remove(&max);
            self.head_sum -= max.0;
            self.tail.insert(max);
            self.head.insert(key);
            self.head_sum += key.0;
        } else {
            self.tail.insert(key);
        }
    }

    fn remove(&mut self, id: SlotId) -> Option<PoolMember> {
        let member = self.members.remove(&id)?;
        let key = (member.cost(), id);
        self.by_deadline
            .remove(&(member.slot.end() - member.runtime, id));
        if self.head.remove(&key) {
            self.head_sum -= key.0;
            if let Some(promoted) = self.tail.pop_first() {
                self.head.insert(promoted);
                self.head_sum += promoted.0;
            }
        } else {
            self.tail.remove(&key);
        }
        Some(member)
    }

    /// Expires every member no longer live at `anchor`; returns the count.
    fn advance(&mut self, anchor: TimePoint) -> u64 {
        let mut expired = 0;
        while let Some(&(deadline, id)) = self.by_deadline.first() {
            if deadline >= anchor {
                break;
            }
            self.remove(id);
            expired += 1;
        }
        expired
    }

    /// The `n` cheapest members in `(cost, id)` order iff the head is full
    /// and fits `budget` — byte-identical to the naive sort-and-take.
    fn accept(&self, budget: Money) -> Option<Vec<PoolMember>> {
        if self.head.len() == self.n && self.head_sum <= budget {
            Some(self.head.iter().map(|&(_, id)| self.members[&id]).collect())
        } else {
            None
        }
    }
}

/// The per-algorithm candidate pool of one incremental job scan.
#[derive(Debug)]
enum AcceptPool {
    /// ALP: members kept in `(start, id)` order — identical to the naive
    /// scan's insertion order, since the slot list is sorted the same way.
    /// Acceptance takes the first `n`. Before a group is inserted the pool
    /// holds fewer than `n` members (it would have accepted earlier
    /// otherwise); with the group at the checkpoint anchor kept pooled it
    /// holds that group too, which appends at the tail in list order, so
    /// a plain sorted vector stays the right structure.
    Ordered(Vec<PoolMember>),
    /// AMP: cost-ordered pool with an adaptive representation (flat
    /// vector below [`SMALL_POOL_MAX`] members, head/tail trees above).
    Cost(CostPool),
}

impl AcceptPool {
    fn len(&self) -> usize {
        match self {
            AcceptPool::Ordered(members) => members.len(),
            AcceptPool::Cost(pool) => pool.len(),
        }
    }

    fn insert(&mut self, member: PoolMember) {
        match self {
            AcceptPool::Ordered(members) => {
                let key = (member.slot.start(), member.slot.id());
                let pos = members.partition_point(|m| (m.slot.start(), m.slot.id()) < key);
                members.insert(pos, member);
            }
            AcceptPool::Cost(pool) => pool.insert(member),
        }
    }

    fn remove(&mut self, id: SlotId) -> Option<PoolMember> {
        match self {
            AcceptPool::Ordered(members) => {
                let pos = members.iter().position(|m| m.slot.id() == id)?;
                Some(members.remove(pos))
            }
            AcceptPool::Cost(pool) => pool.remove(id),
        }
    }

    /// How many pooled members start exactly at `anchor`: a recount of
    /// [`Resume::Accepted`]'s running `group`, for the debug check on it.
    fn group_len(&self, anchor: TimePoint) -> usize {
        let at_anchor = |m: &&PoolMember| m.slot.start() == anchor;
        match self {
            AcceptPool::Ordered(members)
            | AcceptPool::Cost(CostPool {
                repr: CostRepr::Small(members),
                ..
            }) => members.iter().filter(at_anchor).count(),
            AcceptPool::Cost(CostPool {
                repr: CostRepr::Large(pool),
                ..
            }) => pool.members.values().filter(at_anchor).count(),
        }
    }

    fn advance(&mut self, anchor: TimePoint) -> u64 {
        match self {
            AcceptPool::Ordered(members) => {
                let before = members.len();
                members.retain(|m| m.live_at(anchor));
                (before - members.len()) as u64
            }
            AcceptPool::Cost(pool) => pool.advance(anchor),
        }
    }

    fn accept(&self, n: usize, budget: Option<Money>) -> Option<Vec<PoolMember>> {
        match self {
            AcceptPool::Ordered(members) => {
                debug_assert!(members.len() >= n, "accept called on a short pool");
                Some(members[..n].to_vec())
            }
            AcceptPool::Cost(pool) => pool.accept(budget.expect("AMP scans always carry a budget")),
        }
    }
}

/// Where a scan's next [`JobScan::run`] picks up.
#[derive(Debug, Clone, Copy)]
enum Resume {
    /// Nothing read yet: from the head of the list.
    Head,
    /// Seeded by [`JobScan::resume_from`]: from the first slot starting at
    /// or after the point, with an empty pool — the group there has not
    /// been read and is read from the list.
    Seeded(TimePoint),
    /// Accepted at `anchor`. The pool holds every admitted slot starting
    /// at or before `anchor` that is live there, `group` of them starting
    /// exactly at it (the checkpoint invariant of the module docs).
    Accepted { anchor: TimePoint, group: usize },
}

/// One job's checkpointed forward scan.
pub(crate) struct JobScan {
    request: ResourceRequest,
    rule: LengthRule,
    /// ALP's per-slot price cap (condition 2°c); AMP admits every price.
    price_capped: bool,
    /// AMP's job budget; `None` for ALP.
    budget: Option<Money>,
    resume: Resume,
    pool: AcceptPool,
    /// Once a scan reaches the end of the list without a window the job
    /// can never succeed again within the search (monotonicity).
    dead: bool,
}

impl JobScan {
    pub(crate) fn new(spec: &AlgoSpec, request: &ResourceRequest) -> Self {
        let (rule, price_capped, budget, pool) = match spec.kind {
            AlgoKind::Alp { rule } => (rule, true, None, AcceptPool::Ordered(Vec::new())),
            AlgoKind::Amp { rule, rho } => {
                let budget = if rho >= 1.0 {
                    request.budget()
                } else {
                    request.budget_scaled(rho)
                };
                (
                    rule,
                    false,
                    Some(budget),
                    AcceptPool::Cost(CostPool::new(request.nodes())),
                )
            }
        };
        JobScan {
            request: *request,
            rule,
            price_capped,
            budget,
            resume: Resume::Head,
            pool,
            dead: false,
        }
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Seeds the resume anchor of a fresh scan so the next [`JobScan::run`]
    /// starts at `anchor` with an empty pool instead of at the list head.
    ///
    /// This is the entry point of the *bounded repair search*
    /// ([`crate::repair_search`]): only slots starting at or after `anchor`
    /// are examined, so repairing a window scheduled at `anchor` costs
    /// O(survivors after `anchor`), not a full rescan. The price is a
    /// deliberate policy restriction — windows using slots that *start*
    /// before `anchor` (but are still live there) are not considered.
    pub(crate) fn resume_from(&mut self, anchor: TimePoint) {
        debug_assert!(
            matches!(self.resume, Resume::Head) && self.pool.len() == 0,
            "resume_from is for seeding fresh scans only"
        );
        self.resume = Resume::Seeded(anchor);
    }

    fn filter_ok(&self, slot: &Slot) -> bool {
        !self.price_capped || self.request.price_ok(slot)
    }

    /// Runs (or resumes) the forward scan over `list`.
    ///
    /// On success the checkpoint is advanced to the acceptance anchor and
    /// the whole pool — the group there included — is kept for the next
    /// resume; the caller is expected to subtract the returned window (or
    /// another job's) and feed the report back through
    /// [`JobScan::apply_report`] before the next `run`. On failure the job
    /// is marked dead.
    pub(crate) fn run(&mut self, list: &SlotList, stats: &mut ScanStats) -> Option<Window> {
        if self.dead {
            return None;
        }
        let n = self.request.nodes();
        let mut slots = match self.resume {
            Resume::Head => list.iter(),
            Resume::Seeded(anchor) => {
                stats.checkpoint_hits += 1;
                list.iter_from(anchor)
            }
            Resume::Accepted { anchor, group } => {
                stats.checkpoint_hits += 1;
                debug_assert_eq!(group, self.pool.group_len(anchor));
                // The pool is what re-reading the group at `anchor` would
                // rebuild, so the acceptance test a fresh scan runs there
                // — iff the group is non-empty and the pool is full — runs
                // on it directly.
                if group > 0 && self.pool.len() >= n {
                    stats.acceptance_tests += 1;
                    if let Some(chosen) = self.pool.accept(n, self.budget) {
                        stats.windows_found += 1;
                        return Some(Pool::build_window(&chosen));
                    }
                }
                list.iter_from(anchor + TimeDelta::new(1))
            }
        }
        .peekable();
        let mut group: Vec<PoolMember> = Vec::new();
        while let Some(first) = slots.next() {
            let anchor = first.start();
            group.clear();
            let mut slot = first;
            loop {
                stats.slots_examined += 1;
                if self.filter_ok(slot) {
                    if let Some(member) = admit_slot(&self.request, self.rule, slot) {
                        group.push(member);
                    }
                }
                match slots.next_if(|s| s.start() == anchor) {
                    Some(next) => slot = next,
                    None => break,
                }
            }
            if group.is_empty() {
                continue;
            }
            stats.groups_scanned += 1;
            stats.slots_expired += self.pool.advance(anchor);
            stats.slots_admitted += group.len() as u64;
            for member in &group {
                self.pool.insert(*member);
            }
            stats.pool_high_water = stats.pool_high_water.max(self.pool.len() as u64);
            if self.pool.len() >= n {
                stats.acceptance_tests += 1;
                if let Some(chosen) = self.pool.accept(n, self.budget) {
                    stats.windows_found += 1;
                    self.resume = Resume::Accepted {
                        anchor,
                        group: group.len(),
                    };
                    return Some(Pool::build_window(&chosen));
                }
            }
        }
        self.dead = true;
        None
    }

    /// Folds one window subtraction into the checkpoint, keeping the pool
    /// equal to what a fresh scan of the new list holds after inserting
    /// the group at the anchor: consumed slots leave it, and remnants
    /// starting at or before the anchor join it if they are still useful
    /// there — those starting exactly at it are new group members.
    /// Remnants after the anchor are picked up by the forward scan itself.
    pub(crate) fn apply_report(&mut self, report: &SubtractionReport) {
        if self.dead {
            return;
        }
        let Resume::Accepted { anchor, mut group } = self.resume else {
            return; // Nothing read yet: the scan takes it all from the list.
        };
        for &id in &report.removed {
            if self
                .pool
                .remove(id)
                .is_some_and(|m| m.slot.start() == anchor)
            {
                group -= 1;
            }
        }
        for slot in &report.remnants {
            if slot.start() > anchor || !self.filter_ok(slot) {
                continue;
            }
            if let Some(member) = admit_slot(&self.request, self.rule, slot) {
                if member.live_at(anchor) {
                    self.pool.insert(member);
                    if slot.start() == anchor {
                        group += 1;
                    }
                }
            }
        }
        self.resume = Resume::Accepted { anchor, group };
    }
}

impl std::fmt::Debug for JobScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScan")
            .field("resume", &self.resume)
            .field("pool_len", &self.pool.len())
            .field("dead", &self.dead)
            .finish()
    }
}

/// The checkpointed sequential (priority-order) alternatives search.
/// Byte-identical results to [`crate::find_alternatives_naive`].
pub(crate) fn find_alternatives_incremental(
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
        let mut found_any = false;
        for (index, job) in batch.iter().enumerate() {
            if scans[index].is_dead() {
                continue;
            }
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
    use ecosched_core::{NodeId, Perf, Price, Span};

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

    fn member(id: u64, price: i64, a: i64, b: i64, runtime: i64) -> PoolMember {
        PoolMember {
            slot: slot(id, id as u32, 1.0, price, a, b),
            runtime: TimeDelta::new(runtime),
        }
    }

    #[test]
    fn cost_pool_tracks_n_cheapest_with_running_sum() {
        let mut pool = CostPool::new(2);
        pool.insert(member(0, 5, 0, 100, 10)); // cost 50
        pool.insert(member(1, 3, 0, 100, 10)); // cost 30
        pool.insert(member(2, 1, 0, 100, 10)); // cost 10
        assert_eq!(pool.len(), 3);
        // Head = {10, 30}; 50 was displaced to the tail.
        let chosen = pool.accept(Money::from_credits(40)).unwrap();
        assert_eq!(chosen[0].slot.id(), SlotId::new(2));
        assert_eq!(chosen[1].slot.id(), SlotId::new(1));
        assert!(pool.accept(Money::from_credits(39)).is_none());
        // Removing a head member promotes the cheapest tail member.
        assert!(pool.remove(SlotId::new(2)).is_some());
        let chosen = pool.accept(Money::from_credits(80)).unwrap();
        assert_eq!(chosen[0].slot.id(), SlotId::new(1));
        assert_eq!(chosen[1].slot.id(), SlotId::new(0));
    }

    #[test]
    fn cost_pool_ties_break_by_slot_id() {
        let mut pool = CostPool::new(1);
        pool.insert(member(7, 2, 0, 100, 10)); // cost 20
        pool.insert(member(3, 2, 0, 100, 10)); // cost 20, lower id wins
        let chosen = pool.accept(Money::from_credits(20)).unwrap();
        assert_eq!(chosen[0].slot.id(), SlotId::new(3));
    }

    #[test]
    fn cost_pool_expires_by_deadline() {
        let mut pool = CostPool::new(2);
        pool.insert(member(0, 1, 0, 50, 10)); // live through anchor 40
        pool.insert(member(1, 1, 0, 100, 10)); // live through anchor 90
        assert_eq!(pool.advance(TimePoint::new(40)), 0);
        assert_eq!(pool.advance(TimePoint::new(41)), 1);
        assert_eq!(pool.len(), 1);
        assert!(pool.accept(Money::from_credits(100)).is_none()); // head short
    }

    #[test]
    fn cost_pool_starts_small_and_promotes_once() {
        let mut pool = CostPool::new(3);
        for i in 0..SMALL_POOL_MAX as u64 {
            pool.insert(member(i, 1 + (i % 7) as i64, 0, 10_000, 10));
        }
        assert!(matches!(pool.repr, CostRepr::Small(_)));
        pool.insert(member(SMALL_POOL_MAX as u64, 1, 0, 10_000, 10));
        assert!(matches!(pool.repr, CostRepr::Large(_)));
        // Promotion is one-way: shrinking below the threshold stays Large.
        for i in 0..=SMALL_POOL_MAX as u64 {
            pool.remove(SlotId::new(i));
        }
        assert_eq!(pool.len(), 0);
        assert!(matches!(pool.repr, CostRepr::Large(_)));
    }

    #[test]
    fn small_and_large_representations_accept_identically() {
        // Drive the same member sequence through a pool that stays small
        // and one forced across the threshold; acceptance must agree on
        // membership, order, and budget behaviour at every step.
        let members: Vec<PoolMember> = (0..40u64)
            .map(|i| member(i, 1 + ((i * 13) % 11) as i64, 0, 10_000, 10))
            .collect();
        let mut small = CostPool::new(4);
        let mut large = CostPool::new(4);
        // Force the tree representation up front.
        large.repr = CostRepr::Large(LargeCostPool::new(4));
        for (step, m) in members.iter().enumerate() {
            small.insert(*m);
            large.insert(*m);
            if step % 5 == 0 {
                let victim = SlotId::new((step as u64 * 7) % (step as u64 + 1));
                assert_eq!(
                    small.remove(victim).is_some(),
                    large.remove(victim).is_some()
                );
            }
            for budget in [10, 40, 400] {
                let budget = Money::from_credits(budget);
                let a = small.accept(budget);
                let b = large.accept(budget);
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        let xi: Vec<u64> = x.iter().map(|m| m.slot.id().raw()).collect();
                        let yi: Vec<u64> = y.iter().map(|m| m.slot.id().raw()).collect();
                        assert_eq!(xi, yi, "divergent acceptance at step {step}");
                    }
                    (None, None) => {}
                    _ => panic!("representations disagree at step {step}: {a:?} vs {b:?}"),
                }
            }
        }
        assert!(matches!(small.repr, CostRepr::Small(_)));
    }

    fn request(n: usize, t: i64, cap: i64) -> ResourceRequest {
        ResourceRequest::new(n, TimeDelta::new(t), Perf::UNIT, Price::from_credits(cap)).unwrap()
    }

    fn amp_scan(request: &ResourceRequest) -> JobScan {
        JobScan::new(&AlgoSpec::amp(LengthRule::Corrected, 1.0), request)
    }

    /// Cuts `[a, b)` out of slot `id` the way another job's window would,
    /// returning the report the scans are notified with.
    fn cut(list: &mut SlotList, id: u64, a: i64, b: i64) -> SubtractionReport {
        let source = *list.get(SlotId::new(id)).unwrap();
        let member = ecosched_core::WindowSlot::from_slot(&source, TimeDelta::new(b - a)).unwrap();
        let window = Window::new(TimePoint::new(a), vec![member]).unwrap();
        list.subtract_window_report(&window).unwrap()
    }

    fn sources(window: &Window) -> Vec<u64> {
        window.slots().iter().map(|ws| ws.source().raw()).collect()
    }

    #[test]
    fn remnant_starting_at_the_anchor_is_pooled_and_counted() {
        let mut list =
            SlotList::from_slots(vec![slot(0, 0, 1.0, 2, 0, 100), slot(1, 1, 1.0, 2, 0, 100)])
                .unwrap();
        let req = request(1, 50, 5);
        let mut scan = amp_scan(&req);
        let mut stats = ScanStats::new();
        assert_eq!(sources(&scan.run(&list, &mut stats).unwrap()), vec![0]);
        // Both same-start slots are the group at the anchor, and stay pooled.
        assert!(matches!(scan.resume, Resume::Accepted { group: 2, .. }));
        assert_eq!(scan.pool.len(), 2);
        // Another job takes the tail of slot 1: its left remnant [0, 60)
        // starts exactly at the anchor and still fits the 50-tick task.
        let report = cut(&mut list, 1, 60, 100);
        assert_eq!(report.remnants[0].start(), TimePoint::ZERO);
        scan.apply_report(&report);
        assert!(matches!(scan.resume, Resume::Accepted { group: 2, .. }));
        assert_eq!(scan.pool.len(), 2);
        // A too-short remnant at the anchor is neither pooled nor counted.
        let remnant = report.remnants[0].id().raw();
        scan.apply_report(&cut(&mut list, remnant, 40, 60));
        assert!(matches!(scan.resume, Resume::Accepted { group: 1, .. }));
        assert_eq!(scan.pool.len(), 1);
        // The resume reads nothing: the window comes from the pool.
        let examined = stats.slots_examined;
        assert_eq!(sources(&scan.run(&list, &mut stats).unwrap()), vec![0]);
        assert_eq!(stats.slots_examined, examined);
    }

    #[test]
    fn emptied_anchor_group_suppresses_the_retest() {
        // Two dear slots at 0 fail the budget there; the cheap slot at 10
        // makes the pair {2, 0} fit, so the scan accepts at anchor 10.
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 9, 0, 300),
            slot(1, 1, 1.0, 9, 0, 300),
            slot(2, 2, 1.0, 1, 10, 300),
            slot(3, 3, 1.0, 1, 20, 300),
        ])
        .unwrap();
        let req = request(2, 50, 5);
        let mut scan = amp_scan(&req);
        let mut stats = ScanStats::new();
        let first = scan.run(&list, &mut stats).unwrap();
        assert_eq!(
            (first.start(), sources(&first)),
            (TimePoint::new(10), vec![2, 0])
        );
        assert!(matches!(scan.resume, Resume::Accepted { group: 1, .. }));
        // Another job consumes slot 2 whole: no admitted slot starts at
        // the anchor any more, though the pool still holds N members.
        scan.apply_report(&cut(&mut list, 2, 10, 300));
        assert!(matches!(scan.resume, Resume::Accepted { group: 0, .. }));
        assert_eq!(scan.pool.len(), 2);
        // A fresh scan of the new list runs no test at 10 (no group
        // there); neither does the resume — its one test is at 20.
        let tests = stats.acceptance_tests;
        let next = scan.run(&list, &mut stats).unwrap();
        assert_eq!(stats.acceptance_tests, tests + 1);
        let naive = crate::Amp::new()
            .find_window_naive(&list, &req, &mut ScanStats::new())
            .unwrap();
        assert_eq!(next, naive);
        assert_eq!(next.start(), TimePoint::new(20));
    }

    #[test]
    fn running_twice_without_a_commit_returns_the_same_window() {
        // The coscheduled loser: its window is found, not committed, and
        // asked for again on the unchanged list.
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 3, 0, 200),
            slot(1, 1, 1.0, 2, 0, 200),
            slot(2, 2, 1.0, 1, 5, 200),
        ])
        .unwrap();
        let req = request(2, 50, 5);
        let mut scan = amp_scan(&req);
        let mut stats = ScanStats::new();
        let first = scan.run(&list, &mut stats).unwrap();
        let examined = stats.slots_examined;
        let again = scan.run(&list, &mut stats).unwrap();
        assert_eq!(first, again);
        assert_eq!(stats.slots_examined, examined, "the re-test reads no slot");
        assert_eq!(stats.checkpoint_hits, 1);
        assert_eq!(stats.windows_found, 2);
    }

    #[test]
    fn seeded_scan_reads_its_group_from_the_list() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 1, 0, 200),
            slot(1, 1, 1.0, 1, 10, 200),
            slot(2, 2, 1.0, 1, 10, 200),
            slot(3, 3, 1.0, 1, 30, 200),
        ])
        .unwrap();
        let req = request(2, 50, 5);
        let mut scan = amp_scan(&req);
        scan.resume_from(TimePoint::new(10));
        // A report before the first run changes nothing: the seeded scan
        // has read no group and pools nothing it has not read.
        scan.apply_report(&SubtractionReport {
            removed: vec![],
            remnants: vec![slot(9, 9, 1.0, 1, 10, 200)],
        });
        assert_eq!(scan.pool.len(), 0);
        let mut stats = ScanStats::new();
        let window = scan.run(&list, &mut stats).unwrap();
        // Slot 0 starts before the seed point and is never considered;
        // the group at 10 is read from the list, and the scan stops there.
        assert_eq!(sources(&window), vec![1, 2]);
        assert_eq!((stats.slots_examined, stats.slots_admitted), (2, 2));
        assert!(matches!(scan.resume, Resume::Accepted { group: 2, .. }));
    }

    #[test]
    fn alp_keeps_start_id_order_with_a_remnant_at_the_anchor() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 1, 0, 100),
            slot(1, 1, 1.0, 1, 0, 100),
            slot(2, 2, 1.0, 1, 0, 100),
        ])
        .unwrap();
        let req = request(2, 50, 5);
        let mut scan = JobScan::new(&AlgoSpec::alp(LengthRule::Corrected), &req);
        let mut stats = ScanStats::new();
        assert_eq!(sources(&scan.run(&list, &mut stats).unwrap()), vec![0, 1]);
        // Slot 0 loses its tail; the remnant [0, 50) carries the fresh id
        // 3 and sorts after slot 2, exactly where a re-read would put it.
        scan.apply_report(&cut(&mut list, 0, 50, 100));
        let next = scan.run(&list, &mut stats).unwrap();
        assert_eq!(sources(&next), vec![1, 2]);
        let naive = crate::Alp::new()
            .find_window_naive(&list, &req, &mut ScanStats::new())
            .unwrap();
        assert_eq!(next, naive);
        // With 1 and 2 gone the remnant is the only member left at 0: a
        // short pool, no test there, and the scan moves on to their tails.
        scan.apply_report(&list.subtract_window_report(&next).unwrap());
        assert!(matches!(scan.resume, Resume::Accepted { group: 1, .. }));
        let tests = stats.acceptance_tests;
        let last = scan.run(&list, &mut stats).unwrap();
        assert_eq!(
            (last.start(), sources(&last)),
            (TimePoint::new(50), vec![4, 5])
        );
        assert_eq!(stats.acceptance_tests, tests + 1);
    }

    #[test]
    fn ordered_pool_keeps_start_id_order() {
        let mut pool = AcceptPool::Ordered(Vec::new());
        pool.insert(member(5, 1, 20, 100, 10));
        pool.insert(member(1, 1, 0, 100, 10));
        pool.insert(member(3, 1, 20, 100, 10));
        let chosen = pool.accept(3, None).unwrap();
        let ids: Vec<u64> = chosen.iter().map(|m| m.slot.id().raw()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert!(pool.remove(SlotId::new(3)).is_some());
        assert!(pool.remove(SlotId::new(3)).is_none());
        assert_eq!(pool.len(), 2);
    }
}
