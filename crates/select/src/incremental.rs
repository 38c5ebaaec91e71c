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
//! for slot: consumed slots leave the pool, and remnants starting at or
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

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
/// vector to the heap representation.
///
/// The paper-scale lists (`m ∈ [120, 150]`) produce pools of a few dozen
/// members, where the flat vector's binary search and memmove beat the
/// heap arm's hashing and lazy deletion: with every pool forced onto the
/// heap arm, `paper_study` and `engine_churn` lose throughput in every
/// pair run (DESIGN §8). Pools only cross this threshold on large lists
/// with slow-expiring slots — exactly where a heap push per member wins.
const SMALL_POOL_MAX: usize = 128;

/// A member's rank in AMP's pool: the DESIGN.md R5 `(cost, id)` order.
fn cost_key(member: &PoolMember) -> (Money, SlotId) {
    (member.cost(), member.slot.id())
}

/// AMP's cost-ordered candidate pool, with an adaptive representation.
///
/// Below [`SMALL_POOL_MAX`] members the pool is a flat vector sorted by
/// `(cost, id)` — the exact DESIGN.md R5 tie-break — where insertion and
/// removal are a binary search plus memmove and acceptance reads the
/// first `n` members. Above the threshold it promotes (one way) to
/// [`LargeCostPool`]: a sorted head of the `n` cheapest with a running
/// sum, and lazy heaps for everything else. Both representations accept
/// byte-identically: the same `n` cheapest members in `(cost, id)` order
/// under the same budget test.
#[derive(Debug)]
struct CostPool {
    n: usize,
    repr: CostRepr,
}

#[derive(Debug)]
enum CostRepr {
    /// Members sorted by `(cost, id)`; acceptance reads the prefix.
    Small(Vec<PoolMember>),
    /// A sorted head with a running sum, and lazy heaps for the rest.
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
                let key = cost_key(&member);
                let pos = members.partition_point(|m| cost_key(m) < key);
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

    /// Removes `member` if it is pooled; returns whether it was.
    fn remove(&mut self, member: &PoolMember) -> bool {
        match &mut self.repr {
            CostRepr::Small(members) => {
                let key = cost_key(member);
                let found = members.binary_search_by(|m| cost_key(m).cmp(&key));
                found.map(|pos| members.remove(pos)).is_ok()
            }
            CostRepr::Large(pool) => pool.remove(member.slot.id()),
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

/// The wide representation of [`CostPool`], used above [`SMALL_POOL_MAX`]:
/// a sorted `head` of the `min(n, len)` cheapest keys by `(cost, id)` with
/// their running sum, a min-heap `tail` of every other key, and a min-heap
/// of deadlines for expiry. An insertion is a heap push, or a binary-search
/// insert into the head when the key is below the head's max. The
/// acceptance test (`head` full and within budget) is `O(1)` instead of
/// the naive `O(p log p)` sort of the whole pool.
///
/// Both heaps are lazy. `members` is the liveness test: a removal takes
/// the id out of `members`, and out of `head` by binary search, and leaves
/// its heap entries behind to be skipped when they surface. That is exact
/// because an id is never pooled twice (the `debug_assert` in
/// [`LargeCostPool::insert`]): a scan reads a list slot at most once, and
/// subtraction mints its remnants under fresh ids. So a stale entry can
/// never stand for a live member.
#[derive(Debug)]
struct LargeCostPool {
    n: usize,
    /// The `min(n, len)` cheapest live keys, ascending.
    head: Vec<(Money, SlotId)>,
    head_sum: Money,
    /// Every other live key, and stale ones.
    tail: BinaryHeap<Reverse<(Money, SlotId)>>,
    /// Members keyed by the last anchor they are live at
    /// (`end − runtime`), for incremental expiry; stale ones too.
    by_deadline: BinaryHeap<Reverse<(TimePoint, SlotId)>>,
    members: HashMap<SlotId, PoolMember, IdBuildHasher>,
}

impl LargeCostPool {
    fn new(n: usize) -> Self {
        LargeCostPool {
            n,
            head: Vec::new(),
            head_sum: Money::ZERO,
            tail: BinaryHeap::new(),
            by_deadline: BinaryHeap::new(),
            members: HashMap::default(),
        }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn insert(&mut self, member: PoolMember) {
        let id = member.slot.id();
        let key = cost_key(&member);
        self.by_deadline
            .push(Reverse((member.slot.end() - member.runtime, id)));
        let replaced = self.members.insert(id, member);
        debug_assert!(replaced.is_none(), "slot {id} pooled twice");
        if self.head.len() == self.n && self.head.last().is_none_or(|max| key > *max) {
            self.tail.push(Reverse(key));
        } else {
            let pos = self.head.partition_point(|k| *k < key);
            self.head.insert(pos, key);
            self.head_sum += key.0;
            if self.head.len() > self.n {
                let max = self.head.pop().expect("the head overflowed");
                self.head_sum -= max.0;
                self.tail.push(Reverse(max));
            }
        }
        self.debug_check();
    }

    /// Removes the member `id` if it is pooled; returns whether it was.
    fn remove(&mut self, id: SlotId) -> bool {
        let Some(member) = self.members.remove(&id) else {
            return false;
        };
        let key = cost_key(&member);
        if self.head.last().is_some_and(|max| key <= *max) {
            let pos = self
                .head
                .binary_search(&key)
                .expect("a live key at or below the head's max is in the head");
            self.head.remove(pos);
            self.head_sum -= key.0;
            // Every live tail key sorts above the old max: the cheapest
            // of them joins the head at its back.
            while let Some(Reverse(next)) = self.tail.pop() {
                if self.members.contains_key(&next.1) {
                    self.head.push(next);
                    self.head_sum += next.0;
                    break;
                }
            }
        }
        self.debug_check();
        true
    }

    /// Expires every member no longer live at `anchor`; returns the count.
    /// A removed member's stale deadline entry is dropped uncounted.
    fn advance(&mut self, anchor: TimePoint) -> u64 {
        let mut expired = 0;
        while let Some(&Reverse((deadline, id))) = self.by_deadline.peek() {
            if deadline >= anchor {
                break;
            }
            self.by_deadline.pop();
            if self.remove(id) {
                expired += 1;
            }
        }
        expired
    }

    /// The `n` cheapest members in `(cost, id)` order iff the head is full
    /// and fits `budget` — byte-identical to the naive sort-and-take.
    fn accept(&self, budget: Money) -> Option<Vec<PoolMember>> {
        if self.head.len() == self.n && self.head_sum <= budget {
            Some(self.head.iter().map(|(_, id)| self.members[id]).collect())
        } else {
            None
        }
    }

    /// Debug builds only: the head is sorted, sums to `head_sum` and holds
    /// `min(n, len)` keys, and no live tail key sorts below its max.
    fn debug_check(&self) {
        debug_assert!(self.head.windows(2).all(|w| w[0] < w[1]), "head unsorted");
        debug_assert_eq!(self.head_sum, self.head.iter().map(|k| k.0).sum());
        debug_assert_eq!(self.head.len(), self.n.min(self.members.len()));
        debug_assert!(
            self.tail.iter().all(|Reverse(key)| {
                !self.members.contains_key(&key.1) || self.head.last().is_some_and(|max| key > max)
            }),
            "a live tail key sorts below the head's max"
        );
    }
}

/// A member's rank in ALP's pool: the list's own `(start, id)` order.
fn start_key(member: &PoolMember) -> (TimePoint, SlotId) {
    (member.slot.start(), member.slot.id())
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
    /// vector below [`SMALL_POOL_MAX`] members, sorted head and lazy heaps
    /// above).
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
                let key = start_key(&member);
                let pos = members.partition_point(|m| start_key(m) < key);
                members.insert(pos, member);
            }
            AcceptPool::Cost(pool) => pool.insert(member),
        }
    }

    /// Removes `member` if it is pooled, found by its key; returns whether
    /// it was.
    fn remove(&mut self, member: &PoolMember) -> bool {
        match self {
            AcceptPool::Ordered(members) => {
                let key = start_key(member);
                let found = members.binary_search_by(|m| start_key(m).cmp(&key));
                found.map(|pos| members.remove(pos)).is_ok()
            }
            AcceptPool::Cost(pool) => pool.remove(member),
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

    /// The member `slot` makes if the checkpoint invariant at `anchor`
    /// can hold it — admitted, starting at or before `anchor` and live
    /// there — and `None` if the invariant rules it out.
    fn poolable(&self, slot: &Slot, anchor: TimePoint) -> Option<PoolMember> {
        if slot.start() > anchor || !self.filter_ok(slot) {
            return None;
        }
        admit_slot(&self.request, self.rule, slot).filter(|m| m.live_at(anchor))
    }

    /// Folds one window subtraction into the checkpoint, keeping the pool
    /// equal to what a fresh scan of the new list holds after inserting
    /// the group at the anchor: consumed slots leave it, and remnants
    /// starting at or before the anchor join it if they are still useful
    /// there — those starting exactly at it are new group members.
    /// Remnants after the anchor are picked up by the forward scan itself.
    ///
    /// A consumed slot the invariant rules out is skipped without probing
    /// the pool. One it admits may still be absent — a seeded scan never
    /// read the slots before its seed — so the removal is by key and
    /// reports whether it found the member.
    pub(crate) fn apply_report(&mut self, report: &SubtractionReport) {
        if self.dead {
            return;
        }
        let Resume::Accepted { anchor, mut group } = self.resume else {
            return; // Nothing read yet: the scan takes it all from the list.
        };
        for slot in &report.removed {
            if let Some(member) = self.poolable(slot, anchor) {
                if self.pool.remove(&member) && slot.start() == anchor {
                    group -= 1;
                }
            }
        }
        for slot in &report.remnants {
            if let Some(member) = self.poolable(slot, anchor) {
                self.pool.insert(member);
                if slot.start() == anchor {
                    group += 1;
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
    use proptest::prelude::*;

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
        let cheap = member(2, 1, 0, 100, 10); // cost 10
        pool.insert(member(0, 5, 0, 100, 10)); // cost 50
        pool.insert(member(1, 3, 0, 100, 10)); // cost 30
        pool.insert(cheap);
        assert_eq!(pool.len(), 3);
        // Head = {10, 30}; 50 was displaced to the tail.
        let chosen = pool.accept(Money::from_credits(40)).unwrap();
        assert_eq!(chosen[0].slot.id(), SlotId::new(2));
        assert_eq!(chosen[1].slot.id(), SlotId::new(1));
        assert!(pool.accept(Money::from_credits(39)).is_none());
        // Removing a head member promotes the cheapest tail member.
        assert!(pool.remove(&cheap));
        assert!(!pool.remove(&cheap));
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
        let members: Vec<PoolMember> = (0..=SMALL_POOL_MAX as u64)
            .map(|i| member(i, 1 + (i % 7) as i64, 0, 10_000, 10))
            .collect();
        for m in &members[..SMALL_POOL_MAX] {
            pool.insert(*m);
        }
        assert!(matches!(pool.repr, CostRepr::Small(_)));
        pool.insert(members[SMALL_POOL_MAX]);
        assert!(matches!(pool.repr, CostRepr::Large(_)));
        // Promotion is one-way: shrinking below the threshold stays Large.
        for m in &members {
            assert!(pool.remove(m));
        }
        assert_eq!(pool.len(), 0);
        assert!(matches!(pool.repr, CostRepr::Large(_)));
    }

    #[test]
    fn small_and_large_representations_accept_identically() {
        // Drive the same member sequence through a pool that stays small
        // and one forced across the threshold, advancing the anchor as a
        // scan does; expiry and acceptance must agree on membership,
        // order, and budget behaviour at every step.
        let anchor = |step: u64| TimePoint::new(4 * step as i64);
        let members: Vec<PoolMember> = (0..40u64)
            .map(|i| {
                let end = 4 * i as i64 + 10 + ((i * 37) % 60) as i64;
                member(i, 1 + ((i * 13) % 11) as i64, 0, end, 10)
            })
            .collect();
        let mut small = CostPool::new(4);
        let mut large = CostPool::new(4);
        // Force the heap representation up front.
        large.repr = CostRepr::Large(LargeCostPool::new(4));
        for (step, m) in members.iter().enumerate() {
            let step = step as u64;
            assert_eq!(
                small.advance(anchor(step)),
                large.advance(anchor(step)),
                "expiry diverges at step {step}"
            );
            small.insert(*m);
            large.insert(*m);
            if step.is_multiple_of(5) {
                let victim = &members[((step * 7) % (step + 1)) as usize];
                assert_eq!(small.remove(victim), large.remove(victim));
            }
            assert_eq!(small.len(), large.len());
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

    #[test]
    fn a_member_removed_from_the_tail_is_never_promoted() {
        let mut pool = LargeCostPool::new(1);
        let [a, b, c] = [1, 2, 3].map(|id| member(id, id as i64, 0, 100, 10));
        for m in [a, b, c] {
            pool.insert(m);
        }
        // `b` leaves from the tail: its heap entry stays behind.
        assert!(pool.remove(b.slot.id()));
        assert!(!pool.remove(b.slot.id()));
        // The head drains; the promotion skips `b`'s entry for `c`.
        assert!(pool.remove(a.slot.id()));
        let chosen = pool.accept(Money::from_credits(1_000)).unwrap();
        assert_eq!(chosen[0].slot.id(), c.slot.id());
        assert!(pool.remove(c.slot.id()));
        assert_eq!(pool.len(), 0);
        assert!(pool.accept(Money::from_credits(1_000)).is_none());
    }

    #[test]
    fn a_removed_members_deadline_entry_neither_expires_nor_counts() {
        let mut pool = LargeCostPool::new(2);
        let early = member(0, 1, 0, 50, 10); // live through anchor 40
        pool.insert(early);
        pool.insert(member(1, 1, 0, 100, 10)); // live through anchor 90
        assert!(pool.remove(early.slot.id()));
        assert_eq!(pool.advance(TimePoint::new(41)), 0);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.advance(TimePoint::new(91)), 1);
        assert_eq!(pool.len(), 0);
    }

    /// One step of the pool differential: the test's model is the pool's
    /// live members, sorted by `(cost, id)`.
    #[derive(Debug, Clone, Copy)]
    enum PoolOp {
        /// A fresh member at price 1–3 (so costs tie), live for `slack`
        /// ticks past the current anchor.
        Insert { price: i64, slack: i64 },
        /// Removes the `pick`-th of the `n` cheapest members.
        RemoveHead(usize),
        /// Removes the `pick`-th member after the `n` cheapest.
        RemoveTail(usize),
        /// Removes the `pick`-th member already removed or expired.
        RemoveAbsent(usize),
        /// Moves the anchor forward.
        Advance(i64),
    }

    /// The shim has no `prop_oneof`: `tag`'s range width is the weight.
    fn pool_op() -> impl Strategy<Value = PoolOp> {
        (0u32..10, 0usize..1_000, 1i64..4, 0i64..400).prop_map(|(tag, pick, price, span)| match tag
        {
            0..=4 => PoolOp::Insert { price, slack: span },
            5 => PoolOp::RemoveHead(pick),
            6 => PoolOp::RemoveTail(pick),
            7 => PoolOp::RemoveAbsent(pick),
            _ => PoolOp::Advance(span / 20),
        })
    }

    /// The three pools under test, driven in lockstep.
    struct Pools {
        small: CostPool,
        forced: CostPool,
        large: LargeCostPool,
    }

    impl Pools {
        fn new(n: usize) -> Self {
            let mut forced = CostPool::new(n);
            forced.repr = CostRepr::Large(LargeCostPool::new(n));
            Pools {
                small: CostPool::new(n),
                forced,
                large: LargeCostPool::new(n),
            }
        }

        fn insert(&mut self, m: PoolMember) {
            self.small.insert(m);
            self.forced.insert(m);
            self.large.insert(m);
        }

        /// Whether each pool held `m`; all three must agree.
        fn remove(&mut self, m: &PoolMember) -> bool {
            let found = self.small.remove(m);
            assert_eq!(self.forced.remove(m), found);
            assert_eq!(self.large.remove(m.slot.id()), found);
            found
        }

        fn advance(&mut self, anchor: TimePoint) -> u64 {
            let expired = self.small.advance(anchor);
            assert_eq!(self.forced.advance(anchor), expired);
            assert_eq!(self.large.advance(anchor), expired);
            expired
        }

        fn accept(&self, budget: Money) -> Option<Vec<u64>> {
            let ids = |chosen: Vec<PoolMember>| chosen.iter().map(|m| m.slot.id().raw()).collect();
            let accepted = self.small.accept(budget).map(ids);
            assert_eq!(self.forced.accept(budget).map(ids), accepted);
            assert_eq!(self.large.accept(budget).map(ids), accepted);
            accepted
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both `CostPool` arms and a bare `LargeCostPool` against a
        /// sort-and-take model: every removal, expiry count and
        /// acceptance agrees, whether `n` is below or above the pool size.
        #[test]
        fn cost_pools_match_a_sort_and_take_model(
            n in 1usize..40,
            reach in 0u32..3,
            ops in prop::collection::vec(pool_op(), 1..600),
        ) {
            let mut pools = Pools::new(n);
            let mut live: Vec<PoolMember> = Vec::new();
            let mut gone: Vec<PoolMember> = Vec::new();
            let mut anchor = TimePoint::ZERO;
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    PoolOp::Insert { price, slack } => {
                        // Members outlive 16× more anchor steps at reach 2,
                        // which carries the small arm across its threshold.
                        let end = anchor.ticks() + 10 + (slack << (2 * reach));
                        let m = member(step as u64, price, 0, end, 10);
                        pools.insert(m);
                        let pos = live.partition_point(|x| cost_key(x) < cost_key(&m));
                        live.insert(pos, m);
                    }
                    PoolOp::RemoveHead(pick) | PoolOp::RemoveTail(pick) => {
                        let range = if matches!(op, PoolOp::RemoveHead(_)) {
                            0..n.min(live.len())
                        } else {
                            n.min(live.len())..live.len()
                        };
                        if !range.is_empty() {
                            let m = live.remove(range.start + pick % range.len());
                            assert!(pools.remove(&m), "step {step}: {op:?} missed");
                            gone.push(m);
                        }
                    }
                    PoolOp::RemoveAbsent(pick) => {
                        if !gone.is_empty() {
                            let m = gone[pick % gone.len()];
                            assert!(!pools.remove(&m), "step {step}: {op:?} hit");
                        }
                    }
                    PoolOp::Advance(by) => {
                        anchor += TimeDelta::new(by);
                        let before = live.len();
                        gone.extend(live.iter().filter(|m| !m.live_at(anchor)));
                        live.retain(|m| m.live_at(anchor));
                        let expired = (before - live.len()) as u64;
                        prop_assert_eq!(pools.advance(anchor), expired, "step {}", step);
                    }
                }
                prop_assert_eq!(pools.small.len(), live.len());
                let head: Money = live.iter().take(n).map(PoolMember::cost).sum();
                for budget in [head - Money::from_credits(1), head, head + head] {
                    let expected = (live.len() >= n && head <= budget)
                        .then(|| live[..n].iter().map(|m| m.slot.id().raw()).collect());
                    prop_assert_eq!(pools.accept(budget), expected, "step {}", step);
                }
            }
        }
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
        let source = *list.iter().find(|s| s.id().raw() == id).unwrap();
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
        let middle = member(3, 1, 20, 100, 10);
        pool.insert(member(5, 1, 20, 100, 10));
        pool.insert(member(1, 1, 0, 100, 10));
        pool.insert(middle);
        let chosen = pool.accept(3, None).unwrap();
        let ids: Vec<u64> = chosen.iter().map(|m| m.slot.id().raw()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert!(pool.remove(&middle));
        assert!(!pool.remove(&middle));
        assert_eq!(pool.len(), 2);
    }
}
