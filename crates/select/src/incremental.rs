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
//! Three callers rely on the invariant, all through [`Scan`], which hands
//! a built-in selector's job to [`JobScan::run`] and
//! [`JobScan::apply_report`] alone: the sequential driver in
//! [`crate::search`], the coscheduled driver in [`crate::coschedule`]
//! (which also re-runs a scan whose window was found but not committed),
//! and the bounded repair search in [`crate::repair`] (one window from a
//! [`JobScan::resume_from`]-seeded scan). Nothing reads the pool from
//! outside this module. A seeded scan never reads the slots that start
//! before its seed, so its invariant leaves them out, and a report's
//! slots before the seed are neither pooled nor removed.
//!
//! The invariant names the *live* members. AMP's wide pool
//! ([`LargeCostPool`]) may also hold members that died since they were
//! pooled: it tests liveness only where its acceptance test reads, and
//! drops the dead there, which accepts exactly what dropping them at
//! every anchor would ([`LargeCostPool`] says why). A report only ever
//! removes members [`JobScan::apply_report`] found live, so every member
//! it removes is pooled; the pools rely on that, and the wide one keeps
//! no member map to check it.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
#[cfg(debug_assertions)]
use std::collections::HashSet;

use ecosched_core::{
    Money, ResourceRequest, Slot, SlotId, SlotList, SubtractionReport, TimeDelta, TimePoint, Window,
};

use crate::amp::Amp;
use crate::scan::{admit_slot, LengthRule, Pool, PoolMember};
use crate::selector::SlotSelector;
use crate::stats::ScanStats;

/// An opaque description of a built-in selection algorithm, returned by
/// [`crate::SlotSelector::as_algo`]: a search then gives the job a
/// checkpointed scan.
///
/// Only the built-in selectors ([`crate::Alp`], [`crate::Amp`]) can
/// construct one. A selector whose `as_algo` is `None` gets a scan that
/// restarts its own `find_window` on every run instead.
#[derive(Debug, Clone, Copy)]
pub struct AlgoSpec {
    kind: AlgoKind,
}

/// ALP's length rule, or AMP itself: its length rule and the budget rule
/// of [`Amp::budget`], which a scan reads rather than repeats.
#[derive(Debug, Clone, Copy)]
enum AlgoKind {
    Alp { rule: LengthRule },
    Amp(Amp),
}

impl AlgoSpec {
    /// ALP with the given length rule.
    pub(crate) fn alp(rule: LengthRule) -> Self {
        AlgoSpec {
            kind: AlgoKind::Alp { rule },
        }
    }

    /// AMP as configured.
    pub(crate) fn amp(amp: Amp) -> Self {
        AlgoSpec {
            kind: AlgoKind::Amp(amp),
        }
    }
}

/// The pool size at which AMP's candidate pool switches from the flat
/// vector to the heap representation.
///
/// The paper-scale lists (`m ∈ [120, 150]`) produce pools of a few dozen
/// members, where the flat vector's binary search and memmove beat the
/// wide arm: with every pool forced onto it (measured when it still kept
/// a member map), `paper_study` and `engine_churn` lose throughput in
/// every pair run (DESIGN §8). Pools only cross this threshold on large lists
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
/// removal are a binary search plus memmove, expiry drops every dead
/// member at each anchor, and acceptance reads the first `n` members.
/// Above the threshold it promotes (one way) to [`LargeCostPool`]: a
/// sorted head of the `n` cheapest with a running sum, and a lazy heap
/// for everything else, which expires a member only when acceptance
/// reads it. Both representations accept byte-identically: the same `n`
/// cheapest live members in `(cost, id)` order under the same budget
/// test.
#[derive(Debug)]
struct CostPool {
    n: usize,
    /// The anchor of the last [`CostPool::advance`]: where the wide arm
    /// tests liveness.
    anchor: TimePoint,
    repr: CostRepr,
}

#[derive(Debug)]
enum CostRepr {
    /// Members sorted by `(cost, id)`, all live; acceptance reads the
    /// prefix.
    Small(Vec<PoolMember>),
    /// A sorted head with a running sum, and a lazy heap for the rest.
    Large(LargeCostPool),
}

impl CostPool {
    fn new(n: usize) -> Self {
        CostPool {
            n,
            anchor: TimePoint::ZERO,
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

    /// Removes `member`, which must be pooled.
    fn remove(&mut self, member: &PoolMember) {
        match &mut self.repr {
            CostRepr::Small(members) => {
                let key = cost_key(member);
                let pos = members.binary_search_by(|m| cost_key(m).cmp(&key));
                members.remove(pos.expect("removing a member the pool does not hold"));
            }
            CostRepr::Large(pool) => pool.remove(member, self.anchor),
        }
    }

    /// Moves the anchor to `anchor`. The flat arm expires every member
    /// no longer live there and returns the count; the wide arm only
    /// records it and returns 0 (its expiries are counted as they are
    /// found, by [`CostPool::take_expired`]).
    fn advance(&mut self, anchor: TimePoint) -> u64 {
        self.anchor = anchor;
        match &mut self.repr {
            CostRepr::Small(members) => {
                let before = members.len();
                members.retain(|m| m.live_at(anchor));
                (before - members.len()) as u64
            }
            CostRepr::Large(_) => 0,
        }
    }

    /// The wide arm's members found dead since the last call.
    fn take_expired(&mut self) -> u64 {
        match &mut self.repr {
            CostRepr::Small(_) => 0,
            CostRepr::Large(pool) => std::mem::take(&mut pool.expired),
        }
    }

    /// The `n` cheapest live members in `(cost, id)` order iff the pool
    /// holds at least `n` live members and they fit `budget` —
    /// byte-identical to the naive sort-and-take in both representations.
    /// Counts a test in `stats` iff it runs one, on `n` live members.
    fn accept(&mut self, budget: Money, stats: &mut ScanStats) -> Option<Vec<PoolMember>> {
        let (head, sum) = match &mut self.repr {
            CostRepr::Small(members) => {
                let head = members.get(..self.n)?;
                (head, head.iter().map(PoolMember::cost).sum())
            }
            CostRepr::Large(pool) => pool.live_head(self.anchor)?,
        };
        stats.acceptance_tests += 1;
        (sum <= budget).then(|| head.to_vec())
    }
}

/// The wide representation of [`CostPool`], used above [`SMALL_POOL_MAX`]:
/// a sorted `head` of the `min(n, len)` cheapest members by `(cost, id)`
/// with their running cost sum, and a [`Tail`] of every other member,
/// popped cheapest first. An insertion goes to the tail, or is a
/// binary-search insert into the head when the key is below the head's
/// max. The acceptance test (`head` full and within budget) is `O(n)`
/// instead of the naive `O(p log p)` sort of the whole pool.
///
/// Expiry is lazy. [`CostPool::advance`] only records the anchor, which
/// the owner passes in; a member is tested for liveness when acceptance
/// reads it in the head ([`LargeCostPool::live_head`]) or a removal
/// promotes it from the tail, and a dead one is dropped there. That is
/// exact because anchors only grow within a scan, so a dead member stays
/// dead, and every live tail key sorts above the head's max: once the
/// head holds no dead member it is the `n` cheapest live members.
/// Members not yet found dead still count in [`LargeCostPool::len`].
///
/// Removal from the tail is lazy too, and keeps no member map: the
/// caller hands over a pooled member ([`JobScan::apply_report`] removes
/// only what the checkpoint invariant holds), so a removal that misses
/// the head is a tail member, and its key goes onto the `removed`
/// min-heap. A tail pop whose key is that heap's minimum is a removed
/// member, and both are dropped. That is exact because every removed key
/// is in the tail exactly once: keys are unique, since an id is never
/// pooled twice (a scan reads a list slot at most once, and subtraction
/// mints its remnants under fresh ids), and the tail pops its minimum, so
/// no removed key below a popped one can be left. Debug builds keep the
/// pooled ids in a shadow set, which asserts that contract on every
/// insertion and removal.
#[derive(Debug)]
struct LargeCostPool {
    n: usize,
    /// The `min(n, len)` cheapest members, ascending by `(cost, id)`.
    head: Vec<PoolMember>,
    head_sum: Money,
    /// Every other member, and the members removed from it since.
    tail: Tail,
    /// The keys of members removed from the tail, which it still holds.
    removed: BinaryHeap<Reverse<(Money, SlotId)>>,
    /// Members pooled, not yet removed or found dead.
    len: usize,
    /// Members found dead and dropped, not yet taken into the stats.
    expired: u64,
    /// The ids `len` counts.
    #[cfg(debug_assertions)]
    pooled: HashSet<SlotId>,
}

/// The tail of a [`LargeCostPool`]: members popped in `(cost, id)` order.
///
/// Members pushed while no sorted run is being popped collect in `run`,
/// and the next pop sorts them once; members pushed while it is being
/// popped go on a min-heap, and a pop takes the cheaper of the run's last
/// member and the heap's top. After a cycle's clip most of the market
/// starts at `now`, so a scan pools one group of a thousand or more
/// members at once; its promotions then pop the end of one sorted vector
/// instead of sifting a heap of 56-byte members.
#[derive(Debug, Default)]
struct Tail {
    /// Descending by `(cost, id)` once `sorted`: the cheapest is last.
    run: Vec<PoolMember>,
    sorted: bool,
    heap: BinaryHeap<Reverse<TailEntry>>,
}

impl Tail {
    fn push(&mut self, member: PoolMember) {
        if self.sorted {
            self.heap.push(Reverse(TailEntry(member)));
        } else {
            self.run.push(member);
        }
    }

    /// Takes the cheapest member out.
    fn pop(&mut self) -> Option<PoolMember> {
        if !self.sorted {
            self.run.sort_unstable_by_key(|m| Reverse(cost_key(m)));
            self.sorted = true;
        }
        let from_heap = match (self.run.last(), self.heap.peek()) {
            (Some(last), Some(Reverse(TailEntry(top)))) => cost_key(top) < cost_key(last),
            (last, _) => last.is_none(),
        };
        let member = if from_heap {
            self.heap.pop().map(|Reverse(TailEntry(member))| member)
        } else {
            self.run.pop()
        };
        self.sorted = !self.run.is_empty();
        member
    }

    #[cfg(any(test, debug_assertions))]
    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    #[cfg(debug_assertions)]
    fn iter(&self) -> impl Iterator<Item = &PoolMember> {
        let heap = self.heap.iter().map(|Reverse(TailEntry(member))| member);
        self.run.iter().chain(heap)
    }
}

/// A tail member on the heap, ordered by its `(cost, id)` key alone.
#[derive(Debug, Clone, Copy)]
struct TailEntry(PoolMember);

impl PartialEq for TailEntry {
    fn eq(&self, other: &Self) -> bool {
        cost_key(&self.0) == cost_key(&other.0)
    }
}

impl Eq for TailEntry {}

impl PartialOrd for TailEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TailEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        cost_key(&self.0).cmp(&cost_key(&other.0))
    }
}

impl LargeCostPool {
    fn new(n: usize) -> Self {
        LargeCostPool {
            n,
            head: Vec::new(),
            head_sum: Money::ZERO,
            tail: Tail::default(),
            removed: BinaryHeap::new(),
            len: 0,
            expired: 0,
            #[cfg(debug_assertions)]
            pooled: HashSet::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, member: PoolMember) {
        #[cfg(debug_assertions)]
        assert!(
            self.pooled.insert(member.slot.id()),
            "slot {} pooled twice",
            member.slot.id()
        );
        self.len += 1;
        let key = cost_key(&member);
        if self.head.len() == self.n && self.head.last().is_none_or(|max| key > cost_key(max)) {
            self.tail.push(member);
        } else {
            let pos = self.head.partition_point(|m| cost_key(m) < key);
            self.head.insert(pos, member);
            self.head_sum += key.0;
            if self.head.len() > self.n {
                let max = self.head.pop().expect("the head overflowed");
                self.head_sum -= max.cost();
                self.tail.push(max);
            }
        }
        self.debug_check();
    }

    /// Removes `member`, which must be pooled. A promotion it makes tests
    /// liveness at `anchor`.
    fn remove(&mut self, member: &PoolMember, anchor: TimePoint) {
        self.forget(member.slot.id());
        let key = cost_key(member);
        if self.head.last().is_some_and(|max| key <= cost_key(max)) {
            let pos = self.head.binary_search_by(|m| cost_key(m).cmp(&key));
            let pos = pos.expect("a member at or below the head's max is in the head");
            self.head.remove(pos);
            self.head_sum -= key.0;
            self.promote(anchor);
        } else {
            self.removed.push(Reverse(key));
        }
        self.debug_check();
    }

    /// Takes the pooled member `id` out of the count.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn forget(&mut self, id: SlotId) {
        #[cfg(debug_assertions)]
        assert!(self.pooled.remove(&id), "slot {id} is not pooled");
        self.len -= 1;
    }

    /// Moves the cheapest live tail member to the back of the head — every
    /// live tail key sorts above the head's max — skipping removed ones
    /// and dropping the ones dead at `anchor` it meets; returns whether it
    /// found one.
    fn promote(&mut self, anchor: TimePoint) -> bool {
        while let Some(member) = self.tail.pop() {
            let key = cost_key(&member);
            if self.removed.peek() == Some(&Reverse(key)) {
                self.removed.pop();
                continue;
            }
            if member.live_at(anchor) {
                self.head_sum += key.0;
                self.head.push(member);
                return true;
            }
            self.forget(key.1);
            self.expired += 1;
        }
        false
    }

    /// The head and its cost sum once the head holds only members live
    /// at `anchor`, if it then holds `n`: the dead are dropped and the
    /// head refilled from the tail.
    fn live_head(&mut self, anchor: TimePoint) -> Option<(&[PoolMember], Money)> {
        let mut head = std::mem::take(&mut self.head);
        for dead in head.extract_if(.., |m| !m.live_at(anchor)) {
            self.forget(dead.slot.id());
            self.head_sum -= dead.cost();
            self.expired += 1;
        }
        self.head = head;
        while self.head.len() < self.n && self.promote(anchor) {}
        self.debug_check();
        debug_assert!(self.head.iter().all(|m| m.live_at(anchor)), "a dead head");
        (self.head.len() == self.n).then_some((&self.head[..], self.head_sum))
    }

    /// The pooled members, some of them dead, for
    /// [`AcceptPool::group_len`].
    #[cfg(debug_assertions)]
    fn members(&self) -> impl Iterator<Item = &PoolMember> {
        let pooled = |m: &&PoolMember| self.pooled.contains(&m.slot.id());
        self.head.iter().chain(self.tail.iter().filter(pooled))
    }

    /// Debug builds only: the head is sorted, sums to `head_sum` and holds
    /// `min(n, len)` pooled members; every tail key sorts above its max;
    /// and the tail holds the other pooled members and every removed key,
    /// each once.
    #[cfg(debug_assertions)]
    fn debug_check(&self) {
        let keys = || self.head.iter().map(cost_key);
        assert!(
            keys().zip(keys().skip(1)).all(|(a, b)| a < b),
            "head unsorted"
        );
        assert_eq!(self.head_sum, self.head.iter().map(PoolMember::cost).sum());
        assert_eq!(self.len, self.pooled.len());
        assert_eq!(self.head.len(), self.n.min(self.len));
        assert!(self.head.iter().all(|m| self.pooled.contains(&m.slot.id())));
        let removed: HashSet<_> = self.removed.iter().map(|Reverse(key)| *key).collect();
        let max = self.head.last().map(cost_key);
        assert!(
            self.tail.iter().all(|member| {
                let key = cost_key(member);
                max.is_some_and(|max| key > max)
                    && self.pooled.contains(&key.1) != removed.contains(&key)
            }),
            "a tail key sorts below the head's max, or is neither pooled nor removed"
        );
        assert_eq!(
            self.tail.len(),
            self.len - self.head.len() + self.removed.len(),
            "a removed key is not in the tail"
        );
    }

    #[cfg(not(debug_assertions))]
    fn debug_check(&self) {}
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
    /// vector below [`SMALL_POOL_MAX`] members, sorted head and lazy heap
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

    /// Removes `member`, which must be pooled, found by its key.
    fn remove(&mut self, member: &PoolMember) {
        match self {
            AcceptPool::Ordered(members) => {
                let key = start_key(member);
                let pos = members.binary_search_by(|m| start_key(m).cmp(&key));
                members.remove(pos.expect("removing a member the pool does not hold"));
            }
            AcceptPool::Cost(pool) => pool.remove(member),
        }
    }

    /// How many pooled members start exactly at `anchor`: a recount of
    /// [`Resume::Accepted`]'s running `group`, for the debug check on it.
    #[cfg(debug_assertions)]
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
            }) => pool.members().filter(at_anchor).count(),
        }
    }

    /// Moves the anchor; returns the members expired there, which only
    /// the eager pools count here (the wide AMP pool counts them when it
    /// finds them: [`AcceptPool::take_expired`]).
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

    /// Members the wide AMP pool found dead since the last call.
    fn take_expired(&mut self) -> u64 {
        match self {
            AcceptPool::Ordered(_) => 0,
            AcceptPool::Cost(pool) => pool.take_expired(),
        }
    }

    /// The chosen members iff the pool holds `n` live members and they
    /// pass the algorithm's test; counts the test in `stats` iff it runs.
    fn accept(
        &mut self,
        n: usize,
        budget: Option<Money>,
        stats: &mut ScanStats,
    ) -> Option<Vec<PoolMember>> {
        match self {
            AcceptPool::Ordered(members) => {
                let chosen = members.get(..n)?;
                stats.acceptance_tests += 1;
                Some(chosen.to_vec())
            }
            AcceptPool::Cost(pool) => {
                pool.accept(budget.expect("AMP scans always carry a budget"), stats)
            }
        }
    }
}

/// Where a scan's next [`JobScan::run`] picks up.
#[derive(Debug, Clone, Copy)]
enum Resume {
    /// Nothing read yet: from the head of the list, or from the first
    /// slot starting at or after the seed of a [`JobScan::resume_from`]
    /// scan, with an empty pool.
    Head,
    /// Accepted at `anchor`. The pool holds every admitted slot starting
    /// at or before `anchor` (and not before the seed) that is live
    /// there, `group` of them starting exactly at it (the checkpoint
    /// invariant of the module docs).
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
    /// Where a [`JobScan::resume_from`] scan starts: no slot starting
    /// earlier is read, or pooled from a report.
    seed: Option<TimePoint>,
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
            AlgoKind::Amp(amp) => (
                amp.length_rule(),
                false,
                Some(amp.budget(request)),
                AcceptPool::Cost(CostPool::new(request.nodes())),
            ),
        };
        JobScan {
            request: *request,
            rule,
            price_capped,
            budget,
            seed: None,
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
    /// before `anchor` (but are still live there) are not considered,
    /// and a later [`JobScan::apply_report`] neither pools nor removes
    /// such a slot.
    pub(crate) fn resume_from(&mut self, anchor: TimePoint) {
        debug_assert!(
            matches!(self.resume, Resume::Head) && self.seed.is_none(),
            "resume_from is for seeding fresh scans only"
        );
        self.seed = Some(anchor);
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
        let window = self.scan(list, stats);
        stats.slots_expired += self.pool.take_expired();
        window
    }

    /// [`JobScan::run`]'s forward scan, from where the last one stopped.
    fn scan(&mut self, list: &SlotList, stats: &mut ScanStats) -> Option<Window> {
        let n = self.request.nodes();
        let mut slots = match (self.resume, self.seed) {
            (Resume::Head, None) => list.iter(),
            (Resume::Head, Some(seed)) => {
                stats.checkpoint_hits += 1;
                list.iter_from(seed)
            }
            (Resume::Accepted { anchor, group }, _) => {
                stats.checkpoint_hits += 1;
                #[cfg(debug_assertions)]
                assert_eq!(group, self.pool.group_len(anchor));
                // The pool is what re-reading the group at `anchor` would
                // rebuild, so the acceptance test a fresh scan runs there
                // — iff the group is non-empty and the pool holds `n` live
                // members — runs on it directly.
                if group > 0 {
                    if let Some(chosen) = self.pool.accept(n, self.budget, stats) {
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
            if let Some(chosen) = self.pool.accept(n, self.budget, stats) {
                stats.windows_found += 1;
                self.resume = Resume::Accepted {
                    anchor,
                    group: group.len(),
                };
                return Some(Pool::build_window(&chosen));
            }
        }
        self.dead = true;
        None
    }

    /// The member `slot` makes if the checkpoint invariant at `anchor`
    /// can hold it — admitted, starting at or before `anchor` (and not
    /// before the seed) and live there — and `None` if the invariant rules
    /// it out.
    fn poolable(&self, slot: &Slot, anchor: TimePoint) -> Option<PoolMember> {
        let read = self.seed.is_none_or(|seed| seed <= slot.start()) && slot.start() <= anchor;
        if !read || !self.filter_ok(slot) {
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
    /// the pool; one it admits is pooled, and is removed by its key.
    pub(crate) fn apply_report(&mut self, report: &SubtractionReport) {
        if self.dead {
            return;
        }
        let Resume::Accepted { anchor, mut group } = self.resume else {
            return; // Nothing read yet: the scan takes it all from the list.
        };
        for slot in &report.removed {
            if let Some(member) = self.poolable(slot, anchor) {
                self.pool.remove(&member);
                if slot.start() == anchor {
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

/// One job's scan within a search: the only thing the search drivers and
/// the repair search run.
///
/// A built-in selector ([`crate::SlotSelector::as_algo`] is `Some`) gets
/// its checkpointed [`JobScan`]. Any other selector gets a restart: each
/// run calls its `find_window` on the current list, reads no subtraction
/// report, and marks the job dead at its first miss — the monotonicity
/// argument of the module docs, which a custom selector is trusted to
/// keep.
pub(crate) enum Scan<'s, S> {
    Checkpointed(Box<JobScan>),
    Restart {
        selector: &'s S,
        request: ResourceRequest,
        /// As [`JobScan`]'s: no slot starting earlier is read.
        seed: Option<TimePoint>,
        dead: bool,
    },
}

impl<'s, S: SlotSelector> Scan<'s, S> {
    pub(crate) fn new(selector: &'s S, request: &ResourceRequest) -> Self {
        match selector.as_algo() {
            Some(spec) => Scan::Checkpointed(Box::new(JobScan::new(&spec, request))),
            None => Scan::Restart {
                selector,
                request: *request,
                seed: None,
                dead: false,
            },
        }
    }

    pub(crate) fn is_dead(&self) -> bool {
        match self {
            Scan::Checkpointed(scan) => scan.is_dead(),
            Scan::Restart { dead, .. } => *dead,
        }
    }

    /// Seeds a fresh scan at `anchor`: [`JobScan::resume_from`]'s policy,
    /// which a restart applies by searching the suffix of slots that
    /// start at or after `anchor`.
    pub(crate) fn resume_from(&mut self, anchor: TimePoint) {
        match self {
            Scan::Checkpointed(scan) => scan.resume_from(anchor),
            Scan::Restart { seed, .. } => *seed = Some(anchor),
        }
    }

    /// The job's next window on `list`, or `None`, after which the job is
    /// dead; see [`JobScan::run`].
    pub(crate) fn run(&mut self, list: &SlotList, stats: &mut ScanStats) -> Option<Window> {
        match self {
            Scan::Checkpointed(scan) => scan.run(list, stats),
            Scan::Restart {
                selector,
                request,
                seed,
                dead,
            } => {
                if *dead {
                    return None;
                }
                let window = match *seed {
                    None => selector.find_window(list, request, stats),
                    Some(seed) => {
                        let suffix = list.iter_from(seed).copied().collect();
                        let suffix = SlotList::from_sorted_slots(suffix)
                            .expect("a list's suffix is a sorted list");
                        selector.find_window(&suffix, request, stats)
                    }
                };
                *dead = window.is_none();
                window
            }
        }
    }

    /// Folds one window subtraction into a checkpointed scan; a restart
    /// reads the next list whole.
    pub(crate) fn apply_report(&mut self, report: &SubtractionReport) {
        if let Scan::Checkpointed(scan) = self {
            scan.apply_report(report);
        }
    }
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

    /// `pool.accept` at `budget`, counting nothing the test reads.
    fn accept(pool: &mut CostPool, budget: i64) -> Option<Vec<u64>> {
        let chosen = pool.accept(Money::from_credits(budget), &mut ScanStats::new());
        chosen.map(|chosen| chosen.iter().map(|m| m.slot.id().raw()).collect())
    }

    /// What a bare wide pool accepts at `budget` and `anchor`.
    fn accept_large(
        pool: &mut LargeCostPool,
        budget: Money,
        anchor: TimePoint,
    ) -> Option<Vec<u64>> {
        let (head, sum) = pool.live_head(anchor)?;
        let ids = head.iter().map(|m| m.slot.id().raw()).collect();
        (sum <= budget).then_some(ids)
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
        assert_eq!(accept(&mut pool, 40), Some(vec![2, 1]));
        assert_eq!(accept(&mut pool, 39), None);
        // Removing a head member promotes the cheapest tail member.
        pool.remove(&cheap);
        assert_eq!(accept(&mut pool, 80), Some(vec![1, 0]));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn the_flat_pool_refuses_to_remove_an_absent_member() {
        let mut pool = CostPool::new(1);
        let cheap = member(2, 1, 0, 100, 10);
        pool.insert(member(0, 5, 0, 100, 10));
        pool.insert(cheap);
        pool.remove(&cheap);
        pool.remove(&cheap);
    }

    #[test]
    fn cost_pool_ties_break_by_slot_id() {
        let mut pool = CostPool::new(1);
        pool.insert(member(7, 2, 0, 100, 10)); // cost 20
        pool.insert(member(3, 2, 0, 100, 10)); // cost 20, lower id wins
        assert_eq!(accept(&mut pool, 20), Some(vec![3]));
    }

    #[test]
    fn cost_pool_expires_by_deadline() {
        let mut pool = CostPool::new(2);
        pool.insert(member(0, 1, 0, 50, 10)); // live through anchor 40
        pool.insert(member(1, 1, 0, 100, 10)); // live through anchor 90
        assert_eq!(pool.advance(TimePoint::new(40)), 0);
        assert_eq!(pool.advance(TimePoint::new(41)), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(accept(&mut pool, 100), None); // head short
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
            pool.remove(m);
        }
        assert_eq!(pool.len(), 0);
        assert!(matches!(pool.repr, CostRepr::Large(_)));
    }

    /// After a promotion the wide arm tests liveness at the anchor the
    /// flat one was advanced to, and the next anchor only records.
    #[test]
    fn a_promotion_carries_the_anchor() {
        let mut pool = CostPool::new(1);
        // The cheapest member is live through anchor 40 only.
        pool.insert(member(0, 1, 0, 50, 10));
        pool.advance(TimePoint::new(30));
        for id in 1..=SMALL_POOL_MAX as u64 {
            pool.insert(member(id, 2, 0, 1_000, 10));
        }
        assert!(matches!(pool.repr, CostRepr::Large(_)));
        assert_eq!(accept(&mut pool, 10), Some(vec![0]));
        assert_eq!(
            pool.advance(TimePoint::new(41)),
            0,
            "the wide arm only records it"
        );
        assert_eq!(accept(&mut pool, 20), Some(vec![1]));
        assert_eq!(pool.take_expired(), 1);
    }

    #[test]
    fn small_and_large_representations_accept_identically() {
        // Drive the same member sequence through a pool that stays small
        // and one forced across the threshold, advancing the anchor as a
        // scan does; acceptance must agree on membership, order, and
        // budget behaviour at every step. The flat arm expires at every
        // anchor, the wide one only what acceptance reads, so it never
        // counts more, and it still holds every member the flat arm does.
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
        let (mut expired_small, mut expired_large) = (0, 0);
        for (step, m) in members.iter().enumerate() {
            let step = step as u64;
            expired_small += small.advance(anchor(step));
            assert_eq!(large.advance(anchor(step)), 0);
            small.insert(*m);
            large.insert(*m);
            if step.is_multiple_of(5) {
                let victim = &members[((step * 7) % (step + 1)) as usize];
                if victim.live_at(anchor(step)) {
                    small.remove(victim);
                    large.remove(victim);
                }
            }
            for budget in [10, 40, 400] {
                let a = accept(&mut small, budget);
                let b = accept(&mut large, budget);
                assert_eq!(a, b, "representations disagree at step {step}");
            }
            expired_large += large.take_expired();
            assert!(expired_large <= expired_small, "step {step}");
            assert!(large.len() >= small.len(), "step {step}");
        }
        assert!(expired_large > 0, "the wide arm never found a dead member");
        assert!(matches!(small.repr, CostRepr::Small(_)));
    }

    #[test]
    fn a_member_removed_from_the_tail_is_never_promoted() {
        let mut pool = LargeCostPool::new(1);
        let [a, b, c] = [1, 2, 3].map(|id| member(id, id as i64, 0, 100, 10));
        for m in [a, b, c] {
            pool.insert(m);
        }
        let (budget, at) = (Money::from_credits(1_000), TimePoint::ZERO);
        // `b` leaves from the tail: its entry stays there, and its key
        // goes onto the removed heap.
        pool.remove(&b, at);
        assert_eq!((pool.len(), pool.tail.len(), pool.removed.len()), (2, 2, 1));
        // The head drains; the promotion skips `b`'s entry for `c`, and
        // both heaps let it go.
        pool.remove(&a, at);
        assert_eq!((pool.tail.len(), pool.removed.len()), (0, 0));
        assert_eq!(accept_large(&mut pool, budget, at), Some(vec![3]));
        pool.remove(&c, at);
        assert_eq!(pool.len(), 0);
        assert_eq!(accept_large(&mut pool, budget, at), None);
    }

    /// The wide pool cannot tell an absent tail member from a pooled one;
    /// debug builds check every removal against the pooled ids.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not pooled")]
    fn the_wide_pool_refuses_to_remove_an_absent_member_in_debug_builds() {
        let mut pool = LargeCostPool::new(1);
        let [a, b] = [1, 2].map(|id| member(id, id as i64, 0, 100, 10));
        pool.insert(a);
        pool.insert(b);
        pool.remove(&b, TimePoint::ZERO);
        pool.remove(&b, TimePoint::ZERO);
    }

    /// A member is tested for liveness where it is read — in the head by
    /// acceptance, or on its way up from the tail — and counted once
    /// when found dead there; one removed first is never counted.
    #[test]
    fn a_dead_member_is_dropped_and_counted_where_it_is_read() {
        let mut pool = LargeCostPool::new(1);
        let budget = Money::from_credits(1_000);
        // By cost: 0 (live through 40), 1 (through 40), 2 (through 90),
        // 3 (through 140).
        let [m0, m1, m2, m3] = [(0, 50), (1, 50), (2, 100), (3, 150)]
            .map(|(id, end)| member(id, 1 + id as i64, 0, end, 10));
        for m in [m0, m1, m2, m3] {
            pool.insert(m);
        }
        pool.remove(&m0, TimePoint::ZERO);
        // At anchor 41 nothing is read yet: nothing is found dead, and
        // all three members still count.
        let at = TimePoint::new(41);
        assert_eq!((pool.len(), pool.expired), (3, 0));
        // Acceptance reads the head: 1 is dead, and so is nothing else it
        // meets on the way to 2. The removed 0 never counts.
        assert_eq!(accept_large(&mut pool, budget, at), Some(vec![2]));
        assert_eq!((pool.len(), pool.expired), (2, 1));
        // Removing 2 promotes from the tail at anchor 141, past nothing
        // live: 3 is found dead on its way up.
        let at = TimePoint::new(141);
        pool.remove(&m2, at);
        assert_eq!((pool.len(), pool.expired), (0, 2));
        assert_eq!(accept_large(&mut pool, budget, at), None);
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
        /// Moves the anchor forward.
        Advance(i64),
        /// Moves the anchor just past the deadline of the `pick`-th of
        /// the `n` cheapest members, so that it dies, with every member
        /// cheaper-and-no-later, before acceptance runs.
        KillCheapest(usize),
    }

    /// The shim has no `prop_oneof`: `tag`'s range width is the weight.
    fn pool_op() -> impl Strategy<Value = PoolOp> {
        (0u32..10, 0usize..1_000, 1i64..4, 0i64..400).prop_map(|(tag, pick, price, span)| match tag
        {
            0..=4 => PoolOp::Insert { price, slack: span },
            5 => PoolOp::RemoveHead(pick),
            6 => PoolOp::RemoveTail(pick),
            7 | 8 => PoolOp::Advance(span / 20),
            _ => PoolOp::KillCheapest(pick),
        })
    }

    /// The three pools under test, driven in lockstep, and the anchor
    /// the bare wide pool tests liveness at.
    struct Pools {
        small: CostPool,
        forced: CostPool,
        large: LargeCostPool,
        anchor: TimePoint,
    }

    impl Pools {
        fn new(n: usize) -> Self {
            let mut forced = CostPool::new(n);
            forced.repr = CostRepr::Large(LargeCostPool::new(n));
            Pools {
                small: CostPool::new(n),
                forced,
                large: LargeCostPool::new(n),
                anchor: TimePoint::ZERO,
            }
        }

        fn insert(&mut self, m: PoolMember) {
            self.small.insert(m);
            self.forced.insert(m);
            self.large.insert(m);
        }

        /// Removes the live member `m` from each pool.
        fn remove(&mut self, m: &PoolMember) {
            self.small.remove(m);
            self.forced.remove(m);
            self.large.remove(m, self.anchor);
        }

        /// The eager arm's expiry count; the lazy ones record the anchor.
        fn advance(&mut self, anchor: TimePoint) -> u64 {
            self.forced.advance(anchor);
            self.anchor = anchor;
            self.small.advance(anchor)
        }

        /// What all three accept, which must agree, as must whether each
        /// ran a test.
        fn accept(&mut self, budget: Money) -> Option<Vec<u64>> {
            let ids = |chosen: Vec<PoolMember>| chosen.iter().map(|m| m.slot.id().raw()).collect();
            let mut tests = [ScanStats::new(), ScanStats::new()];
            let accepted = self.small.accept(budget, &mut tests[0]).map(ids);
            assert_eq!(self.forced.accept(budget, &mut tests[1]).map(ids), accepted);
            assert_eq!(tests[0].acceptance_tests, tests[1].acceptance_tests);
            assert_eq!(accept_large(&mut self.large, budget, self.anchor), accepted);
            accepted
        }

        /// Members the lazy pools found dead so far; the two agree.
        fn found_dead(&mut self) -> u64 {
            let found = std::mem::take(&mut self.large.expired);
            assert_eq!(self.forced.take_expired(), found);
            found
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both `CostPool` arms and a bare `LargeCostPool` against a
        /// sort-and-take model: every removal and acceptance agrees at
        /// every step, whether `n` is below or above the pool size and
        /// whether or not the cheapest members died since the last
        /// test. The eager arm counts every expiry; the lazy ones count
        /// what they find dead, never more.
        #[test]
        fn cost_pools_match_a_sort_and_take_model(
            n in 1usize..40,
            reach in 0u32..3,
            ops in prop::collection::vec(pool_op(), 1..600),
        ) {
            let mut pools = Pools::new(n);
            let mut live: Vec<PoolMember> = Vec::new();
            let mut anchor = TimePoint::ZERO;
            let (mut expired, mut found) = (0u64, 0u64);
            for (step, op) in ops.into_iter().enumerate() {
                let mut to = None;
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
                            pools.remove(&live.remove(range.start + pick % range.len()));
                        }
                    }
                    PoolOp::Advance(by) => to = Some(anchor + TimeDelta::new(by)),
                    PoolOp::KillCheapest(pick) => {
                        if let Some(m) = live.get(pick % n.min(live.len()).max(1)) {
                            to = Some(m.slot.end() - m.runtime + TimeDelta::new(1));
                        }
                    }
                }
                if let Some(to) = to.filter(|to| *to > anchor) {
                    anchor = to;
                    let before = live.len();
                    live.retain(|m| m.live_at(anchor));
                    let dead = (before - live.len()) as u64;
                    expired += dead;
                    prop_assert_eq!(pools.advance(anchor), dead, "step {}", step);
                }
                prop_assert_eq!(pools.small.len(), live.len());
                prop_assert!(pools.large.len() >= live.len());
                let head: Money = live.iter().take(n).map(PoolMember::cost).sum();
                for budget in [head - Money::from_credits(1), head, head + head] {
                    let expected = (live.len() >= n && head <= budget)
                        .then(|| live[..n].iter().map(|m| m.slot.id().raw()).collect());
                    prop_assert_eq!(pools.accept(budget), expected, "step {}", step);
                }
                found += pools.found_dead();
                prop_assert!(found <= expired, "step {}: {} found of {} dead", step, found, expired);
            }
        }
    }

    fn request(n: usize, t: i64, cap: i64) -> ResourceRequest {
        ResourceRequest::new(n, TimeDelta::new(t), Perf::UNIT, Price::from_credits(cap)).unwrap()
    }

    fn amp_scan(request: &ResourceRequest) -> JobScan {
        JobScan::new(&AlgoSpec::amp(crate::Amp::new()), request)
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
    fn a_seeded_scan_neither_pools_nor_removes_what_starts_before_its_seed() {
        // Slot 0 is the cheapest, but starts before the seed.
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 1.0, 1, 0, 200),
            slot(1, 1, 1.0, 2, 10, 200),
            slot(2, 2, 1.0, 2, 10, 200),
            slot(3, 3, 1.0, 2, 30, 200),
        ])
        .unwrap();
        let (req, seed) = (request(2, 50, 5), TimePoint::new(10));
        let mut scan = amp_scan(&req);
        scan.resume_from(seed);
        let mut stats = ScanStats::new();
        assert_eq!(sources(&scan.run(&list, &mut stats).unwrap()), vec![1, 2]);
        assert!(matches!(scan.resume, Resume::Accepted { group: 2, .. }));
        // Another job takes [100, 150) of slot 0. The consumed slot and
        // its left remnant [0, 100) start before the seed; the remnant is
        // admitted and live at the anchor, so a scan from the head would
        // pool it.
        let report = cut(&mut list, 0, 100, 150);
        let remnant = report.remnants[0];
        assert_eq!(
            (report.removed[0].start(), remnant.start()),
            (TimePoint::ZERO, TimePoint::ZERO)
        );
        assert!(admit_slot(&req, LengthRule::Corrected, &remnant).is_some_and(|m| m.live_at(seed)));
        scan.apply_report(&report);
        assert_eq!(scan.pool.len(), 2);
        assert!(matches!(scan.resume, Resume::Accepted { group: 2, .. }));
        // The resume answers what a fresh scan seeded there finds.
        let next = scan.run(&list, &mut stats).unwrap();
        let mut fresh = amp_scan(&req);
        fresh.resume_from(seed);
        assert_eq!(Some(next), fresh.run(&list, &mut ScanStats::new()));
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
        let chosen = pool.accept(3, None, &mut ScanStats::new()).unwrap();
        let ids: Vec<u64> = chosen.iter().map(|m| m.slot.id().raw()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        pool.remove(&middle);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn the_ordered_pool_refuses_to_remove_an_absent_member() {
        let mut pool = AcceptPool::Ordered(Vec::new());
        let middle = member(3, 1, 20, 100, 10);
        pool.insert(member(1, 1, 0, 100, 10));
        pool.insert(middle);
        pool.remove(&middle);
        pool.remove(&middle);
    }
}
