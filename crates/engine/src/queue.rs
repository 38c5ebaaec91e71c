//! The future event queue: a binary min-heap over `(time, seq)`.
//!
//! Events scheduled for the same virtual time pop in insertion order —
//! the `seq` counter is assigned at push time and never reused, so the
//! ordering is total and the engine's event processing order is fully
//! deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ecosched_core::TimePoint;

use crate::event::Event;

/// An event waiting in the queue, keyed for the `(time, seq)` pop order.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: TimePoint,
    seq: u64,
    event: Event,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // `seq` is unique, so this order is total and consistent with
        // `eq` even though the payload is ignored.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A future-event queue with a deterministic `(time, seq)` pop order.
///
/// `BinaryHeap` is a max-heap, so entries are stored under [`Reverse`]
/// to pop the earliest time first; among equal times the lowest sequence
/// number — the earliest insertion — wins.
///
/// [`Reverse`]: std::cmp::Reverse
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<QueuedEvent>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue. Sequence numbers start at zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at virtual time `time` and returns the sequence
    /// number it was assigned.
    pub fn push(&mut self, time: TimePoint, event: Event) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(std::cmp::Reverse(QueuedEvent { time, seq, event }));
        seq
    }

    /// Pops the earliest event: lowest time, then lowest sequence number.
    pub fn pop(&mut self) -> Option<(TimePoint, u64, Event)> {
        self.heap
            .pop()
            .map(|std::cmp::Reverse(q)| (q.time, q.seq, q.event))
    }

    /// The `(time, seq)` key of the event the next [`Self::pop`] would
    /// return, without removing it. The service-mode pacing loop uses
    /// this to step only the events at or before the current virtual
    /// time.
    #[must_use]
    pub fn peek(&self) -> Option<(TimePoint, u64)> {
        self.heap.peek().map(|std::cmp::Reverse(q)| (q.time, q.seq))
    }

    /// The sequence number the next [`Self::push`] will assign. The
    /// federation's submit path uses this to predict where an injected
    /// arrival will land in the merged `(time, seq, shard)` order.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The queue's resumable state: the next sequence number plus every
    /// queued event in pop order. Non-destructive: the heap's entries are
    /// copied out and sorted by their `(time, seq)` keys, which are unique.
    #[must_use]
    pub fn snapshot(&self) -> (u64, Vec<(TimePoint, u64, Event)>) {
        let mut entries: Vec<_> = self
            .heap
            .iter()
            .map(|std::cmp::Reverse(q)| (q.time, q.seq, q.event))
            .collect();
        entries.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        (self.next_seq, entries)
    }

    /// Rebuilds a queue from a [`Self::snapshot`], preserving the sequence
    /// numbers already assigned (unlike [`Self::push`], which would mint
    /// new ones). Pop order is a pure function of the `(time, seq)` keys,
    /// so the restored queue pops identically to the captured one.
    pub fn restore(
        next_seq: u64,
        entries: impl IntoIterator<Item = (TimePoint, u64, Event)>,
    ) -> Self {
        EventQueue {
            heap: entries
                .into_iter()
                .map(|(time, seq, event)| std::cmp::Reverse(QueuedEvent { time, seq, event }))
                .collect(),
            next_seq,
        }
    }

    /// Number of events still queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ticks: i64) -> TimePoint {
        TimePoint::new(ticks)
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(at(10), Event::CycleTick { cycle: 1 });
        q.push(at(5), Event::JobArrival { job: 0 });
        q.push(at(10), Event::RevocationStrike { strike: 0 });
        q.push(at(5), Event::JobArrival { job: 1 });

        let order: Vec<(i64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, s, _)| (t.ticks(), s))
            .collect();
        assert_eq!(order, vec![(5, 1), (5, 3), (10, 0), (10, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn sequence_numbers_are_never_reused() {
        let mut q = EventQueue::new();
        let a = q.push(at(1), Event::CycleTick { cycle: 0 });
        q.pop();
        let b = q.push(at(1), Event::CycleTick { cycle: 1 });
        assert!(b > a);
        assert_eq!(q.len(), 1);
    }
}
