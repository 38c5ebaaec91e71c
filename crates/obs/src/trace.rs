//! Span tracing keyed on *virtual* time.
//!
//! Engine cycles emit one parent span per `CycleTick` with child spans
//! for the scan / optimize / commit phases (and one per repair pass);
//! every span carries the virtual tick it belongs to and an `items`
//! payload — never a wall-clock duration, so tracing stays a pure
//! observation of the deterministic run.
//!
//! Spans land in a bounded ring: once `capacity` spans are held, each
//! new span evicts the oldest. The ring lives behind a `Mutex` — the
//! recording side is the single engine thread (uncontended lock), and
//! the dump side is a scrape, so a lock-free MPSC would buy nothing.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotone span id, unique within the tracer.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Virtual time (engine ticks) the span belongs to.
    pub time: i64,
    /// Phase name (`"cycle"`, `"scan"`, `"optimize"`, `"commit"`,
    /// `"repair"`, …).
    pub kind: &'static str,
    /// Phase-specific payload (slots examined, rows reused, leases
    /// committed, …).
    pub items: u64,
}

/// The bounded span sink.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    next_id: AtomicU64,
    /// Oldest first.
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans (oldest evicted first).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            capacity: capacity.max(1),
            next_id: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one completed span and returns its id (usable as the
    /// `parent` of children).
    pub fn span(&self, time: i64, kind: &'static str, parent: Option<u64>, items: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id,
            parent,
            time,
            kind,
            items,
        };
        if let Ok(mut ring) = self.ring.lock() {
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(record);
        }
        id
    }

    /// Spans currently held, oldest first.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock();
        ring.map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().map(|r| r.len()).unwrap_or(0)
    }

    /// Whether the tracer holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the held spans as NDJSON, one object per line, oldest
    /// first.
    #[must_use]
    pub fn dump_ndjson(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"time\":{},\"kind\":\"{}\",\"items\":{}}}",
                s.id, s.time, s.kind, s.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_parents_and_dump_in_order() {
        let t = Tracer::with_capacity(16);
        let cycle = t.span(100, "cycle", None, 0);
        t.span(100, "scan", Some(cycle), 42);
        assert_eq!(t.len(), 2);
        let spans = t.spans();
        assert_eq!(spans[0].id, cycle);
        assert_eq!(spans[1].parent, Some(cycle));
        let dump = t.dump_ndjson();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"span\":0,\"parent\":null,\"time\":100,\"kind\":\"cycle\",\"items\":0}"
        );
        assert!(lines[0].contains("\"kind\":\"cycle\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains(&format!("\"parent\":{cycle}")));
        assert!(lines[1].contains("\"items\":42"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.span(i, "cycle", None, i as u64);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.time).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest spans must be evicted first"
        );
    }
}
