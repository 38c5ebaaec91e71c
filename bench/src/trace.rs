//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer, kept in memory, and written out as NDJSON when the run
//! ends. A span's self time is its duration minus the part of it that its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of "no parent".
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based; [`ROOT`] is reserved for "no parent".
    pub id: u32,
    pub parent: u32,
    /// The operation the span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation id that spans opened from now on carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(ROOT),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span id: duration minus the union of the direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut cursor = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += by_id[&s.id];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_and_nested_children_once() {
        let spans = [
            span(1, ROOT, "cycle", 0, 100),
            span(2, 1, "select", 10, 40),
            // Adjacent to its sibling: no gap, no overlap.
            span(3, 1, "optimize", 40, 70),
            // A grandchild is covered by its own parent only.
            span(4, 3, "dp_row", 45, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 30 - 30);
        assert_eq!(t[&2], 30);
        assert_eq!(t[&3], 30 - 15);
        assert_eq!(t[&4], 15);
        let by_name = self_time_by_name(&spans);
        assert_eq!(
            by_name.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_counted_twice() {
        let spans = [
            span(1, ROOT, "parent", 100, 200),
            span(2, 1, "a", 110, 150),
            span(3, 1, "b", 140, 160),
            span(4, 1, "late", 190, 230),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 50 - 10);
    }

    #[test]
    fn the_tracer_parents_spans_by_nesting() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        let sibling = t.enter("sibling");
        t.exit(sibling);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| (s.id, s.parent, s.op)).collect::<Vec<_>>(),
            [(1, ROOT, 7), (2, 1, 7), (3, 1, 7)]
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }
}
