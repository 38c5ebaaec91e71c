//! Revocations: regions of vacant or leased time withdrawn by the
//! environment.
//!
//! The paper's model is *non-dedicated*: owner jobs have priority, so a
//! vacant slot published to the metascheduler can disappear between the
//! alternatives search and the launch, and a committed window can be
//! taken back while it runs. A [`Revocation`] records one such withdrawn
//! region.
//!
//! Revocations are expressed as `(node, span)` *regions* rather than slot
//! ids.  Committed windows reference remnant slots minted during
//! subtraction, while faults originate from the market's slots, so a
//! region is the only identity both sides share.

use crate::resource::NodeId;
use crate::slot::SlotId;
use crate::time::Span;
use crate::window::Window;
use serde::{Deserialize, Serialize};

/// One region of vacant or leased time withdrawn by the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Revocation {
    /// Id of the market slot the fault was drawn against.
    pub slot: SlotId,
    /// Node whose vacant time is withdrawn.
    pub node: NodeId,
    /// The withdrawn region (the full span of the struck slot).
    pub span: Span,
}

impl Revocation {
    /// Does this revocation intersect the given `(node, span)` region?
    ///
    /// Half-open spans that merely touch do not intersect.
    #[must_use]
    pub fn hits(&self, node: NodeId, span: Span) -> bool {
        self.node == node && self.span.overlaps(span)
    }

    /// Does this revocation break a lease on `window`?
    ///
    /// A window breaks when any member's *used* region — the span the
    /// task actually occupies, not the full source slot — intersects the
    /// revoked region on the same node.
    #[must_use]
    pub fn breaks(&self, window: &Window) -> bool {
        window
            .slots()
            .iter()
            .any(|ws| self.hits(ws.node(), window.used_span(ws)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::perf::Perf;
    use crate::slot::Slot;
    use crate::time::TimePoint;
    use crate::window::WindowSlot;

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn window_on(node: u32, a: i64, b: i64) -> Window {
        let slot = Slot::new(
            SlotId::new(0),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(2),
            span(a, b),
        )
        .unwrap();
        let ws = WindowSlot::from_slot(&slot, crate::time::TimeDelta::new(b - a)).unwrap();
        Window::new(TimePoint::new(a), vec![ws]).unwrap()
    }

    fn revocation(node: u32, a: i64, b: i64) -> Revocation {
        Revocation {
            slot: SlotId::new(9),
            node: NodeId::new(node),
            span: span(a, b),
        }
    }

    #[test]
    fn hits_requires_same_node_and_overlap() {
        let r = revocation(1, 10, 20);
        assert!(r.hits(NodeId::new(1), span(15, 25)));
        assert!(!r.hits(NodeId::new(2), span(15, 25)));
        // Half-open spans that merely touch do not overlap.
        assert!(!r.hits(NodeId::new(1), span(20, 30)));
    }

    #[test]
    fn breaks_checks_used_region() {
        let window = window_on(3, 100, 150);
        assert!(revocation(3, 140, 160).breaks(&window));
        assert!(!revocation(3, 150, 160).breaks(&window));
        assert!(!revocation(4, 100, 150).breaks(&window));
    }

    #[test]
    fn serde_round_trip() {
        let rev = revocation(0, 5, 9);
        let text = serde_json::to_string(&rev).unwrap();
        let back: Revocation = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rev);
    }
}
