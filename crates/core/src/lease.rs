//! Leases and revocations: the execution-time view of a committed window.
//!
//! The paper's model is *non-dedicated*: owner jobs have priority, so a
//! vacant slot published to the metascheduler can disappear between the
//! alternatives search and the launch.  A [`Lease`] records the window a
//! job actually holds, together with how it was obtained ([`LeaseOrigin`]);
//! a [`Revocation`] records one region of vacant time withdrawn by the
//! environment.
//!
//! Revocations are expressed as `(node, span)` *regions* rather than slot
//! ids.  Committed windows reference remnant slots minted during
//! subtraction, while faults originate from the published slot list, so a
//! region is the only identity both sides share.

use crate::job::JobId;
use crate::resource::NodeId;
use crate::slot::SlotId;
use crate::time::Span;
use crate::window::Window;
use serde::{Deserialize, Serialize};

/// One region of vacant time withdrawn by the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Revocation {
    /// Id of the published slot the fault was drawn against.
    pub slot: SlotId,
    /// Node whose vacant time is withdrawn.
    pub node: NodeId,
    /// The withdrawn region (the full span of the published slot).
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

/// How a job came to hold its current window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseOrigin {
    /// The window chosen by combination optimization survived intact.
    Planned,
    /// The planned window broke and the job switched to one of its
    /// pre-computed disjoint alternatives.
    FailedOver {
        /// Index of the adopted alternative in the job's alternatives list.
        alternative: usize,
    },
    /// The planned window (and every surviving alternative) was unusable;
    /// a bounded repair search found a fresh window on the post-revocation
    /// slot list.
    Repaired,
}

/// A committed window held by a job, with its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// The job holding the window.
    pub job: JobId,
    /// The committed window.
    pub window: Window,
    /// How the window was obtained.
    pub origin: LeaseOrigin,
}

impl Lease {
    /// A freshly planned lease (origin [`LeaseOrigin::Planned`]).
    #[must_use]
    pub fn planned(job: JobId, window: Window) -> Self {
        Lease {
            job,
            window,
            origin: LeaseOrigin::Planned,
        }
    }

    /// Is this lease broken by the given revocation
    /// ([`Revocation::breaks`] its window)?
    #[must_use]
    pub fn broken_by(&self, revocation: &Revocation) -> bool {
        revocation.breaks(&self.window)
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
    fn broken_by_checks_used_region() {
        let lease = Lease::planned(JobId::new(0), window_on(3, 100, 150));
        assert!(lease.broken_by(&revocation(3, 140, 160)));
        assert!(!lease.broken_by(&revocation(3, 150, 160)));
        assert!(!lease.broken_by(&revocation(4, 100, 150)));
        assert_eq!(lease.origin, LeaseOrigin::Planned);
    }

    #[test]
    fn serde_round_trip() {
        let lease = Lease {
            job: JobId::new(2),
            window: window_on(1, 0, 50),
            origin: LeaseOrigin::FailedOver { alternative: 1 },
        };
        let value = serde::Serialize::to_value(&lease);
        let back: Lease = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, lease);

        let rev = revocation(0, 5, 9);
        let value = serde::Serialize::to_value(&rev);
        let back: Revocation = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, rev);
    }
}
