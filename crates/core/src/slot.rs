//! Vacant time slots published by local resource managers.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::money::Price;
use crate::perf::Perf;
use crate::resource::{NodeId, Resource};
use crate::time::{Span, TimeDelta, TimePoint};

/// Identifier of a slot within a [`crate::SlotList`].
///
/// Slot subtraction mints fresh ids for the remnants (`K1`, `K2` in
/// Fig. 1 (b) of the paper), so an id uniquely names one contiguous vacancy
/// for the lifetime of a scheduling iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotId(u64);

impl SlotId {
    /// Creates a slot identifier from a raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        SlotId(raw)
    }

    /// Returns the raw value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A vacant time span on one computational node (the paper's `Slot` class:
/// resource, usage cost per time unit, start, end, length).
///
/// # Examples
///
/// ```
/// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, Span, TimePoint};
///
/// let slot = Slot::new(
///     SlotId::new(0),
///     NodeId::new(1),
///     Perf::from_f64(2.0),
///     Price::from_credits(4),
///     Span::new(TimePoint::new(100), TimePoint::new(400)).unwrap(),
/// )?;
/// assert_eq!(slot.length().ticks(), 300);
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Slot {
    id: SlotId,
    node: NodeId,
    perf: Perf,
    price: Price,
    span: Span,
}

impl Slot {
    /// Creates a slot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptySlot`] if `span` has zero length — the
    /// paper drops zero-length remnants rather than keeping them in the
    /// list, and we enforce that invariant at the type boundary.
    pub fn new(
        id: SlotId,
        node: NodeId,
        perf: Perf,
        price: Price,
        span: Span,
    ) -> Result<Self, CoreError> {
        if span.is_empty() {
            return Err(CoreError::EmptySlot { id, span });
        }
        Ok(Slot {
            id,
            node,
            perf,
            price,
            span,
        })
    }

    /// Creates a slot on the given [`Resource`], copying its rate and price.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptySlot`] if `span` has zero length.
    pub fn on_resource(id: SlotId, resource: &Resource, span: Span) -> Result<Self, CoreError> {
        Slot::new(id, resource.id(), resource.perf(), resource.price(), span)
    }

    /// The slot identifier.
    #[must_use]
    pub const fn id(&self) -> SlotId {
        self.id
    }

    /// The node the slot is vacant on.
    #[must_use]
    pub const fn node(&self) -> NodeId {
        self.node
    }

    /// The performance rate of the slot's node.
    #[must_use]
    pub const fn perf(&self) -> Perf {
        self.perf
    }

    /// The usage price per time unit of the slot's node.
    #[must_use]
    pub const fn price(&self) -> Price {
        self.price
    }

    /// The vacant span.
    #[must_use]
    pub const fn span(&self) -> Span {
        self.span
    }

    /// Start of the vacant span.
    #[must_use]
    pub const fn start(&self) -> TimePoint {
        self.span.start()
    }

    /// End of the vacant span.
    #[must_use]
    pub const fn end(&self) -> TimePoint {
        self.span.end()
    }

    /// Length of the vacant span (the paper's `L(s)`).
    #[must_use]
    pub const fn length(&self) -> TimeDelta {
        self.span.length()
    }

    /// Returns a copy of this slot with the same attributes on a new span
    /// under a new id, as produced by slot subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptySlot`] if `span` has zero length.
    pub fn with_span(&self, id: SlotId, span: Span) -> Result<Slot, CoreError> {
        Slot::new(id, self.node, self.perf, self.price, span)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} {} {} {}",
            self.id, self.node, self.span, self.perf, self.price
        )
    }
}

/// Decoded through [`Slot::new`] from the record the derived writer
/// prints, so no slot read off the wire holds an empty span.
impl<'de> Deserialize<'de> for Slot {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut id, mut node, mut perf, mut price, mut span) = (None, None, None, None, None);
        parser.read_map(|parser, key| match key {
            "id" => parser.field(&mut id, key),
            "node" => parser.field(&mut node, key),
            "perf" => parser.field(&mut perf, key),
            "price" => parser.field(&mut price, key),
            "span" => parser.field(&mut span, key),
            _ => parser.skip_value(),
        })?;
        Slot::new(
            serde::required(id, "id")?,
            serde::required(node, "node")?,
            serde::required(perf, "perf")?,
            serde::required(price, "price")?,
            serde::required(span, "span")?,
        )
        .map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    fn slot(a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(1),
            NodeId::new(0),
            Perf::UNIT,
            Price::from_credits(2),
            span(a, b),
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_span() {
        let err = Slot::new(
            SlotId::new(9),
            NodeId::new(0),
            Perf::UNIT,
            Price::ZERO,
            span(5, 5),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::EmptySlot { .. }));
    }

    #[test]
    fn accessors() {
        let s = slot(10, 40);
        assert_eq!(s.start(), TimePoint::new(10));
        assert_eq!(s.end(), TimePoint::new(40));
        assert_eq!(s.length(), TimeDelta::new(30));
        assert_eq!(s.node(), NodeId::new(0));
    }

    #[test]
    fn on_resource_copies_attributes() {
        let r = Resource::new(NodeId::new(5), Perf::from_f64(3.0), Price::from_credits(6));
        let s = Slot::on_resource(SlotId::new(2), &r, span(0, 10)).unwrap();
        assert_eq!(s.node(), NodeId::new(5));
        assert_eq!(s.perf(), Perf::from_f64(3.0));
        assert_eq!(s.price(), Price::from_credits(6));
    }

    #[test]
    fn with_span_keeps_attributes_changes_extent() {
        let s = slot(10, 40);
        let t = s.with_span(SlotId::new(99), span(20, 30)).unwrap();
        assert_eq!(t.id(), SlotId::new(99));
        assert_eq!(t.node(), s.node());
        assert_eq!(t.price(), s.price());
        assert_eq!(t.span(), span(20, 30));
        assert!(s.with_span(SlotId::new(100), span(7, 7)).is_err());
    }

    #[test]
    fn display_mentions_id_node_span() {
        let s = slot(10, 40);
        let text = format!("{s}");
        assert!(text.contains("s1"));
        assert!(text.contains("cpu0"));
        assert!(text.contains("[10, 40)"));
    }
}
