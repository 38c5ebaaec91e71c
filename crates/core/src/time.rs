//! Discrete simulation time: points, deltas, and half-open spans.
//!
//! The paper treats time as integer ticks (slot starts/ends such as
//! `[150, 230]`). We model a point on the global timeline as [`TimePoint`]
//! and a signed distance between points as [`TimeDelta`]. A contiguous
//! reservation interval is a half-open [`Span`] `[start, end)`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point on the discrete global timeline, in ticks since the epoch.
///
/// # Examples
///
/// ```
/// use ecosched_core::{TimeDelta, TimePoint};
///
/// let t = TimePoint::new(150) + TimeDelta::new(80);
/// assert_eq!(t, TimePoint::new(230));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimePoint(i64);

impl TimePoint {
    /// The origin of the timeline.
    pub const ZERO: TimePoint = TimePoint(0);
    /// The latest representable point; useful as an "infinity" sentinel.
    pub const MAX: TimePoint = TimePoint(i64::MAX);

    /// Creates a time point at `ticks` ticks since the epoch.
    #[must_use]
    pub const fn new(ticks: i64) -> Self {
        TimePoint(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Returns the signed distance from `earlier` to `self`.
    ///
    /// ```
    /// use ecosched_core::{TimeDelta, TimePoint};
    ///
    /// let d = TimePoint::new(230).since(TimePoint::new(150));
    /// assert_eq!(d, TimeDelta::new(80));
    /// ```
    #[must_use]
    pub const fn since(self, earlier: TimePoint) -> TimeDelta {
        TimeDelta(self.0 - earlier.0)
    }

    /// Returns the later of two points.
    #[must_use]
    pub fn max(self, other: TimePoint) -> TimePoint {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two points.
    #[must_use]
    pub fn min(self, other: TimePoint) -> TimePoint {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A signed duration in ticks.
///
/// # Examples
///
/// ```
/// use ecosched_core::TimeDelta;
///
/// let half = TimeDelta::new(80) / 2;
/// assert_eq!(half, TimeDelta::new(40));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeDelta(i64);

impl TimeDelta {
    /// The zero duration.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The largest representable duration.
    pub const MAX: TimeDelta = TimeDelta(i64::MAX);

    /// Creates a duration of `ticks` ticks.
    #[must_use]
    pub const fn new(ticks: i64) -> Self {
        TimeDelta(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Returns `true` if the duration is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the duration is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Δ", self.0)
    }
}

impl Add<TimeDelta> for TimePoint {
    type Output = TimePoint;
    fn add(self, rhs: TimeDelta) -> TimePoint {
        TimePoint(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for TimePoint {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for TimePoint {
    type Output = TimePoint;
    fn sub(self, rhs: TimeDelta) -> TimePoint {
        TimePoint(self.0 - rhs.0)
    }
}

impl SubAssign<TimeDelta> for TimePoint {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Sub for TimePoint {
    type Output = TimeDelta;
    fn sub(self, rhs: TimePoint) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Neg for TimeDelta {
    type Output = TimeDelta;
    fn neg(self) -> TimeDelta {
        TimeDelta(-self.0)
    }
}

impl Mul<i64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<i64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl std::iter::Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, Add::add)
    }
}

/// A half-open time interval `[start, end)`.
///
/// Invariant: `start <= end`. An empty span (`start == end`) is permitted
/// only as a transient value; [`crate::Slot`] construction rejects it.
///
/// # Examples
///
/// ```
/// use ecosched_core::{Span, TimeDelta, TimePoint};
///
/// let s = Span::new(TimePoint::new(150), TimePoint::new(230)).unwrap();
/// assert_eq!(s.length(), TimeDelta::new(80));
/// assert!(s.contains(TimePoint::new(150)));
/// assert!(!s.contains(TimePoint::new(230)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Span {
    start: TimePoint,
    end: TimePoint,
}

impl Span {
    /// Creates a span from `start` to `end`.
    ///
    /// Returns `None` if `end < start`.
    #[must_use]
    pub fn new(start: TimePoint, end: TimePoint) -> Option<Span> {
        if end < start {
            None
        } else {
            Some(Span { start, end })
        }
    }

    /// Creates the span `[start, start + length)`.
    ///
    /// Returns `None` if `length` is negative.
    #[must_use]
    pub fn from_start_length(start: TimePoint, length: TimeDelta) -> Option<Span> {
        if length < TimeDelta::ZERO {
            None
        } else {
            Some(Span {
                start,
                end: start + length,
            })
        }
    }

    /// The inclusive start of the span.
    #[must_use]
    pub const fn start(self) -> TimePoint {
        self.start
    }

    /// The exclusive end of the span.
    #[must_use]
    pub const fn end(self) -> TimePoint {
        self.end
    }

    /// The span length `end - start`.
    #[must_use]
    pub const fn length(self) -> TimeDelta {
        TimeDelta(self.end.0 - self.start.0)
    }

    /// Returns `true` if the span covers no ticks.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.start.0 == self.end.0
    }

    /// Returns `true` if `point` lies inside `[start, end)`.
    #[must_use]
    pub fn contains(self, point: TimePoint) -> bool {
        self.start <= point && point < self.end
    }

    /// Returns `true` if `other` is entirely inside this span.
    #[must_use]
    pub fn contains_span(self, other: Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Returns the overlap of two spans, or `None` when they are disjoint
    /// (touching spans share no ticks and are considered disjoint).
    ///
    /// ```
    /// use ecosched_core::{Span, TimePoint};
    ///
    /// let a = Span::new(TimePoint::new(0), TimePoint::new(10)).unwrap();
    /// let b = Span::new(TimePoint::new(5), TimePoint::new(15)).unwrap();
    /// let i = a.intersect(b).unwrap();
    /// assert_eq!((i.start(), i.end()), (TimePoint::new(5), TimePoint::new(10)));
    /// ```
    #[must_use]
    pub fn intersect(self, other: Span) -> Option<Span> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Span { start, end })
        } else {
            None
        }
    }

    /// Returns `true` if the spans share at least one tick.
    #[must_use]
    pub fn overlaps(self, other: Span) -> bool {
        self.intersect(other).is_some()
    }

    /// Subtracts `cut` from this span, returning the (possibly empty) left
    /// and right remnants that survive.
    ///
    /// This is the slot-subtraction primitive of Fig. 1 (b) of the paper:
    /// removing the used interval `K'` from slot `K` leaves `K1 = [K.start,
    /// K'.start)` and `K2 = [K'.end, K.end)`; zero-length remnants are
    /// dropped.
    ///
    /// ```
    /// use ecosched_core::{Span, TimePoint};
    ///
    /// let k = Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap();
    /// let cut = Span::new(TimePoint::new(20), TimePoint::new(50)).unwrap();
    /// let (k1, k2) = k.subtract(cut);
    /// assert_eq!(k1.unwrap().end(), TimePoint::new(20));
    /// assert_eq!(k2.unwrap().start(), TimePoint::new(50));
    /// ```
    #[must_use]
    pub fn subtract(self, cut: Span) -> (Option<Span>, Option<Span>) {
        match self.intersect(cut) {
            None => (Some(self), None),
            Some(hit) => {
                let left = Span {
                    start: self.start,
                    end: hit.start,
                };
                let right = Span {
                    start: hit.end,
                    end: self.end,
                };
                (
                    (!left.is_empty()).then_some(left),
                    (!right.is_empty()).then_some(right),
                )
            }
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start.0, self.end.0)
    }
}

/// Decoded through [`Span::new`] from the record the derived writer
/// prints, so no span read off the wire ends before it starts.
impl<'de> Deserialize<'de> for Span {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut start, mut end) = (None, None);
        parser.read_map(|parser, key| match key {
            "start" => parser.field(&mut start, key),
            "end" => parser.field(&mut end, key),
            _ => parser.skip_value(),
        })?;
        let start: TimePoint = serde::required(start, "start")?;
        let end: TimePoint = serde::required(end, "end")?;
        Span::new(start, end).ok_or_else(|| {
            serde::Error::custom(format!(
                "span from {} to {} ends before it starts",
                start.0, end.0
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    #[test]
    fn point_arithmetic_round_trips() {
        let t = TimePoint::new(100);
        let d = TimeDelta::new(42);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(TimePoint::ZERO), TimeDelta::new(100));
    }

    #[test]
    fn point_min_max() {
        let a = TimePoint::new(1);
        let b = TimePoint::new(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn delta_sum_and_scale() {
        let total: TimeDelta = [1, 2, 3].iter().map(|&x| TimeDelta::new(x)).sum();
        assert_eq!(total, TimeDelta::new(6));
        assert_eq!(TimeDelta::new(6) * 2, TimeDelta::new(12));
        assert_eq!(TimeDelta::new(7) / 2, TimeDelta::new(3));
        assert_eq!(-TimeDelta::new(5), TimeDelta::new(-5));
    }

    #[test]
    fn span_rejects_reversed_bounds() {
        assert!(Span::new(TimePoint::new(5), TimePoint::new(4)).is_none());
        assert!(Span::from_start_length(TimePoint::ZERO, TimeDelta::new(-1)).is_none());
    }

    #[test]
    fn span_membership_is_half_open() {
        let s = sp(10, 20);
        assert!(s.contains(TimePoint::new(10)));
        assert!(s.contains(TimePoint::new(19)));
        assert!(!s.contains(TimePoint::new(20)));
        assert!(!s.contains(TimePoint::new(9)));
    }

    #[test]
    fn touching_spans_do_not_overlap() {
        assert!(!sp(0, 10).overlaps(sp(10, 20)));
        assert!(sp(0, 11).overlaps(sp(10, 20)));
    }

    #[test]
    fn intersect_is_commutative() {
        let a = sp(0, 50);
        let b = sp(30, 80);
        assert_eq!(a.intersect(b), b.intersect(a));
        assert_eq!(a.intersect(b).unwrap(), sp(30, 50));
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let (l, r) = sp(0, 10).subtract(sp(20, 30));
        assert_eq!(l, Some(sp(0, 10)));
        assert_eq!(r, None);
    }

    #[test]
    fn subtract_interior_cut_splits_in_two() {
        let (l, r) = sp(0, 100).subtract(sp(40, 60));
        assert_eq!(l, Some(sp(0, 40)));
        assert_eq!(r, Some(sp(60, 100)));
    }

    #[test]
    fn subtract_prefix_cut_leaves_right_only() {
        let (l, r) = sp(0, 100).subtract(sp(0, 30));
        assert_eq!(l, None);
        assert_eq!(r, Some(sp(30, 100)));
    }

    #[test]
    fn subtract_suffix_cut_leaves_left_only() {
        let (l, r) = sp(0, 100).subtract(sp(70, 100));
        assert_eq!(l, Some(sp(0, 70)));
        assert_eq!(r, None);
    }

    #[test]
    fn subtract_total_cut_removes_everything() {
        let (l, r) = sp(10, 20).subtract(sp(0, 100));
        assert_eq!(l, None);
        assert_eq!(r, None);
    }

    #[test]
    fn subtract_overhanging_cut_clamps() {
        let (l, r) = sp(10, 100).subtract(sp(0, 40));
        assert_eq!(l, None);
        assert_eq!(r, Some(sp(40, 100)));
    }

    #[test]
    fn contains_span_reflexive_and_strict() {
        let outer = sp(0, 100);
        assert!(outer.contains_span(outer));
        assert!(outer.contains_span(sp(10, 90)));
        assert!(!sp(10, 90).contains_span(outer));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TimePoint::new(5)), "t5");
        assert_eq!(format!("{}", TimeDelta::new(5)), "5Δ");
        assert_eq!(format!("{}", sp(1, 2)), "[1, 2)");
    }
}
