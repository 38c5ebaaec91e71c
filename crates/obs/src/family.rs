//! A layer's metric family as one table, and the handle that records it.
//!
//! Each instrumented layer declares its family once, as an ordered slice
//! of [`Row`]s: name, help, kind and a layer-defined *source* that says
//! where the row's value comes from. [`Table::register`] registers the
//! rows in slice order (one loop, so registration order is the table's),
//! and [`Table::record`] walks them again, asking the layer what a fed
//! fact records into each series. A layer's registered ids implement
//! [`Family`], and [`Handle`] is the one recorder handle every layer
//! threads: an optional shared `(Recorder, ids)` pair, off by default.

use std::sync::Arc;

use crate::recorder::Recorder;
use crate::registry::{Buckets, CounterId, GaugeId, HistogramId, Registry, RegistryBuilder};

/// What a row registers.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A monotonic counter.
    Counter,
    /// A gauge.
    Gauge,
    /// A histogram with these buckets.
    Histogram(fn() -> Buckets),
}

/// What a fed fact does to one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Adds to a counter.
    Add(u64),
    /// Raises a counter to at least this value (a mirror of a monotone
    /// count kept elsewhere).
    RaiseTo(u64),
    /// Sets a gauge.
    Set(f64),
    /// Observes a value into a histogram this many times.
    Observe(u64, u64),
}

/// One metric of a layer's family: its name, help text and kind, the
/// label it repeats under (see [`each`](Row::each)), and where its value
/// comes from, in the layer's terms.
#[derive(Debug, Clone, Copy)]
pub struct Row<S> {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    each: Option<&'static str>,
    source: S,
}

impl<S> Row<S> {
    const fn new(kind: Kind, name: &'static str, help: &'static str, source: S) -> Row<S> {
        Row {
            name,
            help,
            kind,
            each: None,
            source,
        }
    }

    /// A counter row.
    pub const fn counter(name: &'static str, help: &'static str, source: S) -> Row<S> {
        Row::new(Kind::Counter, name, help, source)
    }

    /// A gauge row.
    pub const fn gauge(name: &'static str, help: &'static str, source: S) -> Row<S> {
        Row::new(Kind::Gauge, name, help, source)
    }

    /// A histogram row.
    pub const fn histogram(
        name: &'static str,
        help: &'static str,
        buckets: fn() -> Buckets,
        source: S,
    ) -> Row<S> {
        Row::new(Kind::Histogram(buckets), name, help, source)
    }

    /// The row with one series per value the table is registered with,
    /// under `label`.
    #[must_use]
    pub const fn each(mut self, label: &'static str) -> Row<S> {
        self.each = Some(label);
        self
    }
}

#[derive(Debug, Clone, Copy)]
enum Id {
    Counter(CounterId),
    Gauge(GaugeId),
    Histogram(HistogramId),
}

/// A registered table: every series of every row, in registration order.
#[derive(Debug)]
pub struct Table<S: 'static> {
    /// The row, the series' position among the row's series, its id.
    series: Vec<(&'static Row<S>, usize, Id)>,
}

impl<S> Table<S> {
    /// Registers `rows` in order, every series under `labels` first; a
    /// row with an [`each`](Row::each) label registers one series per
    /// value of `each`, labelled with it.
    pub fn register(
        b: &mut RegistryBuilder,
        rows: &'static [Row<S>],
        labels: &[(&str, &str)],
        each: &[&str],
    ) -> Table<S> {
        let mut series = Vec::new();
        for row in rows {
            let values = match row.each {
                Some(label) => each.iter().map(|&value| Some((label, value))).collect(),
                None => vec![None],
            };
            for (index, extra) in values.into_iter().enumerate() {
                let labels = [labels, extra.as_slice()].concat();
                let id = match row.kind {
                    Kind::Counter => Id::Counter(b.counter_with(row.name, row.help, &labels)),
                    Kind::Gauge => Id::Gauge(b.gauge_with(row.name, row.help, &labels)),
                    Kind::Histogram(buckets) => {
                        Id::Histogram(b.histogram_with(row.name, row.help, buckets(), &labels))
                    }
                };
                series.push((row, index, id));
            }
        }
        Table { series }
    }

    /// Records into every series what `value` gives its row's source and
    /// the series' position; `None` leaves the series as it is.
    ///
    /// # Panics
    ///
    /// When a value does not fit the row's kind (a table bug).
    pub fn record(&self, rec: &Recorder, value: impl Fn(&S, usize) -> Option<Value>) {
        let Some(reg) = rec.registry() else {
            return;
        };
        for &(row, index, id) in &self.series {
            match (id, value(&row.source, index)) {
                (_, None) => {}
                (Id::Counter(id), Some(Value::Add(v))) => reg.counter_add(id, v),
                (Id::Counter(id), Some(Value::RaiseTo(v))) => reg.counter_raise_to(id, v),
                (Id::Gauge(id), Some(Value::Set(v))) => reg.gauge_set(id, v),
                (Id::Histogram(id), Some(Value::Observe(v, times))) => {
                    (0..times).for_each(|_| reg.observe(id, v));
                }
                (_, Some(v)) => panic!("{v:?} does not fit {}'s kind", row.name),
            }
        }
    }

    /// The sum of every counter and gauge series whose source `pick`
    /// selects.
    pub fn sum(&self, reg: &Registry, pick: impl Fn(&S) -> bool) -> f64 {
        let value = |id| match id {
            Id::Counter(id) => reg.counter_value(id) as f64,
            Id::Gauge(id) => reg.gauge_value(id),
            Id::Histogram(_) => 0.0,
        };
        let picked = self.series.iter().filter(|(row, _, _)| pick(&row.source));
        picked.map(|&(_, _, id)| value(id)).sum()
    }
}

/// A layer's registered ids: what one fact the layer feeds records.
pub trait Family {
    /// What the layer feeds its handle.
    type Fact<'a>;

    /// Records `fact`; called only while recording is on.
    fn record(&self, rec: &Recorder, fact: Self::Fact<'_>);
}

/// A layer's recorder handle: runtime state, never serialized, absent
/// from configuration fingerprints and checkpoints, cheap to clone, and
/// a no-op when off (the default).
#[derive(Debug)]
pub struct Handle<F> {
    inner: Option<Arc<(Recorder, F)>>,
}

impl<F> Clone for Handle<F> {
    fn clone(&self) -> Self {
        Handle {
            inner: self.inner.clone(),
        }
    }
}

impl<F> Default for Handle<F> {
    fn default() -> Self {
        Handle { inner: None }
    }
}

impl<F> Handle<F> {
    /// The disabled handle; every call is a no-op.
    #[must_use]
    pub fn off() -> Self {
        Handle::default()
    }

    /// Binds registered ids to a recorder; off when the recorder is.
    #[must_use]
    pub fn new(rec: Recorder, ids: F) -> Self {
        Handle {
            inner: rec.is_on().then(|| Arc::new((rec, ids))),
        }
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying recorder, when on.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_deref().map(|(rec, _)| rec)
    }

    /// The registered ids, when on.
    #[must_use]
    pub fn ids(&self) -> Option<&F> {
        self.inner.as_deref().map(|(_, ids)| ids)
    }
}

impl<F: Family> Handle<F> {
    /// Records one fact (a no-op when off).
    pub fn feed(&self, fact: F::Fact<'_>) {
        if let Some((rec, ids)) = self.inner.as_deref() {
            ids.record(rec, fact);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Source {
        Hits,
        Depth,
        Lat,
    }

    const ROWS: &[Row<Source>] = &[
        Row::counter("hits_total", "hits", Source::Hits).each("shard"),
        Row::histogram("lat", "lat", || Buckets::pow2(1, 4), Source::Lat),
        Row::gauge("depth", "depth", Source::Depth),
    ];

    struct Ids(Table<Source>);

    impl Family for Ids {
        type Fact<'a> = (usize, u64);

        fn record(&self, rec: &Recorder, (shard, hits): (usize, u64)) {
            self.0.record(rec, |source, index| match source {
                Source::Hits => (index == shard).then_some(Value::Add(hits)),
                Source::Depth => Some(Value::Set(hits as f64)),
                Source::Lat => Some(Value::Observe(hits, 2)),
            });
        }
    }

    #[test]
    fn a_table_registers_in_order_and_records_per_series() {
        let mut b = RegistryBuilder::new();
        let ids = Ids(Table::register(&mut b, ROWS, &[("vo", "a")], &["0", "1"]));
        let handle = Handle::new(Recorder::new(b.build()), ids);
        handle.feed((1, 3));
        handle.feed((1, 4));
        let reg = handle.recorder().and_then(Recorder::registry).expect("on");
        let hits = |shard| {
            let id = reg.find_counter("hits_total", &[("vo", "a"), ("shard", shard)]);
            reg.counter_value(id.expect("registered"))
        };
        assert_eq!((hits("0"), hits("1")), (0, 7));
        let ids = handle.ids().expect("on");
        assert_eq!(ids.0.sum(reg, |s| *s == Source::Hits), 7.0);
        assert_eq!(ids.0.sum(reg, |s| *s == Source::Depth), 4.0);
        let lat = reg
            .find_histogram("lat", &[("vo", "a")])
            .expect("registered");
        assert_eq!(reg.histogram_count(lat), 4);
        let text = reg.render_prometheus();
        let first = |name: &str| text.find(name).expect("rendered");
        assert!(
            first("hits_total{vo=\"a\",shard=\"0\"}") < first("hits_total{vo=\"a\",shard=\"1\"}")
        );
    }

    #[test]
    fn an_off_handle_feeds_nothing() {
        let handle: Handle<Ids> = Handle::off();
        assert!(!handle.is_on() && handle.recorder().is_none() && handle.ids().is_none());
        handle.feed((0, 1));
        let mut b = RegistryBuilder::new();
        let ids = Ids(Table::register(&mut b, ROWS, &[], &[]));
        assert!(!Handle::new(Recorder::default(), ids).is_on());
    }
}
