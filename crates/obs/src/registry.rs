//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Two phases, by design:
//!
//! 1. **Registration** (startup, single-threaded): a [`RegistryBuilder`]
//!    hands out typed index ids ([`CounterId`], [`GaugeId`],
//!    [`HistogramId`]) for every metric the process will ever record.
//! 2. **Recording** (hot path, any thread): the frozen [`Registry`] is
//!    addressed by those ids only — every operation is a single atomic
//!    on a pre-allocated cell. No locks, no allocation, no hashing, no
//!    wall-clock reads.
//!
//! Counters saturate at `u64::MAX` instead of wrapping, so a scrape can
//! never observe a monotonic series going backwards. Gauges store `f64`
//! bits in an `AtomicU64`. Histograms use caller-chosen fixed bucket
//! bounds (typically [`Buckets::pow2`], log-scale) plus an implicit
//! `+Inf` bucket, and expose cumulative counts in the Prometheus text
//! format.

use std::sync::atomic::{AtomicU64, Ordering};

/// Index of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Index of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Index of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub(crate) u32);

/// Immutable metadata shared by every metric kind.
#[derive(Debug, Clone)]
pub(crate) struct MetricMeta {
    pub(crate) name: String,
    pub(crate) help: String,
    /// Label pairs, already rendered in registration order.
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricMeta {
    fn new(name: &str, help: &str, labels: &[(&str, &str)]) -> MetricMeta {
        MetricMeta {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

#[derive(Debug)]
pub(crate) struct CounterCell {
    pub(crate) meta: MetricMeta,
    pub(crate) value: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct GaugeCell {
    pub(crate) meta: MetricMeta,
    /// `f64` bits.
    pub(crate) value: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    pub(crate) meta: MetricMeta,
    /// Upper bounds of the finite buckets, strictly increasing.
    pub(crate) bounds: Vec<u64>,
    /// One count per finite bucket plus the trailing `+Inf` bucket.
    pub(crate) counts: Vec<AtomicU64>,
    /// Saturating sum of every observed value.
    pub(crate) sum: AtomicU64,
    /// Total number of observations (saturating).
    pub(crate) observations: AtomicU64,
}

/// Fixed histogram bucket bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buckets {
    bounds: Vec<u64>,
}

impl Buckets {
    /// Explicit upper bounds; must be non-empty and strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics (at registration time, never on the hot path) when the
    /// bounds are empty or not strictly increasing.
    #[must_use]
    pub fn explicit(bounds: &[u64]) -> Buckets {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Buckets {
            bounds: bounds.to_vec(),
        }
    }

    /// Power-of-two bounds `first, 2·first, 4·first, …` — `count` finite
    /// buckets of log-scale resolution (the usual latency shape).
    ///
    /// # Panics
    ///
    /// Panics when `first` is zero, `count` is zero, or the series would
    /// overflow `u64`.
    #[must_use]
    pub fn pow2(first: u64, count: usize) -> Buckets {
        assert!(first > 0 && count > 0, "pow2 buckets need first>0, count>0");
        let mut bounds = Vec::with_capacity(count);
        let mut bound = first;
        for i in 0..count {
            bounds.push(bound);
            if i + 1 < count {
                bound = bound.checked_mul(2).expect("pow2 bucket bound overflow");
            }
        }
        Buckets { bounds }
    }
}

/// The startup-time, mutable half of the registry.
#[derive(Debug, Default)]
pub struct RegistryBuilder(Registry);

impl RegistryBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> RegistryBuilder {
        RegistryBuilder::default()
    }

    /// Registers a monotonic counter. Registering the same
    /// `(name, labels)` twice returns the existing id.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(intern(
            &mut self.0.counters,
            |c| &c.meta,
            (name, help, labels),
            |meta| CounterCell {
                meta,
                value: AtomicU64::new(0),
            },
        ))
    }

    /// Registers a gauge, likewise.
    pub fn gauge_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(intern(
            &mut self.0.gauges,
            |g| &g.meta,
            (name, help, labels),
            |meta| GaugeCell {
                meta,
                value: AtomicU64::new(0f64.to_bits()),
            },
        ))
    }

    /// Registers a histogram, likewise (the first registration's buckets
    /// win).
    pub fn histogram_with(
        &mut self,
        name: &str,
        help: &str,
        buckets: Buckets,
        labels: &[(&str, &str)],
    ) -> HistogramId {
        HistogramId(intern(
            &mut self.0.histograms,
            |h| &h.meta,
            (name, help, labels),
            |meta| HistogramCell {
                meta,
                counts: (0..=buckets.bounds.len())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                bounds: buckets.bounds,
                sum: AtomicU64::new(0),
                observations: AtomicU64::new(0),
            },
        ))
    }

    /// Freezes the builder into an index-addressed [`Registry`].
    #[must_use]
    pub fn build(self) -> Registry {
        self.0
    }
}

/// The index of the cell registered under `name` and `labels`, made by
/// `cell` when there is none yet.
fn intern<C>(
    cells: &mut Vec<C>,
    key: fn(&C) -> &MetricMeta,
    (name, help, labels): (&str, &str, &[(&str, &str)]),
    cell: impl FnOnce(MetricMeta) -> C,
) -> u32 {
    find(cells, key, name, labels).unwrap_or_else(|| {
        cells.push(cell(MetricMeta::new(name, help, labels)));
        (cells.len() - 1) as u32
    })
}

/// The frozen, lock-free registry. Recording is index-addressed: every
/// operation is one atomic on a cell allocated at registration time.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) counters: Vec<CounterCell>,
    pub(crate) gauges: Vec<GaugeCell>,
    pub(crate) histograms: Vec<HistogramCell>,
}

fn saturating_fetch_add(cell: &AtomicU64, delta: u64) {
    if delta == 0 {
        return;
    }
    // fetch_update never fails with a `Some`-returning closure; the
    // saturation keeps monotonic series monotonic under any overflow.
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(delta))
    });
}

impl Registry {
    /// Adds `delta` to a counter (saturating).
    pub fn counter_add(&self, id: CounterId, delta: u64) {
        saturating_fetch_add(&self.counters[id.0 as usize].value, delta);
    }

    /// Raises a counter to `value` if it is currently lower — the mirror
    /// operation for monotone sources of truth kept elsewhere (e.g. the
    /// federation's checkpointed routing counters).
    pub fn counter_raise_to(&self, id: CounterId, value: u64) {
        self.counters[id.0 as usize]
            .value
            .fetch_max(value, Ordering::Relaxed);
    }

    /// The current counter value.
    #[must_use]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].value.load(Ordering::Relaxed)
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, id: GaugeId, value: f64) {
        self.gauges[id.0 as usize]
            .value
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current gauge value.
    #[must_use]
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        f64::from_bits(self.gauges[id.0 as usize].value.load(Ordering::Relaxed))
    }

    /// Records one observation. Values above the last finite bound land
    /// in the `+Inf` bucket; values at or below the first bound land in
    /// the first.
    pub fn observe(&self, id: HistogramId, value: u64) {
        let h = &self.histograms[id.0 as usize];
        // Linear probe: bucket counts are small (≤ a few dozen) and the
        // branch predictor does better than a binary search here.
        let idx = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        saturating_fetch_add(&h.counts[idx], 1);
        saturating_fetch_add(&h.sum, value);
        saturating_fetch_add(&h.observations, 1);
    }

    /// Total observations recorded into a histogram.
    #[must_use]
    pub fn histogram_count(&self, id: HistogramId) -> u64 {
        self.histograms[id.0 as usize]
            .observations
            .load(Ordering::Relaxed)
    }

    /// Saturating sum of every value observed into a histogram.
    #[must_use]
    pub fn histogram_sum(&self, id: HistogramId) -> u64 {
        self.histograms[id.0 as usize].sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    #[must_use]
    pub fn histogram_buckets(&self, id: HistogramId) -> Vec<u64> {
        self.histograms[id.0 as usize]
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Looks a counter up by `(name, labels)` — registration-time and
    /// test convenience, not a hot path.
    #[must_use]
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<CounterId> {
        find(&self.counters, |c| &c.meta, name, labels).map(CounterId)
    }

    /// Looks a gauge up by `(name, labels)`.
    #[must_use]
    pub fn find_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<GaugeId> {
        find(&self.gauges, |g| &g.meta, name, labels).map(GaugeId)
    }

    /// Looks a histogram up by `(name, labels)`.
    #[must_use]
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramId> {
        find(&self.histograms, |h| &h.meta, name, labels).map(HistogramId)
    }
}

fn find<C>(
    cells: &[C],
    key: fn(&C) -> &MetricMeta,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<u32> {
    let index = cells
        .iter()
        .position(|c| meta_matches(key(c), name, labels));
    index.map(|i| i as u32)
}

fn meta_matches(meta: &MetricMeta, name: &str, labels: &[(&str, &str)]) -> bool {
    meta.name == name
        && meta.labels.len() == labels.len()
        && meta
            .labels
            .iter()
            .zip(labels)
            .all(|((k, v), (lk, lv))| k == lk && v == lv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut b = RegistryBuilder::new();
        let a = b.counter_with("x_total", "x", &[]);
        let c = b.counter_with("x_total", "x", &[]);
        assert_eq!(a, c);
        let l1 = b.counter_with("y_total", "y", &[("shard", "0")]);
        let l2 = b.counter_with("y_total", "y", &[("shard", "1")]);
        assert_ne!(l1, l2);
        assert_eq!(l1, b.counter_with("y_total", "y", &[("shard", "0")]));
    }

    #[test]
    fn counters_saturate() {
        let mut b = RegistryBuilder::new();
        let id = b.counter_with("sat_total", "saturating", &[]);
        let reg = b.build();
        reg.counter_add(id, u64::MAX - 1);
        reg.counter_add(id, 5);
        assert_eq!(reg.counter_value(id), u64::MAX);
        reg.counter_add(id, 1);
        assert_eq!(reg.counter_value(id), u64::MAX);
    }

    #[test]
    fn counter_raise_to_is_monotone() {
        let mut b = RegistryBuilder::new();
        let id = b.counter_with("mono_total", "monotone mirror", &[]);
        let reg = b.build();
        reg.counter_raise_to(id, 10);
        reg.counter_raise_to(id, 7);
        assert_eq!(reg.counter_value(id), 10);
        reg.counter_raise_to(id, 12);
        assert_eq!(reg.counter_value(id), 12);
    }

    #[test]
    fn gauges_hold_floats() {
        let mut b = RegistryBuilder::new();
        let id = b.gauge_with("g", "gauge", &[]);
        let reg = b.build();
        reg.gauge_set(id, 1.25);
        assert!((reg.gauge_value(id) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn lookup_by_name_and_labels() {
        let mut b = RegistryBuilder::new();
        let c = b.counter_with("a_total", "a", &[("k", "v")]);
        let g = b.gauge_with("b", "b", &[]);
        let h = b.histogram_with("c", "c", Buckets::pow2(1, 4), &[]);
        let reg = b.build();
        assert_eq!(reg.find_counter("a_total", &[("k", "v")]), Some(c));
        assert_eq!(reg.find_counter("a_total", &[]), None);
        assert_eq!(reg.find_gauge("b", &[]), Some(g));
        assert_eq!(reg.find_histogram("c", &[]), Some(h));
    }
}
