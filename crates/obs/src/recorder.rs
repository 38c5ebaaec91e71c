//! The [`Recorder`] handle: the one observability object threaded
//! through the stack.
//!
//! A `Recorder` is either **off** (the default — every operation is a
//! no-op behind one branch on an `Option`) or **on**, wrapping an
//! `Arc<Registry>` plus a span [`Tracer`]. It is runtime state: cloned and
//! passed by value, never serialized, absent from every configuration
//! fingerprint and checkpoint. Turning it on or off must therefore be
//! invisible to any run's event log — the engine A/B tests pin exactly
//! that.

use std::sync::Arc;

use crate::registry::{CounterId, GaugeId, HistogramId, Registry};
use crate::trace::Tracer;

/// Default span-ring capacity when none is given.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Inner {
    registry: Registry,
    tracer: Tracer,
}

/// A cheap, cloneable handle to the frozen registry and tracer — or a
/// no-op when observability is off.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The disabled recorder: every operation is a no-op.
    #[must_use]
    pub fn off() -> Recorder {
        Recorder { inner: None }
    }

    /// Wraps a frozen registry with the default trace capacity.
    #[must_use]
    pub fn new(registry: Registry) -> Recorder {
        Recorder::with_trace_capacity(registry, DEFAULT_TRACE_CAPACITY)
    }

    /// Wraps a frozen registry with an explicit span-ring capacity.
    #[must_use]
    pub fn with_trace_capacity(registry: Registry, capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                registry,
                tracer: Tracer::with_capacity(capacity),
            })),
        }
    }

    /// Whether recording is enabled.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry, when on — for rendering and tests.
    #[must_use]
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The tracer, when on.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_deref().map(|i| &i.tracer)
    }

    /// Adds to a counter (no-op when off).
    pub fn add(&self, id: CounterId, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(id, delta);
        }
    }

    /// Increments a counter (no-op when off).
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Raises a counter to at least `value` (no-op when off).
    pub fn raise_to(&self, id: CounterId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_raise_to(id, value);
        }
    }

    /// Sets a gauge (no-op when off).
    pub fn set(&self, id: GaugeId, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(id, value);
        }
    }

    /// Observes a histogram value (no-op when off).
    pub fn observe(&self, id: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(id, value);
        }
    }

    /// Records a span keyed on virtual time; returns its id, or `None`
    /// when off.
    pub fn span(
        &self,
        time: i64,
        kind: &'static str,
        parent: Option<u64>,
        items: u64,
    ) -> Option<u64> {
        self.inner
            .as_deref()
            .map(|i| i.tracer.span(time, kind, parent, items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, RegistryBuilder};

    #[test]
    fn off_recorder_is_inert() {
        let rec = Recorder::off();
        assert!(!rec.is_on());
        assert!(rec.registry().is_none());
        assert!(rec.span(0, "cycle", None, 1).is_none());
        // No panic on any op with arbitrary ids.
        rec.inc(CounterId(7));
        rec.set(GaugeId(7), 1.0);
        rec.observe(HistogramId(7), 1);
    }

    #[test]
    fn on_recorder_records_and_shares() {
        let mut b = RegistryBuilder::new();
        let c = b.counter("c_total", "c");
        let h = b.histogram("h", "h", Buckets::pow2(1, 4));
        let rec = Recorder::new(b.build());
        let clone = rec.clone();
        rec.inc(c);
        clone.add(c, 2);
        clone.observe(h, 3);
        let reg = rec.registry().expect("on");
        assert_eq!(reg.counter_value(c), 3);
        assert_eq!(reg.histogram_count(h), 1);
        let parent = rec.span(10, "cycle", None, 0);
        assert_eq!(parent, Some(0));
        assert_eq!(rec.tracer().expect("on").len(), 1);
    }
}
