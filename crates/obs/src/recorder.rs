//! The [`Recorder`]: the registry and span tracer every layer's
//! [`Handle`](crate::Handle) records into.
//!
//! A `Recorder` is either **off** (the default) or **on**, sharing one
//! frozen [`Registry`] and one span [`Tracer`] behind an `Arc`. It is
//! runtime state: cloned and passed by value, never serialized, absent
//! from every configuration fingerprint and checkpoint. Turning it on or
//! off must therefore be invisible to any run's event log — the engine
//! A/B tests pin exactly that.

use std::sync::Arc;

use crate::registry::Registry;
use crate::trace::Tracer;

/// The span ring's capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A cheap, cloneable handle to the frozen registry and tracer — or, as
/// [`Recorder::default`], a no-op when observability is off.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<(Registry, Tracer)>>,
}

impl Recorder {
    /// Wraps a frozen registry with a span ring of the default capacity.
    #[must_use]
    pub fn new(registry: Registry) -> Recorder {
        Recorder {
            inner: Some(Arc::new((
                registry,
                Tracer::with_capacity(DEFAULT_TRACE_CAPACITY),
            ))),
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
        self.inner.as_deref().map(|(registry, _)| registry)
    }

    /// The tracer, when on.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_deref().map(|(_, tracer)| tracer)
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
        self.tracer().map(|t| t.span(time, kind, parent, items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, RegistryBuilder};

    #[test]
    fn off_recorder_is_inert() {
        let rec = Recorder::default();
        assert!(!rec.is_on());
        assert!(rec.registry().is_none());
        assert!(rec.tracer().is_none());
        assert!(rec.span(0, "cycle", None, 1).is_none());
    }

    #[test]
    fn on_recorder_records_and_shares() {
        let mut b = RegistryBuilder::new();
        let c = b.counter_with("c_total", "c", &[]);
        let h = b.histogram_with("h", "h", Buckets::pow2(1, 4), &[]);
        let rec = Recorder::new(b.build());
        let clone = rec.clone();
        rec.registry().expect("on").counter_add(c, 1);
        let shared = clone.registry().expect("on");
        shared.counter_add(c, 2);
        shared.observe(h, 3);
        let reg = rec.registry().expect("on");
        assert_eq!(reg.counter_value(c), 3);
        assert_eq!(reg.histogram_count(h), 1);
        let parent = rec.span(10, "cycle", None, 0);
        assert_eq!(parent, Some(0));
        assert_eq!(rec.tracer().expect("on").len(), 1);
    }
}
