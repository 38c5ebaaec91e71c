//! Rendering the frozen registry: Prometheus text exposition format
//! 0.0.4 for `GET /metrics`, and an ordered JSON tree for
//! `--metrics-dump` files and `GET /healthz` payloads.
//!
//! Rendering walks the atomic cells with relaxed loads — a scrape is a
//! point-in-time sample, not a consistent snapshot, and never blocks a
//! recording thread.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Value;

use crate::registry::{MetricMeta, Registry};

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `{k="v",…}` (empty string when there are no labels), with an
/// optional extra label appended (the histogram `le`).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn render_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value}")
    }
}

/// Writes a family's `# HELP` / `# TYPE` headers when `meta` starts one,
/// so they appear once per family even when it has many label sets.
fn header<'a>(out: &mut String, prev: &mut Option<&'a str>, meta: &'a MetricMeta, kind: &str) {
    if *prev != Some(meta.name.as_str()) {
        let _ = writeln!(out, "# HELP {} {}", meta.name, meta.help);
        let _ = writeln!(out, "# TYPE {} {kind}", meta.name);
        *prev = Some(&meta.name);
    }
}

/// One metric's JSON object: its name and labels, then `fields`.
fn entry<const N: usize>(meta: &MetricMeta, fields: [(&str, Value); N]) -> Value {
    let labels = meta.labels.iter();
    let labels = labels.map(|(k, v)| (k.clone(), Value::Str(v.clone())));
    let head = [
        ("name".to_string(), Value::Str(meta.name.clone())),
        ("labels".to_string(), Value::Map(labels.collect())),
    ];
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Value::Map(head.into_iter().chain(fields).collect())
}

impl Registry {
    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per family, counter
    /// and gauge samples, and cumulative `_bucket{le=…}` / `_sum` /
    /// `_count` series per histogram.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.iter().map(|c| {
            let value = c.value.load(Ordering::Relaxed).to_string();
            (&c.meta, value)
        });
        let gauges = self.gauges.iter().map(|g| {
            let value = render_f64(f64::from_bits(g.value.load(Ordering::Relaxed)));
            (&g.meta, value)
        });
        let samples: [(&str, Vec<_>); 2] =
            [("counter", counters.collect()), ("gauge", gauges.collect())];
        for (kind, samples) in samples {
            let mut prev = None;
            for (meta, value) in samples {
                header(&mut out, &mut prev, meta, kind);
                let labels = render_labels(&meta.labels, None);
                let _ = writeln!(out, "{}{labels} {value}", meta.name);
            }
        }
        let mut prev = None;
        for h in &self.histograms {
            header(&mut out, &mut prev, &h.meta, "histogram");
            let (name, labels) = (&h.meta.name, render_labels(&h.meta.labels, None));
            let mut cumulative: u64 = 0;
            for (i, count) in h.counts.iter().enumerate() {
                cumulative = cumulative.saturating_add(count.load(Ordering::Relaxed));
                let le = h.bounds.get(i).map_or("+Inf".to_string(), u64::to_string);
                let le = render_labels(&h.meta.labels, Some(("le", &le)));
                let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
            }
            let _ = writeln!(out, "{name}_sum{labels} {}", h.sum.load(Ordering::Relaxed));
            let observations = h.observations.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_count{labels} {observations}");
        }
        out
    }

    /// Renders the registry as pretty-printed JSON:
    /// `{"counters": [...], "gauges": [...], "histograms": [...]}` with
    /// one `{name, labels, value}` object per metric.
    #[must_use]
    pub fn render_json(&self) -> String {
        let load = |cell: &AtomicU64| Value::UInt(cell.load(Ordering::Relaxed));
        let counters = self.counters.iter().map(|c| {
            let value = load(&c.value);
            entry(&c.meta, [("value", value)])
        });
        let gauges = self.gauges.iter().map(|g| {
            let value = Value::Float(f64::from_bits(g.value.load(Ordering::Relaxed)));
            entry(&g.meta, [("value", value)])
        });
        let histograms = self.histograms.iter().map(|h| {
            let bounds = h.bounds.iter().map(|&b| Value::UInt(b)).collect();
            let counts = h.counts.iter().map(load).collect();
            entry(
                &h.meta,
                [
                    ("bounds", Value::Seq(bounds)),
                    ("counts", Value::Seq(counts)),
                    ("sum", load(&h.sum)),
                    ("count", load(&h.observations)),
                ],
            )
        });
        let tree = Value::Map(vec![
            ("counters".into(), Value::Seq(counters.collect())),
            ("gauges".into(), Value::Seq(gauges.collect())),
            ("histograms".into(), Value::Seq(histograms.collect())),
        ]);
        serde_json::to_string_pretty(&tree).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{Buckets, RegistryBuilder};

    #[test]
    fn prometheus_text_covers_every_kind() {
        let mut b = RegistryBuilder::new();
        let c = b.counter_with("jobs_total", "Jobs seen", &[("shard", "0")]);
        let g = b.gauge_with("backlog", "Live backlog", &[]);
        let h = b.histogram_with(
            "lat_us",
            "Latency (µs)",
            Buckets::explicit(&[1, 10, 100]),
            &[],
        );
        let reg = b.build();
        reg.counter_add(c, 7);
        reg.gauge_set(g, 3.0);
        reg.observe(h, 5);
        reg.observe(h, 5000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total{shard=\"0\"} 7"));
        assert!(text.contains("# TYPE backlog gauge"));
        assert!(text.contains("backlog 3"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 0"));
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 5005"));
        assert!(text.contains("lat_us_count 2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut b = RegistryBuilder::new();
        let c = b.counter_with("esc_total", "escaping", &[("p", "a\"b\\c\nd")]);
        let reg = b.build();
        reg.counter_add(c, 1);
        let text = reg.render_prometheus();
        assert!(text.contains("esc_total{p=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn json_snapshot_round_trips_through_serde_json() {
        let mut b = RegistryBuilder::new();
        let c = b.counter_with("n_total", "n", &[]);
        b.histogram_with("h", "h", Buckets::pow2(1, 3), &[]);
        let reg = b.build();
        reg.counter_add(c, 3);
        let json = reg.render_json();
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let top = parsed.as_map().expect("top-level map");
        assert!(top.iter().any(|(k, _)| k == "counters"));
        assert!(top.iter().any(|(k, _)| k == "histograms"));
    }
}
