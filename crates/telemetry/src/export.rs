//! Byte-stable exporters: Prometheus text exposition and a JSON snapshot.
//!
//! Both exporters walk a [`Snapshot`] in its stable sorted order and use
//! fixed float formatting (`{:e}`), so two identical seeded runs render
//! bit-identical documents — the property the CI determinism leg diffs.
//! Histograms export as Prometheus *summaries*: one `quantile`-labeled
//! sample per exported quantile plus `_sum` and `_count`, which is how a
//! log-linear sketch is conventionally surfaced.

use crate::json;
use crate::registry::{MetricKind, MetricValue, Snapshot};

/// Quantiles exported per histogram series, in emission order:
/// `(quantile, Prometheus label value, JSON field name)`.
pub const EXPORT_QUANTILES: [(f64, &str, &str); 3] =
    [(0.5, "0.5", "p50"), (0.95, "0.95", "p95"), (0.99, "0.99", "p99")];

/// Escape a Prometheus label value (`\"`, `\\`, `\n`, per the text
/// exposition format). JSON goes through [`crate::json`] instead.
fn prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", prom_label_value(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render the snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, (kind, help)) in &snap.families {
        if !help.is_empty() {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        out.push_str(&format!("# TYPE {name} {}\n", kind.label()));
        for s in snap.samples.iter().filter(|s| &s.name == name) {
            match &s.value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{name}{} {c}\n", label_block(&s.labels, None)));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{name}{} {g:e}\n", label_block(&s.labels, None)));
                }
                MetricValue::Histogram(h) => {
                    for (q, tag, _) in EXPORT_QUANTILES {
                        out.push_str(&format!(
                            "{name}{} {:e}\n",
                            label_block(&s.labels, Some(("quantile", tag))),
                            h.quantile(q)
                        ));
                    }
                    let plain = label_block(&s.labels, None);
                    out.push_str(&format!("{name}_sum{plain} {:e}\n", h.sum()));
                    out.push_str(&format!("{name}_count{plain} {}\n", h.count()));
                }
            }
        }
    }
    out
}

/// Render the snapshot as the `ompx-metrics-v1` JSON document: one
/// compact row per sample in a [`json::Doc`], parseable by
/// [`json::parse`].
pub fn to_json(snap: &Snapshot) -> String {
    let rows = snap.samples.iter().map(|s| {
        let kind = snap.families.get(&s.name).map(|(k, _)| *k).unwrap_or(match &s.value {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        });
        let labels = s
            .labels
            .iter()
            .map(|(k, v)| format!("{}:{}", json::quoted(k), json::quoted(v)))
            .collect::<Vec<_>>()
            .join(",");
        let mut row = format!(
            "{{\"name\":{},\"type\":\"{}\",\"labels\":{{{labels}}},",
            json::quoted(&s.name),
            kind.label()
        );
        match &s.value {
            MetricValue::Counter(c) => row.push_str(&format!("\"value\":{c}}}")),
            MetricValue::Gauge(g) => row.push_str(&format!("\"value\":{g:e}}}")),
            MetricValue::Histogram(h) => {
                row.push_str(&format!(
                    "\"count\":{},\"sum\":{:e},\"min\":{:e},\"max\":{:e}",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                ));
                for (q, _, field) in EXPORT_QUANTILES {
                    row.push_str(&format!(",\"{field}\":{:e}", h.quantile(q)));
                }
                row.push('}');
            }
        }
        row
    });
    json::Doc::new().str("schema", "ompx-metrics-v1").rows("metrics", rows).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricRegistry;

    fn sample_registry() -> std::sync::Arc<MetricRegistry> {
        let reg = MetricRegistry::new();
        reg.describe("fault_injected_total", MetricKind::Counter, "fault episodes fired");
        reg.counter_add("serve_requests_total", &[("verdict", "success")], 7);
        reg.gauge_set("serve_queue_depth", &[("member", "0")], 3.0);
        for i in 1..=100 {
            reg.hist_record("serve_latency_seconds", &[("tenant", "0")], i as f64 * 1e-3);
        }
        reg
    }

    #[test]
    fn prometheus_text_is_stable_and_typed() {
        let reg = sample_registry();
        let a = to_prometheus(&reg.snapshot());
        let b = to_prometheus(&reg.snapshot());
        assert_eq!(a, b);
        assert!(a.contains("# HELP fault_injected_total fault episodes fired"));
        assert!(a.contains("# TYPE fault_injected_total counter"));
        assert!(a.contains("# TYPE serve_latency_seconds summary"));
        assert!(a.contains("serve_requests_total{verdict=\"success\"} 7"));
        assert!(a.contains("serve_queue_depth{member=\"0\"} 3e0"));
        assert!(a.contains("serve_latency_seconds{tenant=\"0\",quantile=\"0.99\"}"));
        assert!(a.contains("serve_latency_seconds_count{tenant=\"0\"} 100"));
    }

    #[test]
    fn json_document_is_stable_and_tagged() {
        let reg = sample_registry();
        let a = to_json(&reg.snapshot());
        assert_eq!(a, to_json(&reg.snapshot()));
        assert!(a.contains("\"schema\": \"ompx-metrics-v1\""));
        assert!(a.contains("\"name\":\"serve_requests_total\",\"type\":\"counter\""));
        assert!(a.contains("\"type\":\"summary\""));
        assert!(a.contains("\"p95\":"));
    }

    #[test]
    fn empty_families_render_headers_only() {
        let reg = MetricRegistry::new();
        reg.describe("quiet_total", MetricKind::Counter, "");
        let text = to_prometheus(&reg.snapshot());
        assert_eq!(text, "# TYPE quiet_total counter\n");
    }
}
