//! Cross-crate telemetry checks: the JSON snapshot exporter and the
//! workspace's JSON reader (`ompx_telemetry::json`) agree — any
//! registry's `to_json` document parses, every counter, gauge, and
//! histogram value round-trips exactly (Rust's float formatting is
//! shortest-round-trip, so `{:e}` text parses back to the same bits), and
//! label values survive whatever characters they hold.

use ompx_telemetry::json::{self, Json};
use ompx_telemetry::{to_json, MetricRegistry, MetricValue};
use proptest::prelude::*;

/// Find the parsed `metrics` entry with this name, or panic.
fn entry<'a>(metrics: &'a [Json], name: &str) -> &'a Json {
    metrics
        .iter()
        .find(|m| m.get("name").and_then(|j| j.as_str()) == Some(name))
        .unwrap_or_else(|| panic!("no metric named {name}"))
}

fn field(m: &Json, key: &str) -> f64 {
    m.get(key).and_then(|j| j.as_f64()).unwrap_or_else(|| panic!("missing field {key}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn json_snapshot_round_trips_through_the_reader(
        c in 0u64..1_000_000_000_000,
        g in -1e6f64..1e6,
        samples in proptest::collection::vec(1e-3f64..1e3, 1..120),
        tenant in 0u32..8,
    ) {
        let reg = MetricRegistry::new();
        let t = tenant.to_string();
        reg.counter_add("serve_requests_total", &[("tenant", &t)], c);
        reg.gauge_set("serve_busy_seconds", &[("member", "0")], g);
        for &s in &samples {
            reg.hist_record("serve_latency_seconds", &[("tenant", &t)], s);
        }
        let snap = reg.snapshot();
        let doc = json::parse(&to_json(&snap)).expect("snapshot JSON must parse");
        prop_assert_eq!(
            doc.get("schema").and_then(|j| j.as_str()),
            Some("ompx-metrics-v1")
        );
        let metrics = doc.get("metrics").and_then(|j| j.as_arr()).expect("metrics array");
        prop_assert_eq!(metrics.len(), snap.samples.len());

        let counter = entry(metrics, "serve_requests_total");
        prop_assert_eq!(field(counter, "value") as u64, c);
        prop_assert_eq!(
            counter.get("labels").and_then(|l| l.get("tenant")).and_then(|j| j.as_str()),
            Some(t.as_str())
        );

        let gauge = entry(metrics, "serve_busy_seconds");
        prop_assert_eq!(field(gauge, "value").to_bits(), g.to_bits());

        let hist = entry(metrics, "serve_latency_seconds");
        let h = snap
            .samples
            .iter()
            .find_map(|s| match (&s.name[..], &s.value) {
                ("serve_latency_seconds", MetricValue::Histogram(h)) => Some(h),
                _ => None,
            })
            .expect("histogram sample in snapshot");
        prop_assert_eq!(field(hist, "count") as u64, samples.len() as u64);
        prop_assert_eq!(field(hist, "sum").to_bits(), h.sum().to_bits());
        prop_assert_eq!(field(hist, "min").to_bits(), h.min().to_bits());
        prop_assert_eq!(field(hist, "max").to_bits(), h.max().to_bits());
        for (q, key) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            prop_assert_eq!(field(hist, key).to_bits(), h.quantile(q).to_bits());
        }
    }
}

#[test]
fn label_values_with_controls_quotes_and_backslashes_round_trip() {
    let nasty = "a\tb\rc\"d\\e";
    let reg = MetricRegistry::new();
    reg.counter_add("serve_requests_total", &[("tenant", nasty)], 3);
    let doc = json::parse(&to_json(&reg.snapshot())).expect("escaped labels must parse");
    let metrics = doc.get("metrics").and_then(|j| j.as_arr()).expect("metrics array");
    let counter = entry(metrics, "serve_requests_total");
    assert_eq!(
        counter.get("labels").and_then(|l| l.get("tenant")).and_then(|j| j.as_str()),
        Some(nasty)
    );
    assert_eq!(field(counter, "value"), 3.0);
}
