//! # ompx-telemetry — deterministic metrics for the serving stack
//!
//! Production serving is flown on metrics: per-tenant latency
//! distributions, queue and batch health, fault and fallback rates. This
//! crate is the one telemetry layer the whole workspace records into — a
//! [`MetricRegistry`] of labeled counters, gauges, and log-linear
//! histograms ([`hist`]), with two byte-stable exporters ([`export`]):
//! Prometheus text exposition and a JSON snapshot. As the workspace's
//! base crate it also owns the one JSON module ([`json`]) every
//! artifact writer, reader and baseline gate goes through.
//!
//! **Determinism is the contract.** Metrics measure *modeled* time and
//! seeded event streams, series iterate in sorted `(name, labels)` order,
//! and float formatting is fixed — so two identical seeded runs produce
//! bit-identical snapshots, which CI diffs directly. A metric here is as
//! reproducible as a checksum.
//!
//! Attachment follows the ambient pattern the sanitizer, memory trace,
//! span log and fault state established: a harness installs a registry
//! process-wide ([`install`]); while one is active, the substrate and the
//! serving layer record into it ([`active`]); with none installed the
//! hooks pay one relaxed atomic load. `ompx-hecbench`'s `ChaosSession`
//! installs a fresh registry per session, so every chaos and serve run is
//! metered without further wiring.
//!
//! Family naming: `sim_*` (launches, memcpys), `fault_*` (injections and
//! recoveries by kind/site), `sanitizer_findings_total` / `findings_total`
//! (findings by tool and severity), `serve_*` (queue, batching,
//! backpressure, per-tenant latency), `resilience_*` (breaker
//! transitions, hedges, spare promotions, deadline misses, brownout
//! shedding). [`describe_base_families`]
//! pre-declares all of them so a snapshot always shows the full surface,
//! including families that stayed at rest.

pub mod export;
pub mod hist;
pub mod json;
pub mod percentile;
pub mod registry;

pub use export::{to_json, to_prometheus};
pub use hist::{LogLinearHistogram, DEFAULT_REL_ERR};
pub use percentile::percentile_interp;
pub use registry::{Labels, MetricKind, MetricRegistry, MetricValue, Sample, Snapshot};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cheap gate so un-metered runs pay one atomic load per hook.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE_REGISTRY: Mutex<Option<Arc<MetricRegistry>>> = Mutex::new(None);

/// The process-wide registry a harness installed, if any.
pub fn active() -> Option<Arc<MetricRegistry>> {
    if !METRICS_ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    ACTIVE_REGISTRY.lock().clone()
}

/// Install `reg` as the process-wide active registry. Returns the
/// previously installed registry, if any (callers are expected to
/// serialize metered runs, as `ompx-hecbench`'s session gate does).
pub fn install(reg: Arc<MetricRegistry>) -> Option<Arc<MetricRegistry>> {
    let prev = ACTIVE_REGISTRY.lock().replace(reg);
    METRICS_ENABLED.store(true, Ordering::Relaxed);
    prev
}

/// Remove and return the active registry.
pub fn uninstall() -> Option<Arc<MetricRegistry>> {
    METRICS_ENABLED.store(false, Ordering::Relaxed);
    ACTIVE_REGISTRY.lock().take()
}

/// Pre-declare every metric family the stack records, so exporters emit
/// the full surface (with `HELP`/`TYPE` headers) even for families a
/// particular run never touched — a fault-free serve snapshot still shows
/// the fault and sanitizer families at rest.
pub fn describe_base_families(reg: &MetricRegistry) {
    use MetricKind::{Counter, Gauge, Histogram};
    for (name, kind, help) in [
        ("sim_launches_total", Counter, "kernel launches executed by the simulator"),
        ("sim_launch_faults_total", Counter, "kernel launches failed by injection"),
        ("sim_memcpys_total", Counter, "memory transfers by direction"),
        ("sim_memcpy_bytes_total", Counter, "bytes moved by direction"),
        ("fault_injected_total", Counter, "fault episodes fired, by kind and site"),
        ("fault_recovered_total", Counter, "operations that failed then succeeded on retry"),
        ("fault_fallbacks_total", Counter, "target regions re-dispatched through host fallback"),
        ("fault_degraded_total", Counter, "operations completed unchecked past injection"),
        ("fault_sticky_total", Counter, "errors recorded as sticky device state"),
        ("sanitizer_findings_total", Counter, "dynamic sanitizer findings, by tool"),
        ("findings_total", Counter, "reported findings, by tool and severity"),
        ("serve_requests_total", Counter, "serve responses, by verdict, app, and version"),
        ("serve_shed_total", Counter, "requests shed by backpressure, by tenant"),
        ("serve_rehomed_total", Counter, "requests re-homed off a lost member"),
        ("serve_batches_total", Counter, "batches dispatched, by member and device kind"),
        ("serve_queue_depth", Gauge, "queued requests per member, as of last event"),
        ("serve_queue_depth_peak", Gauge, "high-water mark of the total backlog"),
        ("serve_busy_seconds", Gauge, "accumulated modeled busy seconds per member"),
        ("serve_batch_occupancy", Histogram, "requests coalesced per dispatched batch"),
        ("serve_latency_seconds", Histogram, "modeled request latency, by tenant"),
        ("serve_service_seconds", Histogram, "modeled batch service time, by app"),
        (
            "resilience_breaker_transitions_total",
            Counter,
            "circuit-breaker state changes, by member and edge",
        ),
        ("resilience_hedges_total", Counter, "hedged re-dispatches, by app and outcome"),
        ("resilience_spare_promotions_total", Counter, "warm spares promoted into the serving set"),
        (
            "resilience_deadline_miss_total",
            Counter,
            "completed requests that missed their deadline, by class",
        ),
        ("resilience_shed_total", Counter, "requests shed by the brownout ladder, by class"),
    ] {
        reg.describe(name, kind, help);
    }
}

/// Run `f` with a fresh registry installed, returning its result and the
/// snapshot. Test helper; does **not** hold the cross-harness run gate
/// (use `ompx-hecbench`'s session types for that).
pub fn with_metrics<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let reg = MetricRegistry::new();
    describe_base_families(&reg);
    let prev = install(Arc::clone(&reg));
    /// Uninstalls the ambient registry even if `f` panics.
    struct Uninstall(Option<Arc<MetricRegistry>>);
    impl Drop for Uninstall {
        fn drop(&mut self) {
            uninstall();
            if let Some(prev) = self.0.take() {
                install(prev);
            }
        }
    }
    let _guard = Uninstall(prev);
    let result = f();
    (result, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_gates_the_ambient_hook() {
        let reg = MetricRegistry::new();
        let prev = install(Arc::clone(&reg));
        assert!(active().is_some());
        active().unwrap().counter_add("x_total", &[], 1);
        let got = uninstall().expect("a registry was installed");
        assert_eq!(got.snapshot().counter("x_total", &[]), 1);
        if let Some(p) = prev {
            install(p);
        }
    }

    #[test]
    fn with_metrics_scopes_a_fresh_registry() {
        let ((), snap) = with_metrics(|| {
            if let Some(reg) = active() {
                reg.counter_add("scoped_total", &[("k", "v")], 3);
            }
        });
        assert_eq!(snap.counter("scoped_total", &[("k", "v")]), 3);
        // Base families are pre-declared even though nothing recorded them.
        assert!(snap.families.contains_key("fault_injected_total"));
        assert!(snap.families.contains_key("serve_latency_seconds"));
    }

    #[test]
    fn base_families_render_in_both_exporters() {
        let reg = MetricRegistry::new();
        describe_base_families(&reg);
        let snap = reg.snapshot();
        let prom = to_prometheus(&snap);
        for family in [
            "sim_launches_total",
            "fault_injected_total",
            "sanitizer_findings_total",
            "serve_latency_seconds",
        ] {
            assert!(prom.contains(&format!("# TYPE {family}")), "missing {family}");
        }
        assert!(to_json(&snap).contains("\"schema\": \"ompx-metrics-v1\""));
    }
}
