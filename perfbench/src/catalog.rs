//! Every metric the benchmark reports: its unit, which direction is
//! better, the layer it measures, and which end-to-end metric it should
//! move on which workload. `BENCHMARK.json` at the repository root lists
//! the gated subset with the same names and units.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    /// For an end-to-end metric, where it applies; for a per-layer metric,
    /// the end-to-end metric and workload it should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    note: &'static str,
) -> Metric {
    Metric { name, unit, better, layer, note }
}

/// End-to-end metrics every workload reports with `--trace 0`; each has
/// a regression bound in `BENCHMARK.json`.
pub const GATED: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "lower",
        "all",
        "median of cold set-ups: input generation, lazy init, first pass",
    ),
    m("iter_s_p50", "s", "lower", "all", "median host seconds per pass over the inputs"),
    m(
        "iter_s_tail",
        "s",
        "lower",
        "all",
        "highest percentile with 10 passes beyond it; the median below 21 passes",
    ),
    m("peak_rss_mb", "MiB", "lower", "all", "process high-water resident memory"),
    m(
        "modeled_s_geomean",
        "model_s",
        "lower",
        "sim.timing",
        "geomean modeled seconds per cell (sim, tools) or per completed request (serve)",
    ),
];

/// End-to-end results printed and written to the report file where they
/// apply. They are not in the gated set because they are zero on every
/// passing run (`error_frac`) or undefined on some workloads.
pub const REPORTED: &[Metric] = &[
    m("error_frac", "ratio", "lower", "all", "failed / attempted; also the result line's failed and attempted"),
    m("fig8_err", "ratio", "lower", "sim.timing", "sim workloads; in-sample (CALIBRATION.md tuned on these bars): a regression guard, not validation"),
    m("serve_slo_frac.lf0.5", "ratio", "higher", "serve", "serve-mixed"),
    m("serve_slo_frac.lf1.3", "ratio", "higher", "serve", "serve-mixed"),
    m("serve_goodput_rps.lf1.3", "1/model_s", "higher", "serve", "serve-mixed"),
    m("serve_latency_p50_s.lf0.5", "model_s", "lower", "serve", "serve-mixed"),
    m("serve_latency_tail_s.lf0.5", "model_s", "lower", "serve", "serve-mixed"),
    m("serve_latency_p50_s.lf1.3", "model_s", "lower", "serve", "serve-mixed"),
    m("serve_latency_tail_s.lf1.3", "model_s", "lower", "serve", "serve-mixed"),
];

const SIM_BOTH: &str = "iter_s_p50 on sim-flat and sim-tiled";
const FLAT: &str = "iter_s_p50 on sim-flat; a pipeline refactor must leave it unchanged";
const TILED: &str = "iter_s_p50 on sim-tiled";
const TEAM: &str = "iter_s_p50 on sim-tiled; no change predicted on sim-flat";
const MODEL: &str = "modeled_s_geomean and fig8_err on sim-flat and sim-tiled";
const TOOLS: &str = "iter_s_p50 and peak_rss_mb on tools-attached";
const RESILIENCE: &str = "error_frac on serve-mixed";

/// Per-layer metrics reported with `--trace 1`. A layer idle on a
/// workload reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("rt.ompx.host_s", "s", "lower", "ompx", SIM_BOTH),
    m("rt.omp.host_s", "s", "lower", "hostrt+devicert", "iter_s_p50 on sim-flat"),
    m("rt.native.host_s", "s", "lower", "klang", SIM_BOTH),
    m("rt.vendor.host_s", "s", "lower", "klang", SIM_BOTH),
    m("cell.stencil.ompx.host_s", "s", "lower", "hecbench", TILED),
    m("cell.stencil.cuda.host_s", "s", "lower", "hecbench", TILED),
    m("cell.stencil.cuda-nvcc.host_s", "s", "lower", "hecbench", TILED),
    m("cell.aidw.ompx.host_s", "s", "lower", "hecbench", TILED),
    m("cell.aidw.cuda.host_s", "s", "lower", "hecbench", TILED),
    m("cell.aidw.cuda-nvcc.host_s", "s", "lower", "hecbench", TILED),
    m("rt.launches", "count", "lower", "hecbench", FLAT),
    m("rt.memcpys", "count", "lower", "hecbench", FLAT),
    m("rt.memcpy_bytes", "bytes", "lower", "hecbench", FLAT),
    m("rt.tasks", "count", "lower", "hostrt", FLAT),
    m("rt.syncs", "count", "lower", "hostrt", FLAT),
    m("rt.host_us_per_launch", "us", "lower", "hecbench", "iter_s_p50 on sim-flat"),
    m("sim.serial.ns_per_thread", "ns", "lower", "sim.exec.serial", "iter_s_p50 on sim-flat"),
    m("sim.launch_us", "us", "lower", "sim.exec", "iter_s_p50 on sim-flat"),
    m("sim.team.ns_per_thread", "ns", "lower", "sim.exec.team", TEAM),
    m("sim.team.ns_per_barrier", "ns", "lower", "sim.barrier", TEAM),
    m("model.t_launch_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_mode_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_bandwidth_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_latency_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_compute_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_shared_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_barrier_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.t_serial_s", "model_s", "lower", "sim.timing", MODEL),
    m("model.occupancy_mean", "ratio", "higher", "sim.timing", MODEL),
    m("model.host_ns_per_call", "ns", "lower", "sim.timing", "iter_s_p50 on sim-flat"),
    m("san.host_s", "s", "lower", "sanitizer+sim.san", TOOLS),
    m("san.findings", "count", "lower", "sanitizer+sim.san", "error_frac on tools-attached"),
    m("memtrace.events", "count", "lower", "sim.memtrace", TOOLS),
    m("memtrace.barrier_events", "count", "lower", "sim.memtrace", TOOLS),
    m("memtrace.host_ns_per_event", "ns", "lower", "sim.memtrace", TOOLS),
    m("analyzer.extract_host_s", "s", "lower", "analyzer", TOOLS),
    m("tools.overhead_ratio", "ratio", "lower", "sanitizer+sim.san", TOOLS),
    m(
        "serve.shed_frac.interactive",
        "ratio",
        "lower",
        "serve.admission",
        "serve_slo_frac.* on serve-mixed",
    ),
    m(
        "serve.shed_frac.batch",
        "ratio",
        "lower",
        "serve.admission",
        "serve_slo_frac.* on serve-mixed",
    ),
    m(
        "serve.shed_frac.best_effort",
        "ratio",
        "lower",
        "serve.admission",
        "serve_slo_frac.* on serve-mixed",
    ),
    m(
        "serve.queue_wait_p50_s",
        "model_s",
        "lower",
        "serve.queueing",
        "serve_latency_* on serve-mixed",
    ),
    m(
        "serve.queue_wait_tail_s",
        "model_s",
        "lower",
        "serve.queueing",
        "serve_latency_* on serve-mixed",
    ),
    m(
        "serve.batches",
        "count",
        "lower",
        "serve.batching",
        "serve_goodput_rps.lf1.3 on serve-mixed",
    ),
    m(
        "serve.batch_mean",
        "req/batch",
        "higher",
        "serve.batching",
        "serve_goodput_rps.lf1.3 on serve-mixed",
    ),
    m(
        "serve.service_p50_s",
        "model_s",
        "lower",
        "serve.device",
        "serve_slo_frac.lf0.5 and latency tails on serve-mixed",
    ),
    m(
        "serve.busy_skew",
        "ratio",
        "lower",
        "serve.device",
        "serve_slo_frac.lf0.5 and latency tails on serve-mixed",
    ),
    m("serve.hedges_launched", "count", "lower", "resilience", RESILIENCE),
    m("serve.hedges_won", "count", "higher", "resilience", RESILIENCE),
    m("serve.breaker_opens", "count", "lower", "resilience", RESILIENCE),
    m("serve.spares_promoted", "count", "lower", "resilience", RESILIENCE),
    m("serve.fallbacks", "count", "lower", "resilience", RESILIENCE),
    m("serve.host_ms_per_request", "ms", "lower", "serve", "iter_s_p50 on serve-mixed"),
    m("serve.loadgen_host_ms", "ms", "lower", "serve.loadgen", "iter_s_p50 on serve-mixed"),
    m("trace.overhead_s", "s", "lower", "bench", "none: traced iter_s_p50 minus untraced"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list the gated and per-layer metrics with the
    /// units and directions the benchmark reports.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for metric in GATED.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, GATED.len() + PER_LAYER.len(), "BENCHMARK.json lists extra metrics");
    }

    #[test]
    fn names_are_unique_and_short() {
        let all: Vec<&str> =
            GATED.iter().chain(REPORTED).chain(PER_LAYER).map(|m| m.name).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(a.len() <= 64 && a.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(!all[i + 1..].contains(a), "{a} listed twice");
        }
    }
}
