//! Seeded load-factor sweep: the serving layer's throughput/latency
//! curve.
//!
//! A single serve run measures one operating point. Capacity planning
//! needs the *curve*: how throughput saturates and latency percentiles
//! blow up as offered load crosses pool capacity. [`sweep`] replays the
//! same seeded client population at a ladder of load factors (the only
//! knob that changes between points), producing one [`SweepPoint`] per
//! factor. Everything inherits the serve loop's determinism, so the
//! rendered JSON/CSV are byte-stable for a fixed `(cfg, spec, factors)`
//! and CI gates on them exactly like the single-point serve baseline.

use crate::error::ServeError;
use crate::loadgen::LoadSpec;
use crate::report::{build, ServeReport};
use crate::server::{serve, ServeConfig};
use ompx_telemetry::json::Doc;

/// The default ladder: from comfortably under capacity to 3× saturated,
/// dense around the knee at 1.0.
pub const DEFAULT_FACTORS: [f64; 7] = [0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0];

/// One operating point of the sweep: the load factor it ran at plus the
/// curve-relevant slice of that run's report.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub load_factor: f64,
    pub completed: u64,
    pub rejected: u64,
    pub makespan_s: f64,
    pub throughput_rps: f64,
    pub latency_p50_s: f64,
    pub latency_p95_s: f64,
    pub latency_p99_s: f64,
}

impl SweepPoint {
    fn from_report(load_factor: f64, r: &ServeReport) -> SweepPoint {
        SweepPoint {
            load_factor,
            completed: r.completed,
            rejected: r.rejected,
            makespan_s: r.makespan_s,
            throughput_rps: r.throughput_rps,
            latency_p50_s: r.latency_p50_s,
            latency_p95_s: r.latency_p95_s,
            latency_p99_s: r.latency_p99_s,
        }
    }
}

/// A full sweep result: the shared run identity plus one point per factor.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub seed: u64,
    pub clients: u32,
    pub tenants: u32,
    pub points: Vec<SweepPoint>,
}

/// Run `cfg` at every factor in `factors` (ascending order is
/// conventional but not required) against the same seeded `spec`.
pub fn sweep(
    cfg: &ServeConfig,
    spec: &LoadSpec,
    factors: &[f64],
) -> Result<SweepResult, ServeError> {
    if factors.is_empty() {
        return Err(ServeError::InvalidConfig("sweep needs at least one load factor".into()));
    }
    let mut points = Vec::with_capacity(factors.len());
    for &f in factors {
        let mut c = cfg.clone();
        c.load_factor = f;
        let out = serve(&c, spec)?;
        let report =
            build(c.seed, spec.clients, spec.tenants, &out.responses, &out.pool, &out.stats);
        points.push(SweepPoint::from_report(f, &report));
    }
    Ok(SweepResult { seed: cfg.seed, clients: spec.clients, tenants: spec.tenants, points })
}

/// Render a sweep as the `BENCH_sweep.json` document (schema
/// `ompx-bench-sweep-v1`). Field order and float formatting are fixed so
/// the output is byte-stable for baseline diffing.
pub fn render_sweep_json(s: &SweepResult) -> String {
    let points = s.points.iter().map(|p| {
        format!(
            "{{\"load_factor\":{:e},\"completed\":{},\"rejected\":{},\"makespan_s\":{:e},\"throughput_rps\":{:e},\"latency_p50_s\":{:e},\"latency_p95_s\":{:e},\"latency_p99_s\":{:e}}}",
            p.load_factor,
            p.completed,
            p.rejected,
            p.makespan_s,
            p.throughput_rps,
            p.latency_p50_s,
            p.latency_p95_s,
            p.latency_p99_s,
        )
    });
    Doc::new()
        .str("schema", "ompx-bench-sweep-v1")
        .field("seed", s.seed)
        .field("clients", s.clients)
        .field("tenants", s.tenants)
        .rows("points", points)
        .finish()
}

/// Render the sweep as a plotting-friendly CSV: one row per load factor,
/// throughput and latency percentiles as columns.
pub fn render_sweep_csv(s: &SweepResult) -> String {
    let mut out = String::from(
        "load_factor,completed,rejected,throughput_rps,latency_p50_s,latency_p95_s,latency_p99_s\n",
    );
    for p in &s.points {
        out.push_str(&format!(
            "{:e},{},{},{:e},{:e},{:e},{:e}\n",
            p.load_factor,
            p.completed,
            p.rejected,
            p.throughput_rps,
            p.latency_p50_s,
            p.latency_p95_s,
            p.latency_p99_s,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::DeviceKind;
    use ompx_hecbench::WorkScale;

    fn tiny_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::new(7);
        cfg.devices = vec![DeviceKind::A100];
        cfg.scale = WorkScale::Test;
        cfg
    }

    #[test]
    fn sweep_is_deterministic_and_latency_grows_with_load() {
        let cfg = tiny_cfg();
        let spec = LoadSpec { seed: 7, clients: 24, tenants: 4 };
        let factors = [0.5, 1.5, 3.0];
        let a = sweep(&cfg, &spec, &factors).expect("sweep");
        let b = sweep(&cfg, &spec, &factors).expect("sweep");
        assert_eq!(render_sweep_json(&a), render_sweep_json(&b));
        assert_eq!(render_sweep_csv(&a), render_sweep_csv(&b));
        assert_eq!(a.points.len(), 3);
        // Oversubscription cannot *improve* the tail: p99 at 3.0× is at
        // least p99 at 0.5×.
        assert!(a.points[2].latency_p99_s >= a.points[0].latency_p99_s);
        // Every point served the full population (no shedding at cap 64
        // with 24 clients) and the factors are recorded in order.
        for (p, f) in a.points.iter().zip(factors) {
            assert_eq!(p.load_factor, f);
            assert_eq!(p.completed + p.rejected, 24);
        }
    }

    #[test]
    fn csv_has_one_row_per_point_plus_header() {
        let cfg = tiny_cfg();
        let spec = LoadSpec { seed: 7, clients: 8, tenants: 2 };
        let s = sweep(&cfg, &spec, &[1.0, 2.0]).expect("sweep");
        let csv = render_sweep_csv(&s);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("load_factor,"));
    }

    #[test]
    fn empty_factor_ladder_is_a_typed_error() {
        let cfg = tiny_cfg();
        let spec = LoadSpec { seed: 7, clients: 4, tenants: 2 };
        assert!(matches!(sweep(&cfg, &spec, &[]), Err(crate::error::ServeError::InvalidConfig(_))));
    }
}
