//! Profile reports and perf-regression gating.
//!
//! One profiled cell is (app, program version, system): its checksum,
//! reported modeled seconds, and the representative kernel's derived
//! metrics. This module renders cell sets as an aligned text table, CSV,
//! or JSON, and implements the baseline gate: a committed JSON baseline is
//! diffed against the current run, and any drift beyond tolerance —
//! checksum change, modeled-time drift, occupancy drift, bottleneck
//! reclassification, or a cell appearing/disappearing — fails the gate
//! (CI exits non-zero).

use crate::metrics::{Bottleneck, KernelMetrics};
use ompx_sim::json::{self, Json};

/// One profiled (app, version, system) cell.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// Application name (`xsbench`, …).
    pub app: String,
    /// Program-version bar label (`ompx`, `omp`, `cuda`, `cuda-nvcc`, …).
    pub version: String,
    /// System name (`nvidia` or `amd`).
    pub system: String,
    /// Order-independent result checksum (must agree across versions).
    pub checksum: u64,
    /// Modeled seconds at the paper workload.
    pub reported_seconds: f64,
    /// The paper excluded this series (kept in reports, exempt from the
    /// cross-version checksum agreement, still gated against drift).
    pub excluded: bool,
    /// Derived metrics of the representative kernel.
    pub metrics: KernelMetrics,
}

impl CellProfile {
    /// Stable cell key used in tables and baseline matching.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.app, self.version, self.system)
    }
}

// ---- rendering -------------------------------------------------------------

const COLUMNS: [&str; 12] = [
    "cell",
    "seconds",
    "checksum",
    "occ%",
    "membw%",
    "AI",
    "gflops",
    "coal%",
    "warp%",
    "barrier%",
    "serial%",
    "bottleneck",
];

fn row_fields(c: &CellProfile) -> Vec<String> {
    let m = &c.metrics;
    vec![
        c.key(),
        format!("{:.3e}", c.reported_seconds),
        format!("{:016x}", c.checksum),
        format!("{:.1}", m.occupancy_pct),
        format!("{:.1}", m.mem_throughput_pct),
        format!("{:.3}", m.arithmetic_intensity),
        format!("{:.1}", m.gflops),
        format!("{:.1}", m.coalescing_eff_pct),
        format!("{:.1}", m.warp_exec_eff_pct),
        format!("{:.1}", m.barrier_stall_pct),
        format!("{:.1}", m.serialization_stall_pct),
        m.bottleneck.label().to_string(),
    ]
}

/// Aligned plain-text metric table (the default CLI output).
pub fn table_text(cells: &[CellProfile]) -> String {
    let rows: Vec<Vec<String>> = cells.iter().map(row_fields).collect();
    let mut widths: Vec<usize> = COLUMNS.iter().map(|h| h.len()).collect();
    for r in &rows {
        for (i, f) in r.iter().enumerate() {
            widths[i] = widths[i].max(f.len());
        }
    }
    let fmt_row = |fields: &[String]| -> String {
        fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("{:<w$}", f, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header: Vec<String> = COLUMNS.iter().map(|s| s.to_string()).collect();
    let mut out = fmt_row(&header);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (COLUMNS.len() - 1)));
    out.push('\n');
    for r in &rows {
        out.push_str(&fmt_row(r));
        out.push('\n');
    }
    out
}

/// CSV rendering (same columns as the text table).
pub fn table_csv(cells: &[CellProfile]) -> String {
    let mut out = String::from(
        "app,version,system,seconds,checksum,occupancy_pct,mem_throughput_pct,arithmetic_intensity,gflops,coalescing_eff_pct,warp_exec_eff_pct,barrier_stall_pct,atomic_stall_pct,serialization_stall_pct,divergence_stall_pct,bottleneck,excluded\n",
    );
    for c in cells {
        let m = &c.metrics;
        out.push_str(&format!(
            "{},{},{},{:e},{:016x},{:.3},{:.3},{:.6},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{}\n",
            c.app,
            c.version,
            c.system,
            c.reported_seconds,
            c.checksum,
            m.occupancy_pct,
            m.mem_throughput_pct,
            m.arithmetic_intensity,
            m.gflops,
            m.coalescing_eff_pct,
            m.warp_exec_eff_pct,
            m.barrier_stall_pct,
            m.atomic_stall_pct,
            m.serialization_stall_pct,
            m.divergence_stall_pct,
            m.bottleneck.label(),
            c.excluded
        ));
    }
    out
}

fn cell_json(c: &CellProfile) -> String {
    let m = &c.metrics;
    format!(
        "{{\"app\":{},\"version\":{},\"system\":{},\"checksum\":\"{:016x}\",\"reported_seconds\":{:e},\"occupancy_pct\":{:.6},\"mem_throughput_pct\":{:.6},\"arithmetic_intensity\":{:.6e},\"gflops\":{:.6e},\"coalescing_eff_pct\":{:.6},\"warp_exec_eff_pct\":{:.6},\"barrier_stall_pct\":{:.6},\"atomic_stall_pct\":{:.6},\"serialization_stall_pct\":{:.6},\"divergence_stall_pct\":{:.6},\"bottleneck\":\"{}\",\"excluded\":{}}}",
        json::quoted(&c.app),
        json::quoted(&c.version),
        json::quoted(&c.system),
        c.checksum,
        c.reported_seconds,
        m.occupancy_pct,
        m.mem_throughput_pct,
        m.arithmetic_intensity,
        m.gflops,
        m.coalescing_eff_pct,
        m.warp_exec_eff_pct,
        m.barrier_stall_pct,
        m.atomic_stall_pct,
        m.serialization_stall_pct,
        m.divergence_stall_pct,
        m.bottleneck.label(),
        c.excluded
    )
}

/// Full JSON report (also the baseline file format).
pub fn to_json(cells: &[CellProfile]) -> String {
    json::Doc::new()
        .str("schema", "ompx-prof-baseline-v1")
        .rows("cells", cells.iter().map(cell_json))
        .finish()
}

// ---- baseline gate ---------------------------------------------------------

/// The gated subset of one baseline cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    pub app: String,
    pub version: String,
    pub system: String,
    pub checksum: u64,
    pub reported_seconds: f64,
    pub occupancy_pct: f64,
    pub bottleneck: Bottleneck,
    pub excluded: bool,
}

impl BaselineCell {
    /// Stable cell key, matching [`CellProfile::key`].
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.app, self.version, self.system)
    }
}

/// Parse a baseline document written by [`to_json`].
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineCell>, String> {
    let doc = json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("ompx-prof-baseline-v1") => {}
        other => return Err(format!("unsupported baseline schema {other:?}")),
    }
    let cells = doc.get("cells").and_then(Json::as_arr).ok_or("baseline has no cells array")?;
    let mut out = Vec::with_capacity(cells.len());
    for (i, c) in cells.iter().enumerate() {
        let str_field = |k: &str| -> Result<String, String> {
            c.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("cell {i}: missing string field {k:?}"))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            c.get(k).and_then(Json::as_f64).ok_or(format!("cell {i}: missing number field {k:?}"))
        };
        let checksum_hex = str_field("checksum")?;
        let checksum = u64::from_str_radix(&checksum_hex, 16)
            .map_err(|e| format!("cell {i}: bad checksum {checksum_hex:?}: {e}"))?;
        let bl = str_field("bottleneck")?;
        let bottleneck =
            Bottleneck::from_label(&bl).ok_or(format!("cell {i}: unknown bottleneck {bl:?}"))?;
        out.push(BaselineCell {
            app: str_field("app")?,
            version: str_field("version")?,
            system: str_field("system")?,
            checksum,
            reported_seconds: num_field("reported_seconds")?,
            occupancy_pct: num_field("occupancy_pct")?,
            bottleneck,
            excluded: matches!(c.get("excluded"), Some(Json::Bool(true))),
        });
    }
    Ok(out)
}

/// Gate tolerances. Checksums and bottleneck classes must match exactly;
/// modeled time may drift within a relative band (the model is
/// deterministic, so the default band only absorbs intentional
/// re-calibrations smaller than a report-worthy regression), occupancy
/// within an absolute percentage-point band.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Allowed relative drift of `reported_seconds` (0.05 = ±5 %).
    pub rel_seconds: f64,
    /// Allowed absolute drift of occupancy, percentage points.
    pub occupancy_pts: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance { rel_seconds: 0.05, occupancy_pts: 1.0 }
    }
}

/// One gate violation.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Cell key the violation is about.
    pub cell: String,
    /// Human-readable description of what moved.
    pub what: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.cell, self.what)
    }
}

/// Diff a current run against a baseline. Empty result ⇒ gate passes.
pub fn diff_baseline(
    current: &[CellProfile],
    baseline: &[BaselineCell],
    tol: Tolerance,
) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for cur in current {
        let key = cur.key();
        let Some(base) = baseline.iter().find(|b| b.key() == key) else {
            drifts.push(Drift {
                cell: key,
                what: "cell not present in baseline (new cell? re-record the baseline)".into(),
            });
            continue;
        };
        if cur.checksum != base.checksum {
            drifts.push(Drift {
                cell: key.clone(),
                what: format!(
                    "checksum changed: {:016x} -> {:016x} (results differ!)",
                    base.checksum, cur.checksum
                ),
            });
        }
        let rel = (cur.reported_seconds - base.reported_seconds).abs()
            / base.reported_seconds.abs().max(1e-30);
        if rel > tol.rel_seconds {
            drifts.push(Drift {
                cell: key.clone(),
                what: format!(
                    "modeled time drifted {:+.1}%: {:.3e}s -> {:.3e}s (tolerance ±{:.0}%)",
                    100.0 * (cur.reported_seconds - base.reported_seconds)
                        / base.reported_seconds.abs().max(1e-30),
                    base.reported_seconds,
                    cur.reported_seconds,
                    100.0 * tol.rel_seconds
                ),
            });
        }
        if (cur.metrics.occupancy_pct - base.occupancy_pct).abs() > tol.occupancy_pts {
            drifts.push(Drift {
                cell: key.clone(),
                what: format!(
                    "occupancy drifted: {:.1}% -> {:.1}% (tolerance ±{:.1} pts)",
                    base.occupancy_pct, cur.metrics.occupancy_pct, tol.occupancy_pts
                ),
            });
        }
        if cur.metrics.bottleneck != base.bottleneck {
            drifts.push(Drift {
                cell: key.clone(),
                what: format!(
                    "bottleneck reclassified: {} -> {}",
                    base.bottleneck.label(),
                    cur.metrics.bottleneck.label()
                ),
            });
        }
        if cur.excluded != base.excluded {
            drifts.push(Drift {
                cell: key,
                what: format!("exclusion flag changed: {} -> {}", base.excluded, cur.excluded),
            });
        }
    }
    for base in baseline {
        if !current.iter().any(|c| c.key() == base.key()) {
            drifts.push(Drift {
                cell: base.key(),
                what: "cell present in baseline but missing from this run".into(),
            });
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> KernelMetrics {
        KernelMetrics {
            occupancy_pct: 50.0,
            mem_throughput_pct: 40.0,
            arithmetic_intensity: 0.25,
            gflops: 120.0,
            coalescing_eff_pct: 80.0,
            warp_exec_eff_pct: 100.0,
            barrier_stall_pct: 1.0,
            atomic_stall_pct: 0.0,
            serialization_stall_pct: 2.0,
            divergence_stall_pct: 0.0,
            bottleneck: Bottleneck::MemoryBandwidth,
        }
    }

    fn cell(app: &str, version: &str) -> CellProfile {
        CellProfile {
            app: app.into(),
            version: version.into(),
            system: "nvidia".into(),
            checksum: 0xdeadbeefu64,
            reported_seconds: 1.0e-3,
            excluded: false,
            metrics: metrics(),
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let cells = vec![cell("xsbench", "ompx"), cell("su3", "cuda-nvcc")];
        let parsed = parse_baseline(&to_json(&cells)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].key(), "xsbench/ompx/nvidia");
        assert_eq!(parsed[0].checksum, 0xdeadbeef);
        assert_eq!(parsed[1].bottleneck, Bottleneck::MemoryBandwidth);
        assert!(diff_baseline(&cells, &parsed, Tolerance::default()).is_empty());
    }

    #[test]
    fn drift_is_detected_and_described() {
        let cells = vec![cell("xsbench", "ompx")];
        let mut base = parse_baseline(&to_json(&cells)).unwrap();
        base[0].reported_seconds *= 1.5;
        base[0].checksum ^= 1;
        base[0].bottleneck = Bottleneck::Compute;
        let drifts = diff_baseline(&cells, &base, Tolerance::default());
        let all = drifts.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n");
        assert!(all.contains("checksum changed"), "{all}");
        assert!(all.contains("modeled time drifted"), "{all}");
        assert!(all.contains("bottleneck reclassified"), "{all}");
    }

    #[test]
    fn missing_and_extra_cells_both_fail_the_gate() {
        let current = vec![cell("xsbench", "ompx")];
        let recorded = vec![cell("xsbench", "ompx"), cell("xsbench", "omp")];
        let base = parse_baseline(&to_json(&recorded)).unwrap();
        let drifts = diff_baseline(&current, &base, Tolerance::default());
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].to_string().contains("missing from this run"));

        let drifts = diff_baseline(
            &recorded,
            &parse_baseline(&to_json(&current)).unwrap(),
            Tolerance::default(),
        );
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].to_string().contains("not present in baseline"));
    }

    #[test]
    fn tolerance_band_admits_small_drift() {
        let cells = vec![cell("adam", "omp")];
        let mut base = parse_baseline(&to_json(&cells)).unwrap();
        base[0].reported_seconds *= 1.02;
        base[0].occupancy_pct += 0.5;
        assert!(diff_baseline(&cells, &base, Tolerance::default()).is_empty());
        assert_eq!(
            diff_baseline(&cells, &base, Tolerance { rel_seconds: 0.01, occupancy_pts: 0.1 }).len(),
            2
        );
    }

    #[test]
    fn text_table_is_aligned_and_complete() {
        let t = table_text(&[cell("xsbench", "ompx"), cell("stencil", "hip-hipcc")]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bottleneck"));
        assert!(lines[2].starts_with("xsbench/ompx/nvidia"));
        assert!(lines[3].starts_with("stencil/hip-hipcc/nvidia"));
        let csv = table_csv(&[cell("xsbench", "ompx")]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("membw"));
    }
}
