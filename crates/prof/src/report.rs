//! Profile reports.
//!
//! One profiled cell is (app, program version, system): its checksum,
//! reported modeled seconds, and the representative kernel's derived
//! metrics. This module renders cell sets as an aligned text table, CSV,
//! or JSON. The JSON report is also the committed baseline format: the
//! `profile --baseline` gate diffs it field by field with
//! [`json::diff`].

use crate::metrics::KernelMetrics;
use ompx_sim::json;

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
    /// Stable cell key used in tables and reports.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Bottleneck;

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
