//! `profile` — Nsight/rocprof-style profiling over the HeCBench matrix:
//!
//! ```text
//! profile                                   # all apps x versions x both systems
//! profile --app xsbench --system nvidia
//! profile --format csv                      # or json; default is a text table
//! profile --out-dir results/profile         # roofline.csv + per-cell Chrome traces
//! profile --write-baseline results/profile_baseline.json
//! profile --baseline results/profile_baseline.json   # gate: exit 1 on drift
//! profile --bench-out results/BENCH_prof.json
//! ```
//!
//! Each cell (app, program version, system) runs under an ambient span
//! log; alongside the app itself the stream-overlap probe executes the
//! §3.5 `depend(interopobj:)` idiom, so every exported Chrome trace has
//! the host track, the hidden-helper-thread track when `nowait` target
//! tasks ran, and two genuine stream tracks with flow arrows. Metrics are
//! derived from the run's extrapolated counters and modeled-time
//! breakdown; `--baseline` diffs them against a committed baseline and
//! exits non-zero past tolerance — the repo's perf-regression gate.

use ompx_hecbench::{run_app, with_span_log, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_hostrt::{KnownIssues, OpenMp};
use ompx_klang::toolchain::Toolchain;
use ompx_prof::probe::{overlap_probe, OverlapReport};
use ompx_prof::{
    derive_metrics, diff_baseline, parse_baseline, roofline, table_csv, table_text,
    to_chrome_trace, to_json, CellProfile, Tolerance,
};
use ompx_sim::device::{Device, DeviceProfile};
use ompx_telemetry::json;

fn usage() -> ! {
    eprintln!(
        "usage: profile [--app <name>] [--version ompx|omp|native|vendor]\n\
         \x20              [--system nvidia|amd|both] [--test-scale]\n\
         \x20              [--format text|csv|json] [--out-dir DIR]\n\
         \x20              [--baseline FILE] [--tolerance REL] [--write-baseline FILE]\n\
         \x20              [--bench-out FILE]\n\
         apps: {}",
        APP_NAMES.join(", ")
    );
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
    Json,
}

struct Opts {
    apps: Vec<String>,
    versions: Vec<ProgVersion>,
    systems: Vec<System>,
    scale: WorkScale,
    format: Format,
    out_dir: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    bench_out: Option<String>,
    tolerance: Tolerance,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        apps: APP_NAMES.iter().map(|s| s.to_string()).collect(),
        versions: ProgVersion::all().to_vec(),
        systems: vec![System::Nvidia, System::Amd],
        scale: WorkScale::Default,
        format: Format::Text,
        out_dir: None,
        baseline: None,
        write_baseline: None,
        bench_out: None,
        tolerance: Tolerance::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--app" => {
                i += 1;
                match args.get(i) {
                    Some(a) if APP_NAMES.contains(&a.as_str()) => o.apps = vec![a.clone()],
                    _ => usage(),
                }
            }
            "--version" => {
                i += 1;
                o.versions = match args.get(i).map(String::as_str) {
                    Some("ompx") => vec![ProgVersion::Ompx],
                    Some("omp") => vec![ProgVersion::Omp],
                    Some("native") => vec![ProgVersion::Native],
                    Some("vendor") => vec![ProgVersion::NativeVendor],
                    _ => usage(),
                };
            }
            "--system" => {
                i += 1;
                o.systems = match args.get(i).map(String::as_str) {
                    Some("nvidia") => vec![System::Nvidia],
                    Some("amd") => vec![System::Amd],
                    Some("both") => vec![System::Nvidia, System::Amd],
                    _ => usage(),
                };
            }
            "--test-scale" => o.scale = WorkScale::Test,
            "--format" => {
                i += 1;
                o.format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("csv") => Format::Csv,
                    Some("json") => Format::Json,
                    _ => usage(),
                };
            }
            "--out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.out_dir = Some(p.clone()),
                    None => usage(),
                }
            }
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.baseline = Some(p.clone()),
                    None => usage(),
                }
            }
            "--write-baseline" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.write_baseline = Some(p.clone()),
                    None => usage(),
                }
            }
            "--bench-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.bench_out = Some(p.clone()),
                    None => usage(),
                }
            }
            "--tolerance" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 => o.tolerance.rel_seconds = t,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn device_profile(sys: System) -> DeviceProfile {
    match sys {
        System::Nvidia => DeviceProfile::a100(),
        System::Amd => DeviceProfile::mi250(),
    }
}

fn write_file(path: &str, content: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("profile: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args);

    let mut cells: Vec<CellProfile> = Vec::new();
    let mut roofline_points = Vec::new();
    let mut probes: Vec<(System, OverlapReport)> = Vec::new();

    for &sys in &o.systems {
        let dev_profile = device_profile(sys);
        for app in &o.apps {
            for &version in &o.versions {
                // The span log captures the app's host-side activity plus
                // the overlap probe's two stream timelines, so every
                // cell's trace is genuinely multi-track.
                let ((outcome, probe), spans) = with_span_log(|| {
                    let outcome = run_app(app, sys, version, o.scale);
                    let omp = OpenMp::with_device(
                        Device::new(device_profile(sys)),
                        Toolchain::OmpxPrototype,
                        KnownIssues::new(),
                    );
                    let probe = overlap_probe(&omp);
                    (outcome, probe)
                });
                let metrics = derive_metrics(&dev_profile, &outcome.stats, &outcome.kernel_model);
                let cell = CellProfile {
                    app: app.clone(),
                    version: version.label(sys).to_string(),
                    system: sys.label().to_string(),
                    checksum: outcome.checksum,
                    reported_seconds: outcome.reported_seconds,
                    excluded: outcome.excluded,
                    metrics,
                };
                roofline_points.push(roofline::place(&dev_profile, &cell.key(), &cell.metrics));
                if let Some(dir) = &o.out_dir {
                    write_file(
                        &format!("{dir}/trace_{}_{}_{}.json", app, version.label(sys), sys.label()),
                        &to_chrome_trace(&spans),
                    );
                }
                cells.push(cell);
                probes.push((sys, probe));
            }
        }
    }

    match o.format {
        Format::Text => print!("{}", table_text(&cells)),
        Format::Csv => print!("{}", table_csv(&cells)),
        Format::Json => print!("{}", to_json(&cells)),
    }

    if let Some(dir) = &o.out_dir {
        write_file(&format!("{dir}/roofline.csv"), &roofline::to_csv(&roofline_points));
        write_file(&format!("{dir}/profile.json"), &to_json(&cells));
    }
    if let Some(path) = &o.write_baseline {
        write_file(path, &to_json(&cells));
        eprintln!("profile: baseline written to {path} ({} cells)", cells.len());
    }
    if let Some(path) = &o.bench_out {
        write_file(path, &bench_summary(&cells, &probes));
    }

    if let Some(path) = &o.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("profile: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let baseline = match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("profile: bad baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let drifts = diff_baseline(&cells, &baseline, o.tolerance);
        if drifts.is_empty() {
            eprintln!(
                "profile: baseline gate PASSED ({} cells within ±{:.0}% / ±{:.1} occupancy pts)",
                cells.len(),
                100.0 * o.tolerance.rel_seconds,
                o.tolerance.occupancy_pts
            );
        } else {
            eprintln!("profile: baseline gate FAILED, {} drift(s):", drifts.len());
            for d in &drifts {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
    }
}

/// The `BENCH_prof.json` artifact: per-cell modeled seconds plus the
/// stream-overlap canary, i.e. the numbers a perf trajectory tracks.
fn bench_summary(cells: &[CellProfile], probes: &[(System, OverlapReport)]) -> String {
    let cell_rows = cells.iter().map(|c| {
        format!(
            "{{\"cell\":{},\"seconds\":{:e},\"occupancy_pct\":{:.3},\"bottleneck\":\"{}\"}}",
            json::quoted(&c.key()),
            c.reported_seconds,
            c.metrics.occupancy_pct,
            c.metrics.bottleneck.label()
        )
    });
    // One representative probe per system (they are deterministic).
    let probe_rows = [System::Nvidia, System::Amd].into_iter().filter_map(|sys| {
        let (_, p) = probes.iter().find(|(s, _)| *s == sys)?;
        Some(format!(
            "{{\"system\":\"{}\",\"serial_s\":{:e},\"overlap_s\":{:e},\"speedup\":{:.4}}}",
            sys.label(),
            p.serial_s,
            p.overlap_s,
            p.speedup
        ))
    });
    json::Doc::new()
        .str("schema", "ompx-bench-prof-v1")
        .rows("cells", cell_rows)
        .rows("stream_overlap_probe", probe_rows)
        .finish()
}
