//! `profile` — Nsight/rocprof-style profiling over the HeCBench matrix:
//!
//! ```text
//! profile                                   # all apps x versions x both systems
//! profile --app xsbench --system nvidia
//! profile --format csv                      # or json; default is a text table
//! profile --out-dir results/profile         # roofline.csv + per-cell Chrome traces
//! profile --format json > results/profile_baseline.json   # re-record the baseline
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
//! breakdown; `--baseline` diffs the run's JSON report against a committed
//! baseline field by field ([`cli::gate`]) and exits non-zero on any
//! drift — the repo's perf-regression gate.

use ompx_bench::cli::{self, Args};
use ompx_hecbench::{run_app, with_span_log, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_hostrt::{KnownIssues, OpenMp};
use ompx_klang::toolchain::Toolchain;
use ompx_prof::probe::{overlap_probe, OverlapReport};
use ompx_prof::{
    derive_metrics, roofline, table_csv, table_text, to_chrome_trace, to_json, CellProfile,
};
use ompx_sim::device::{Device, DeviceProfile};
use ompx_telemetry::json;

fn usage() -> ! {
    eprintln!(
        "usage: profile [--app <name>] [--version ompx|omp|native|vendor]\n\
         \x20              [--system nvidia|amd|both] [--test-scale]\n\
         \x20              [--format text|csv|json] [--out-dir DIR]\n\
         \x20              [--baseline FILE] [--bench-out FILE]\n\
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
    apps: Vec<&'static str>,
    versions: Vec<ProgVersion>,
    systems: Vec<System>,
    scale: WorkScale,
    format: Format,
    out_dir: Option<String>,
    baseline: Option<String>,
    bench_out: Option<String>,
}

fn parse() -> Opts {
    let mut o = Opts {
        apps: APP_NAMES.to_vec(),
        versions: ProgVersion::all().to_vec(),
        systems: vec![System::Nvidia, System::Amd],
        scale: WorkScale::Default,
        format: Format::Text,
        out_dir: None,
        baseline: None,
        bench_out: None,
    };
    let mut args = Args::new(usage);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--app" => o.apps = vec![args.value_with(cli::app)],
            "--version" => o.versions = vec![args.value_with(cli::version)],
            "--system" => {
                o.systems = match args.value().as_str() {
                    "both" => vec![System::Nvidia, System::Amd],
                    s => vec![cli::system(s).unwrap_or_else(|| usage())],
                }
            }
            "--test-scale" => o.scale = WorkScale::Test,
            "--format" => {
                o.format = match args.value().as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    _ => usage(),
                }
            }
            "--out-dir" => o.out_dir = Some(args.value()),
            "--baseline" => o.baseline = Some(args.value()),
            "--bench-out" => o.bench_out = Some(args.value()),
            _ => usage(),
        }
    }
    o
}

fn device_profile(sys: System) -> DeviceProfile {
    match sys {
        System::Nvidia => DeviceProfile::a100(),
        System::Amd => DeviceProfile::mi250(),
    }
}

fn main() {
    let o = parse();

    let mut cells: Vec<CellProfile> = Vec::new();
    let mut roofline_points = Vec::new();
    let mut probes: Vec<(System, OverlapReport)> = Vec::new();

    for &sys in &o.systems {
        let dev_profile = device_profile(sys);
        for &app in &o.apps {
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
                    app: app.to_string(),
                    version: version.label(sys).to_string(),
                    system: sys.label().to_string(),
                    checksum: outcome.checksum,
                    reported_seconds: outcome.reported_seconds,
                    excluded: outcome.excluded,
                    metrics,
                };
                roofline_points.push(roofline::place(&dev_profile, &cell.key(), &cell.metrics));
                if let Some(dir) = &o.out_dir {
                    cli::write_file(
                        "profile",
                        &format!("{dir}/trace_{}_{}_{}.json", app, version.label(sys), sys.label()),
                        &to_chrome_trace(&spans),
                    );
                }
                cells.push(cell);
                probes.push((sys, probe));
            }
        }
    }

    let report = to_json(&cells);
    match o.format {
        Format::Text => print!("{}", table_text(&cells)),
        Format::Csv => print!("{}", table_csv(&cells)),
        Format::Json => print!("{report}"),
    }

    if let Some(dir) = &o.out_dir {
        cli::write_file(
            "profile",
            &format!("{dir}/roofline.csv"),
            &roofline::to_csv(&roofline_points),
        );
        cli::write_file("profile", &format!("{dir}/profile.json"), &report);
    }
    if let Some(path) = &o.bench_out {
        cli::write_file("profile", path, &bench_summary(&cells, &probes));
    }
    if let Some(path) = &o.baseline {
        cli::gate("profile", "baseline", path, &report);
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
