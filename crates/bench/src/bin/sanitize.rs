//! `sanitize` — run a benchmark app (or a buggy fixture kernel) under the
//! sanitizer, `compute-sanitizer --tool <T>` style:
//!
//! ```text
//! sanitize --tool racecheck --app stencil --version omp
//! sanitize --tool all --app xsbench --test-scale --json
//! sanitize --tool memcheck --fixture oob-write
//! sanitize --list-fixtures
//! ```
//!
//! Prints one line per finding (tool, kernel, block/thread coordinates,
//! address, allocation label) plus a summary tail, and exits non-zero when
//! anything was found — wire it straight into CI. `--json` emits the
//! machine-readable report instead (exportable alongside the Chrome-trace
//! output); `--out FILE` writes that JSON to a file as well — one document
//! per fixture or cell, the same bytes `--json` prints.
//! `--metrics-out FILE` meters the run — `sanitizer_findings_total` by
//! tool at detection time, `findings_total` by tool and severity at
//! report time — and writes the Prometheus text snapshot.

use ompx_hecbench::{run_app_sanitized, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_sanitizer::report::record_findings_metrics;
use ompx_sanitizer::{fixtures, Report, Tool};

fn usage() -> ! {
    eprintln!(
        "usage: sanitize --tool memcheck|racecheck|synccheck|initcheck|leakcheck|all\n\
         \x20               (--app <name> | --fixture <name> | --list-fixtures)\n\
         \x20               [--system nvidia|amd] [--version ompx|omp|native|vendor]\n\
         \x20               [--test-scale] [--json] [--out FILE] [--metrics-out FILE]\n\
         apps: {}\n\
         fixtures: {}",
        APP_NAMES.join(", "),
        fixtures::ALL.iter().map(|(n, _, _)| *n).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

struct Opts {
    tool: Tool,
    app: Option<String>,
    fixture: Option<String>,
    system: System,
    versions: Vec<ProgVersion>,
    scale: WorkScale,
    json: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        tool: Tool::All,
        app: None,
        fixture: None,
        system: System::Nvidia,
        versions: ProgVersion::all().to_vec(),
        scale: WorkScale::Default,
        json: false,
        out: None,
        metrics_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tool" => {
                i += 1;
                o.tool = match args.get(i).map(|s| s.parse()) {
                    Some(Ok(t)) => t,
                    _ => usage(),
                };
            }
            "--app" => {
                i += 1;
                match args.get(i) {
                    Some(a) if APP_NAMES.contains(&a.as_str()) => o.app = Some(a.clone()),
                    _ => usage(),
                }
            }
            "--fixture" => {
                i += 1;
                match args.get(i) {
                    Some(f) if fixtures::by_name(f).is_some() => o.fixture = Some(f.clone()),
                    _ => usage(),
                }
            }
            "--list-fixtures" => {
                for (name, _, kind) in fixtures::ALL {
                    println!("{name:20} -> {} ({})", kind.label(), kind.tool());
                }
                std::process::exit(0);
            }
            "--system" => {
                i += 1;
                o.system = match args.get(i).map(String::as_str) {
                    Some("nvidia") => System::Nvidia,
                    Some("amd") => System::Amd,
                    _ => usage(),
                };
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
            "--test-scale" => o.scale = WorkScale::Test,
            "--json" => o.json = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.out = Some(p.clone()),
                    None => usage(),
                }
            }
            "--metrics-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.metrics_out = Some(p.clone()),
                    None => usage(),
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    if o.app.is_none() && o.fixture.is_none() {
        usage();
    }
    o
}

/// Print one report and append its JSON document to `out`, the `--out`
/// file's contents.
fn emit(report: &Report, header: &str, o: &Opts, out: &mut String) -> i32 {
    let json = report.to_json();
    if o.json {
        print!("{json}");
    } else {
        println!("========= {header}");
        print!("{}", report.to_text());
    }
    out.push_str(&json);
    report.exit_code()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args);
    let mask = o.tool.mask();

    // With --metrics-out, install a session registry so detection-time
    // counters (`sanitizer_findings_total`) land alongside the
    // report-time `findings_total` rollup.
    let registry = o.metrics_out.as_ref().map(|_| {
        let reg = ompx_telemetry::MetricRegistry::new();
        ompx_telemetry::describe_base_families(&reg);
        ompx_telemetry::install(std::sync::Arc::clone(&reg));
        reg
    });

    let mut exit = 0;
    let mut out = String::new();
    if let Some(fixture) = &o.fixture {
        let (run, _kind) = fixtures::by_name(fixture).unwrap();
        let report = run();
        record_findings_metrics(&report.findings());
        exit = exit.max(emit(&report, &format!("fixture {fixture} [{}]", o.tool), &o, &mut out));
    }
    if let Some(app) = &o.app {
        for version in &o.versions {
            let (outcome, findings) = run_app_sanitized(app, o.system, *version, o.scale, mask);
            let report = Report::from_findings(mask, findings);
            record_findings_metrics(&report.findings());
            let header = format!("{app} / {} / {} [{}]", o.system.label(), outcome.label, o.tool);
            exit = exit.max(emit(&report, &header, &o, &mut out));
        }
    }
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("sanitize: cannot write {path}: {e}");
            exit = exit.max(2);
        }
    }
    if let (Some(path), Some(reg)) = (&o.metrics_out, registry) {
        ompx_telemetry::uninstall();
        let text = ompx_telemetry::to_prometheus(&reg.snapshot());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("sanitize: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("sanitize: Prometheus metrics written to {path}");
    }
    std::process::exit(exit);
}
