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

use ompx_bench::cli::{self, Args, MetricsOut};
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
    app: Option<&'static str>,
    fixture: Option<String>,
    system: System,
    versions: Vec<ProgVersion>,
    scale: WorkScale,
    json: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse() -> Opts {
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
    let mut args = Args::new(usage);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tool" => o.tool = args.parse(),
            "--app" => o.app = Some(args.value_with(cli::app)),
            "--fixture" => {
                o.fixture = Some(args.value_with(|f| fixtures::by_name(f).map(|_| f.to_string())))
            }
            "--list-fixtures" => {
                for (name, _, kind) in fixtures::ALL {
                    println!("{name:20} -> {} ({})", kind.label(), kind.tool());
                }
                std::process::exit(0);
            }
            "--system" => o.system = args.value_with(cli::system),
            "--version" => o.versions = vec![args.value_with(cli::version)],
            "--test-scale" => o.scale = WorkScale::Test,
            "--json" => o.json = true,
            "--out" => o.out = Some(args.value()),
            "--metrics-out" => o.metrics_out = Some(args.value()),
            _ => usage(),
        }
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
    let o = parse();
    let mask = o.tool.mask();

    // Detection-time counters (`sanitizer_findings_total`) land alongside
    // the report-time `findings_total` rollup.
    let metrics = o.metrics_out.as_deref().map(MetricsOut::start);

    let mut exit = 0;
    let mut out = String::new();
    if let Some(fixture) = &o.fixture {
        let (run, _kind) = fixtures::by_name(fixture).unwrap();
        let report = run();
        record_findings_metrics(&report.findings());
        exit = exit.max(emit(&report, &format!("fixture {fixture} [{}]", o.tool), &o, &mut out));
    }
    if let Some(app) = o.app {
        for version in &o.versions {
            let (outcome, findings) = run_app_sanitized(app, o.system, *version, o.scale, mask);
            let report = Report::from_findings(mask, findings);
            record_findings_metrics(&report.findings());
            let header = format!("{app} / {} / {} [{}]", o.system.label(), outcome.label, o.tool);
            exit = exit.max(emit(&report, &header, &o, &mut out));
        }
    }
    if let Some(path) = &o.out {
        cli::write_file("sanitize", path, &out);
    }
    if let Some(metrics) = metrics {
        metrics.finish("sanitize");
    }
    std::process::exit(exit);
}
