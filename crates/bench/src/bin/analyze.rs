//! `analyze` — static kernel verifier over the hand-written symbolic
//! access summaries in `ompx-hecbench/src/summaries.rs`:
//!
//! ```text
//! analyze                                 # all six apps x four versions
//! analyze --app stencil --version omp
//! analyze --app su3 --replay              # + replay validation on the simulator
//! analyze --fixture race-global           # demonstrate one diagnostic
//! analyze --list-fixtures
//! analyze extract                         # auto-extract all 24 cells from traces
//! analyze extract --app su3 --emit-rust   # print the summaries.rs-style literal
//! analyze extract --diff                  # diff extracted vs hand-written
//! ```
//!
//! Emits the same unified finding schema as `sanitize` (tool, kernel,
//! location, severity, message) as text or `--json`, and exits non-zero
//! when any error-severity finding is reported — wire it straight into CI.
//! `--replay` additionally runs each kernel on the simulator with the
//! memory-trace hooks attached, on each valuation's concrete grid, and
//! cross-checks every observed access against the summary's predictions;
//! its JSON output lists the concrete grid shapes that validated clean.
//!
//! The `extract` subcommand inverts the pipeline: it traces each kernel
//! on small fit grids, fits an affine access summary to the observations
//! (`ompx_analyzer::extract`), replay-validates the draft on a larger
//! unseen grid, and diffs it against the hand-written registry entry.
//! Non-affine behavior degrades to opaque whole-buffer accesses that
//! surface as `SummaryImprecise` warnings. Exit is non-zero on any
//! validation failure or unexplained divergence from the registry.

use ompx_analyzer::{
    analyze, describe, fixtures, to_rust_literal, validate_events, warp_size_for, DiffClass,
};
use ompx_bench::cli::{self, Args, MetricsOut};
use ompx_hecbench::extraction::extract_cell;
use ompx_hecbench::summaries::{replay_events, summary_for, version_str};
use ompx_hecbench::{ProgVersion, System, APP_NAMES};
use ompx_sanitizer::report::{exit_code, findings_fields, record_findings_metrics, render_text};
use ompx_sanitizer::Finding;
use ompx_telemetry::json::{self, Doc};

fn usage() -> ! {
    eprintln!(
        "usage: analyze [extract] [--app <name>] [--version ompx|omp|native|vendor]\n\
         \x20              [--system nvidia|amd] [--replay] [--emit-rust] [--diff]\n\
         \x20              [--fixture <name> | --list-fixtures] [--json] [--out FILE]\n\
         \x20              [--metrics-out FILE]\n\
         apps: {}\n\
         fixtures: {}",
        APP_NAMES.join(", "),
        fixtures::ALL.iter().map(|f| f.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

struct Opts {
    extract: bool,
    apps: Vec<&'static str>,
    versions: Vec<ProgVersion>,
    system: System,
    replay: bool,
    emit_rust: bool,
    diff: bool,
    fixture: Option<String>,
    json: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse() -> Opts {
    let mut args = Args::new(usage);
    let mut o = Opts {
        extract: args.next_is("extract"),
        apps: APP_NAMES.to_vec(),
        versions: ProgVersion::all().to_vec(),
        system: System::Nvidia,
        replay: false,
        emit_rust: false,
        diff: false,
        fixture: None,
        json: false,
        out: None,
        metrics_out: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--app" => o.apps = vec![args.value_with(cli::app)],
            "--version" => o.versions = vec![args.value_with(cli::version)],
            "--system" => o.system = args.value_with(cli::system),
            "--replay" => o.replay = true,
            "--emit-rust" if o.extract => o.emit_rust = true,
            "--diff" if o.extract => o.diff = true,
            "--fixture" if !o.extract => {
                o.fixture = Some(args.value_with(|f| fixtures::by_name(f).map(|_| f.to_string())))
            }
            "--list-fixtures" => {
                for f in &fixtures::ALL {
                    println!("{:24} -> {}", f.name, f.tool);
                }
                std::process::exit(0);
            }
            "--json" => o.json = true,
            "--out" => o.out = Some(args.value()),
            "--metrics-out" => o.metrics_out = Some(args.value()),
            _ => usage(),
        }
    }
    o
}

/// Write the `--out` file (every JSON document the run produced, the same
/// bytes `--json` prints) and the `--metrics-out` snapshot, then exit with
/// `code`.
fn finish(o: &Opts, metrics: Option<MetricsOut>, out: &str, code: i32) -> ! {
    if let Some(path) = &o.out {
        cli::write_file("analyze", path, out);
    }
    if let Some(metrics) = metrics {
        metrics.finish("analyze");
    }
    std::process::exit(code)
}

/// Report `findings`: as the unified JSON document (after any fields the
/// caller already wrote into `doc`) with `--json`, as text otherwise. The
/// document is appended to `out`.
fn emit(findings: &[Finding], header: &str, doc: &mut Doc, o: &Opts, out: &mut String) -> i32 {
    record_findings_metrics(findings);
    let doc = findings_fields(doc, findings).finish();
    if o.json {
        print!("{doc}");
    } else {
        println!("========= {header}");
        print!("{}", render_text(findings));
    }
    out.push_str(&doc);
    exit_code(findings)
}

/// The per-valuation grid shapes that replayed clean, as a JSON field.
fn grids_field<'d>(doc: &'d mut Doc, grids: &[String]) -> &'d mut Doc {
    doc.rows("validated_grids", grids.iter().map(|g| json::quoted(g)))
}

fn run_extract(o: &Opts, out: &mut String) -> i32 {
    let mut exit = 0;
    for &app in &o.apps {
        for version in &o.versions {
            let header =
                format!("extract {app} / {} / {}", o.system.label(), version_str(*version));
            let report = match extract_cell(app, o.system, *version) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("========= {header}\nextraction failed: {e}");
                    exit = exit.max(1);
                    continue;
                }
            };
            let failures = report.failures();
            let grids = report.validated_grids();
            let mut findings: Vec<Finding> = report.analysis.clone();
            for (_, fs) in &report.validation {
                findings.extend(fs.iter().cloned());
            }
            record_findings_metrics(&findings);

            let mut doc = Doc::new();
            doc.field(
                "cell",
                format_args!(
                    "{{\"app\": {}, \"version\": {}, \"system\": {}}}",
                    json::quoted(app),
                    json::quoted(&report.version),
                    json::quoted(&report.system),
                ),
            )
            .field("phases", report.extraction.phases)
            .rows("imprecise", report.extraction.imprecise.iter().map(|n| json::quoted(n)));
            grids_field(&mut doc, &grids)
                .rows(
                    "diff",
                    report.diff.iter().map(|d| {
                        format!(
                            "{{\"space\": {}, \"mode\": \"{:?}\", \"class\": \"{:?}\", \"detail\": {}}}",
                            json::quoted(&d.space),
                            d.mode,
                            d.class,
                            json::quoted(&d.detail)
                        )
                    }),
                )
                .field("accepted", failures.is_empty());
            let doc = findings_fields(&mut doc, &findings).finish();
            out.push_str(&doc);
            if o.json {
                print!("{doc}");
            } else {
                println!("========= {header}");
                if o.emit_rust {
                    println!("{}", to_rust_literal(&report.extraction.summary));
                } else {
                    print!("{}", describe(&report.extraction.summary));
                }
                for note in &report.extraction.imprecise {
                    println!("  imprecise: {note}");
                }
                for g in &grids {
                    println!("  validated: {g}");
                }
                if o.diff {
                    for d in &report.diff {
                        println!("  diff {} {:?}: {:?} — {}", d.space, d.mode, d.class, d.detail);
                    }
                } else if report.diff.iter().any(|d| d.class != DiffClass::Equal) {
                    let n = report.diff.iter().filter(|d| d.class != DiffClass::Equal).count();
                    println!("  diff: {n} non-equal bucket(s) vs hand-written (--diff for detail)");
                }
                print!("{}", render_text(&findings));
                for f in &failures {
                    println!("  FAILURE: {f}");
                }
            }
            if !failures.is_empty() {
                exit = exit.max(1);
            }
            exit = exit.max(exit_code(&findings));
        }
    }
    exit
}

fn main() {
    let o = parse();
    let metrics = o.metrics_out.as_deref().map(MetricsOut::start);
    let mut out = String::new();
    if o.extract {
        let code = run_extract(&o, &mut out);
        finish(&o, metrics, &out, code);
    }
    let warp = warp_size_for(o.system.label());

    if let Some(name) = &o.fixture {
        let fx = fixtures::by_name(name).unwrap();
        let findings = fx.run();
        let header = format!("fixture {name} [{}]", fx.tool);
        let code = emit(&findings, &header, &mut Doc::new(), &o, &mut out);
        finish(&o, metrics, &out, code);
    }

    let mut exit = 0;
    for &app in &o.apps {
        for version in &o.versions {
            let s = summary_for(app, *version);
            let mut findings = analyze(&s, warp);
            let mut grids = Vec::new();
            if o.replay {
                for val in &s.valuations {
                    let events = replay_events(app, o.system, *version, val);
                    let fs = validate_events(&s, val, &events);
                    let clean = exit_code(&fs) == 0;
                    findings.extend(fs);
                    if clean {
                        if let Ok(g) = s.ground(val) {
                            grids.push(format!(
                                "{}: grid ({},{},{}) x block ({},{},{})",
                                val.name,
                                g.grid.0,
                                g.grid.1,
                                g.grid.2,
                                s.launch.block.0,
                                s.launch.block.1,
                                s.launch.block.2,
                            ));
                        }
                    }
                }
            }
            let header = format!(
                "{app} / {} / {}{}",
                o.system.label(),
                s.version,
                if o.replay { " (+replay)" } else { "" }
            );
            let mut doc = Doc::new();
            if o.replay {
                grids_field(&mut doc, &grids);
            }
            exit = exit.max(emit(&findings, &header, &mut doc, &o, &mut out));
        }
    }
    finish(&o, metrics, &out, exit);
}
