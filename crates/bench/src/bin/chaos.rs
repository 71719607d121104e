//! `chaos` — run the benchmark matrix under seeded fault schedules and
//! assert the trichotomy: every (app, system, version, schedule) run must
//! end in success, a clean typed error, or a validated host fallback —
//! never a panic, and never silently wrong results:
//!
//! ```text
//! chaos --seed 20260807 --schedules 5 --test-scale
//! chaos --app xsbench --system amd --rate 0.1 --json
//! chaos --schedules 8 --test-scale --out chaos.json
//! ```
//!
//! Each schedule `k` runs the whole selected matrix under
//! `FaultPlan::seeded(seed + k, rate)`; every third schedule additionally
//! loses the device mid-run to exercise the host-fallback path. With
//! `--only watchdog` the schedules are watchdog-pure instead: rate-based
//! episodes are restricted to watchdog timeouts, schedule `k` explicitly
//! injects one at launch op `k`, and the device is never lost — every
//! failure walks the partial-commit + checkpoint-restore path. A run that
//! completes must reproduce the cell's fault-free checksum bit-for-bit
//! (recoveries and fallbacks included); a run that fails must have a typed
//! error recorded in the device's sticky state. Violations become findings
//! in the same `{tool, kernel, location, severity, message}` schema the
//! sanitizer and analyzer CLIs emit, and drive the non-zero exit code.

use ompx_bench::cli::{self, Args};
use ompx_hecbench::{run_app_chaos, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_sanitizer::report::{exit_code, render_json, render_text};
use ompx_sanitizer::{Finding, Severity};
use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite};

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed N] [--schedules N] [--rate F]\n\
         \x20            [--app <name>] [--system nvidia|amd]\n\
         \x20            [--version ompx|omp|native|vendor]\n\
         \x20            [--only watchdog] [--test-scale] [--json] [--out FILE]\n\
         apps: {}",
        APP_NAMES.join(", ")
    );
    std::process::exit(2);
}

struct Opts {
    seed: u64,
    schedules: u64,
    rate: f64,
    apps: Vec<&'static str>,
    systems: Vec<System>,
    versions: Vec<ProgVersion>,
    scale: WorkScale,
    only: Option<FaultKind>,
    json: bool,
    out: Option<String>,
}

fn parse() -> Opts {
    let mut o = Opts {
        seed: 20260807,
        schedules: 5,
        rate: 0.05,
        apps: APP_NAMES.to_vec(),
        systems: vec![System::Nvidia, System::Amd],
        versions: ProgVersion::all().to_vec(),
        scale: WorkScale::Default,
        only: None,
        json: false,
        out: None,
    };
    let mut args = Args::new(usage);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => o.seed = args.parse(),
            "--schedules" => {
                o.schedules = args.parse();
                if o.schedules == 0 {
                    usage();
                }
            }
            "--rate" => {
                o.rate = args.parse();
                if !(0.0..=1.0).contains(&o.rate) {
                    usage();
                }
            }
            "--app" => o.apps = vec![args.value_with(cli::app)],
            "--system" => o.systems = vec![args.value_with(cli::system)],
            "--version" => o.versions = vec![args.value_with(cli::version)],
            "--only" => {
                o.only = match args.value().as_str() {
                    "watchdog" => Some(FaultKind::Watchdog),
                    _ => usage(),
                }
            }
            "--test-scale" => o.scale = WorkScale::Test,
            "--json" => o.json = true,
            "--out" => o.out = Some(args.value()),
            _ => usage(),
        }
    }
    o
}

/// Running totals across the whole matrix, printed as the summary tail.
#[derive(Default)]
struct Tally {
    runs: u64,
    clean: u64,
    recovered_runs: u64,
    recovered_ops: u64,
    fallback_runs: u64,
    typed_errors: u64,
    panics: u64,
    divergences: u64,
}

fn finding(cell: &str, seed: u64, schedule: u64, severity: Severity, message: String) -> Finding {
    Finding {
        tool: "chaos".into(),
        kernel: cell.into(),
        location: format!("seed={seed} schedule={schedule}"),
        severity,
        message,
    }
}

fn main() {
    let o = parse();

    let mut findings: Vec<Finding> = Vec::new();
    let mut tally = Tally::default();

    for app in &o.apps {
        for &sys in &o.systems {
            for &version in &o.versions {
                let cell = format!("{app}/{}/{}", sys.label(), version.label(sys));

                // The fault-free baseline this cell must reproduce.
                let (baseline, base_report, _) =
                    run_app_chaos(app, sys, version, o.scale, FaultPlan::none());
                let baseline = match baseline {
                    Ok(b) => b,
                    Err(msg) => {
                        findings.push(finding(
                            &cell,
                            o.seed,
                            0,
                            Severity::Error,
                            format!("fault-free baseline failed: {msg}"),
                        ));
                        continue;
                    }
                };
                if !base_report.snapshot.injected.is_empty() {
                    findings.push(finding(
                        &cell,
                        o.seed,
                        0,
                        Severity::Error,
                        "quiet plan injected faults".into(),
                    ));
                }

                for k in 0..o.schedules {
                    let seed = o.seed.wrapping_add(k);
                    let mut plan = FaultPlan::seeded(seed, o.rate);
                    let mut lose = false;
                    if let Some(kind) = o.only {
                        // Kind-pure schedules: restrict the rate-based
                        // episodes and pin one explicit injection at launch
                        // op `k` (staggered so each schedule kills a
                        // different launch). No device loss, so every
                        // failure exercises the partial-commit +
                        // checkpoint-restore recovery path.
                        plan = plan.with_only_kind(kind).with_injection(FaultSite::Launch, k, kind);
                    } else {
                        // Every third schedule also loses the device mid-run
                        // to exercise the degradation paths.
                        lose = k % 3 == 2;
                        if lose {
                            // Early enough to fire even at test scale,
                            // staggered per schedule so different ops take
                            // the hit.
                            plan = plan.with_device_loss_at(2 + k);
                        }
                    }
                    let (result, report, _spans) = run_app_chaos(app, sys, version, o.scale, plan);
                    tally.runs += 1;
                    let snap = &report.snapshot;

                    let verdict = match result {
                        Ok(outcome) => {
                            tally.recovered_ops += snap.recovered;
                            if snap.recovered > 0 {
                                tally.recovered_runs += 1;
                            }
                            if outcome.checksum != baseline.checksum {
                                tally.divergences += 1;
                                findings.push(finding(
                                    &cell,
                                    seed,
                                    k,
                                    Severity::Error,
                                    format!(
                                        "checksum diverged from fault-free baseline \
                                         ({:#018x} != {:#018x}; {} injected, {} recovered, \
                                         {} fallbacks, {} degraded)",
                                        outcome.checksum,
                                        baseline.checksum,
                                        snap.injected.len(),
                                        snap.recovered,
                                        snap.fallbacks.len(),
                                        snap.degraded.len()
                                    ),
                                ));
                                "DIVERGED"
                            } else if !snap.fallbacks.is_empty() || !snap.degraded.is_empty() {
                                tally.fallback_runs += 1;
                                "fallback-validated"
                            } else {
                                tally.clean += 1;
                                "ok"
                            }
                        }
                        Err(msg) => {
                            if snap.sticky.is_empty() && !snap.device_lost {
                                tally.panics += 1;
                                findings.push(finding(
                                    &cell,
                                    seed,
                                    k,
                                    Severity::Error,
                                    format!("panic without a typed error: {msg}"),
                                ));
                                "PANIC"
                            } else {
                                tally.typed_errors += 1;
                                "typed-error"
                            }
                        }
                    };
                    if !o.json {
                        println!(
                            "{cell:28} seed={seed} {}-> {verdict:18} \
                             injected={} recovered={} fallbacks={} degraded={} sticky={}",
                            if lose { "lose-device " } else { "" },
                            snap.injected.len(),
                            snap.recovered,
                            snap.fallbacks.len(),
                            snap.degraded.len(),
                            snap.sticky.len()
                        );
                    }
                }
            }
        }
    }

    if o.json {
        print!("{}", render_json(&findings));
    } else {
        print!("{}", render_text(&findings));
        println!(
            "========= {} runs: {} clean, {} with recoveries ({} ops retried back to health), \
             {} fallback-validated, {} typed errors, {} panics, {} divergences",
            tally.runs,
            tally.clean,
            tally.recovered_runs,
            tally.recovered_ops,
            tally.fallback_runs,
            tally.typed_errors,
            tally.panics,
            tally.divergences
        );
    }
    if let Some(path) = &o.out {
        cli::write_file("chaos", path, &render_json(&findings));
    }
    std::process::exit(exit_code(&findings));
}
