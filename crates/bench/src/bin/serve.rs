//! `serve` — replay a deterministic multi-tenant load against the
//! simulated device pool and assert the chaos trichotomy under load:
//!
//! ```text
//! serve --seed 20260808 --clients 1000 --tenants 8
//! serve --clients 200 --rate 0.05 --lose-at 10
//! serve --clients 1000 --bench-out results/BENCH_serve.json
//! serve --clients 1000 --baseline results/BENCH_serve.json
//! ```
//!
//! Every request must end as success, a typed error, a bit-identical
//! validated fallback, or a backpressure rejection — a corrupt response
//! (wrong checksum) is a finding in the same `{tool, kernel, location,
//! severity, message}` schema the other CLIs emit and drives a non-zero
//! exit. `--baseline` diffs the run's report against a committed
//! `BENCH_serve.json` field by field (strings and bools exact, numbers
//! to 1e-9 relative, every drift named by its path) and fails on drift;
//! the sweep and escalation documents are gated the same way.
//!
//! `--sweep` replays the same seeded load at a ladder of load factors
//! (`--sweep-factors`, default 0.5..3.0, 7 points) and emits the
//! throughput / p50/p95/p99-vs-load curve as `BENCH_sweep.json`
//! (`--bench-out`) and CSV (`--csv-out`); `--baseline` then gates the
//! sweep document instead of the single-point report. `--metrics-out` /
//! `--metrics-json` dump a single run's deterministic metric snapshot in
//! Prometheus text / JSON form — identical seeded runs produce
//! bit-identical files, which CI diffs directly. Each output flag is
//! accepted only by the modes that write it: `--csv-out` by `--sweep` and
//! `--escalate`, `--metrics-out`, `--metrics-json` and `--trace` by the
//! single run; any other pairing prints usage and exits 2.
//!
//! `--escalate` runs the chaos-escalation campaign instead: the same
//! seeded load replayed at a ladder of fault-rate multipliers
//! (`--multipliers`, default 1,2,4,8,16), asserting the per-rung SLO
//! contract (interactive p99 within deadline, zero corrupt verdicts,
//! shed fraction monotone in pressure) and emitting
//! `BENCH_resilience.json` (`--bench-out`) and CSV (`--csv-out`);
//! contract breaches are findings and drive a non-zero exit. `--spares N`
//! benches N warm spares that promote on device loss in any mode.

use ompx_bench::cli::{self, Args};
use ompx_prof::chrome::to_chrome_trace;
use ompx_sanitizer::report::{exit_code, render_json as findings_json, render_text};
use ompx_sanitizer::{Finding, Severity};
use ompx_serve::{
    build_report, escalate, render_escalate_csv, render_escalate_json, render_json,
    render_sweep_csv, render_sweep_json, serve, sweep, DeviceKind, LoadSpec, ServeConfig,
    ServeError, ServeReport, Verdict,
};
use ompx_sim::fault::FaultPlan;
use ompx_telemetry::{to_json as metrics_json, to_prometheus};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--seed N] [--clients N] [--tenants N]\n\
         \x20           [--devices a100,a100,mi250,mi250] [--spares N] [--max-batch N]\n\
         \x20           [--queue-cap N] [--load-factor F] [--rate F] [--lose-at N]\n\
         \x20           [--no-faults] [--default-scale] [--json] [--bench-out FILE]\n\
         \x20           [--trace FILE] [--baseline FILE]\n\
         \x20           [--metrics-out FILE] [--metrics-json FILE]\n\
         \x20           [--sweep] [--sweep-factors F,F,...] [--csv-out FILE]\n\
         \x20           [--escalate] [--multipliers F,F,...]"
    );
    std::process::exit(2);
}

struct Opts {
    cfg: ServeConfig,
    spec: LoadSpec,
    json: bool,
    bench_out: Option<String>,
    trace: Option<String>,
    baseline: Option<String>,
    metrics_out: Option<String>,
    metrics_json: Option<String>,
    sweep: bool,
    sweep_factors: Vec<f64>,
    escalate: bool,
    multipliers: Vec<f64>,
    csv_out: Option<String>,
}

/// A serve-layer failure rendered as a finding, so every error path
/// exits through the same reporting machinery (and non-zero).
fn error_findings(e: &ServeError) -> Vec<Finding> {
    vec![Finding {
        tool: "serve".to_string(),
        kernel: "-".to_string(),
        location: "serve".to_string(),
        severity: Severity::Error,
        message: e.to_string(),
    }]
}

fn fail(o: &Opts, e: &ServeError) -> ! {
    let findings = error_findings(e);
    if o.json {
        print!("{}", findings_json(&findings));
    } else {
        print!("{}", render_text(&findings));
    }
    std::process::exit(exit_code(&findings));
}

/// A comma-separated list of numbers; `usage` when one does not parse.
fn factors(list: &str) -> Vec<f64> {
    list.split(',').map(|f| f.trim().parse().unwrap_or_else(|_| usage())).collect()
}

fn parse() -> Opts {
    let mut cfg = ServeConfig::new(20260808);
    let mut spec = LoadSpec { seed: 20260808, clients: 1000, tenants: 8 };
    // Default chaos: a low fault rate everywhere plus one scheduled
    // device loss (member 0 only, per FaultPlan::for_pool_member).
    let mut rate = 0.02;
    let mut lose_at = Some(40);
    let mut faults = true;
    let (mut sweep_factors, mut multipliers) = (None, None);
    let mut o = Opts {
        cfg: cfg.clone(),
        spec,
        json: false,
        bench_out: None,
        trace: None,
        baseline: None,
        metrics_out: None,
        metrics_json: None,
        sweep: false,
        sweep_factors: ompx_serve::DEFAULT_FACTORS.to_vec(),
        escalate: false,
        multipliers: ompx_serve::DEFAULT_MULTIPLIERS.to_vec(),
        csv_out: None,
    };
    let mut args = Args::new(usage);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => {
                let v: u64 = args.parse();
                cfg.seed = v;
                spec.seed = v;
            }
            "--clients" => spec.clients = args.parse(),
            "--tenants" => spec.tenants = args.parse(),
            "--devices" => {
                cfg.devices = args
                    .value()
                    .split(',')
                    .map(|d| match d.trim() {
                        "a100" => DeviceKind::A100,
                        "mi250" => DeviceKind::Mi250,
                        _ => usage(),
                    })
                    .collect();
            }
            "--spares" => {
                let n: usize = args.parse();
                // Alternate profiles starting with A100 so a mixed bench
                // can cover either side of the pool.
                cfg.spares = (0..n)
                    .map(|i| if i % 2 == 0 { DeviceKind::A100 } else { DeviceKind::Mi250 })
                    .collect();
            }
            "--max-batch" => cfg.max_batch = args.parse(),
            "--queue-cap" => cfg.queue_cap = args.parse(),
            "--load-factor" => cfg.load_factor = args.parse(),
            "--rate" => rate = args.parse(),
            "--lose-at" => lose_at = Some(args.parse()),
            "--no-faults" => faults = false,
            "--default-scale" => cfg.scale = ompx_hecbench::WorkScale::Default,
            "--json" => o.json = true,
            "--bench-out" => o.bench_out = Some(args.value()),
            "--trace" => o.trace = Some(args.value()),
            "--baseline" => o.baseline = Some(args.value()),
            "--metrics-out" => o.metrics_out = Some(args.value()),
            "--metrics-json" => o.metrics_json = Some(args.value()),
            "--sweep" => o.sweep = true,
            "--sweep-factors" => sweep_factors = Some(factors(&args.value())),
            "--escalate" => o.escalate = true,
            "--multipliers" => multipliers = Some(factors(&args.value())),
            "--csv-out" => o.csv_out = Some(args.value()),
            _ => usage(),
        }
    }
    if faults {
        let mut plan = FaultPlan::seeded(cfg.seed, rate);
        if let Some(n) = lose_at {
            plan = plan.with_device_loss_at(n);
        }
        cfg.plan = Some(plan);
    }
    if spec.tenants == 0 || spec.clients == 0 {
        usage();
    }
    // An output flag the chosen mode never writes is a usage error, not a
    // silently missing file: the campaigns write no metrics snapshot or
    // timeline, the single run writes no CSV.
    let campaign = o.sweep || o.escalate;
    let single_run_only = o.metrics_out.is_some() || o.metrics_json.is_some() || o.trace.is_some();
    if (campaign && single_run_only) || (!campaign && o.csv_out.is_some()) {
        usage();
    }
    // One mode per run, and a ladder only for the campaign that climbs it.
    if (o.sweep && o.escalate)
        || (sweep_factors.is_some() && !o.sweep)
        || (multipliers.is_some() && !o.escalate)
    {
        usage();
    }
    o.sweep_factors = sweep_factors.unwrap_or(o.sweep_factors);
    o.multipliers = multipliers.unwrap_or(o.multipliers);
    o.cfg = cfg;
    o.spec = spec;
    o
}

fn main() {
    let o = parse();
    if o.escalate {
        run_escalate(&o);
        return;
    }
    if o.sweep {
        run_sweep(&o);
        return;
    }

    let start = std::time::Instant::now();
    let out = match serve(&o.cfg, &o.spec) {
        Ok(out) => out,
        Err(e) => fail(&o, &e),
    };
    let wall = start.elapsed();
    let report = build_report(
        o.cfg.seed,
        o.spec.clients,
        o.spec.tenants,
        &out.responses,
        &out.pool,
        &out.stats,
    );

    // The trichotomy assertion: corrupt responses are findings.
    let findings: Vec<Finding> = out
        .responses
        .iter()
        .filter_map(|r| match &r.verdict {
            Verdict::Corrupt(msg) => Some(Finding {
                tool: "serve".to_string(),
                kernel: format!("{}@{:?}", r.app, r.member),
                location: format!("request {} tenant {}", r.id, r.tenant),
                severity: Severity::Error,
                message: format!("trichotomy violation: {msg}"),
            }),
            _ => None,
        })
        .collect();

    let json = render_json(&report);
    if o.json {
        print!("{json}");
    } else {
        print_text(&report);
    }
    eprintln!(
        "serve: {} clients over {} tenants on {} devices in {:.2}s wall ({:.3}s modeled)",
        o.spec.clients,
        o.spec.tenants,
        o.cfg.devices.len(),
        wall.as_secs_f64(),
        report.makespan_s
    );
    if !findings.is_empty() {
        if o.json {
            print!("{}", findings_json(&findings));
        } else {
            print!("{}", render_text(&findings));
        }
    }

    if let Some(path) = &o.bench_out {
        cli::write_file("serve", path, &json);
        eprintln!("serve: report written to {path}");
    }
    if let Some(path) = &o.trace {
        cli::write_file("serve", path, &to_chrome_trace(&out.spans));
        eprintln!("serve: timeline trace written to {path} ({} spans)", out.spans.len());
    }
    if o.metrics_out.is_some() || o.metrics_json.is_some() {
        let snap = out.metrics.as_ref().expect("serve sessions install a metric registry");
        if let Some(path) = &o.metrics_out {
            cli::write_file("serve", path, &to_prometheus(snap));
            eprintln!("serve: Prometheus metrics written to {path}");
        }
        if let Some(path) = &o.metrics_json {
            cli::write_file("serve", path, &metrics_json(snap));
            eprintln!("serve: JSON metrics written to {path}");
        }
    }
    if let Some(path) = &o.baseline {
        cli::gate("serve", "baseline", path, &json);
    }
    std::process::exit(exit_code(&findings));
}

/// The `--sweep` mode: one seeded run per load factor, curve outputs,
/// and the sweep-document baseline gate.
fn run_sweep(o: &Opts) {
    let start = std::time::Instant::now();
    let s = match sweep(&o.cfg, &o.spec, &o.sweep_factors) {
        Ok(s) => s,
        Err(e) => fail(o, &e),
    };
    let wall = start.elapsed();
    let json = render_sweep_json(&s);
    if o.json {
        print!("{json}");
    } else {
        println!("serve sweep (seed {}, {} clients, {} tenants)", s.seed, s.clients, s.tenants);
        println!(
            "  {:>11} {:>10} {:>9} {:>12} {:>10} {:>10} {:>10}",
            "load_factor", "completed", "rejected", "rps", "p50_s", "p95_s", "p99_s"
        );
        for p in &s.points {
            println!(
                "  {:>11.2} {:>10} {:>9} {:>12.1} {:>10.4} {:>10.4} {:>10.4}",
                p.load_factor,
                p.completed,
                p.rejected,
                p.throughput_rps,
                p.latency_p50_s,
                p.latency_p95_s,
                p.latency_p99_s
            );
        }
    }
    eprintln!("serve: swept {} load factors in {:.2}s wall", s.points.len(), wall.as_secs_f64());
    if let Some(path) = &o.bench_out {
        cli::write_file("serve", path, &json);
        eprintln!("serve: sweep report written to {path}");
    }
    if let Some(path) = &o.csv_out {
        cli::write_file("serve", path, &render_sweep_csv(&s));
        eprintln!("serve: sweep CSV written to {path}");
    }
    if let Some(path) = &o.baseline {
        cli::gate("serve", "sweep baseline", path, &json);
    }
}

/// The `--escalate` mode: one seeded chaos run per fault-rate
/// multiplier, the per-rung SLO contract, campaign outputs, and the
/// resilience-document baseline gate.
fn run_escalate(o: &Opts) {
    let start = std::time::Instant::now();
    let e = match escalate(&o.cfg, &o.spec, &o.multipliers) {
        Ok(e) => e,
        Err(err) => fail(o, &err),
    };
    let wall = start.elapsed();
    let json = render_escalate_json(&e);
    if o.json {
        print!("{json}");
    } else {
        println!(
            "serve escalation (seed {}, {} clients, {} tenants, base rate {:.4})",
            e.seed, e.clients, e.tenants, e.base_rate
        );
        println!(
            "  {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7} {:>8} {:>7}",
            "multiplier",
            "completed",
            "rejected",
            "corrupt",
            "shed_frac",
            "int_p99r",
            "hedges",
            "breakers",
            "spares"
        );
        for r in &e.rungs {
            println!(
                "  {:>10.1} {:>9} {:>9} {:>8} {:>9.4} {:>9.4} {:>7} {:>8} {:>7}",
                r.multiplier,
                r.completed,
                r.rejected,
                r.corrupt,
                r.shed_frac,
                r.interactive_p99_ratio,
                r.hedges_launched,
                r.breaker_opens,
                r.spares_promoted
            );
        }
    }
    eprintln!("serve: escalated over {} rungs in {:.2}s wall", e.rungs.len(), wall.as_secs_f64());
    // SLO contract breaches are findings: same schema, non-zero exit.
    let findings: Vec<Finding> = e
        .violations
        .iter()
        .map(|v| Finding {
            tool: "serve".to_string(),
            kernel: "-".to_string(),
            location: "escalate".to_string(),
            severity: Severity::Error,
            message: format!("SLO contract breach: {v}"),
        })
        .collect();
    if !findings.is_empty() {
        if o.json {
            print!("{}", findings_json(&findings));
        } else {
            print!("{}", render_text(&findings));
        }
    }
    if let Some(path) = &o.bench_out {
        cli::write_file("serve", path, &json);
        eprintln!("serve: resilience report written to {path}");
    }
    if let Some(path) = &o.csv_out {
        cli::write_file("serve", path, &render_escalate_csv(&e));
        eprintln!("serve: resilience CSV written to {path}");
    }
    if let Some(path) = &o.baseline {
        cli::gate("serve", "resilience baseline", path, &json);
    }
    std::process::exit(exit_code(&findings));
}

fn print_text(r: &ServeReport) {
    println!("serve report (seed {})", r.seed);
    println!(
        "  requests: {} total, {} completed ({} success / {} fallback / {} typed-error), {} rejected, {} corrupt",
        r.total, r.completed, r.success, r.fallback, r.typed_error, r.rejected, r.corrupt
    );
    println!(
        "  modeled: makespan {:.3}s, throughput {:.1} req/s, latency p50 {:.3}s p99 {:.3}s",
        r.makespan_s, r.throughput_rps, r.latency_p50_s, r.latency_p99_s
    );
    println!("  batches: {} (max {}, mean {:.2})", r.batch_count, r.batch_max, r.batch_mean);
    for c in &r.classes {
        println!(
            "  class {}: {} completed, {} shed, {} deadline misses (lateness p99 {:.3})",
            c.class, c.completed, c.shed, c.deadline_misses, c.lateness_p99
        );
    }
    let s = &r.resilience;
    println!(
        "  resilience: {} hedges ({} won, {} skipped), {} breaker opens, {} spares promoted",
        s.hedges_launched, s.hedges_won, s.hedges_skipped, s.breaker_opens, s.spares_promoted
    );
    for d in &r.devices {
        println!(
            "  device {} [{}]: served {} in {} batches, busy {:.3}s{}{}",
            d.member,
            d.kind,
            d.served,
            d.batches,
            d.busy_s,
            if d.lost { " — LOST" } else { "" },
            if d.standby { " — SPARE" } else { "" }
        );
    }
    for t in &r.fairness {
        println!(
            "  tenant {}: served {} ({:.1}% share), rejected {}",
            t.tenant,
            t.served,
            100.0 * t.share,
            t.rejected
        );
    }
}
