//! `perfbench` — the repository benchmark: one workload per run, host
//! wall-clock and modeled metrics, output checks, and a traced mode that
//! splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-flat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (the gated end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The lines before
//! it are a human-readable report; `perfbench/out/` receives the full
//! report as JSON and, when traced, a Chrome trace and a per-layer table.

mod catalog;
mod host;
mod probes;
mod stats;
mod trace;
mod workload;

use catalog::{Metric, GATED, PER_LAYER, REPORTED};
use host::Host;
use stats::{geomean, median};
use std::collections::BTreeMap;
use std::process::{exit, Command};
use std::time::{Duration, Instant};
use trace::{escape, Tracer};
use workload::{scale_label, Kind, Pass, Workload};

/// Cold set-ups measured in fresh processes, besides this process's own.
const SETUP_CHILDREN: usize = 2;
/// Fewest timed passes per mode, however long they take.
const MIN_PASSES: usize = 3;
/// Where reports, traces and layer tables go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

fn usage() -> ! {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!("usage: perfbench --workload {} --seed N --seconds S --trace 0|1", names.join("|"));
    exit(2);
}

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run one cold set-up, print its seconds, exit.
    setup_only: bool,
}

fn parse(args: &[String]) -> Opts {
    let (mut kind, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(v).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(v.parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(v.parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (kind, seed, seconds, trace) {
        (Some(kind), Some(seed), Some(seconds), Some(trace)) => {
            Opts { kind, seed, seconds, trace, setup_only }
        }
        _ => usage(),
    }
}

/// Build the inputs and run the first, cold pass.
fn setup(kind: Kind, seed: u64) -> (f64, Workload, Pass) {
    let t0 = Instant::now();
    let w = Workload::new(kind, seed);
    let first = w.pass(None);
    (t0.elapsed().as_secs_f64(), w, first)
}

/// Cold set-up seconds of [`SETUP_CHILDREN`] fresh processes.
fn child_setups(o: &Opts) -> Vec<Result<f64, String>> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return vec![Err(format!("cannot locate own binary: {e}"))],
    };
    let seed = o.seed.to_string();
    let args = [
        "--workload",
        o.kind.name(),
        "--seed",
        &seed,
        "--seconds",
        "0",
        "--trace",
        "0",
        "--setup-only",
    ];
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(args)
                .output()
                .map_err(|e| format!("cannot start set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let secs = stdout.lines().last().and_then(|l| l.strip_prefix("setup_s ")?.parse().ok());
            match (out.status.success(), secs) {
                (true, Some(s)) => Ok(s),
                _ => Err(format!(
                    "set-up process failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Everything measured over a run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failures: Vec<String>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    layer_samples: Vec<BTreeMap<String, f64>>,
}

impl Run {
    fn absorb(&mut self, pass: Pass, reference: &[u64]) {
        self.attempted += pass.attempted;
        self.failures.extend(pass.failures);
        if pass.fingerprint != reference {
            self.failures.push("modeled outputs differ from the first pass".into());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args);
    let host = Host::pin(scale_label(o.kind.scale()), o.seed);
    let name = o.kind.name();

    if o.setup_only {
        let (secs, _, first) = setup(o.kind, o.seed);
        if let Some(f) = first.failures.first() {
            eprintln!("perfbench {name}: set-up pass failed: {f}");
            exit(1);
        }
        println!("setup_s {secs}");
        return;
    }

    let children = child_setups(&o);
    let (own_setup, w, first) = setup(o.kind, o.seed);
    let mut run =
        Run { attempted: first.attempted, failures: first.failures.clone(), ..Run::default() };
    let mut setups = vec![own_setup];
    for child in children {
        match child {
            Ok(secs) => setups.push(secs),
            Err(e) => run.failures.push(e),
        }
    }
    let tracer = o.trace.then(Tracer::new);
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    for i in 0.. {
        let enough = |v: &Vec<f64>| v.len() >= MIN_PASSES;
        if start.elapsed() >= budget
            && enough(&run.untraced_s)
            && (tracer.is_none() || enough(&run.traced_s))
        {
            break;
        }
        // Traced and untraced passes alternate, so both see the same host.
        let traced = tracer.as_ref().filter(|_| i % 2 == 1);
        let t0 = Instant::now();
        let pass = match traced {
            Some(t) => t.span("bench", format!("pass {i}"), || w.pass(Some(t))).0,
            None => w.pass(None),
        };
        let secs = t0.elapsed().as_secs_f64();
        if traced.is_some() {
            run.traced_s.push(secs);
            run.layer_samples.push(pass.layers.clone());
        } else {
            run.untraced_s.push(secs);
        }
        run.absorb(pass, &first.fingerprint);
    }
    let probes = o.trace.then(probes::run);

    if !host.workers_unchanged() {
        eprintln!(
            "perfbench {name}: refusing to report host metrics: simulator workers changed from the \
             recorded {} during the run",
            host.sim_workers
        );
        exit(3);
    }

    // End-to-end values, and the lines that explain them.
    let mut e2e: Vec<(&Metric, f64, String)> = Vec::new();
    let tail = stats::tail(&run.untraced_s);
    for m in GATED {
        let (v, how) = match m.name {
            "setup_s" => (
                median(&setups),
                format!(
                    "median of {} cold set-ups, {SETUP_CHILDREN} in fresh processes",
                    setups.len()
                ),
            ),
            "iter_s_p50" => (median(&run.untraced_s), format!("{} passes", run.untraced_s.len())),
            "iter_s_tail" => (
                tail.value,
                format!(
                    "p{:.1} of {} passes, {} beyond",
                    tail.percentile, tail.samples, tail.beyond
                ),
            ),
            "peak_rss_mb" => (host::peak_rss_mb(), "VmHWM".into()),
            _ => (geomean(&first.modeled), format!("over {} units of work", first.modeled.len())),
        };
        e2e.push((m, v, how));
    }
    let failed = run.failures.len() as u64;
    for m in REPORTED {
        let v = match m.name {
            "error_frac" => Some(failed as f64 / run.attempted.max(1) as f64),
            "fig8_err" => o.kind.is_sim().then(|| stats::fig8_err(&first.fig8)),
            serve => first.results.get(serve).copied(),
        };
        if let Some(v) = v {
            e2e.push((m, v, m.note.to_string()));
        }
    }

    // Per-layer values: medians over traced passes, probes, overhead.
    let mut layers: Vec<(&Metric, f64)> = Vec::new();
    if let Some(p) = probes {
        for m in PER_LAYER {
            let v = match m.name {
                "sim.serial.ns_per_thread" => p.serial_ns_per_thread,
                "sim.launch_us" => p.launch_us,
                "sim.team.ns_per_thread" => p.team_ns_per_thread,
                "sim.team.ns_per_barrier" => p.team_ns_per_barrier,
                "model.host_ns_per_call" => p.model_ns_per_call,
                "trace.overhead_s" => median(&run.traced_s) - median(&run.untraced_s),
                other => {
                    let xs: Vec<f64> = run
                        .layer_samples
                        .iter()
                        .map(|l| l.get(other).copied().unwrap_or(0.0))
                        .collect();
                    median(&xs)
                }
            };
            layers.push((m, if v.is_finite() { v } else { 0.0 }));
        }
    }

    let correct = run.failures.is_empty();
    print_report(name, &host, &run, &e2e, &layers);
    write_outputs(&o, &host, &run, &e2e, &layers, tracer.as_ref());

    let metrics: Vec<String> = if o.trace {
        layers.iter().map(|(m, v)| metric_json(m, *v)).collect()
    } else {
        e2e.iter()
            .filter(|(m, _, _)| GATED.iter().any(|g| g.name == m.name))
            .map(|(m, v, _)| metric_json(m, *v))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.attempted,
        metrics.join(", ")
    );
    exit(if correct { 0 } else { 1 });
}

fn metric_json(m: &Metric, v: f64) -> String {
    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(v), m.unit)
}

/// A JSON number, or `null` for a value that is not finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn print_report(
    name: &str,
    host: &Host,
    run: &Run,
    e2e: &[(&Metric, f64, String)],
    layers: &[(&Metric, f64)],
) {
    println!("perfbench {name}: host {}", host.to_json());
    for (m, v, how) in e2e {
        println!("  {:<28} {v:>14.6} {:<9} {how}", m.name, m.unit);
    }
    for (m, v) in layers {
        println!("  {:<28} {v:>14.6} {:<9} [{}] moves {}", m.name, m.unit, m.layer, m.note);
    }
    for f in run.failures.iter().take(20) {
        println!("  FAIL {f}");
    }
}

fn write_outputs(
    o: &Opts,
    host: &Host,
    run: &Run,
    e2e: &[(&Metric, f64, String)],
    layers: &[(&Metric, f64)],
    tracer: Option<&Tracer>,
) {
    let stem = format!("{OUT_DIR}/{}-seed{}", o.kind.name(), o.seed);
    let entries = |rows: Vec<(&Metric, f64, &str)>| -> String {
        rows.iter()
            .map(|(m, v, how)| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"layer\": \"{}\", \"note\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit,
                    m.better,
                    escape(m.layer),
                    escape(how)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let failures: Vec<String> = run.failures.iter().map(|f| format!("\"{}\"", escape(f))).collect();
    let report = format!(
        "{{\n  \"workload\": \"{}\",\n  \"host\": {},\n  \"trace\": {},\n  \"passes_untraced\": {},\n  \"passes_traced\": {},\n  \"attempted\": {},\n  \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }},\n  \"failures\": [{}]\n}}\n",
        o.kind.name(),
        host.to_json(),
        o.trace,
        run.untraced_s.len(),
        run.traced_s.len(),
        run.attempted,
        entries(e2e.iter().map(|(m, v, how)| (*m, *v, how.as_str())).collect()),
        entries(layers.iter().map(|(m, v)| (*m, *v, m.note)).collect()),
        failures.join(", ")
    );
    let mut files = vec![(format!("{stem}-trace{}.json", u8::from(o.trace)), report)];
    if let Some(t) = tracer {
        let spans = t.spans();
        let table = trace::layer_table(&spans);
        println!("  layer table (wall clock, traced passes):");
        for r in &table {
            println!(
                "    {:<16} {:>6} spans {:>10.4} s total {:>10.4} s self",
                r.layer, r.spans, r.total_s, r.self_s
            );
        }
        files.push((format!("{stem}.trace.json"), trace::chrome_json(&spans)));
        files.push((format!("{stem}-layers.tsv"), trace::layer_tsv(&table)));
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return;
    }
    for (path, text) in files {
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
}
