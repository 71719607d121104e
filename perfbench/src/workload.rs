//! The four workloads: what each runs, one pass over it, and the output
//! checks every pass must clear. Per-layer numbers are taken from outside
//! the program: wall-clock spans around the calls below, and counts read
//! from the public outputs (`RunOutcome`, `ServeResult`, the telemetry
//! snapshot and span log of each cell).

use crate::stats::{self, median};
use crate::trace::Tracer;
use ompx_bench::paper_reference_seconds;
use ompx_hecbench::common::splitmix64;
use ompx_hecbench::extraction::extract_cell;
use ompx_hecbench::{
    run_app, run_app_sanitized, with_mem_trace_full, with_span_log, ProgVersion, RunOutcome,
    System, WorkScale, APP_NAMES,
};
use ompx_resilience::Priority;
use ompx_serve::{serve, LoadSpec, ServeConfig, ServeResult, Verdict};
use ompx_sim::fault::FaultPlan;
use ompx_sim::san::ToolMask;
use ompx_sim::span::{SpanCategory, Track};
use ompx_sim::timing::ModeledTime;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SimFlat,
    SimTiled,
    ServeMixed,
    ToolsAttached,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::SimFlat, Kind::SimTiled, Kind::ServeMixed, Kind::ToolsAttached];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SimFlat => "sim-flat",
            Kind::SimTiled => "sim-tiled",
            Kind::ServeMixed => "serve-mixed",
            Kind::ToolsAttached => "tools-attached",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Functional scale of the simulated cells.
    pub fn scale(self) -> WorkScale {
        match self {
            Kind::SimFlat => WorkScale::Default,
            _ => WorkScale::Test,
        }
    }

    pub fn is_sim(self) -> bool {
        matches!(self, Kind::SimFlat | Kind::SimTiled)
    }
}

pub fn scale_label(scale: WorkScale) -> &'static str {
    match scale {
        WorkScale::Test => "test",
        WorkScale::Default => "default",
    }
}

/// The checksum every program version of `app` must produce on both
/// systems. The default-scale values are the ones committed in
/// `results/BENCH_simspeed.json`.
fn reference(app: &str, scale: WorkScale) -> u64 {
    match (scale, app) {
        (WorkScale::Default, "xsbench") => 0x1013_746e_5fd6_4d4a,
        (WorkScale::Default, "rsbench") => 0x94e7_913c_6843_de54,
        (WorkScale::Default, "su3") => 0x70b2_422e_ad89_858d,
        (WorkScale::Default, "aidw") => 0x2094_d512_e48a_97fc,
        (WorkScale::Default, "adam") => 0xd0cc_fbc6_3586_5a73,
        (WorkScale::Default, "stencil") => 0x46fb_94b4_fe5a_e30a,
        (WorkScale::Test, "xsbench") => 0x7e55_ee01_173f_74ab,
        (WorkScale::Test, "rsbench") => 0xd131_98d8_e5c0_b4c9,
        (WorkScale::Test, "su3") => 0xeb6c_27b4_62dc_e308,
        (WorkScale::Test, "aidw") => 0x44f1_4c06_e6b5_d3bb,
        (WorkScale::Test, "adam") => 0x407d_7d29_f6e5_ab3a,
        (WorkScale::Test, "stencil") => 0x13be_4641_8fc5_dd44,
        _ => panic!("no reference checksum for {app}"),
    }
}

/// The serve CLI's default run: its seed, 1000 clients over 8 tenants,
/// a 2 % fault rate with pool member 0 lost at its 40th operation.
const SERVE_SEED: u64 = 20260808;
const SERVE_CLIENTS: u32 = 1000;
const SERVE_TENANTS: u32 = 8;
const SERVE_FAULT_RATE: f64 = 0.02;
const SERVE_LOSE_AT: u64 = 40;
/// Nominally under capacity, and overload.
const LOAD_FACTORS: [(f64, &str); 2] = [(0.5, "lf0.5"), (1.3, "lf1.3")];

/// One (app, system, program version) cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    app: &'static str,
    sys: System,
    version: ProgVersion,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.app, self.version.label(self.sys), self.sys.label())
    }

    /// Kernels with block barriers run on the simulator's team path.
    fn uses_barriers(&self) -> bool {
        matches!(self.app, "stencil" | "aidw") && self.version != ProgVersion::Omp
    }

    fn run(&self, scale: WorkScale) -> Result<RunOutcome, String> {
        catch(|| run_app(self.app, self.sys, self.version, scale))
    }
}

/// The layer track a cell's `run_app` span lands on, and its runtime key.
fn runtime(version: ProgVersion) -> (&'static str, &'static str) {
    match version {
        ProgVersion::Ompx => ("ompx", "ompx"),
        ProgVersion::Omp => ("hostrt", "omp"),
        ProgVersion::Native => ("klang", "native"),
        ProgVersion::NativeVendor => ("klang", "vendor"),
    }
}

/// Run `f`, turning a panic into its message.
fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".into())
    })
}

/// Run `f` in a span when tracing; the duration is 0 otherwise.
fn span<R>(
    tr: Option<&Tracer>,
    layer: &'static str,
    name: String,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tr {
        Some(t) => t.span(layer, name, f),
        None => (f(), 0.0),
    }
}

fn add(map: &mut BTreeMap<String, f64>, key: &str, v: f64) {
    *map.entry(key.to_string()).or_insert(0.0) += v;
}

/// What one pass attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Modeled seconds per unit of work, for `modeled_s_geomean`.
    pub modeled: Vec<f64>,
    /// `(modeled, paper)` seconds per Figure 8 bar, for `fig8_err`.
    pub fig8: Vec<(f64, f64)>,
    /// Every modeled output as bits; it must repeat on every pass.
    pub fingerprint: Vec<u64>,
    /// Modeled serving results, by metric name.
    pub results: BTreeMap<String, f64>,
    /// Per-layer metrics, by name.
    pub layers: BTreeMap<String, f64>,
}

impl Pass {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn check_checksum(&mut self, cell: &Cell, checksum: u64, scale: WorkScale) {
        let want = reference(cell.app, scale);
        if checksum != want {
            self.fail(format!(
                "{}: checksum {checksum:#018x}, reference {want:#018x}",
                cell.label()
            ));
        }
    }

    fn record_cell(&mut self, cell: &Cell, o: &RunOutcome, scale: WorkScale) {
        self.check_checksum(cell, o.checksum, scale);
        self.modeled.push(o.reported_seconds);
        self.fingerprint.push(o.reported_seconds.to_bits());
    }

    /// Timing-model components summed over the cells' representative
    /// kernels (one per cell: the kernel its `RunOutcome` models).
    fn record_model(&mut self, models: &[ModeledTime]) {
        for m in models {
            for (name, v) in [
                ("model.t_launch_s", m.t_launch),
                ("model.t_mode_s", m.t_mode),
                ("model.t_bandwidth_s", m.t_bandwidth),
                ("model.t_latency_s", m.t_latency),
                ("model.t_compute_s", m.t_compute),
                ("model.t_shared_s", m.t_shared),
                ("model.t_barrier_s", m.t_barrier),
                ("model.t_serial_s", m.t_serial),
                ("model.occupancy_mean", m.occupancy / models.len() as f64),
            ] {
                add(&mut self.layers, name, v);
            }
        }
    }
}

pub struct Workload {
    pub kind: Kind,
    seed: u64,
    cells: Vec<Cell>,
}

impl Workload {
    /// The workload's inputs for `seed`: its cells in seeded order.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut cells = Vec::new();
        let mut push = |app, sys, versions: &[ProgVersion]| {
            cells.extend(versions.iter().map(|&version| Cell { app, sys, version }));
        };
        let all = ProgVersion::all();
        match kind {
            Kind::SimFlat => {
                for sys in [System::Nvidia, System::Amd] {
                    for app in ["xsbench", "rsbench", "su3", "adam"] {
                        push(app, sys, &all);
                    }
                    push("aidw", sys, &[ProgVersion::Omp]);
                    push("stencil", sys, &[ProgVersion::Omp]);
                }
            }
            Kind::SimTiled => {
                for app in ["stencil", "aidw"] {
                    let tiled = [ProgVersion::Ompx, ProgVersion::Native, ProgVersion::NativeVendor];
                    push(app, System::Nvidia, &tiled);
                }
            }
            Kind::ToolsAttached => {
                for app in APP_NAMES {
                    push(app, System::Nvidia, &all);
                }
            }
            Kind::ServeMixed => {}
        }
        shuffle(&mut cells, seed);
        Workload { kind, seed, cells }
    }

    /// One pass over the inputs, traced when `tr` is given.
    pub fn pass(&self, tr: Option<&Tracer>) -> Pass {
        match self.kind {
            Kind::SimFlat | Kind::SimTiled => self.sim_pass(tr),
            Kind::ToolsAttached => self.tools_pass(tr),
            Kind::ServeMixed => self.serve_pass(tr),
        }
    }

    fn sim_pass(&self, tr: Option<&Tracer>) -> Pass {
        let scale = self.kind.scale();
        let mut p = Pass::default();
        let mut models = Vec::new();
        for cell in &self.cells {
            let label = cell.label();
            let outcome = match tr {
                None => cell.run(scale),
                Some(t) => {
                    let (layer, rt) = runtime(cell.version);
                    let (((res, snap), spans), secs) = t.span(layer, label.clone(), || {
                        with_span_log(|| ompx_telemetry::with_metrics(|| cell.run(scale)))
                    });
                    let family = |name: &str| -> f64 {
                        snap.samples
                            .iter()
                            .filter(|s| s.name == name)
                            .map(|s| match s.value {
                                ompx_telemetry::MetricValue::Counter(c) => c as f64,
                                _ => 0.0,
                            })
                            .sum()
                    };
                    let count = |cat| spans.iter().filter(|s| s.cat == cat).count() as f64;
                    let l = &mut p.layers;
                    add(l, &format!("rt.{rt}.host_s"), secs);
                    if cell.uses_barriers() {
                        add(
                            l,
                            &format!("cell.{}.{}.host_s", cell.app, cell.version.label(cell.sys)),
                            secs,
                        );
                    }
                    add(l, "rt.launches", family("sim_launches_total"));
                    add(l, "rt.memcpys", family("sim_memcpys_total"));
                    add(l, "rt.memcpy_bytes", family("sim_memcpy_bytes_total"));
                    add(l, "rt.tasks", count(SpanCategory::Task));
                    add(l, "rt.syncs", count(SpanCategory::Sync));
                    res
                }
            };
            p.attempted += 1;
            match outcome {
                Err(msg) => p.fail(format!("{label}: panicked: {msg}")),
                Ok(o) => {
                    p.record_cell(cell, &o, scale);
                    models.push(o.kernel_model);
                    if let Some(paper) = paper_reference_seconds(cell.app, cell.sys, &o.label) {
                        p.fig8.push((o.reported_seconds, paper));
                    }
                }
            }
        }
        if tr.is_some() {
            let rt_s: f64 = ["ompx", "omp", "native", "vendor"]
                .iter()
                .filter_map(|rt| p.layers.get(&format!("rt.{rt}.host_s")))
                .sum();
            let launches = p.layers.get("rt.launches").copied().unwrap_or(0.0);
            add(&mut p.layers, "rt.host_us_per_launch", rt_s * 1e6 / launches.max(1.0));
        }
        p.record_model(&models);
        p
    }

    fn tools_pass(&self, tr: Option<&Tracer>) -> Pass {
        let scale = self.kind.scale();
        let mut p = Pass::default();
        let mut models = Vec::new();
        let mut bare_s: HashMap<String, f64> = HashMap::new();
        let (mut san_s, mut findings) = (0.0, 0usize);
        for cell in &self.cells {
            let label = cell.label();
            let (res, secs) = span(tr, "sanitizer", label.clone(), || {
                catch(|| run_app_sanitized(cell.app, cell.sys, cell.version, scale, ToolMask::ALL))
            });
            san_s += secs;
            p.attempted += 1;
            match res {
                Err(msg) => p.fail(format!("{label} sanitized: panicked: {msg}")),
                Ok((o, diags)) => {
                    p.record_cell(cell, &o, scale);
                    models.push(o.kernel_model);
                    findings += diags.len();
                    if let Some(d) = diags.first() {
                        p.fail(format!(
                            "{label}: {} finding(s) on a clean cell, first {:?}",
                            diags.len(),
                            d.kind
                        ));
                    }
                }
            }
            if let Some(t) = tr {
                // The same cell bare: the denominator of tools.overhead_ratio.
                let (layer, rt) = runtime(cell.version);
                let (res, secs) = t.span(layer, label.clone(), || cell.run(scale));
                p.attempted += 1;
                match res {
                    Err(msg) => p.fail(format!("{label}: panicked: {msg}")),
                    Ok(o) => p.check_checksum(cell, o.checksum, scale),
                }
                add(&mut p.layers, &format!("rt.{rt}.host_s"), secs);
                bare_s.insert(label, secs);
            }
        }
        let (mut events, mut barriers, mut hook_s) = (0usize, 0usize, 0.0);
        for cell in self.cells.iter().filter(|c| c.uses_barriers()) {
            let label = cell.label();
            let ((res, ev, bar), secs) =
                span(tr, "memtrace", label.clone(), || with_mem_trace_full(|| cell.run(scale)));
            p.attempted += 1;
            match res {
                Err(msg) => p.fail(format!("{label} traced: panicked: {msg}")),
                Ok(o) => p.check_checksum(cell, o.checksum, scale),
            }
            if ev.is_empty() || bar.is_empty() {
                p.fail(format!(
                    "{label}: memtrace recorded {} events, {} barriers",
                    ev.len(),
                    bar.len()
                ));
            }
            p.fingerprint.extend([ev.len() as u64, bar.len() as u64]);
            events += ev.len();
            barriers += bar.len();
            hook_s += secs - bare_s.get(&label).copied().unwrap_or(secs);
        }
        let mut extract_s = 0.0;
        for cell in self.cells.iter().filter(|c| c.app == "stencil" && c.uses_barriers()) {
            let label = cell.label();
            let (res, secs) = span(tr, "analyzer", label.clone(), || {
                catch(|| extract_cell(cell.app, cell.sys, cell.version))
            });
            extract_s += secs;
            p.attempted += 1;
            match res {
                Err(msg) => p.fail(format!("{label} extraction: panicked: {msg}")),
                Ok(Err(e)) => p.fail(format!("{label} extraction: {e}")),
                Ok(Ok(report)) => {
                    if let Some(f) = report.failures().first() {
                        p.fail(format!("{label} extraction not accepted: {f}"));
                    }
                }
            }
        }
        let l = &mut p.layers;
        add(l, "san.findings", findings as f64);
        add(l, "memtrace.events", events as f64);
        add(l, "memtrace.barrier_events", barriers as f64);
        if tr.is_some() {
            let bare: f64 = bare_s.values().sum();
            add(l, "san.host_s", san_s);
            add(l, "memtrace.host_ns_per_event", hook_s * 1e9 / (events + barriers).max(1) as f64);
            add(l, "analyzer.extract_host_s", extract_s);
            add(l, "tools.overhead_ratio", san_s / bare);
        }
        p.record_model(&models);
        p
    }

    fn serve_pass(&self, tr: Option<&Tracer>) -> Pass {
        let spec = LoadSpec { seed: SERVE_SEED, clients: SERVE_CLIENTS, tenants: SERVE_TENANTS };
        let mut p = Pass::default();
        let mut acc = ServeLayers::default();
        // The seed orders the two calls; the load itself is pinned (see
        // the benchmark's README for why).
        let mut order = LOAD_FACTORS;
        if self.seed % 2 == 1 {
            order.reverse();
        }
        for (lf, tag) in order {
            let mut cfg = ServeConfig::new(SERVE_SEED);
            cfg.load_factor = lf;
            cfg.plan = Some(
                FaultPlan::seeded(SERVE_SEED, SERVE_FAULT_RATE).with_device_loss_at(SERVE_LOSE_AT),
            );
            if let Some(t) = tr {
                let (reqs, secs) = t.span("serve.loadgen", format!("offered {tag}"), || {
                    ompx_serve::loadgen::offered(&spec)
                });
                std::hint::black_box(reqs);
                acc.loadgen_s += secs;
            }
            let (res, secs) =
                span(tr, "serve", format!("serve {tag}"), || catch(|| serve(&cfg, &spec)));
            p.attempted += u64::from(SERVE_CLIENTS);
            match res {
                Err(msg) => p.fail(format!("serve {tag}: panicked: {msg}")),
                Ok(Err(e)) => p.fail(format!("serve {tag}: {e}")),
                Ok(Ok(out)) => {
                    check_serve(&mut p, tag, &out);
                    acc.add(tag, &out, secs);
                }
            }
        }
        acc.emit(&mut p.layers, tr.is_some());
        p
    }
}

/// Check one serve call's responses and record its modeled results.
fn check_serve(p: &mut Pass, tag: &str, out: &ServeResult) {
    for (app, &sum) in &out.expected {
        let want = reference(app, WorkScale::Test);
        if sum != want {
            p.fail(format!(
                "serve {tag}: warmup checksum of {app} {sum:#018x}, reference {want:#018x}"
            ));
        }
    }
    let mut latencies = Vec::new();
    for r in &out.responses {
        match &r.verdict {
            Verdict::Corrupt(msg) => {
                p.fail(format!("serve {tag}: request {} corrupt: {msg}", r.id))
            }
            Verdict::TypedError(msg) => {
                p.fail(format!("serve {tag}: request {} failed: {msg}", r.id))
            }
            Verdict::Success | Verdict::Fallback if !stats::completed_ok(r, &out.expected) => p
                .fail(format!(
                    "serve {tag}: request {} checksum {:?} does not match",
                    r.id, r.checksum
                )),
            Verdict::Success | Verdict::Fallback => latencies.push(r.latency_s()),
            Verdict::Rejected(_) => {}
        }
        p.fingerprint.push(r.done_s.to_bits());
    }
    p.modeled.extend(&latencies);
    let res = &mut p.results;
    res.insert(format!("serve_slo_frac.{tag}"), stats::slo_frac(&out.responses, &out.expected));
    res.insert(format!("serve_latency_p50_s.{tag}"), median(&latencies));
    res.insert(format!("serve_latency_tail_s.{tag}"), stats::tail(&latencies).value);
    if tag == "lf1.3" {
        let good = out.responses.iter().filter(|r| stats::completed_ok(r, &out.expected)).count();
        let makespan = out.responses.iter().map(|r| r.done_s).fold(0.0, f64::max);
        res.insert("serve_goodput_rps.lf1.3".into(), good as f64 / makespan);
    }
}

/// Serving-layer numbers pooled over a pass's calls.
#[derive(Default)]
struct ServeLayers {
    offered: [u64; 3],
    shed: [u64; 3],
    queue_waits: Vec<f64>,
    service: Vec<f64>,
    batches: u64,
    completed: u64,
    busy_skew: f64,
    counts: BTreeMap<&'static str, u64>,
    requests: u64,
    serve_s: f64,
    loadgen_s: f64,
    calls: u64,
}

impl ServeLayers {
    fn add(&mut self, tag: &str, out: &ServeResult, secs: f64) {
        for r in &out.responses {
            let class = Priority::ALL.iter().position(|&c| c == r.priority).unwrap_or(0);
            self.offered[class] += 1;
            if matches!(r.verdict, Verdict::Rejected(_)) {
                self.shed[class] += 1;
            } else {
                self.completed += 1;
            }
        }
        self.queue_waits.extend(stats::queue_waits(&out.responses, &out.spans));
        self.service.extend(
            out.spans
                .iter()
                .filter(|s| matches!(s.track, Track::Device(_)) && s.trace.is_some())
                .map(|s| s.dur_s),
        );
        self.batches += out.pool.members.iter().map(|m| m.batches).sum::<u64>();
        if tag == "lf0.5" {
            self.busy_skew = stats::busy_skew(
                out.pool.members.iter().map(|m| (m.busy_s, !m.lost && !m.standby)),
            );
        }
        let s = &out.stats;
        let fallbacks =
            out.responses.iter().filter(|r| r.verdict == Verdict::Fallback).count() as u64;
        for (name, v) in [
            ("serve.hedges_launched", s.hedges_launched),
            ("serve.hedges_won", s.hedges_won),
            ("serve.breaker_opens", s.breaker_opens),
            ("serve.spares_promoted", s.spares_promoted),
            ("serve.fallbacks", fallbacks),
        ] {
            *self.counts.entry(name).or_insert(0) += v;
        }
        self.requests += out.responses.len() as u64;
        self.serve_s += secs;
        self.calls += 1;
    }

    fn emit(&self, layers: &mut BTreeMap<String, f64>, traced: bool) {
        for (i, class) in Priority::ALL.iter().enumerate() {
            let frac = self.shed[i] as f64 / self.offered[i].max(1) as f64;
            add(layers, &format!("serve.shed_frac.{}", class.label()), frac);
        }
        add(layers, "serve.queue_wait_p50_s", median(&self.queue_waits));
        add(layers, "serve.queue_wait_tail_s", stats::tail(&self.queue_waits).value);
        add(layers, "serve.batches", self.batches as f64);
        add(layers, "serve.batch_mean", self.completed as f64 / self.batches.max(1) as f64);
        add(layers, "serve.service_p50_s", median(&self.service));
        add(layers, "serve.busy_skew", self.busy_skew);
        for (name, v) in &self.counts {
            add(layers, name, *v as f64);
        }
        if traced {
            add(
                layers,
                "serve.host_ms_per_request",
                self.serve_s * 1e3 / self.requests.max(1) as f64,
            );
            add(layers, "serve.loadgen_host_ms", self.loadgen_s * 1e3 / self.calls.max(1) as f64);
        }
    }
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        state = splitmix64(state);
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_cells() {
        let n = |k| Workload::new(k, 1).cells.len();
        assert_eq!(n(Kind::SimFlat), 36);
        assert_eq!(n(Kind::SimTiled), 6);
        assert_eq!(n(Kind::ToolsAttached), 24);
        assert_eq!(n(Kind::ServeMixed), 0);
        assert!(Workload::new(Kind::SimFlat, 1).cells.iter().all(|c| !c.uses_barriers()));
        assert!(Workload::new(Kind::SimTiled, 1).cells.iter().all(Cell::uses_barriers));
    }

    #[test]
    fn the_seed_permutes_cells_deterministically() {
        let order = |seed| -> Vec<String> {
            Workload::new(Kind::SimFlat, seed).cells.iter().map(Cell::label).collect()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut a = order(7);
        let mut b = order(8);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
