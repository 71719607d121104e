//! Shared benchmark infrastructure: systems, versions, checksums, scaling.

use ompx_devicert::globalization::Scratch;
use ompx_hostrt::target::{LaunchPlan, PreparedTarget};
use ompx_hostrt::OpenMp;
use ompx_klang::cuda::{cuda_context_clang, cuda_context_nvcc};
use ompx_klang::hip::{hip_context_clang, hip_context_hipcc};
use ompx_klang::runtime::NativeCtx;
use ompx_klang::toolchain::CodegenDb;
use ompx_sim::counters::StatsSnapshot;
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::{Kernel, Step};
use ompx_sim::fault::FaultState;
use ompx_sim::memtrace::{BarrierEvent, MemEvent, MemTrace};
use ompx_sim::san::{Diagnostic, SanState, ToolMask};
use ompx_sim::span::{Span, SpanCategory, SpanLog};
use ompx_sim::thread::{LocalArray, ThreadCtx};
use ompx_sim::timing::ModeledTime;
use ompx_sim::Device;
use ompx_telemetry::MetricRegistry;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// The two evaluation systems of the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum System {
    /// NVIDIA A100 (40 GB), CUDA 11.8.
    Nvidia,
    /// AMD MI250, ROCm 5.5.
    Amd,
}

impl System {
    /// Human label ("nvidia"/"amd").
    pub fn label(&self) -> &'static str {
        match self {
            System::Nvidia => "nvidia",
            System::Amd => "amd",
        }
    }
}

/// The four program versions compared per system (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgVersion {
    /// OpenMP kernel language, compiled with the prototype ("ompx").
    Ompx,
    /// Traditional OpenMP target offloading, LLVM/Clang ("omp").
    Omp,
    /// Native kernel language compiled with LLVM/Clang ("cuda"/"hip").
    Native,
    /// Native kernel language compiled with the vendor compiler
    /// ("cuda-nvcc"/"hip-hipcc").
    NativeVendor,
}

impl ProgVersion {
    /// The bar label used in Figure 8 for this version on `sys`.
    pub fn label(&self, sys: System) -> &'static str {
        match (self, sys) {
            (ProgVersion::Ompx, _) => "ompx",
            (ProgVersion::Omp, _) => "omp",
            (ProgVersion::Native, System::Nvidia) => "cuda",
            (ProgVersion::Native, System::Amd) => "hip",
            (ProgVersion::NativeVendor, System::Nvidia) => "cuda-nvcc",
            (ProgVersion::NativeVendor, System::Amd) => "hip-hipcc",
        }
    }

    /// All four versions in the figure's bar order.
    pub fn all() -> [ProgVersion; 4] {
        [ProgVersion::Ompx, ProgVersion::Omp, ProgVersion::Native, ProgVersion::NativeVendor]
    }
}

/// Simulated workload size selector. The *paper* workload is fixed; this
/// only chooses how much of it is functionally simulated before counters
/// are extrapolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkScale {
    /// Tiny inputs for unit tests (sub-second in debug builds).
    Test,
    /// The harness default (seconds in release builds).
    Default,
}

/// Benchmark metadata — one row of the paper's Figure 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchInfo {
    pub name: &'static str,
    pub description: &'static str,
    /// The command line the paper ran (Figure 6).
    pub paper_cmdline: &'static str,
    /// How Figure 8 reports time for this app.
    pub reported_metric: &'static str,
}

/// The outcome of running one program version of one app on one system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Bar label ("ompx", "cuda-nvcc", …).
    pub label: String,
    /// Order-independent checksum over the program's results; must agree
    /// across versions of the same app.
    pub checksum: u64,
    /// Modeled time, extrapolated to the paper's workload, in the unit the
    /// benchmark reports (seconds).
    pub reported_seconds: f64,
    /// Per-kernel modeled breakdown (of the last/representative kernel).
    pub kernel_model: ModeledTime,
    /// Counted events of the representative kernel, extrapolated to the
    /// paper workload.
    pub stats: StatsSnapshot,
    /// The paper excluded this series (XSBench `omp`'s invalid checksum).
    pub excluded: bool,
    /// Free-form note shown by the harness.
    pub note: Option<String>,
}

impl RunOutcome {
    /// The same outcome with the harness note `note`.
    pub fn with_note(self, note: Option<String>) -> RunOutcome {
        RunOutcome { note, ..self }
    }
}

// ---- the launch driver ----------------------------------------------------

/// The runtime a program version launches on, built by [`Driver::new`].
pub enum Runtime {
    /// `cuda`/`hip` (LLVM/Clang) or the vendor compiler's bar.
    Native(NativeCtx),
    /// The prototype (`ompx`): kernels launch as `ompx_bare` regions.
    Ompx(OpenMp),
    /// Traditional OpenMP with the paper's LLVM quirks (`omp`).
    Omp(OpenMp),
}

impl Runtime {
    fn new(sys: System, version: ProgVersion) -> Runtime {
        let runtime = match (version, sys) {
            (ProgVersion::Native, System::Nvidia) => Runtime::Native(cuda_context_clang()),
            (ProgVersion::Native, System::Amd) => Runtime::Native(hip_context_clang()),
            (ProgVersion::NativeVendor, System::Nvidia) => Runtime::Native(cuda_context_nvcc()),
            (ProgVersion::NativeVendor, System::Amd) => Runtime::Native(hip_context_hipcc()),
            (ProgVersion::Ompx, System::Nvidia) => Runtime::Ompx(ompx::runtime_nvidia()),
            (ProgVersion::Ompx, System::Amd) => Runtime::Ompx(ompx::runtime_amd()),
            (ProgVersion::Omp, System::Nvidia) => Runtime::Omp(OpenMp::nvidia_system()),
            (ProgVersion::Omp, System::Amd) => Runtime::Omp(OpenMp::amd_system()),
        };
        attach_observers(runtime.device());
        runtime
    }

    /// The runtime's device.
    pub fn device(&self) -> &Device {
        match self {
            Runtime::Native(ctx) => ctx.device(),
            Runtime::Ompx(omp) | Runtime::Omp(omp) => omp.device(),
        }
    }

    fn codegen(&self) -> &CodegenDb {
        match self {
            Runtime::Native(ctx) => ctx.codegen(),
            Runtime::Ompx(omp) | Runtime::Omp(omp) => omp.codegen(),
        }
    }

    /// `kernel` over `cfg` as a SIMT launch: a native launch, or on the
    /// prototype the `ompx_bare` region `ompx::BareTarget` prepares to.
    fn simt(&self, kernel: Kernel, cfg: LaunchConfig) -> Prepared {
        match self {
            Runtime::Native(ctx) => Prepared::Native(ctx.clone(), kernel, cfg),
            Runtime::Ompx(omp) => Prepared::Bare(PreparedTarget::bare(omp.clone(), kernel, cfg)),
            Runtime::Omp(_) => unreachable!("omp lowers its own kernel"),
        }
    }
}

/// A launch prepared by [`Driver::items`] or [`Driver::tiled`].
enum Prepared {
    /// A native kernel over its launch config.
    Native(NativeCtx, Kernel, LaunchConfig),
    /// The same kernel and config as an `ompx_bare` region (§3.1).
    Bare(PreparedTarget),
    /// A lowered traditional `target teams` region.
    Omp(PreparedTarget),
}

impl Prepared {
    fn execute(&self) -> StatsSnapshot {
        match self {
            Prepared::Native(ctx, kernel, cfg) => {
                ctx.launch_cfg(kernel, cfg.clone()).expect("launch").stats
            }
            Prepared::Bare(region) => region.execute().expect("bare launch").stats,
            Prepared::Omp(region) => region.execute().expect("omp launch").stats,
        }
    }

    fn model(&self, stats: &StatsSnapshot) -> ModeledTime {
        match self {
            Prepared::Native(ctx, kernel, cfg) => ctx.model(
                kernel.name(),
                cfg.threads_per_block() as u32,
                cfg.shared_bytes_per_block(),
                stats,
            ),
            Prepared::Bare(region) | Prepared::Omp(region) => region.model(stats).modeled,
        }
    }
}

/// The geometry of an [`Driver::items`] launch: `n` items, one per lane,
/// in teams of `block` lanes; the `omp` lowering may pick its own team
/// width, and `scratch_f64` is each lane's [`F64Scratch`] length.
#[derive(Debug, Clone, Copy)]
pub struct Items {
    pub n: usize,
    pub block: u32,
    pub omp_block: u32,
    pub scratch_f64: usize,
}

impl Items {
    /// `n` items in teams of `block` in every version, without scratch.
    pub fn new(n: usize, block: u32) -> Items {
        Items { n, block, omp_block: block, scratch_f64: 0 }
    }
}

/// One cell's launch driver: the runtime of a (system, program version)
/// with the app's codegen profiles registered and the scoped run's
/// observers attached. An app states its kernel body once; the driver
/// launches it the way the version's port does, sums the counters over
/// every launch, and [`Driver::finish`] models the last prepared launch
/// at the paper's workload.
pub struct Driver {
    sys: System,
    version: ProgVersion,
    runtime: Runtime,
    stats: StatsSnapshot,
    last: Option<Prepared>,
}

/// A prepared launch, runnable repeatedly; each run adds its counters to
/// the cell's.
pub struct Launch<'d> {
    prepared: &'d Prepared,
    stats: &'d mut StatsSnapshot,
}

impl Launch<'_> {
    /// Execute the launch once.
    pub fn run(&mut self) {
        self.stats.merge(&self.prepared.execute());
    }
}

impl Driver {
    /// The driver of `version` on `sys`, with `register_profiles` applied
    /// to its codegen database.
    pub fn new(sys: System, version: ProgVersion, register_profiles: fn(&CodegenDb)) -> Driver {
        let runtime = Runtime::new(sys, version);
        register_profiles(runtime.codegen());
        Driver { sys, version, runtime, stats: StatsSnapshot::default(), last: None }
    }

    /// The cell's device, for the app's data.
    pub fn device(&self) -> &Device {
        self.runtime.device()
    }

    /// The cell's runtime, for launches outside the two forms.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Prepare kernel `name` over `items`, running `body(tc, i, scratch)`
    /// for every item `i`. `native` and `ompx` launch it one item per
    /// lane behind the `i < n` guard with local-memory scratch; `omp`
    /// lowers it as `distribute parallel for` with globalized scratch.
    pub fn items<F>(&mut self, name: &str, items: Items, body: F) -> Launch<'_>
    where
        F: Fn(&mut ThreadCtx<'_>, usize, &mut F64Scratch<'_>) + Send + Sync + 'static,
    {
        let Items { n, block, omp_block, scratch_f64 } = items;
        let prepared = match &self.runtime {
            Runtime::Omp(omp) => Prepared::Omp(
                omp.target(name)
                    .num_teams((n as u32).div_ceil(omp_block))
                    .thread_limit(omp_block)
                    .scratch_f64(scratch_f64)
                    .prepare_dpf(
                        n,
                        Arc::new(move |tc: &mut ThreadCtx<'_>, i: usize, s: &Scratch| {
                            body(tc, i, &mut F64Scratch::Globalized(s))
                        }),
                    ),
            ),
            simt => simt.simt(
                Kernel::new(name, move |tc: &mut ThreadCtx<'_>| {
                    let i = tc.global_thread_id_x();
                    if i < n {
                        let mut scratch = F64Scratch::Local(tc.local_array(scratch_f64));
                        body(tc, i, &mut scratch);
                    }
                }),
                LaunchConfig::linear(n, block),
            ),
        };
        self.prepare(prepared)
    }

    /// Prepare block-synchronizing kernel `name` over `n` items: `native`
    /// and `ompx` run the phased `body` (see [`Kernel::phased`]) over
    /// `cfg`, whose shared arrays the body's slots index; `omp`, which
    /// cannot express the team barrier, lowers `omp_item` over the items
    /// in teams as wide as `cfg`'s.
    pub fn tiled<S, F, G>(
        &mut self,
        name: &str,
        n: usize,
        cfg: LaunchConfig,
        body: F,
        omp_item: G,
    ) -> Launch<'_>
    where
        S: Default + 'static,
        F: Fn(&mut ThreadCtx<'_>, usize, &mut S) -> Step + Send + Sync + 'static,
        G: Fn(&mut ThreadCtx<'_>, usize) + Send + Sync + 'static,
    {
        let prepared = match &self.runtime {
            Runtime::Omp(omp) => Prepared::Omp(
                omp.target(name)
                    .num_teams(cfg.num_blocks() as u32)
                    .thread_limit(cfg.threads_per_block() as u32)
                    .prepare_dpf(
                        n,
                        Arc::new(move |tc: &mut ThreadCtx<'_>, i: usize, _: &Scratch| {
                            omp_item(tc, i)
                        }),
                    ),
            ),
            simt => simt.simt(Kernel::phased(name, body), cfg),
        };
        self.prepare(prepared)
    }

    fn prepare(&mut self, prepared: Prepared) -> Launch<'_> {
        Launch { prepared: self.last.insert(prepared), stats: &mut self.stats }
    }

    /// The lowering plan of the last prepared `omp` region — what the
    /// app's `omp` note describes. It is the plan the region was lowered
    /// to, also when a launch of it fell back to the host.
    pub fn omp_plan(&self) -> Option<LaunchPlan> {
        match &self.last {
            Some(Prepared::Omp(region)) => Some(region.plan()),
            _ => None,
        }
    }

    /// The cell's outcome: the summed counters extrapolated to the
    /// paper's workload (events by `work`, launch geometry by
    /// `geometry`), modeled as the last prepared launch and reported as
    /// `time`. An `omp` lowering the paper found invalid is excluded.
    pub fn finish(self, time: ReportedTime, checksum: u64, work: f64, geometry: f64) -> RunOutcome {
        let last = self.last.as_ref().expect("the cell launched its kernel");
        let stats = extrapolate(&self.stats, work, geometry);
        let kernel_model = last.model(&stats);
        RunOutcome {
            label: self.version.label(self.sys).to_string(),
            checksum,
            reported_seconds: time.seconds(&kernel_model, launch_issue_s(self.sys, self.version)),
            kernel_model,
            stats,
            excluded: self.omp_plan().is_some_and(|plan| plan.invalid_result),
            note: None,
        }
    }
}

// ---- observers: one record, one scope ---------------------------------------

/// What a scoped run attaches to every device the constructors above hand
/// out. Apps build their contexts *inside* `run`, so the record rides along
/// ambiently: [`RunScope`] installs it, [`attach_observers`] applies it.
#[derive(Default)]
struct Observers {
    /// The session of [`run_app_sanitized`].
    sanitizer: Option<Arc<SanState>>,
    /// The trace of [`with_mem_trace_full`]: the analyzer's replay data
    /// plane.
    trace: Option<Arc<MemTrace>>,
    /// The fault state of one chaos cell ([`ChaosSession::run_cell`]).
    faults: Option<Arc<FaultState>>,
    /// `(kernel name, written global-buffer labels)` from the chaos cell's
    /// analyzer summary, attached with the faults so a watchdog checkpoint
    /// snapshots only the buffers the killed kernel could have dirtied.
    /// Kernels without a hint (e.g. `adam`'s native convergence kernel,
    /// which the 24-cell registry does not summarize) fall back to a
    /// whole-buffer snapshot inside the simulator.
    write_set: Option<(String, Vec<String>)>,
}

static OBSERVERS: Mutex<Observers> =
    Mutex::new(Observers { sanitizer: None, trace: None, faults: None, write_set: None });

/// Serialises scoped runs so parallel tests cannot leak findings, events
/// or faults into each other's reports through the ambient record.
static SANITIZED_RUN_GATE: Mutex<()> = Mutex::new(());

fn installed_observers() -> MutexGuard<'static, Observers> {
    OBSERVERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Apply the installed [`Observers`] to a freshly built device.
fn attach_observers(device: &Device) {
    let observers = installed_observers();
    if let Some(state) = &observers.sanitizer {
        device.attach_sanitizer(Arc::clone(state));
    }
    if let Some(trace) = &observers.trace {
        device.attach_mem_trace(Arc::clone(trace));
    }
    if let Some(faults) = &observers.faults {
        device.attach_faults(Arc::clone(faults));
        if let Some((kernel, labels)) = &observers.write_set {
            device.set_kernel_write_set(kernel, labels);
        }
    }
}

/// A held run scope: the run gate, the installed [`Observers`], and the
/// ambient span log and metric registry when the scope installed them.
/// Dropping it, also while a benchmark unwinds, uninstalls all of it
/// before the gate is released. The gate is **not** reentrant: entering a
/// second scope on the same thread deadlocks.
struct RunScope {
    _gate: MutexGuard<'static, ()>,
    log: Option<Arc<SpanLog>>,
    metrics: Option<Arc<MetricRegistry>>,
}

impl RunScope {
    fn enter(observers: Observers) -> RunScope {
        let gate = SANITIZED_RUN_GATE.lock().unwrap_or_else(|e| e.into_inner());
        *installed_observers() = observers;
        RunScope { _gate: gate, log: None, metrics: None }
    }

    /// Also install a fresh ambient span log for the scope.
    fn with_span_log(mut self) -> RunScope {
        let log = SpanLog::new();
        SpanLog::install(Arc::clone(&log));
        self.log = Some(log);
        self
    }

    /// Also install a fresh ambient metric registry, with the base
    /// families pre-declared.
    fn with_metrics(mut self) -> RunScope {
        let metrics = MetricRegistry::new();
        ompx_telemetry::describe_base_families(&metrics);
        ompx_telemetry::install(Arc::clone(&metrics));
        self.metrics = Some(metrics);
        self
    }

    /// Replace the installed observers; a chaos session does so per cell.
    fn set(&self, observers: Observers) {
        *installed_observers() = observers;
    }

    fn spans(&self) -> Vec<Span> {
        self.log.as_ref().map(|log| log.spans()).unwrap_or_default()
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        *installed_observers() = Observers::default();
        if self.metrics.is_some() {
            ompx_telemetry::uninstall();
        }
        if self.log.is_some() {
            SpanLog::uninstall();
        }
    }
}

/// Run one (app, system, version) cell under a fresh sanitizer session with
/// the tools in `mask`, returning the benchmark outcome plus everything the
/// enabled tools found. This is what `sanitize` (ompx-bench) runs per cell.
pub fn run_app_sanitized(
    app: &str,
    sys: System,
    version: ProgVersion,
    scale: WorkScale,
    mask: ToolMask,
) -> (RunOutcome, Vec<Diagnostic>) {
    let state = SanState::new(mask);
    let _scope =
        RunScope::enter(Observers { sanitizer: Some(Arc::clone(&state)), ..Default::default() });
    let outcome = crate::run_app(app, sys, version, scale);
    (outcome, state.diagnostics())
}

/// Run a benchmark closure with a fresh ambient memory trace installed,
/// returning its result plus every recorded access event. This is the
/// analyzer's replay data plane.
pub fn with_mem_trace<R>(f: impl FnOnce() -> R) -> (R, Vec<MemEvent>) {
    let (result, events, _) = with_mem_trace_full(f);
    (result, events)
}

/// Like [`with_mem_trace`], but also returns the recorded barrier events.
/// Summary extraction needs both streams: accesses to fit index
/// expressions, barriers to delimit and order phases.
pub fn with_mem_trace_full<R>(f: impl FnOnce() -> R) -> (R, Vec<MemEvent>, Vec<BarrierEvent>) {
    let trace = MemTrace::new();
    let _scope =
        RunScope::enter(Observers { trace: Some(Arc::clone(&trace)), ..Default::default() });
    let result = f();
    // The trace is this call's alone: move the streams out, don't copy them.
    let (events, barriers) = trace.take_events();
    (result, events, barriers)
}

/// Run a benchmark closure with a fresh ambient profiler [`SpanLog`]
/// installed, returning its result plus every recorded timeline span. This
/// is `ompx-prof`'s timeline data plane.
pub fn with_span_log<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    let scope = RunScope::enter(Observers::default()).with_span_log();
    let result = f();
    (result, scope.spans())
}

// ---- fault-injection integration (chaos harness) ----------------------------

/// What fault injection did to one chaos run, alongside the outcome.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Everything the fault state recorded: injections, recoveries,
    /// fallbacks, degradations, sticky errors, device loss.
    pub snapshot: ompx_sim::fault::FaultSnapshot,
    /// Retry spans on the profiler timeline (retries + recoveries).
    pub retry_spans: usize,
    /// Fallback spans on the profiler timeline.
    pub fallback_spans: usize,
}

/// A held chaos-run scope: the run gate acquired once, one ambient span
/// log and metric registry installed for the whole session, and per-cell
/// swapping of the fault state and write-set hints.
///
/// [`run_app_chaos`] uses one session per cell; `ompx-serve` holds a single
/// session across thousands of requests so each pool member's persistent
/// [`FaultState`] (with its sticky device-loss flag) can be attached for
/// exactly the requests routed to it, while every request's spans land on
/// one timeline. Constructing a second session on the same thread (or
/// calling `run_app_sanitized` / `with_mem_trace` / `with_span_log` inside
/// one) deadlocks.
pub struct ChaosSession {
    scope: RunScope,
}

impl ChaosSession {
    /// Acquire the gate and install a fresh ambient span log and metric
    /// registry (with the base families pre-declared), so every chaos and
    /// serve run is metered without further wiring.
    pub fn begin() -> ChaosSession {
        ChaosSession { scope: RunScope::enter(Observers::default()).with_span_log().with_metrics() }
    }

    /// The session's metric registry (shared with the ambient install).
    pub fn metrics(&self) -> Arc<MetricRegistry> {
        Arc::clone(self.scope.metrics.as_ref().expect("begin installs a registry"))
    }

    /// The session's span log (shared with the ambient install), e.g. for
    /// recording per-device pool timeline spans alongside the run spans.
    pub fn span_log(&self) -> Arc<SpanLog> {
        Arc::clone(self.scope.log.as_ref().expect("begin installs a span log"))
    }

    /// Everything recorded on the session timeline so far.
    pub fn spans(&self) -> Vec<Span> {
        self.scope.spans()
    }

    /// Run one (app, system, version) cell with `faults` attached
    /// ambiently (plus the cell's analyzer write-set hints), catching
    /// panics so callers can assert the chaos trichotomy. With
    /// `faults: None` the cell runs fault-free (e.g. to establish expected
    /// checksums). The fault state is the *caller's*: sticky errors and
    /// the device-loss flag persist across calls that reuse it, which is
    /// how a serving pool models a lost member.
    pub fn run_cell(
        &self,
        app: &str,
        sys: System,
        version: ProgVersion,
        scale: WorkScale,
        faults: Option<&Arc<FaultState>>,
    ) -> Result<RunOutcome, String> {
        let write_set = crate::summaries::write_set(app, version);
        self.scope.set(Observers {
            faults: faults.map(Arc::clone),
            write_set,
            ..Default::default()
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::run_app(app, sys, version, scale)
        }));
        self.scope.set(Observers::default());
        result.map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic with non-string payload".to_string()
            }
        })
    }
}

/// Run one (app, system, version) cell under a seeded [`FaultPlan`],
/// catching panics so the chaos harness can assert the trichotomy —
/// success, clean typed error, or validated fallback — and returning what
/// the injection did plus the full span timeline (where retries and
/// fallbacks are visible). One-shot wrapper over [`ChaosSession`].
///
/// [`FaultPlan`]: ompx_sim::fault::FaultPlan
pub fn run_app_chaos(
    app: &str,
    sys: System,
    version: ProgVersion,
    scale: WorkScale,
    plan: ompx_sim::fault::FaultPlan,
) -> (Result<RunOutcome, String>, FaultReport, Vec<Span>) {
    let session = ChaosSession::begin();
    let faults = FaultState::new(plan);
    let result = session.run_cell(app, sys, version, scale, Some(&faults));
    let spans = session.spans();
    let report = FaultReport {
        snapshot: faults.snapshot(),
        retry_spans: spans.iter().filter(|s| s.cat == SpanCategory::Retry).count(),
        fallback_spans: spans.iter().filter(|s| s.cat == SpanCategory::Fallback).count(),
    };
    (result, report, spans)
}

// ---- checksums ------------------------------------------------------------

/// splitmix64 — the standard 64-bit finalizer, used to decorrelate items.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Order-independent checksum over per-item f64 results: versions that
/// compute identical per-item values produce identical checksums no matter
/// which thread computed which item.
pub fn checksum_f64_items(items: &[f64]) -> u64 {
    items
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, v)| acc.wrapping_add(splitmix64(v.to_bits() ^ (i as u64))))
}

/// Same, single precision.
pub fn checksum_f32_items(items: &[f32]) -> u64 {
    items
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, v)| acc.wrapping_add(splitmix64(v.to_bits() as u64 ^ (i as u64))))
}

/// Deterministic per-item "random" f64 in [0, 1): all program versions
/// derive identical inputs for item `i` without sharing generator state
/// (the event-based RNG trick XSBench itself uses).
#[inline]
pub fn item_uniform(seed: u64, i: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 53) as f64
}

// ---- launch-accounting conventions ----------------------------------------

/// Host-side cost of *issuing* one asynchronous kernel launch (the rate at
/// which back-to-back launches can be pushed into a stream). A kernel whose
/// body is shorter than this is issue-bound.
pub const LAUNCH_ISSUE_S: f64 = 1.2e-6;

/// Per-runtime launch-issue cost. The prototype's bare-launch path skips
/// the OpenMP kernel-state setup and is measurably leaner than ROCm's HIP
/// dispatch (cf. the near-zero-overhead launch work in the paper's ref
/// \[5\]) — the residual difference behind Adam's 16.6 % on the MI250, where
/// every kernel is shorter than the issue cost itself.
pub fn launch_issue_s(sys: System, version: ProgVersion) -> f64 {
    match (sys, version) {
        (System::Amd, ProgVersion::Ompx) => 1.0e-6,
        _ => LAUNCH_ISSUE_S,
    }
}

/// How an app turns its one modeled kernel into the seconds its bar
/// reports (Figure 6's "reported metric").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportedTime {
    /// The kernel's modeled seconds, launch latency included.
    ModelSeconds,
    /// Kernel-only seconds, what event-based timers report: no launch
    /// latency.
    KernelOnly,
    /// Total wall seconds of the paper's `launches` identical kernels.
    /// `pipelined` (native/ompx): issued asynchronously back-to-back, so
    /// launch latencies hide behind execution and only one is exposed, but
    /// the host cannot issue faster than one launch per issue cost.
    /// Otherwise synchronous (traditional `target` semantics: the host
    /// blocks after each region).
    Launches { launches: u64, pipelined: bool },
}

impl ReportedTime {
    /// The reported seconds of a kernel modeled as `m`, when issuing one
    /// launch costs the host `issue_s`.
    pub fn seconds(self, m: &ModeledTime, issue_s: f64) -> f64 {
        let body = m.seconds - m.t_launch;
        match self {
            ReportedTime::ModelSeconds => m.seconds,
            ReportedTime::KernelOnly => body,
            ReportedTime::Launches { launches, pipelined: true } => {
                body.max(issue_s) * launches as f64 + m.t_launch
            }
            ReportedTime::Launches { launches, pipelined: false } => m.seconds * launches as f64,
        }
    }
}

/// Extrapolate a simulated kernel's counters to the paper's workload:
/// every event count scales by `work`, the launch geometry (blocks and
/// threads) only by `geometry`. Rounds like [`StatsSnapshot::scaled`], so
/// `extrapolate(raw, f, f) == raw.scaled(f)`.
pub fn extrapolate(raw: &StatsSnapshot, work: f64, geometry: f64) -> StatsSnapshot {
    let geometry_scaled = |v: u64| (v as f64 * geometry).round() as u64;
    StatsSnapshot {
        blocks_executed: geometry_scaled(raw.blocks_executed),
        threads_executed: geometry_scaled(raw.threads_executed),
        ..raw.scaled(work)
    }
}

// ---- per-thread scratch, version-dependent placement -----------------------

/// Per-thread f64 scratch whose *placement* differs between program
/// versions while the arithmetic stays identical — the storage class
/// behind the RSBench §4.2.2 result. [`Driver::items`] hands every item
/// body the one its version uses.
pub enum F64Scratch<'a> {
    /// CUDA/HIP/ompx versions: a dynamically indexed thread-local array →
    /// **local memory** (global-memory traffic).
    Local(LocalArray<f64>),
    /// `omp` version: globalized storage, heap (global traffic) or shared
    /// memory when LLVM's heap-to-shared optimization fires.
    Globalized(&'a Scratch),
}

impl F64Scratch<'_> {
    /// Counted store of element `j`.
    #[inline]
    pub fn put(&mut self, tc: &mut ThreadCtx<'_>, j: usize, v: f64) {
        match self {
            F64Scratch::Local(array) => tc.lwrite(array, j, v),
            F64Scratch::Globalized(scratch) => scratch.set(tc, j, v),
        }
    }

    /// Counted load of element `j`.
    #[inline]
    pub fn at(&self, tc: &mut ThreadCtx<'_>, j: usize) -> f64 {
        match self {
            F64Scratch::Local(array) => tc.lread(array, j),
            F64Scratch::Globalized(scratch) => scratch.get(tc, j),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure8() {
        assert_eq!(ProgVersion::Native.label(System::Nvidia), "cuda");
        assert_eq!(ProgVersion::Native.label(System::Amd), "hip");
        assert_eq!(ProgVersion::NativeVendor.label(System::Nvidia), "cuda-nvcc");
        assert_eq!(ProgVersion::NativeVendor.label(System::Amd), "hip-hipcc");
        assert_eq!(ProgVersion::Ompx.label(System::Amd), "ompx");
        assert_eq!(ProgVersion::Omp.label(System::Nvidia), "omp");
    }

    #[test]
    fn checksum_is_order_sensitive_by_index_not_position() {
        let a = checksum_f64_items(&[1.0, 2.0]);
        let b = checksum_f64_items(&[2.0, 1.0]);
        assert_ne!(a, b, "items are bound to their index");
        // But identical content gives identical sums.
        assert_eq!(a, checksum_f64_items(&[1.0, 2.0]));
    }

    #[test]
    fn item_uniform_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let v = item_uniform(42, i);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, item_uniform(42, i));
        }
        assert_ne!(item_uniform(1, 7), item_uniform(2, 7));
    }

    #[test]
    fn launch_accounting_conventions() {
        let pipelined = ReportedTime::Launches { launches: 100, pipelined: true };
        let synchronous = ReportedTime::Launches { launches: 100, pipelined: false };
        let m = ModeledTime { seconds: 10e-6, t_launch: 2e-6, ..Default::default() };
        assert!((pipelined.seconds(&m, LAUNCH_ISSUE_S) - (8e-4 + 2e-6)).abs() < 1e-12);
        // Issue-bound: a 0.1 us body cannot launch faster than the issue
        // rate.
        let tiny = ModeledTime { seconds: 2.1e-6, t_launch: 2.0e-6, ..Default::default() };
        assert!(
            (pipelined.seconds(&tiny, LAUNCH_ISSUE_S) - (100.0 * LAUNCH_ISSUE_S + 2e-6)).abs()
                < 1e-12
        );
        assert!(launch_issue_s(System::Amd, ProgVersion::Ompx) < LAUNCH_ISSUE_S);
        assert_eq!(launch_issue_s(System::Nvidia, ProgVersion::Ompx), LAUNCH_ISSUE_S);
        assert!((synchronous.seconds(&m, LAUNCH_ISSUE_S) - 1e-3).abs() < 1e-12);
        assert!((ReportedTime::KernelOnly.seconds(&m, LAUNCH_ISSUE_S) - 8e-6).abs() < 1e-15);
        assert_eq!(ReportedTime::ModelSeconds.seconds(&m, LAUNCH_ISSUE_S), m.seconds);
    }

    #[test]
    fn extrapolation_scales_the_geometry_apart_from_the_work() {
        let raw = StatsSnapshot {
            flops: 7,
            global_load_bytes: 33,
            threads_executed: 5,
            blocks_executed: 3,
            ..Default::default()
        };
        assert_eq!(extrapolate(&raw, 2.5, 2.5), raw.scaled(2.5));
        let s = extrapolate(&raw, 10.0, 0.5);
        assert_eq!((s.flops, s.global_load_bytes), (70, 330));
        assert_eq!((s.threads_executed, s.blocks_executed), (3, 2));
    }

    #[test]
    fn drivers_bind_expected_vendors_and_toolchains() {
        use ompx_klang::toolchain::Toolchain;
        use ompx_sim::Vendor;
        for (sys, vendor) in [(System::Nvidia, Vendor::Nvidia), (System::Amd, Vendor::Amd)] {
            for version in ProgVersion::all() {
                let driver = Driver::new(sys, version, |_| {});
                assert_eq!(driver.device().profile().vendor, vendor, "{version:?}");
                let toolchain = match driver.runtime() {
                    Runtime::Native(ctx) => ctx.toolchain(),
                    Runtime::Ompx(omp) | Runtime::Omp(omp) => omp.toolchain(),
                };
                let expected = match (version, sys) {
                    (ProgVersion::Native, _) => Toolchain::Clang,
                    (ProgVersion::NativeVendor, System::Nvidia) => Toolchain::Nvcc,
                    (ProgVersion::NativeVendor, System::Amd) => Toolchain::Hipcc,
                    (ProgVersion::Ompx, _) => Toolchain::OmpxPrototype,
                    (ProgVersion::Omp, _) => Toolchain::ClangOpenmp,
                };
                assert_eq!(toolchain, expected, "{version:?} on {sys:?}");
            }
        }
    }
}
