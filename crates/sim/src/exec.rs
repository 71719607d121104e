//! The kernel executor: runs every simulated GPU thread, really.
//!
//! Two execution paths share identical semantics as far as a kernel can
//! observe:
//!
//! * **Block loop** — blocks are distributed over host workers (the
//!   launching thread plus long-lived helper threads) and a worker runs
//!   the lanes of a claimed block on itself. A plain closure kernel (no
//!   intra-block synchronization, the `KernelFlags` default) runs its
//!   lanes one after another. A *phased* kernel
//!   ([`Kernel::phased`]) is split at its `__syncthreads()` into
//!   barrier-delimited phases: the loop runs phase 0 over every lane in
//!   rank order, then phase 1 over the lanes that reached the barrier, and
//!   so on, keeping each lane's context and cross-barrier registers for the
//!   whole block. This is how every barrier-using HeCBench kernel runs.
//! * **Team path** — for closure kernels that call `sync_threads`, warp
//!   shuffles, or warp barriers directly. A small number of *teams* is
//!   spawned, each consisting of one OS thread per lane of a block; teams
//!   claim blocks from a shared counter and execute them with true
//!   intra-block concurrency. Barriers park rather than spin because lanes
//!   heavily oversubscribe host cores (see [`crate::barrier`]).
//!
//! The phased form is the "deep fission" of the MCUDA line of work (cited
//! in the paper's related work) and of pocl's work-group loops: the kernel
//! author splits the body at barriers and host threads are paid only per
//! worker, not per lane.

use crate::barrier::{RetireBarrier, SenseBarrier};
use crate::counters::StatsSnapshot;
use crate::dim::LaunchConfig;
use crate::memtrace::LaunchMemTrace;
use crate::san::{AccessSite, DiagLog, LaunchSan, ToolMask};
use crate::shared::BlockShared;
use crate::thread::ThreadCtx;
use crate::warp::WarpGroup;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// A panic payload carried out of a worker thread so the launch can finish
/// its deterministic merges before the panic resumes.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Static properties of a kernel that the executor must know up front.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelFlags {
    /// Kernel calls `sync_threads` (block-wide barrier).
    pub uses_block_sync: bool,
    /// Kernel calls `sync_warp`, shuffles, or ballots.
    pub uses_warp_ops: bool,
}

impl KernelFlags {
    /// Does a closure kernel with these flags require the barrier-capable
    /// team path? (A phased kernel never does.)
    pub fn needs_team_execution(&self) -> bool {
        self.uses_block_sync || self.uses_warp_ops
    }
}

/// How a phased kernel body ends one barrier-delimited phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The lane reached `__syncthreads()`: it resumes at the next phase
    /// once every live lane of the block has finished this one.
    Barrier,
    /// The lane returned from the kernel. Exited lanes count as arrived at
    /// every later barrier, as in CUDA.
    Exit,
}

/// A type-erased phased body: runs every phase of one block over its lanes.
trait PhasedBody: Send + Sync {
    fn run_block(&self, lanes: &mut [ThreadCtx<'_>]);
}

/// A phased body over per-lane state `S` (see [`Kernel::phased`]).
struct Phases<S, F> {
    body: F,
    state: std::marker::PhantomData<fn() -> S>,
}

impl<S, F> PhasedBody for Phases<S, F>
where
    S: Default,
    F: Fn(&mut ThreadCtx<'_>, usize, &mut S) -> Step + Send + Sync,
{
    fn run_block(&self, lanes: &mut [ThreadCtx<'_>]) {
        let mut state: Vec<S> = lanes.iter().map(|_| S::default()).collect();
        let mut live: Vec<usize> = (0..lanes.len()).collect();
        let mut phase = 0;
        while !live.is_empty() {
            live.retain(|&lane| {
                let ctx = &mut lanes[lane];
                match (self.body)(ctx, phase, &mut state[lane]) {
                    Step::Barrier => {
                        ctx.arrive_barrier();
                        true
                    }
                    Step::Exit => false,
                }
            });
            phase += 1;
        }
    }
}

/// The per-thread code of a kernel.
#[derive(Clone)]
enum Body {
    /// One closure call per lane; barriers, if any, need the team path.
    Lane(Arc<dyn Fn(&mut ThreadCtx) + Send + Sync>),
    /// Barrier-delimited phases run as loops over the block's lanes.
    Phased(Arc<dyn PhasedBody>),
}

/// A device kernel: a name (for diagnostics and codegen-profile lookup),
/// executor-relevant flags, and the per-thread body.
#[derive(Clone)]
pub struct Kernel {
    name: String,
    flags: KernelFlags,
    body: Body,
}

impl Kernel {
    /// A barrier-free kernel (eligible for the serial fast path).
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&mut ThreadCtx) + Send + Sync + 'static,
    ) -> Self {
        Kernel {
            name: name.into(),
            flags: KernelFlags::default(),
            body: Body::Lane(Arc::new(body)),
        }
    }

    /// A kernel with explicit executor flags.
    pub fn with_flags(
        name: impl Into<String>,
        flags: KernelFlags,
        body: impl Fn(&mut ThreadCtx) + Send + Sync + 'static,
    ) -> Self {
        Kernel { name: name.into(), flags, body: Body::Lane(Arc::new(body)) }
    }

    /// A block-synchronizing kernel in phased form: `body(ctx, phase,
    /// state)` runs one barrier-delimited segment of one lane and returns
    /// [`Step::Barrier`] where the original code calls `__syncthreads()`,
    /// or [`Step::Exit`] where it returns. `state` holds the lane's
    /// registers that live across a barrier; it starts as `S::default()`.
    ///
    /// Every lane of a block runs phase `p` before any lane runs phase
    /// `p + 1`, on the worker that claimed the block. Ending a phase with
    /// `Step::Barrier` records exactly what `sync_threads` records (the
    /// memtrace barrier event, then the barrier count), and the flags keep
    /// `uses_block_sync`, so tools and the timing model see the same kernel
    /// as its closure form. The body must not call `sync_threads`,
    /// `sync_warp` or warp collectives.
    pub fn phased<S, F>(name: impl Into<String>, body: F) -> Self
    where
        S: Default + 'static,
        F: Fn(&mut ThreadCtx<'_>, usize, &mut S) -> Step + Send + Sync + 'static,
    {
        Kernel {
            name: name.into(),
            flags: KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            body: Body::Phased(Arc::new(Phases { body, state: std::marker::PhantomData })),
        }
    }

    /// Mark the kernel as using block-wide barriers.
    pub fn with_block_sync(mut self) -> Self {
        self.flags.uses_block_sync = true;
        self
    }

    /// Mark the kernel as using warp-level collectives.
    pub fn with_warp_ops(mut self) -> Self {
        self.flags.uses_warp_ops = true;
        self
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executor flags.
    pub fn flags(&self) -> KernelFlags {
        self.flags
    }

    /// Is this kernel in phased form ([`Kernel::phased`])?
    pub fn is_phased(&self) -> bool {
        matches!(self.body, Body::Phased(_))
    }

    /// Does a launch with `threads_per_block` lanes per block run on the
    /// thread-per-lane team path? Only closure kernels that declare
    /// barriers or warp collectives do, and only for multi-lane blocks.
    pub(crate) fn runs_on_team_path(&self, threads_per_block: usize) -> bool {
        matches!(self.body, Body::Lane(_))
            && self.flags.needs_team_execution()
            && threads_per_block > 1
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({}, {:?})", self.name, self.flags)
    }
}

/// Execute `kernel` over the whole grid and return aggregated statistics.
/// `san` is the launch's sanitizer context when a session is attached to
/// the device. `workers` is the host worker-thread budget (see
/// [`default_workers`]); `1` is the reference serial mode.
pub fn run(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&Arc<LaunchSan>>,
    mem: Option<&Arc<LaunchMemTrace>>,
    workers: usize,
) -> StatsSnapshot {
    run_bounded(kernel, cfg, warp_size, san, mem, workers, cfg.num_blocks())
}

/// Execute only the first `limit` blocks (in grid-linearization order) —
/// the committed prefix of a watchdog-killed launch. Semantics within the
/// prefix are identical to [`run`]: sanitizer and memtrace hooks observe
/// exactly the blocks that committed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_prefix(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&Arc<LaunchSan>>,
    mem: Option<&Arc<LaunchMemTrace>>,
    workers: usize,
    limit: usize,
) -> StatsSnapshot {
    run_bounded(kernel, cfg, warp_size, san, mem, workers, limit.min(cfg.num_blocks()))
}

fn run_bounded(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&Arc<LaunchSan>>,
    mem: Option<&Arc<LaunchMemTrace>>,
    workers: usize,
    num_blocks: usize,
) -> StatsSnapshot {
    let total = Arc::new(Mutex::new(StatsSnapshot::default()));
    let payload = if kernel.runs_on_team_path(cfg.threads_per_block()) {
        TEAM_LAUNCHES.fetch_add(1, Ordering::Relaxed);
        let (san, mem) = (san.map(|s| &**s), mem.map(|m| &**m));
        run_team(kernel, cfg, warp_size, &total, san, mem, workers, num_blocks)
    } else {
        let block_loop = BlockLoop {
            kernel: kernel.clone(),
            cfg: cfg.clone(),
            warp_size,
            total: Arc::clone(&total),
            san: san.cloned(),
            mem: mem.cloned(),
            num_blocks,
            next_block: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        };
        run_serial(Arc::new(block_loop), workers)
    };
    // Deterministic merges happen even when the launch panicked, so a
    // failing kernel still leaves canonically ordered partial evidence.
    if let Some(san) = san {
        san.finish();
    }
    if let Some(mem) = mem {
        mem.finish();
    }
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    let stats = *total.lock();
    stats
}

/// Launches this process ran on the thread-per-lane team path.
static TEAM_LAUNCHES: AtomicU64 = AtomicU64::new(0);

/// How many launches in this process have run on the thread-per-lane team
/// path (closure kernels that declare barriers or warp collectives, with
/// multi-lane blocks): a test that runs a workload alone in its process
/// can show that none of its kernels needed it.
pub fn team_launches() -> u64 {
    TEAM_LAUNCHES.load(Ordering::Relaxed)
}

/// Shared-memory tooling configuration for a launch: an attached sanitizer
/// session with racecheck turns the per-cell race fold on, one with
/// initcheck turns the init bitmap on.
fn block_shared(cfg: &LaunchConfig, san: Option<&LaunchSan>) -> BlockShared {
    let session_race = san.is_some_and(|s| s.state().tool_on(ToolMask::RACECHECK));
    let session_init = san.is_some_and(|s| s.state().tool_on(ToolMask::INITCHECK));
    BlockShared::with_tools(&cfg.shared_slots, session_race, session_init)
}

/// Process-global worker override set by [`set_global_workers`] (0 = unset).
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count for every subsequent launch in this process,
/// taking precedence over `OMPX_SIM_WORKERS`. `None` removes the override.
/// Benchmarks use this to switch between the reference serial mode
/// (`Some(1)`) and full parallelism without re-execing.
pub fn set_global_workers(workers: Option<usize>) {
    GLOBAL_WORKERS.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// Resolve the launch worker-thread budget: the process-global override,
/// then the `OMPX_SIM_WORKERS` environment variable, then the host's
/// available parallelism. `1` selects the reference serial mode (one worker
/// claims every block); results are bit-identical at any setting.
pub fn default_workers() -> usize {
    let forced = GLOBAL_WORKERS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("OMPX_SIM_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One launch on the block loop, shared by the launching thread and the
/// helper threads that run some of its blocks.
struct BlockLoop {
    kernel: Kernel,
    cfg: LaunchConfig,
    warp_size: u32,
    /// The launch total: each worker merges the sum of the blocks it
    /// committed once, when it stops.
    total: Arc<Mutex<StatsSnapshot>>,
    san: Option<Arc<LaunchSan>>,
    mem: Option<Arc<LaunchMemTrace>>,
    num_blocks: usize,
    next_block: AtomicUsize,
    /// Sticky poison: once any worker sees a lane panic, no worker claims
    /// another block, so sanitizer/memtrace state never includes
    /// post-failure blocks (matching the team path's semantics).
    poisoned: AtomicBool,
}

impl BlockLoop {
    /// Claim and run blocks until none are left or a lane panicked, then
    /// merge this worker's committed blocks into the launch total; a panic
    /// is returned rather than unwound so the caller can finish the launch
    /// first.
    fn work(&self) -> Option<PanicPayload> {
        let tpb = self.cfg.threads_per_block() as u64;
        let mut committed = StatsSnapshot::default();
        let mut payload = None;
        while !self.poisoned.load(Ordering::Acquire) {
            let b = self.next_block.fetch_add(1, Ordering::Relaxed);
            if b >= self.num_blocks {
                break;
            }
            let (san, mem) = (self.san.as_deref(), self.mem.as_deref());
            match run_block(&self.kernel, &self.cfg, self.warp_size, san, mem, b) {
                Ok(sum) => committed.merge(&StatsSnapshot {
                    threads_executed: tpb,
                    blocks_executed: 1,
                    ..sum
                }),
                Err(p) => {
                    // The block's sum is not merged (it did not commit).
                    self.poisoned.store(true, Ordering::Release);
                    payload = Some(p);
                    break;
                }
            }
        }
        self.total.lock().merge(&committed);
        payload
    }
}

/// A share of a launch's block loop, run on a helper thread.
type Job = Box<dyn FnOnce() + Send>;

/// The block loop's helper threads, spawned on first use and kept for the
/// life of the process. Threads spawned per launch would each take over
/// whichever allocator heap an exited thread left behind, so over a long
/// run every such heap would come to hold one launch's lane buffers and
/// memory would grow; long-lived helpers reuse their own.
static HELPERS: Mutex<Vec<mpsc::Sender<Job>>> = Mutex::new(Vec::new());

/// Job queues of `n` helper threads, spawning the ones not yet running.
fn helpers(n: usize) -> Vec<mpsc::Sender<Job>> {
    let mut pool = HELPERS.lock();
    while pool.len() < n {
        let (tx, rx) = mpsc::channel::<Job>();
        std::thread::Builder::new()
            .name(format!("ompx-sim-helper-{}", pool.len()))
            .spawn(move || rx.into_iter().for_each(|job| job()))
            .expect("spawn a block-loop helper thread");
        pool.push(tx);
    }
    pool[..n].to_vec()
}

/// The block loop: blocks spread over workers — the launching thread and
/// `workers - 1` helpers — and a worker runs the lanes of a claimed block
/// itself, one after another for a closure body, phase by phase for a
/// phased body. Returns once every worker has stopped.
fn run_serial(block_loop: Arc<BlockLoop>, workers: usize) -> Option<PanicPayload> {
    let workers = workers.clamp(1, block_loop.num_blocks.max(1));
    let (done_tx, done) = mpsc::channel();
    let mut running = 0;
    for helper in helpers(workers - 1) {
        let (block_loop, done_tx) = (Arc::clone(&block_loop), done_tx.clone());
        let job: Job = Box::new(move || {
            let work = std::panic::AssertUnwindSafe(|| block_loop.work());
            let _ = done_tx.send(std::panic::catch_unwind(work).unwrap_or_else(Some));
        });
        // A helper whose queue is gone leaves its share to the others.
        if helper.send(job).is_ok() {
            running += 1;
        }
    }
    drop(done_tx);
    let mut payload = block_loop.work();
    // Wait for every helper so a simulated-program panic surfaces with its
    // original message and the launch's merges see every block.
    for p in done.iter().take(running).flatten() {
        payload.get_or_insert(p);
    }
    payload
}

/// Run every lane of block `b` on the calling worker and stage the block's
/// logs and block-end scans. Returns the block's summed counters, or the
/// first lane panic (the lanes still stage what they recorded).
fn run_block(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&LaunchSan>,
    mem: Option<&LaunchMemTrace>,
    b: usize,
) -> Result<StatsSnapshot, PanicPayload> {
    let tpb = cfg.threads_per_block();
    let shared = block_shared(cfg, san);
    let block = cfg.grid.delinear(b);
    let lane_ctx = |t: usize| ThreadCtx {
        block,
        thread: cfg.block.delinear(t),
        grid_dim: cfg.grid,
        block_dim: cfg.block,
        warp_size,
        counters: StatsSnapshot::default(),
        shared: &shared,
        block_barrier: None,
        warp: None,
        phased: kernel.is_phased(),
        collective_count: 0,
        san,
        mem,
        trace_log: Default::default(),
        diag_log: Default::default(),
    };
    let mut sum = StatsSnapshot::default();
    let mut outcome = Ok(());
    let mut barrier_counts = None;
    match &kernel.body {
        Body::Lane(body) => {
            for t in 0..tpb {
                let mut ctx = lane_ctx(t);
                outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                sum.merge(&ctx.counters);
                ctx.stage_logs();
                if outcome.is_err() {
                    break;
                }
            }
        }
        Body::Phased(body) => {
            let mut lanes: Vec<ThreadCtx<'_>> = (0..tpb).map(lane_ctx).collect();
            outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                body.run_block(&mut lanes)
            }));
            let mut counts = Vec::with_capacity(tpb);
            for ctx in &mut lanes {
                sum.merge(&ctx.counters);
                counts.push(ctx.counters.barriers);
                ctx.stage_logs();
            }
            barrier_counts = Some(counts);
        }
    }
    stage_block_scan(san, cfg, block, b, &shared, barrier_counts.as_deref());
    outcome.map(|()| sum)
}

/// Block-end deterministic scans, staged as the block's final diagnostic
/// group: the shared-memory race folds in (slot, cell, epoch) order, then
/// synccheck's barrier-divergence scan over each lane's final barrier count
/// (phased and team blocks).
fn stage_block_scan(
    san: Option<&LaunchSan>,
    cfg: &LaunchConfig,
    block: (u32, u32, u32),
    block_rank: usize,
    shared: &BlockShared,
    barrier_counts: Option<&[u64]>,
) {
    let Some(san) = san else { return };
    let mut log = DiagLog::default();
    for (slot, race) in shared.collect_races() {
        let (tx, ty, tz) = cfg.block.delinear(race.this_lane);
        let site = AccessSite { kernel: san.kernel(), block, thread: (tx, ty, tz), block_rank };
        san.state().shared_race(site, slot, race, &mut log);
    }
    if let Some(counts) = barrier_counts {
        scan_barrier_divergence(san, cfg, block, block_rank, counts, &mut log);
    }
    san.stage_block_scan(block_rank, log);
}

/// Shared state of one executing block on the team path.
struct BlockExec {
    shared: BlockShared,
    warps: Vec<WarpGroup>,
    barrier: RetireBarrier,
    /// Each lane's final counters, written by the lane as it retires and
    /// read once the block completes: lane 0 sums them into the launch
    /// total once per block, and synccheck scans their `sync_threads`
    /// counts (lanes that participated in barriers but stopped short of the
    /// block's maximum diverged). One slot per lane, so retiring lanes
    /// never contend for a lock.
    lane_counters: Vec<Mutex<StatsSnapshot>>,
}

/// Per-team coordination state.
struct TeamState {
    /// Block index currently being executed (usize::MAX = none yet).
    current_block: AtomicUsize,
    /// Rendezvous for the team's lanes between protocol steps.
    gate: SenseBarrier,
    /// The state of the block being executed.
    exec: Mutex<Option<Arc<BlockExec>>>,
    /// Set when a lane panicked: the whole team stops after the current
    /// block (a sticky error, like a device-side assert).
    poisoned: AtomicBool,
}

/// Team path: real intra-block concurrency with barrier support.
#[allow(clippy::too_many_arguments)]
fn run_team(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    total: &Mutex<StatsSnapshot>,
    san: Option<&LaunchSan>,
    mem: Option<&LaunchMemTrace>,
    workers: usize,
    num_blocks: usize,
) -> Option<PanicPayload> {
    let tpb = cfg.threads_per_block();
    // Enough teams to keep the workers busy, but no more than there are
    // blocks and never an absurd number of OS threads. `workers == 1` is
    // the reference serial mode: a single team claims every block.
    let teams = ((workers * 2) / tpb).clamp(1, 8).min(num_blocks).max(1);
    let next_block = Arc::new(AtomicUsize::new(0));
    // Launch-wide sticky poison: after any lane panics, no team claims
    // another block.
    let launch_poisoned = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(teams * tpb);
        for _ in 0..teams {
            let team = Arc::new(TeamState {
                current_block: AtomicUsize::new(usize::MAX),
                gate: SenseBarrier::new(tpb),
                exec: Mutex::new(None),
                poisoned: AtomicBool::new(false),
            });
            for lane in 0..tpb {
                let team = Arc::clone(&team);
                let next_block = Arc::clone(&next_block);
                let launch_poisoned = Arc::clone(&launch_poisoned);
                handles.push(s.spawn(move || {
                    lane_loop(
                        kernel,
                        cfg,
                        warp_size,
                        lane,
                        &team,
                        &next_block,
                        &launch_poisoned,
                        total,
                        san,
                        mem,
                        num_blocks,
                    )
                }));
            }
        }
        let mut payload = None;
        for h in handles {
            if let Err(p) = h.join() {
                payload.get_or_insert(p);
            }
        }
        payload
    })
}

fn build_warps(tpb: usize, warp_size: u32) -> Vec<WarpGroup> {
    let ws = warp_size as usize;
    let num_warps = tpb.div_ceil(ws);
    (0..num_warps)
        .map(|w| {
            let lanes = ws.min(tpb - w * ws) as u32;
            WarpGroup::new(lanes)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn lane_loop(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    lane: usize,
    team: &TeamState,
    next_block: &AtomicUsize,
    launch_poisoned: &AtomicBool,
    total: &Mutex<StatsSnapshot>,
    san: Option<&LaunchSan>,
    mem: Option<&LaunchMemTrace>,
    num_blocks: usize,
) {
    // Executor invariant: `runs_on_team_path` admits closure bodies only.
    let Body::Lane(body) = &kernel.body else {
        unreachable!("phased kernels run on the block loop")
    };
    let tpb = cfg.threads_per_block();
    loop {
        // Step 1: lane 0 claims the next block; everyone learns it. A
        // poisoned launch claims nothing more: the sentinel makes every
        // lane of every team exit at its next claim.
        if lane == 0 {
            let b = if launch_poisoned.load(Ordering::Acquire) {
                num_blocks
            } else {
                next_block.fetch_add(1, Ordering::Relaxed)
            };
            team.current_block.store(b, Ordering::Release);
            if b < num_blocks {
                *team.exec.lock() = Some(Arc::new(BlockExec {
                    shared: block_shared(cfg, san),
                    warps: build_warps(tpb, warp_size),
                    barrier: RetireBarrier::new(tpb),
                    lane_counters: (0..tpb).map(|_| Mutex::default()).collect(),
                }));
            }
        }
        team.gate.wait();
        let b = team.current_block.load(Ordering::Acquire);
        if b >= num_blocks {
            break; // all lanes observe the same sentinel and exit together
        }
        // Executor invariant, not host-side misuse: the scheduler stores
        // every team's exec before any lane reaches this point, so a miss
        // here is a simulator bug and deliberately panics (see error.rs).
        let exec = team.exec.lock().as_ref().expect("block exec must be set").clone();

        // Step 2: run this lane. The body may panic (simulated-program bug,
        // e.g. an out-of-bounds access or a detected data race); sibling
        // lanes could then wait forever on this lane's barriers, so the
        // panic is caught, the lane retires from its barriers, the block
        // protocol completes, and the panic is resumed afterwards so the
        // launch still fails loudly.
        let (bx, by, bz) = cfg.grid.delinear(b);
        let (tx, ty, tz) = cfg.block.delinear(lane);
        let warp = &exec.warps[lane / warp_size as usize];
        let mut ctx = ThreadCtx {
            block: (bx, by, bz),
            thread: (tx, ty, tz),
            grid_dim: cfg.grid,
            block_dim: cfg.block,
            warp_size,
            counters: StatsSnapshot::default(),
            shared: &exec.shared,
            block_barrier: Some(&exec.barrier),
            warp: Some(warp),
            phased: false,
            collective_count: 0,
            san,
            mem,
            trace_log: Default::default(),
            diag_log: Default::default(),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
        if outcome.is_err() {
            team.poisoned.store(true, Ordering::Release);
            launch_poisoned.store(true, Ordering::Release);
        }
        // Retire so barriers held by still-running lanes complete.
        exec.barrier.retire();
        warp.retire_lane();
        *exec.lane_counters[lane].lock() = ctx.counters;
        ctx.stage_logs();

        // Step 3: whole team finishes the block before reusing the slot.
        team.gate.wait();
        if lane == 0 {
            let mut sum = StatsSnapshot::default();
            let mut counts = Vec::with_capacity(tpb);
            for slot in &exec.lane_counters {
                let lane = *slot.lock();
                sum.merge(&lane);
                counts.push(lane.barriers);
            }
            stage_block_scan(san, cfg, (bx, by, bz), b, &exec.shared, Some(&counts));
            total.lock().merge(&StatsSnapshot {
                threads_executed: tpb as u64,
                blocks_executed: 1,
                ..sum
            });
        }
        match outcome {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) if team.poisoned.load(Ordering::Acquire) => break,
            Ok(()) => {}
        }
    }
}

/// Synccheck's deterministic barrier-divergence scan, run once per block
/// after all lanes retired. A lane that executed some `sync_threads` calls
/// but fewer than the block's maximum abandoned its siblings at a barrier
/// it never reached. Lanes with a zero count never entered the barrier
/// protocol — the blessed guarded-early-return pattern (exited threads
/// count as arrived) — and are not flagged.
fn scan_barrier_divergence(
    san: &LaunchSan,
    cfg: &LaunchConfig,
    block: (u32, u32, u32),
    block_rank: usize,
    counts: &[u64],
    log: &mut DiagLog,
) {
    if !san.state().tool_on(ToolMask::SYNCCHECK) {
        return;
    }
    let Some(&maxc) = counts.iter().max() else { return };
    for (lane, &c) in counts.iter().enumerate() {
        if c > 0 && c < maxc {
            let (tx, ty, tz) = cfg.block.delinear(lane);
            san.state().barrier_divergence(
                AccessSite { kernel: san.kernel(), block, thread: (tx, ty, tz), block_rank },
                c,
                maxc,
                log,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceProfile};
    use crate::mem::DBuf;

    fn dev() -> Device {
        Device::new(DeviceProfile::test_small())
    }

    #[test]
    fn every_thread_runs_exactly_once_serial() {
        let d = dev();
        let hits = d.alloc::<u32>(4 * 32);
        let k = Kernel::new("mark", {
            let hits = hits.clone();
            move |ctx: &mut ThreadCtx| {
                let i = ctx.global_rank();
                ctx.atomic_add(&hits, i, 1);
            }
        });
        let stats = d.launch(&k, LaunchConfig::new(4u32, 32u32)).unwrap();
        assert_eq!(stats.threads_executed, 128);
        assert_eq!(stats.blocks_executed, 4);
        assert!(hits.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn every_thread_runs_exactly_once_team() {
        let d = dev();
        let hits = d.alloc::<u32>(6 * 16);
        let k = Kernel::with_flags(
            "mark_sync",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let hits = hits.clone();
                move |ctx: &mut ThreadCtx| {
                    ctx.sync_threads();
                    let i = ctx.global_rank();
                    ctx.atomic_add(&hits, i, 1);
                    ctx.sync_threads();
                }
            },
        );
        let before = team_launches();
        let stats = d.launch(&k, LaunchConfig::new(6u32, 16u32)).unwrap();
        assert!(team_launches() > before, "a closure kernel with barriers runs on the team path");
        assert_eq!(stats.threads_executed, 96);
        assert_eq!(stats.blocks_executed, 6);
        assert!(hits.to_vec().iter().all(|&v| v == 1));
        assert_eq!(stats.barriers, 2 * 96);
    }

    #[test]
    fn shared_memory_tile_pattern() {
        // The canonical use of shared memory: stage, barrier, read others'
        // elements. Each thread writes its id, then reads its neighbour's.
        let d = dev();
        let tpb = 16usize;
        let out: DBuf<u32> = d.alloc(3 * tpb);
        let mut cfg = LaunchConfig::new(3u32, tpb as u32);
        let slot = cfg.shared_array::<u32>(tpb);
        let k = Kernel::with_flags(
            "tile",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let out = out.clone();
                move |ctx: &mut ThreadCtx| {
                    let tile = ctx.shared::<u32>(slot);
                    let t = ctx.thread_rank();
                    ctx.swrite(&tile, t, (ctx.global_rank() * 10) as u32);
                    ctx.sync_threads();
                    let neighbour = (t + 1) % ctx.block_dim_x();
                    let v = ctx.sread(&tile, neighbour);
                    ctx.write(&out, ctx.global_rank(), v);
                }
            },
        );
        d.launch(&k, cfg).unwrap();
        let got = out.to_vec();
        for b in 0..3usize {
            for t in 0..tpb {
                let neighbour_global = b * tpb + (t + 1) % tpb;
                assert_eq!(got[b * tpb + t], (neighbour_global * 10) as u32);
            }
        }
    }

    #[test]
    fn early_return_does_not_hang_barriers() {
        // Half the lanes return before the barrier (the guarded-if pattern);
        // CUDA semantics: exited threads count as arrived.
        let d = dev();
        let out = d.alloc::<u32>(16);
        let k = Kernel::with_flags(
            "early",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let out = out.clone();
                move |ctx: &mut ThreadCtx| {
                    let t = ctx.thread_rank();
                    if t >= 8 {
                        return;
                    }
                    ctx.sync_threads();
                    ctx.write(&out, t, 1);
                }
            },
        );
        d.launch(&k, LaunchConfig::new(1u32, 16u32)).unwrap();
        assert_eq!(out.to_vec()[..8], vec![1u32; 8][..]);
    }

    #[test]
    fn warp_shuffle_inside_kernel() {
        let d = dev(); // warp_size = 4
        let out = d.alloc::<u32>(8);
        let k = Kernel::with_flags(
            "shfl",
            KernelFlags { uses_block_sync: false, uses_warp_ops: true },
            {
                let out = out.clone();
                move |ctx: &mut ThreadCtx| {
                    let v = ctx.thread_rank() as u32;
                    let got = ctx.shfl(v, 0); // broadcast lane 0 of each warp
                    ctx.write(&out, ctx.thread_rank(), got);
                }
            },
        );
        d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        // warps of width 4: lanes 0-3 get 0, lanes 4-7 get 4.
        assert_eq!(out.to_vec(), vec![0, 0, 0, 0, 4, 4, 4, 4]);
    }

    #[test]
    fn multidim_identity_is_consistent() {
        let d = dev();
        let cfg = LaunchConfig::new([2u32, 3, 1], [4u32, 2, 1]);
        let total = cfg.total_threads();
        let seen = d.alloc::<u32>(total);
        let k = Kernel::new("ident", {
            let seen = seen.clone();
            move |ctx: &mut ThreadCtx| {
                assert_eq!(
                    ctx.global_thread_id_x(),
                    ctx.block_id_x() * ctx.block_dim_x() + ctx.thread_id_x()
                );
                assert!(ctx.thread_id_y() < ctx.block_dim_y());
                assert!(ctx.block_id_y() < ctx.grid_dim_y());
                ctx.atomic_add(&seen, ctx.global_rank(), 1);
            }
        });
        let stats = d.launch(&k, cfg).unwrap();
        assert_eq!(stats.threads_executed as usize, total);
        assert!(seen.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn stats_count_memory_traffic() {
        let d = dev();
        let a = d.alloc_from(&[1.0f32; 64]);
        let b = d.alloc::<f32>(64);
        let k = Kernel::new("copy", {
            let (a, b) = (a.clone(), b.clone());
            move |ctx: &mut ThreadCtx| {
                let i = ctx.global_thread_id_x();
                let v = ctx.read(&a, i);
                ctx.flops(1);
                ctx.write(&b, i, v + 1.0);
            }
        });
        let stats = d.launch(&k, LaunchConfig::linear(64, 32)).unwrap();
        assert_eq!(stats.global_load_bytes, 64 * 4);
        assert_eq!(stats.global_store_bytes, 64 * 4);
        assert_eq!(stats.flops, 64);
        assert_eq!(b.to_vec(), vec![2.0f32; 64]);
    }

    #[test]
    fn flags_drift_is_reported_and_degraded_under_synccheck() {
        use crate::san::{DiagKind, SanState, ToolMask};
        let d = dev();
        let out = d.alloc::<u32>(8);
        // Uses sync_threads and a shuffle without declaring either flag:
        // the executor picks the serial path, and the session must surface
        // that as a structured KernelFlagsDrift finding instead of a panic.
        let k = Kernel::new("drifted", {
            let out = out.clone();
            move |ctx: &mut ThreadCtx| {
                let t = ctx.thread_rank();
                ctx.sync_threads();
                let v = ctx.shfl(t as u32, 0);
                ctx.write(&out, t, v);
            }
        });
        let san = SanState::new(ToolMask::SYNCCHECK);
        d.attach_sanitizer(Arc::clone(&san));
        d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        d.detach_sanitizer();
        let diags = san.diagnostics();
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|g| g.kind == DiagKind::KernelFlagsDrift));
        assert!(diags[0].message.contains("uses_block_sync"));
        // Degraded shuffle: every lane received its own value.
        assert_eq!(out.to_vec(), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "uses_block_sync")]
    fn flags_drift_panics_without_a_session() {
        let d = dev();
        let k = Kernel::new("drifted", |ctx: &mut ThreadCtx| {
            ctx.sync_threads();
        });
        let _ = d.launch(&k, LaunchConfig::new(1u32, 8u32));
    }

    #[test]
    fn single_thread_block_sync_is_noop_on_serial_path() {
        let d = dev();
        let k = Kernel::new("solo", |ctx: &mut ThreadCtx| {
            ctx.sync_threads(); // block of one: trivially fine
        });
        let stats = d.launch(&k, LaunchConfig::new(4u32, 1u32)).unwrap();
        assert_eq!(stats.barriers, 4);
    }

    /// A phased tile rotation: phase 0 stages, phase 1 reads a neighbour.
    fn phased_rotate(out: &DBuf<u32>, slot: usize) -> Kernel {
        let out = out.clone();
        Kernel::phased("rotate", move |ctx, phase, staged: &mut u32| {
            let tile = ctx.shared::<u32>(slot);
            let t = ctx.thread_rank();
            if phase == 0 {
                *staged = (ctx.global_rank() * 10) as u32;
                ctx.swrite(&tile, t, *staged);
                return Step::Barrier;
            }
            let v = ctx.sread(&tile, (t + 1) % ctx.block_dim_x());
            ctx.write(&out, ctx.global_rank(), v + *staged);
            Step::Exit
        })
    }

    #[test]
    fn phased_kernel_runs_phases_over_the_whole_block() {
        let d = dev();
        let tpb = 16usize;
        let out: DBuf<u32> = d.alloc(3 * tpb);
        let mut cfg = LaunchConfig::new(3u32, tpb as u32);
        let slot = cfg.shared_array::<u32>(tpb);
        let k = phased_rotate(&out, slot);
        assert!(k.is_phased() && k.flags().uses_block_sync && !k.runs_on_team_path(tpb));
        let stats = d.launch(&k, cfg).unwrap();
        assert_eq!(stats.threads_executed, 48);
        assert_eq!(stats.blocks_executed, 3);
        assert_eq!(stats.barriers, 48);
        let got = out.to_vec();
        for b in 0..3usize {
            for t in 0..tpb {
                let own = (b * tpb + t) * 10;
                let neighbour = (b * tpb + (t + 1) % tpb) * 10;
                assert_eq!(got[b * tpb + t], (own + neighbour) as u32);
            }
        }
    }

    #[test]
    fn phased_early_exit_does_not_block_later_phases() {
        // Odd lanes exit in phase 0; even lanes pass three barriers.
        let d = dev();
        let out = d.alloc::<u32>(8);
        let k = Kernel::phased("early", {
            let out = out.clone();
            move |ctx, phase, _: &mut ()| {
                let t = ctx.thread_rank();
                if t % 2 == 1 {
                    return Step::Exit;
                }
                if phase < 3 {
                    return Step::Barrier;
                }
                ctx.write(&out, t, phase as u32);
                Step::Exit
            }
        });
        let stats = d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        assert_eq!(stats.barriers, 4 * 3);
        assert_eq!(out.to_vec(), vec![3, 0, 3, 0, 3, 0, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "end the phase with Step::Barrier")]
    fn sync_threads_inside_a_phased_body_panics_with_the_phase_hint() {
        let d = dev();
        let k = Kernel::phased("misused", |ctx, _, _: &mut ()| {
            ctx.sync_threads();
            Step::Exit
        });
        let _ = d.launch(&k, LaunchConfig::new(1u32, 8u32));
    }

    #[test]
    #[should_panic(expected = "end the phase with Step::Barrier")]
    fn shuffle_inside_a_phased_body_panics_with_the_phase_hint() {
        let d = dev();
        let k = Kernel::phased("misused", |ctx, _, _: &mut ()| {
            let _ = ctx.shfl(1u32, 0);
            Step::Exit
        });
        let _ = d.launch(&k, LaunchConfig::new(1u32, 8u32));
    }

    #[test]
    #[should_panic(expected = "end the phase with Step::Barrier")]
    fn sync_warp_inside_a_phased_body_panics_with_the_phase_hint() {
        let d = dev();
        let k = Kernel::phased("misused", |ctx, _, _: &mut ()| {
            ctx.sync_warp();
            Step::Exit
        });
        let _ = d.launch(&k, LaunchConfig::new(1u32, 8u32));
    }

    #[test]
    fn phased_collectives_degrade_to_flags_drift_under_synccheck() {
        use crate::san::{DiagKind, SanState, ToolMask};
        let d = dev();
        let out = d.alloc::<u32>(8);
        let k = Kernel::phased("drifted", {
            let out = out.clone();
            move |ctx, _, _: &mut ()| {
                let t = ctx.thread_rank();
                ctx.sync_threads();
                ctx.sync_warp();
                let v = ctx.shfl(t as u32, 0);
                ctx.write(&out, t, v);
                Step::Exit
            }
        });
        let san = SanState::new(ToolMask::SYNCCHECK);
        d.attach_sanitizer(Arc::clone(&san));
        let stats = d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        d.detach_sanitizer();
        let diags = san.diagnostics();
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|g| g.kind == DiagKind::KernelFlagsDrift), "{diags:?}");
        assert!(diags.iter().all(|g| g.message.contains("Step::Barrier")), "{diags:?}");
        // Degraded: the barrier still counts, the shuffle returns its own value.
        assert_eq!(stats.barriers, 8);
        assert_eq!(out.to_vec(), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "lane 3 failed")]
    fn a_panicking_phased_lane_fails_the_launch_with_its_message() {
        let d = dev();
        let k = Kernel::phased("boom", |ctx, phase, _: &mut ()| {
            if phase == 1 && ctx.thread_rank() == 3 {
                panic!("lane 3 failed");
            }
            if phase == 0 {
                Step::Barrier
            } else {
                Step::Exit
            }
        });
        let _ = d.launch(&k, LaunchConfig::new(4u32, 8u32));
    }
}
