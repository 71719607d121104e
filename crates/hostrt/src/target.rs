//! Target regions: `#pragma omp target teams …` as a builder.
//!
//! A [`TargetRegion`] carries the clauses (`num_teams`, `thread_limit`,
//! shared-memory declarations, per-thread scratch subject to globalization)
//! and lowers the region body the way the modeled LLVM compiler/runtime
//! would:
//!
//! * a combined `distribute parallel for` loop normally becomes an **SPMD**
//!   kernel with the real launch geometry;
//! * kernels with a `force_generic` quirk (Stencil-1D, Adam — §4.2 of the
//!   paper) fall back to **generic mode**: one master per team executes the
//!   team's chunk while the state machine costs are charged;
//! * a `thread_cap` quirk (Adam's 32-thread bug) clamps the launch width;
//! * per-thread scratch is **globalized** — device-heap placement by
//!   default, shared memory when the `heap_to_shared` quirk applies
//!   (RSBench) — so the traffic consequences are measured.
//!
//! Synchronous by default, like the `target` construct; `nowait` variants
//! dispatch through the hidden-helper task system with `depend` keys.

use crate::quirks::QuirkSet;
use crate::runtime::OpenMp;
use crate::task::{DepKey, TaskHandle};
use ompx_devicert::generic::{generic_kernel, generic_launch_config, GenericRegionConfig, TeamCtx};
use ompx_devicert::mode::ExecMode;
use ompx_devicert::spmd::{spmd_kernel, SpmdCtx};
use ompx_sim::counters::StatsSnapshot;
use ompx_sim::device::KernelBar;
use ompx_sim::dim::LaunchConfig;
use ompx_sim::error::SimResult;
use ompx_sim::exec::Kernel;
use ompx_sim::fault::Recovery;
use ompx_sim::mem::DBuf;
use ompx_sim::thread::ThreadCtx;
use ompx_sim::timing::{host_model_seconds, model_kernel, CodegenInfo, ModeledTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// How the region was actually launched after quirks were applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPlan {
    pub mode: ExecMode,
    pub teams: u32,
    pub threads: u32,
    pub heap_to_shared: bool,
    /// The series must be flagged as excluded (paper's XSBench `omp`).
    pub invalid_result: bool,
}

impl LaunchPlan {
    /// The serial 1×1 host plan: `if(false)` and host-fallback execution.
    fn host(invalid_result: bool) -> Self {
        LaunchPlan {
            mode: ExecMode::Host,
            teams: 1,
            threads: 1,
            heap_to_shared: false,
            invalid_result,
        }
    }
}

/// Per-thread scratch storage the region needs (the storage class that is
/// subject to globalization in traditional OpenMP).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchSpec {
    /// `f64` elements of scratch per thread.
    pub f64_per_thread: usize,
}

/// Globalized per-thread scratch as seen inside the region body.
pub enum Scratch {
    /// No scratch requested.
    None,
    /// Globalized to the device heap: global-memory traffic.
    Heap { buf: DBuf<f64>, per_thread: usize },
    /// Heap-to-shared fired: shared-memory traffic.
    Shared { slot: usize, per_thread: usize },
}

impl Scratch {
    /// Scratch elements available per thread.
    pub fn per_thread(&self) -> usize {
        match self {
            Scratch::None => 0,
            Scratch::Heap { per_thread, .. } | Scratch::Shared { per_thread, .. } => *per_thread,
        }
    }

    #[inline]
    fn index(&self, tc: &ThreadCtx<'_>, j: usize) -> usize {
        match self {
            Scratch::None => unreachable!(),
            // Heap storage is per *global* thread; shared is per team thread.
            Scratch::Heap { per_thread, .. } => tc.global_rank() * per_thread + j,
            Scratch::Shared { per_thread, .. } => tc.thread_rank() * per_thread + j,
        }
    }

    /// Counted scratch load.
    #[inline]
    pub fn get(&self, tc: &mut ThreadCtx<'_>, j: usize) -> f64 {
        debug_assert!(j < self.per_thread(), "scratch index {j} out of range");
        match self {
            Scratch::None => panic!("scratch access without a ScratchSpec"),
            Scratch::Heap { buf, .. } => {
                let i = self.index(tc, j) % buf.len();
                tc.read(buf, i)
            }
            Scratch::Shared { slot, .. } => {
                let view = tc.shared::<f64>(*slot);
                let i = self.index(tc, j) % view.len();
                tc.sread(&view, i)
            }
        }
    }

    /// Counted scratch store.
    #[inline]
    pub fn set(&self, tc: &mut ThreadCtx<'_>, j: usize, v: f64) {
        debug_assert!(j < self.per_thread(), "scratch index {j} out of range");
        match self {
            Scratch::None => panic!("scratch access without a ScratchSpec"),
            Scratch::Heap { buf, .. } => {
                let i = self.index(tc, j) % buf.len();
                tc.write(buf, i, v)
            }
            Scratch::Shared { slot, .. } => {
                let view = tc.shared::<f64>(*slot);
                let i = self.index(tc, j) % view.len();
                tc.swrite(&view, i, v)
            }
        }
    }
}

/// Result of executing a target region.
#[derive(Debug, Clone)]
pub struct TargetResult {
    /// Counted events over the whole launch.
    pub stats: StatsSnapshot,
    /// Modeled execution time (device profile × codegen × mode overheads).
    pub modeled: ModeledTime,
    /// The launch plan that was used.
    pub plan: LaunchPlan,
}

/// Builder for one `target teams` region.
///
/// ```
/// use ompx_hostrt::OpenMp;
/// let omp = OpenMp::test_system();
/// let out = omp.device().alloc::<f32>(100);
/// // #pragma omp target teams distribute parallel for num_teams(4) thread_limit(16)
/// let result = omp
///     .target("double_it")
///     .num_teams(4)
///     .thread_limit(16)
///     .run_distribute_parallel_for(100, {
///         let out = out.clone();
///         move |tc, i, _scratch| tc.write(&out, i, i as f32 * 2.0)
///     })
///     .unwrap();
/// assert_eq!(out.get(7), 14.0);
/// assert!(result.modeled.seconds > 0.0);
/// ```
pub struct TargetRegion {
    omp: OpenMp,
    kernel_name: String,
    num_teams: Option<u32>,
    thread_limit: Option<u32>,
    scratch: ScratchSpec,
    offload: bool,
}

type DpfBody = Arc<dyn Fn(&mut ThreadCtx<'_>, usize, &Scratch) + Send + Sync>;

impl TargetRegion {
    pub(crate) fn new(omp: OpenMp, kernel_name: &str) -> Self {
        TargetRegion {
            omp,
            kernel_name: kernel_name.to_string(),
            num_teams: None,
            thread_limit: None,
            scratch: ScratchSpec::default(),
            offload: true,
        }
    }

    /// The `if(condition)` clause: when `condition` is false the region
    /// executes on the host instead of the device (OpenMP's conditional
    /// offload).
    pub fn when(mut self, condition: bool) -> Self {
        self.offload = condition;
        self
    }

    /// `num_teams(n)` clause (1-D; the multi-dimensional form is the ompx
    /// extension in the core crate).
    pub fn num_teams(mut self, n: u32) -> Self {
        self.num_teams = Some(n);
        self
    }

    /// `thread_limit(n)` clause.
    pub fn thread_limit(mut self, n: u32) -> Self {
        self.thread_limit = Some(n);
        self
    }

    /// Declare per-thread scratch storage (subject to globalization).
    pub fn scratch_f64(mut self, per_thread: usize) -> Self {
        self.scratch.f64_per_thread = per_thread;
        self
    }

    /// Resolve the launch plan this region would use (after quirks).
    pub fn plan(&self) -> LaunchPlan {
        let q: QuirkSet = self.omp.quirks().get(&self.kernel_name);
        let teams = self.num_teams.unwrap_or_else(|| self.omp.default_teams());
        let mut threads = self.thread_limit.unwrap_or_else(|| self.omp.default_threads());
        if let Some(cap) = q.thread_cap {
            threads = threads.min(cap);
        }
        threads = threads.min(self.omp.device().profile().max_threads_per_block);
        let mode = if !self.offload {
            ExecMode::Host
        } else if q.force_generic {
            ExecMode::Generic
        } else {
            ExecMode::Spmd
        };
        LaunchPlan {
            mode,
            teams: teams.max(1),
            threads: threads.max(1),
            heap_to_shared: q.heap_to_shared,
            invalid_result: q.invalid_result,
        }
    }

    /// Lower and synchronously execute a combined
    /// `distribute parallel for` over `0..n`.
    pub fn run_distribute_parallel_for(
        self,
        n: usize,
        body: impl Fn(&mut ThreadCtx<'_>, usize, &Scratch) + Send + Sync + 'static,
    ) -> SimResult<TargetResult> {
        if !self.offload {
            return Ok(self.run_on_host(n, &body));
        }
        self.prepare_dpf(n, Arc::new(body)).execute()
    }

    /// Host-fallback execution of the loop: every iteration runs serially
    /// on the host CPU; the modeled time uses a scalar host-core model
    /// (the initial device of real `libomp` would use host threads, but a
    /// single-core model keeps the conditional-offload cost conservative).
    fn run_on_host(
        self,
        n: usize,
        body: &impl Fn(&mut ThreadCtx<'_>, usize, &Scratch),
    ) -> TargetResult {
        use ompx_sim::dim::Dim3;
        use ompx_sim::shared::BlockShared;

        let plan = LaunchPlan::host(false);
        let shared = BlockShared::new(&[]);
        let mut tc = ThreadCtx::detached(
            Dim3::x(1),
            Dim3::x(1),
            (0, 0, 0),
            (0, 0, 0),
            self.omp.device().profile().warp_size,
            &shared,
        );
        let scratch = if self.scratch.f64_per_thread > 0 {
            Scratch::Heap {
                buf: self.omp.device().alloc::<f64>(self.scratch.f64_per_thread),
                per_thread: self.scratch.f64_per_thread,
            }
        } else {
            Scratch::None
        };
        for i in 0..n {
            body(&mut tc, i, &scratch);
        }
        let c = &tc.counters;
        let stats = ompx_sim::counters::StatsSnapshot {
            flops: c.flops,
            int_ops: c.int_ops,
            global_load_bytes: c.global_load_bytes,
            global_store_bytes: c.global_store_bytes,
            shared_accesses: c.shared_accesses,
            barriers: c.barriers,
            warp_ops: c.warp_ops,
            atomic_ops: c.atomic_ops,
            divergent_branches: c.divergent_branches,
            serial_ops: c.serial_ops,
            const_reads: c.const_reads,
            uniform_load_bytes: c.uniform_load_bytes,
            threads_executed: 1,
            blocks_executed: 1,
        };

        let modeled = ModeledTime { seconds: host_model_seconds(&stats), ..Default::default() };
        TargetResult { stats, modeled, plan }
    }

    /// `distribute parallel for reduction(+: acc)` over `0..n`: every
    /// iteration's value is summed. Lowered the way LLVM lowers GPU
    /// reductions, but deterministically: each team commits its partial
    /// into its own cell of a per-team scratch buffer and the host combines
    /// the partials in team-linear order. A single shared accumulator would
    /// sum the non-associative float partials in whatever order the OS
    /// scheduled the teams, so repeated runs could drift bit-by-bit.
    /// Returns the reduction value alongside the target result.
    pub fn run_reduce_sum(
        self,
        n: usize,
        body: impl Fn(&mut ThreadCtx<'_>, usize) -> f64 + Send + Sync + 'static,
    ) -> SimResult<(f64, TargetResult)> {
        let plan = self.plan();
        if plan.mode == ExecMode::Host {
            // if(false): the reduction runs on the host, serially on this
            // thread, so a plain Cell accumulates safely.
            let acc = std::cell::Cell::new(0.0f64);
            let result = self.run_on_host(n, &|tc: &mut ThreadCtx<'_>, i: usize, _s: &Scratch| {
                acc.set(acc.get() + body(tc, i));
            });
            return Ok((acc.get(), result));
        }
        let partials = self.omp.device().alloc::<f64>(plan.teams.max(1) as usize);
        let body = Arc::new(body);

        let (kernel, cfg) = match plan.mode {
            ExecMode::Generic => {
                let teams = plan.teams as usize;
                let chunk = n.div_ceil(teams.max(1));
                let partials2 = partials.clone();
                let body = Arc::clone(&body);
                let k = generic_kernel(
                    self.kernel_name.clone(),
                    self.omp.device(),
                    GenericRegionConfig::new(plan.threads),
                    move |team: &mut TeamCtx<'_, '_>| {
                        let lo = (team.team_num() * chunk).min(n);
                        let hi = (lo + chunk).min(n);
                        let body = &body;
                        let partial = team.parallel_for_reduce(
                            hi - lo,
                            0.0f64,
                            |tc, i| body(tc, lo + i),
                            |a, b| a + b,
                        );
                        let slot = team.team_num();
                        team.thread().atomic_add(&partials2, slot, partial);
                    },
                );
                (k, generic_launch_config(teams))
            }
            _ => {
                let partials2 = partials.clone();
                let body = Arc::clone(&body);
                let k = spmd_kernel(self.kernel_name.clone(), move |ctx: &mut SpmdCtx<'_, '_>| {
                    let body = &body;
                    let partial = ctx.distribute_parallel_for_reduce(
                        n,
                        0.0f64,
                        |tc, i| body(tc, i),
                        |a, b| a + b,
                    );
                    let slot = ctx.team_num();
                    ctx.thread().atomic_add(&partials2, slot, partial);
                });
                (k, LaunchConfig::new(plan.teams, plan.threads))
            }
        };

        let prepared = PreparedTarget { omp: self.omp, kernel, cfg, plan, scratch_shared_bytes: 0 };
        let result = prepared.execute()?;
        Ok((partials.to_vec().iter().sum(), result))
    }

    /// `nowait` variant: dispatch as a target task on the hidden helper
    /// threads, ordered by `depend` keys. The result is retrievable from
    /// the returned handle after completion.
    pub fn run_dpf_nowait(
        self,
        deps_in: &[DepKey],
        deps_out: &[DepKey],
        n: usize,
        body: impl Fn(&mut ThreadCtx<'_>, usize, &Scratch) + Send + Sync + 'static,
    ) -> NowaitTarget {
        let omp = self.omp.clone();
        let slot: Arc<Mutex<Option<SimResult<TargetResult>>>> = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        // Submission is instantaneous on the host track; the flow arrow
        // connects it to the task's span on the helper-thread track.
        let flow = ompx_sim::span::active().map(|log| {
            log.host_op_flow(
                &format!("nowait {}", self.kernel_name),
                ompx_sim::span::SpanCategory::Task,
                0.0,
                0,
            )
        });
        if !self.offload {
            // if(false) + nowait: a host task executes the region body.
            let name = self.kernel_name.clone();
            let handle = omp.inner.tasks.submit(deps_in, deps_out, move || {
                let r = self.run_on_host(n, &body);
                if let Some(log) = ompx_sim::span::active() {
                    log.task_span(&name, r.modeled.seconds, flow);
                }
                *slot2.lock() = Some(Ok(r));
            });
            return NowaitTarget { handle, result: slot };
        }
        let prepared = self.prepare_dpf(n, Arc::new(body));
        let handle = omp.inner.tasks.submit(deps_in, deps_out, move || {
            *slot2.lock() = Some(prepared.execute_with_bar(KernelBar::Task(flow)));
        });
        NowaitTarget { handle, result: slot }
    }

    /// Lower the loop but do not run it: used by the `nowait`/stream paths.
    pub fn prepare_dpf(self, n: usize, body: DpfBody) -> PreparedTarget {
        let plan = self.plan();
        let mut cfg;
        let scratch_shared_bytes;
        let scratch: Arc<ScratchFactory>;

        if plan.heap_to_shared && self.scratch.f64_per_thread > 0 {
            // One shared slot per block holding every team thread's scratch.
            let per = self.scratch.f64_per_thread;
            let elems = per * plan.threads as usize;
            scratch_shared_bytes = elems * 8;
            match plan.mode {
                ExecMode::Generic => {
                    cfg = generic_launch_config(plan.teams as usize);
                }
                _ => {
                    cfg = LaunchConfig::new(plan.teams, plan.threads);
                }
            }
            let slot = cfg.shared_array::<f64>(elems);
            scratch = Arc::new(move || Scratch::Shared { slot, per_thread: per });
        } else {
            match plan.mode {
                ExecMode::Generic => cfg = generic_launch_config(plan.teams as usize),
                _ => cfg = LaunchConfig::new(plan.teams, plan.threads),
            }
            scratch_shared_bytes = 0;
            if self.scratch.f64_per_thread > 0 {
                // Globalized to the device heap: one slice per thread of the
                // modeled launch.
                let per = self.scratch.f64_per_thread;
                let total = per * (plan.teams as usize) * (plan.threads as usize);
                let buf = self.omp.device().alloc::<f64>(total.max(per));
                scratch = Arc::new(move || Scratch::Heap { buf: buf.clone(), per_thread: per });
            } else {
                scratch = Arc::new(|| Scratch::None);
            }
        }

        let kernel = match plan.mode {
            ExecMode::Generic => {
                let body = Arc::clone(&body);
                let scratch = Arc::clone(&scratch);
                let teams = plan.teams as usize;
                let chunk = n.div_ceil(teams.max(1));
                generic_kernel(
                    self.kernel_name.clone(),
                    self.omp.device(),
                    GenericRegionConfig::new(plan.threads),
                    move |team: &mut TeamCtx<'_, '_>| {
                        let s = scratch();
                        let lo = (team.team_num() * chunk).min(n);
                        let hi = (lo + chunk).min(n);
                        let body = &body;
                        team.parallel_for(hi - lo, |tc, i| body(tc, lo + i, &s));
                    },
                )
            }
            _ => {
                let body = Arc::clone(&body);
                let scratch = Arc::clone(&scratch);
                spmd_kernel(self.kernel_name.clone(), move |ctx: &mut SpmdCtx<'_, '_>| {
                    let s = scratch();
                    let body = &body;
                    ctx.distribute_parallel_for(n, |tc, i| body(tc, i, &s));
                })
            }
        };

        PreparedTarget { omp: self.omp, kernel, cfg, plan, scratch_shared_bytes }
    }
}

type ScratchFactory = dyn Fn() -> Scratch + Send + Sync;

/// A fully lowered target region, ready to execute (possibly repeatedly or
/// asynchronously).
#[derive(Clone)]
pub struct PreparedTarget {
    omp: OpenMp,
    kernel: Kernel,
    cfg: LaunchConfig,
    plan: LaunchPlan,
    scratch_shared_bytes: usize,
}

impl PreparedTarget {
    /// An `ompx_bare` region (§3.1): `kernel` launches as written over
    /// `cfg`, with the [`ExecMode::Bare`] plan — no device-runtime
    /// initialization, no globalized scratch.
    pub fn bare(omp: OpenMp, kernel: Kernel, cfg: LaunchConfig) -> Self {
        let plan = LaunchPlan {
            mode: ExecMode::Bare,
            teams: cfg.num_blocks() as u32,
            threads: cfg.threads_per_block() as u32,
            heap_to_shared: false,
            invalid_result: false,
        };
        PreparedTarget { omp, kernel, cfg, plan, scratch_shared_bytes: 0 }
    }

    /// Execute synchronously and model the result. A synchronous target
    /// region blocks the submitting thread for its modeled duration — one
    /// kernel bar on the profiler's host track.
    pub fn execute(&self) -> SimResult<TargetResult> {
        self.execute_with_bar(KernelBar::Host)
    }

    /// Execute with the kernel bar drawn where `bar` says: the `nowait`
    /// task path puts it on the helper-thread track, the interop-stream
    /// path on the stream's track.
    ///
    /// Launches through [`ompx_sim::device::Device::launch_recovering`]
    /// with [`Recovery::HostFallback`]: an injected fault the retries
    /// cannot clear re-dispatches the region on the host. The lowered
    /// kernel is reused functionally — simulated device memory is
    /// host-backed, so results are bit-identical by construction — but the
    /// time is a serial host core's and the plan is the 1×1 host plan a
    /// real runtime's `if(false)` path would report.
    pub fn execute_with_bar(&self, bar: KernelBar<'_>) -> SimResult<TargetResult> {
        let launched = self.omp.device().launch_recovering(
            &self.kernel,
            self.cfg.clone(),
            Recovery::HostFallback,
            bar,
            |stats| self.model(stats).modeled,
        )?;
        let plan = match launched.recovered {
            Some(_) => LaunchPlan::host(self.plan.invalid_result),
            None => self.plan,
        };
        Ok(TargetResult { stats: launched.stats, modeled: launched.modeled, plan })
    }

    /// Model a statistics snapshot (possibly scaled) for this region.
    pub fn model(&self, stats: &StatsSnapshot) -> TargetResult {
        let cg = self.omp.codegen().lookup_vendor(
            self.kernel.name(),
            self.omp.device().profile().vendor,
            self.omp.toolchain(),
            CodegenInfo::default(),
        );
        let smem = self.cfg.shared_bytes_per_block().max(self.scratch_shared_bytes);
        // The modeled geometry is the plan's (generic mode simulates one
        // master per team, but the hardware runs `threads` per team).
        let modeled = model_kernel(
            self.omp.device().profile(),
            self.plan.threads,
            stats.blocks_executed.max(self.plan.teams as u64),
            smem,
            stats,
            &cg,
            &self.plan.mode.overheads(),
        );
        TargetResult { stats: *stats, modeled, plan: self.plan }
    }

    /// The resolved launch plan.
    pub fn plan(&self) -> LaunchPlan {
        self.plan
    }

    /// The kernel name (for codegen registration and diagnostics).
    pub fn kernel_name(&self) -> &str {
        self.kernel.name()
    }
}

/// Handle to a `nowait` target task.
pub struct NowaitTarget {
    handle: TaskHandle,
    result: Arc<Mutex<Option<SimResult<TargetResult>>>>,
}

impl NowaitTarget {
    /// Wait for the target task and take its result.
    pub fn wait(self) -> SimResult<TargetResult> {
        self.handle.wait();
        // Task-system invariant, not host-side misuse: the submitted
        // closure always stores a result before the handle completes, so a
        // missing slot is a runtime bug and deliberately panics (see the
        // error-policy note in ompx-sim's error.rs).
        self.result.lock().take().expect("completed target task must have a result")
    }

    /// True once the target task finished.
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quirks::QuirkSet;

    #[test]
    fn spmd_dpf_computes_and_models() {
        let omp = OpenMp::test_system();
        let n = 1000;
        let a = omp.device().alloc_from(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let b = omp.device().alloc::<f32>(n);
        let r = omp
            .target("vadd")
            .num_teams(8)
            .thread_limit(64)
            .run_distribute_parallel_for(n, {
                let (a, b) = (a.clone(), b.clone());
                move |tc, i, _s| {
                    let v = tc.read(&a, i);
                    tc.flops(1);
                    tc.write(&b, i, v + 1.0);
                }
            })
            .unwrap();
        assert_eq!(r.plan.mode, ExecMode::Spmd);
        assert_eq!(r.stats.flops, n as u64);
        assert!(r.modeled.seconds > 0.0);
        assert_eq!(b.to_vec()[999], 1000.0);
    }

    #[test]
    fn force_generic_quirk_changes_mode_not_results() {
        let omp = OpenMp::test_system();
        omp.quirks().set("gen_loop", QuirkSet { force_generic: true, ..Default::default() });
        let n = 500;
        let run = |name: &str| {
            let out = omp.device().alloc::<u32>(n);
            let r = omp
                .target(name)
                .num_teams(4)
                .thread_limit(32)
                .run_distribute_parallel_for(n, {
                    let out = out.clone();
                    move |tc, i, _s| tc.write(&out, i, (i * 3) as u32)
                })
                .unwrap();
            (out.to_vec(), r)
        };
        let (v1, r1) = run("gen_loop");
        let (v2, r2) = run("plain_loop");
        assert_eq!(v1, v2);
        assert_eq!(r1.plan.mode, ExecMode::Generic);
        assert_eq!(r2.plan.mode, ExecMode::Spmd);
        // Generic mode must cost more (state machine + per-block overheads).
        assert!(r1.modeled.seconds > r2.modeled.seconds);
        assert!(r1.stats.barriers > r2.stats.barriers);
    }

    #[test]
    fn thread_cap_quirk_reduces_width() {
        let omp = OpenMp::test_system();
        omp.quirks().set("capped", QuirkSet { thread_cap: Some(8), ..Default::default() });
        let plan = omp.target("capped").num_teams(2).thread_limit(64).plan();
        assert_eq!(plan.threads, 8);
        let plan = omp.target("uncapped").num_teams(2).thread_limit(64).plan();
        assert_eq!(plan.threads, 64);
    }

    #[test]
    fn scratch_heap_counts_global_traffic() {
        let omp = OpenMp::test_system();
        let n = 64;
        let r = omp
            .target("scratchy")
            .num_teams(2)
            .thread_limit(16)
            .scratch_f64(4)
            .run_distribute_parallel_for(n, move |tc, i, s| {
                for j in 0..4 {
                    s.set(tc, j, (i + j) as f64);
                }
                let mut acc = 0.0;
                for j in 0..4 {
                    acc += s.get(tc, j);
                }
                assert_eq!(acc, (4 * i + 6) as f64);
            })
            .unwrap();
        // 64 iterations x 4 stores + 4 loads of f64.
        assert_eq!(r.stats.global_store_bytes, 64 * 4 * 8);
        assert_eq!(r.stats.global_load_bytes, 64 * 4 * 8);
        assert_eq!(r.stats.shared_accesses, 0);
    }

    #[test]
    fn scratch_heap_to_shared_moves_traffic() {
        let omp = OpenMp::test_system();
        omp.quirks().set("shiny", QuirkSet { heap_to_shared: true, ..Default::default() });
        let n = 64;
        let r = omp
            .target("shiny")
            .num_teams(2)
            .thread_limit(16)
            .scratch_f64(4)
            .run_distribute_parallel_for(n, move |tc, i, s| {
                s.set(tc, 0, i as f64);
                assert_eq!(s.get(tc, 0), i as f64);
            })
            .unwrap();
        assert_eq!(r.stats.shared_accesses, 64 * 2);
        assert_eq!(r.stats.global_store_bytes, 0);
        assert!(r.plan.heap_to_shared);
    }

    #[test]
    fn if_clause_falls_back_to_the_host() {
        let omp = OpenMp::test_system();
        let n = 300;
        let run_with = |offload: bool| {
            let out = omp.device().alloc::<f32>(n);
            let r = omp
                .target("conditional")
                .num_teams(4)
                .thread_limit(16)
                .when(offload)
                .run_distribute_parallel_for(n, {
                    let out = out.clone();
                    move |tc, i, _s| {
                        tc.flops(1);
                        tc.write(&out, i, i as f32 + 0.5);
                    }
                })
                .unwrap();
            (out.to_vec(), r)
        };
        let (host_vals, host_r) = run_with(false);
        let (dev_vals, dev_r) = run_with(true);
        assert_eq!(host_vals, dev_vals, "host fallback must compute the same results");
        assert_eq!(host_r.plan.mode, ExecMode::Host);
        assert_eq!(host_r.plan.teams, 1);
        assert_eq!(dev_r.plan.mode, ExecMode::Spmd);
        // The host path is serial: one executed "thread".
        assert_eq!(host_r.stats.threads_executed, 1);
        assert!(host_r.modeled.seconds > 0.0);
    }

    #[test]
    fn if_clause_covers_reduce_and_nowait_paths() {
        let omp = OpenMp::test_system();
        let n = 100;
        // reduction(+:) with if(false): host execution, same value.
        let (sum, r) =
            omp.target("host_reduce").when(false).run_reduce_sum(n, |_tc, i| i as f64).unwrap();
        assert_eq!(sum, (0..n).map(|i| i as f64).sum::<f64>());
        assert_eq!(r.plan.mode, ExecMode::Host);

        // nowait with if(false): a host task, still ordered by depends.
        let out = omp.device().alloc::<f32>(n);
        let t = omp.target("host_nowait").when(false).run_dpf_nowait(&[], &[], n, {
            let out = out.clone();
            move |tc, i, _s| tc.write(&out, i, i as f32)
        });
        let res = t.wait().unwrap();
        assert_eq!(res.plan.mode, ExecMode::Host);
        assert_eq!(out.get(n - 1), (n - 1) as f32);
    }

    #[test]
    fn reduction_sum_matches_reference_in_both_modes() {
        let omp = OpenMp::test_system();
        omp.quirks().set("red_gen", QuirkSet { force_generic: true, ..Default::default() });
        let n = 1234;
        let data = omp.device().alloc_from(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let expect: f64 = (0..n).map(|i| i as f64).sum();
        for name in ["red_spmd", "red_gen"] {
            let (sum, r) = omp
                .target(name)
                .num_teams(4)
                .thread_limit(32)
                .run_reduce_sum(n, {
                    let data = data.clone();
                    move |tc, i| tc.read(&data, i)
                })
                .unwrap();
            assert_eq!(sum, expect, "{name}");
            assert!(r.stats.atomic_ops > 0, "{name}: reductions combine atomically");
        }
    }

    #[test]
    fn nowait_with_dependences() {
        let omp = OpenMp::test_system();
        let n = 100;
        let buf = omp.device().alloc::<f32>(n);
        let key = DepKey::token(42);
        // Producer writes i, consumer doubles it; depend(out) then
        // depend(in) must order them.
        let t1 =
            omp.target("producer").num_teams(2).thread_limit(16).run_dpf_nowait(&[], &[key], n, {
                let buf = buf.clone();
                move |tc, i, _s| tc.write(&buf, i, i as f32)
            });
        let t2 =
            omp.target("consumer").num_teams(2).thread_limit(16).run_dpf_nowait(&[key], &[], n, {
                let buf = buf.clone();
                move |tc, i, _s| {
                    let v = tc.read(&buf, i);
                    tc.write(&buf, i, v * 2.0);
                }
            });
        t1.wait().unwrap();
        t2.wait().unwrap();
        omp.taskwait();
        let out = buf.to_vec();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn invalid_result_flag_surfaces_in_plan() {
        let omp = OpenMp::test_system();
        omp.quirks().set("broken", QuirkSet { invalid_result: true, ..Default::default() });
        assert!(omp.target("broken").plan().invalid_result);
    }

    #[test]
    fn prepared_target_is_reusable() {
        let omp = OpenMp::test_system();
        let acc = omp.device().alloc::<u32>(1);
        let prepared = omp.target("iter").num_teams(1).thread_limit(8).prepare_dpf(8, {
            let acc = acc.clone();
            Arc::new(move |tc: &mut ThreadCtx<'_>, _i, _s: &Scratch| {
                tc.atomic_add(&acc, 0, 1);
            })
        });
        for _ in 0..5 {
            prepared.execute().unwrap();
        }
        assert_eq!(acc.get(0), 40);
    }
}
