//! `NativeCtx`: the CUDA-runtime-shaped execution context.
//!
//! This is the program-visible half of a kernel language: memory management
//! (`cudaMalloc`/`cudaMemcpy`/`cudaFree`), chevron-style kernel launches,
//! streams and events, and device synchronization — all lowered onto the
//! simulator. The [`crate::cuda`] and [`crate::hip`] modules give it
//! vendor-flavoured names.
//!
//! Each synchronous launch returns a [`LaunchResult`] carrying both the
//! functional statistics and the modeled execution time computed with the
//! context's toolchain profile. Launches go through the device's launch
//! pipeline, which records their kernel bars in the profiler's span log
//! ([`ompx_sim::span`]).

use crate::toolchain::{CodegenDb, Toolchain};
use ompx_sim::counters::StatsSnapshot;
use ompx_sim::device::{Device, KernelBar};
use ompx_sim::dim::{Dim3, LaunchConfig};
use ompx_sim::error::{SimError, SimResult};
use ompx_sim::exec::Kernel;
use ompx_sim::fault::{run_with_retry, Recovery, RetryPolicy};
use ompx_sim::mem::{DBuf, DeviceScalar};
use ompx_sim::span::{self, SpanCategory};
use ompx_sim::stream::{Event, Stream};
use ompx_sim::timing::{model_kernel, CodegenInfo, ModeOverheads, ModeledTime};
use std::sync::Arc;

/// Outcome of one synchronous kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    /// Counted events, aggregated over the whole grid.
    pub stats: StatsSnapshot,
    /// Modeled execution time under this context's toolchain.
    pub modeled: ModeledTime,
}

struct CtxInner {
    device: Device,
    toolchain: Toolchain,
    codegen: CodegenDb,
}

/// A native kernel-language context: one device + one compiling toolchain.
#[derive(Clone)]
pub struct NativeCtx {
    inner: Arc<CtxInner>,
}

impl NativeCtx {
    /// Create a context for `device` as compiled by `toolchain`.
    pub fn new(device: Device, toolchain: Toolchain) -> Self {
        NativeCtx { inner: Arc::new(CtxInner { device, toolchain, codegen: CodegenDb::new() }) }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The toolchain this context models.
    pub fn toolchain(&self) -> Toolchain {
        self.inner.toolchain
    }

    /// The codegen profile database (register paper-reported values here).
    pub fn codegen(&self) -> &CodegenDb {
        &self.inner.codegen
    }

    // ---- sanitizer (compute-sanitizer / ompx-sanitizer) -------------------

    /// Attach a sanitizer session to this context's device: every
    /// subsequent launch and allocation is observed. The thin wrapper of
    /// running a CUDA/HIP binary under `compute-sanitizer`.
    pub fn sanitizer_attach(&self, state: std::sync::Arc<ompx_sim::san::SanState>) {
        self.inner.device.attach_sanitizer(state);
    }

    /// Detach the session, returning it with its findings.
    pub fn sanitizer_detach(&self) -> Option<std::sync::Arc<ompx_sim::san::SanState>> {
        self.inner.device.detach_sanitizer()
    }

    /// Findings recorded so far, without detaching.
    pub fn sanitizer_findings(&self) -> Vec<ompx_sim::san::Diagnostic> {
        self.inner.device.sanitizer().map(|s| s.diagnostics()).unwrap_or_default()
    }

    // ---- fault handling ---------------------------------------------------

    /// Retry policy used for transient injected faults on this context's
    /// device.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.device.retry_policy()
    }

    /// Replace the retry policy (delegates to the device).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.inner.device.set_retry_policy(policy);
    }

    /// `cudaGetLastError`: last recorded error, cleared on read unless
    /// sticky (device loss).
    pub fn get_last_error(&self) -> Option<SimError> {
        self.inner.device.take_last_error()
    }

    /// `cudaPeekAtLastError`: last recorded error, not cleared.
    pub fn peek_last_error(&self) -> Option<SimError> {
        self.inner.device.peek_last_error()
    }

    /// Retry `attempt` under the device policy. Returns `Err` only for an
    /// unrecovered *injected* fault — the caller then falls back to the
    /// raw, injection-blind copy so the program keeps functionally correct
    /// results (the error stays recorded as sticky device state). A
    /// non-injected error is host-side misuse and panics, preserving the
    /// infallible wrapper's historical contract.
    fn retry_injected(
        &self,
        what: &str,
        attempt: impl FnMut() -> SimResult<()>,
    ) -> Result<(), SimError> {
        match run_with_retry(&self.inner.device, &self.inner.device.retry_policy(), what, attempt) {
            Ok(()) => Ok(()),
            Err(e) if e.is_injected() => {
                if let Some(f) = self.inner.device.faults() {
                    f.note_degraded(&format!("{what}: {e}"));
                }
                Err(e)
            }
            Err(e) => panic!("{what}: {e}"),
        }
    }

    // ---- memory management (cudaMalloc / cudaMemcpy / cudaFree) ----------

    /// `cudaMalloc`: allocate `n` zero-initialized elements.
    pub fn malloc<T: DeviceScalar>(&self, n: usize) -> DBuf<T> {
        self.inner.device.alloc(n)
    }

    /// `cudaMemcpy(…, HostToDevice)` combined with allocation.
    pub fn malloc_from<T: DeviceScalar>(&self, data: &[T]) -> DBuf<T> {
        self.inner.device.alloc_from(data)
    }

    /// `cudaMemcpy(…, HostToDevice)`.
    pub fn memcpy_h2d<T: DeviceScalar>(&self, dst: &DBuf<T>, src: &[T]) {
        if self.retry_injected("memcpy H2D", || self.inner.device.try_memcpy_h2d(dst, src)).is_err()
        {
            dst.copy_from_host(src);
        }
        self.memcpy_span("memcpy H2D", SpanCategory::MemcpyH2D, std::mem::size_of_val(src));
    }

    /// `cudaMemcpy(…, DeviceToHost)`.
    pub fn memcpy_d2h<T: DeviceScalar>(&self, dst: &mut [T], src: &DBuf<T>) {
        let bytes = std::mem::size_of_val(&*dst);
        if self
            .retry_injected("memcpy D2H", || self.inner.device.try_memcpy_d2h(src, &mut *dst))
            .is_err()
        {
            src.copy_to_host(dst);
        }
        self.memcpy_span("memcpy D2H", SpanCategory::MemcpyD2H, bytes);
    }

    /// `cudaMemcpy(…, DeviceToDevice)`.
    pub fn memcpy_d2d<T: DeviceScalar>(&self, dst: &DBuf<T>, src: &DBuf<T>, n: usize) {
        if self
            .retry_injected("memcpy D2D", || self.inner.device.try_memcpy_d2d(dst, src, n))
            .is_err()
        {
            dst.copy_from_device(src, n);
        }
        self.memcpy_span("memcpy D2D", SpanCategory::MemcpyD2D, n * std::mem::size_of::<T>());
    }

    /// Record a synchronous memcpy on the profiler's host track, if a span
    /// log is installed; the bar's width is the modeled transfer time.
    fn memcpy_span(&self, name: &str, cat: SpanCategory, bytes: usize) {
        if let Some(log) = span::active() {
            let seconds = self.inner.device.profile().transfer_seconds(bytes);
            log.host_op(name, cat, seconds, bytes as u64);
        }
    }

    /// `cudaFree`: release the modeled capacity.
    pub fn free<T: DeviceScalar>(&self, buf: &DBuf<T>) {
        self.inner.device.free(buf);
    }

    /// `cudaMemcpyToSymbol`: upload a constant-memory buffer.
    pub fn memcpy_to_symbol<T: DeviceScalar>(&self, data: &[T]) -> ompx_sim::constant::CBuf<T> {
        self.inner.device.alloc_const(data)
    }

    /// `cudaMemcpy(…, HostToDevice)` with the modeled transfer time
    /// returned (interconnect latency + bytes/bandwidth — the §2.6 cost).
    pub fn memcpy_h2d_timed<T: DeviceScalar>(&self, dst: &DBuf<T>, src: &[T]) -> f64 {
        self.memcpy_h2d(dst, src);
        self.inner.device.profile().transfer_seconds(std::mem::size_of_val(src))
    }

    /// `cudaMemcpyAsync(…, HostToDevice, stream)`: the copy is enqueued
    /// behind the stream's prior work and its modeled transfer time is
    /// charged to the stream's timeline.
    pub fn memcpy_h2d_async<T: DeviceScalar>(&self, dst: &DBuf<T>, src: &[T], stream: &Stream) {
        let dst = dst.clone();
        let data: Vec<T> = src.to_vec();
        let bytes = std::mem::size_of_val(src);
        let seconds = self.inner.device.profile().transfer_seconds(bytes);
        let flow = span::active().map(|log| {
            log.host_op_flow("memcpyAsync H2D", SpanCategory::HostOp, 0.0, bytes as u64)
        });
        let stream2 = stream.clone();
        let ctx = self.clone();
        stream.enqueue(move || {
            if ctx
                .retry_injected("memcpyAsync H2D", || ctx.inner.device.try_memcpy_h2d(&dst, &data))
                .is_err()
            {
                dst.copy_from_host(&data);
            }
            stream2.add_modeled_span(
                "memcpy H2D",
                SpanCategory::MemcpyH2D,
                seconds,
                bytes as u64,
                flow,
            );
        });
    }

    /// `cudaOccupancyMaxActiveBlocksPerMultiprocessor`: how many blocks of
    /// `kernel_name` at `block_size` threads (+`smem_per_block` bytes) fit
    /// on one SM under this context's codegen profile.
    pub fn occupancy_max_active_blocks(
        &self,
        kernel_name: &str,
        block_size: u32,
        smem_per_block: usize,
    ) -> u32 {
        let cg = self.codegen_for(kernel_name);
        ompx_sim::timing::occupancy(
            self.inner.device.profile(),
            block_size,
            cg.regs_per_thread,
            smem_per_block + cg.static_smem_bytes,
        )
        .blocks_per_sm
    }

    // ---- streams and events ----------------------------------------------

    /// `cudaStreamCreate`.
    pub fn stream_create(&self) -> Stream {
        Stream::new(&self.inner.device)
    }

    /// `cudaDeviceSynchronize`.
    pub fn device_synchronize(&self) {
        self.inner.device.synchronize();
        if let Some(log) = span::active() {
            log.host_op("deviceSynchronize", SpanCategory::Sync, 0.0, 0);
        }
    }

    // ---- launches ----------------------------------------------------------

    /// Chevron launch: `kernel<<<grid, block>>>(…)`, synchronous.
    pub fn launch(
        &self,
        kernel: &Kernel,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
    ) -> SimResult<LaunchResult> {
        self.launch_cfg(kernel, LaunchConfig::new(grid, block))
    }

    /// Launch with a full configuration (shared-memory slots etc.). A
    /// synchronous launch occupies the host thread for its modeled
    /// duration — one kernel bar on the profiler's host track.
    pub fn launch_cfg(&self, kernel: &Kernel, cfg: LaunchConfig) -> SimResult<LaunchResult> {
        self.launch_with_bar(kernel, cfg, KernelBar::Host)
    }

    /// The launch, with its kernel bar drawn where `bar` says.
    ///
    /// A fault the retries cannot clear degrades: native kernel languages
    /// have no host-dispatch alternative — unlike OpenMP target regions —
    /// so the kernel is re-dispatched on the device
    /// ([`Recovery::Redispatch`]); the error stays recorded as sticky
    /// device state.
    fn launch_with_bar(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        bar: KernelBar<'_>,
    ) -> SimResult<LaunchResult> {
        let (tpb, smem) = (cfg.threads_per_block() as u32, cfg.shared_bytes_per_block());
        let launched = self.inner.device.launch_recovering(
            kernel,
            cfg,
            Recovery::Redispatch,
            bar,
            |stats| self.model(kernel.name(), tpb, smem, stats),
        )?;
        Ok(LaunchResult { stats: launched.stats, modeled: launched.modeled })
    }

    /// Asynchronous launch into a stream: `kernel<<<grid, block, 0, s>>>`.
    /// Returns an event that completes when the kernel has executed.
    ///
    /// Invalid configurations are rejected immediately with a panic — the
    /// launch-time error CUDA reports from `cudaLaunchKernel` — rather than
    /// silently dropped on the stream.
    pub fn launch_async(&self, kernel: &Kernel, cfg: LaunchConfig, stream: &Stream) -> Event {
        if let Err(e) = self.inner.device.validate_launch(&cfg) {
            panic!("launch_async({}): {e}", kernel.name());
        }
        let flow = span::active().map(|log| {
            log.host_op_flow(&format!("launch {}", kernel.name()), SpanCategory::HostOp, 0.0, 0)
        });
        let ctx = self.clone();
        let kernel = kernel.clone();
        let stream_handle = stream.clone();
        stream.enqueue(move || {
            // Validation passed above and injected faults are recovered or
            // degraded inside `launch_with_bar`; a failure here is a simulator
            // invariant violation — poison the stream loudly. (Deliberate
            // panic, per the error.rs contract.)
            if let Err(e) =
                ctx.launch_with_bar(&kernel, cfg, KernelBar::Stream(&stream_handle, flow))
            {
                panic!("async launch of {} failed: {e}", kernel.name());
            }
        });
        stream.record_event()
    }

    /// Model a (possibly workload-scaled) statistics snapshot for `kernel`
    /// under this context's toolchain. Grid size is taken from
    /// `stats.blocks_executed`, so scaled snapshots extrapolate correctly.
    pub fn model(
        &self,
        kernel_name: &str,
        threads_per_block: u32,
        smem_per_block: usize,
        stats: &StatsSnapshot,
    ) -> ModeledTime {
        let cg = self.codegen_for(kernel_name);
        model_kernel(
            self.inner.device.profile(),
            threads_per_block,
            stats.blocks_executed.max(1),
            smem_per_block,
            stats,
            &cg,
            &ModeOverheads::none(),
        )
    }

    /// Resolve the codegen profile this context would use for `kernel_name`
    /// (vendor-aware: `kernel@nvidia` entries override `kernel` entries).
    pub fn codegen_for(&self, kernel_name: &str) -> CodegenInfo {
        self.inner.codegen.lookup_vendor(
            kernel_name,
            self.inner.device.profile().vendor,
            self.inner.toolchain,
            CodegenInfo::default(),
        )
    }
}

impl std::fmt::Debug for NativeCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NativeCtx({}, {})",
            self.inner.device.profile().name,
            self.inner.toolchain.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::device::DeviceProfile;
    use ompx_sim::thread::ThreadCtx;

    fn ctx() -> NativeCtx {
        NativeCtx::new(Device::new(DeviceProfile::test_small()), Toolchain::Clang)
    }

    fn saxpy_kernel(a: f32, x: &DBuf<f32>, y: &DBuf<f32>, n: usize) -> Kernel {
        let (x, y) = (x.clone(), y.clone());
        Kernel::new("saxpy", move |tc: &mut ThreadCtx| {
            let i = tc.global_thread_id_x();
            if i < n {
                let xi = tc.read(&x, i);
                let yi = tc.read(&y, i);
                tc.flops(2);
                tc.write(&y, i, a * xi + yi);
            }
        })
    }

    #[test]
    fn malloc_memcpy_launch_roundtrip() {
        let c = ctx();
        let n = 100;
        let x = c.malloc_from(&vec![1.0f32; n]);
        let y = c.malloc::<f32>(n);
        c.memcpy_h2d(&y, &vec![2.0f32; n]);
        let k = saxpy_kernel(3.0, &x, &y, n);
        let r = c.launch(&k, 4u32, 32u32).unwrap();
        assert_eq!(r.stats.flops, 2 * n as u64);
        assert!(r.modeled.seconds > 0.0);
        let mut out = vec![0.0f32; n];
        c.memcpy_d2h(&mut out, &y);
        assert!(out.iter().all(|&v| v == 5.0));
        c.free(&x);
        c.free(&y);
    }

    #[test]
    fn async_launch_executes_on_stream() {
        let c = ctx();
        let x = c.malloc_from(&[2.0f32; 64]);
        let y = c.malloc::<f32>(64);
        let s = c.stream_create();
        let k = saxpy_kernel(2.0, &x, &y, 64);
        let ev = c.launch_async(&k, LaunchConfig::linear(64, 32), &s);
        ev.wait();
        assert_eq!(y.to_vec(), vec![4.0f32; 64]);
        assert!(s.modeled_busy_seconds() > 0.0);
    }

    #[test]
    fn timed_and_async_memcpys() {
        let c = ctx();
        let dst = c.malloc::<f32>(1024);
        let src = vec![2.5f32; 1024];
        let t = c.memcpy_h2d_timed(&dst, &src);
        assert!(t > 0.0);
        assert_eq!(dst.get(1023), 2.5);

        let dst2 = c.malloc::<f32>(1024);
        let s = c.stream_create();
        c.memcpy_h2d_async(&dst2, &src, &s);
        s.synchronize();
        assert_eq!(dst2.get(0), 2.5);
        assert!(s.modeled_busy_seconds() > 0.0);
    }

    #[test]
    fn constant_memory_upload() {
        let c = ctx();
        let table = c.memcpy_to_symbol(&[1u32, 2, 3]);
        assert_eq!(table.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn occupancy_api_tracks_register_pressure() {
        let c = ctx();
        c.codegen().set(
            "fat_kernel",
            Toolchain::Clang,
            CodegenInfo { regs_per_thread: 128, ..CodegenInfo::default() },
        );
        c.codegen().set(
            "lean_kernel",
            Toolchain::Clang,
            CodegenInfo { regs_per_thread: 16, ..CodegenInfo::default() },
        );
        let fat = c.occupancy_max_active_blocks("fat_kernel", 64, 0);
        let lean = c.occupancy_max_active_blocks("lean_kernel", 64, 0);
        assert!(lean > fat, "lean {lean} should fit more blocks than fat {fat}");
        // Shared memory also limits.
        let smem_bound = c.occupancy_max_active_blocks("lean_kernel", 64, 8 * 1024);
        assert!(smem_bound <= 2);
    }

    #[test]
    fn model_uses_toolchain_profiles() {
        let c = ctx();
        c.codegen().set(
            "saxpy",
            Toolchain::Clang,
            CodegenInfo { regs_per_thread: 128, ..CodegenInfo::default() },
        );
        let cg = c.codegen_for("saxpy");
        assert_eq!(cg.regs_per_thread, 128);
        // Unregistered kernels derive from the toolchain default.
        let cg2 = c.codegen_for("unknown_kernel");
        assert_eq!(cg2, Toolchain::Clang.derive(CodegenInfo::default()));
    }
}
