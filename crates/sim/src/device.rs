//! Simulated GPU devices and their hardware profiles.
//!
//! The paper's evaluation machines (Figure 7) are an NVIDIA A100 (40 GB) and
//! an AMD MI250; [`DeviceProfile::a100`] and [`DeviceProfile::mi250`] encode
//! their published micro-architectural parameters. The profile drives both
//! *functional* differences (warp width 32 vs 64, limits validated at launch)
//! and the *timing model* (SM count, clock, bandwidth, register file,
//! occupancy limits — see [`crate::timing`]).

use crate::counters::StatsSnapshot;
use crate::dim::LaunchConfig;
use crate::error::{SimError, SimResult};
use crate::exec::{self, Kernel};
use crate::fault::{
    run_with_retry, FaultKind, FaultSite, FaultState, Injected, Recovery, RetryPolicy,
};
use crate::mem::{BufImage, CheckpointTarget, DBuf, DeviceScalar};
use crate::memtrace::{LaunchMemTrace, MemTrace};
use crate::san::{LaunchSan, SanState};
use crate::span::SpanCategory;
use crate::stream::Stream;
use crate::timing::{host_model_seconds, ModeledTime};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// What [`Device::launch_recovering`] ran.
#[derive(Debug, Clone)]
pub struct Launched {
    /// Counted events of the execution that completed.
    pub stats: StatsSnapshot,
    /// Its modeled time: the caller's device model, or the host roofline
    /// after a [`Recovery::HostFallback`].
    pub modeled: ModeledTime,
    /// The recovery that ran, and the fault that forced it.
    pub recovered: Option<(Recovery, SimError)>,
}

/// Where [`Device::launch_recovering`] draws a launch's kernel bar.
#[derive(Debug, Clone, Copy)]
pub enum KernelBar<'a> {
    /// The host track: a synchronous launch blocks the submitting thread
    /// for the kernel's modeled duration.
    Host,
    /// The hidden-helper-thread track, at the head of the `nowait` flow
    /// arrow, if any.
    Task(Option<u64>),
    /// The stream's track at its modeled-busy cursor, with the incoming
    /// flow arrow. The bar advances the cursor whether or not a span log
    /// is installed ([`Stream::add_modeled_span`]).
    Stream(&'a Stream, Option<u64>),
}

impl KernelBar<'_> {
    fn record(self, name: &str, seconds: f64) {
        match self {
            KernelBar::Stream(stream, flow) => {
                stream.add_modeled_span(name, SpanCategory::Kernel, seconds, 0, flow)
            }
            KernelBar::Host => {
                if let Some(log) = crate::span::active() {
                    log.host_op(name, SpanCategory::Kernel, seconds, 0);
                }
            }
            KernelBar::Task(flow) => {
                if let Some(log) = crate::span::active() {
                    log.task_span(name, seconds, flow);
                }
            }
        }
    }
}

/// GPU vendor, used by the paper's §3.6 wrapper layer to pick the matching
/// "vendor library" implementation at launch-target resolution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    Nvidia,
    Amd,
    /// Small synthetic device used by unit tests.
    Generic,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::Nvidia => write!(f, "NVIDIA"),
            Vendor::Amd => write!(f, "AMD"),
            Vendor::Generic => write!(f, "Generic"),
        }
    }
}

/// Micro-architectural description of a simulated GPU.
///
/// Field names use NVIDIA vocabulary ("SM", "warp") for uniformity; on the
/// AMD profile an SM is a Compute Unit and a warp is a 64-lane wavefront.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    pub name: String,
    pub vendor: Vendor,
    /// Streaming multiprocessors / compute units.
    pub sm_count: u32,
    /// Warp (NVIDIA) or wavefront (AMD) width.
    pub warp_size: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global-memory bandwidth in bytes/second.
    pub mem_bw_bytes_per_s: f64,
    /// Average global-memory latency in core cycles.
    pub mem_latency_cycles: f64,
    /// Peak FP32 throughput in FLOP/s.
    pub fp32_flops: f64,
    /// Peak FP64 throughput in FLOP/s.
    pub fp64_flops: f64,
    /// Peak integer-op throughput in ops/s.
    pub int_ops_per_s: f64,
    /// Shared-memory accesses per second (all SMs).
    pub shared_ops_per_s: f64,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub smem_per_sm: usize,
    /// Shared-memory limit for a single block in bytes.
    pub max_smem_per_block: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Base kernel-launch latency in seconds (native kernel language).
    pub base_launch_latency_s: f64,
    /// Cost of one block-wide barrier in core cycles.
    pub barrier_cycles: f64,
    /// Global atomic throughput in ops/s.
    pub atomic_ops_per_s: f64,
    /// Instruction-cache-friendly binary size in bytes; kernels larger than
    /// this pay an i-cache penalty (see SU3 analysis in the paper, §4.2.3).
    pub icache_bytes: usize,
    /// Host-device interconnect bandwidth in bytes/second (PCIe 4.0 x16 on
    /// both of the paper's systems).
    pub pcie_bw_bytes_per_s: f64,
    /// Base latency of one host-device transfer in seconds.
    pub pcie_latency_s: f64,
}

impl DeviceProfile {
    /// NVIDIA A100-SXM4-40GB (Ampere GA100), per the paper's Figure 7 and
    /// NVIDIA's published specifications.
    pub fn a100() -> Self {
        DeviceProfile {
            name: "NVIDIA A100 (40 GB)".to_string(),
            vendor: Vendor::Nvidia,
            sm_count: 108,
            warp_size: 32,
            clock_ghz: 1.41,
            mem_bw_bytes_per_s: 1.555e12,
            mem_latency_cycles: 470.0,
            fp32_flops: 19.5e12,
            fp64_flops: 9.7e12,
            int_ops_per_s: 19.5e12,
            // 32 lanes/SM/cycle ideal; ~30 achieved with occasional bank
            // conflicts.
            shared_ops_per_s: 30.0 * 108.0 * 1.41e9,
            regs_per_sm: 65536,
            smem_per_sm: 164 * 1024,
            max_smem_per_block: 163 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            global_mem_bytes: 40 * (1 << 30),
            base_launch_latency_s: 2.0e-6,
            barrier_cycles: 12.0,
            atomic_ops_per_s: 2.0e10,
            icache_bytes: 16 * 1024,
            pcie_bw_bytes_per_s: 26.0e9,
            pcie_latency_s: 8.0e-6,
        }
    }

    /// AMD MI250, one Graphics Compute Die (CDNA2), per the paper's Figure 7
    /// and AMD's published specifications. ROCm exposes each GCD as its own
    /// device, which is how HeCBench runs it.
    pub fn mi250() -> Self {
        DeviceProfile {
            name: "AMD MI250 (GCD)".to_string(),
            vendor: Vendor::Amd,
            sm_count: 104,
            warp_size: 64,
            clock_ghz: 1.7,
            mem_bw_bytes_per_s: 1.6384e12,
            mem_latency_cycles: 600.0,
            fp32_flops: 22.6e12,
            fp64_flops: 22.6e12,
            int_ops_per_s: 22.6e12,
            shared_ops_per_s: 64.0 * 104.0 * 1.7e9,
            regs_per_sm: 2 * 65536,
            smem_per_sm: 64 * 1024,
            max_smem_per_block: 64 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            global_mem_bytes: 64 * (1 << 30),
            base_launch_latency_s: 3.0e-6,
            barrier_cycles: 15.0,
            atomic_ops_per_s: 1.5e10,
            icache_bytes: 32 * 1024,
            pcie_bw_bytes_per_s: 26.0e9,
            pcie_latency_s: 9.0e-6,
        }
    }

    /// A tiny synthetic device for fast, deterministic unit tests:
    /// 4-lane warps keep warp-collective tests small.
    pub fn test_small() -> Self {
        DeviceProfile {
            name: "TestGPU".to_string(),
            vendor: Vendor::Generic,
            sm_count: 4,
            warp_size: 4,
            clock_ghz: 1.0,
            mem_bw_bytes_per_s: 1.0e11,
            mem_latency_cycles: 100.0,
            fp32_flops: 1.0e12,
            fp64_flops: 0.5e12,
            int_ops_per_s: 1.0e12,
            shared_ops_per_s: 4.0 * 4.0 * 1.0e9,
            regs_per_sm: 4096,
            smem_per_sm: 16 * 1024,
            max_smem_per_block: 16 * 1024,
            max_threads_per_sm: 256,
            max_blocks_per_sm: 8,
            max_threads_per_block: 128,
            global_mem_bytes: 256 << 20,
            base_launch_latency_s: 1.0e-6,
            barrier_cycles: 20.0,
            atomic_ops_per_s: 1.0e9,
            icache_bytes: 8 * 1024,
            pcie_bw_bytes_per_s: 8.0e9,
            pcie_latency_s: 5.0e-6,
        }
    }

    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Modeled wall time of one host-device transfer of `bytes`
    /// (the explicit `cudaMemcpy` / `omp_target_memcpy` / `map` clause
    /// cost of the paper's §2.6).
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.pcie_latency_s + bytes as f64 / self.pcie_bw_bytes_per_s
    }
}

pub(crate) struct DeviceInner {
    pub profile: DeviceProfile,
    pub id: usize,
    allocated: AtomicUsize,
    pub(crate) streams: Mutex<Vec<Weak<crate::stream::StreamInner>>>,
    /// Attached sanitizer session, if any. All launches and allocations on
    /// this device report into it while attached.
    sanitizer: Mutex<Option<Arc<SanState>>>,
    /// Attached memory-access trace, if any. All launches on this device
    /// record their counted memory accesses into it while attached (the
    /// analyzer's replay-validation hook).
    mem_trace: Mutex<Option<Arc<MemTrace>>>,
    /// Attached fault-injection state, if any. While attached, allocation,
    /// memcpy, launch and stream-synchronize paths roll it before doing
    /// real work.
    faults: Mutex<Option<Arc<FaultState>>>,
    /// Last error recorded on this device (CUDA's `cudaGetLastError`
    /// model; sticky errors persist across reads).
    last_error: Mutex<Option<SimError>>,
    /// Retry policy the infallible wrappers and language runtimes use for
    /// transient faults on this device.
    retry: Mutex<RetryPolicy>,
    /// Every live allocation, registered at alloc time so a watchdog
    /// checkpoint can find the buffers to snapshot. Weak handles: the
    /// registry must not keep dropped buffers alive. Registration is O(1)
    /// bookkeeping — no snapshot is taken until a watchdog actually fires,
    /// which is what keeps the fault-free baseline bit-identical.
    allocs: Mutex<Vec<Weak<dyn CheckpointTarget>>>,
    /// Per-kernel write-set hints: the diagnostic labels of buffers the
    /// kernel may write, sourced from analyzer access summaries. Kernels
    /// without a hint fall back to whole-buffer snapshots.
    write_sets: Mutex<HashMap<String, Vec<String>>>,
    /// Pre-launch checkpoints keyed by kernel name, taken when a watchdog
    /// injection fires (before the partial block prefix commits) and
    /// consumed by [`Device::restore_checkpoint`].
    checkpoints: Mutex<HashMap<String, Checkpoint>>,
    /// Per-device worker-thread override for the executor (0 = unset; fall
    /// back to [`exec::default_workers`]). `1` is the reference serial
    /// mode; results are bit-identical at any setting.
    sim_workers: AtomicUsize,
}

/// One kernel's pre-launch snapshot: the saved image of every buffer the
/// watchdog checkpoint covered, alongside the (weak) buffer it restores to.
type Checkpoint = Vec<(Weak<dyn CheckpointTarget>, BufImage)>;

static NEXT_DEVICE_ID: AtomicUsize = AtomicUsize::new(0);

/// A handle to a simulated GPU. Cheap to clone (shared inner state), like a
/// CUDA device ordinal plus its context.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// Bring up a device with the given hardware profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                profile,
                id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
                allocated: AtomicUsize::new(0),
                streams: Mutex::new(Vec::new()),
                sanitizer: Mutex::new(None),
                mem_trace: Mutex::new(None),
                faults: Mutex::new(None),
                last_error: Mutex::new(None),
                retry: Mutex::new(RetryPolicy::default()),
                allocs: Mutex::new(Vec::new()),
                write_sets: Mutex::new(HashMap::new()),
                checkpoints: Mutex::new(HashMap::new()),
                sim_workers: AtomicUsize::new(0),
            }),
        }
    }

    /// Set (or with `None`, clear) this device's executor worker-thread
    /// count. `Some(1)` selects the reference serial mode. Unset devices
    /// resolve through [`exec::default_workers`]: the process-global
    /// override, then `OMPX_SIM_WORKERS`, then the host's parallelism.
    pub fn set_sim_workers(&self, workers: Option<usize>) {
        self.inner.sim_workers.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
    }

    /// The worker-thread count the next launch on this device will use.
    pub fn sim_workers(&self) -> usize {
        match self.inner.sim_workers.load(Ordering::Relaxed) {
            0 => exec::default_workers(),
            n => n,
        }
    }

    /// Attach a sanitizer session: subsequent launches and allocations on
    /// this device report into `state` until [`Device::detach_sanitizer`].
    /// Replaces any previously attached session.
    pub fn attach_sanitizer(&self, state: Arc<SanState>) {
        *self.inner.sanitizer.lock() = Some(state);
    }

    /// Detach the sanitizer session, returning it (with its findings).
    pub fn detach_sanitizer(&self) -> Option<Arc<SanState>> {
        self.inner.sanitizer.lock().take()
    }

    /// The currently attached sanitizer session, if any.
    pub fn sanitizer(&self) -> Option<Arc<SanState>> {
        self.inner.sanitizer.lock().clone()
    }

    /// Attach a memory-access trace: subsequent launches record every
    /// counted global/shared access into `trace` until
    /// [`Device::detach_mem_trace`]. Replaces any previously attached trace.
    pub fn attach_mem_trace(&self, trace: Arc<MemTrace>) {
        *self.inner.mem_trace.lock() = Some(trace);
    }

    /// Detach the memory-access trace, returning it (with its events).
    pub fn detach_mem_trace(&self) -> Option<Arc<MemTrace>> {
        self.inner.mem_trace.lock().take()
    }

    /// The currently attached memory-access trace, if any.
    pub fn mem_trace(&self) -> Option<Arc<MemTrace>> {
        self.inner.mem_trace.lock().clone()
    }

    /// Attach a fault-injection state: subsequent allocations, memcpys,
    /// launches and stream synchronizations on this device roll it until
    /// [`Device::detach_faults`]. Replaces any previously attached state.
    pub fn attach_faults(&self, state: Arc<FaultState>) {
        *self.inner.faults.lock() = Some(state);
    }

    /// Detach the fault-injection state, returning it (with its records).
    pub fn detach_faults(&self) -> Option<Arc<FaultState>> {
        self.inner.faults.lock().take()
    }

    /// The currently attached fault-injection state, if any.
    pub fn faults(&self) -> Option<Arc<FaultState>> {
        self.inner.faults.lock().clone()
    }

    /// True once an attached plan's device loss has fired.
    pub fn is_lost(&self) -> bool {
        self.faults().is_some_and(|f| f.device_lost())
    }

    /// Retry policy used for transient faults on this device.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.inner.retry.lock()
    }

    /// Replace the device's retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.inner.retry.lock() = policy;
    }

    /// Record `e` as the device's last error (`cudaGetLastError` model).
    /// An already-recorded sticky error (device loss) is never overwritten.
    pub fn record_error(&self, e: SimError) {
        let mut slot = self.inner.last_error.lock();
        if slot.as_ref().is_some_and(SimError::is_sticky) {
            return;
        }
        *slot = Some(e);
    }

    /// `cudaPeekAtLastError`: the last recorded error, without clearing it.
    pub fn peek_last_error(&self) -> Option<SimError> {
        self.inner.last_error.lock().clone()
    }

    /// `cudaGetLastError`: the last recorded error, clearing it — unless it
    /// is sticky (device loss), in which case it persists until
    /// [`Device::reset`].
    pub fn take_last_error(&self) -> Option<SimError> {
        let mut slot = self.inner.last_error.lock();
        if slot.as_ref().is_some_and(SimError::is_sticky) {
            return slot.clone();
        }
        slot.take()
    }

    /// Roll the attached fault state at `site`, if any.
    fn roll(&self, site: FaultSite) -> Option<Injected> {
        self.faults().and_then(|f| f.roll(site))
    }

    /// Stream-synchronize injection decision (called by
    /// [`crate::stream::Stream::try_synchronize`]).
    pub(crate) fn roll_stream_fault(&self, stream_id: u64) -> Option<SimError> {
        self.roll(FaultSite::StreamSync).map(|inj| match inj.kind {
            FaultKind::DeviceLost => SimError::DeviceLost { device: self.inner.id },
            _ => SimError::StreamFault { stream: stream_id },
        })
    }

    /// The device's hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.inner.profile
    }

    /// Process-unique device id.
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Bytes of device memory currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.inner.allocated.load(Ordering::Relaxed)
    }

    /// Allocate a zero-initialized buffer of `n` elements, or report memory
    /// exhaustion (`cudaMalloc` returning `cudaErrorMemoryAllocation`) or
    /// an injected allocation fault.
    pub fn try_alloc<T: DeviceScalar>(&self, n: usize) -> SimResult<DBuf<T>> {
        let bytes = n * std::mem::size_of::<T>();
        if let Some(inj) = self.roll(FaultSite::Alloc) {
            return Err(match inj.kind {
                FaultKind::DeviceLost => SimError::DeviceLost { device: self.inner.id },
                _ => SimError::OutOfDeviceMemory { requested: bytes, available: 0 },
            });
        }
        self.alloc_capacity_checked(n)
    }

    /// The fault-blind allocation path: capacity check plus accounting.
    fn alloc_capacity_checked<T: DeviceScalar>(&self, n: usize) -> SimResult<DBuf<T>> {
        let bytes = n * std::mem::size_of::<T>();
        let cap = self.inner.profile.global_mem_bytes;
        let prev = self.inner.allocated.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > cap {
            self.inner.allocated.fetch_sub(bytes, Ordering::Relaxed);
            return Err(SimError::OutOfDeviceMemory {
                requested: bytes,
                available: cap - prev.min(cap),
            });
        }
        let buf = DBuf::new_zeroed(n, self.inner.id);
        self.register_alloc(&buf);
        Ok(buf)
    }

    /// Allocate a zero-initialized buffer of `n` elements. Injected faults
    /// are retried under the device's [`RetryPolicy`]; if the retries are
    /// exhausted the allocation bypasses injection and completes anyway
    /// (the error stays recorded as sticky device state), so the
    /// infallible API never fails the program over an *injected* fault.
    /// Genuine exhaustion of the modeled device memory still panics.
    pub fn alloc<T: DeviceScalar>(&self, n: usize) -> DBuf<T> {
        let policy = self.retry_policy();
        match crate::fault::run_with_retry(self, &policy, "alloc", || self.try_alloc(n)) {
            Ok(buf) => buf,
            Err(e) => match self.alloc_capacity_checked(n) {
                Ok(buf) => {
                    if let Some(f) = self.faults() {
                        f.note_degraded(&format!("alloc of {n} elements: {e}"));
                    }
                    buf
                }
                Err(real) => panic!("device allocation failed: {real}"),
            },
        }
    }

    /// Roll (and, under the retry policy, re-roll) the allocation fault
    /// site for an infallible allocation path that has no capacity check.
    /// Exhausted retries degrade to an unchecked allocation.
    fn alloc_gate(&self, what: &str, bytes: usize) {
        if self.faults().is_none() {
            return;
        }
        let policy = self.retry_policy();
        let rolled = crate::fault::run_with_retry(self, &policy, what, || {
            match self.roll(FaultSite::Alloc) {
                Some(inj) => Err(match inj.kind {
                    FaultKind::DeviceLost => SimError::DeviceLost { device: self.inner.id },
                    _ => SimError::OutOfDeviceMemory { requested: bytes, available: 0 },
                }),
                None => Ok(()),
            }
        });
        if let Err(e) = rolled {
            if let Some(f) = self.faults() {
                f.note_degraded(&format!("{what}: {e}"));
            }
        }
    }

    /// Allocate like [`Device::alloc`] but with a diagnostic label — the
    /// sanitizer's "allocation backtrace" handle, named after the variable
    /// or array the buffer stands for.
    pub fn alloc_labeled<T: DeviceScalar>(&self, n: usize, label: &str) -> DBuf<T> {
        let buf = self.alloc(n);
        buf.set_label(label);
        if let Some(san) = &*self.inner.sanitizer.lock() {
            san.relabel_alloc(buf.alloc_id(), label);
        }
        buf
    }

    /// Allocate `n` elements of *uninitialized* device memory — the
    /// `cudaMalloc` contract, unlike [`Device::alloc`] which models
    /// `cudaCalloc`-style zeroed storage. Reads of elements never written
    /// are flagged by the sanitizer's initcheck tool (the storage is still
    /// physically zeroed, so the simulated program stays deterministic).
    pub fn alloc_uninit<T: DeviceScalar>(&self, n: usize) -> DBuf<T> {
        let bytes = n * std::mem::size_of::<T>();
        self.alloc_gate("alloc_uninit", bytes);
        self.inner.allocated.fetch_add(bytes, Ordering::Relaxed);
        let buf = DBuf::new_uninit(n, self.inner.id);
        self.register_alloc(&buf);
        buf
    }

    fn register_alloc<T: DeviceScalar>(&self, buf: &DBuf<T>) {
        self.inner.allocs.lock().push(Arc::downgrade(&buf.checkpoint_target()));
        if let Some(san) = &*self.inner.sanitizer.lock() {
            san.on_alloc(buf.alloc_id(), buf.label(), buf.size_bytes());
        }
    }

    /// Upload a constant-memory buffer (`cudaMemcpyToSymbol`).
    pub fn alloc_const<T: DeviceScalar>(&self, data: &[T]) -> crate::constant::CBuf<T> {
        self.inner.allocated.fetch_add(std::mem::size_of_val(data), Ordering::Relaxed);
        crate::constant::CBuf::from_slice(data, self.inner.id)
    }

    /// Allocate and fill from a host slice (`cudaMalloc` + `cudaMemcpy` H2D).
    pub fn alloc_from<T: DeviceScalar>(&self, data: &[T]) -> DBuf<T> {
        let bytes = std::mem::size_of_val(data);
        self.alloc_gate("alloc_from", bytes);
        self.inner.allocated.fetch_add(bytes, Ordering::Relaxed);
        let buf = DBuf::from_slice(data, self.inner.id);
        self.register_alloc(&buf);
        buf
    }

    /// Release the modeled capacity held by `buf` (`cudaFree`). The backing
    /// store itself is reference-counted, so late readers stay memory-safe;
    /// under the sanitizer's memcheck tool, device-side accesses through a
    /// stale handle are reported as use-after-free.
    pub fn free<T: DeviceScalar>(&self, buf: &DBuf<T>) {
        self.inner.allocated.fetch_sub(buf.size_bytes(), Ordering::Relaxed);
        buf.mark_freed();
        if let Some(san) = &*self.inner.sanitizer.lock() {
            san.on_free(buf.alloc_id());
        }
    }

    /// Tear down the device context (`cudaDeviceReset`): drain streams,
    /// forget modeled allocations, and — when a sanitizer session with
    /// leakcheck is attached — report every allocation still live. Like the
    /// hardware tool, implicit process-exit teardown is *not* a leak; only
    /// this explicit reset triggers the scan.
    pub fn reset(&self) {
        self.synchronize();
        if let Some(san) = &*self.inner.sanitizer.lock() {
            san.on_device_reset(&self.inner.profile.name);
        }
        self.inner.allocated.store(0, Ordering::Relaxed);
        *self.inner.last_error.lock() = None;
    }

    /// Fallible host-to-device copy (`cudaMemcpy` H2D): reports size
    /// mismatches as errors instead of panicking and is a fault-injection
    /// site. An injected corruption *does* move the data but bit-flips one
    /// deterministic element, so a retry re-copies and repairs it.
    pub fn try_memcpy_h2d<T: DeviceScalar>(&self, dst: &DBuf<T>, src: &[T]) -> SimResult<()> {
        if src.len() > dst.len() {
            return Err(SimError::SizeMismatch { src: src.len(), dst: dst.len() });
        }
        match self.roll(FaultSite::MemcpyH2D) {
            None => {
                dst.copy_from_host(src);
                Ok(())
            }
            Some(inj) => Err(self.memcpy_fault("H2D", std::mem::size_of_val(src), &inj, || {
                dst.copy_from_host(src);
                if !src.is_empty() {
                    let i = (inj.salt as usize) % src.len();
                    dst.set(i, T::from_word(dst.get(i).to_word() ^ 1));
                }
            })),
        }
    }

    /// Fallible device-to-host copy (`cudaMemcpy` D2H); see
    /// [`Device::try_memcpy_h2d`] for the injection semantics.
    pub fn try_memcpy_d2h<T: DeviceScalar>(&self, src: &DBuf<T>, dst: &mut [T]) -> SimResult<()> {
        if dst.len() > src.len() {
            return Err(SimError::SizeMismatch { src: src.len(), dst: dst.len() });
        }
        let bytes = std::mem::size_of_val(&*dst);
        match self.roll(FaultSite::MemcpyD2H) {
            None => {
                src.copy_to_host(dst);
                Ok(())
            }
            Some(inj) => Err(self.memcpy_fault("D2H", bytes, &inj, || {
                src.copy_to_host(dst);
                if !dst.is_empty() {
                    let i = (inj.salt as usize) % dst.len();
                    dst[i] = T::from_word(dst[i].to_word() ^ 1);
                }
            })),
        }
    }

    /// Fallible device-to-device copy (`cudaMemcpy` D2D); see
    /// [`Device::try_memcpy_h2d`] for the injection semantics.
    pub fn try_memcpy_d2d<T: DeviceScalar>(
        &self,
        dst: &DBuf<T>,
        src: &DBuf<T>,
        len: usize,
    ) -> SimResult<()> {
        if len > src.len() || len > dst.len() {
            return Err(SimError::SizeMismatch { src: src.len(), dst: dst.len() });
        }
        match self.roll(FaultSite::MemcpyD2D) {
            None => {
                dst.copy_from_device(src, len);
                Ok(())
            }
            Some(inj) => {
                Err(self.memcpy_fault("D2D", len * std::mem::size_of::<T>(), &inj, || {
                    dst.copy_from_device(src, len);
                    if len > 0 {
                        let i = (inj.salt as usize) % len;
                        dst.set(i, T::from_word(dst.get(i).to_word() ^ 1));
                    }
                }))
            }
        }
    }

    /// Map an injected transfer fault to its error, running `corrupt` for
    /// the corruption kind (which moves-then-damages the data).
    fn memcpy_fault(
        &self,
        dir: &'static str,
        bytes: usize,
        inj: &Injected,
        corrupt: impl FnOnce(),
    ) -> SimError {
        match inj.kind {
            FaultKind::DeviceLost => SimError::DeviceLost { device: self.inner.id },
            FaultKind::Ecc => SimError::EccTransient { op: format!("memcpy {dir}") },
            FaultKind::MemcpyCorrupt => {
                corrupt();
                SimError::MemcpyFault { dir, bytes, corrupted: true }
            }
            _ => SimError::MemcpyFault { dir, bytes, corrupted: false },
        }
    }

    /// Validate a launch configuration against the device limits.
    pub fn validate_launch(&self, cfg: &LaunchConfig) -> SimResult<()> {
        let p = &self.inner.profile;
        if cfg.grid.is_degenerate() || cfg.block.is_degenerate() {
            return Err(SimError::InvalidLaunch(format!(
                "degenerate geometry grid={:?} block={:?}",
                cfg.grid, cfg.block
            )));
        }
        let tpb = cfg.threads_per_block();
        if tpb > p.max_threads_per_block as usize {
            return Err(SimError::InvalidLaunch(format!(
                "{tpb} threads per block exceeds device limit {}",
                p.max_threads_per_block
            )));
        }
        let smem = cfg.shared_bytes_per_block();
        if smem > p.max_smem_per_block {
            return Err(SimError::SharedMemExceeded {
                requested: smem,
                limit: p.max_smem_per_block,
            });
        }
        Ok(())
    }

    /// Synchronously execute a kernel and return the aggregated event counts.
    ///
    /// This is the functional half of a launch and records no span;
    /// converting the counts into a modeled execution time is the job of
    /// [`crate::timing::model_kernel`] (done by the language runtimes, which
    /// know the codegen profile and execution mode).
    pub fn launch(&self, kernel: &Kernel, cfg: LaunchConfig) -> SimResult<StatsSnapshot> {
        self.validate_launch(&cfg)?;
        // Most launch injections fire *before* execution: a failed launch
        // has no side effects, so a retry or a host-path re-dispatch
        // observes exactly the memory state the failed attempt did. The
        // exception is the watchdog timeout, which kills the kernel
        // mid-run and leaves a committed block prefix behind — see
        // `watchdog_partial`.
        if let Some(inj) = self.roll(FaultSite::Launch) {
            if let Some(reg) = ompx_telemetry::active() {
                reg.counter_add("sim_launch_faults_total", &[("kind", inj.kind.label())], 1);
            }
            return Err(match inj.kind {
                FaultKind::DeviceLost => SimError::DeviceLost { device: self.inner.id },
                FaultKind::Watchdog => self.watchdog_partial(kernel, &cfg, &inj),
                FaultKind::Ecc => {
                    SimError::EccTransient { op: format!("launch of {}", kernel.name()) }
                }
                _ => SimError::LaunchFault { kernel: kernel.name().to_string() },
            });
        }
        self.launch_unchecked(kernel, cfg)
    }

    /// The recovering launch every language runtime dispatches through:
    /// [`Device::launch`] under the device's retry policy, then, if an
    /// injected fault survives the retries, `recovery` — note the fault
    /// state, restore the watchdog checkpoint (a killed kernel committed a
    /// partial block prefix), re-dispatch injection-blind and record a
    /// `Fallback` span. `model` prices the device execution. Last, the
    /// kernel bar of whichever time applies goes where `bar` says. Errors
    /// that are not injected (an invalid configuration) are returned
    /// unrecovered, with no bar.
    pub fn launch_recovering(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        recovery: Recovery,
        bar: KernelBar<'_>,
        model: impl FnOnce(&StatsSnapshot) -> ModeledTime,
    ) -> SimResult<Launched> {
        let name = kernel.name();
        let cause = match run_with_retry(self, &self.retry_policy(), name, || {
            self.launch(kernel, cfg.clone())
        }) {
            Ok(stats) => {
                let modeled = model(&stats);
                bar.record(name, modeled.seconds);
                return Ok(Launched { stats, modeled, recovered: None });
            }
            Err(e) if e.is_injected() => e,
            Err(e) => return Err(e),
        };
        if let Some(f) = self.faults() {
            match recovery {
                Recovery::Redispatch => f.note_degraded(&format!("launch {name}: {cause}")),
                Recovery::HostFallback => f.note_fallback(name),
            }
        }
        self.restore_checkpoint(name);
        let stats = self.launch_unchecked(kernel, cfg)?;
        let (label, modeled) = match recovery {
            Recovery::Redispatch => ("degraded", model(&stats)),
            Recovery::HostFallback => (
                "fallback",
                ModeledTime { seconds: host_model_seconds(&stats), ..Default::default() },
            ),
        };
        if let Some(log) = crate::span::active() {
            // Emitted after the re-dispatch so the bar spans its modeled
            // duration instead of rendering zero-width.
            log.host_op(
                &format!("{label} {name} ({cause})"),
                SpanCategory::Fallback,
                modeled.seconds,
                0,
            );
        }
        bar.record(name, modeled.seconds);
        Ok(Launched { stats, modeled, recovered: Some((recovery, cause)) })
    }

    /// A watchdog timeout kills the kernel mid-run: checkpoint the
    /// kernel's write-set, execute (and commit) a deterministic prefix of
    /// the grid's blocks, and hand back the timeout error. The committed
    /// prefix `K = salt % num_blocks` is a pure function of the plan's
    /// `(seed, site, op)` — the same salt that drives every other fault
    /// decision — so reruns observe identical partial state. Sanitizer and
    /// memtrace hooks run for exactly the committed blocks.
    fn watchdog_partial(&self, kernel: &Kernel, cfg: &LaunchConfig, inj: &Injected) -> SimError {
        self.checkpoint_write_set(kernel.name());
        let committed = (inj.salt as usize) % cfg.num_blocks();
        if committed > 0 {
            let san = self.sanitizer().map(|state| Arc::new(LaunchSan::new(state, kernel.name())));
            let mem =
                self.mem_trace().map(|trace| Arc::new(LaunchMemTrace::new(trace, kernel.name())));
            let _ = exec::run_prefix(
                kernel,
                cfg,
                self.inner.profile.warp_size,
                san.as_ref(),
                mem.as_ref(),
                self.sim_workers(),
                committed,
            );
        }
        SimError::WatchdogTimeout { kernel: kernel.name().to_string() }
    }

    /// Install the write-set hint for `kernel`: the diagnostic labels of
    /// every buffer the kernel may write (analyzer access-summary data).
    /// With a hint installed, a watchdog checkpoint snapshots only those
    /// buffers (plus unlabeled allocations, which a label hint cannot
    /// exclude); without one it conservatively snapshots every live
    /// allocation on the device.
    pub fn set_kernel_write_set<S: AsRef<str>>(&self, kernel: &str, labels: &[S]) {
        let labels = labels.iter().map(|s| s.as_ref().to_string()).collect();
        self.inner.write_sets.lock().insert(kernel.to_string(), labels);
    }

    /// The installed write-set hint for `kernel`, if any.
    pub fn kernel_write_set(&self, kernel: &str) -> Option<Vec<String>> {
        self.inner.write_sets.lock().get(kernel).cloned()
    }

    /// Restore the pre-launch checkpoint taken when a watchdog injection
    /// fired on `kernel`, erasing its partially committed block prefix.
    /// Consumes the checkpoint. Returns `false` (and restores nothing)
    /// when no checkpoint is pending — the case for every non-watchdog
    /// launch fault, which still fires before execution and leaves no
    /// side effects to undo.
    pub fn restore_checkpoint(&self, kernel: &str) -> bool {
        match self.inner.checkpoints.lock().remove(kernel) {
            Some(saved) => {
                for (weak, image) in &saved {
                    if let Some(target) = weak.upgrade() {
                        target.restore(image);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Snapshot the buffers `kernel` may write, ahead of a partial-commit
    /// watchdog failure. Only called once a watchdog injection has fired,
    /// so fault-free launches never pay for it.
    fn checkpoint_write_set(&self, kernel: &str) {
        let hint = self.kernel_write_set(kernel);
        let mut saved = Vec::new();
        let mut allocs = self.inner.allocs.lock();
        allocs.retain(|weak| weak.upgrade().is_some_and(|t| !t.target_freed()));
        for weak in allocs.iter() {
            let Some(target) = weak.upgrade() else { continue };
            let include = match (&hint, target.target_label()) {
                (Some(labels), Some(label)) => labels.contains(&label),
                // No hint, or an unlabeled buffer the hint cannot speak
                // for: snapshot conservatively.
                _ => true,
            };
            if include {
                saved.push((Weak::clone(weak), target.save()));
            }
        }
        drop(allocs);
        self.inner.checkpoints.lock().insert(kernel.to_string(), saved);
    }

    /// [`Device::launch`] minus the fault-injection roll: the re-dispatch
    /// path retries and host fallbacks go through, so a degraded execution
    /// still produces functionally correct results.
    pub fn launch_unchecked(&self, kernel: &Kernel, cfg: LaunchConfig) -> SimResult<StatsSnapshot> {
        self.validate_launch(&cfg)?;
        if let Some(reg) = ompx_telemetry::active() {
            reg.counter_add("sim_launches_total", &[], 1);
        }
        let san = self.sanitizer().map(|state| Arc::new(LaunchSan::new(state, kernel.name())));
        let mem = self.mem_trace().map(|trace| Arc::new(LaunchMemTrace::new(trace, kernel.name())));
        let stats = exec::run(
            kernel,
            &cfg,
            self.inner.profile.warp_size,
            san.as_ref(),
            mem.as_ref(),
            self.sim_workers(),
        );
        Ok(stats)
    }

    /// Utilization snapshots of every live stream created on this device,
    /// in creation order (the profiler's stream-overlap report).
    pub fn stream_stats(&self) -> Vec<crate::stream::StreamStats> {
        self.inner.streams.lock().iter().filter_map(Weak::upgrade).map(|s| s.stats()).collect()
    }

    /// Block until all streams created on this device have drained.
    pub fn synchronize(&self) {
        let streams: Vec<_> = self.inner.streams.lock().iter().filter_map(Weak::upgrade).collect();
        for s in streams {
            crate::stream::StreamInner::drain(&s);
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device#{} ({})", self.inner.id, self.inner.profile.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_sane_parameters() {
        for p in [DeviceProfile::a100(), DeviceProfile::mi250(), DeviceProfile::test_small()] {
            assert!(p.sm_count > 0);
            assert!(p.warp_size.is_power_of_two());
            assert!(p.mem_bw_bytes_per_s > 0.0);
            assert!(p.max_threads_per_block <= p.max_threads_per_sm);
            assert!(p.max_smem_per_block <= p.smem_per_sm);
        }
        assert_eq!(DeviceProfile::a100().warp_size, 32);
        assert_eq!(DeviceProfile::mi250().warp_size, 64);
    }

    #[test]
    fn allocation_accounting() {
        let dev = Device::new(DeviceProfile::test_small());
        assert_eq!(dev.allocated_bytes(), 0);
        let buf = dev.alloc::<f64>(100);
        assert_eq!(dev.allocated_bytes(), 800);
        dev.free(&buf);
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let dev = Device::new(DeviceProfile::test_small());
        let cap = dev.profile().global_mem_bytes;
        let err = dev.try_alloc::<u32>(cap).unwrap_err(); // 4x capacity
        assert!(matches!(err, SimError::OutOfDeviceMemory { .. }));
        // The failed allocation must not leak accounting.
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn launch_validation_rejects_bad_configs() {
        let dev = Device::new(DeviceProfile::test_small());
        let k = Kernel::new("noop", |_ctx: &mut crate::thread::ThreadCtx| {});
        // too many threads per block
        let err = dev.launch(&k, LaunchConfig::new(1u32, 256u32)).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch(_)));
        // zero-sized grid
        let err = dev.launch(&k, LaunchConfig::new([0u32, 1, 1], 32u32)).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch(_)));
        // oversized shared memory
        let cfg = LaunchConfig::new(1u32, 32u32).with_dynamic_shared(1 << 20);
        let err = dev.launch(&k, cfg).unwrap_err();
        assert!(matches!(err, SimError::SharedMemExceeded { .. }));
    }

    #[test]
    fn device_ids_are_unique() {
        let a = Device::new(DeviceProfile::test_small());
        let b = Device::new(DeviceProfile::test_small());
        assert_ne!(a.id(), b.id());
    }
}
