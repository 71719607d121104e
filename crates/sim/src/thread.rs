//! `ThreadCtx`: the world as seen by one simulated GPU thread.
//!
//! Every kernel in this reproduction — CUDA-style, HIP-style, traditional
//! OpenMP offloading, or the paper's `ompx` kernel-language style — is a Rust
//! closure receiving a `&mut ThreadCtx`. The context provides:
//!
//! * **identity**: `threadIdx`/`blockIdx`/`blockDim`/`gridDim` equivalents,
//!   warp id and lane id;
//! * **memory**: counted accessors over device global memory ([`DBuf`]) and
//!   per-block shared memory, so the timing model sees the same traffic the
//!   hardware would;
//! * **cost annotations**: `flops`, `int_ops`, `divergent` — explicit because
//!   a closure's arithmetic cannot be introspected;
//! * **synchronization**: `sync_threads` (block barrier), `sync_warp`,
//!   shuffles and ballots.
//!
//! Whether lanes run on a dedicated thread team (barrier-capable) or are
//! serialized lane-by-lane on the block loop (barrier-free and phased
//! kernels) is decided by the executor; the accessors behave identically
//! in every case.

use crate::barrier::RetireBarrier;
use crate::counters::StatsSnapshot;
use crate::dim::Dim3;
use crate::mem::{DBuf, DeviceScalar};
use crate::memtrace::{BarrierEvent, LaunchMemTrace, MemAccessKind, MemEvent, MemSpace, TraceLog};
use crate::san::{AccessSite, DiagLog, GlobalKind, LaunchSan, Party, ToolMask};
use crate::shared::{BlockShared, SharedView};
use crate::warp::WarpGroup;

/// Execution identity and services for one simulated GPU thread.
pub struct ThreadCtx<'a> {
    pub(crate) block: (u32, u32, u32),
    pub(crate) thread: (u32, u32, u32),
    pub(crate) grid_dim: Dim3,
    pub(crate) block_dim: Dim3,
    pub(crate) warp_size: u32,
    /// Cost counters for this thread, summed into its block's counters by
    /// the executor and folded into the launch total with them.
    /// `threads_executed` and `blocks_executed` stay zero here; the executor
    /// sets them when it folds.
    pub counters: StatsSnapshot,
    pub(crate) shared: &'a BlockShared,
    pub(crate) block_barrier: Option<&'a RetireBarrier>,
    pub(crate) warp: Option<&'a WarpGroup>,
    /// The lane runs a phased body, whose barriers are `Step::Barrier`.
    pub(crate) phased: bool,
    pub(crate) collective_count: u64,
    /// Sanitizer session of the enclosing launch, when one is attached.
    pub(crate) san: Option<&'a LaunchSan>,
    /// Memory-access trace of the enclosing launch, when one is attached.
    pub(crate) mem: Option<&'a LaunchMemTrace>,
    /// Lane-local trace buffer, staged for the canonical launch-end merge
    /// when the lane retires (see [`ThreadCtx::stage_logs`]).
    pub(crate) trace_log: TraceLog,
    /// Lane-local sanitizer findings, staged alongside the trace buffer.
    pub(crate) diag_log: DiagLog,
}

impl<'a> ThreadCtx<'a> {
    /// Construct a detached context outside of a launch.
    ///
    /// Used by runtime layers that need to run kernel-style code on a
    /// synthetic identity (e.g. the OpenMP generic-mode master emulation)
    /// and by tests. Detached contexts run on the serial rules: block
    /// barriers and warp collectives are only legal for 1-thread blocks.
    pub fn detached(
        grid_dim: Dim3,
        block_dim: Dim3,
        block: (u32, u32, u32),
        thread: (u32, u32, u32),
        warp_size: u32,
        shared: &'a BlockShared,
    ) -> Self {
        ThreadCtx {
            block,
            thread,
            grid_dim,
            block_dim,
            warp_size,
            counters: StatsSnapshot::default(),
            shared,
            block_barrier: None,
            warp: None,
            phased: false,
            collective_count: 0,
            san: None,
            mem: None,
            trace_log: TraceLog::default(),
            diag_log: DiagLog::default(),
        }
    }

    // ---- sanitizer plumbing --------------------------------------------

    #[inline]
    fn site(&self, san: &'a LaunchSan) -> AccessSite<'a> {
        AccessSite {
            kernel: san.kernel(),
            block: self.block,
            thread: self.thread,
            block_rank: self.grid_dim.linear(self.block.0, self.block.1, self.block.2),
        }
    }

    /// Run the memcheck/initcheck global-memory hook and fold the access
    /// into the cross-block race summary. Returns `true` when the access
    /// must be suppressed (OOB / use-after-free under memcheck).
    #[inline]
    fn san_global<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize, kind: GlobalKind) -> bool {
        let Some(san) = self.san else { return false };
        let site = self.site(san);
        let suppress = san.state().global_access(
            site,
            buf.alloc_id(),
            &buf.label(),
            buf.len(),
            buf.is_freed(),
            i,
            kind,
            kind == GlobalKind::Read && buf.is_unwritten(i),
            &mut self.diag_log,
        );
        if !suppress
            && i < buf.len()
            && !buf.is_freed()
            && kind != GlobalKind::Atomic
            && san.state().tool_on(ToolMask::RACECHECK)
        {
            san.fold_global_access(
                buf.alloc_id(),
                &buf.label(),
                i,
                Party {
                    block_rank: site.block_rank,
                    thread_rank: self.thread_rank(),
                    block: self.block,
                    thread: self.thread,
                    write: kind == GlobalKind::Write,
                },
            );
        }
        suppress
    }

    /// A collective with no lane team behind it. A one-lane block needs
    /// none and a synccheck session records the drift as a structured
    /// finding; the caller then degrades the collective to its one-lane
    /// result. Anything else is a kernel bug and panics.
    #[cold]
    fn teamless_collective(&mut self, what: &str, missing: &str) {
        if self.solo() {
            return;
        }
        if let Some(san) = self.san {
            let site = self.site(san);
            if san.state().flags_drift(site, what, missing, self.phased, &mut self.diag_log) {
                return;
            }
        }
        if self.phased {
            panic!(
                "{what} inside a phased kernel body: the block's lanes run one after \
                 another, so end the phase with Step::Barrier instead"
            );
        }
        panic!("{what} requires KernelFlags::{missing} (kernel launched on the serial path)");
    }

    /// Stage this lane's trace and diagnostic buffers for the canonical
    /// launch-end merge. Called by the executor when the lane retires —
    /// including when it was unwound by a panic, so partial evidence
    /// survives a failing kernel.
    pub(crate) fn stage_logs(&mut self) {
        let block_rank = self.block_rank();
        let thread_rank = self.thread_rank();
        if let Some(mem) = self.mem {
            mem.stage_lane(block_rank, thread_rank, &mut self.trace_log);
        }
        if let Some(san) = self.san {
            san.stage_lane(block_rank, thread_rank, &mut self.diag_log);
        }
    }

    // ---- memory-trace plumbing ------------------------------------------

    #[inline]
    fn trace_global<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize, kind: MemAccessKind) {
        if self.mem.is_some() {
            let phase = self.counters.barriers as u32;
            self.trace_log.push_event(MemEvent {
                kernel: String::new(),
                launch: 0,
                block: self.block,
                thread: self.thread,
                space: MemSpace::Global { alloc_id: buf.alloc_id(), label: buf.label() },
                index: i,
                kind,
                phase,
            });
        }
    }

    #[inline]
    fn trace_shared(&mut self, slot: usize, i: usize, kind: MemAccessKind) {
        if self.mem.is_some() {
            let phase = self.counters.barriers as u32;
            self.trace_log.push_event(MemEvent {
                kernel: String::new(),
                launch: 0,
                block: self.block,
                thread: self.thread,
                space: MemSpace::Shared { slot },
                index: i,
                kind,
                phase,
            });
        }
    }

    // ---- identity -------------------------------------------------------

    /// `threadIdx.x`
    #[inline]
    pub fn thread_id_x(&self) -> usize {
        self.thread.0 as usize
    }
    /// `threadIdx.y`
    #[inline]
    pub fn thread_id_y(&self) -> usize {
        self.thread.1 as usize
    }
    /// `threadIdx.z`
    #[inline]
    pub fn thread_id_z(&self) -> usize {
        self.thread.2 as usize
    }
    /// `blockIdx.x`
    #[inline]
    pub fn block_id_x(&self) -> usize {
        self.block.0 as usize
    }
    /// `blockIdx.y`
    #[inline]
    pub fn block_id_y(&self) -> usize {
        self.block.1 as usize
    }
    /// `blockIdx.z`
    #[inline]
    pub fn block_id_z(&self) -> usize {
        self.block.2 as usize
    }
    /// `blockDim.x`
    #[inline]
    pub fn block_dim_x(&self) -> usize {
        self.block_dim.x as usize
    }
    /// `blockDim.y`
    #[inline]
    pub fn block_dim_y(&self) -> usize {
        self.block_dim.y as usize
    }
    /// `blockDim.z`
    #[inline]
    pub fn block_dim_z(&self) -> usize {
        self.block_dim.z as usize
    }
    /// `gridDim.x`
    #[inline]
    pub fn grid_dim_x(&self) -> usize {
        self.grid_dim.x as usize
    }
    /// `gridDim.y`
    #[inline]
    pub fn grid_dim_y(&self) -> usize {
        self.grid_dim.y as usize
    }
    /// `gridDim.z`
    #[inline]
    pub fn grid_dim_z(&self) -> usize {
        self.grid_dim.z as usize
    }

    /// Linear thread index within the block (x fastest).
    #[inline]
    pub fn thread_rank(&self) -> usize {
        self.block_dim.linear(self.thread.0, self.thread.1, self.thread.2)
    }

    /// Linear block index within the grid (x fastest).
    #[inline]
    pub fn block_rank(&self) -> usize {
        self.grid_dim.linear(self.block.0, self.block.1, self.block.2)
    }

    /// The ubiquitous `blockIdx.x * blockDim.x + threadIdx.x`.
    #[inline]
    pub fn global_thread_id_x(&self) -> usize {
        self.block_id_x() * self.block_dim_x() + self.thread_id_x()
    }

    /// `blockIdx.y * blockDim.y + threadIdx.y`.
    #[inline]
    pub fn global_thread_id_y(&self) -> usize {
        self.block_id_y() * self.block_dim_y() + self.thread_id_y()
    }

    /// `blockIdx.z * blockDim.z + threadIdx.z`.
    #[inline]
    pub fn global_thread_id_z(&self) -> usize {
        self.block_id_z() * self.block_dim_z() + self.thread_id_z()
    }

    /// Fully linearized global thread id across the whole grid.
    #[inline]
    pub fn global_rank(&self) -> usize {
        self.block_rank() * self.block_dim.count() + self.thread_rank()
    }

    /// Total threads in the launch.
    #[inline]
    pub fn global_size(&self) -> usize {
        self.grid_dim.count() * self.block_dim.count()
    }

    /// Device warp width (32 on the NVIDIA profile, 64 on the AMD profile).
    #[inline]
    pub fn warp_size(&self) -> usize {
        self.warp_size as usize
    }

    /// Warp index of this thread within its block.
    #[inline]
    pub fn warp_id(&self) -> usize {
        self.thread_rank() / self.warp_size as usize
    }

    /// Lane index of this thread within its warp.
    #[inline]
    pub fn lane_id(&self) -> usize {
        self.thread_rank() % self.warp_size as usize
    }

    // ---- global memory (counted) ---------------------------------------

    /// Counted global-memory load.
    #[inline]
    pub fn read<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize) -> T {
        self.counters.global_load_bytes += std::mem::size_of::<T>() as u64;
        self.trace_global(buf, i, MemAccessKind::Read);
        if self.san_global(buf, i, GlobalKind::Read) {
            return T::default();
        }
        buf.get(i)
    }

    /// Counted global-memory load through a raw byte offset, the pattern of
    /// type-punned device pointers (`(double*)((char*)p + off)`). Memcheck
    /// flags offsets that break `T`'s alignment — a fault on real hardware.
    /// The simulated access reads the element containing the offset.
    #[inline]
    pub fn read_at_bytes<T: DeviceScalar>(&mut self, buf: &DBuf<T>, byte_offset: usize) -> T {
        let align = std::mem::align_of::<T>();
        if !byte_offset.is_multiple_of(align) {
            if let Some(san) = self.san {
                let site = self.site(san);
                san.state().misaligned_access(
                    site,
                    buf.alloc_id(),
                    &buf.label(),
                    byte_offset,
                    align,
                    std::any::type_name::<T>(),
                    &mut self.diag_log,
                );
            }
        }
        self.read(buf, byte_offset / std::mem::size_of::<T>())
    }

    /// Counted global-memory store.
    #[inline]
    pub fn write<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize, v: T) {
        self.counters.global_store_bytes += std::mem::size_of::<T>() as u64;
        self.trace_global(buf, i, MemAccessKind::Write);
        if self.san_global(buf, i, GlobalKind::Write) {
            return;
        }
        buf.set(i, v)
    }

    /// Warp-uniform load: every lane of the warp reads the *same* address
    /// (a broadcast — e.g. all threads scanning the same point list). The
    /// hardware serves one transaction per warp, so the timing model
    /// divides this counter by the warp width. Charging every lane into a
    /// dedicated counter (rather than only lane 0) keeps the accounting
    /// correct even when some lanes skip the load or exited early.
    #[inline]
    pub fn read_uniform<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize) -> T {
        self.counters.uniform_load_bytes += std::mem::size_of::<T>() as u64;
        self.trace_global(buf, i, MemAccessKind::Read);
        if self.san_global(buf, i, GlobalKind::Read) {
            return T::default();
        }
        buf.get(i)
    }

    /// Counted global atomic add; returns the previous value.
    #[inline]
    pub fn atomic_add<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize, v: T) -> T {
        self.counters.atomic_ops += 1;
        self.trace_global(buf, i, MemAccessKind::Atomic);
        if self.san_global(buf, i, GlobalKind::Atomic) {
            return T::default();
        }
        buf.atomic_add(i, v)
    }

    /// Counted global atomic min; returns the previous value.
    #[inline]
    pub fn atomic_min<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize, v: T) -> T {
        self.counters.atomic_ops += 1;
        self.trace_global(buf, i, MemAccessKind::Atomic);
        if self.san_global(buf, i, GlobalKind::Atomic) {
            return T::default();
        }
        buf.atomic_min(i, v)
    }

    /// Counted global atomic max; returns the previous value.
    #[inline]
    pub fn atomic_max<T: DeviceScalar>(&mut self, buf: &DBuf<T>, i: usize, v: T) -> T {
        self.counters.atomic_ops += 1;
        self.trace_global(buf, i, MemAccessKind::Atomic);
        if self.san_global(buf, i, GlobalKind::Atomic) {
            return T::default();
        }
        buf.atomic_max(i, v)
    }

    /// Counted global compare-exchange.
    #[inline]
    pub fn atomic_cas<T: DeviceScalar>(
        &mut self,
        buf: &DBuf<T>,
        i: usize,
        current: T,
        new: T,
    ) -> Result<T, T> {
        self.counters.atomic_ops += 1;
        self.trace_global(buf, i, MemAccessKind::Atomic);
        if self.san_global(buf, i, GlobalKind::Atomic) {
            return Err(T::default());
        }
        buf.compare_exchange(i, current, new)
    }

    // ---- shared memory (counted) ----------------------------------------

    /// Obtain the typed view of shared slot `slot` declared on the launch
    /// config. The view's lifetime is the block execution.
    #[inline]
    pub fn shared<T: DeviceScalar>(&self, slot: usize) -> SharedView<'a, T> {
        self.shared.view::<T>(slot)
    }

    /// Counted shared-memory load.
    #[inline]
    pub fn sread<T: DeviceScalar>(&mut self, view: &SharedView<'a, T>, i: usize) -> T {
        self.counters.shared_accesses += 1;
        self.trace_shared(view.slot_index(), i, MemAccessKind::Read);
        view.racecheck_access(
            i,
            self.thread_rank(),
            self.counters.barriers,
            crate::shared::AccessKind::Read,
        );
        if view.is_unwritten(i) {
            if let Some(san) = self.san {
                let site = self.site(san);
                san.state().uninit_shared_read(site, view.slot_index(), i, &mut self.diag_log);
            }
        }
        view.get(i)
    }

    /// Counted shared-memory store.
    #[inline]
    pub fn swrite<T: DeviceScalar>(&mut self, view: &SharedView<'a, T>, i: usize, v: T) {
        self.counters.shared_accesses += 1;
        self.trace_shared(view.slot_index(), i, MemAccessKind::Write);
        view.racecheck_access(
            i,
            self.thread_rank(),
            self.counters.barriers,
            crate::shared::AccessKind::Write,
        );
        view.set(i, v)
    }

    /// Counted shared-memory atomic add.
    #[inline]
    pub fn satomic_add<T: DeviceScalar + std::ops::Add<Output = T>>(
        &mut self,
        view: &SharedView<'a, T>,
        i: usize,
        v: T,
    ) -> T {
        self.counters.shared_accesses += 1;
        self.counters.atomic_ops += 1;
        self.trace_shared(view.slot_index(), i, MemAccessKind::Atomic);
        view.atomic_add(i, v)
    }

    // ---- cost annotations -------------------------------------------------

    /// Charge `n` floating-point operations to this thread.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.counters.flops += n;
    }

    /// Charge `n` integer/logic operations to this thread.
    #[inline]
    pub fn int_ops(&mut self, n: u64) {
        self.counters.int_ops += n;
    }

    /// Record a warp-divergent branch taken by this thread.
    #[inline]
    pub fn divergent(&mut self) {
        self.counters.divergent_branches += 1;
    }

    /// Charge `n` operations executed in a serialized (master-only) runtime
    /// section. Used by the OpenMP generic-mode device runtime model.
    #[inline]
    pub fn serial_ops(&mut self, n: u64) {
        self.counters.serial_ops += n;
    }

    // ---- synchronization --------------------------------------------------

    /// The arrival half of a block barrier: record the memtrace barrier
    /// event with this lane's ordinal, then count the barrier. A phased
    /// lane's `Step::Barrier` does exactly this and no more.
    pub(crate) fn arrive_barrier(&mut self) {
        if self.mem.is_some() {
            self.trace_log.push_barrier(BarrierEvent {
                kernel: String::new(),
                launch: 0,
                block: self.block,
                thread: self.thread,
                ordinal: self.counters.barriers as u32,
            });
        }
        self.counters.barriers += 1;
    }

    /// Block-wide barrier: `__syncthreads()` / `ompx_sync_thread_block()`.
    ///
    /// Panics if the kernel was launched without barrier support (its
    /// [`crate::exec::KernelFlags`] must set `uses_block_sync`) or is a
    /// phased kernel (which ends the phase with `Step::Barrier` instead),
    /// except for single-thread blocks where the barrier is trivially a
    /// no-op.
    pub fn sync_threads(&mut self) {
        self.arrive_barrier();
        match self.block_barrier {
            Some(b) => {
                b.wait();
            }
            // Degraded under synccheck: the barrier is a no-op.
            None => self.teamless_collective("sync_threads", "uses_block_sync"),
        }
    }

    /// Warp-wide barrier: `__syncwarp()` / `ompx_sync_warp()`.
    pub fn sync_warp(&mut self) {
        self.counters.warp_ops += 1;
        match self.warp {
            Some(w) => w.sync(),
            // Degraded under synccheck: the warp barrier is a no-op.
            None => self.teamless_collective("sync_warp", "uses_warp_ops"),
        }
    }

    /// True when this thread is alone in its block: warp collectives
    /// degenerate to self-operations (a warp of one lane), so the serial
    /// execution path handles them without a warp group.
    #[inline]
    fn solo(&self) -> bool {
        self.block_dim.count() == 1
    }

    /// `__shfl_sync`: receive the value contributed by `src_lane`.
    pub fn shfl<T: DeviceScalar>(&mut self, val: T, src_lane: usize) -> T {
        self.counters.warp_ops += 1;
        self.collective_count += 1;
        let Some(w) = self.warp else {
            self.teamless_collective("shfl", "uses_warp_ops");
            return val; // one-lane warp (or degraded): every source is yourself
        };
        let lane = self.lane_id() as u32;
        w.shfl(lane, val, src_lane as u32)
    }

    /// `__shfl_sync` with an explicit member mask, the form hardware exposes
    /// (`ompx_shfl_sync(mask, ...)`). Synccheck flags masks that omit the
    /// calling lane or name a source lane outside the mask / the warp —
    /// undefined behaviour on real hardware. Functionally the shuffle then
    /// proceeds as [`ThreadCtx::shfl`].
    pub fn shfl_masked<T: DeviceScalar>(&mut self, mask: u64, val: T, src_lane: usize) -> T {
        if let Some(san) = self.san {
            let lane = self.lane_id();
            let lanes = match self.warp {
                Some(w) => w.lanes() as usize,
                None => 1,
            };
            let lane_in = lane < 64 && mask & (1u64 << lane) != 0;
            let src_in = src_lane < 64 && mask & (1u64 << src_lane) != 0 && src_lane < lanes;
            if !lane_in || !src_in {
                let site = self.site(san);
                san.state().invalid_shfl_mask(site, mask, lane, src_lane, &mut self.diag_log);
            }
        }
        self.shfl(val, src_lane)
    }

    /// `__shfl_down_sync`: receive the value from `lane + delta`. Lanes past
    /// the end of the warp receive their own value (CUDA semantics).
    pub fn shfl_down<T: DeviceScalar>(&mut self, val: T, delta: usize) -> T {
        self.counters.warp_ops += 1;
        self.collective_count += 1;
        let Some(w) = self.warp else {
            self.teamless_collective("shfl_down", "uses_warp_ops");
            return val;
        };
        let lane = self.lane_id() as u32;
        let src = lane + delta as u32;
        let got = w.shfl(lane, val, src.min(w.lanes() - 1));
        if src < w.lanes() {
            got
        } else {
            val
        }
    }

    /// `__shfl_up_sync`: receive the value from `lane - delta`. Lanes before
    /// the start of the warp receive their own value.
    pub fn shfl_up<T: DeviceScalar>(&mut self, val: T, delta: usize) -> T {
        self.counters.warp_ops += 1;
        self.collective_count += 1;
        let Some(w) = self.warp else {
            self.teamless_collective("shfl_up", "uses_warp_ops");
            return val;
        };
        let lane = self.lane_id() as u32;
        let src = lane.checked_sub(delta as u32);
        let got = w.shfl(lane, val, src.unwrap_or(0));
        if src.is_some() {
            got
        } else {
            val
        }
    }

    /// `__shfl_xor_sync`: exchange with lane `lane ^ mask`.
    pub fn shfl_xor<T: DeviceScalar>(&mut self, val: T, mask: usize) -> T {
        self.counters.warp_ops += 1;
        self.collective_count += 1;
        let Some(w) = self.warp else {
            self.teamless_collective("shfl_xor", "uses_warp_ops");
            return val;
        };
        let lane = self.lane_id() as u32;
        w.shfl(lane, val, lane ^ mask as u32)
    }

    /// `__ballot_sync`: bitmask of lanes whose predicate is true.
    pub fn ballot(&mut self, pred: bool) -> u64 {
        self.counters.warp_ops += 1;
        let op = self.collective_count;
        self.collective_count += 1;
        let Some(w) = self.warp else {
            self.teamless_collective("ballot", "uses_warp_ops");
            return u64::from(pred);
        };
        let lane = self.lane_id() as u32;
        w.ballot(lane, pred, op)
    }

    /// `__any_sync`: true if any lane's predicate is true.
    pub fn any_sync(&mut self, pred: bool) -> bool {
        self.ballot(pred) != 0
    }

    /// `__all_sync`: true if every lane's predicate is true.
    ///
    /// Semantic note: the vote is counted against the warp's *original*
    /// lane set (CUDA's full-mask `__all_sync` semantics); lanes that
    /// returned from the kernel early count as not voting, so `all_sync`
    /// after an early exit is conservatively false — on hardware, naming an
    /// exited lane in the member mask is undefined behaviour.
    pub fn all_sync(&mut self, pred: bool) -> bool {
        let mask = self.ballot(pred);
        let lanes = match self.warp {
            Some(w) => w.lanes(),
            None => 1,
        };
        let full = if lanes >= 64 { u64::MAX } else { (1u64 << lanes) - 1 };
        mask == full
    }

    // ---- constant memory -----------------------------------------------------

    /// Counted constant-memory read (`__constant__` data): served by the
    /// broadcast-optimized constant cache, priced near register speed by
    /// the timing model.
    #[inline]
    pub fn cread<T: DeviceScalar>(&mut self, buf: &crate::constant::CBuf<T>, i: usize) -> T {
        self.counters.const_reads += 1;
        buf.get(i)
    }

    // ---- local memory ------------------------------------------------------

    /// Allocate a thread-local array that lives in *local memory*.
    ///
    /// On a GPU, a dynamically indexed per-thread array cannot live in
    /// registers; the compiler places it in "local" memory, which is
    /// thread-interleaved **global** memory — so every access is DRAM
    /// traffic. This is the storage class behind the RSBench `sigTfactors`
    /// array whose placement (local vs globalized-heap vs shared) drives
    /// the paper's §4.2.2 result.
    pub fn local_array<T: DeviceScalar>(&mut self, len: usize) -> LocalArray<T> {
        LocalArray { data: vec![T::default(); len] }
    }

    /// Counted local-memory load.
    #[inline]
    pub fn lread<T: DeviceScalar>(&mut self, arr: &LocalArray<T>, i: usize) -> T {
        self.counters.global_load_bytes += std::mem::size_of::<T>() as u64;
        arr.data[i]
    }

    /// Counted local-memory store.
    #[inline]
    pub fn lwrite<T: DeviceScalar>(&mut self, arr: &mut LocalArray<T>, i: usize, v: T) {
        self.counters.global_store_bytes += std::mem::size_of::<T>() as u64;
        arr.data[i] = v;
    }
}

/// A per-thread array in local memory (see [`ThreadCtx::local_array`]).
pub struct LocalArray<T: DeviceScalar> {
    data: Vec<T>,
}

impl<T: DeviceScalar> LocalArray<T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}
