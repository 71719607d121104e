//! The analytical timing model: counted events → modeled execution time.
//!
//! Real-GPU execution time cannot be measured on a CPU-hosted functional
//! simulator, so the reproduction reports *modeled* time computed from the
//! events the kernel actually performed ([`crate::counters::StatsSnapshot`])
//! and three descriptions:
//!
//! 1. the [`crate::device::DeviceProfile`] (hardware parameters),
//! 2. a [`CodegenInfo`] for the kernel as produced by a particular compiler
//!    (registers per thread, static shared memory, binary size, coalescing
//!    quality) — the quantities the paper's own profiling discussion uses to
//!    explain every performance delta (SU3 §4.2.3: 24 vs 26 registers and
//!    3.9 KB vs 29 KB binaries; RSBench §4.2.2: 162 registers plus 2 KB of
//!    shared memory; AIDW §4.2.4: demoted shared variables), and
//! 3. a [`ModeOverheads`] describing the execution mode's runtime costs —
//!    near-zero for bare/SPMD kernels, substantial for the OpenMP
//!    generic-mode state machine (the mechanism behind the slow `omp` bars
//!    in Figure 8).
//!
//! The model is a standard occupancy-scaled roofline:
//!
//! ```text
//! occupancy  = f(registers, shared memory, thread/block limits)
//! t_bandwidth = bytes / (BW · coalescing · mem_eff(occupancy))
//! t_latency   = memory ops · latency / (in-flight parallelism)
//! t_compute   = flops / (peak(fp32/fp64 mix) · comp_eff(occupancy))
//! t_body      = max(t_bandwidth, t_latency, t_compute, t_int, t_shared)
//! time        = launch + t_body · icache_penalty + t_barrier + t_atomic
//!               + t_divergence + t_serialized
//! ```
//!
//! Every term is a pure function of its inputs, so modeled times are
//! bit-reproducible across runs and machines.

use crate::counters::StatsSnapshot;
use crate::device::DeviceProfile;
use serde::{Deserialize, Serialize};

/// Compiler-produced properties of a kernel that gate performance.
///
/// On a real system these come from `nvcc --ptxas-options=-v`, `nvdisasm`,
/// or ROCm's `-Rpass-analysis=kernel-resource-usage`; here they are data
/// supplied by the toolchain model (`ompx-klang::toolchain`), with the
/// paper-reported values for the kernels the paper profiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodegenInfo {
    /// Registers allocated per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per block in bytes (beyond the launch config's
    /// declared arrays — e.g. runtime-reserved scratch).
    pub static_smem_bytes: usize,
    /// Device binary size in bytes (i-cache pressure; see SU3 §4.2.3).
    pub binary_bytes: usize,
    /// Fraction of peak DRAM bandwidth achievable by this kernel's access
    /// pattern (coalescing quality), in (0, 1].
    pub coalescing: f64,
    /// Fraction of FLOPs that are double precision.
    pub fp64_fraction: f64,
    /// Fraction of counted shared-memory accesses the compiler demoted to
    /// registers (the AIDW effect, §4.2.4: LLVM/Clang demotes shared
    /// variables that `nvcc` and the ompx prototype keep in shared memory).
    pub shared_demotion: f64,
}

impl Default for CodegenInfo {
    fn default() -> Self {
        CodegenInfo {
            regs_per_thread: 32,
            static_smem_bytes: 0,
            binary_bytes: 8 * 1024,
            coalescing: 0.85,
            fp64_fraction: 0.0,
            shared_demotion: 0.0,
        }
    }
}

/// Execution-mode overheads applied on top of the kernel body time.
///
/// The language runtimes construct these: the native kernel languages and
/// the paper's `ompx_bare` mode are close to free; traditional OpenMP
/// offloading pays runtime initialization at launch and, in generic mode,
/// state-machine costs that scale with the number of parallel regions
/// executed (already *counted* in the stats by `ompx-devicert`; the knobs
/// here cover the parts that are not event-shaped, like launch-time runtime
/// initialization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeOverheads {
    /// Extra launch latency in seconds on top of the device's base latency
    /// (device runtime initialization, kernel-state setup).
    pub extra_launch_s: f64,
    /// Multiplier on the kernel body time (catch-all for modes that
    /// interpret rather than execute directly; 1.0 = none).
    pub body_multiplier: f64,
    /// Additional cycles charged per executed block (per-block runtime
    /// bookkeeping, e.g. generic-mode kernel-state init).
    pub per_block_cycles: f64,
}

impl ModeOverheads {
    /// No overheads: native kernel languages and `ompx_bare` launches.
    pub fn none() -> Self {
        ModeOverheads { extra_launch_s: 0.0, body_multiplier: 1.0, per_block_cycles: 0.0 }
    }
}

impl Default for ModeOverheads {
    fn default() -> Self {
        Self::none()
    }
}

/// Occupancy analysis result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Resident blocks per SM permitted by all limits.
    pub blocks_per_sm: u32,
    /// Fraction of the SM's maximum resident threads that are occupied.
    pub occupancy: f64,
    /// Which resource limits the occupancy.
    pub limiter: OccupancyLimiter,
}

/// The resource that bounds occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyLimiter {
    Registers,
    SharedMemory,
    ThreadsPerSm,
    BlocksPerSm,
}

/// Compute occupancy for a launch on a device.
///
/// `threads_per_block` and `smem_per_block` describe the launch;
/// `regs_per_thread` comes from the codegen profile.
pub fn occupancy(
    dev: &DeviceProfile,
    threads_per_block: u32,
    regs_per_thread: u32,
    smem_per_block: usize,
) -> Occupancy {
    let tpb = threads_per_block.max(1);
    let by_threads = dev.max_threads_per_sm / tpb;
    let by_blocks = dev.max_blocks_per_sm;
    let by_regs = if regs_per_thread > 0 {
        dev.regs_per_sm / (regs_per_thread * tpb).max(1)
    } else {
        u32::MAX
    };
    let by_smem = dev.smem_per_sm.checked_div(smem_per_block).map(|b| b as u32).unwrap_or(u32::MAX);

    let (blocks, limiter) = [
        (by_regs, OccupancyLimiter::Registers),
        (by_smem, OccupancyLimiter::SharedMemory),
        (by_threads, OccupancyLimiter::ThreadsPerSm),
        (by_blocks, OccupancyLimiter::BlocksPerSm),
    ]
    .into_iter()
    .min_by_key(|&(b, _)| b)
    .unwrap();

    // A launch that fits no full block still runs (serially per SM).
    let blocks = blocks.max(1);
    let occ = ((blocks * tpb) as f64 / dev.max_threads_per_sm as f64).min(1.0);
    Occupancy { blocks_per_sm: blocks, occupancy: occ, limiter }
}

/// Modeled execution time with a component breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ModeledTime {
    /// Total modeled seconds.
    pub seconds: f64,
    /// Launch latency (device base + mode extra).
    pub t_launch: f64,
    /// DRAM bandwidth-bound component.
    pub t_bandwidth: f64,
    /// Memory latency-bound component.
    pub t_latency: f64,
    /// Floating-point compute component.
    pub t_compute: f64,
    /// Integer compute component.
    pub t_int: f64,
    /// Shared-memory throughput component.
    pub t_shared: f64,
    /// Block-barrier cost.
    pub t_barrier: f64,
    /// Global atomics cost.
    pub t_atomic: f64,
    /// Divergence penalty.
    pub t_divergence: f64,
    /// Serialized (master-only) runtime sections.
    pub t_serial: f64,
    /// Per-block mode overhead.
    pub t_mode: f64,
    /// Occupancy used for the efficiency scaling.
    pub occupancy: f64,
    /// I-cache penalty multiplier that was applied to compute terms.
    pub icache_penalty: f64,
}

/// Reference occupancancy at which memory latency is considered fully
/// hidden; the efficiency curve saturates here.
const MEM_EFF_REF: f64 = 0.40;
/// Reference occupancy for compute-issue efficiency.
const COMP_EFF_REF: f64 = 0.25;
/// Efficiency floor: even a single resident warp makes some progress.
const EFF_FLOOR: f64 = 0.05;
/// Outstanding memory requests per thread (memory-level parallelism).
const MLP: f64 = 4.0;
/// Average bytes per counted memory operation, used to convert byte counts
/// into request counts for the latency term.
const BYTES_PER_MEM_OP: f64 = 8.0;
/// I-cache penalty strength: compute terms are scaled by
/// `1 + ICACHE_SLOPE * (binary/icache - 1)` when the binary exceeds the
/// device's i-cache-friendly size.
const ICACHE_SLOPE: f64 = 0.08;

fn eff(occ: f64, reference: f64) -> f64 {
    (occ / reference).clamp(EFF_FLOOR, 1.0)
}

/// Model the execution time of one kernel launch.
///
/// * `dev` — hardware profile.
/// * `threads_per_block`, `num_blocks`, `smem_per_block` — launch geometry
///   (`smem_per_block` should already include the codegen static share).
/// * `stats` — counted events (possibly scaled up to the paper's workload).
/// * `cg` — codegen profile for this kernel under the chosen toolchain.
/// * `mode` — execution-mode overheads.
pub fn model_kernel(
    dev: &DeviceProfile,
    threads_per_block: u32,
    num_blocks: u64,
    smem_per_block: usize,
    stats: &StatsSnapshot,
    cg: &CodegenInfo,
    mode: &ModeOverheads,
) -> ModeledTime {
    let occ = occupancy(
        dev,
        threads_per_block,
        cg.regs_per_thread,
        smem_per_block + cg.static_smem_bytes,
    );
    let clock = dev.clock_hz();

    // Streaming kernels saturate DRAM at modest occupancy; random-access
    // kernels (low coalescing) need far more threads in flight to fill the
    // memory pipeline, so their efficiency reference scales up with the
    // coalescing deficit. This is the mechanism that makes register
    // pressure decide XSBench-style latency-bound workloads.
    let mem_ref = (MEM_EFF_REF / cg.coalescing.clamp(0.05, 1.0)).min(1.0);
    let mem_eff = eff(occ.occupancy, mem_ref);
    let comp_eff = eff(occ.occupancy, COMP_EFF_REF);

    // Bandwidth term. Warp-uniform (broadcast) loads are served once per
    // warp, so their per-lane byte count collapses by the warp width.
    let bytes =
        stats.global_bytes() as f64 + stats.uniform_load_bytes as f64 / dev.warp_size as f64;
    let t_bandwidth = bytes / (dev.mem_bw_bytes_per_s * cg.coalescing.clamp(0.05, 1.0) * mem_eff);

    // Latency term: how long the dependent-load chains take given the
    // in-flight parallelism actually available. Poor coalescing multiplies
    // the number of memory transactions the same way it wastes bandwidth.
    let mem_ops = bytes / (BYTES_PER_MEM_OP * cg.coalescing.clamp(0.05, 1.0));
    let resident_threads =
        (dev.sm_count as u64 * occ.blocks_per_sm as u64 * threads_per_block as u64) as f64;
    let total_threads = (num_blocks * threads_per_block as u64).max(1) as f64;
    let in_flight = resident_threads.min(total_threads).max(1.0) * MLP;
    let t_latency = mem_ops * dev.mem_latency_cycles / (clock * in_flight);

    // Compute terms, with the fp32/fp64 mix and an i-cache penalty for
    // oversized device binaries.
    let icache_penalty = if cg.binary_bytes > dev.icache_bytes {
        1.0 + ICACHE_SLOPE * (cg.binary_bytes as f64 / dev.icache_bytes as f64 - 1.0)
    } else {
        1.0
    };
    let flops = stats.flops as f64;
    let fp64 = flops * cg.fp64_fraction;
    let fp32 = flops - fp64;
    let t_compute = fp32 / (dev.fp32_flops * comp_eff) + fp64 / (dev.fp64_flops * comp_eff);
    let t_int = stats.int_ops as f64 / (dev.int_ops_per_s * comp_eff);

    // Constant-cache reads: broadcast-served, roughly 2x the shared path.
    let t_const = stats.const_reads as f64 / (2.0 * dev.shared_ops_per_s * comp_eff);

    // Shared-memory throughput, minus compiler-demoted accesses.
    let effective_shared =
        stats.shared_accesses as f64 * (1.0 - cg.shared_demotion.clamp(0.0, 1.0));
    let t_shared = effective_shared / (dev.shared_ops_per_s * comp_eff);

    // Additive costs.
    // Barriers: `stats.barriers` counts per-thread participations; a barrier
    // of a whole block costs `barrier_cycles` once per warp in the block.
    let warp_barriers = stats.barriers as f64 / dev.warp_size as f64;
    let parallel_sms = (dev.sm_count as f64).min(num_blocks.max(1) as f64);
    let t_barrier = warp_barriers * dev.barrier_cycles / (clock * parallel_sms);
    let t_atomic = stats.atomic_ops as f64 / dev.atomic_ops_per_s;
    // Divergent branches waste roughly half the warp's issue slots.
    let t_divergence = stats.divergent_branches as f64 * (dev.warp_size as f64 / 2.0)
        / (dev.int_ops_per_s * comp_eff);
    // Serialized (master-only) runtime sections run at single-thread scalar
    // speed *within* a block, but the masters of distinct resident blocks
    // run concurrently.
    let parallel_masters =
        ((dev.sm_count as u64 * occ.blocks_per_sm as u64).min(num_blocks.max(1))).max(1) as f64;
    let t_serial = stats.serial_ops as f64 / (clock * parallel_masters);

    // Per-block runtime bring-up is *serialized*: the runtime's team-state
    // initialization funnels through the work distributor, so its cost
    // scales with the raw block count. This single mechanism reproduces
    // both the Adam 8× (40 teams, small kernels) and the Stencil ~150×
    // (half a million teams) generic-mode pathologies of §4.2.5/§4.2.6.
    let t_mode = num_blocks as f64 * mode.per_block_cycles / clock;

    // Oversized device binaries thrash the i-cache; instruction refetch
    // competes with the whole pipeline, so the penalty applies to the body
    // (the SU3 §4.2.3 effect: 29 KB ompx binary vs 3.9 KB CUDA → ~9 %).
    let t_body = t_bandwidth.max(t_latency).max(t_compute).max(t_int).max(t_shared).max(t_const)
        * icache_penalty;
    let t_launch = dev.base_launch_latency_s + mode.extra_launch_s;
    let seconds = t_launch
        + t_body * mode.body_multiplier
        + t_barrier
        + t_atomic
        + t_divergence
        + t_serial
        + t_mode;

    ModeledTime {
        seconds,
        t_launch,
        t_bandwidth,
        t_latency,
        t_compute,
        t_int,
        t_shared,
        t_barrier,
        t_atomic,
        t_divergence,
        t_serial,
        t_mode,
        occupancy: occ.occupancy,
        icache_penalty,
    }
}

/// Modeled wall time of running a counted workload serially on one host
/// core (~3 GHz, ~25 GB/s single-stream): the OpenMP `if(false)`
/// conditional-offload path and the host-fallback recovery.
pub fn host_model_seconds(stats: &StatsSnapshot) -> f64 {
    const HOST_OPS_PER_S: f64 = 3.0e9;
    const HOST_BYTES_PER_S: f64 = 25.0e9;
    let ops = (stats.flops
        + stats.int_ops
        + stats.shared_accesses
        + stats.atomic_ops
        + stats.const_reads) as f64;
    let bytes = stats.global_bytes() as f64;
    ops / HOST_OPS_PER_S + bytes / HOST_BYTES_PER_S
}

impl ModeledTime {
    /// Sum of two modeled times (sequential kernels), keeping breakdowns.
    pub fn plus(&self, other: &ModeledTime) -> ModeledTime {
        ModeledTime {
            seconds: self.seconds + other.seconds,
            t_launch: self.t_launch + other.t_launch,
            t_bandwidth: self.t_bandwidth + other.t_bandwidth,
            t_latency: self.t_latency + other.t_latency,
            t_compute: self.t_compute + other.t_compute,
            t_int: self.t_int + other.t_int,
            t_shared: self.t_shared + other.t_shared,
            t_barrier: self.t_barrier + other.t_barrier,
            t_atomic: self.t_atomic + other.t_atomic,
            t_divergence: self.t_divergence + other.t_divergence,
            t_serial: self.t_serial + other.t_serial,
            t_mode: self.t_mode + other.t_mode,
            occupancy: self.occupancy.max(other.occupancy),
            icache_penalty: self.icache_penalty.max(other.icache_penalty),
        }
    }

    /// The modeled time repeated `n` times (iterated kernel launches).
    pub fn times(&self, n: u64) -> ModeledTime {
        let f = n as f64;
        ModeledTime {
            seconds: self.seconds * f,
            t_launch: self.t_launch * f,
            t_bandwidth: self.t_bandwidth * f,
            t_latency: self.t_latency * f,
            t_compute: self.t_compute * f,
            t_int: self.t_int * f,
            t_shared: self.t_shared * f,
            t_barrier: self.t_barrier * f,
            t_atomic: self.t_atomic * f,
            t_divergence: self.t_divergence * f,
            t_serial: self.t_serial * f,
            t_mode: self.t_mode * f,
            occupancy: self.occupancy,
            icache_penalty: self.icache_penalty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> DeviceProfile {
        DeviceProfile::a100()
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let o = occupancy(&a100(), 1024, 32, 0);
        // 2048 threads/SM, 1024-thread blocks, 32 regs → regs allow 2 blocks.
        assert_eq!(o.blocks_per_sm, 2);
        assert!((o.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        // 128 regs * 256 threads = 32768 regs/block → 2 blocks/SM on A100.
        let o = occupancy(&a100(), 256, 128, 0);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.limiter, OccupancyLimiter::Registers);
        assert!((o.occupancy - 0.25).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        // 100 KB smem/block → 1 block/SM (164 KB per SM).
        let o = occupancy(&a100(), 128, 16, 100 * 1024);
        assert_eq!(o.blocks_per_sm, 1);
        assert_eq!(o.limiter, OccupancyLimiter::SharedMemory);
    }

    #[test]
    fn occupancy_never_zero() {
        // Even a pathological launch fits one block (serially).
        let o = occupancy(&a100(), 1024, 255, 160 * 1024);
        assert!(o.blocks_per_sm >= 1);
        assert!(o.occupancy > 0.0);
    }

    #[test]
    fn higher_register_use_never_speeds_up_memory_bound_kernels() {
        // The SU3 / XSBench mechanism: more registers → lower occupancy →
        // at most equal, usually worse time for a memory-bound kernel.
        let dev = a100();
        let stats = StatsSnapshot {
            global_load_bytes: 10_000_000_000,
            flops: 1_000_000,
            ..Default::default()
        };
        let mode = ModeOverheads::none();
        let mut last = 0.0f64;
        for regs in [32u32, 64, 96, 128, 255] {
            let cg = CodegenInfo { regs_per_thread: regs, ..Default::default() };
            let t = model_kernel(&dev, 256, 1 << 16, 0, &stats, &cg, &mode).seconds;
            assert!(
                t >= last - 1e-15,
                "regs {regs} gave faster time {t} than lower register count ({last})"
            );
            last = t;
        }
    }

    #[test]
    fn memory_bound_kernel_near_bandwidth_roofline() {
        let dev = a100();
        // 16 GB of traffic, perfectly coalesced, negligible compute.
        let stats = StatsSnapshot { global_load_bytes: 16 << 30, ..Default::default() };
        let cg = CodegenInfo { coalescing: 1.0, regs_per_thread: 32, ..Default::default() };
        let t = model_kernel(&dev, 256, 1 << 20, 0, &stats, &cg, &ModeOverheads::none());
        let ideal = (16u64 << 30) as f64 / dev.mem_bw_bytes_per_s;
        assert!((t.seconds - ideal).abs() / ideal < 0.05, "t={} ideal={}", t.seconds, ideal);
    }

    #[test]
    fn compute_bound_kernel_near_flop_roofline() {
        let dev = a100();
        let stats = StatsSnapshot { flops: 19_500_000_000_000, ..Default::default() };
        let cg = CodegenInfo { regs_per_thread: 32, ..Default::default() };
        let t = model_kernel(&dev, 256, 1 << 20, 0, &stats, &cg, &ModeOverheads::none());
        // 1 second of peak FP32 work.
        assert!((t.seconds - 1.0).abs() < 0.05, "t={}", t.seconds);
    }

    #[test]
    fn fp64_fraction_slows_compute_on_a100() {
        let dev = a100();
        let stats = StatsSnapshot { flops: 1_000_000_000_000, ..Default::default() };
        let f32_only = CodegenInfo { fp64_fraction: 0.0, ..Default::default() };
        let f64_only = CodegenInfo { fp64_fraction: 1.0, ..Default::default() };
        let t32 = model_kernel(&dev, 256, 1 << 20, 0, &stats, &f32_only, &ModeOverheads::none());
        let t64 = model_kernel(&dev, 256, 1 << 20, 0, &stats, &f64_only, &ModeOverheads::none());
        assert!(t64.seconds > t32.seconds * 1.8, "fp64 {} fp32 {}", t64.seconds, t32.seconds);
    }

    #[test]
    fn small_launches_are_latency_dominated() {
        // The Adam mechanism: the same tiny workload with 8x fewer threads
        // has proportionally less latency-hiding parallelism.
        let dev = a100();
        let stats = StatsSnapshot { global_load_bytes: 160_000, ..Default::default() };
        let cg = CodegenInfo::default();
        let wide = model_kernel(&dev, 256, 40, 0, &stats, &cg, &ModeOverheads::none());
        let narrow = model_kernel(&dev, 32, 40, 0, &stats, &cg, &ModeOverheads::none());
        assert!(
            narrow.t_latency > wide.t_latency * 4.0,
            "narrow {} wide {}",
            narrow.t_latency,
            wide.t_latency
        );
    }

    #[test]
    fn icache_penalty_applies_above_threshold() {
        let dev = a100();
        let stats = StatsSnapshot { flops: 1 << 40, ..Default::default() };
        let small = CodegenInfo { binary_bytes: 4 * 1024, ..Default::default() };
        let large = CodegenInfo { binary_bytes: 29 * 1024, ..Default::default() };
        let ts = model_kernel(&dev, 128, 1 << 16, 0, &stats, &small, &ModeOverheads::none());
        let tl = model_kernel(&dev, 128, 1 << 16, 0, &stats, &large, &ModeOverheads::none());
        assert_eq!(ts.icache_penalty, 1.0);
        assert!(tl.icache_penalty > 1.0);
        assert!(tl.seconds > ts.seconds);
    }

    #[test]
    fn mode_overheads_are_additive_and_multiplicative() {
        let dev = a100();
        let stats = StatsSnapshot { global_load_bytes: 1 << 30, ..Default::default() };
        let cg = CodegenInfo::default();
        let bare = model_kernel(&dev, 256, 4096, 0, &stats, &cg, &ModeOverheads::none());
        let generic =
            ModeOverheads { extra_launch_s: 10e-6, body_multiplier: 1.3, per_block_cycles: 2000.0 };
        let slow = model_kernel(&dev, 256, 4096, 0, &stats, &cg, &generic);
        assert!(slow.seconds > bare.seconds + 9e-6);
        assert!(slow.t_mode > 0.0);
    }

    #[test]
    fn serial_ops_charge_single_thread_rate() {
        let dev = a100();
        let stats = StatsSnapshot { serial_ops: 1_410_000_000, ..Default::default() };
        let t =
            model_kernel(&dev, 256, 1, 0, &stats, &CodegenInfo::default(), &ModeOverheads::none());
        // 1.41e9 ops at 1.41 GHz, one block → one master → 1 second.
        assert!((t.t_serial - 1.0).abs() < 1e-9);
    }

    #[test]
    fn masters_of_distinct_blocks_run_concurrently() {
        let dev = a100();
        let stats = StatsSnapshot { serial_ops: 1_410_000_000, ..Default::default() };
        let cg = CodegenInfo::default();
        let one = model_kernel(&dev, 256, 1, 0, &stats, &cg, &ModeOverheads::none());
        let many = model_kernel(&dev, 256, 10_000, 0, &stats, &cg, &ModeOverheads::none());
        // With thousands of blocks the same serialized work spreads over all
        // resident masters.
        assert!(many.t_serial < one.t_serial / 100.0);
    }

    #[test]
    fn plus_and_times_compose() {
        let dev = a100();
        let stats = StatsSnapshot { global_load_bytes: 1 << 28, ..Default::default() };
        let t = model_kernel(
            &dev,
            256,
            1024,
            0,
            &stats,
            &CodegenInfo::default(),
            &ModeOverheads::none(),
        );
        let t3 = t.times(3);
        assert!((t3.seconds - 3.0 * t.seconds).abs() < 1e-12);
        let sum = t.plus(&t);
        assert!((sum.seconds - 2.0 * t.seconds).abs() < 1e-12);
    }
}
