//! Derived per-kernel metrics, Nsight Compute style.
//!
//! The simulator's timing model (`ompx_sim::timing`) already decomposes a
//! kernel's modeled time into bandwidth / latency / compute / barrier /
//! atomic / divergence / serialization terms. A profiler's job is to turn
//! that decomposition plus the raw event counters into the quantities a
//! performance engineer actually reads off `ncu` or `rocprof`:
//! achieved occupancy, % of peak DRAM throughput, arithmetic intensity and
//! roofline position, warp-execution efficiency, coalescing efficiency,
//! and stall fractions — capped with a bottleneck classification read
//! straight off the model's dominant term.

use ompx_sim::counters::StatsSnapshot;
use ompx_sim::device::DeviceProfile;
use ompx_sim::timing::ModeledTime;

/// What limits this kernel, per the timing model's dominant term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// DRAM bandwidth (`t_bandwidth` dominates the body).
    MemoryBandwidth,
    /// Memory latency / insufficient in-flight parallelism (`t_latency`).
    MemoryLatency,
    /// Floating-point or integer issue rate (`t_compute` / `t_int`).
    Compute,
    /// Shared-memory throughput (`t_shared`).
    SharedMemory,
    /// Block barriers (`t_barrier`).
    Barrier,
    /// Global atomics (`t_atomic`).
    Atomic,
    /// Warp divergence (`t_divergence`).
    Divergence,
    /// Serialized runtime sections / per-block mode overhead
    /// (`t_serial + t_mode`).
    Serialization,
    /// Launch latency — the kernel is too small to amortize it
    /// (`t_launch`).
    Launch,
}

impl Bottleneck {
    /// Stable label used in reports and baselines.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::MemoryBandwidth => "membw",
            Bottleneck::MemoryLatency => "memlat",
            Bottleneck::Compute => "compute",
            Bottleneck::SharedMemory => "shared",
            Bottleneck::Barrier => "barrier",
            Bottleneck::Atomic => "atomic",
            Bottleneck::Divergence => "divergence",
            Bottleneck::Serialization => "serialization",
            Bottleneck::Launch => "launch",
        }
    }
}

/// Classify the kernel by the largest term of its modeled time. The body
/// terms compete by `max` in the model, the overhead terms add on top; the
/// profiler simply reports whichever single term is largest.
pub fn classify(m: &ModeledTime) -> Bottleneck {
    let candidates = [
        (m.t_bandwidth, Bottleneck::MemoryBandwidth),
        (m.t_latency, Bottleneck::MemoryLatency),
        (m.t_compute.max(m.t_int), Bottleneck::Compute),
        (m.t_shared, Bottleneck::SharedMemory),
        (m.t_barrier, Bottleneck::Barrier),
        (m.t_atomic, Bottleneck::Atomic),
        (m.t_divergence, Bottleneck::Divergence),
        (m.t_serial + m.t_mode, Bottleneck::Serialization),
        (m.t_launch, Bottleneck::Launch),
    ];
    // First-wins on ties, so the ordering above is the priority order.
    let mut best = candidates[0];
    for c in &candidates[1..] {
        if c.0 > best.0 {
            best = *c;
        }
    }
    best.1
}

/// The derived metric set for one kernel (one row of the profile table).
#[derive(Debug, Clone)]
pub struct KernelMetrics {
    /// Achieved occupancy, percent of the device's maximum residency.
    pub occupancy_pct: f64,
    /// Achieved DRAM throughput as a percent of device peak.
    pub mem_throughput_pct: f64,
    /// Arithmetic intensity: FLOP per byte of global traffic.
    pub arithmetic_intensity: f64,
    /// Achieved GFLOP/s over the modeled duration.
    pub gflops: f64,
    /// Effective memory-pipeline efficiency during the bandwidth phase:
    /// bytes moved over what the peak could have moved in `t_bandwidth`.
    /// Recovers the model's `coalescing × occupancy-efficiency` product.
    pub coalescing_eff_pct: f64,
    /// Warp execution efficiency: issue slots doing useful work versus
    /// slots wasted by divergent branches.
    pub warp_exec_eff_pct: f64,
    /// Fraction of the modeled time spent at block barriers.
    pub barrier_stall_pct: f64,
    /// Fraction of the modeled time spent in global atomics.
    pub atomic_stall_pct: f64,
    /// Fraction of the modeled time in serialized runtime sections and
    /// per-block mode overhead.
    pub serialization_stall_pct: f64,
    /// Fraction of the modeled time lost to divergence replay.
    pub divergence_stall_pct: f64,
    /// The classified limiter.
    pub bottleneck: Bottleneck,
}

fn pct(x: f64) -> f64 {
    if x.is_finite() {
        (x * 100.0).clamp(0.0, 100.0)
    } else {
        0.0
    }
}

/// Derive the full metric set from the device profile, the kernel's
/// counted events, and its modeled-time breakdown.
pub fn derive_metrics(
    dev: &DeviceProfile,
    stats: &StatsSnapshot,
    m: &ModeledTime,
) -> KernelMetrics {
    let secs = m.seconds.max(1e-30);
    let bytes = stats.global_bytes() as f64 + stats.uniform_load_bytes as f64;
    let flops = stats.flops as f64;

    let mem_throughput_pct = pct(bytes / secs / dev.mem_bw_bytes_per_s);
    let arithmetic_intensity = if bytes > 0.0 { flops / bytes } else { 0.0 };
    let gflops = flops / secs / 1e9;

    let coalescing_eff_pct = if m.t_bandwidth > 0.0 {
        pct(bytes / (m.t_bandwidth * dev.mem_bw_bytes_per_s))
    } else {
        100.0
    };

    // Each divergent branch replays both sides, wasting about half the
    // warp's issue slots for one instruction.
    let wasted_slots = stats.divergent_branches as f64 * dev.warp_size as f64 / 2.0;
    let useful_slots = stats.warp_ops as f64;
    let warp_exec_eff_pct = if useful_slots + wasted_slots > 0.0 {
        pct(useful_slots / (useful_slots + wasted_slots))
    } else {
        100.0
    };

    KernelMetrics {
        occupancy_pct: pct(m.occupancy),
        mem_throughput_pct,
        arithmetic_intensity,
        gflops,
        coalescing_eff_pct,
        warp_exec_eff_pct,
        barrier_stall_pct: pct(m.t_barrier / secs),
        atomic_stall_pct: pct(m.t_atomic / secs),
        serialization_stall_pct: pct((m.t_serial + m.t_mode) / secs),
        divergence_stall_pct: pct(m.t_divergence / secs),
        bottleneck: classify(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::timing::{model_kernel, CodegenInfo, ModeOverheads};

    fn streaming_stats(n: u64) -> StatsSnapshot {
        StatsSnapshot {
            flops: 2 * n,
            global_load_bytes: 8 * n,
            global_store_bytes: 4 * n,
            warp_ops: 4 * n,
            threads_executed: n,
            blocks_executed: n / 256,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn streaming_kernel_is_bandwidth_bound_with_sane_percentages() {
        let dev = DeviceProfile::a100();
        let n = 1u64 << 22;
        let stats = streaming_stats(n);
        let m = model_kernel(
            &dev,
            256,
            n / 256,
            0,
            &stats,
            &CodegenInfo::default(),
            &ModeOverheads::none(),
        );
        let k = derive_metrics(&dev, &stats, &m);
        assert_eq!(k.bottleneck, Bottleneck::MemoryBandwidth);
        assert!(k.occupancy_pct > 0.0 && k.occupancy_pct <= 100.0);
        assert!(k.mem_throughput_pct > 0.0 && k.mem_throughput_pct <= 100.0);
        assert!(k.warp_exec_eff_pct == 100.0, "no divergent branches counted");
        assert!(k.arithmetic_intensity > 0.0 && k.arithmetic_intensity < 1.0);
    }

    #[test]
    fn tiny_kernel_is_launch_bound() {
        let dev = DeviceProfile::a100();
        let stats = StatsSnapshot { flops: 32, warp_ops: 32, ..StatsSnapshot::default() };
        let m =
            model_kernel(&dev, 32, 1, 0, &stats, &CodegenInfo::default(), &ModeOverheads::none());
        let k = derive_metrics(&dev, &stats, &m);
        assert_eq!(k.bottleneck, Bottleneck::Launch);
    }
}
