//! Property-based tests on the profiler's metric invariants.

use ompx_prof::metrics::{classify, derive_metrics, Bottleneck};
use ompx_sim::counters::StatsSnapshot;
use ompx_sim::device::DeviceProfile;
use ompx_sim::timing::{model_kernel, CodegenInfo, ModeOverheads};
use proptest::prelude::*;

fn profiles() -> [DeviceProfile; 3] {
    [DeviceProfile::a100(), DeviceProfile::mi250(), DeviceProfile::test_small()]
}

/// Build a random-but-plausible snapshot from raw draws.
#[allow(clippy::too_many_arguments)]
fn snapshot(
    flops: u64,
    int_ops: u64,
    loads: u64,
    stores: u64,
    shared: u64,
    barriers: u64,
    atomics: u64,
    divergent: u64,
    serial: u64,
) -> StatsSnapshot {
    StatsSnapshot {
        flops,
        int_ops,
        global_load_bytes: loads,
        global_store_bytes: stores,
        shared_accesses: shared,
        barriers,
        warp_ops: flops + int_ops + 1,
        atomic_ops: atomics,
        divergent_branches: divergent,
        serial_ops: serial,
        const_reads: 0,
        uniform_load_bytes: 0,
        threads_executed: 1 << 12,
        blocks_executed: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every percentage metric the profiler derives stays in [0, 100] and
    /// every scalar stays finite, for arbitrary counter mixes on all
    /// device profiles.
    #[test]
    fn percentages_stay_in_range(
        flops in 0u64..1_000_000_000,
        int_ops in 0u64..1_000_000_000,
        loads in 0u64..4_000_000_000,
        stores in 0u64..4_000_000_000,
        shared in 0u64..100_000_000,
        barriers in 0u64..1_000_000,
        atomics in 0u64..10_000_000,
        divergent in 0u64..10_000_000,
        serial in 0u64..100_000_000,
        threads_pow in 5u32..11,
        blocks in 1u64..4096,
        which_dev in 0usize..3,
    ) {
        let dev = &profiles()[which_dev];
        let stats = snapshot(flops, int_ops, loads, stores, shared, barriers, atomics, divergent, serial);
        let m = model_kernel(
            dev,
            1 << threads_pow,
            blocks,
            0,
            &stats,
            &CodegenInfo::default(),
            &ModeOverheads::none(),
        );
        let k = derive_metrics(dev, &stats, &m);
        for (name, v) in [
            ("occupancy", k.occupancy_pct),
            ("mem_throughput", k.mem_throughput_pct),
            ("coalescing_eff", k.coalescing_eff_pct),
            ("warp_exec_eff", k.warp_exec_eff_pct),
            ("barrier_stall", k.barrier_stall_pct),
            ("atomic_stall", k.atomic_stall_pct),
            ("serialization_stall", k.serialization_stall_pct),
            ("divergence_stall", k.divergence_stall_pct),
        ] {
            prop_assert!((0.0..=100.0).contains(&v), "{} = {} out of range", name, v);
        }
        prop_assert!(k.arithmetic_intensity.is_finite() && k.arithmetic_intensity >= 0.0);
        prop_assert!(k.gflops.is_finite() && k.gflops >= 0.0);
        // Stall fractions are disjoint additive shares of the total, so
        // their sum cannot exceed the whole.
        let stalls = k.barrier_stall_pct + k.atomic_stall_pct
            + k.serialization_stall_pct + k.divergence_stall_pct;
        prop_assert!(stalls <= 100.0 + 1e-9, "stall fractions sum to {}", stalls);
    }

    /// The bottleneck classification always names the modeled breakdown's
    /// largest term.
    #[test]
    fn bottleneck_matches_dominant_term(
        flops in 0u64..1_000_000_000,
        loads in 0u64..4_000_000_000,
        barriers in 0u64..10_000_000,
        atomics in 0u64..10_000_000,
        divergent in 0u64..10_000_000,
        serial in 0u64..1_000_000_000,
        which_dev in 0usize..3,
    ) {
        let dev = &profiles()[which_dev];
        let stats = snapshot(flops, flops / 2, loads, loads / 4, 0, barriers, atomics, divergent, serial);
        let m = model_kernel(dev, 256, 64, 0, &stats, &CodegenInfo::default(), &ModeOverheads::none());
        let b = classify(&m);
        let terms = [
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
        let max_term = terms.iter().map(|t| t.0).fold(f64::NEG_INFINITY, f64::max);
        let winner = terms.iter().find(|t| t.1 == b).expect("classified term present");
        prop_assert!(
            winner.0 >= max_term,
            "classified {:?} at {} but max term is {}",
            b, winner.0, max_term
        );
    }
}
