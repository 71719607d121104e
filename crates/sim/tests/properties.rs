//! Property-based tests on the simulator's core invariants.

use ompx_sim::prelude::*;
use ompx_sim::timing::{model_kernel, occupancy};
use proptest::prelude::*;

fn small_device() -> Device {
    Device::new(DeviceProfile::test_small())
}

/// One lane's work in `exactly_once_execution`: mark the lane, then read,
/// compute and write so that more than the geometry counters move.
fn cover(tc: &mut ThreadCtx<'_>, hits: &DBuf<u32>, src: &DBuf<f32>, out: &DBuf<f32>) {
    let i = tc.global_rank();
    tc.atomic_add(hits, i, 1);
    let v = tc.read(src, i);
    tc.flops(2);
    tc.write(out, i, v * 2.0 + 1.0);
}

/// `cover` in one of three executor forms: a barrier-free closure (0), a
/// closure that calls `sync_threads` first (1, the team path for multi-lane
/// blocks), or a phased body with one `Step::Barrier` (2).
fn cover_kernel(form: u8, hits: &DBuf<u32>, src: &DBuf<f32>, out: &DBuf<f32>) -> Kernel {
    let (hits, src, out) = (hits.clone(), src.clone(), out.clone());
    match form {
        0 => Kernel::new("cover", move |tc: &mut ThreadCtx<'_>| cover(tc, &hits, &src, &out)),
        1 => Kernel::new("cover_sync", move |tc: &mut ThreadCtx<'_>| {
            tc.sync_threads();
            cover(tc, &hits, &src, &out);
        })
        .with_block_sync(),
        _ => Kernel::phased("cover_phased", move |tc, phase, _: &mut ()| {
            if phase == 0 {
                return Step::Barrier;
            }
            cover(tc, &hits, &src, &out);
            Step::Exit
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dim3 linearize/delinearize is a bijection over the extent.
    #[test]
    fn dim3_linear_roundtrip(x in 1u32..8, y in 1u32..8, z in 1u32..8, pick in 0usize..512) {
        let d = Dim3::new(x, y, z);
        let idx = pick % d.count();
        let (cx, cy, cz) = d.delinear(idx);
        prop_assert!(cx < x && cy < y && cz < z);
        prop_assert_eq!(d.linear(cx, cy, cz), idx);
    }

    /// Every simulated thread executes exactly once, for arbitrary
    /// geometry, in each executor form, and the launch's whole snapshot is
    /// the same at any worker count.
    #[test]
    fn exactly_once_execution(
        blocks in 1u32..6,
        threads in 1u32..33,
        form in 0u8..3,
        workers in 1usize..=4,
    ) {
        let total = (blocks * threads) as usize;
        let run = |workers: usize| {
            let dev = small_device();
            dev.set_sim_workers(Some(workers));
            let hits = dev.alloc::<u32>(total);
            let src = dev.alloc_from(&(0..total).map(|i| i as f32).collect::<Vec<_>>());
            let out = dev.alloc::<f32>(total);
            let k = cover_kernel(form, &hits, &src, &out);
            let stats = dev.launch(&k, LaunchConfig::new(blocks, threads)).unwrap();
            (stats, hits.to_vec(), out.to_vec())
        };
        let (serial, hits, out) = run(1);
        let (parallel, par_hits, par_out) = run(workers);
        prop_assert_eq!(serial, parallel);
        prop_assert_eq!(serial.threads_executed as usize, total);
        prop_assert_eq!(serial.blocks_executed as usize, blocks as usize);
        prop_assert_eq!(serial.flops as usize, 2 * total);
        prop_assert_eq!(serial.global_load_bytes as usize, 4 * total);
        prop_assert_eq!(serial.global_store_bytes as usize, 4 * total);
        prop_assert_eq!(serial.barriers as usize, if form == 0 { 0 } else { total });
        prop_assert!(hits.iter().chain(&par_hits).all(|&h| h == 1));
        prop_assert_eq!(out, par_out);
    }

    /// Warp shuffles permute values: a shfl from lane (lane+k)%w delivers
    /// each lane's value to exactly one receiver.
    #[test]
    fn shuffle_rotation_is_a_permutation(threads in 1u32..17, rot in 0usize..8) {
        let dev = small_device();
        let n = threads as usize;
        let got = dev.alloc::<u64>(n);
        let k = Kernel::with_flags(
            "rot",
            KernelFlags { uses_block_sync: false, uses_warp_ops: true },
            {
                let got = got.clone();
                move |tc: &mut ThreadCtx<'_>| {
                    let v = tc.shfl(tc.thread_rank() as u64, tc.lane_id() + rot);
                    tc.write(&got, tc.thread_rank(), v);
                }
            },
        );
        dev.launch(&k, LaunchConfig::new(1u32, threads)).unwrap();
        // Within each warp, the received set equals the sent set.
        let ws = dev.profile().warp_size as usize;
        let out = got.to_vec();
        for w in 0..n.div_ceil(ws) {
            let lo = w * ws;
            let hi = (lo + ws).min(n);
            let mut received: Vec<u64> = out[lo..hi].to_vec();
            received.sort_unstable();
            let expected: Vec<u64> = (lo as u64..hi as u64).collect();
            prop_assert_eq!(received, expected);
        }
    }

    /// The timing model is monotone in work: more bytes or more flops can
    /// never make a kernel faster.
    #[test]
    fn modeled_time_is_monotone_in_work(
        base_bytes in 1u64..1_000_000_000,
        base_flops in 1u64..1_000_000_000,
        extra in 1u64..1_000_000_000,
    ) {
        let dev = DeviceProfile::a100();
        let cg = CodegenInfo::default();
        let mode = ModeOverheads::none();
        let mk = |bytes: u64, flops: u64| {
            let stats = ompx_sim::counters::StatsSnapshot {
                global_load_bytes: bytes,
                flops,
                ..Default::default()
            };
            model_kernel(&dev, 256, 1024, 0, &stats, &cg, &mode).seconds
        };
        let t0 = mk(base_bytes, base_flops);
        prop_assert!(mk(base_bytes + extra, base_flops) >= t0);
        prop_assert!(mk(base_bytes, base_flops + extra) >= t0);
    }

    /// Occupancy never exceeds the hardware bounds and never reaches zero.
    #[test]
    fn occupancy_is_bounded(
        tpb in 1u32..1025,
        regs in 1u32..256,
        smem in 0usize..200_000,
    ) {
        let dev = DeviceProfile::a100();
        let o = occupancy(&dev, tpb, regs, smem);
        prop_assert!(o.blocks_per_sm >= 1);
        prop_assert!(o.occupancy > 0.0);
        prop_assert!(o.occupancy <= 1.0);
    }

    /// Lower coalescing can never speed a kernel up.
    #[test]
    fn worse_coalescing_never_helps(bytes in 1u64..1_000_000_000, c1 in 0.05f64..1.0, c2 in 0.05f64..1.0) {
        let (lo, hi) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
        let dev = DeviceProfile::mi250();
        let stats = ompx_sim::counters::StatsSnapshot {
            global_load_bytes: bytes,
            ..Default::default()
        };
        let mode = ModeOverheads::none();
        let t_hi = model_kernel(&dev, 128, 512, 0, &stats,
            &CodegenInfo { coalescing: hi, ..Default::default() }, &mode).seconds;
        let t_lo = model_kernel(&dev, 128, 512, 0, &stats,
            &CodegenInfo { coalescing: lo, ..Default::default() }, &mode).seconds;
        prop_assert!(t_lo >= t_hi, "coalescing {lo} gave {t_lo} < {t_hi} at {hi}");
    }

    /// Snapshot scaling is (approximately) homogeneous: scaling counters by
    /// an integer factor scales every extensive field exactly.
    #[test]
    fn snapshot_scaling_integer_exact(f in 1u64..1000, flops in 0u64..1_000_000, bytes in 0u64..1_000_000) {
        let s = ompx_sim::counters::StatsSnapshot {
            flops,
            global_load_bytes: bytes,
            barriers: 7,
            ..Default::default()
        };
        let scaled = s.scaled(f as f64);
        prop_assert_eq!(scaled.flops, flops * f);
        prop_assert_eq!(scaled.global_load_bytes, bytes * f);
        prop_assert_eq!(scaled.barriers, 7 * f);
    }

    /// Device memory accounting: alloc/free cycles always return to the
    /// starting level regardless of interleaving.
    #[test]
    fn allocation_accounting_balances(sizes in proptest::collection::vec(1usize..10_000, 1..12)) {
        let dev = small_device();
        let before = dev.allocated_bytes();
        let bufs: Vec<_> = sizes.iter().map(|&n| dev.alloc::<f64>(n)).collect();
        let expect: usize = sizes.iter().map(|n| n * 8).sum();
        prop_assert_eq!(dev.allocated_bytes(), before + expect);
        for b in &bufs {
            dev.free(b);
        }
        prop_assert_eq!(dev.allocated_bytes(), before);
    }
}

/// Barriers with early-exiting lanes terminate for every split point —
/// exhaustive rather than randomized because it is cheap.
#[test]
fn early_exit_barriers_terminate_for_every_split() {
    let dev = small_device();
    for split in 0..16usize {
        let out = dev.alloc::<u32>(16);
        let k = Kernel::with_flags(
            "split",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let out = out.clone();
                move |tc: &mut ThreadCtx<'_>| {
                    if tc.thread_rank() >= split.max(1) {
                        return; // early exit before any barrier
                    }
                    tc.sync_threads();
                    tc.write(&out, tc.thread_rank(), 1);
                    tc.sync_threads();
                }
            },
        );
        dev.launch(&k, LaunchConfig::new(1u32, 16u32)).unwrap();
        let got = out.to_vec();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, u32::from(i < split.max(1)), "split={split} lane={i}");
        }
    }
}
