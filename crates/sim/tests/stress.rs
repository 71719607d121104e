//! Executor stress tests: oversubscription, barrier storms, concurrent
//! launches, and tracing under load.

use ompx_sim::prelude::*;
use std::sync::Arc;

fn dev() -> Device {
    Device::new(DeviceProfile::test_small())
}

#[test]
fn barrier_storm_on_the_team_path() {
    // Many blocks, maximum block width for the test device, dozens of
    // barrier phases with data handoffs between neighbours each round.
    let d = dev();
    let tpb = d.profile().max_threads_per_block as usize; // 128
    let blocks = 6usize;
    let mut cfg = LaunchConfig::new(blocks as u32, tpb as u32);
    let slot = cfg.shared_array::<u64>(tpb);
    let out = d.alloc::<u64>(blocks * tpb);
    const ROUNDS: usize = 24;
    let k =
        Kernel::with_flags("storm", KernelFlags { uses_block_sync: true, uses_warp_ops: false }, {
            let out = out.clone();
            move |tc: &mut ThreadCtx<'_>| {
                let t = tc.thread_rank();
                let tile = tc.shared::<u64>(slot);
                tc.swrite(&tile, t, t as u64);
                tc.sync_threads();
                for _ in 0..ROUNDS {
                    // Rotate the tile by one each round.
                    let v = tc.sread(&tile, (t + 1) % tpb);
                    tc.sync_threads();
                    tc.swrite(&tile, t, v);
                    tc.sync_threads();
                }
                let v = tc.sread(&tile, t);
                tc.write(&out, tc.global_rank(), v);
            }
        });
    let stats = d.launch(&k, cfg).unwrap();
    // After ROUNDS rotations, slot t holds (t + ROUNDS) % tpb.
    let got = out.to_vec();
    for b in 0..blocks {
        for t in 0..tpb {
            assert_eq!(got[b * tpb + t], ((t + ROUNDS) % tpb) as u64, "block {b} lane {t}");
        }
    }
    assert_eq!(stats.barriers, (blocks * tpb * (1 + 2 * ROUNDS)) as u64);
}

#[test]
fn concurrent_launches_from_many_host_threads() {
    // The device must support simultaneous launches from independent host
    // threads (each HeCBench version builds its own context, and streams
    // launch from worker threads).
    let d = dev();
    let results: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let d = d.clone();
                s.spawn(move || {
                    let buf = d.alloc::<u64>(256);
                    let k = Kernel::new(format!("conc{t}"), {
                        let buf = buf.clone();
                        move |tc: &mut ThreadCtx<'_>| {
                            let i = tc.global_rank();
                            if i < 256 {
                                tc.write(&buf, i, (i as u64) * (t + 1));
                            }
                        }
                    });
                    for _ in 0..5 {
                        d.launch(&k, LaunchConfig::linear(256, 32)).unwrap();
                    }
                    buf.to_vec().iter().sum::<u64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let base: u64 = (0..256u64).sum();
    for (t, sum) in results.iter().enumerate() {
        assert_eq!(*sum, base * (t as u64 + 1));
    }
}

#[test]
fn mixed_warp_and_block_sync_kernel() {
    // Kernels combining both synchronization granularities (the §2.7 gap
    // the extensions close) on the team path.
    let d = dev();
    let tpb = 16usize;
    let ws = d.profile().warp_size as usize; // 4
    let mut cfg = LaunchConfig::new(3u32, tpb as u32);
    let slot = cfg.shared_array::<f64>(tpb);
    let out = d.alloc::<f64>(3);
    let k =
        Kernel::with_flags("mixed", KernelFlags { uses_block_sync: true, uses_warp_ops: true }, {
            let out = out.clone();
            move |tc: &mut ThreadCtx<'_>| {
                // Warp-level reduce, then block-level combine of warp sums.
                let mut acc = (tc.thread_rank() + 1) as f64;
                let mut off = ws / 2;
                while off > 0 {
                    acc += tc.shfl_xor(acc, off);
                    off /= 2;
                }
                let tile = tc.shared::<f64>(slot);
                if tc.lane_id() == 0 {
                    tc.swrite(&tile, tc.warp_id(), acc);
                }
                tc.sync_threads();
                if tc.thread_rank() == 0 {
                    let mut total = 0.0;
                    for w in 0..tpb / ws {
                        total += tc.sread(&tile, w);
                    }
                    tc.write(&out, tc.block_rank(), total);
                }
            }
        });
    d.launch(&k, cfg).unwrap();
    let expect = (1..=tpb).sum::<usize>() as f64;
    assert_eq!(out.to_vec(), vec![expect; 3]);
}

#[test]
fn tracing_under_concurrent_launches() {
    let d = dev();
    d.enable_tracing();
    let buf = Arc::new(d.alloc::<u32>(64));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let d = d.clone();
            let buf = Arc::clone(&buf);
            s.spawn(move || {
                let k = Kernel::new("traced", {
                    let buf = (*buf).clone();
                    move |tc: &mut ThreadCtx<'_>| {
                        tc.atomic_add(&buf, tc.global_rank() % 64, 1);
                    }
                });
                for _ in 0..10 {
                    d.launch(&k, LaunchConfig::linear(64, 16)).unwrap();
                }
            });
        }
    });
    assert_eq!(d.trace().len(), 40);
    let recs = d.trace().records();
    assert!(recs.iter().all(|r| r.kernel == "traced" && r.grid.x == 4 && r.block.x == 16));
    d.disable_tracing();
    let k = Kernel::new("untraced", |_tc: &mut ThreadCtx<'_>| {});
    d.launch(&k, LaunchConfig::linear(16, 16)).unwrap();
    assert_eq!(d.trace().len(), 40, "disabled tracing must not record");
}

#[test]
fn deep_iteration_pingpong_is_deterministic() {
    // 100 dependent launches ping-ponging buffers: any executor
    // misordering would corrupt the final value.
    let d = dev();
    let a = d.alloc_from(&vec![1.0f64; 128]);
    let b = d.alloc::<f64>(128);
    for it in 0..100 {
        let (src, dst) = if it % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let k = Kernel::new("pingpong", {
            let (src, dst) = (src.clone(), dst.clone());
            move |tc: &mut ThreadCtx<'_>| {
                let i = tc.global_rank();
                if i < 128 {
                    let v = tc.read(&src, i);
                    tc.write(&dst, i, v * 1.01);
                }
            }
        });
        d.launch(&k, LaunchConfig::linear(128, 32)).unwrap();
    }
    let expect = 1.01f64.powi(100);
    let got = a.get(0); // 100 launches end back in `a`
    assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
}
