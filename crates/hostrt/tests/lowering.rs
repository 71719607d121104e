//! Pins the lowering of an `omp` target region.
//!
//! `TargetRegion::prepare_dpf` and `run_reduce_sum` are the one place a
//! traditional OpenMP region becomes a device kernel. The Figure 8 cells
//! reach only some of their branches (SPMD, generic, heap-to-shared
//! scratch, `thread_cap`); heap-globalized scratch and the reduction are
//! reached by nothing else that is gated. This test records the full
//! result of every branch — every `StatsSnapshot` field, the bits of the
//! modeled seconds, the launch plan and the bits of the computed output —
//! and checks that each is reproduced at one simulator worker and at a
//! drawn worker count.

use ompx_devicert::globalization::Scratch;
use ompx_hostrt::quirks::QuirkSet;
use ompx_hostrt::OpenMp;
use ompx_sim::thread::ThreadCtx;
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 1000;
const TEAMS: u32 = 6;
const THREADS: u32 = 48;
const SCRATCH_PER_THREAD: usize = 4;

/// One region shape: the quirks its kernel name carries and whether it
/// declares per-thread scratch.
struct Case {
    name: &'static str,
    quirks: QuirkSet,
    scratch: bool,
}

fn cases() -> Vec<Case> {
    let q = |force_generic, heap_to_shared, thread_cap| QuirkSet {
        force_generic,
        heap_to_shared,
        thread_cap,
        ..Default::default()
    };
    vec![
        Case { name: "spmd", quirks: q(false, false, None), scratch: false },
        Case { name: "spmd_heap", quirks: q(false, false, None), scratch: true },
        Case { name: "spmd_shared", quirks: q(false, true, None), scratch: true },
        Case { name: "generic", quirks: q(true, false, None), scratch: false },
        Case { name: "generic_heap", quirks: q(true, false, None), scratch: true },
        Case { name: "generic_shared", quirks: q(true, true, None), scratch: true },
        Case { name: "generic_capped", quirks: q(true, false, Some(32)), scratch: false },
    ]
}

fn input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7919) % 1013) as f64 * 0.37 - 91.5).collect()
}

/// Order-sensitive digest of a value vector's bits.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| h.rotate_left(7) ^ v.to_bits())
}

fn record(r: &ompx_hostrt::TargetResult) -> String {
    format!("{:?} seconds={:#018x} {:?}", r.stats, r.modeled.seconds.to_bits(), r.plan)
}

fn system(workers: usize) -> OpenMp {
    let omp = OpenMp::test_system();
    omp.device().set_sim_workers(Some(workers));
    for c in cases() {
        omp.quirks().set(c.name, c.quirks);
    }
    omp
}

/// `prepare_dpf(..).execute()` of every case: one line per case.
fn dpf_records(workers: usize) -> Vec<String> {
    let omp = system(workers);
    let x = omp.device().alloc_from(&input(N));
    cases()
        .into_iter()
        .map(|c| {
            let out = omp.device().alloc::<f64>(N);
            let mut region = omp.target(c.name).num_teams(TEAMS).thread_limit(THREADS);
            if c.scratch {
                region = region.scratch_f64(SCRATCH_PER_THREAD);
            }
            let body = {
                let (x, out) = (x.clone(), out.clone());
                // Each thread's scratch carries over from one of its
                // iterations to the next, so the output depends on which
                // iterations share a scratch slice and in what order.
                Arc::new(move |tc: &mut ThreadCtx<'_>, i: usize, s: &Scratch| {
                    let mut acc = tc.read(&x, i) * 1.5;
                    tc.flops(1);
                    for j in 0..s.per_thread() {
                        let prev = s.get(tc, j);
                        s.set(tc, j, prev * 0.5 + acc + j as f64);
                        acc += prev;
                        tc.flops(3);
                    }
                    tc.write(&out, i, acc);
                })
            };
            let r = region.prepare_dpf(N, body).execute().unwrap();
            format!("{} {} out={:#018x}", c.name, record(&r), digest(&out.to_vec()))
        })
        .collect()
}

/// `run_reduce_sum` in SPMD and generic mode: one line per mode.
fn reduce_records(workers: usize) -> Vec<String> {
    let omp = system(workers);
    let x = omp.device().alloc_from(&input(N));
    ["spmd", "generic"]
        .into_iter()
        .map(|name| {
            let (sum, r) = omp
                .target(name)
                .num_teams(TEAMS)
                .thread_limit(THREADS)
                .run_reduce_sum(N, {
                    let x = x.clone();
                    move |tc, i| tc.read(&x, i) * 0.25
                })
                .unwrap();
            format!("reduce_{name} {} sum={:#018x}", record(&r), sum.to_bits())
        })
        .collect()
}

/// Recorded from the lowering before globalized scratch moved into
/// `ompx-devicert`.
const EXPECTED_DPF: &[&str] = &[
    "spmd StatsSnapshot { flops: 1000, int_ops: 3456, global_load_bytes: 8000, global_store_bytes: 8000, shared_accesses: 0, barriers: 0, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 0, const_reads: 0, uniform_load_bytes: 0, threads_executed: 288, blocks_executed: 6 } seconds=0x3ec2902f85e63369 LaunchPlan { mode: Spmd, teams: 6, threads: 48, heap_to_shared: false, invalid_result: false } out=0x7a23f639df233f8a",
    "spmd_heap StatsSnapshot { flops: 13000, int_ops: 3456, global_load_bytes: 40000, global_store_bytes: 40000, shared_accesses: 0, barriers: 0, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 0, const_reads: 0, uniform_load_bytes: 0, threads_executed: 288, blocks_executed: 6 } seconds=0x3ecc6440f6ed5c62 LaunchPlan { mode: Spmd, teams: 6, threads: 48, heap_to_shared: false, invalid_result: false } out=0xb57b5b3d84b109bc",
    "spmd_shared StatsSnapshot { flops: 13000, int_ops: 3456, global_load_bytes: 8000, global_store_bytes: 8000, shared_accesses: 8000, barriers: 0, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 0, const_reads: 0, uniform_load_bytes: 0, threads_executed: 288, blocks_executed: 6 } seconds=0x3ec54e9bc46c2b21 LaunchPlan { mode: Spmd, teams: 6, threads: 48, heap_to_shared: true, invalid_result: false } out=0xb57b5b3d84b109bc",
    "generic StatsSnapshot { flops: 1000, int_ops: 6912, global_load_bytes: 8000, global_store_bytes: 8000, shared_accesses: 0, barriers: 576, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 720, const_reads: 0, uniform_load_bytes: 0, threads_executed: 6, blocks_executed: 6 } seconds=0x3ed7b5c3c2ebb7ec LaunchPlan { mode: Generic, teams: 6, threads: 48, heap_to_shared: false, invalid_result: false } out=0x7a23f639df233f8a",
    "generic_heap StatsSnapshot { flops: 13000, int_ops: 6912, global_load_bytes: 40000, global_store_bytes: 40000, shared_accesses: 0, barriers: 576, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 720, const_reads: 0, uniform_load_bytes: 0, threads_executed: 6, blocks_executed: 6 } seconds=0x3edc9fcc7b6f4c68 LaunchPlan { mode: Generic, teams: 6, threads: 48, heap_to_shared: false, invalid_result: false } out=0x00d47860741ab0d9",
    "generic_shared StatsSnapshot { flops: 13000, int_ops: 6912, global_load_bytes: 8000, global_store_bytes: 8000, shared_accesses: 8000, barriers: 576, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 720, const_reads: 0, uniform_load_bytes: 0, threads_executed: 6, blocks_executed: 6 } seconds=0x3ed914f9e22eb3c8 LaunchPlan { mode: Generic, teams: 6, threads: 48, heap_to_shared: true, invalid_result: false } out=0x00d47860741ab0d9",
    "generic_capped StatsSnapshot { flops: 1000, int_ops: 4608, global_load_bytes: 8000, global_store_bytes: 8000, shared_accesses: 0, barriers: 384, warp_ops: 0, atomic_ops: 0, divergent_branches: 0, serial_ops: 720, const_reads: 0, uniform_load_bytes: 0, threads_executed: 6, blocks_executed: 6 } seconds=0x3ed711798a14a664 LaunchPlan { mode: Generic, teams: 6, threads: 32, heap_to_shared: false, invalid_result: false } out=0x7a23f639df233f8a",
];

const EXPECTED_REDUCE: &[&str] = &[
    "reduce_spmd StatsSnapshot { flops: 0, int_ops: 3456, global_load_bytes: 8000, global_store_bytes: 0, shared_accesses: 0, barriers: 0, warp_ops: 0, atomic_ops: 288, divergent_branches: 0, serial_ops: 0, const_reads: 0, uniform_load_bytes: 0, threads_executed: 288, blocks_executed: 6 } seconds=0x3ec3c027046ac478 LaunchPlan { mode: Spmd, teams: 6, threads: 48, heap_to_shared: false, invalid_result: false } sum=0x40d772fd1eb851eb",
    "reduce_generic StatsSnapshot { flops: 0, int_ops: 8640, global_load_bytes: 8000, global_store_bytes: 0, shared_accesses: 0, barriers: 576, warp_ops: 0, atomic_ops: 6, divergent_branches: 0, serial_ops: 720, const_reads: 0, uniform_load_bytes: 0, threads_executed: 6, blocks_executed: 6 } seconds=0x3ed71ef3f05253ec LaunchPlan { mode: Generic, teams: 6, threads: 48, heap_to_shared: false, invalid_result: false } sum=0x40d772fd1eb851eb",
];

fn check(workers: usize) {
    assert_eq!(dpf_records(workers), EXPECTED_DPF, "prepare_dpf at {workers} workers");
    assert_eq!(reduce_records(workers), EXPECTED_REDUCE, "run_reduce_sum at {workers} workers");
}

#[test]
fn lowering_reproduces_the_recorded_results_serially() {
    check(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn lowering_reproduces_the_recorded_results_at_any_worker_count(workers in 2usize..=6) {
        check(workers);
    }
}
