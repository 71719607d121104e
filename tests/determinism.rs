//! Repeated-run bit-identity under the parallel executor.
//!
//! The simulator's contract is that results, memory traces, and sanitizer
//! findings are byte-stable across runs and across worker counts: blocks
//! may execute on any OS thread in any order, but every cross-thread
//! combination (float reductions, trace merges, diagnostic ordering)
//! happens in canonical block-linear order. These tests pin the contract
//! with workloads chosen to expose ordering bugs — non-associative float
//! sums over catastrophic-cancellation inputs, and a barrier-heavy
//! benchmark cell traced end to end, and a phased 2-D kernel on a
//! geometry no benchmark port uses.
//!
//! Every test forces the same fixed worker count (the tests in this
//! binary may run concurrently and the override is process-global), and
//! serial references use the per-device knob, which takes precedence.

use ompx::BareTarget;
use ompx_hecbench::common::{checksum_f32_items, item_uniform, ompx_runtime};
use ompx_hecbench::{run_app, with_mem_trace_full, ProgVersion, System, WorkScale};
use ompx_klang::blaslib::{sdot, BlasVendor};
use ompx_klang::cuda::cuda_context_clang;
use ompx_sanitizer::fixtures;
use ompx_sim::exec::{self, Step};
use ompx_sim::memtrace::{BarrierEvent, MemEvent, MemSpace};
use std::sync::Mutex;

/// Bit-identity is claimed for *every* run, so probe more than once or
/// twice: scheduling races are flaky by nature.
const RUNS: usize = 5;

/// Worker count every test in this binary runs under. More workers than
/// this host has cores is fine — oversubscription only makes the OS
/// interleaving less predictable, which is the point.
const WORKERS: usize = 4;

/// Serializes the tests: `exec::set_global_workers` is process-global.
static WORKER_GATE: Mutex<()> = Mutex::new(());

/// Canonical bytes of a trace. Allocation ids come from a process-global
/// counter and differ between runs by construction, so they are
/// renumbered in first-appearance order before serializing.
fn canonical_trace(mut events: Vec<MemEvent>, barriers: Vec<BarrierEvent>) -> String {
    let mut dense: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for e in &mut events {
        if let MemSpace::Global { alloc_id, .. } = &mut e.space {
            let next = dense.len();
            *alloc_id = *dense.entry(*alloc_id).or_insert(next);
        }
    }
    let mut out = String::new();
    for e in &events {
        out.push_str(&format!("{e:?}\n"));
    }
    for b in &barriers {
        out.push_str(&format!("{b:?}\n"));
    }
    out
}

/// Large-magnitude, sign-alternating inputs: the f64 partial sums lose
/// different low bits under every re-association, so any scheduler-order
/// dependence in the reduction shows up as checksum drift.
fn cancellation_inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let xs: Vec<f32> = (0..n)
        .map(|i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            sign * (1.0e8 + (i as f32) * 0.731)
        })
        .collect();
    let ys: Vec<f32> = (0..n).map(|i| 1.0 + (i % 13) as f32 * 0.0625).collect();
    (xs, ys)
}

#[test]
fn sdot_is_bit_identical_across_runs_and_worker_counts() {
    let _gate = WORKER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_global_workers(Some(WORKERS));
    let n = 8192;
    let (xs, ys) = cancellation_inputs(n);

    // Reference serial run: the per-device knob beats the global override.
    let reference = {
        let ctx = cuda_context_clang();
        ctx.device().set_sim_workers(Some(1));
        let x = ctx.malloc_from(&xs);
        let y = ctx.malloc_from(&ys);
        sdot(BlasVendor::Cublas, &ctx, &x, &y).0
    };

    for run in 0..RUNS {
        let ctx = cuda_context_clang();
        let x = ctx.malloc_from(&xs);
        let y = ctx.malloc_from(&ys);
        let (dot, _) = sdot(BlasVendor::Cublas, &ctx, &x, &y);
        assert_eq!(
            dot.to_bits(),
            reference.to_bits(),
            "run {run} at {WORKERS} workers: {dot:?} != serial reference {reference:?}"
        );
    }
    exec::set_global_workers(None);
}

#[test]
fn barrier_heavy_cell_trace_and_checksum_are_bit_identical() {
    let _gate = WORKER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_global_workers(Some(WORKERS));
    let mut reference: Option<(u64, String)> = None;
    for run in 0..RUNS {
        // The native stencil is the barrier-heavy version: a shared-memory
        // tile staged behind `sync_threads`, so the trace has all three
        // event kinds (global, shared, barrier) crossing the merge.
        let (outcome, events, barriers) = with_mem_trace_full(|| {
            run_app("stencil", System::Nvidia, ProgVersion::Native, WorkScale::Test)
        });
        assert!(!events.is_empty(), "trace hook recorded nothing");
        assert!(!barriers.is_empty(), "expected a barrier-heavy kernel");
        let bytes = canonical_trace(events, barriers);
        match &reference {
            None => reference = Some((outcome.checksum, bytes)),
            Some((checksum, trace)) => {
                assert_eq!(outcome.checksum, *checksum, "checksum drift on run {run}");
                assert_eq!(&bytes, trace, "memtrace byte drift on run {run}");
            }
        }
    }
    exec::set_global_workers(None);
}

#[test]
fn sanitizer_finding_order_is_bit_identical() {
    let _gate = WORKER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_global_workers(Some(WORKERS));
    let (run_fixture, _) = fixtures::by_name("shared-race").expect("known fixture");
    let reference = run_fixture().to_json();
    assert!(reference.contains("racecheck"), "fixture produced no findings");
    for run in 1..RUNS {
        let report = run_fixture().to_json();
        assert_eq!(report, reference, "finding-order drift on run {run}");
    }
    exec::set_global_workers(None);
}

/// Launch a phased tile kernel on `grid` x `block` with the ompx runtime of
/// `sys`, traced, on `workers` workers (the per-device knob). Returns the
/// output bits, their checksum and the canonical trace bytes.
///
/// Each thread linearises its own 2-D coordinates, stages one input in
/// the team tile, and after the barrier combines two neighbours' values.
/// The last 17 threads of the grid exit after the barrier without
/// writing. Launched on the same sizes flattened to one dimension, the
/// kernel must compute the same output.
fn tile_kernel(
    sys: System,
    grid: &[u32],
    block: &[u32],
    workers: usize,
) -> (Vec<u32>, u64, String) {
    let threads = block.iter().product::<u32>() as usize;
    let total = grid.iter().product::<u32>() as usize * threads;
    let n = total - 17;
    let (out, events, barriers) = with_mem_trace_full(|| {
        let omp = ompx_runtime(sys);
        omp.device().set_sim_workers(Some(workers));
        assert_ne!(threads % omp.device().profile().warp_size as usize, 0, "want a partial warp");
        let init: Vec<f32> = (0..total).map(|i| item_uniform(0x2d, i as u64) as f32).collect();
        let input = omp.device().alloc_from(&init);
        let out = omp.device().alloc::<f32>(n);
        // Default labels carry the process-global allocation id.
        input.set_label("in");
        out.set_label("out");
        let mut target = BareTarget::new(&omp, "tile_2d").num_teams(grid).thread_limit(block);
        let slot = target.shared_array::<f32>(threads);
        target
            .launch_phased({
                let (input, out) = (input.clone(), out.clone());
                move |tc, phase, v: &mut f32| {
                    let t = tc.thread_id_y() * tc.block_dim_x() + tc.thread_id_x();
                    let b = tc.block_id_y() * tc.grid_dim_x() + tc.block_id_x();
                    let g = b * threads + t;
                    let tile = tc.shared::<f32>(slot);
                    if phase == 0 {
                        *v = tc.read(&input, g);
                        tc.swrite(&tile, t, *v);
                        return Step::Barrier;
                    }
                    if g < n {
                        let right = tc.sread(&tile, (t + 1) % threads);
                        let left = tc.sread(&tile, (t + threads - 5) % threads);
                        tc.flops(4);
                        tc.write(&out, g, *v * 0.5 + right * 0.25 - left * 0.125);
                    }
                    Step::Exit
                }
            })
            .expect("tile launch");
        out.to_vec()
    });
    assert!(!barriers.is_empty(), "expected a barrier per team");
    let bits = out.iter().map(|v| v.to_bits()).collect();
    (bits, checksum_f32_items(&out), canonical_trace(events, barriers))
}

#[test]
fn multidim_phased_kernel_is_bit_identical_and_matches_its_flat_launch() {
    let _gate = WORKER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_global_workers(Some(WORKERS));
    // 84 threads per team: two full warps and 20 lanes on the A100, one
    // full warp and 20 lanes on the MI250.
    let (grid, block) = ([3u32, 2], [12u32, 7]);
    for sys in [System::Nvidia, System::Amd] {
        let (out, checksum, trace) = tile_kernel(sys, &grid, &block, 1);
        for run in 0..RUNS {
            let (o, c, t) = tile_kernel(sys, &grid, &block, WORKERS);
            assert_eq!(c, checksum, "{sys:?} run {run}: checksum drift at {WORKERS} workers");
            assert_eq!(o, out, "{sys:?} run {run}: output drift at {WORKERS} workers");
            assert_eq!(t, trace, "{sys:?} run {run}: memtrace byte drift at {WORKERS} workers");
        }
        let (flat, _, _) = tile_kernel(sys, &[grid[0] * grid[1]], &[block[0] * block[1]], WORKERS);
        assert_eq!(flat, out, "{sys:?}: the 2-D launch differs from its flattened 1-D launch");
    }
    exec::set_global_workers(None);
}
