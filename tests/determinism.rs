//! Repeated-run bit-identity under the parallel executor.
//!
//! The simulator's contract is that results, memory traces, and sanitizer
//! findings are byte-stable across runs and across worker counts: blocks
//! may execute on any OS thread in any order, but every cross-thread
//! combination (float reductions, trace merges, diagnostic ordering)
//! happens in canonical block-linear order. These tests pin the contract
//! with workloads chosen to expose ordering bugs — non-associative float
//! sums over catastrophic-cancellation inputs, a barrier-heavy benchmark
//! cell traced end to end, and a phased kernel over a fixed-seed draw of
//! 2-D and 3-D geometries no benchmark port uses, traced and sanitized.
//!
//! Every test forces the same fixed worker count (the tests in this
//! binary may run concurrently and the override is process-global), and
//! serial references use the per-device knob, which takes precedence —
//! except where the knob is out of reach, and the reference run takes the
//! override instead.

use ompx::BareTarget;
use ompx_hecbench::common::{checksum_f32_items, item_uniform, splitmix64, Driver, Runtime};
use ompx_hecbench::{run_app, with_mem_trace_full, ProgVersion, System, WorkScale};
use ompx_klang::blaslib::{sdot, BlasVendor};
use ompx_klang::cuda::cuda_context_clang;
use ompx_sanitizer::{fixtures, Sanitizer};
use ompx_sim::exec::{self, Step};
use ompx_sim::memtrace::{BarrierEvent, MemEvent, MemSpace};
use ompx_sim::san::ToolMask;
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
    // The native stencil is the barrier-heavy version: a shared-memory tile
    // staged behind `sync_threads`, so the trace has all three event kinds
    // (global, shared, barrier) crossing the merge.
    let traced = || {
        let (outcome, events, barriers) = with_mem_trace_full(|| {
            run_app("stencil", System::Nvidia, ProgVersion::Native, WorkScale::Test)
        });
        assert!(!events.is_empty(), "trace hook recorded nothing");
        assert!(!barriers.is_empty(), "expected a barrier-heavy kernel");
        (outcome.checksum, canonical_trace(events, barriers))
    };
    // `run_app` builds its own devices, so the per-device knob is out of
    // reach: the serial reference takes the process-global override.
    exec::set_global_workers(Some(1));
    let (checksum, trace) = traced();
    exec::set_global_workers(Some(WORKERS));
    for run in 0..RUNS {
        let (c, t) = traced();
        assert_eq!(c, checksum, "run {run}: checksum drift at {WORKERS} workers vs 1");
        assert_eq!(t, trace, "run {run}: memtrace byte drift at {WORKERS} workers vs 1");
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

/// What one launch of the tile kernel leaves behind.
#[derive(Debug, PartialEq)]
struct Tiled {
    /// Output bits.
    out: Vec<u32>,
    checksum: u64,
    /// Canonical trace bytes; empty without tools.
    trace: String,
    /// The sanitizer report as JSON; empty without tools.
    findings: String,
}

/// Launch a phased tile kernel on `grid` x `block` with the ompx runtime of
/// `sys` on `workers` workers (the per-device knob). With `tools`, a memory
/// trace and a sanitizer session running every tool are attached.
///
/// Each thread linearises its own coordinates, stages one input in the
/// team tile, and after the barrier combines two neighbours' values. The
/// last 17 threads of the grid exit after the barrier without writing.
/// Launched on the same sizes flattened to one dimension, the kernel must
/// compute the same output. Two deliberate defects leave the output alone
/// but give the sanitizer findings to merge in every block: every seventh
/// thread reads its output element before writing it (initcheck), and the
/// last thread of each team stores its staged value in the tile again in
/// the phase its left neighbour reads it (racecheck).
fn tile_kernel(sys: System, grid: &[u32], block: &[u32], workers: usize, tools: bool) -> Tiled {
    let threads = block.iter().product::<u32>() as usize;
    let total = grid.iter().product::<u32>() as usize * threads;
    let n = total - 17;
    let run = || {
        let driver = Driver::new(sys, ProgVersion::Ompx, |_| {});
        let Runtime::Ompx(omp) = driver.runtime() else { unreachable!("an ompx driver") };
        omp.device().set_sim_workers(Some(workers));
        assert_ne!(threads % omp.device().profile().warp_size as usize, 0, "want a partial warp");
        let san = tools.then(|| Sanitizer::attach_mask(omp.device(), ToolMask::ALL));
        let init: Vec<f32> = (0..total).map(|i| item_uniform(0x2d, i as u64) as f32).collect();
        let input = omp.device().alloc_from(&init);
        let out = omp.device().alloc_uninit::<f32>(n);
        // Default labels carry the process-global allocation id.
        input.set_label("in");
        out.set_label("out");
        let mut target = BareTarget::new(omp, "tile").num_teams(grid).thread_limit(block);
        let slot = target.shared_array::<f32>(threads);
        target
            .launch_phased({
                let (input, out) = (input.clone(), out.clone());
                move |tc, phase, v: &mut f32| {
                    let t = tc.thread_rank();
                    let g = tc.block_rank() * threads + t;
                    let tile = tc.shared::<f32>(slot);
                    if phase == 0 {
                        *v = tc.read(&input, g);
                        tc.swrite(&tile, t, *v);
                        return Step::Barrier;
                    }
                    if g < n {
                        let right = tc.sread(&tile, (t + 1) % threads);
                        let left = tc.sread(&tile, (t + threads - 5) % threads);
                        if t == threads - 1 {
                            tc.swrite(&tile, t, *v);
                        }
                        if t % 7 == 3 {
                            let _ = tc.read(&out, g);
                        }
                        tc.flops(4);
                        tc.write(&out, g, *v * 0.5 + right * 0.25 - left * 0.125);
                    }
                    Step::Exit
                }
            })
            .expect("tile launch");
        let findings = san.map(|san| san.finish().to_json()).unwrap_or_default();
        (out.to_vec(), findings)
    };
    let ((out, findings), trace) = if tools {
        let (result, events, barriers) = with_mem_trace_full(run);
        assert!(!barriers.is_empty(), "expected a barrier per team");
        (result, canonical_trace(events, barriers))
    } else {
        (run(), String::new())
    };
    Tiled {
        out: out.iter().map(|v| v.to_bits()).collect(),
        checksum: checksum_f32_items(&out),
        trace,
        findings,
    }
}

/// A fixed-seed draw of ten tile-kernel geometries: the hand-picked
/// 3x2 teams of 12x7 threads, then 2-D and 3-D team and thread counts in
/// every pairing. No team is a power of two or a multiple of 32 threads,
/// so the last warp is partial at warp 32 and at warp 64; each team has
/// at least five threads and the grid at least 17 threads more than one
/// team, so every team's first thread writes.
fn drawn_geometries() -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut out = vec![(vec![3, 2], vec![12, 7])];
    let mut draw = 0x7e57_u64;
    let mut next = |below: u64| {
        draw = splitmix64(draw);
        1 + (draw % below) as u32
    };
    while out.len() < 10 {
        let (grid_rank, block_rank) = (2 + out.len() % 2, 2 + out.len() / 2 % 2);
        let grid: Vec<u32> = (0..grid_rank).map(|_| next(3)).collect();
        let block: Vec<u32> = [16, 8, 4][..block_rank].iter().map(|&d| next(d)).collect();
        let threads = block.iter().product::<u32>();
        let total = grid.iter().product::<u32>() * threads;
        if threads >= 5 && threads % 32 != 0 && !threads.is_power_of_two() && total >= threads + 17
        {
            out.push((grid, block));
        }
    }
    out
}

#[test]
fn multidim_phased_kernel_is_bit_identical_and_matches_its_flat_launch() {
    let _gate = WORKER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_global_workers(Some(WORKERS));
    let geometries = drawn_geometries();
    let threads = |block: &[u32]| block.iter().product::<u32>();
    assert!(geometries.iter().any(|(_, b)| threads(b) > 64), "want a partial warp past 64");
    assert!(geometries.iter().any(|(g, _)| g.len() == 3), "want a 3-D grid");
    assert!(geometries.iter().any(|(_, b)| b.len() == 3), "want 3-D teams");
    for (grid, block) in &geometries {
        for sys in [System::Nvidia, System::Amd] {
            let at = format!("{sys:?} {grid:?}x{block:?}");
            let reference = tile_kernel(sys, grid, block, 1, true);
            assert!(reference.findings.contains("initcheck"), "{at}: {}", reference.findings);
            assert!(reference.findings.contains("racecheck"), "{at}: {}", reference.findings);
            for run in 0..RUNS {
                let r = tile_kernel(sys, grid, block, WORKERS, true);
                assert_eq!(r.checksum, reference.checksum, "{at} run {run}: checksum drift");
                assert_eq!(r.out, reference.out, "{at} run {run}: output drift");
                assert_eq!(r.trace, reference.trace, "{at} run {run}: memtrace byte drift");
                assert_eq!(r.findings, reference.findings, "{at} run {run}: finding drift");
            }
            let bare = tile_kernel(sys, grid, block, WORKERS, false);
            assert_eq!(bare.out, reference.out, "{at}: the tools change the output");
            let flat = [grid.iter().product::<u32>()];
            let flat = tile_kernel(sys, &flat, &[threads(block)], WORKERS, false);
            assert_eq!(flat.out, reference.out, "{at}: differs from its flattened 1-D launch");
        }
    }
    exec::set_global_workers(None);
}
