//! Phased kernels against their closure originals.
//!
//! The stencil and aidw kernels run in phased form: split at their
//! `__syncthreads()` into barrier-delimited segments that the block loop
//! runs over every lane in turn. The closure bodies below are the CUDA
//! originals before that split, kept as reference implementations; they
//! run on the thread-per-lane team path. Both forms must be
//! indistinguishable to everything that observes a launch: output
//! buffers, counted statistics (barriers included), memory-trace and
//! barrier events, and sanitizer findings — at one worker and at four,
//! with every sanitizer tool attached and the memory trace recording.

use ompx_hecbench::aidw::{self, AidwData, ScanState, TileSlots};
use ompx_hecbench::common::{Driver, Runtime};
use ompx_hecbench::stencil::{self, RADIUS};
use ompx_hecbench::{with_mem_trace_full, ProgVersion, System};
use ompx_klang::runtime::NativeCtx;
use ompx_sim::counters::StatsSnapshot;
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::{Kernel, KernelFlags, Step};
use ompx_sim::mem::DBuf;
use ompx_sim::memtrace::{BarrierEvent, MemEvent, MemSpace};
use ompx_sim::san::{DiagKind, Diagnostic, SanState, ToolMask};
use ompx_sim::thread::ThreadCtx;

const SYNC: KernelFlags = KernelFlags { uses_block_sync: true, uses_warp_ops: false };

/// Everything a launch leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    out: Vec<u32>,
    stats: StatsSnapshot,
    trace: String,
    diags: String,
}

/// Canonical bytes of a trace: allocation ids come from a process-global
/// counter, so they are renumbered in first-appearance order.
fn canonical_trace(mut events: Vec<MemEvent>, barriers: Vec<BarrierEvent>) -> String {
    let mut dense = std::collections::HashMap::new();
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

fn canonical_diags(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| format!("{d:?}\n")).collect()
}

/// A test kernel's builder: allocates its buffers on the context and
/// returns the kernel in closure (`false`) or phased (`true`) form, its
/// launch config, and the buffer to read back.
type Build = dyn Fn(&NativeCtx, bool) -> (Kernel, LaunchConfig, DBuf<f32>);

/// Launch one form of `build` on a fresh A100 context with `workers`
/// simulator workers, the `tools` sanitizer session attached and the
/// memory trace recording.
fn observe(workers: usize, tools: ToolMask, build: &Build, phased: bool) -> Observed {
    let ((out, stats, diags), events, barriers) = with_mem_trace_full(|| {
        let driver = Driver::new(System::Nvidia, ProgVersion::Native, |_| {});
        let Runtime::Native(ctx) = driver.runtime() else { unreachable!("a native driver") };
        ctx.device().set_sim_workers(Some(workers));
        let san = SanState::new(tools);
        ctx.sanitizer_attach(std::sync::Arc::clone(&san));
        let (kernel, cfg, out) = build(ctx, phased);
        assert_eq!(kernel.is_phased(), phased, "{kernel:?}");
        assert_eq!(kernel.flags(), SYNC, "{kernel:?}");
        let stats = ctx.launch_cfg(&kernel, cfg).expect("launch").stats;
        ctx.sanitizer_detach();
        let out: Vec<u32> = out.to_vec().iter().map(|v| v.to_bits()).collect();
        (out, stats, san.diagnostics())
    });
    Observed {
        out,
        stats,
        trace: canonical_trace(events, barriers),
        diags: canonical_diags(&diags),
    }
}

/// Run both forms at one and at four workers and require all four
/// observations to be identical; returns the closure form's at one worker.
fn assert_forms_agree(what: &str, tools: ToolMask, build: &Build) -> Observed {
    let reference = observe(1, tools, build, false);
    assert!(reference.stats.barriers > 0, "{what}: the reference ran no barriers");
    assert!(!reference.trace.is_empty(), "{what}: the memory trace recorded nothing");
    for workers in [1, 4] {
        for phased in [true, false] {
            assert_eq!(
                observe(workers, tools, build, phased),
                reference,
                "{what}: phased={phased}, {workers} workers"
            );
        }
    }
    reference
}

fn input(ctx: &NativeCtx, n: usize) -> DBuf<f32> {
    let host: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 * 0.5 - 7.0).collect();
    let buf = ctx.device().alloc_from(&host);
    buf.set_label("input");
    buf
}

fn output(ctx: &NativeCtx, n: usize) -> DBuf<f32> {
    let buf = ctx.device().alloc_from(&vec![0.0f32; n]);
    buf.set_label("output");
    buf
}

// ---- stencil ---------------------------------------------------------------

/// Reference: the stencil's CUDA body, one closure with its barrier.
fn stencil_tiled_body(
    tc: &mut ThreadCtx<'_>,
    input: &DBuf<f32>,
    output: &DBuf<f32>,
    slot: usize,
    n: usize,
) {
    let block = stencil::BLOCK;
    let tile = tc.shared::<f32>(slot);
    let tid = tc.thread_rank();
    let gid = tc.global_thread_id_x();
    let v = tc.read(input, gid.min(n - 1));
    tc.swrite(&tile, tid + RADIUS, v);
    if tid < RADIUS {
        let left = (tc.block_id_x() * block).saturating_sub(RADIUS - tid).min(n - 1);
        let v = tc.read(input, left);
        tc.swrite(&tile, tid, v);
        let right = (tc.block_id_x() * block + block + tid).min(n - 1);
        let v = tc.read(input, right);
        tc.swrite(&tile, tid + RADIUS + block, v);
    }
    tc.sync_threads();

    if gid < n {
        let mut acc = 0.0f32;
        for off in -(RADIUS as isize)..=(RADIUS as isize) {
            let idx = (tid + RADIUS) as isize + off;
            acc += tc.sread(&tile, idx as usize);
            tc.flops(1);
        }
        tc.write(output, gid, acc / (2 * RADIUS + 1) as f32);
    }
}

/// Both forms of the stencil over `n` elements, writing into an output
/// buffer of `out_len` elements (shorter than `n` makes memcheck fire).
fn stencil_build(n: usize, out_len: usize) -> Box<Build> {
    Box::new(move |ctx: &NativeCtx, phased: bool| {
        let (a, b) = (input(ctx, n), output(ctx, out_len));
        let mut cfg = LaunchConfig::linear(n, stencil::BLOCK as u32);
        let slot = cfg.shared_array::<f32>(stencil::BLOCK + 2 * RADIUS);
        let (input, out) = (a.clone(), b.clone());
        let kernel = if phased {
            Kernel::phased("stencil1d", move |tc, phase, _: &mut ()| {
                stencil::tiled_phase(tc, phase, &input, &out, slot, n)
            })
        } else {
            Kernel::with_flags("stencil1d", SYNC, move |tc: &mut ThreadCtx<'_>| {
                stencil_tiled_body(tc, &input, &out, slot, n)
            })
        };
        (kernel, cfg, b)
    })
}

#[test]
fn stencil_phased_matches_closure_on_full_blocks() {
    let n = 4 * stencil::BLOCK;
    let r = assert_forms_agree("stencil full", ToolMask::ALL, &*stencil_build(n, n));
    assert_eq!(r.stats.barriers, n as u64);
    assert_eq!(r.diags, "");
}

#[test]
fn stencil_phased_matches_closure_on_a_partial_last_block() {
    let n = 3 * stencil::BLOCK + 100;
    let r = assert_forms_agree("stencil partial", ToolMask::ALL, &*stencil_build(n, n));
    assert_eq!(r.stats.threads_executed, 4 * stencil::BLOCK as u64);
    assert_eq!(r.diags, "");
}

#[test]
fn stencil_phased_matches_closure_findings_byte_for_byte() {
    // The output buffer is 40 elements short: memcheck flags (and
    // suppresses) every out-of-bounds store, in the same canonical order.
    let n = 2 * stencil::BLOCK;
    let r = assert_forms_agree("stencil oob", ToolMask::ALL, &*stencil_build(n, n - 40));
    assert_eq!(r.diags.matches("OutOfBounds").count(), 40, "{}", r.diags);
}

// ---- guarded early return ---------------------------------------------------

/// Both forms of a tile reversal whose lanes past `n` return before the
/// barrier — the guarded-early-return pattern (exited lanes count as
/// arrived).
fn guarded_build(n: usize) -> Box<Build> {
    const BLOCK: usize = 64;
    Box::new(move |ctx: &NativeCtx, phased: bool| {
        let (a, b) = (input(ctx, n), output(ctx, n));
        let mut cfg = LaunchConfig::linear(n, BLOCK as u32);
        let slot = cfg.shared_array::<f32>(BLOCK);
        let (input, out) = (a.clone(), b.clone());
        // The block's live lanes reverse their elements through the tile.
        let mirror = move |tc: &ThreadCtx<'_>| BLOCK.min(n - tc.block_id_x() * BLOCK) - 1;
        let kernel = if phased {
            Kernel::phased("guarded", move |tc, phase, _: &mut ()| {
                let gid = tc.global_thread_id_x();
                if gid >= n {
                    return Step::Exit;
                }
                let tile = tc.shared::<f32>(slot);
                let tid = tc.thread_rank();
                if phase == 0 {
                    let v = tc.read(&input, gid);
                    tc.swrite(&tile, tid, v);
                    return Step::Barrier;
                }
                let v = tc.sread(&tile, mirror(tc) - tid);
                tc.write(&out, gid, v);
                Step::Exit
            })
        } else {
            Kernel::with_flags("guarded", SYNC, move |tc: &mut ThreadCtx<'_>| {
                let gid = tc.global_thread_id_x();
                if gid >= n {
                    return;
                }
                let tile = tc.shared::<f32>(slot);
                let tid = tc.thread_rank();
                let v = tc.read(&input, gid);
                tc.swrite(&tile, tid, v);
                tc.sync_threads();
                let v = tc.sread(&tile, mirror(tc) - tid);
                tc.write(&out, gid, v);
            })
        };
        (kernel, cfg, b)
    })
}

#[test]
fn guarded_early_return_phased_matches_closure() {
    let n = 2 * 64 + 23;
    let r = assert_forms_agree("guarded", ToolMask::ALL, &*guarded_build(n));
    // Only live lanes reach the barrier; exiting early is not divergence.
    assert_eq!(r.stats.barriers, n as u64);
    assert_eq!(r.diags, "");
    assert_eq!(f32::from_bits(r.out[0]), ((63 * 37) % 101) as f32 * 0.5 - 7.0);
}

// ---- aidw -------------------------------------------------------------------

/// Reference: aidw's CUDA body, one closure looping over the tiles with
/// two barriers per trip.
#[allow(clippy::too_many_arguments)]
fn aidw_tiled_body(
    tc: &mut ThreadCtx<'_>,
    d: &AidwData,
    out: &DBuf<f32>,
    slots: TileSlots,
    n_points: usize,
    n_queries: usize,
) {
    let block = aidw::BLOCK;
    let tile_x = tc.shared::<f32>(slots.x);
    let tile_y = tc.shared::<f32>(slots.y);
    let tile_v = tc.shared::<f32>(slots.v);
    let tid = tc.thread_rank();
    let q = tc.global_thread_id_x();
    let (qx, qy) = if q < n_queries { (tc.read(&d.qx, q), tc.read(&d.qy, q)) } else { (0.0, 0.0) };

    let mut wsum = 0.0f32;
    let mut vsum = 0.0f32;
    for t in 0..n_points.div_ceil(block) {
        let p = t * block + tid;
        if p < n_points {
            let x = tc.read(&d.px, p);
            let y = tc.read(&d.py, p);
            let v = tc.read(&d.pv, p);
            tc.swrite(&tile_x, tid, x);
            tc.swrite(&tile_y, tid, y);
            tc.swrite(&tile_v, tid, v);
        }
        tc.sync_threads();
        if q < n_queries {
            for s in 0..block.min(n_points - t * block) {
                let px = tc.sread(&tile_x, s);
                let py = tc.sread(&tile_y, s);
                let pv = tc.sread(&tile_v, s);
                let (dx, dy) = (qx - px, qy - py);
                let w = 1.0 / (dx * dx + dy * dy + 1e-6);
                wsum += w;
                vsum += w * pv;
                tc.flops(12);
            }
        }
        tc.sync_threads();
    }
    if q < n_queries {
        tc.flops(1);
        tc.write(out, q, vsum / wsum);
    }
}

/// Both forms of aidw over `n_points` data points and `n_queries` queries.
fn aidw_build(n_points: usize, n_queries: usize) -> Box<Build> {
    Box::new(move |ctx: &NativeCtx, phased: bool| {
        let coords = |tag: &str, n: usize, salt: usize| {
            let host: Vec<f32> = (0..n).map(|i| ((i * 53 + salt) % 97) as f32 * 1.25).collect();
            let buf = ctx.device().alloc_from(&host);
            buf.set_label(tag);
            buf
        };
        let d = AidwData {
            px: coords("px", n_points, 1),
            py: coords("py", n_points, 2),
            pv: coords("pv", n_points, 3),
            qx: coords("qx", n_queries, 4),
            qy: coords("qy", n_queries, 5),
        };
        let out = output(ctx, n_queries);
        let mut cfg = LaunchConfig::linear(n_queries, aidw::BLOCK as u32);
        let slots = TileSlots {
            x: cfg.shared_array::<f32>(aidw::BLOCK),
            y: cfg.shared_array::<f32>(aidw::BLOCK),
            v: cfg.shared_array::<f32>(aidw::BLOCK),
        };
        let o = out.clone();
        let kernel = if phased {
            Kernel::phased("aidw_interp", move |tc, phase, st: &mut ScanState| {
                aidw::tiled_phase(tc, phase, st, &d, &o, slots, n_points, n_queries)
            })
        } else {
            Kernel::with_flags("aidw_interp", SYNC, move |tc: &mut ThreadCtx<'_>| {
                aidw_tiled_body(tc, &d, &o, slots, n_points, n_queries)
            })
        };
        (kernel, cfg, out)
    })
}

#[test]
fn aidw_phased_matches_closure_on_full_blocks() {
    let r = assert_forms_agree(
        "aidw full",
        ToolMask::ALL,
        &*aidw_build(3 * aidw::BLOCK, 2 * aidw::BLOCK),
    );
    // Two barriers per tile, every lane.
    assert_eq!(r.stats.barriers, 2 * 3 * 2 * aidw::BLOCK as u64);
    assert_eq!(r.diags, "");
}

#[test]
fn aidw_phased_matches_closure_on_partial_blocks_and_tiles() {
    let build = aidw_build(2 * aidw::BLOCK + 9, aidw::BLOCK + 30);
    let r = assert_forms_agree("aidw partial", ToolMask::ALL, &*build);
    assert_eq!(r.stats.threads_executed, 2 * aidw::BLOCK as u64);
    assert_eq!(r.diags, "");
}

// ---- barrier divergence ------------------------------------------------------

#[test]
fn phased_lane_exiting_before_the_last_barrier_is_flagged_like_the_closure() {
    // Lane 5 of each block leaves after the first of two barriers: the
    // closure form abandons its siblings at the second `sync_threads`, the
    // phased form returns `Step::Exit` one phase early. Synccheck must
    // raise the same barrier-divergence finding for both.
    const BLOCK: usize = 16;
    let n = 2 * BLOCK;
    let build = move |ctx: &NativeCtx, phased: bool| {
        let (a, b) = (input(ctx, n), output(ctx, n));
        let cfg = LaunchConfig::linear(n, BLOCK as u32);
        let (input, out) = (a.clone(), b.clone());
        let kernel = if phased {
            Kernel::phased("diverge", move |tc, phase, acc: &mut f32| {
                let gid = tc.global_thread_id_x();
                match phase {
                    0 => {
                        *acc = tc.read(&input, gid);
                        Step::Barrier
                    }
                    1 if tc.thread_rank() == 5 => Step::Exit,
                    1 => Step::Barrier,
                    _ => {
                        tc.write(&out, gid, *acc);
                        Step::Exit
                    }
                }
            })
        } else {
            Kernel::with_flags("diverge", SYNC, move |tc: &mut ThreadCtx<'_>| {
                let gid = tc.global_thread_id_x();
                let acc = tc.read(&input, gid);
                tc.sync_threads();
                if tc.thread_rank() == 5 {
                    return;
                }
                tc.sync_threads();
                tc.write(&out, gid, acc);
            })
        };
        (kernel, cfg, b)
    };
    let r = assert_forms_agree("divergence", ToolMask::SYNCCHECK, &build);
    assert_eq!(r.diags.lines().count(), 2, "one finding per block: {}", r.diags);
    assert!(r.diags.lines().all(|l| l.contains(&format!("{:?}", DiagKind::BarrierDivergence))));
    assert!(r.diags.contains("reached only 1 of the block's 2"), "{}", r.diags);
}
