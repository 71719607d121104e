//! AIDW: adaptive inverse-distance-weighted interpolation with tiled
//! kNN-style point scans (Mei et al. — §4.2.4).
//!
//! One thread per query point; the data points are swept in block-sized
//! tiles staged through shared memory (`__shared__` arrays + two
//! `__syncthreads()` per tile in the CUDA original — exactly the pattern
//! `ompx_bare` + `groupprivate` + `ompx_sync_thread_block` exists for).
//!
//! Figure 8d/8j observations reproduced: on the MI250 every version is
//! within a few percent; on the A100 the ompx version matches `cuda-nvcc`
//! but trails `cuda` (LLVM/Clang) by ~5 % because Clang *demotes the
//! shared variables to registers* in its native CUDA path while `nvcc` and
//! the prototype keep them in shared memory.
//!
//! The `omp` version (no granular synchronization available) scans the
//! points straight from global memory; broadcast loads cache well, so it
//! stays competitive — as the figure shows.

use crate::common::*;
use ompx::BareTarget;
use ompx_klang::toolchain::{vendor_key, CodegenDb, Toolchain};
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::{Kernel, Step};
use ompx_sim::mem::DBuf;
use ompx_sim::thread::ThreadCtx;
use ompx_sim::timing::CodegenInfo;
use ompx_sim::{Device, Vendor};

/// Benchmark metadata (Figure 6 row).
pub fn info() -> BenchInfo {
    BenchInfo {
        name: "AIDW",
        description: "Adaptive inverse distance weighting interpolation (tiled shared-memory scan)",
        paper_cmdline: "100 0 100",
        reported_metric: "kernel milliseconds",
    }
}

pub(crate) const KERNEL: &str = "aidw_interp";
const SEED: u64 = 0x5eed35;
/// Threads per block, and points per shared tile.
pub const BLOCK: usize = 64;
const EPS: f32 = 1e-6;

/// Workload parameters: `n` data points and `n` query points (the paper's
/// CLI scales both together).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub n_points: usize,
    pub n_queries: usize,
    pub paper_points: u64,
}

impl Params {
    pub fn for_scale(scale: WorkScale) -> Self {
        match scale {
            WorkScale::Default => Params { n_points: 2048, n_queries: 2048, paper_points: 409_600 },
            WorkScale::Test => Params { n_points: 256, n_queries: 256, paper_points: 409_600 },
        }
    }

    /// Work grows with points × queries.
    fn pair_factor(&self) -> f64 {
        let paper = self.paper_points as f64 * self.paper_points as f64;
        paper / (self.n_points as f64 * self.n_queries as f64)
    }
}

/// The device inputs: data points (`px`, `py`, values `pv`) and query
/// points (`qx`, `qy`).
#[derive(Clone)]
pub struct AidwData {
    pub px: DBuf<f32>,
    pub py: DBuf<f32>,
    pub pv: DBuf<f32>,
    pub qx: DBuf<f32>,
    pub qy: DBuf<f32>,
}

fn generate(device: &Device, params: Params) -> AidwData {
    let mk = |tag: u64, n: usize| -> Vec<f32> {
        (0..n).map(|i| item_uniform(SEED ^ tag, i as u64) as f32 * 100.0).collect()
    };
    let data = AidwData {
        px: device.alloc_from(&mk(0x81, params.n_points)),
        py: device.alloc_from(&mk(0x82, params.n_points)),
        pv: device.alloc_from(&mk(0x83, params.n_points)),
        qx: device.alloc_from(&mk(0x84, params.n_queries)),
        qy: device.alloc_from(&mk(0x85, params.n_queries)),
    };
    data.px.set_label("px");
    data.py.set_label("py");
    data.pv.set_label("pv");
    data.qx.set_label("qx");
    data.qy.set_label("qy");
    data
}

/// The shared per-(query, point) accumulation — identical arithmetic in
/// every version regardless of where the point coordinates were staged.
#[inline]
#[allow(clippy::too_many_arguments)]
fn accumulate(
    tc: &mut ThreadCtx<'_>,
    qx: f32,
    qy: f32,
    px: f32,
    py: f32,
    pv: f32,
    wsum: &mut f32,
    vsum: &mut f32,
) {
    let dx = qx - px;
    let dy = qy - py;
    let d2 = dx * dx + dy * dy + EPS;
    // Adaptive power: the 1/d² weight of the benchmark's alpha=2 setting.
    let w = 1.0 / d2;
    *wsum += w;
    *vsum += w * pv;
    tc.flops(12); // subs, fmas, and the reciprocal (~4 flop-equivalents)
}

/// A lane's registers that live across the tiled kernel's barriers: its
/// query point and the two running sums.
#[derive(Debug, Default)]
pub struct ScanState {
    qx: f32,
    qy: f32,
    wsum: f32,
    vsum: f32,
}

/// The shared tiles of the tiled kernel: slots for the staged point
/// coordinates and values.
#[derive(Debug, Clone, Copy)]
pub struct TileSlots {
    pub x: usize,
    pub y: usize,
    pub v: usize,
}

/// Tiled (shared-memory) kernel body — CUDA original and the ompx port —
/// in phased form. The CUDA loop over tiles has two `__syncthreads()` per
/// trip, so phase `2t` stages tile `t` (phase 0 also loads the query),
/// phase `2t+1` accumulates tile `t`, and phase `2*tiles` writes the
/// result.
#[allow(clippy::too_many_arguments)]
pub fn tiled_phase(
    tc: &mut ThreadCtx<'_>,
    phase: usize,
    st: &mut ScanState,
    d: &AidwData,
    out: &DBuf<f32>,
    slots: TileSlots,
    n_points: usize,
    n_queries: usize,
) -> Step {
    let tile_x = tc.shared::<f32>(slots.x);
    let tile_y = tc.shared::<f32>(slots.y);
    let tile_v = tc.shared::<f32>(slots.v);
    let tid = tc.thread_rank();
    let q = tc.global_thread_id_x();
    if phase == 0 && q < n_queries {
        st.qx = tc.read(&d.qx, q);
        st.qy = tc.read(&d.qy, q);
    }
    let tiles = n_points.div_ceil(BLOCK);
    if phase == 2 * tiles {
        if q < n_queries {
            tc.flops(1);
            tc.write(out, q, st.vsum / st.wsum);
        }
        return Step::Exit;
    }
    let t = phase / 2;
    if phase.is_multiple_of(2) {
        let p = t * BLOCK + tid;
        if p < n_points {
            let x = tc.read(&d.px, p);
            let y = tc.read(&d.py, p);
            let v = tc.read(&d.pv, p);
            tc.swrite(&tile_x, tid, x);
            tc.swrite(&tile_y, tid, y);
            tc.swrite(&tile_v, tid, v);
        }
    } else if q < n_queries {
        let in_tile = BLOCK.min(n_points - t * BLOCK);
        for s in 0..in_tile {
            let px = tc.sread(&tile_x, s);
            let py = tc.sread(&tile_y, s);
            let pv = tc.sread(&tile_v, s);
            accumulate(tc, st.qx, st.qy, px, py, pv, &mut st.wsum, &mut st.vsum);
        }
    }
    Step::Barrier
}

/// The tiled kernel, launched by the native versions and the aidw tests.
fn tiled_kernel(
    name: &str,
    d: &AidwData,
    out: &DBuf<f32>,
    slots: TileSlots,
    n_points: usize,
    n_queries: usize,
) -> Kernel {
    let (d, out) = (d.clone(), out.clone());
    Kernel::phased(name, move |tc, phase, st: &mut ScanState| {
        tiled_phase(tc, phase, st, &d, &out, slots, n_points, n_queries)
    })
}

/// Codegen profiles. §4.2.4: Clang's native CUDA path demotes the shared
/// tile variables (modeled as `shared_demotion`); `nvcc` and the ompx
/// prototype do not.
fn register_profiles(db: &CodegenDb) {
    let base = CodegenInfo { coalescing: 0.92, fp64_fraction: 0.0, ..CodegenInfo::default() };
    db.set(
        KERNEL,
        Toolchain::Clang,
        CodegenInfo { regs_per_thread: 30, shared_demotion: 0.55, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::Nvcc,
        CodegenInfo { regs_per_thread: 32, shared_demotion: 0.0, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 32, binary_bytes: 20 * 1024, shared_demotion: 0.0, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::ClangOpenmp,
        CodegenInfo { regs_per_thread: 44, binary_bytes: 36 * 1024, coalescing: 0.95, ..base },
    );
    // MI250: every compiler keeps the tiles in LDS and the figure shows the
    // four versions aligned; profiles are deliberately uniform.
    for t in [Toolchain::Clang, Toolchain::Hipcc, Toolchain::OmpxPrototype] {
        db.set(
            &vendor_key(KERNEL, Vendor::Amd),
            t,
            CodegenInfo { regs_per_thread: 36, shared_demotion: 0.0, ..base },
        );
    }
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::ClangOpenmp,
        CodegenInfo { regs_per_thread: 48, binary_bytes: 36 * 1024, coalescing: 0.95, ..base },
    );
}

/// Run one program version on one system.
pub fn run(sys: System, version: ProgVersion, scale: WorkScale) -> RunOutcome {
    run_with_params(sys, version, Params::for_scale(scale))
}

pub(crate) fn run_with_params(sys: System, version: ProgVersion, params: Params) -> RunOutcome {
    let nq = params.n_queries;
    let np = params.n_points;
    // Traffic, flops and barriers grow with points x queries, but the
    // launch *geometry* grows only linearly with the query count.
    let work = params.pair_factor();
    let geometry = params.paper_points as f64 / params.n_queries as f64;

    let reporting = Reporting { sys, version, time: ReportedTime::KernelOnly };

    match version {
        ProgVersion::Native | ProgVersion::NativeVendor => {
            let ctx = native_ctx(sys, version == ProgVersion::NativeVendor);
            register_profiles(ctx.codegen());
            let data = generate(ctx.device(), params);
            let out = ctx.malloc::<f32>(nq);
            out.set_label("out");
            let mut cfg = LaunchConfig::linear(nq, BLOCK as u32);
            let slots = TileSlots {
                x: cfg.shared_array::<f32>(BLOCK),
                y: cfg.shared_array::<f32>(BLOCK),
                v: cfg.shared_array::<f32>(BLOCK),
            };
            let kernel = tiled_kernel(KERNEL, &data, &out, slots, np, nq);
            let smem = cfg.shared_bytes_per_block();
            let r = ctx.launch_cfg(&kernel, cfg).expect("launch");
            let scaled = extrapolate(&r.stats, work, geometry);
            let modeled = ctx.model(KERNEL, BLOCK as u32, smem, &scaled);
            RunOutcome::new(reporting, checksum_f32_items(&out.to_vec()), modeled, scaled)
        }
        ProgVersion::Ompx => {
            let omp = ompx_runtime(sys);
            register_profiles(omp.codegen());
            let data = generate(omp.device(), params);
            let out = omp.device().alloc::<f32>(nq);
            out.set_label("out");
            let teams = (nq as u32).div_ceil(BLOCK as u32);
            let mut target = BareTarget::new(&omp, KERNEL)
                .num_teams([teams])
                .thread_limit([BLOCK as u32])
                .uses_block_sync();
            // groupprivate(team:) tiles — the Figure 4 pattern.
            let slots = TileSlots {
                x: target.shared_array::<f32>(BLOCK),
                y: target.shared_array::<f32>(BLOCK),
                v: target.shared_array::<f32>(BLOCK),
            };
            let prepared = target.prepare_phased({
                let (data, out) = (data.clone(), out.clone());
                move |tc, phase, st: &mut ScanState| {
                    tiled_phase(tc, phase, st, &data, &out, slots, np, nq)
                }
            });
            let r = prepared.execute().expect("bare launch");
            let scaled = extrapolate(&r.stats, work, geometry);
            let modeled = prepared.model(&scaled).modeled;
            RunOutcome::new(reporting, checksum_f32_items(&out.to_vec()), modeled, scaled)
        }
        ProgVersion::Omp => {
            // Traditional OpenMP cannot express the tile barrier, so the
            // omp version scans points directly from global memory — the
            // arithmetic (and thus the checksum) is identical.
            let omp = omp_runtime(sys);
            register_profiles(omp.codegen());
            let data = generate(omp.device(), params);
            let out = omp.device().alloc::<f32>(nq);
            out.set_label("out");
            let teams = (nq as u32).div_ceil(BLOCK as u32);
            let prepared =
                omp.target(KERNEL).num_teams(teams).thread_limit(BLOCK as u32).prepare_dpf(nq, {
                    let (data, out) = (data.clone(), out.clone());
                    std::sync::Arc::new(
                        move |tc: &mut ThreadCtx<'_>,
                              q: usize,
                              _s: &ompx_devicert::globalization::Scratch| {
                            let qx = tc.read(&data.qx, q);
                            let qy = tc.read(&data.qy, q);
                            let mut wsum = 0.0f32;
                            let mut vsum = 0.0f32;
                            // Same point order as the tiled scan. Every
                            // thread reads the same point at the same trip
                            // — a warp-uniform broadcast, one transaction
                            // per warp.
                            for p in 0..np {
                                let px = tc.read_uniform(&data.px, p);
                                let py = tc.read_uniform(&data.py, p);
                                let pv = tc.read_uniform(&data.pv, p);
                                accumulate(tc, qx, qy, px, py, pv, &mut wsum, &mut vsum);
                            }
                            tc.flops(1);
                            tc.write(&out, q, vsum / wsum);
                        },
                    )
                });
            let r = prepared.execute().expect("omp launch");
            let scaled = extrapolate(&r.stats, work, geometry);
            let modeled = prepared.model(&scaled).modeled;
            RunOutcome::new(reporting, checksum_f32_items(&out.to_vec()), modeled, scaled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_versions_agree_on_the_checksum() {
        let reference = run(System::Nvidia, ProgVersion::Native, WorkScale::Test).checksum;
        for sys in [System::Nvidia, System::Amd] {
            for v in ProgVersion::all() {
                let r = run(sys, v, WorkScale::Test);
                assert_eq!(r.checksum, reference, "{} on {} diverged", r.label, sys.label());
            }
        }
    }

    #[test]
    fn interpolation_matches_host_reference() {
        let params = Params::for_scale(WorkScale::Test);
        let ctx = native_ctx(System::Nvidia, false);
        let data = generate(ctx.device(), params);
        let (px, py, pv) = (data.px.to_vec(), data.py.to_vec(), data.pv.to_vec());
        let (qx, qy) = (data.qx.to_vec(), data.qy.to_vec());
        let r = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        // Recompute query 0 on the host.
        let mut wsum = 0.0f32;
        let mut vsum = 0.0f32;
        for p in 0..params.n_points {
            let dx = qx[0] - px[p];
            let dy = qy[0] - py[p];
            let d2 = dx * dx + dy * dy + EPS;
            let w = 1.0 / d2;
            wsum += w;
            vsum += w * pv[p];
        }
        let expect = vsum / wsum;
        // The checksum covers all queries; spot-check via a fresh run.
        let ctx2 = native_ctx(System::Nvidia, false);
        register_profiles(ctx2.codegen());
        let data2 = generate(ctx2.device(), params);
        let out = ctx2.malloc::<f32>(params.n_queries);
        let mut cfg = LaunchConfig::linear(params.n_queries, BLOCK as u32);
        let slots = TileSlots {
            x: cfg.shared_array::<f32>(BLOCK),
            y: cfg.shared_array::<f32>(BLOCK),
            v: cfg.shared_array::<f32>(BLOCK),
        };
        let kernel =
            tiled_kernel("aidw_ref", &data2, &out, slots, params.n_points, params.n_queries);
        ctx2.launch_cfg(&kernel, cfg).unwrap();
        assert_eq!(out.get(0), expect);
        let _ = r;
    }

    #[test]
    fn amd_versions_are_close() {
        // Figure 8j: on the MI250 all four versions align.
        let times: Vec<f64> = ProgVersion::all()
            .iter()
            .map(|v| run(System::Amd, *v, WorkScale::Test).reported_seconds)
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min < 1.25, "AMD spread too wide: {times:?}");
    }

    #[test]
    fn nvidia_ompx_matches_nvcc_trails_clang() {
        // Figure 8d: ompx ≈ cuda-nvcc, ~5 % behind cuda (clang demotes the
        // shared tiles).
        let ompx = run(System::Nvidia, ProgVersion::Ompx, WorkScale::Test).reported_seconds;
        let cuda = run(System::Nvidia, ProgVersion::Native, WorkScale::Test).reported_seconds;
        let nvcc = run(System::Nvidia, ProgVersion::NativeVendor, WorkScale::Test).reported_seconds;
        assert!(ompx > cuda, "ompx {ompx} should trail clang-cuda {cuda}");
        let ratio = ompx / cuda;
        assert!((1.01..1.20).contains(&ratio), "ompx/cuda ratio {ratio} outside the ~5 % band");
        let vs_nvcc = ompx / nvcc;
        assert!((0.9..1.1).contains(&vs_nvcc), "ompx should match nvcc, got ratio {vs_nvcc}");
    }
}
