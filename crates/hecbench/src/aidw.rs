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
use ompx_klang::toolchain::{vendor_key, CodegenDb, Toolchain};
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::Step;
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

/// Prepare the interpolation kernel `name` of `nq` queries over `np`
/// points into `out`: the tiled scan with `groupprivate(team:)` tiles (the
/// Figure 4 pattern) in the native and ompx versions. Traditional OpenMP
/// cannot express the tile barrier, so the omp version scans the points
/// straight from global memory — the arithmetic (and thus the checksum) is
/// identical.
fn interpolation<'d>(
    driver: &'d mut Driver,
    name: &str,
    d: &AidwData,
    out: &DBuf<f32>,
    np: usize,
    nq: usize,
) -> Launch<'d> {
    let mut cfg = LaunchConfig::linear(nq, BLOCK as u32);
    let slots = TileSlots {
        x: cfg.shared_array::<f32>(BLOCK),
        y: cfg.shared_array::<f32>(BLOCK),
        v: cfg.shared_array::<f32>(BLOCK),
    };
    let (tiled_d, tiled_out) = (d.clone(), out.clone());
    let (d, out) = (d.clone(), out.clone());
    driver.tiled(
        name,
        nq,
        cfg,
        move |tc, phase, st: &mut ScanState| {
            tiled_phase(tc, phase, st, &tiled_d, &tiled_out, slots, np, nq)
        },
        move |tc, q| {
            let qx = tc.read(&d.qx, q);
            let qy = tc.read(&d.qy, q);
            let mut wsum = 0.0f32;
            let mut vsum = 0.0f32;
            // Same point order as the tiled scan. Every thread reads the
            // same point at the same trip — a warp-uniform broadcast, one
            // transaction per warp.
            for p in 0..np {
                let px = tc.read_uniform(&d.px, p);
                let py = tc.read_uniform(&d.py, p);
                let pv = tc.read_uniform(&d.pv, p);
                accumulate(tc, qx, qy, px, py, pv, &mut wsum, &mut vsum);
            }
            tc.flops(1);
            tc.write(&out, q, vsum / wsum);
        },
    )
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
    let (np, nq) = (params.n_points, params.n_queries);
    let mut driver = Driver::new(sys, version, register_profiles);
    let data = generate(driver.device(), params);
    let out = driver.device().alloc::<f32>(nq);
    out.set_label("out");
    interpolation(&mut driver, KERNEL, &data, &out, np, nq).run();
    // Traffic, flops and barriers grow with points x queries, but the
    // launch *geometry* grows only linearly with the query count.
    let geometry = params.paper_points as f64 / nq as f64;
    let checksum = checksum_f32_items(&out.to_vec());
    driver.finish(ReportedTime::KernelOnly, checksum, params.pair_factor(), geometry)
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
        let driver = Driver::new(System::Nvidia, ProgVersion::Native, register_profiles);
        let data = generate(driver.device(), params);
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
        let mut driver = Driver::new(System::Nvidia, ProgVersion::Native, register_profiles);
        let data2 = generate(driver.device(), params);
        let out = driver.device().alloc::<f32>(params.n_queries);
        interpolation(&mut driver, "aidw_ref", &data2, &out, params.n_points, params.n_queries)
            .run();
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
