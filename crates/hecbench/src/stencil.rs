//! Stencil-1D: the classic shared-memory 1-D stencil from the CUDA
//! tutorials (§4.2.6) — **bandwidth-bound**, iterated many times.
//!
//! The CUDA version stages a block-sized tile plus halos in shared memory
//! with two `__syncthreads()` per launch; `ompx_bare` ports it verbatim.
//! Traditional OpenMP cannot express the tile, and worse, LLVM fails to
//! rewrite the region's state machine, leaving the `omp` version in
//! generic mode — with 1000 launches of half a million teams each, the
//! per-team state-machine setup dominates: the paper measures **145.6 ms**
//! per kernel vs ~1 ms native on the A100 (60.87 ms on the MI250). The
//! `force_generic` quirk on kernel `stencil1d` reproduces the mechanism.

use crate::common::*;
use ompx_devicert::ExecMode;
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
        name: "Stencil 1D",
        description: "1-D shared-memory stencil (radius 3), iterated",
        paper_cmdline: "134217728 1000",
        reported_metric: "average kernel milliseconds",
    }
}

pub(crate) const KERNEL: &str = "stencil1d";
const SEED: u64 = 0x5eed55;
/// Threads per block, and elements per shared tile before its halos.
pub const BLOCK: usize = 256;
/// Stencil radius: each output averages `2 * RADIUS + 1` inputs.
pub const RADIUS: usize = 3;

/// Workload parameters. The paper runs 2²⁷ elements for 1000 iterations
/// and reports the average kernel time.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub length: usize,
    pub iterations: usize,
    pub paper_length: u64,
}

impl Params {
    pub fn for_scale(scale: WorkScale) -> Self {
        match scale {
            WorkScale::Default => {
                Params { length: 32_768, iterations: 4, paper_length: 134_217_728 }
            }
            WorkScale::Test => Params { length: 2_048, iterations: 2, paper_length: 134_217_728 },
        }
    }

    fn elem_factor(&self) -> f64 {
        self.paper_length as f64 / self.length as f64
    }
}

fn generate(device: &Device, length: usize) -> (DBuf<f32>, DBuf<f32>) {
    let init: Vec<f32> =
        (0..length).map(|i| (item_uniform(SEED, i as u64) * 10.0) as f32).collect();
    let a = device.alloc_from(&init);
    let b = device.alloc::<f32>(length);
    a.set_label("a");
    b.set_label("b");
    (a, b)
}

/// The stencil sum at element `i`, reading through `load` — identical
/// arithmetic whether the neighbours come from the shared tile (native,
/// ompx) or straight from global memory (omp).
#[inline]
fn stencil_sum<'a>(
    tc: &mut ThreadCtx<'a>,
    mut load: impl FnMut(&mut ThreadCtx<'a>, isize) -> f32,
) -> f32 {
    let mut acc = 0.0f32;
    for off in -(RADIUS as isize)..=(RADIUS as isize) {
        acc += load(tc, off);
        tc.flops(1);
    }
    acc / (2 * RADIUS + 1) as f32
}

/// Tiled kernel body (CUDA original and the ompx port) in phased form:
/// phase 0 stages `BLOCK + 2*RADIUS` elements (the block's tile and its
/// halos) and ends at the `__syncthreads()`; phase 1 computes from the
/// tile and writes.
pub fn tiled_phase(
    tc: &mut ThreadCtx<'_>,
    phase: usize,
    input: &DBuf<f32>,
    output: &DBuf<f32>,
    slot: usize,
    n: usize,
) -> Step {
    let tile = tc.shared::<f32>(slot);
    let tid = tc.thread_rank();
    let gid = tc.global_thread_id_x();
    if phase == 0 {
        // Interior element (lanes past the end stage the clamped boundary
        // so partial blocks read consistent halos).
        let v = tc.read(input, gid.min(n - 1));
        tc.swrite(&tile, tid + RADIUS, v);
        // Halos: the first 2*RADIUS threads fetch the block's edges
        // (clamped boundary).
        if tid < RADIUS {
            let left = (tc.block_id_x() * BLOCK).saturating_sub(RADIUS - tid).min(n - 1);
            let v = tc.read(input, left);
            tc.swrite(&tile, tid, v);
            let right = (tc.block_id_x() * BLOCK + BLOCK + tid).min(n - 1);
            let v = tc.read(input, right);
            tc.swrite(&tile, tid + RADIUS + BLOCK, v);
        }
        return Step::Barrier;
    }
    if gid < n {
        let r = stencil_sum(tc, |tc, off| {
            let idx = (tid + RADIUS) as isize + off;
            tc.sread(&tile, idx as usize)
        });
        tc.write(output, gid, r);
    }
    Step::Exit
}

/// Clamped global index for the non-tiled (omp) version — must match the
/// tile's clamping exactly for checksum equality.
#[inline]
fn clamped(n: usize, i: usize, off: isize) -> usize {
    let idx = i as isize + off;
    if idx < 0 {
        // The tile clamps left halos to the block's left edge fetch; with
        // the global formulation the same clamp is index 0 … n-1.
        0
    } else {
        (idx as usize).min(n - 1)
    }
}

/// Prepare one stencil kernel `name` over `input` → `output`: the tiled
/// kernel with its halo tile in shared memory in the native and ompx
/// versions, the clamped global-memory stencil in the omp version.
fn step<'d>(
    driver: &'d mut Driver,
    name: &str,
    input: &DBuf<f32>,
    output: &DBuf<f32>,
    n: usize,
) -> Launch<'d> {
    let mut cfg = LaunchConfig::linear(n, BLOCK as u32);
    let slot = cfg.shared_array::<f32>(BLOCK + 2 * RADIUS);
    let (tiled_in, tiled_out) = (input.clone(), output.clone());
    let (input, output) = (input.clone(), output.clone());
    driver.tiled(
        name,
        n,
        cfg,
        move |tc, phase, _: &mut ()| tiled_phase(tc, phase, &tiled_in, &tiled_out, slot, n),
        move |tc, i| {
            let r = stencil_sum(tc, |tc, off| tc.read(&input, clamped(n, i, off)));
            tc.write(&output, i, r);
        },
    )
}

fn register_profiles(db: &CodegenDb) {
    let base = CodegenInfo { fp64_fraction: 0.0, ..CodegenInfo::default() };
    // The prototype's generated addressing for the tile is slightly
    // better-coalesced than Clang's native path on this kernel — the small
    // but consistent ompx win in Figures 8f/8l.
    db.set(KERNEL, Toolchain::Clang, CodegenInfo { regs_per_thread: 22, coalescing: 0.80, ..base });
    db.set(KERNEL, Toolchain::Nvcc, CodegenInfo { regs_per_thread: 22, coalescing: 0.78, ..base });
    db.set(
        KERNEL,
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 24, coalescing: 0.95, binary_bytes: 14 * 1024, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::ClangOpenmp,
        CodegenInfo { regs_per_thread: 36, coalescing: 0.70, binary_bytes: 36 * 1024, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::Clang,
        CodegenInfo { regs_per_thread: 26, coalescing: 0.82, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::Hipcc,
        CodegenInfo { regs_per_thread: 26, coalescing: 0.80, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 28, coalescing: 0.94, binary_bytes: 14 * 1024, ..base },
    );
}

/// Run one program version on one system. All versions ping-pong between
/// two buffers for `iterations` kernels and report the average kernel time
/// (extrapolated to the paper's 2²⁷ elements).
pub fn run(sys: System, version: ProgVersion, scale: WorkScale) -> RunOutcome {
    run_with_params(sys, version, Params::for_scale(scale))
}

pub(crate) fn run_with_params(sys: System, version: ProgVersion, params: Params) -> RunOutcome {
    let n = params.length;
    let iters = params.iterations;
    let mut driver = Driver::new(sys, version, register_profiles);
    let (a, b) = generate(driver.device(), n);
    for it in 0..iters {
        let (input, output) = if it % 2 == 0 { (&a, &b) } else { (&b, &a) };
        step(&mut driver, KERNEL, input, output, n).run();
    }
    let note = driver.omp_plan().filter(|plan| plan.mode == ExecMode::Generic).map(|_| {
        "generic-mode fallback: the state machine could not be rewritten (§4.2.6)".to_string()
    });
    let final_buf = if iters.is_multiple_of(2) { &a } else { &b };
    // One launch's average, extrapolated to the paper's 2²⁷ elements.
    let per_iter = params.elem_factor() / iters as f64;
    let checksum = checksum_f32_items(&final_buf.to_vec());
    driver.finish(ReportedTime::KernelOnly, checksum, per_iter, per_iter).with_note(note)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_and_global_formulations_agree() {
        // The halo clamping must produce bit-identical results.
        let reference = run(System::Nvidia, ProgVersion::Native, WorkScale::Test).checksum;
        for sys in [System::Nvidia, System::Amd] {
            for v in ProgVersion::all() {
                let r = run(sys, v, WorkScale::Test);
                assert_eq!(r.checksum, reference, "{} on {} diverged", r.label, sys.label());
            }
        }
    }

    #[test]
    fn stencil_smooths_the_signal() {
        // After iterations of averaging, variance must strictly decrease.
        let params = Params::for_scale(WorkScale::Test);
        let mut driver = Driver::new(System::Nvidia, ProgVersion::Native, register_profiles);
        let (a, _b) = generate(driver.device(), params.length);
        let init = a.to_vec();
        let var = |v: &[f32]| {
            let mean = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32
        };
        let r = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        let _ = r;
        // Direct functional check with a fresh pair.
        let (a, b) = generate(driver.device(), params.length);
        step(&mut driver, "stencil_var", &a, &b, params.length).run();
        assert!(var(&b.to_vec()) < var(&init));
    }

    #[test]
    fn device_checksum_matches_independent_host_reference() {
        // Plain host implementation of the iterated clamped stencil.
        let params = Params::for_scale(WorkScale::Test);
        let driver = Driver::new(System::Nvidia, ProgVersion::Native, register_profiles);
        let (a, _b) = generate(driver.device(), params.length);
        let mut cur = a.to_vec();
        let n = params.length;
        for _ in 0..params.iterations {
            let mut next = vec![0.0f32; n];
            for (i, slot) in next.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for off in -(RADIUS as isize)..=(RADIUS as isize) {
                    acc += cur[clamped(n, i, off)];
                }
                *slot = acc / (2 * RADIUS + 1) as f32;
            }
            cur = next;
        }
        let host_checksum = checksum_f32_items(&cur);
        let device = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        assert_eq!(device.checksum, host_checksum, "device diverges from host reference");
    }

    #[test]
    fn omp_is_orders_of_magnitude_slower() {
        // §4.2.6: generic-mode state machine → ~2 orders of magnitude.
        for sys in [System::Nvidia, System::Amd] {
            let omp = run(sys, ProgVersion::Omp, WorkScale::Test);
            let ompx = run(sys, ProgVersion::Ompx, WorkScale::Test);
            let ratio = omp.reported_seconds / ompx.reported_seconds;
            assert!(
                ratio > 50.0,
                "{}: omp/ompx ratio {ratio} too small for the generic-mode pathology",
                sys.label()
            );
            assert!(omp.note.as_deref().unwrap_or("").contains("generic"));
        }
    }

    #[test]
    fn ompx_beats_native_on_both_systems() {
        for sys in [System::Nvidia, System::Amd] {
            let ompx = run(sys, ProgVersion::Ompx, WorkScale::Test).reported_seconds;
            let native = run(sys, ProgVersion::Native, WorkScale::Test).reported_seconds;
            assert!(ompx < native, "{}: ompx {ompx} !< native {native}", sys.label());
        }
    }
}
