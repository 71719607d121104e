//! Adam: the adaptive-moment-estimation optimizer step (Kingma & Ba),
//! iterated over a small parameter vector — **launch-bound** (§4.2.5).
//!
//! The paper's CLI (`10000 200 100`) updates 10,000 parameters for 200
//! steps: each kernel is tiny, so what Figure 8e/8k measures is dominated
//! by per-launch and per-block runtime costs. The paper's finding: the
//! `omp` version is **8× slower** because "an issue in LLVM OpenMP …
//! results in the launch of only 32 threads per thread block" — and the
//! region falls back to generic mode. Both behaviours are applied through
//! the [`ompx_hostrt::quirks`] registry (kernel name `adam`), so the 8×
//! emerges from the mode overheads and the crippled geometry rather than
//! being asserted.

use crate::common::*;
use ompx_klang::toolchain::{vendor_key, CodegenDb, Toolchain};
use ompx_sim::mem::DBuf;
use ompx_sim::thread::ThreadCtx;
use ompx_sim::timing::CodegenInfo;
use ompx_sim::{Device, Vendor};

/// Benchmark metadata (Figure 6 row).
pub fn info() -> BenchInfo {
    BenchInfo {
        name: "Adam",
        description: "Adaptive moment estimation optimizer step (machine learning)",
        paper_cmdline: "10000 200 100",
        reported_metric: "total milliseconds over 200 steps",
    }
}

pub(crate) const KERNEL: &str = "adam";
const SEED: u64 = 0x5eed45;
pub(crate) const BLOCK: u32 = 256;

const LR: f32 = 1e-3;
const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Workload parameters. The parameter count is small enough to simulate at
/// paper scale; only the step count is shortened.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub n: usize,
    pub steps: usize,
    pub paper_steps: u64,
}

impl Params {
    pub fn for_scale(scale: WorkScale) -> Self {
        match scale {
            WorkScale::Default => Params { n: 10_000, steps: 20, paper_steps: 200 },
            WorkScale::Test => Params { n: 1_000, steps: 4, paper_steps: 200 },
        }
    }

    /// Elements are at paper scale for `Default`; tests scale up.
    fn elem_factor(&self) -> f64 {
        10_000.0 / self.n as f64
    }
}

#[derive(Clone)]
struct AdamState {
    p: DBuf<f32>,
    m: DBuf<f32>,
    v: DBuf<f32>,
    g: DBuf<f32>,
}

fn generate(device: &Device, n: usize) -> AdamState {
    let mk = |tag: u64| -> Vec<f32> {
        (0..n).map(|i| (item_uniform(SEED ^ tag, i as u64) - 0.5) as f32).collect()
    };
    let state = AdamState {
        p: device.alloc_from(&mk(0x91)),
        m: device.alloc_from(&vec![0.0f32; n]),
        v: device.alloc_from(&vec![0.0f32; n]),
        g: device.alloc_from(&mk(0x92)),
    };
    state.p.set_label("p");
    state.m.set_label("m");
    state.v.set_label("v");
    state.g.set_label("g");
    state
}

/// One parameter's Adam update at time step `t` (1-based) — shared by all
/// versions.
#[inline]
fn adam_update(tc: &mut ThreadCtx<'_>, i: usize, t: u64, s: &AdamState) {
    let g = tc.read(&s.g, i);
    let m = tc.read(&s.m, i);
    let v = tc.read(&s.v, i);
    let p = tc.read(&s.p, i);
    let m_new = BETA1 * m + (1.0 - BETA1) * g;
    let v_new = BETA2 * v + (1.0 - BETA2) * g * g;
    let bc1 = 1.0 - BETA1.powi(t as i32);
    let bc2 = 1.0 - BETA2.powi(t as i32);
    let m_hat = m_new / bc1;
    let v_hat = v_new / bc2;
    let p_new = p - LR * m_hat / (v_hat.sqrt() + EPS);
    tc.flops(18);
    tc.write(&s.m, i, m_new);
    tc.write(&s.v, i, v_new);
    tc.write(&s.p, i, p_new);
}

fn register_profiles(db: &CodegenDb) {
    let base = CodegenInfo { fp64_fraction: 0.0, ..CodegenInfo::default() };
    db.set(KERNEL, Toolchain::Clang, CodegenInfo { regs_per_thread: 24, coalescing: 0.85, ..base });
    db.set(KERNEL, Toolchain::Nvcc, CodegenInfo { regs_per_thread: 24, coalescing: 0.85, ..base });
    db.set(
        KERNEL,
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 26, coalescing: 0.85, binary_bytes: 12 * 1024, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::ClangOpenmp,
        CodegenInfo { regs_per_thread: 40, coalescing: 0.8, binary_bytes: 32 * 1024, ..base },
    );
    // §4.2.5 AMD: ompx is 16.6 % faster than HIP — the AMD backend's
    // native codegen for this tiny kernel is less efficient at issuing the
    // strided f32 accesses.
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::Clang,
        CodegenInfo { regs_per_thread: 28, coalescing: 0.72, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::Hipcc,
        CodegenInfo { regs_per_thread: 28, coalescing: 0.75, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 30, coalescing: 0.88, binary_bytes: 12 * 1024, ..base },
    );
}

/// Run one program version on one system.
pub fn run(sys: System, version: ProgVersion, scale: WorkScale) -> RunOutcome {
    run_with_params(sys, version, Params::for_scale(scale))
}

pub(crate) fn run_with_params(sys: System, version: ProgVersion, params: Params) -> RunOutcome {
    let n = params.n;
    let mut driver = Driver::new(sys, version, register_profiles);
    let state = generate(driver.device(), n);
    // One launch per step, each prepared with its step number (and, under
    // omp, its own lowering).
    for t in 1..=params.steps as u64 {
        driver
            .items(KERNEL, Items::new(n, BLOCK), {
                let state = state.clone();
                move |tc, i, _| adam_update(tc, i, t, &state)
            })
            .run();
    }
    let note = driver.omp_plan().filter(|plan| plan.threads < BLOCK).map(|plan| {
        format!(
            "LLVM OpenMP launched only {} threads per team (generic mode) — the §4.2.5 issue",
            plan.threads
        )
    });
    let time = ReportedTime::Launches {
        launches: params.paper_steps,
        pipelined: version != ProgVersion::Omp,
    };
    // One launch's average, extrapolated to the paper's parameter count.
    let per_step = params.elem_factor() / params.steps as f64;
    driver.finish(time, checksum_f32_items(&state.p.to_vec()), per_step, per_step).with_note(note)
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
    fn optimizer_converges_toward_gradient_direction() {
        // After a few steps with a constant gradient, parameters must have
        // moved opposite the gradient sign.
        let params = Params::for_scale(WorkScale::Test);
        let mut driver = Driver::new(System::Nvidia, ProgVersion::Native, register_profiles);
        let state = generate(driver.device(), params.n);
        let p0 = state.p.to_vec();
        let g = state.g.to_vec();
        for t in 1..=4u64 {
            driver
                .items("adam_conv", Items::new(params.n, BLOCK), {
                    let state = state.clone();
                    move |tc, i, _| adam_update(tc, i, t, &state)
                })
                .run();
        }
        let p1 = state.p.to_vec();
        let mut moved_correctly = 0usize;
        for i in 0..params.n {
            if g[i].abs() > 1e-3 && (p1[i] - p0[i]) * g[i] < 0.0 {
                moved_correctly += 1;
            }
        }
        assert!(moved_correctly as f64 > 0.95 * params.n as f64);
    }

    #[test]
    fn omp_is_many_times_slower_via_the_32_thread_bug() {
        // §4.2.5: omp ≈ 8× slower than the native/ompx versions.
        let omp = run(System::Nvidia, ProgVersion::Omp, WorkScale::Test);
        let cuda = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        let ratio = omp.reported_seconds / cuda.reported_seconds;
        assert!(ratio > 4.0, "omp/cuda ratio {ratio} too small for the 8x bug");
        assert!(ratio < 30.0, "omp/cuda ratio {ratio} implausibly large");
        assert!(omp.note.as_deref().unwrap_or("").contains("32 threads"));
    }

    #[test]
    fn nvidia_ompx_matches_cuda() {
        let ompx = run(System::Nvidia, ProgVersion::Ompx, WorkScale::Test).reported_seconds;
        let cuda = run(System::Nvidia, ProgVersion::Native, WorkScale::Test).reported_seconds;
        let ratio = ompx / cuda;
        assert!((0.9..1.1).contains(&ratio), "ompx should match cuda, ratio {ratio}");
    }

    #[test]
    fn amd_ompx_beats_hip() {
        // §4.2.5: 16.6 % faster on the MI250.
        let ompx = run(System::Amd, ProgVersion::Ompx, WorkScale::Test).reported_seconds;
        let hip = run(System::Amd, ProgVersion::Native, WorkScale::Test).reported_seconds;
        let gain = hip / ompx;
        assert!(gain > 1.05, "ompx should beat hip, got hip/ompx = {gain}");
    }
}
