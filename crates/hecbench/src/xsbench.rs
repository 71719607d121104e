//! XSBench: the continuous-energy macroscopic cross-section lookup kernel
//! (Tramm et al.), proxy for OpenMC — **memory-latency-bound**.
//!
//! Event-based mode (`-m event`, the paper's CLI): every lookup draws a
//! (particle energy, material) pair, then for each nuclide in the material
//! binary-searches that nuclide's energy grid and interpolates five cross
//! sections, accumulating the concentration-weighted macroscopic XS. The
//! access pattern is random across grids — the classic latency-bound
//! workload, which is why register pressure (occupancy → in-flight loads)
//! decides the Figure 8a/8g ordering.
//!
//! Paper observations reproduced here (§4.2.1): the `ompx` version
//! outperforms the native versions under both compilers on both systems;
//! the `omp` results are excluded because the benchmark reported an
//! invalid checksum (our port computes correct results — the exclusion is
//! carried as a flag).

use crate::common::*;
use ompx_klang::toolchain::{vendor_key, CodegenDb, Toolchain};
use ompx_sim::mem::DBuf;
use ompx_sim::thread::ThreadCtx;
use ompx_sim::timing::CodegenInfo;
use ompx_sim::{Device, Vendor};

/// Benchmark metadata (Figure 6 row).
pub fn info() -> BenchInfo {
    BenchInfo {
        name: "XSBench",
        description: "Monte Carlo neutron transport macroscopic XS lookup (memory-bound)",
        paper_cmdline: "-m event",
        reported_metric: "total lookup-kernel seconds",
    }
}

pub(crate) const KERNEL: &str = "xsbench_lookup";
const SEED: u64 = 0x5eed05;
pub(crate) const BLOCK: u32 = 256;
pub(crate) const N_XS: usize = 5;

/// Workload parameters. `paper_lookups` is fixed (XSBench event mode's
/// default of 17M lookups); the `lookups`/`n_gridpoints` pair is what we
/// functionally simulate before extrapolation.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub n_isotopes: usize,
    pub n_gridpoints: usize,
    pub lookups: usize,
    pub paper_lookups: u64,
}

impl Params {
    pub fn for_scale(scale: WorkScale) -> Self {
        match scale {
            WorkScale::Default => Params {
                n_isotopes: 68,
                n_gridpoints: 512,
                lookups: 8192,
                paper_lookups: 17_000_000,
            },
            WorkScale::Test => {
                Params { n_isotopes: 8, n_gridpoints: 64, lookups: 256, paper_lookups: 17_000_000 }
            }
        }
    }

    /// Geometry-only extrapolation: the launch grid grows with the lookup
    /// count but NOT with the per-lookup work-depth factor.
    fn geometry_factor(&self) -> f64 {
        self.paper_lookups as f64 / self.lookups as f64
    }

    fn scale_factor(&self) -> f64 {
        // Lookup-count extrapolation times a workload-reconstruction factor:
        // the paper's grids have 11303 gridpoints/isotope (a deeper binary
        // search) and its default problem touches more nuclides per lookup
        // than our shrunk instance — per-lookup work is ~2.7x ours.
        const GRID_DEPTH_RECONSTRUCTION: f64 = 2.7;
        self.paper_lookups as f64 / self.lookups as f64 * GRID_DEPTH_RECONSTRUCTION
    }
}

/// Device-resident problem data, shared by every program version.
#[derive(Clone)]
pub struct XsData {
    params: Params,
    /// Sorted energy grid per isotope: `egrid[iso * n_gridpoints + j]`.
    egrid: DBuf<f64>,
    /// Five cross sections per gridpoint.
    xs: DBuf<f64>,
    /// Concatenated material composition: isotope indices.
    mat_nuclides: DBuf<u32>,
    /// Concentrations parallel to `mat_nuclides`.
    mat_conc: DBuf<f64>,
    /// Offsets into the two arrays above, one per material (+ end).
    mat_offsets: DBuf<u32>,
}

impl XsData {
    /// Test-only: host copy of the energy grids.
    pub fn egrid_for_tests(&self) -> Vec<f64> {
        self.egrid.to_vec()
    }

    /// Test-only: host copy of the material tables.
    pub fn materials_for_tests(&self) -> (Vec<u32>, Vec<u32>) {
        (self.mat_nuclides.to_vec(), self.mat_offsets.to_vec())
    }
}

/// HeCBench/XSBench material mix: material 0 is fuel with the most
/// nuclides; lookups are biased toward it like the real distribution.
pub(crate) fn material_sizes(n_isotopes: usize) -> Vec<usize> {
    [34usize, 12, 8, 6, 5, 4, 4, 3, 2, 2, 1, 1].iter().map(|&s| s.min(n_isotopes)).collect()
}

/// Generate the deterministic problem instance on `device`.
pub fn generate(device: &Device, params: Params) -> XsData {
    let ng = params.n_gridpoints;
    let ni = params.n_isotopes;

    let mut egrid = Vec::with_capacity(ni * ng);
    let mut xs = Vec::with_capacity(ni * ng * N_XS);
    for iso in 0..ni {
        for j in 0..ng {
            // Strictly increasing per isotope: (j + u_j) / ng.
            let u = item_uniform(SEED ^ 0x11, (iso * ng + j) as u64);
            egrid.push((j as f64 + u) / ng as f64);
            for k in 0..N_XS {
                xs.push(item_uniform(SEED ^ 0x22, ((iso * ng + j) * N_XS + k) as u64));
            }
        }
    }

    let sizes = material_sizes(ni);
    let mut mat_nuclides = Vec::new();
    let mut mat_conc = Vec::new();
    let mut mat_offsets = vec![0u32];
    for (m, &sz) in sizes.iter().enumerate() {
        for s in 0..sz {
            let iso = (splitmix64(SEED ^ ((m * 131 + s) as u64)) % ni as u64) as u32;
            mat_nuclides.push(iso);
            mat_conc.push(0.1 + item_uniform(SEED ^ 0x33, (m * 131 + s) as u64));
        }
        mat_offsets.push(mat_nuclides.len() as u32);
    }

    let data = XsData {
        params,
        egrid: device.alloc_from(&egrid),
        xs: device.alloc_from(&xs),
        mat_nuclides: device.alloc_from(&mat_nuclides),
        mat_conc: device.alloc_from(&mat_conc),
        mat_offsets: device.alloc_from(&mat_offsets),
    };
    data.egrid.set_label("egrid");
    data.xs.set_label("xs");
    data.mat_nuclides.set_label("mat_nuclides");
    data.mat_conc.set_label("mat_conc");
    data.mat_offsets.set_label("mat_offsets");
    data
}

/// Pick the (energy, material) pair of lookup `i` — identical in every
/// program version (the event-based RNG of XSBench).
#[inline]
fn lookup_inputs(i: usize, n_mats: usize) -> (f64, usize) {
    let e = item_uniform(SEED ^ 0x44, i as u64);
    // Bias toward fuel (material 0) like XSBench's distribution.
    let pick = item_uniform(SEED ^ 0x55, i as u64);
    let mat =
        if pick < 0.45 { 0 } else { 1 + (splitmix64(i as u64) % (n_mats as u64 - 1)) as usize };
    (e, mat)
}

/// One macroscopic XS lookup — the shared inner kernel used verbatim by
/// all four program versions.
#[inline]
fn lookup_one(tc: &mut ThreadCtx<'_>, i: usize, d: &XsData) -> f64 {
    let ng = d.params.n_gridpoints;
    let n_mats = material_sizes(d.params.n_isotopes).len();
    let (e, mat) = lookup_inputs(i, n_mats);

    let lo_off = tc.read(&d.mat_offsets, mat) as usize;
    let hi_off = tc.read(&d.mat_offsets, mat + 1) as usize;

    let mut macro_xs = [0.0f64; N_XS];
    for entry in lo_off..hi_off {
        let iso = tc.read(&d.mat_nuclides, entry) as usize;
        let conc = tc.read(&d.mat_conc, entry);
        let base = iso * ng;

        // Binary search the isotope's energy grid for `e`.
        let mut lo = 0usize;
        let mut hi = ng - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let ev = tc.read(&d.egrid, base + mid);
            tc.int_ops(3);
            if e < ev {
                hi = mid;
            } else {
                lo = mid;
            }
        }

        // Linear interpolation of the five cross sections.
        let e_lo = tc.read(&d.egrid, base + lo);
        let e_hi = tc.read(&d.egrid, base + lo + 1);
        let f = (e - e_lo) / (e_hi - e_lo);
        tc.flops(2);
        for (k, acc) in macro_xs.iter_mut().enumerate() {
            let x_lo = tc.read(&d.xs, (base + lo) * N_XS + k);
            let x_hi = tc.read(&d.xs, (base + lo + 1) * N_XS + k);
            let xs_v = x_lo + f * (x_hi - x_lo);
            tc.flops(4); // interp (2) + concentration multiply-add (2)
            *acc += conc * xs_v;
        }
    }
    macro_xs.iter().sum::<f64>()
}

/// Paper-derived + calibrated codegen profiles for the lookup kernel.
///
/// XSBench is latency-bound, so the decisive quantity is registers →
/// resident threads → loads in flight. The prototype's tighter register
/// allocation on this kernel is what makes `ompx` the fastest series in
/// Figures 8a/8g; the native compilers are near-identical to each other.
fn register_profiles(db: &CodegenDb) {
    let base = CodegenInfo {
        coalescing: 0.22, // random grid walks barely coalesce
        fp64_fraction: 1.0,
        ..CodegenInfo::default()
    };
    db.set(
        KERNEL,
        Toolchain::Clang,
        CodegenInfo { regs_per_thread: 52, binary_bytes: 12 * 1024, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::Nvcc,
        CodegenInfo { regs_per_thread: 52, binary_bytes: 11 * 1024, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::Hipcc,
        CodegenInfo { regs_per_thread: 54, binary_bytes: 13 * 1024, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 40, binary_bytes: 14 * 1024, ..base },
    );
    db.set(
        KERNEL,
        Toolchain::ClangOpenmp,
        CodegenInfo { regs_per_thread: 96, binary_bytes: 40 * 1024, ..base },
    );
    // The AMD backend allocates noticeably more VGPRs (fp64 pairs).
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::Clang,
        CodegenInfo { regs_per_thread: 74, binary_bytes: 12 * 1024, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::Hipcc,
        CodegenInfo { regs_per_thread: 76, binary_bytes: 13 * 1024, ..base },
    );
    db.set(
        &vendor_key(KERNEL, Vendor::Amd),
        Toolchain::OmpxPrototype,
        CodegenInfo { regs_per_thread: 48, binary_bytes: 14 * 1024, ..base },
    );
}

/// Run one program version on one system.
pub fn run(sys: System, version: ProgVersion, scale: WorkScale) -> RunOutcome {
    run_with_params(sys, version, Params::for_scale(scale))
}

/// Run with explicit workload parameters (the analyzer's replay entry).
pub(crate) fn run_with_params(sys: System, version: ProgVersion, params: Params) -> RunOutcome {
    let n = params.lookups;
    let mut driver = Driver::new(sys, version, register_profiles);
    let data = generate(driver.device(), params);
    let out = driver.device().alloc::<f64>(n);
    out.set_label("out");
    driver
        .items(KERNEL, Items::new(n, BLOCK), {
            let out = out.clone();
            move |tc, i, _| {
                let v = lookup_one(tc, i, &data);
                tc.write(&out, i, v);
            }
        })
        .run();
    let note = driver.omp_plan().filter(|plan| plan.invalid_result).map(|_| {
        "excluded in the paper: LLVM OpenMP version reported an invalid checksum".to_string()
    });
    let checksum = checksum_f64_items(&out.to_vec());
    driver
        .finish(
            ReportedTime::ModelSeconds,
            checksum,
            params.scale_factor(),
            params.geometry_factor(),
        )
        .with_note(note)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_versions_agree_on_the_checksum() {
        let mut sums = Vec::new();
        for sys in [System::Nvidia, System::Amd] {
            for v in ProgVersion::all() {
                let r = run(sys, v, WorkScale::Test);
                sums.push((r.label.clone(), r.checksum));
            }
        }
        let first = sums[0].1;
        for (label, sum) in &sums {
            assert_eq!(*sum, first, "version {label} diverged");
        }
    }

    #[test]
    fn omp_series_is_flagged_excluded() {
        let r = run(System::Nvidia, ProgVersion::Omp, WorkScale::Test);
        assert!(r.excluded);
        assert!(r.note.is_some());
        let r = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        assert!(!r.excluded);
    }

    #[test]
    fn ompx_beats_native_on_both_systems() {
        for sys in [System::Nvidia, System::Amd] {
            let ompx = run(sys, ProgVersion::Ompx, WorkScale::Test);
            let native = run(sys, ProgVersion::Native, WorkScale::Test);
            let vendor = run(sys, ProgVersion::NativeVendor, WorkScale::Test);
            assert!(
                ompx.reported_seconds < native.reported_seconds,
                "{}: ompx {} !< native {}",
                sys.label(),
                ompx.reported_seconds,
                native.reported_seconds
            );
            assert!(ompx.reported_seconds < vendor.reported_seconds);
        }
    }

    #[test]
    fn device_checksum_matches_independent_host_reference() {
        // A from-scratch host implementation of the macroscopic XS lookup
        // (no ThreadCtx, no simulator) must produce the same per-lookup
        // values — and therefore the same checksum — as every device
        // version.
        let params = Params::for_scale(WorkScale::Test);
        let driver = Driver::new(System::Nvidia, ProgVersion::Native, register_profiles);
        let d = generate(driver.device(), params);
        let egrid = d.egrid.to_vec();
        let xs = d.xs.to_vec();
        let nuclides = d.mat_nuclides.to_vec();
        let conc = d.mat_conc.to_vec();
        let offsets = d.mat_offsets.to_vec();
        let ng = params.n_gridpoints;
        let n_mats = material_sizes(params.n_isotopes).len();

        let mut expected = Vec::with_capacity(params.lookups);
        for i in 0..params.lookups {
            let (e, mat) = lookup_inputs(i, n_mats);
            let mut macro_xs = [0.0f64; N_XS];
            for entry in offsets[mat] as usize..offsets[mat + 1] as usize {
                let iso = nuclides[entry] as usize;
                let base = iso * ng;
                let (mut lo, mut hi) = (0usize, ng - 1);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if e < egrid[base + mid] {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                let f = (e - egrid[base + lo]) / (egrid[base + lo + 1] - egrid[base + lo]);
                for (k, acc) in macro_xs.iter_mut().enumerate() {
                    let x_lo = xs[(base + lo) * N_XS + k];
                    let x_hi = xs[(base + lo + 1) * N_XS + k];
                    *acc += conc[entry] * (x_lo + f * (x_hi - x_lo));
                }
            }
            expected.push(macro_xs.iter().sum::<f64>());
        }
        let host_checksum = checksum_f64_items(&expected);
        let device = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        assert_eq!(device.checksum, host_checksum, "device diverges from host reference");
    }

    #[test]
    fn lookups_are_deterministic() {
        let a = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        let b = run(System::Nvidia, ProgVersion::Native, WorkScale::Test);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.reported_seconds, b.reported_seconds);
    }
}
