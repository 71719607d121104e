//! # ompx-hecbench — the paper's six benchmark applications
//!
//! The evaluation (§4) ports six HeCBench applications from CUDA to the
//! proposed OpenMP kernel language and compares four program versions per
//! system (Figure 8):
//!
//! | label | program version | how [`common::Driver`] launches an app's kernel |
//! |---|---|---|
//! | `ompx` | OpenMP kernel language, prototype compiler | the app's SIMT kernel as an `ompx_bare` region ([`ompx::BareTarget`]'s prepared form) on `ompx::runtime_*` |
//! | `omp` | traditional OpenMP target offloading, LLVM/Clang | `target(..).prepare_dpf` over the items on `OpenMp::*_system` (with the paper's LLVM quirks) |
//! | `cuda` / `hip` | native kernel language, LLVM/Clang | the same SIMT kernel through `ompx_klang`'s Clang context |
//! | `cuda-nvcc` / `hip-hipcc` | native, vendor compiler | the same, through the vendor compiler's context |
//!
//! An app states its kernel once, in one of the driver's two forms:
//! [`common::Driver::items`] (xsbench, rsbench, su3, adam) takes a body
//! run once per item, which the SIMT versions guard with `i < n` and the
//! `omp` version lowers as `distribute parallel for`, with per-thread
//! [`common::F64Scratch`] placed where each version puts it;
//! [`common::Driver::tiled`] (stencil, aidw) takes a phased,
//! barrier-delimited body over the app's shared arrays plus the
//! global-memory item body the `omp` version runs instead.
//!
//! Every version of an app executes the *same* per-item arithmetic (shared
//! inner functions), so their checksums must agree bit-for-bit — the
//! versions differ only in launch mechanism, runtime mode, and storage
//! placement, exactly like the paper's ports. Each app simulates a
//! scaled-down workload (a functional simulator is ~10⁵× slower than
//! silicon) and extrapolates the counted events to the paper's command-line
//! workload before running the timing model; the scaling factors are
//! documented per app and in DESIGN.md.
//!
//! Everything around the ports lives once, in [`common`]: the driver's
//! constructor builds the version's runtime, registers the app's codegen
//! profiles and attaches whatever observers the enclosing scoped run
//! installed (sanitizer, memory trace, fault state and write-set hints);
//! each prepared launch can run repeatedly and the driver sums the
//! counters; [`common::Driver::finish`] scales them to the paper workload
//! ([`common::extrapolate`]), models the last prepared launch and turns it
//! into the app's reported time ([`common::ReportedTime`]). `omp` notes
//! read the region's lowering plan ([`common::Driver::omp_plan`]), not the
//! plan a host fallback ran.

pub mod adam;
pub mod aidw;
pub mod common;
pub mod extraction;
#[cfg(test)]
mod generators_test;
pub mod rsbench;
pub mod stencil;
pub mod su3;
pub mod summaries;
pub mod xsbench;

pub use common::{
    run_app_chaos, run_app_sanitized, with_mem_trace, with_mem_trace_full, with_span_log,
    BenchInfo, ChaosSession, FaultReport, ProgVersion, RunOutcome, System, WorkScale,
};

/// All six applications' metadata in the paper's Figure 6 order.
pub fn all_benchmarks() -> Vec<BenchInfo> {
    vec![xsbench::info(), rsbench::info(), su3::info(), aidw::info(), adam::info(), stencil::info()]
}

/// Run one (app, system, version) cell of Figure 8.
pub fn run_app(app: &str, sys: System, version: ProgVersion, scale: WorkScale) -> RunOutcome {
    match app {
        "xsbench" => xsbench::run(sys, version, scale),
        "rsbench" => rsbench::run(sys, version, scale),
        "su3" => su3::run(sys, version, scale),
        "aidw" => aidw::run(sys, version, scale),
        "adam" => adam::run(sys, version, scale),
        "stencil" => stencil::run(sys, version, scale),
        other => panic!("unknown benchmark {other:?}"),
    }
}

/// The app names in Figure 8 order.
pub const APP_NAMES: [&str; 6] = ["xsbench", "rsbench", "su3", "aidw", "adam", "stencil"];
