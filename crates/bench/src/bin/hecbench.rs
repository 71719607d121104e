//! `hecbench` — run one benchmark app the way HeCBench's drivers do:
//! pick the app, the system, and the program version; get the checksum,
//! the modeled time, and the kernel-model breakdown.
//!
//! ```text
//! hecbench xsbench --system nvidia --version ompx
//! hecbench stencil --system amd --version omp --test-scale
//! hecbench adam                      # all versions on both systems
//! ```

use ompx_bench::cli::{self, Args};
use ompx_hecbench::{run_app, ProgVersion, System, WorkScale, APP_NAMES};

fn usage() -> ! {
    eprintln!(
        "usage: hecbench <app> [--system nvidia|amd] [--version ompx|omp|native|vendor] [--test-scale]\n\
         apps: {}",
        APP_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = Args::new(usage);
    let app = args.value_with(cli::app);
    let mut systems = vec![System::Nvidia, System::Amd];
    let mut versions = ProgVersion::all().to_vec();
    let mut scale = WorkScale::Default;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--system" => systems = vec![args.value_with(cli::system)],
            "--version" => versions = vec![args.value_with(cli::version)],
            "--test-scale" => scale = WorkScale::Test,
            _ => usage(),
        }
    }

    for sys in systems {
        for version in &versions {
            let r = run_app(app, sys, *version, scale);
            println!("== {} / {} / {} ==", app, sys.label(), r.label);
            println!("  checksum          : {:#018x}", r.checksum);
            println!("  reported time     : {:.6} s", r.reported_seconds);
            let m = &r.kernel_model;
            println!(
                "  kernel breakdown  : launch {:.2}us  bw {:.2}us  lat {:.2}us  fp {:.2}us  shared {:.2}us  mode {:.2}us  occ {:.2}",
                m.t_launch * 1e6,
                m.t_bandwidth * 1e6,
                m.t_latency * 1e6,
                m.t_compute * 1e6,
                m.t_shared * 1e6,
                m.t_mode * 1e6,
                m.occupancy
            );
            println!(
                "  counted events    : {:.2e} flops, {:.2e} B global, {:.2e} shared ops, {} blocks",
                r.stats.flops as f64,
                r.stats.global_bytes() as f64,
                r.stats.shared_accesses as f64,
                r.stats.blocks_executed
            );
            if r.excluded {
                println!("  NOTE: series excluded in the paper");
            }
            if let Some(n) = &r.note {
                println!("  note              : {n}");
            }
        }
    }
}
