//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures fig6                      # benchmark table
//! figures fig7                      # hardware/software configuration
//! figures fig8                      # all twelve subfigures (both systems)
//! figures fig8 --system nvidia      # 8a-8f
//! figures fig8 --system amd --app stencil
//! figures all                       # everything, in paper order
//! figures fig8 --csv results/fig8.csv   # Figure 8 as CSV (instead of the text)
//! ```
//!
//! Add `--test-scale` to use the tiny unit-test workloads (fast, identical
//! orderings, coarser absolute numbers).

use ompx_bench::cli::{self, Args};
use ompx_bench::{print_fig6, print_fig7, print_fig8, print_fig8_all};
use ompx_hecbench::{System, WorkScale, APP_NAMES};

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig6|fig7|fig8|all|verify|shapecheck> [--system nvidia|amd] [--app NAME] \
         [--csv PATH] [--test-scale]\n\
         apps: {}",
        APP_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = Args::new(usage);
    let sub = args.next().unwrap_or_else(|| usage());
    let mut system: Option<System> = None;
    let mut app: Option<&str> = None;
    let mut scale = WorkScale::Default;
    let mut csv: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--csv" if sub == "fig8" => csv = Some(args.value()),
            "--system" => system = Some(args.value_with(cli::system)),
            "--app" => app = Some(args.value_with(cli::app)),
            "--test-scale" => scale = WorkScale::Test,
            _ => usage(),
        }
    }

    let systems = match system {
        Some(s) => vec![s],
        None => vec![System::Nvidia, System::Amd],
    };

    if let Some(path) = &csv {
        let data = ompx_bench::fig8_csv(scale);
        cli::write_file("figures", path, &data);
        println!("wrote {} ({} rows)", path, data.lines().count() - 1);
        return;
    }

    match sub.as_str() {
        "fig6" => print_fig6(),
        "fig7" => print_fig7(),
        "shapecheck" => {
            let checks = ompx_bench::shape_checks(scale);
            let mut failed = false;
            for c in &checks {
                println!("[{}] {} — {}", if c.pass { "PASS" } else { "FAIL" }, c.claim, c.detail);
                failed |= !c.pass;
            }
            println!(
                "\n{}/{} paper observations hold",
                checks.iter().filter(|c| c.pass).count(),
                checks.len()
            );
            if failed {
                std::process::exit(1);
            }
        }
        "verify" => {
            let mut failed = false;
            for app in APP_NAMES {
                match ompx_bench::verify_app(app, scale) {
                    Ok(sum) => {
                        println!("{app:<10} OK  checksum {sum:#018x} across 8 version/system cells")
                    }
                    Err(e) => {
                        failed = true;
                        println!("{app:<10} FAIL {e}");
                    }
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        "fig8" => {
            for sys in systems {
                match app {
                    Some(a) => print_fig8(a, sys, scale),
                    None => print_fig8_all(sys, scale),
                }
            }
        }
        "all" => {
            print_fig6();
            println!();
            print_fig7();
            println!();
            for sys in systems {
                print_fig8_all(sys, scale);
            }
        }
        _ => usage(),
    }
}
