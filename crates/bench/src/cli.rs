//! The harness binaries' one front end: an argument cursor, the shared
//! `--system` / `--version` / `--app` spellings, the output-file writer,
//! the `--metrics-out` session and the baseline gate.
//!
//! Every malformed command line ends in the binary's own `usage`
//! function (which prints the usage text and exits 2); every failed
//! write prints `<bin>: cannot write <path>` and exits 2.

use ompx_hecbench::{ProgVersion, System, APP_NAMES};
use ompx_telemetry::{json, MetricRegistry};
use std::str::FromStr;
use std::sync::Arc;

/// The command line after the binary name, read one argument at a time.
pub struct Args {
    args: std::iter::Peekable<std::vec::IntoIter<String>>,
    usage: fn() -> !,
}

impl Args {
    /// A cursor over `std::env::args`; `usage` handles every malformed
    /// argument.
    pub fn new(usage: fn() -> !) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args { args: args.into_iter().peekable(), usage }
    }

    /// Consume the next argument if it is `word` (a positional
    /// subcommand such as `analyze extract`).
    pub fn next_is(&mut self, word: &str) -> bool {
        self.args.next_if(|a| a == word).is_some()
    }

    /// The value of the flag just read; `usage` when it is missing.
    pub fn value(&mut self) -> String {
        self.args.next().unwrap_or_else(|| (self.usage)())
    }

    /// The flag's value parsed with `FromStr`; `usage` when it does not
    /// parse.
    pub fn parse<T: FromStr>(&mut self) -> T {
        self.value().parse().unwrap_or_else(|_| (self.usage)())
    }

    /// The flag's value read by `spelling` (such as [`system`],
    /// [`version`] or [`app`]); `usage` when it is not a known spelling.
    pub fn value_with<T>(&mut self, spelling: impl FnOnce(&str) -> Option<T>) -> T {
        spelling(&self.value()).unwrap_or_else(|| (self.usage)())
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next flag (or positional argument).
    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// `--system nvidia|amd`.
pub fn system(s: &str) -> Option<System> {
    match s {
        "nvidia" => Some(System::Nvidia),
        "amd" => Some(System::Amd),
        _ => None,
    }
}

/// `--version ompx|omp|native|vendor`.
pub fn version(s: &str) -> Option<ProgVersion> {
    match s {
        "ompx" => Some(ProgVersion::Ompx),
        "omp" => Some(ProgVersion::Omp),
        "native" => Some(ProgVersion::Native),
        "vendor" => Some(ProgVersion::NativeVendor),
        _ => None,
    }
}

/// `--app NAME`, one of [`APP_NAMES`].
pub fn app(s: &str) -> Option<&'static str> {
    APP_NAMES.iter().copied().find(|a| *a == s)
}

/// Write `text` to `path`, creating its parent directory. On failure
/// print `<bin>: cannot write <path>: <error>` and exit 2.
pub fn write_file(bin: &str, path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("{bin}: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// A `--metrics-out` session: a registry with the base families declared
/// is the process's active registry from [`MetricsOut::start`] until
/// [`MetricsOut::finish`] writes its snapshot as Prometheus text.
pub struct MetricsOut {
    path: String,
    registry: Arc<MetricRegistry>,
}

impl MetricsOut {
    /// Install the session's registry.
    pub fn start(path: &str) -> MetricsOut {
        let registry = MetricRegistry::new();
        ompx_telemetry::describe_base_families(&registry);
        ompx_telemetry::install(Arc::clone(&registry));
        MetricsOut { path: path.to_string(), registry }
    }

    /// Uninstall the registry and write its snapshot to the session's path.
    pub fn finish(self, bin: &str) {
        ompx_telemetry::uninstall();
        write_file(bin, &self.path, &ompx_telemetry::to_prometheus(&self.registry.snapshot()));
        eprintln!("{bin}: Prometheus metrics written to {}", self.path);
    }
}

/// The `--baseline` gate: the committed document at `path` and the run's
/// own rendered `doc` must agree field for field ([`json::diff`]: key
/// sets and array lengths equal, strings and bools exact, numbers to
/// 1e-9 relative). Exits 2 on an unreadable baseline, 1 on drift.
pub fn gate(bin: &str, label: &str, path: &str, doc: &str) {
    let want = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text),
        Err(e) => Err(e.to_string()),
    };
    let want = want.unwrap_or_else(|e| {
        eprintln!("{bin}: bad {label} {path}: {e}");
        std::process::exit(2);
    });
    let got = json::parse(doc).expect("the harness renders valid JSON");
    let drifts = json::diff(&want, &got);
    if drifts.is_empty() {
        eprintln!("{bin}: {label} gate PASSED");
    } else {
        eprintln!("{bin}: {label} gate FAILED, {} drift(s):", drifts.len());
        for d in &drifts {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}
