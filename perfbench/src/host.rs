//! The host descriptor stamped into every output, and the process's
//! peak resident memory.

use ompx_sim::exec;

/// What a result depends on besides the code: host cores, simulator
/// workers, functional scale, seed, and the commit measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub sim_workers: usize,
    pub scale: &'static str,
    pub seed: u64,
    pub commit: String,
}

impl Host {
    /// Pin the simulator's worker count for the whole process to at most
    /// one per host core, and describe the host. `OMPX_SIM_WORKERS` can
    /// lower the count but never raise it above the core count: load
    /// comes from this one process.
    pub fn pin(scale: &'static str, seed: u64) -> Host {
        let nproc = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
        let sim_workers = exec::default_workers().min(nproc);
        exec::set_global_workers(Some(sim_workers));
        Host { nproc, sim_workers, scale, seed, commit: commit() }
    }

    /// Whether launches still run with the recorded worker count. Host
    /// timings taken under another count are not comparable, so the
    /// benchmark refuses to report them.
    pub fn workers_unchanged(&self) -> bool {
        exec::default_workers() == self.sim_workers
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"sim_workers\":{},\"scale\":\"{}\",\"seed\":{},\"commit\":\"{}\"}}",
            self.nproc, self.sim_workers, self.scale, self.seed, self.commit
        )
    }
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
