//! Benchmark-owned probe kernels that time the simulator's two executor
//! paths and the timing model directly. Counts come from the
//! `StatsSnapshot` each `Device::launch` returns, so a per-thread or
//! per-barrier cost is divided by work the simulator really did.

use crate::stats::median;
use ompx_sim::counters::StatsSnapshot;
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::{Kernel, KernelFlags};
use ompx_sim::timing::{model_kernel, CodegenInfo, ModeOverheads};
use ompx_sim::{Device, DeviceProfile};
use std::hint::black_box;
use std::time::Instant;

/// Threads of the serial-path probe (a streaming scale-by-two).
const SERIAL_THREADS: usize = 1 << 16;
/// Stencil's block shape and halo, as the tiled stencil cells launch it.
const BLOCK: u32 = 256;
const RADIUS: usize = 3;
/// Blocks of the team-path probe.
const TEAM_BLOCKS: usize = 8;
/// Barriers the team probe's heavy variant adds per thread.
const EXTRA_BARRIERS: usize = 8;
/// Launches averaged by the empty-kernel probe.
const EMPTY_LAUNCHES: usize = 200;
/// Calls averaged by the timing-model probe.
const MODEL_CALLS: usize = 20_000;
/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// Per-unit costs of the simulator and the timing model.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub serial_ns_per_thread: f64,
    pub launch_us: f64,
    pub team_ns_per_thread: f64,
    pub team_ns_per_barrier: f64,
    pub model_ns_per_call: f64,
}

fn launch(dev: &Device, kernel: &Kernel, cfg: LaunchConfig) -> (f64, StatsSnapshot) {
    let t0 = Instant::now();
    let stats = dev.launch(kernel, cfg).expect("probe kernels launch within device limits");
    (t0.elapsed().as_secs_f64(), stats)
}

/// Serial path: one read, one flop and one write per thread.
fn serial(dev: &Device) -> f64 {
    let a = dev.alloc_from(&vec![1.0f32; SERIAL_THREADS]);
    let b = dev.alloc::<f32>(SERIAL_THREADS);
    let kernel = Kernel::new("probe_serial", move |tc| {
        let i = tc.global_thread_id_x();
        let v = tc.read(&a, i);
        tc.flops(1);
        tc.write(&b, i, v * 2.0);
    });
    let (secs, stats) = launch(dev, &kernel, LaunchConfig::linear(SERIAL_THREADS, BLOCK));
    secs * 1e9 / stats.threads_executed as f64
}

/// Launch overhead: an empty one-thread kernel, averaged.
fn empty_launch(dev: &Device) -> f64 {
    let kernel = Kernel::new("probe_empty", |_| {});
    let t0 = Instant::now();
    for _ in 0..EMPTY_LAUNCHES {
        dev.launch(&kernel, LaunchConfig::linear(1, 1)).expect("empty probe launch");
    }
    t0.elapsed().as_secs_f64() * 1e6 / EMPTY_LAUNCHES as f64
}

/// Team path: stencil's shared tile, one `sync_threads`, then
/// `extra` more barriers per thread.
fn team(dev: &Device, extra: usize) -> (f64, StatsSnapshot) {
    let n = TEAM_BLOCKS * BLOCK as usize;
    let input = dev.alloc_from(&vec![1.0f32; n]);
    let output = dev.alloc::<f32>(n);
    let mut cfg = LaunchConfig::linear(n, BLOCK);
    let slot = cfg.shared_array::<f32>(BLOCK as usize + 2 * RADIUS);
    let flags = KernelFlags { uses_block_sync: true, uses_warp_ops: false };
    let kernel = Kernel::with_flags("probe_team", flags, move |tc| {
        let tile = tc.shared::<f32>(slot);
        let tid = tc.thread_rank();
        let gid = tc.global_thread_id_x();
        let v = tc.read(&input, gid);
        tc.swrite(&tile, tid + RADIUS, v);
        if tid < RADIUS {
            tc.swrite(&tile, tid, v);
            tc.swrite(&tile, tid + RADIUS + BLOCK as usize, v);
        }
        tc.sync_threads();
        let mut acc = 0.0f32;
        for off in 0..=2 * RADIUS {
            acc += tc.sread(&tile, tid + off);
            tc.flops(1);
        }
        for _ in 0..extra {
            tc.sync_threads();
        }
        tc.write(&output, gid, acc);
    });
    launch(dev, &kernel, cfg)
}

/// One timing-model evaluation on a fixed, stencil-shaped input.
fn model(dev: &DeviceProfile) -> f64 {
    let stats = StatsSnapshot {
        flops: 7 << 20,
        global_load_bytes: 4 << 20,
        global_store_bytes: 4 << 20,
        shared_accesses: 8 << 20,
        barriers: 1 << 20,
        threads_executed: 1 << 20,
        blocks_executed: 1 << 12,
        ..StatsSnapshot::default()
    };
    let (cg, mode) = (CodegenInfo::default(), ModeOverheads::none());
    let t0 = Instant::now();
    for _ in 0..MODEL_CALLS {
        black_box(model_kernel(
            black_box(dev),
            BLOCK,
            1 << 12,
            1 << 10,
            black_box(&stats),
            &cg,
            &mode,
        ));
    }
    t0.elapsed().as_secs_f64() * 1e9 / MODEL_CALLS as f64
}

/// Run every probe [`REPS`] times on an A100 profile; medians.
pub fn run() -> Probes {
    let dev = Device::new(DeviceProfile::a100());
    let mut r: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPS {
        r[0].push(serial(&dev));
        r[1].push(empty_launch(&dev));
        let (base_s, base) = team(&dev, 0);
        let (heavy_s, heavy) = team(&dev, EXTRA_BARRIERS);
        r[2].push(base_s * 1e9 / base.threads_executed as f64);
        r[3].push((heavy_s - base_s) * 1e9 / (heavy.barriers - base.barriers) as f64);
        r[4].push(model(dev.profile()));
    }
    Probes {
        serial_ns_per_thread: median(&r[0]),
        launch_us: median(&r[1]),
        team_ns_per_thread: median(&r[2]),
        team_ns_per_barrier: median(&r[3]),
        model_ns_per_call: median(&r[4]),
    }
}
