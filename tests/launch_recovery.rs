//! The launch-recovery contract of the three language runtimes.
//!
//! Every kernel dispatch path — klang `launch`/`launch_async`, bare ompx
//! `execute`/`launch_nowait_interopobj`, hostrt
//! `run_distribute_parallel_for`/`run_dpf_nowait` — runs one
//! read-modify-write kernel under a fault-free plan and under three
//! kind-pure fault plans: a watchdog kill of the launch (which commits a
//! partial block prefix first), whole-device loss, and a launch fault the
//! retry policy (one attempt) cannot clear. For every run:
//!
//! * the output buffer is bit-identical to the fault-free run (a skipped
//!   checkpoint restore would apply the kernel twice to the prefix);
//! * a fallback reports the 1×1 host plan;
//! * the observable recovery transcript — fault-state notes, the span
//!   sequence with bit-exact durations, plans and modeled seconds —
//!   matches `tests/launch_recovery.golden` line for line.
//!
//! The invalid-geometry tests pin the one class of launch error no
//! runtime recovers from: a rejected configuration surfaces unchanged.

use ompx::bare::BareTarget;
use ompx::interop_depend::{launch_nowait_interopobj, taskwait_interopobj};
use ompx_devicert::globalization::Scratch;
use ompx_devicert::mode::ExecMode;
use ompx_hecbench::with_span_log;
use ompx_hostrt::target::TargetResult;
use ompx_hostrt::{InteropObj, KnownIssues, OpenMp, QuirkSet};
use ompx_klang::runtime::NativeCtx;
use ompx_klang::toolchain::Toolchain;
use ompx_sim::device::{Device, DeviceProfile};
use ompx_sim::dim::LaunchConfig;
use ompx_sim::error::SimError;
use ompx_sim::exec::Kernel;
use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultState, RetryPolicy};
use ompx_sim::mem::DBuf;
use ompx_sim::span::{Span, Track};
use ompx_sim::thread::ThreadCtx;

const GOLDEN: &str = include_str!("launch_recovery.golden");

const KERNEL: &str = "rmw";
const TEAMS: u32 = 8;
const THREADS: u32 = 128;
const N: usize = 1000;

#[derive(Clone, Copy, Debug)]
enum Path {
    KlangLaunch,
    KlangLaunchAsync,
    BareExecute,
    BareInterop,
    HostrtDpf,
    HostrtDpfNowait,
}

const PATHS: [Path; 6] = [
    Path::KlangLaunch,
    Path::KlangLaunchAsync,
    Path::BareExecute,
    Path::BareInterop,
    Path::HostrtDpf,
    Path::HostrtDpfNowait,
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Plan {
    FaultFree,
    Watchdog,
    DeviceLoss,
    LaunchFault,
}

const PLANS: [Plan; 4] = [Plan::FaultFree, Plan::Watchdog, Plan::DeviceLoss, Plan::LaunchFault];

impl Plan {
    fn fault_plan(self) -> FaultPlan {
        match self {
            Plan::FaultFree => FaultPlan::none(),
            // Every launch roll fires, and only as a watchdog kill.
            Plan::Watchdog => FaultPlan::seeded(11, 1.0).with_only_kind(FaultKind::Watchdog),
            // The first rolled operation after attachment is the launch.
            Plan::DeviceLoss => FaultPlan::none().with_device_loss_at(0),
            Plan::LaunchFault => {
                FaultPlan::none().with_injection(FaultSite::Launch, 0, FaultKind::LaunchFail)
            }
        }
    }
}

/// `x[i] = 3 x[i] + i`: applying it twice to any element is visible.
fn rmw(tc: &mut ThreadCtx<'_>, buf: &DBuf<u32>, i: usize) {
    let v = tc.read(buf, i);
    tc.int_ops(2);
    tc.write(buf, i, v.wrapping_mul(3).wrapping_add(i as u32));
}

fn grid_body(buf: &DBuf<u32>) -> impl Fn(&mut ThreadCtx<'_>) + Send + Sync + 'static {
    let buf = buf.clone();
    move |tc| {
        let i = tc.global_thread_id_x();
        if i < N {
            rmw(tc, &buf, i);
        }
    }
}

fn loop_body(
    buf: &DBuf<u32>,
) -> impl Fn(&mut ThreadCtx<'_>, usize, &Scratch) + Send + Sync + 'static {
    let buf = buf.clone();
    move |tc, i, _s| rmw(tc, &buf, i)
}

fn track_label(t: Track) -> &'static str {
    match t {
        Track::Host => "host",
        Track::Stream(_) => "stream",
        Track::Tasks => "tasks",
        Track::Device(_) => "device",
    }
}

/// One scenario: dispatch `path` under `plan` and return the output
/// buffer, the transcript, and the `TargetResult` (if the path returns
/// one).
fn run(path: Path, plan: Plan) -> (Vec<u32>, Vec<String>, Option<TargetResult>) {
    let device = Device::new(DeviceProfile::test_small());
    let init: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let buf = device.alloc_from(&init);
    let ctx = NativeCtx::new(device.clone(), Toolchain::Nvcc);
    let omp = OpenMp::with_device(device.clone(), Toolchain::OmpxPrototype, KnownIssues::new());
    let kernel = Kernel::new(KERNEL, grid_body(&buf));
    let stream = ctx.stream_create();
    let obj = InteropObj::init_targetsync(&omp);
    let bare = BareTarget::new(&omp, KERNEL)
        .num_teams([TEAMS])
        .thread_limit([THREADS])
        .prepare(grid_body(&buf));

    // Attach last, so the launch is the first operation the plan rolls.
    let faults = FaultState::new(plan.fault_plan());
    device.attach_faults(std::sync::Arc::clone(&faults));
    if plan == Plan::LaunchFault {
        device.set_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    }

    let mut lines = Vec::new();
    let (target, spans): (Option<TargetResult>, Vec<Span>) = with_span_log(|| match path {
        Path::KlangLaunch => {
            let r = ctx.launch(&kernel, TEAMS, THREADS).expect("klang launch");
            lines.push(format!("modeled {:016x}", r.modeled.seconds.to_bits()));
            None
        }
        Path::KlangLaunchAsync => {
            ctx.launch_async(&kernel, LaunchConfig::new(TEAMS, THREADS), &stream);
            stream.synchronize();
            lines.push(format!("modeled {:016x}", stream.modeled_busy_seconds().to_bits()));
            None
        }
        Path::BareExecute => Some(bare.execute().expect("bare execute")),
        Path::BareInterop => {
            launch_nowait_interopobj(&bare, &obj);
            taskwait_interopobj(&obj);
            lines.push(format!("modeled {:016x}", obj.modeled_busy_seconds().to_bits()));
            None
        }
        Path::HostrtDpf => Some(
            omp.target(KERNEL)
                .num_teams(TEAMS)
                .thread_limit(THREADS)
                .run_distribute_parallel_for(N, loop_body(&buf))
                .expect("hostrt dpf"),
        ),
        Path::HostrtDpfNowait => Some(
            omp.target(KERNEL)
                .num_teams(TEAMS)
                .thread_limit(THREADS)
                .run_dpf_nowait(&[], &[], N, loop_body(&buf))
                .wait()
                .expect("hostrt dpf nowait"),
        ),
    });
    device.detach_faults();

    if let Some(r) = &target {
        lines.push(format!("modeled {:016x}", r.modeled.seconds.to_bits()));
        lines.push(format!("plan {:?} {}x{}", r.plan.mode, r.plan.teams, r.plan.threads));
    }
    let snap = faults.snapshot();
    lines.push(format!("fallbacks {:?}", snap.fallbacks));
    lines.push(format!("degraded {:?}", snap.degraded));
    lines.push(format!("sticky {:?}", snap.sticky));
    for s in &spans {
        lines.push(format!(
            "span {} {} {:?} {:016x}",
            track_label(s.track),
            s.cat.label(),
            s.name,
            s.dur_s.to_bits()
        ));
    }
    // Device ids are process-global allocation order: keep them out.
    let id = format!("device {} ", device.id());
    let lines = lines.into_iter().map(|l| l.replace(&id, "device # ")).collect();
    (buf.to_vec(), lines, target)
}

#[test]
fn every_dispatch_path_recovers_to_the_fault_free_bits_and_golden_transcript() {
    let mut transcript = Vec::new();
    for path in PATHS {
        let (clean, _, _) = run(path, Plan::FaultFree);
        for plan in PLANS {
            let (out, lines, target) = run(path, plan);
            assert!(
                out == clean,
                "{path:?} under {plan:?}: output differs from the fault-free run"
            );
            if let Some(r) = target {
                if plan != Plan::FaultFree {
                    // Every fault here is beyond retry: OpenMP falls back.
                    assert_eq!(
                        (r.plan.mode, r.plan.teams, r.plan.threads),
                        (ExecMode::Host, 1, 1),
                        "{path:?} under {plan:?}"
                    );
                }
            }
            transcript.push(format!("== {path:?} {plan:?}"));
            transcript.extend(lines);
        }
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    for (i, (got, want)) in transcript.iter().zip(&golden).enumerate() {
        assert_eq!(
            got,
            want,
            "transcript line {} differs\nfull transcript:\n{}",
            i + 1,
            transcript.join("\n")
        );
    }
    assert_eq!(transcript.len(), golden.len(), "transcript:\n{}", transcript.join("\n"));
}

fn quiet_device() -> Device {
    let device = Device::new(DeviceProfile::test_small());
    device.attach_faults(FaultState::new(FaultPlan::none()));
    device
}

fn assert_unrecovered(device: &Device) {
    let snap = device.faults().expect("attached").snapshot();
    assert!(snap.fallbacks.is_empty() && snap.degraded.is_empty(), "{snap:?}");
}

#[test]
fn klang_rejects_invalid_geometry_without_recovery() {
    let device = quiet_device();
    let ctx = NativeCtx::new(device.clone(), Toolchain::Nvcc);
    let kernel = Kernel::new("too_wide", |_tc: &mut ThreadCtx<'_>| {});
    let err = ctx.launch(&kernel, 1u32, 4096u32).unwrap_err();
    assert!(matches!(err, SimError::InvalidLaunch(_)), "got {err}");
    assert_unrecovered(&device);
}

#[test]
fn bare_rejects_invalid_geometry_without_recovery() {
    let device = quiet_device();
    let omp = OpenMp::with_device(device.clone(), Toolchain::OmpxPrototype, KnownIssues::new());
    let err = BareTarget::new(&omp, "too_wide")
        .num_teams([1u32])
        .thread_limit([4096u32])
        .launch(|_tc| {})
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidLaunch(_)), "got {err}");
    assert_unrecovered(&device);
}

#[test]
fn hostrt_rejects_oversized_shared_scratch_without_recovery() {
    // The plan clamps hostrt geometry to the device limits, so the launch
    // error a target region can still reach is an over-budget shared
    // allocation (heap-to-shared scratch).
    let device = quiet_device();
    let omp = OpenMp::with_device(device.clone(), Toolchain::ClangOpenmp, KnownIssues::new());
    omp.quirks().set("big_scratch", QuirkSet { heap_to_shared: true, ..Default::default() });
    let err = omp
        .target("big_scratch")
        .num_teams(1)
        .thread_limit(THREADS)
        .scratch_f64(32)
        .run_distribute_parallel_for(N, |_tc, _i, _s| {})
        .unwrap_err();
    assert!(matches!(err, SimError::SharedMemExceeded { .. }), "got {err}");
    assert_unrecovered(&device);
}
