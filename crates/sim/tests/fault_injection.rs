//! End-to-end fault injection through the public device API: retry
//! recovery, sticky-error semantics, corruption repair, device loss, and
//! the fault-free zero-overhead baseline.

use ompx_sim::device::{Device, DeviceProfile};
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::Kernel;
use ompx_sim::prelude::*;

fn device() -> Device {
    Device::new(DeviceProfile::test_small())
}

fn fill_kernel(out: &ompx_sim::mem::DBuf<u32>, n: usize) -> Kernel {
    let out = out.clone();
    Kernel::new("fill", move |tc| {
        let i = tc.global_thread_id_x();
        if i < n {
            tc.write(&out, i, (i * 2) as u32);
        }
    })
}

#[test]
fn injected_launch_fault_recovers_via_retry_with_span_evidence() {
    let d = device();
    let plan = FaultPlan::none().with_injection(FaultSite::Launch, 0, FaultKind::LaunchFail);
    let faults = FaultState::new(plan);
    d.attach_faults(std::sync::Arc::clone(&faults));

    let n = 64usize;
    let out = d.alloc::<u32>(n);
    let kernel = fill_kernel(&out, n);
    let log = SpanLog::new();
    let prev = SpanLog::install(std::sync::Arc::clone(&log));

    let policy = d.retry_policy();
    let stats =
        run_with_retry(&d, &policy, "fill", || d.launch(&kernel, LaunchConfig::new(2u32, 32u32)))
            .expect("the default retry budget must outlast a single-shot injection");
    match prev {
        Some(p) => drop(SpanLog::install(p)),
        None => drop(SpanLog::uninstall()),
    }
    assert_eq!(stats.threads_executed, 64);
    assert_eq!(out.to_vec()[10], 20);

    let snap = faults.snapshot();
    assert_eq!(snap.recovered, 1);
    assert_eq!(snap.injected.len(), 1);
    assert!(matches!(snap.injected[0].kind, FaultKind::LaunchFail));

    // The retry and the recovery are visible on the span timeline.
    let spans = log.spans();
    let retries: Vec<_> = spans.iter().filter(|s| s.cat == SpanCategory::Retry).collect();
    assert!(
        retries.iter().any(|s| s.name.contains("retry fill #1")),
        "expected a retry span, got {:?}",
        retries.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert!(retries.iter().any(|s| s.name.contains("recovered fill")));
    // No error left behind: the operation ultimately succeeded.
    assert!(d.peek_last_error().is_none());
}

#[test]
fn memcpy_corruption_is_repaired_by_the_retry() {
    let d = device();
    let plan = FaultPlan::none().with_injection(FaultSite::MemcpyH2D, 0, FaultKind::MemcpyCorrupt);
    d.attach_faults(FaultState::new(plan));

    let src: Vec<u32> = (0..256).collect();
    let dst = d.alloc::<u32>(256);
    // First attempt copies-then-corrupts one element; the recopy repairs it.
    let policy = d.retry_policy();
    run_with_retry(&d, &policy, "h2d", || d.try_memcpy_h2d(&dst, &src)).unwrap();
    assert_eq!(dst.to_vec(), src);
}

#[test]
fn single_failed_attempt_observes_the_corruption() {
    let d = device();
    let plan = FaultPlan::none().with_injection(FaultSite::MemcpyH2D, 0, FaultKind::MemcpyCorrupt);
    d.attach_faults(FaultState::new(plan));

    let src: Vec<u32> = (0..16).collect();
    let dst = d.alloc::<u32>(16);
    let err = d.try_memcpy_h2d(&dst, &src).unwrap_err();
    assert!(matches!(err, SimError::MemcpyFault { corrupted: true, .. }), "got {err}");
    // Exactly one element differs by exactly one bit.
    let diff: Vec<usize> = dst
        .to_vec()
        .iter()
        .zip(&src)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(diff.len(), 1, "one deterministic element must be bit-flipped");
    let i = diff[0];
    assert_eq!(dst.get(i) ^ src[i], 1);
}

#[test]
fn device_loss_is_sticky_and_survives_get() {
    let d = device();
    let buf = d.alloc::<u32>(4);
    d.attach_faults(FaultState::new(FaultPlan::none().with_device_loss_at(0)));

    let err = d.try_alloc::<f32>(8).unwrap_err();
    assert!(matches!(err, SimError::DeviceLost { .. }));
    assert!(d.is_lost());

    // Everything after the loss fails the same way.
    assert!(matches!(d.try_memcpy_h2d(&buf, &[1, 2]).unwrap_err(), SimError::DeviceLost { .. }));

    // Sticky semantics: record once, peek and take both keep returning it.
    d.record_error(SimError::DeviceLost { device: d.id() });
    // A later transient error must not displace the sticky one.
    d.record_error(SimError::EccTransient { op: "x".into() });
    assert!(matches!(d.peek_last_error(), Some(SimError::DeviceLost { .. })));
    assert!(matches!(d.take_last_error(), Some(SimError::DeviceLost { .. })));
    assert!(
        matches!(d.take_last_error(), Some(SimError::DeviceLost { .. })),
        "sticky survives take"
    );

    // reset() clears even sticky errors (cudaDeviceReset semantics).
    d.reset();
    assert!(d.peek_last_error().is_none());
}

#[test]
fn transient_error_is_cleared_by_take_but_not_peek() {
    let d = device();
    d.record_error(SimError::EccTransient { op: "launch of k".into() });
    assert!(d.peek_last_error().is_some());
    assert!(d.peek_last_error().is_some(), "peek never clears");
    assert!(d.take_last_error().is_some());
    assert!(d.take_last_error().is_none(), "take clears non-sticky errors");
}

// ---- watchdog partial side effects -----------------------------------------
//
// An injected watchdog timeout no longer fails cleanly before execution: it
// commits a deterministic block prefix (`salt % num_blocks` blocks, where
// the salt for an explicit injection is `splitmix64(seed ^ site.code() ^
// op)`). With seed 0 at Launch op 0 the salt mod 16 is 10, so a 16-block
// launch commits exactly its first ten blocks; with seed 3 it commits
// seven.

/// Kernel that stamps `out[i] = i + 1` across one element per thread.
fn stamp_kernel(out: &ompx_sim::mem::DBuf<u32>, n: usize) -> Kernel {
    let out = out.clone();
    Kernel::new("stamp", move |tc| {
        let i = tc.global_thread_id_x();
        if i < n {
            tc.write(&out, i, (i + 1) as u32);
        }
    })
}

fn watchdog_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none().with_injection(FaultSite::Launch, 0, FaultKind::Watchdog);
    plan.seed = seed;
    plan
}

#[test]
fn watchdog_commits_a_deterministic_block_prefix() {
    let run = |seed: u64| {
        let d = device();
        d.attach_faults(FaultState::new(watchdog_plan(seed)));
        let n = 64usize;
        let out = d.alloc::<u32>(n);
        let err = d.launch(&stamp_kernel(&out, n), LaunchConfig::new(16u32, 4u32)).unwrap_err();
        assert!(matches!(err, SimError::WatchdogTimeout { .. }), "got {err}");
        assert!(err.is_injected() && !err.is_transient(), "watchdog must not be retried");
        out.to_vec()
    };

    // Seed 0 commits ten blocks of four threads: elements 0..40 are
    // stamped, everything past the cutoff never ran.
    let first = run(0);
    assert_eq!(first[..40], (1..=40).collect::<Vec<u32>>()[..], "first ten blocks commit");
    assert!(first[40..].iter().all(|&v| v == 0), "blocks past the cutoff leave no writes");

    // The committed prefix is a pure function of (seed, site, op): same
    // seed, same bits; a different seed cuts at a different block.
    assert_eq!(first, run(0));
    let other = run(3);
    assert_eq!(other[..28], (1..=28).collect::<Vec<u32>>()[..], "seed 3 commits seven blocks");
    assert!(other[28..].iter().all(|&v| v == 0));
}

#[test]
fn watchdog_checkpoint_restore_makes_the_fallback_bit_identical() {
    let n = 64usize;
    let sentinel: Vec<u32> = (0..n as u32).map(|i| 0xDEAD_0000 | i).collect();

    // The fault-free reference result.
    let expected: Vec<u32> = {
        let d = device();
        let out = d.alloc_from(&sentinel);
        d.launch(&stamp_kernel(&out, n), LaunchConfig::new(16u32, 4u32)).unwrap();
        out.to_vec()
    };

    let d = device();
    d.attach_faults(FaultState::new(watchdog_plan(0)));
    let out = d.alloc_from(&sentinel);
    let kernel = stamp_kernel(&out, n);
    let cfg = LaunchConfig::new(16u32, 4u32);
    let err = d.launch(&kernel, cfg.clone()).unwrap_err();
    assert!(matches!(err, SimError::WatchdogTimeout { .. }), "got {err}");
    assert_ne!(out.to_vec(), sentinel, "the committed prefix must be visible");
    assert_ne!(out.to_vec(), expected, "the partial result must not pass for a full one");

    // The device checkpointed the kernel's write-set when the watchdog
    // fired; restoring rewinds exactly the committed prefix...
    assert!(d.restore_checkpoint("stamp"), "a watchdog launch must leave a checkpoint");
    assert_eq!(out.to_vec(), sentinel, "restore rewinds to the pre-launch bits");
    assert!(!d.restore_checkpoint("stamp"), "the checkpoint is consumed by the restore");

    // ...so the injection-blind re-dispatch reproduces the fault-free
    // result bit for bit.
    d.launch_unchecked(&kernel, cfg).unwrap();
    assert_eq!(out.to_vec(), expected, "fallback after restore is bit-identical");
}

#[test]
fn memtrace_observes_exactly_the_committed_prefix() {
    let d = device();
    d.attach_faults(FaultState::new(watchdog_plan(0)));
    let trace = ompx_sim::memtrace::MemTrace::new();
    d.attach_mem_trace(std::sync::Arc::clone(&trace));

    let n = 64usize;
    let out = d.alloc::<u32>(n);
    d.launch(&stamp_kernel(&out, n), LaunchConfig::new(16u32, 4u32)).unwrap_err();

    // Ten blocks of four threads each issue one write: forty events, all
    // from blocks below the cutoff, covering exactly elements 0..40.
    let events = trace.events();
    assert_eq!(events.len(), 40, "one traced write per committed thread");
    assert!(events.iter().all(|e| &*e.kernel == "stamp" && e.block.0 < 10));
    assert!(events.iter().all(|e| e.kind == ompx_sim::memtrace::MemAccessKind::Write));
    let mut indices: Vec<usize> = events.iter().map(|e| e.index).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..40).collect::<Vec<usize>>());
}

#[test]
fn sanitizer_observes_exactly_the_committed_prefix() {
    use ompx_sim::san::{DiagKind, SanState, ToolMask};

    let d = device();
    d.attach_faults(FaultState::new(watchdog_plan(0)));
    let san = SanState::new(ToolMask::MEMCHECK);
    d.attach_sanitizer(std::sync::Arc::clone(&san));

    // Thread 0 of every block also writes one out-of-bounds element at a
    // block-distinct index, so each *executed* block leaves exactly one
    // memcheck finding.
    let n = 64usize;
    let out = d.alloc_labeled::<u32>(n, "out");
    let kernel = {
        let out = out.clone();
        Kernel::new("probe", move |tc| {
            let i = tc.global_thread_id_x();
            if i < n {
                tc.write(&out, i, (i + 1) as u32);
            }
            if tc.thread_id_x() == 0 {
                tc.write(&out, n + tc.block_id_x(), 0);
            }
        })
    };
    d.launch(&kernel, LaunchConfig::new(16u32, 4u32)).unwrap_err();

    let diags = san.diagnostics();
    assert_eq!(diags.len(), 10, "one finding per committed block, none past the cutoff");
    assert!(diags.iter().all(|g| g.kind == DiagKind::OutOfBounds && g.block.0 < 10));
}

#[test]
fn write_set_hint_scopes_the_checkpoint_to_written_buffers() {
    let run = |with_hint: bool| {
        let d = device();
        d.attach_faults(FaultState::new(watchdog_plan(0)));
        let n = 64usize;
        let out = d.alloc_labeled::<u32>(n, "out");
        let aux = d.alloc_labeled::<u32>(4, "aux");
        d.try_memcpy_h2d(&aux, &[7, 7, 7, 7]).unwrap();
        if with_hint {
            d.set_kernel_write_set("stamp", &["out"]);
        }
        d.launch(&stamp_kernel(&out, n), LaunchConfig::new(16u32, 4u32)).unwrap_err();
        // Host-side progress on an unrelated buffer between the failure
        // and the recovery.
        d.try_memcpy_h2d(&aux, &[99]).unwrap();
        assert!(d.restore_checkpoint("stamp"));
        (out.to_vec(), aux.get(0))
    };

    // With the analyzer-derived hint the checkpoint covers only the
    // kernel's written buffers: `out` rewinds, `aux` keeps the host write.
    let (out, aux0) = run(true);
    assert!(out.iter().all(|&v| v == 0), "hinted restore rewinds the written buffer");
    assert_eq!(aux0, 99, "hinted restore leaves unrelated buffers alone");

    // Without a hint the device snapshots every live allocation, so the
    // host write is (conservatively) rewound too.
    let (out, aux0) = run(false);
    assert!(out.iter().all(|&v| v == 0));
    assert_eq!(aux0, 7, "whole-buffer fallback rewinds everything");
}

#[test]
fn fault_free_plan_is_bit_identical_to_no_faults_at_all() {
    let run = |attach_quiet: bool| {
        let d = device();
        if attach_quiet {
            d.attach_faults(FaultState::new(FaultPlan::none()));
        }
        let n = 128usize;
        let src: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let a = d.alloc_from(&src);
        let b = d.alloc::<u32>(n);
        let k = {
            let (a, b) = (a.clone(), b.clone());
            Kernel::new("xform", move |tc| {
                let i = tc.global_thread_id_x();
                if i < n {
                    let v = tc.read(&a, i);
                    tc.write(&b, i, v.rotate_left(7) ^ 0x9e37);
                }
            })
        };
        let stats = d.launch(&k, LaunchConfig::new(4u32, 32u32)).unwrap();
        (b.to_vec(), stats.threads_executed, stats.global_bytes())
    };
    assert_eq!(run(false), run(true), "a quiet plan must not perturb results or counters");
}
