//! The scoped runs attach their observers only for their own scope: once
//! `run_app_sanitized`, `with_mem_trace_full` or `run_app_chaos` returns,
//! also after the traced closure panics, the launch driver hands out
//! devices with no sanitizer, trace, fault state or write-set hint, for
//! every program version on both systems.

use ompx_hecbench::common::Driver;
use ompx_hecbench::{
    run_app, run_app_chaos, run_app_sanitized, with_mem_trace_full, ProgVersion, System, WorkScale,
};
use ompx_sim::fault::FaultPlan;
use ompx_sim::san::ToolMask;
use ompx_sim::Device;

/// Kernel whose analyzer write set a chaos cell of `xsbench` installs.
const XSBENCH_KERNEL: &str = "xsbench_lookup";

/// A fresh device of every program version's driver on both systems.
fn with_fresh_devices(check: impl Fn(&str, &Device)) {
    for sys in [System::Nvidia, System::Amd] {
        for version in ProgVersion::all() {
            check(version.label(sys), Driver::new(sys, version, |_| {}).device());
        }
    }
}

fn assert_bare(after: &str) {
    with_fresh_devices(|ctor, device| {
        assert!(device.sanitizer().is_none(), "after {after}: {ctor} device has a sanitizer");
        assert!(device.mem_trace().is_none(), "after {after}: {ctor} device has a trace");
        assert!(device.faults().is_none(), "after {after}: {ctor} device has fault state");
        assert!(
            device.kernel_write_set(XSBENCH_KERNEL).is_none(),
            "after {after}: {ctor} device has a write-set hint"
        );
    });
}

#[test]
fn scoped_runs_leave_no_observer_attached() {
    assert_bare("nothing");

    let (_, findings) = run_app_sanitized(
        "stencil",
        System::Nvidia,
        ProgVersion::Omp,
        WorkScale::Test,
        ToolMask::ALL,
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_bare("run_app_sanitized");

    let (_, events, _) = with_mem_trace_full(|| {
        with_fresh_devices(|ctor, device| {
            assert!(device.mem_trace().is_some(), "inside the scope: {ctor} device has no trace");
        });
        run_app("adam", System::Amd, ProgVersion::Ompx, WorkScale::Test)
    });
    assert!(!events.is_empty());
    assert_bare("with_mem_trace_full");

    let (_, report, _) = run_app_chaos(
        "xsbench",
        System::Nvidia,
        ProgVersion::Native,
        WorkScale::Test,
        FaultPlan::seeded(7, 0.5),
    );
    assert!(!report.snapshot.injected.is_empty(), "the plan never reached the device");
    assert_bare("run_app_chaos");

    let caught = std::panic::catch_unwind(|| {
        with_mem_trace_full(|| {
            let driver = Driver::new(System::Nvidia, ProgVersion::NativeVendor, |_| {});
            assert!(driver.device().mem_trace().is_some(), "inside the scope: no trace");
            panic!("benchmark failed mid-run");
        })
    });
    assert!(caught.is_err(), "the closure's panic must propagate");
    assert_bare("a panicking with_mem_trace_full");
}
