//! An `omp` cell's note describes how its region was lowered, not how its
//! last launch happened to run: when an injected device loss sends the
//! last launch through the host fallback (the 1x1 host plan), the cell
//! still reports the fault-free run's note, checksum and exclusion.

use ompx_hecbench::{run_app_chaos, ProgVersion, System, WorkScale};
use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite};
use ompx_sim::span::SpanCategory;

#[test]
fn omp_notes_come_from_the_lowering_not_the_fallback() {
    for app in ["adam", "stencil", "rsbench", "xsbench"] {
        let cell =
            |plan| run_app_chaos(app, System::Nvidia, ProgVersion::Omp, WorkScale::Test, plan);
        let (clean, _, spans) = cell(FaultPlan::none());
        let clean = clean.expect("the fault-free run succeeds");
        assert!(clean.note.is_some(), "{app}: the fault-free run has no note");
        let launches = spans.iter().filter(|s| s.cat == SpanCategory::Kernel).count() as u64;
        assert!(launches > 0, "{app}: no kernel bars");

        let last_lost = FaultPlan::none().with_injection(
            FaultSite::Launch,
            launches - 1,
            FaultKind::DeviceLost,
        );
        let (faulted, report, _) = cell(last_lost);
        let faulted = faulted.expect("the host fallback recovers the launch");
        assert_eq!(report.snapshot.fallbacks.len(), 1, "{app}: {:?}", report.snapshot);
        assert_eq!(faulted.note, clean.note, "{app}");
        assert_eq!(faulted.excluded, clean.excluded, "{app}");
        assert_eq!(faulted.checksum, clean.checksum, "{app}");
    }
}
