//! End-to-end integration tests for the ompx-prof profiling layer: span
//! capture through a real benchmark run, multi-track Chrome export,
//! stream-overlap accounting, and baseline regression gating.

use ompx_hecbench::{run_app, with_span_log, ProgVersion, System, WorkScale};
use ompx_hostrt::{KnownIssues, OpenMp};
use ompx_klang::toolchain::Toolchain;
use ompx_prof::probe::overlap_probe;
use ompx_prof::{derive_metrics, to_chrome_trace, to_json, CellProfile};
use ompx_sim::device::{Device, DeviceProfile};
use ompx_sim::span::Track;
use ompx_telemetry::json;

fn omp_small() -> OpenMp {
    OpenMp::with_device(
        Device::new(DeviceProfile::test_small()),
        Toolchain::OmpxPrototype,
        KnownIssues::new(),
    )
}

#[test]
fn profiled_benchmark_run_yields_spans_and_multitrack_trace() {
    let ((outcome, probe), spans) = with_span_log(|| {
        let outcome = run_app("stencil", System::Nvidia, ProgVersion::Ompx, WorkScale::Test);
        let probe = overlap_probe(&omp_small());
        (outcome, probe)
    });
    assert!(!outcome.excluded);
    assert!(!spans.is_empty(), "a profiled run must record spans");

    // Host track saw the app; stream tracks came from the probe.
    let host = spans.iter().filter(|s| s.track == Track::Host).count();
    let streams: std::collections::HashSet<u64> = spans
        .iter()
        .filter_map(|s| match s.track {
            Track::Stream(id) => Some(id),
            _ => None,
        })
        .collect();
    assert!(host > 0, "host track must have spans");
    assert!(streams.len() >= 3, "probe uses one serial + two overlap streams, saw {streams:?}");

    // Flow arrows connect nowait submissions to their stream spans.
    let tails: Vec<u64> = spans.iter().filter_map(|s| s.flow_out).collect();
    let heads: Vec<u64> = spans.iter().filter_map(|s| s.flow_in).collect();
    assert!(!tails.is_empty() && !heads.is_empty());
    for h in &heads {
        assert!(tails.contains(h), "flow head {h} has no matching tail");
    }

    // The Chrome export names every track and carries the flow pairs.
    let json = to_chrome_trace(&spans);
    assert!(json.contains("host (modeled time)"));
    assert!(json.contains("(interop obj)"));
    assert!(json.contains("\"ph\":\"s\""));
    assert!(json.contains("\"ph\":\"f\""));

    // Probe accounting: overlap halves the serial makespan.
    assert!(probe.speedup > 1.9, "stream overlap degenerated: {}", probe.speedup);
    for st in &probe.stream_stats {
        assert_eq!(st.submitted, st.completed, "streams drained");
        assert!(st.modeled_busy_s > 0.0);
    }
}

#[test]
fn derived_metrics_gate_against_a_baseline_round_trip() {
    let dev = DeviceProfile::mi250();
    let profile = || {
        let outcome = run_app("adam", System::Amd, ProgVersion::Omp, WorkScale::Test);
        let metrics = derive_metrics(&dev, &outcome.stats, &outcome.kernel_model);
        vec![CellProfile {
            app: "adam".into(),
            version: "omp".into(),
            system: "amd".into(),
            checksum: outcome.checksum,
            reported_seconds: outcome.reported_seconds,
            excluded: outcome.excluded,
            metrics,
        }]
    };
    let cells = profile();
    let metrics = &cells[0].metrics;
    assert!(metrics.occupancy_pct > 0.0 && metrics.occupancy_pct <= 100.0);
    assert!(metrics.mem_throughput_pct <= 100.0);
    let baseline = json::parse(&to_json(&cells)).expect("baseline round-trips");

    // A rerun of the same deterministic cell still matches the baseline.
    let rerun = json::parse(&to_json(&profile())).expect("report parses");
    assert_eq!(json::diff(&baseline, &rerun), Vec::<String>::new());

    // And a genuinely slower run fails the gate, naming the field.
    let mut slower = cells.clone();
    slower[0].reported_seconds *= 2.0;
    let drifts = json::diff(&baseline, &json::parse(&to_json(&slower)).expect("report parses"));
    assert_eq!(drifts.len(), 1, "{drifts:?}");
    assert!(drifts[0].starts_with("cells[0].reported_seconds: "), "{drifts:?}");
}

#[test]
fn memcpy_spans_carry_bytes_and_modeled_durations() {
    use ompx::host_api::{ompx_free, ompx_malloc, ompx_memcpy_d2h, ompx_memcpy_h2d};
    use ompx_sim::span::SpanCategory;

    let (_, spans) = with_span_log(|| {
        let omp = omp_small();
        let buf = ompx_malloc::<f32>(&omp, 1024);
        ompx_memcpy_h2d(&omp, &buf, &vec![1.0f32; 1024]);
        let mut out = vec![0.0f32; 1024];
        ompx_memcpy_d2h(&omp, &mut out, &buf);
        ompx_free(&omp, &buf);
    });
    let h2d: Vec<_> = spans.iter().filter(|s| s.cat == SpanCategory::MemcpyH2D).collect();
    let d2h: Vec<_> = spans.iter().filter(|s| s.cat == SpanCategory::MemcpyD2H).collect();
    assert_eq!(h2d.len(), 1);
    assert_eq!(d2h.len(), 1);
    assert_eq!(h2d[0].bytes, 4096);
    assert_eq!(d2h[0].bytes, 4096);
    // PCIe-modeled durations: latency + bytes/bandwidth on test_small.
    let dev = DeviceProfile::test_small();
    let expect = dev.transfer_seconds(4096);
    assert!((h2d[0].bytes, h2d[0].dur_s) == (4096, expect), "h2d duration modeled");
    // Host cursor ordering: d2h starts after h2d ends.
    assert!(d2h[0].start_s >= h2d[0].start_s + h2d[0].dur_s);
}

#[test]
fn host_fallback_kernel_bars_carry_the_fallback_span_seconds() {
    use ompx::bare::BareTarget;
    use ompx_sim::fault::{FaultPlan, FaultState};
    use ompx_sim::span::SpanCategory;

    // A lost device sends both OpenMP dispatch paths to the host. The
    // kernel bar must then show the host time the fallback bar shows, not
    // the device estimate of the injection-blind re-dispatch.
    for bare in [true, false] {
        let omp = omp_small();
        let n = 256usize;
        let buf = omp.device().alloc::<f32>(n);
        omp.device().attach_faults(FaultState::new(FaultPlan::none().with_device_loss_at(0)));
        let (r, spans) = with_span_log(|| {
            let buf = buf.clone();
            if bare {
                BareTarget::new(&omp, "lost").num_teams([2u32]).thread_limit([128u32]).launch(
                    move |tc| {
                        let i = tc.global_thread_id_x();
                        tc.write(&buf, i, i as f32);
                    },
                )
            } else {
                omp.target("lost")
                    .num_teams(2)
                    .thread_limit(128)
                    .run_distribute_parallel_for(n, move |tc, i, _s| tc.write(&buf, i, i as f32))
            }
            .expect("host fallback recovers")
        });
        let fallback = spans
            .iter()
            .find(|s| s.cat == SpanCategory::Fallback)
            .expect("a fallback span is recorded");
        let kernel = spans
            .iter()
            .find(|s| s.cat == SpanCategory::Kernel && s.name == "lost")
            .expect("a kernel span is recorded");
        assert_eq!(kernel.dur_s.to_bits(), fallback.dur_s.to_bits(), "bare={bare}");
        assert_eq!(kernel.dur_s.to_bits(), r.modeled.seconds.to_bits(), "bare={bare}");
        assert_eq!(buf.get(n - 1), (n - 1) as f32);
    }
}
