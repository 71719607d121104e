//! Integration tests for the release tooling around the reproduction:
//! kernel bars in the profiler's span log, the occupancy API, timed events, and
//! the race detector — all through the public crate surfaces.

use ompx_hecbench::with_span_log;
use ompx_klang::cuda::cuda_context_clang;
use ompx_sim::prelude::*;

#[test]
fn tracing_and_profiling_work_together() {
    let ctx = cuda_context_clang();
    let a = ctx.malloc_from(&vec![1.0f32; 1024]);
    let b = ctx.malloc::<f32>(1024);
    let kernel = Kernel::new("traced_saxpy", {
        let (a, b) = (a.clone(), b.clone());
        move |tc: &mut ThreadCtx<'_>| {
            let i = tc.global_thread_id_x();
            if i < 1024 {
                let v = tc.read(&a, i);
                tc.flops(2);
                tc.write(&b, i, 2.0 * v + 1.0);
            }
        }
    });
    let (results, spans) = with_span_log(|| {
        (0..3).map(|_| ctx.launch(&kernel, 8u32, 128u32).unwrap()).collect::<Vec<_>>()
    });

    // The launch pipeline drew one host kernel bar per launch, each as
    // wide as the modeled time the launch returned.
    let bars: Vec<_> = spans
        .iter()
        .filter(|s| s.track == Track::Host && s.cat == SpanCategory::Kernel)
        .filter(|s| s.name == "traced_saxpy")
        .collect();
    assert_eq!(bars.len(), 3);
    for (bar, r) in bars.iter().zip(&results) {
        assert_eq!(r.stats.flops, 2048);
        assert!(r.modeled.seconds > 0.0, "klang must model the launch");
        assert_eq!(bar.dur_s.to_bits(), r.modeled.seconds.to_bits());
    }
}

#[test]
fn timed_events_measure_async_pipelines() {
    let ctx = cuda_context_clang();
    let stream = ctx.stream_create();
    let n = 4096usize;
    let buf = ctx.malloc::<f32>(n);

    let start = stream.record_event();
    // H2D copy then two kernels, all async on one stream.
    ctx.memcpy_h2d_async(&buf, &vec![1.0f32; n], &stream);
    for pass in 0..2 {
        let kernel = Kernel::new(format!("pipe{pass}"), {
            let buf = buf.clone();
            move |tc: &mut ThreadCtx<'_>| {
                let i = tc.global_thread_id_x();
                if i < n {
                    let v = tc.read(&buf, i);
                    tc.flops(1);
                    tc.write(&buf, i, v * 2.0);
                }
            }
        });
        ctx.launch_async(&kernel, LaunchConfig::linear(n, 128), &stream);
    }
    let end = stream.record_event();
    end.wait();

    assert!(buf.to_vec().iter().all(|&v| v == 4.0));
    let elapsed = end.modeled_elapsed_since(&start);
    assert!(elapsed > 0.0, "the events must bracket modeled device work");
    // The elapsed time covers the transfer plus both kernels.
    let transfer = ctx.device().profile().transfer_seconds(n * 4);
    assert!(elapsed >= transfer, "elapsed {elapsed} < transfer {transfer}");
}

#[test]
fn occupancy_api_and_race_detector_compose() {
    use ompx_klang::toolchain::Toolchain;
    let ctx = cuda_context_clang();
    ctx.codegen().set(
        "tiled",
        Toolchain::Clang,
        CodegenInfo { regs_per_thread: 64, ..CodegenInfo::default() },
    );
    let blocks = ctx.occupancy_max_active_blocks("tiled", 256, 4 * 1024);
    assert!((1..=32).contains(&blocks));

    // A correctly synchronized tiled kernel runs clean on the A100
    // profile (warp 32, full team path).
    let tpb = 64usize;
    let mut cfg = LaunchConfig::new(4u32, tpb as u32);
    let slot = cfg.shared_array::<f32>(tpb);
    let out = ctx.malloc::<f32>(4 * tpb);
    let kernel =
        Kernel::with_flags("tiled", KernelFlags { uses_block_sync: true, uses_warp_ops: false }, {
            let out = out.clone();
            move |tc: &mut ThreadCtx<'_>| {
                let tile = tc.shared::<f32>(slot);
                let t = tc.thread_rank();
                tc.swrite(&tile, t, t as f32);
                tc.sync_threads();
                let v = tc.sread(&tile, (t + tpb / 2) % tpb);
                tc.write(&out, tc.global_rank(), v);
            }
        });
    ctx.launch_cfg(&kernel, cfg).unwrap();
    assert_eq!(out.get(0), (tpb / 2) as f32);
}
