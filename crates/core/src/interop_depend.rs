//! The extended `depend` clause: `depend(interopobj: obj)` (§3.5).
//!
//! OpenMP's `depend` clause resolves dependences by the *location* of the
//! list item, never its semantics, so a stream handle in a `depend` clause
//! would just be another address. The paper introduces a new dependence
//! type, `interopobj`, whose semantics are: *dispatch the associated
//! construct into the stream held by the interop object*. Figure 5:
//!
//! ```c
//! omp_interop_t obj = omp_interop_none;
//! #pragma omp interop init(targetsync: obj)
//! #pragma omp target teams ompx_bare nowait depend(interopobj: obj)
//! { ... }
//! #pragma omp taskwait depend(interopobj: obj)   // stream synchronize
//! ```
//!
//! Rendered here: [`launch_nowait_interopobj`] enqueues a prepared bare
//! region into the object's stream, and [`taskwait_interopobj`] is the
//! stream synchronization.

use ompx_hostrt::target::PreparedTarget;
use ompx_hostrt::InteropObj;
use ompx_sim::span::{self, SpanCategory};
use ompx_sim::stream::Event;

/// `#pragma omp target teams ompx_bare nowait depend(interopobj: obj)`:
/// dispatch the kernel into the stream associated with `obj`. Returns an
/// event completing when the kernel has executed (useful for tests; the
/// paper's idiom is [`taskwait_interopobj`]).
///
/// When a profiler span log is installed, the submission is recorded on
/// the host track with a flow arrow to the kernel's span on the stream's
/// track — the `nowait` dependence made visible.
pub fn launch_nowait_interopobj(prepared: &PreparedTarget, obj: &InteropObj) -> Event {
    let p = prepared.clone();
    let stream = obj.stream().clone();
    let flow = span::active().map(|log| {
        log.host_op_flow(
            &format!("nowait depend(interopobj) {}", prepared.kernel_name()),
            SpanCategory::Task,
            0.0,
            0,
        )
    });
    obj.enqueue(move || {
        if let Ok(r) = p.execute_quiet() {
            stream.add_modeled_span(
                p.kernel_name(),
                SpanCategory::Kernel,
                r.modeled.seconds,
                0,
                flow,
            );
        }
    });
    obj.record_event()
}

/// `#pragma omp taskwait depend(interopobj: obj)` — synchronize with the
/// object's stream.
pub fn taskwait_interopobj(obj: &InteropObj) {
    obj.synchronize();
    if let Some(log) = span::active() {
        log.host_op("taskwait depend(interopobj)", SpanCategory::Sync, 0.0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bare::BareTarget;
    use ompx_hostrt::{KnownIssues, OpenMp};
    use ompx_klang::toolchain::Toolchain;
    use ompx_sim::device::{Device, DeviceProfile};

    fn omp() -> OpenMp {
        OpenMp::with_device(
            Device::new(DeviceProfile::test_small()),
            Toolchain::OmpxPrototype,
            KnownIssues::new(),
        )
    }

    #[test]
    fn figure5_idiom_end_to_end() {
        let omp = omp();
        let obj = InteropObj::init_targetsync(&omp);
        let n = 128usize;
        let buf = omp.device().alloc::<f32>(n);

        // Two kernels into the same stream: the second reads what the
        // first wrote — stream ordering is the only thing sequencing them.
        let k1 = BareTarget::new(&omp, "stage1").num_teams([2u32]).thread_limit([64u32]).prepare({
            let buf = buf.clone();
            move |tc| {
                let i = tc.global_thread_id_x();
                if i < n {
                    tc.write(&buf, i, i as f32);
                }
            }
        });
        let k2 = BareTarget::new(&omp, "stage2").num_teams([2u32]).thread_limit([64u32]).prepare({
            let buf = buf.clone();
            move |tc| {
                let i = tc.global_thread_id_x();
                if i < n {
                    let v = tc.read(&buf, i);
                    tc.write(&buf, i, v * 2.0);
                }
            }
        });

        launch_nowait_interopobj(&k1, &obj);
        launch_nowait_interopobj(&k2, &obj);
        taskwait_interopobj(&obj);

        let got = buf.to_vec();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
        // The stream accumulated both kernels' modeled time.
        assert!(obj.modeled_busy_seconds() > 0.0);
    }

    #[test]
    fn two_interop_objects_are_independent_streams() {
        let omp = omp();
        let a = InteropObj::init_targetsync(&omp);
        let b = InteropObj::init_targetsync(&omp);
        let buf = omp.device().alloc::<u32>(2);

        let ka = BareTarget::new(&omp, "ka").num_teams([1u32]).thread_limit([1u32]).prepare({
            let buf = buf.clone();
            move |tc| {
                tc.atomic_add(&buf, 0, 1);
            }
        });
        let kb = BareTarget::new(&omp, "kb").num_teams([1u32]).thread_limit([1u32]).prepare({
            let buf = buf.clone();
            move |tc| {
                tc.atomic_add(&buf, 1, 1);
            }
        });
        for _ in 0..10 {
            launch_nowait_interopobj(&ka, &a);
            launch_nowait_interopobj(&kb, &b);
        }
        // Waiting on `a` says nothing about `b` — but after both waits all
        // twenty kernels have run.
        taskwait_interopobj(&a);
        taskwait_interopobj(&b);
        assert_eq!(buf.to_vec(), vec![10, 10]);
    }
}
