//! Variable globalization: team-visible locals that cannot live in registers.
//!
//! In OpenMP semantics, a variable declared in a `target teams` region may
//! be referenced by all threads of the team (e.g. firstprivate capture into
//! a `parallel` region), so the compiler must *globalize* it: allocate it
//! from a runtime-managed heap in device global memory instead of a
//! register or stack slot (Huber et al., CGO'22 — ref \[9\]). The paper's
//! `ompx_bare` clause disables this ("local variables defined in the scope
//! will not be globalized", §3.1), which is one of the reasons the `ompx`
//! versions beat the `omp` versions.
//!
//! LLVM's *heap-to-shared* optimization can rescue globalized storage into
//! shared memory when it fits; the paper observes exactly this making the
//! `omp` RSBench **faster** than CUDA on the A100 (§4.2.2: 2 KB of shared
//! memory). Both placements are implemented here, and every access goes
//! through the accessing thread's [`ThreadCtx`], so the traffic difference
//! is counted (and seen by memory traces and the sanitizer), not asserted.

use ompx_sim::mem::DBuf;
use ompx_sim::thread::ThreadCtx;

/// Globalized per-thread scratch as seen inside the region body.
pub enum Scratch {
    /// No scratch requested.
    None,
    /// Globalized to the device heap: global-memory traffic.
    Heap { buf: DBuf<f64>, per_thread: usize },
    /// Heap-to-shared fired: shared-memory traffic.
    Shared { slot: usize, per_thread: usize },
}

impl Scratch {
    /// Scratch elements available per thread.
    pub fn per_thread(&self) -> usize {
        match self {
            Scratch::None => 0,
            Scratch::Heap { per_thread, .. } | Scratch::Shared { per_thread, .. } => *per_thread,
        }
    }

    #[inline]
    fn index(&self, tc: &ThreadCtx<'_>, j: usize) -> usize {
        match self {
            Scratch::None => unreachable!(),
            // Heap storage is per *global* thread; shared is per team thread.
            Scratch::Heap { per_thread, .. } => tc.global_rank() * per_thread + j,
            Scratch::Shared { per_thread, .. } => tc.thread_rank() * per_thread + j,
        }
    }

    /// Counted scratch load.
    #[inline]
    pub fn get(&self, tc: &mut ThreadCtx<'_>, j: usize) -> f64 {
        debug_assert!(j < self.per_thread(), "scratch index {j} out of range");
        match self {
            Scratch::None => panic!("scratch access without a ScratchSpec"),
            Scratch::Heap { buf, .. } => {
                let i = self.index(tc, j) % buf.len();
                tc.read(buf, i)
            }
            Scratch::Shared { slot, .. } => {
                let view = tc.shared::<f64>(*slot);
                let i = self.index(tc, j) % view.len();
                tc.sread(&view, i)
            }
        }
    }

    /// Counted scratch store.
    #[inline]
    pub fn set(&self, tc: &mut ThreadCtx<'_>, j: usize, v: f64) {
        debug_assert!(j < self.per_thread(), "scratch index {j} out of range");
        match self {
            Scratch::None => panic!("scratch access without a ScratchSpec"),
            Scratch::Heap { buf, .. } => {
                let i = self.index(tc, j) % buf.len();
                tc.write(buf, i, v)
            }
            Scratch::Shared { slot, .. } => {
                let view = tc.shared::<f64>(*slot);
                let i = self.index(tc, j) % view.len();
                tc.swrite(&view, i, v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::device::{Device, DeviceProfile};
    use ompx_sim::dim::{Dim3, LaunchConfig};
    use ompx_sim::shared::BlockShared;

    fn with_ctx(f: impl FnOnce(&mut ThreadCtx<'_>, usize)) {
        let mut cfg = LaunchConfig::new(1u32, 1u32);
        let slot = cfg.shared_array::<f64>(16);
        let shared = BlockShared::new(&cfg.shared_slots);
        let mut tc = ThreadCtx::detached(Dim3::x(1), Dim3::x(1), (0, 0, 0), (0, 0, 0), 32, &shared);
        f(&mut tc, slot);
    }

    #[test]
    fn heap_placement_counts_global_traffic() {
        with_ctx(|tc, _| {
            let dev = Device::new(DeviceProfile::test_small());
            let s = Scratch::Heap { buf: dev.alloc::<f64>(8), per_thread: 8 };
            assert_eq!(s.per_thread(), 8);
            s.set(tc, 2, 1.5);
            assert_eq!(s.get(tc, 2), 1.5);
            assert_eq!(tc.counters.global_store_bytes, 8);
            assert_eq!(tc.counters.global_load_bytes, 8);
            assert_eq!(tc.counters.shared_accesses, 0);
        });
    }

    #[test]
    fn shared_placement_counts_shared_accesses() {
        with_ctx(|tc, slot| {
            let s = Scratch::Shared { slot, per_thread: 16 };
            s.set(tc, 0, 2.5);
            assert_eq!(s.get(tc, 0), 2.5);
            assert_eq!(tc.counters.shared_accesses, 2);
            assert_eq!(tc.counters.global_load_bytes, 0);
        });
    }
}
