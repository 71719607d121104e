//! SPMD-mode execution: uniformly parallel target regions.
//!
//! When a region is `target teams distribute parallel for` (or provably
//! equivalent), LLVM compiles it in SPMD mode: every thread of every team
//! is active from the start and executes the distributed loop directly.
//! Most of the device runtime disappears; what remains is a thin kernel
//! environment setup (charged through [`crate::mode::ExecMode::Spmd`]'s
//! overheads) and the workshare bookkeeping of the distributed loop.
//!
//! Unlike generic mode, SPMD kernels are simulated with their real thread
//! geometry — each simulated thread executes its own chunk, exactly like
//! the CUDA/`ompx` versions, so per-thread effects (latency-hiding
//! parallelism, the Adam 32-thread quirk) are captured functionally.

use ompx_sim::exec::Kernel;
use ompx_sim::thread::ThreadCtx;

/// ALU cost per thread of computing its workshare bounds for one
/// distributed loop.
const WORKSHARE_SETUP_OPS: u64 = 12;

/// One SPMD thread's view of the combined `teams distribute parallel for`.
pub struct SpmdCtx<'a, 'b> {
    tc: &'b mut ThreadCtx<'a>,
}

impl<'a, 'b> SpmdCtx<'a, 'b> {
    /// `omp_get_team_num()`.
    pub fn team_num(&self) -> usize {
        self.tc.block_rank()
    }

    /// Raw thread context (memory access, annotations).
    pub fn thread(&mut self) -> &mut ThreadCtx<'a> {
        self.tc
    }

    /// `distribute parallel for` over `0..n`: this thread executes its
    /// grid-strided share of the iterations (LLVM's static-chunked
    /// schedule for combined constructs).
    pub fn distribute_parallel_for(
        &mut self,
        n: usize,
        mut body: impl FnMut(&mut ThreadCtx<'a>, usize),
    ) {
        self.tc.counters.int_ops += WORKSHARE_SETUP_OPS;
        let stride = self.tc.global_size();
        let mut i = self.tc.global_rank();
        while i < n {
            body(self.tc, i);
            i += stride;
        }
    }

    /// `distribute parallel for` with a scalar reduction: returns this
    /// thread's partial; the runtime's cross-team combination is modeled as
    /// one global atomic per thread (what LLVM emits for team reductions on
    /// GPUs when the tree fallback is not used).
    pub fn distribute_parallel_for_reduce<T: Copy>(
        &mut self,
        n: usize,
        init: T,
        mut body: impl FnMut(&mut ThreadCtx<'a>, usize) -> T,
        mut combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.tc.counters.int_ops += WORKSHARE_SETUP_OPS;
        let stride = self.tc.global_size();
        let mut i = self.tc.global_rank();
        let mut acc = init;
        while i < n {
            let v = body(self.tc, i);
            acc = combine(acc, v);
            i += stride;
        }
        acc
    }
}

/// Build an SPMD-mode kernel from a region body. Launch it with the real
/// geometry (`LaunchConfig::new(num_teams, team_size)`).
pub fn spmd_kernel(
    name: impl Into<String>,
    region: impl Fn(&mut SpmdCtx<'_, '_>) + Send + Sync + 'static,
) -> Kernel {
    Kernel::new(name, move |tc: &mut ThreadCtx<'_>| region(&mut SpmdCtx { tc }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::device::{Device, DeviceProfile};
    use ompx_sim::dim::LaunchConfig;

    fn dev() -> Device {
        Device::new(DeviceProfile::test_small())
    }

    #[test]
    fn distribute_covers_every_iteration_once() {
        let d = dev();
        let n = 1000;
        let hits = d.alloc::<u32>(n);
        let k = spmd_kernel("cover", {
            let hits = hits.clone();
            move |ctx| {
                ctx.distribute_parallel_for(n, |tc, i| {
                    tc.atomic_add(&hits, i, 1);
                });
            }
        });
        d.launch(&k, LaunchConfig::new(4u32, 64u32)).unwrap();
        assert!(hits.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn results_identical_across_geometries() {
        // The same SPMD region must compute the same answer no matter how
        // many teams/threads execute it (OpenMP's promise).
        let d = dev();
        let n = 500;
        let run = |teams: u32, threads: u32| {
            let out = d.alloc::<f32>(n);
            let k = spmd_kernel("geom", {
                let out = out.clone();
                move |ctx| {
                    ctx.distribute_parallel_for(n, |tc, i| {
                        tc.flops(2);
                        tc.write(&out, i, (i as f32) * 2.0 + 1.0);
                    });
                }
            });
            d.launch(&k, LaunchConfig::new(teams, threads)).unwrap();
            out.to_vec()
        };
        let a = run(1, 32);
        let b = run(8, 128);
        let c = run(3, 7);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn reduction_sums_partials() {
        let d = dev();
        let n = 256;
        let data = d.alloc_from(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let acc = d.alloc::<f64>(1);
        let k = spmd_kernel("reduce", {
            let (data, acc) = (data.clone(), acc.clone());
            move |ctx| {
                let partial = ctx.distribute_parallel_for_reduce(
                    n,
                    0.0f64,
                    |tc, i| tc.read(&data, i),
                    |a, b| a + b,
                );
                let tc = ctx.thread();
                tc.atomic_add(&acc, 0, partial);
            }
        });
        d.launch(&k, LaunchConfig::new(2u32, 32u32)).unwrap();
        assert_eq!(acc.get(0), (0..n).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn workshare_setup_is_charged() {
        let d = dev();
        let k = spmd_kernel("setup", move |ctx| {
            ctx.distribute_parallel_for(1, |_tc, _i| {});
        });
        let stats = d.launch(&k, LaunchConfig::new(2u32, 16u32)).unwrap();
        assert_eq!(stats.int_ops, 32 * WORKSHARE_SETUP_OPS);
    }
}
