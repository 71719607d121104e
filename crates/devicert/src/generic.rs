//! Generic-mode execution: master thread + worker state machine.
//!
//! A generic-mode `target teams` region alternates sequential sections
//! (master only) with `parallel` regions (all threads). On hardware, LLVM's
//! device runtime keeps the team's worker threads parked in a state machine;
//! the master broadcasts a work descriptor, two team-wide barriers bracket
//! the region, and the workers return to the state machine afterwards.
//!
//! ## How this is simulated
//!
//! The functional result of a generic-mode region does not depend on which
//! lane performed which iteration, and the timing model works on counters
//! aggregated over the whole launch. We exploit both facts: a generic-mode
//! kernel is *simulated* with a single master thread per team that executes
//! everything in order (deterministic, no intra-block threading needed),
//! while the state-machine costs the hardware would pay are charged to the
//! same counters every other kernel uses:
//!
//! * each `parallel` region charges two barrier participations per team
//!   thread (fork + join) plus descriptor-handling ALU work;
//! * the master's dispatch of each region is recorded as `serial_ops`,
//!   which the timing model runs at single-thread speed per resident master;
//! * the launch geometry reported to the timing model is the *modeled*
//!   geometry (`team_size` threads per team), not the simulated one.
//!
//! The result: `omp`-version kernels produce bit-identical answers to their
//! `cuda`/`ompx` counterparts, and their extra modeled time comes from
//! counted events plus the per-mode overheads in [`crate::mode`].

use ompx_sim::dim::{Dim3, LaunchConfig};
use ompx_sim::exec::Kernel;
use ompx_sim::thread::ThreadCtx;

/// ALU operations charged per thread per parallel region for work-descriptor
/// handling (fetch, decode, loop-bound setup). From the state-machine
/// structure in Doerfert et al. (IPDPS'22).
const DESCRIPTOR_OPS_PER_THREAD: u64 = 24;

/// Serialized cycles the master spends launching one parallel region
/// (signalling workers, publishing the descriptor).
const REGION_DISPATCH_SERIAL_OPS: u64 = 120;

/// The master thread's view of a generic-mode team.
pub struct TeamCtx<'a, 'b> {
    tc: &'b mut ThreadCtx<'a>,
    team_size: usize,
}

impl<'a, 'b> TeamCtx<'a, 'b> {
    /// `omp_get_team_num()`.
    pub fn team_num(&self) -> usize {
        self.tc.block_rank()
    }

    /// Raw access to the master's thread context.
    pub fn thread(&mut self) -> &mut ThreadCtx<'a> {
        self.tc
    }

    /// Execute an OpenMP `parallel for` over `0..n` with static scheduling.
    ///
    /// Functionally every iteration runs (on the simulated master, in
    /// order); the state-machine fork/join costs of a real `team_size`-wide
    /// region are charged.
    pub fn parallel_for(&mut self, n: usize, mut body: impl FnMut(&mut ThreadCtx<'a>, usize)) {
        self.charge_region();
        for i in 0..n {
            body(self.tc, i);
        }
    }

    /// Execute a `parallel for` with a scalar reduction. The combiner must
    /// be associative and commutative (OpenMP reduction semantics).
    pub fn parallel_for_reduce<T: Copy>(
        &mut self,
        n: usize,
        init: T,
        mut body: impl FnMut(&mut ThreadCtx<'a>, usize) -> T,
        mut combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.charge_region();
        // The tree-combine of a real reduction costs log2(team) steps/thread.
        let tree_steps = (self.team_size as f64).log2().ceil() as u64;
        self.tc.counters.int_ops += tree_steps * self.team_size as u64;
        let mut acc = init;
        for i in 0..n {
            let v = body(self.tc, i);
            acc = combine(acc, v);
        }
        acc
    }

    fn charge_region(&mut self) {
        let ts = self.team_size as u64;
        // Fork + join barriers: every team thread participates in both.
        self.tc.counters.barriers += 2 * ts;
        // Work-descriptor handling per thread.
        self.tc.counters.int_ops += DESCRIPTOR_OPS_PER_THREAD * ts;
        // Master-side dispatch is serialized.
        self.tc.counters.serial_ops += REGION_DISPATCH_SERIAL_OPS;
    }
}

/// Build a generic-mode kernel from a region body. `team_size` is the
/// modeled thread count of each team (`thread_limit`); it must be positive.
///
/// The returned kernel must be launched with [`generic_launch_config`] (one
/// simulated thread per team); report `team_size` threads per team to the
/// timing model.
pub fn generic_kernel(
    name: impl Into<String>,
    team_size: u32,
    region: impl Fn(&mut TeamCtx<'_, '_>) + Send + Sync + 'static,
) -> Kernel {
    assert!(team_size > 0, "team size must be positive");
    Kernel::new(name, move |tc: &mut ThreadCtx<'_>| {
        region(&mut TeamCtx { tc, team_size: team_size as usize });
    })
}

/// The launch configuration for a generic-mode kernel: one simulated master
/// per team. Heap-to-shared scratch is declared on it by the caller.
pub fn generic_launch_config(num_teams: usize) -> LaunchConfig {
    LaunchConfig::new(Dim3::x(num_teams.max(1) as u32), Dim3::x(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::device::{Device, DeviceProfile};

    fn dev() -> Device {
        Device::new(DeviceProfile::test_small())
    }

    #[test]
    fn parallel_for_executes_all_iterations() {
        let d = dev();
        let out = d.alloc::<u32>(64);
        let k = generic_kernel("gk", 32, {
            let out = out.clone();
            move |team| {
                let base = team.team_num() * 16;
                team.parallel_for(16, |tc, i| {
                    tc.write(&out, base + i, (base + i) as u32);
                });
            }
        });
        d.launch(&k, generic_launch_config(4)).unwrap();
        let got = out.to_vec();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn regions_charge_state_machine_costs() {
        let d = dev();
        let k = generic_kernel("costs", 64, move |team| {
            team.parallel_for(1, |_tc, _i| {});
            team.parallel_for(1, |_tc, _i| {});
        });
        let stats = d.launch(&k, generic_launch_config(2)).unwrap();
        // 2 teams x 2 regions x 2 barriers x 64 threads.
        assert_eq!(stats.barriers, 2 * 2 * 2 * 64);
        assert_eq!(stats.int_ops, 2 * 2 * DESCRIPTOR_OPS_PER_THREAD * 64);
        assert_eq!(stats.serial_ops, 2 * 2 * REGION_DISPATCH_SERIAL_OPS);
    }

    #[test]
    fn parallel_reduce_matches_sequential() {
        let d = dev();
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let buf = d.alloc_from(&data);
        let result = d.alloc::<f64>(1);
        let k = generic_kernel("reduce", 16, {
            let (buf, result) = (buf.clone(), result.clone());
            move |team| {
                let s =
                    team.parallel_for_reduce(100, 0.0f64, |tc, i| tc.read(&buf, i), |a, b| a + b);
                let tc = team.thread();
                tc.write(&result, 0, s);
            }
        });
        d.launch(&k, generic_launch_config(1)).unwrap();
        assert_eq!(result.get(0), (0..100).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    #[should_panic(expected = "team size must be positive")]
    fn zero_team_size_rejected() {
        let _ = generic_kernel("empty", 0, |_team| {});
    }
}
