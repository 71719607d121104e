//! The `ompx_bare` clause (§3.1) with multi-dimensional geometry (§3.2).
//!
//! `#pragma omp target teams ompx_bare num_teams(gx, gy, gz)
//! thread_limit(bx, by, bz)` launches the region in "bare metal" mode:
//!
//! * the front end generates **no device-runtime initialization** — the
//!   region starts with every thread of every team active, exactly like a
//!   CUDA `__global__` kernel;
//! * region-local variables are **not globalized** (plain Rust locals in
//!   the body closure — registers/stack, uncounted);
//! * team-shared variables come from `groupprivate(team:)`, surfaced here
//!   as [`BareTarget::shared_array`] slots;
//! * `num_teams`/`thread_limit` accept dimension lists; dimensions beyond
//!   the device's capability (three) are disregarded, per the paper.
//!
//! A bare region is still an OpenMP `target teams` region: it prepares to
//! an ordinary [`PreparedTarget`] and shares the host runtime's launch and
//! recovery path. Only the plan differs — launch cost is
//! [`ExecMode::Bare`](ompx_devicert::mode::ExecMode::Bare), just the
//! device's base latency, the whole point of the extension.

use ompx_hostrt::target::{PreparedTarget, TargetResult};
use ompx_hostrt::OpenMp;
use ompx_sim::dim::{Dim3, LaunchConfig};
use ompx_sim::error::SimResult;
use ompx_sim::exec::{Kernel, KernelFlags, Step};
use ompx_sim::mem::DeviceScalar;
use ompx_sim::thread::ThreadCtx;

/// Number of geometry dimensions a device supports; list entries beyond
/// this are disregarded (§3.2).
pub const DEVICE_MAX_DIMS: usize = 3;

fn dims_from_list(list: &[u32]) -> Dim3 {
    // "While we do not impose a dimensionality constraint at the OpenMP
    // level, any dimensions exceeding a device's capability will be
    // disregarded." — entries past DEVICE_MAX_DIMS are dropped; absent or
    // zero entries default to 1 (dim3 constructor semantics).
    let mut d = [1u32; DEVICE_MAX_DIMS];
    for (slot, &v) in d.iter_mut().zip(list.iter()) {
        *slot = v.max(1);
    }
    Dim3::new(d[0], d[1], d[2])
}

/// Builder for a bare target region.
pub struct BareTarget {
    omp: OpenMp,
    name: String,
    num_teams: Dim3,
    thread_limit: Dim3,
    cfg_shared: LaunchConfig,
    flags: KernelFlags,
}

impl BareTarget {
    /// Start building `#pragma omp target teams ompx_bare` for kernel
    /// `name` on runtime `omp`.
    pub fn new(omp: &OpenMp, name: &str) -> Self {
        BareTarget {
            omp: omp.clone(),
            name: name.to_string(),
            num_teams: Dim3::x(1),
            thread_limit: Dim3::x(128),
            cfg_shared: LaunchConfig::new(1u32, 1u32),
            flags: KernelFlags::default(),
        }
    }

    /// `num_teams(list…)` — grid size, multi-dimensional (§3.2). Extra
    /// dimensions beyond the device capability are disregarded.
    pub fn num_teams(mut self, list: impl AsRef<[u32]>) -> Self {
        self.num_teams = dims_from_list(list.as_ref());
        self
    }

    /// `thread_limit(list…)` — block size, multi-dimensional (§3.2).
    pub fn thread_limit(mut self, list: impl AsRef<[u32]>) -> Self {
        self.thread_limit = dims_from_list(list.as_ref());
        self
    }

    /// `#pragma omp groupprivate(team: var)` — declare a team-shared array
    /// of `len` elements of `T`; returns the slot id for
    /// [`ThreadCtx::shared`].
    pub fn shared_array<T: DeviceScalar>(&mut self, len: usize) -> usize {
        self.cfg_shared.shared_array::<T>(len)
    }

    /// Declare that the kernel uses block-wide barriers
    /// (`ompx_sync_thread_block`).
    pub fn uses_block_sync(mut self) -> Self {
        self.flags.uses_block_sync = true;
        self
    }

    /// Declare that the kernel uses warp-level primitives
    /// (`ompx_sync_warp`, `ompx_shfl_sync`, …).
    pub fn uses_warp_ops(mut self) -> Self {
        self.flags.uses_warp_ops = true;
        self
    }

    /// The launch geometry after dimension handling.
    pub fn geometry(&self) -> (Dim3, Dim3) {
        (self.num_teams, self.thread_limit)
    }

    fn launch_config(&self) -> LaunchConfig {
        let mut cfg = LaunchConfig::new(self.num_teams, self.thread_limit);
        cfg.shared_slots = self.cfg_shared.shared_slots.clone();
        cfg.dynamic_shared_bytes = self.cfg_shared.dynamic_shared_bytes;
        cfg
    }

    /// Build the bare region without running it (stream/nowait paths): a
    /// [`PreparedTarget`] with the bare plan.
    pub fn prepare(
        self,
        body: impl Fn(&mut ThreadCtx<'_>) + Send + Sync + 'static,
    ) -> PreparedTarget {
        let kernel = Kernel::with_flags(self.name.clone(), self.flags, body);
        self.prepared(kernel)
    }

    /// Build a block-synchronizing bare kernel in phased form (see
    /// [`Kernel::phased`]): `body(tc, phase, state)` runs one
    /// barrier-delimited segment and returns [`Step::Barrier`] where the
    /// region calls `ompx_sync_thread_block`. The phased form implies
    /// [`BareTarget::uses_block_sync`].
    pub fn prepare_phased<S, F>(self, body: F) -> PreparedTarget
    where
        S: Default + 'static,
        F: Fn(&mut ThreadCtx<'_>, usize, &mut S) -> Step + Send + Sync + 'static,
    {
        let kernel = Kernel::phased(self.name.clone(), body);
        self.prepared(kernel)
    }

    fn prepared(self, kernel: Kernel) -> PreparedTarget {
        let cfg = self.launch_config();
        PreparedTarget::bare(self.omp, kernel, cfg)
    }

    /// Launch a phased body synchronously (see [`BareTarget::prepare_phased`]).
    pub fn launch_phased<S, F>(self, body: F) -> SimResult<TargetResult>
    where
        S: Default + 'static,
        F: Fn(&mut ThreadCtx<'_>, usize, &mut S) -> Step + Send + Sync + 'static,
    {
        self.prepare_phased(body).execute()
    }

    /// Launch synchronously (the `target` construct's default semantics:
    /// "OpenMP ensures that the program progresses only after all
    /// operations associated with the target region are complete").
    pub fn launch(
        self,
        body: impl Fn(&mut ThreadCtx<'_>) + Send + Sync + 'static,
    ) -> SimResult<TargetResult> {
        self.prepare(body).execute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_devicert::mode::ExecMode;
    use ompx_klang::toolchain::Toolchain;
    use ompx_sim::device::{Device, DeviceProfile};

    fn omp() -> OpenMp {
        OpenMp::with_device(
            Device::new(DeviceProfile::test_small()),
            Toolchain::OmpxPrototype,
            ompx_hostrt::KnownIssues::new(),
        )
    }

    #[test]
    fn bare_launch_is_simt() {
        let omp = omp();
        let n = 200usize;
        let out = omp.device().alloc::<u32>(256);
        let r = BareTarget::new(&omp, "simt")
            .num_teams([2u32])
            .thread_limit([128u32])
            .launch({
                let out = out.clone();
                move |tc| {
                    // All threads in all teams are active — Figure 4.
                    let i = tc.global_thread_id_x();
                    if i < n {
                        tc.write(&out, i, i as u32);
                    }
                }
            })
            .unwrap();
        assert_eq!(r.plan.mode, ExecMode::Bare);
        assert_eq!(r.stats.threads_executed, 256);
        assert_eq!(out.to_vec()[199], 199);
        // Bare launches carry no mode overheads.
        assert_eq!(r.modeled.t_mode, 0.0);
    }

    #[test]
    fn multidim_geometry_and_disregarded_dimensions() {
        let omp = omp();
        let t = BareTarget::new(&omp, "dims")
            .num_teams([4u32, 2, 1, 99, 7]) // 4th/5th dims disregarded
            .thread_limit([8u32, 4]);
        let (grid, block) = t.geometry();
        assert_eq!(grid, Dim3::new(4, 2, 1));
        assert_eq!(block, Dim3::new(8, 4, 1));

        let seen = omp.device().alloc::<u32>(grid.count() * block.count());
        t.launch({
            let seen = seen.clone();
            move |tc| {
                tc.atomic_add(&seen, tc.global_rank(), 1);
            }
        })
        .unwrap();
        assert!(seen.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn groupprivate_shared_arrays_work() {
        let omp = omp();
        let tpb = 16usize;
        let out = omp.device().alloc::<u32>(2 * tpb);
        let mut t = BareTarget::new(&omp, "gp")
            .num_teams([2u32])
            .thread_limit([tpb as u32])
            .uses_block_sync();
        let slot = t.shared_array::<u32>(tpb);
        t.launch({
            let out = out.clone();
            move |tc| {
                let tile = tc.shared::<u32>(slot);
                let tid = tc.thread_rank();
                tc.swrite(&tile, tid, (tc.block_rank() * 100 + tid) as u32);
                tc.sync_threads();
                let v = tc.sread(&tile, (tid + 1) % tpb);
                tc.write(&out, tc.global_rank(), v);
            }
        })
        .unwrap();
        let got = out.to_vec();
        assert_eq!(got[0], 1);
        assert_eq!(got[tpb - 1], 0);
        assert_eq!(got[tpb], 101);
    }

    #[test]
    fn bare_beats_spmd_beats_generic_for_the_same_work() {
        // The paper's core performance claim, as a mechanical consequence
        // of the mode overheads: same loop, three modes, ordered times.
        let omp = omp();
        let n = 4096usize;
        let src = omp.device().alloc_from(&vec![1.0f32; n]);
        let dst = omp.device().alloc::<f32>(n);

        let bare = BareTarget::new(&omp, "triplet")
            .num_teams([(n / 64) as u32])
            .thread_limit([64u32])
            .launch({
                let (src, dst) = (src.clone(), dst.clone());
                move |tc| {
                    let i = tc.global_thread_id_x();
                    if i < n {
                        let v = tc.read(&src, i);
                        tc.flops(1);
                        tc.write(&dst, i, v + 1.0);
                    }
                }
            })
            .unwrap();

        let spmd = omp
            .target("triplet")
            .num_teams((n / 64) as u32)
            .thread_limit(64)
            .run_distribute_parallel_for(n, {
                let (src, dst) = (src.clone(), dst.clone());
                move |tc, i, _s| {
                    let v = tc.read(&src, i);
                    tc.flops(1);
                    tc.write(&dst, i, v + 1.0);
                }
            })
            .unwrap();

        omp.quirks().set(
            "triplet_gen",
            ompx_hostrt::QuirkSet { force_generic: true, ..Default::default() },
        );
        let generic = omp
            .target("triplet_gen")
            .num_teams((n / 64) as u32)
            .thread_limit(64)
            .run_distribute_parallel_for(n, {
                let (src, dst) = (src.clone(), dst.clone());
                move |tc, i, _s| {
                    let v = tc.read(&src, i);
                    tc.flops(1);
                    tc.write(&dst, i, v + 1.0);
                }
            })
            .unwrap();

        assert!(bare.modeled.seconds < spmd.modeled.seconds);
        assert!(spmd.modeled.seconds < generic.modeled.seconds);
        assert_eq!(dst.to_vec(), vec![2.0f32; n]);
    }

    #[test]
    fn racecheck_catches_missing_groupprivate_barrier() {
        use ompx_sim::san::{DiagKind, SanState, ToolMask};
        let omp = omp();
        let san = SanState::new(ToolMask::RACECHECK);
        omp.device().attach_sanitizer(std::sync::Arc::clone(&san));
        let tpb = 8usize;
        let mut t = BareTarget::new(&omp, "racy")
            .num_teams([1u32])
            .thread_limit([tpb as u32])
            .uses_block_sync();
        let slot = t.shared_array::<u32>(tpb);
        t.launch(move |tc| {
            let tile = tc.shared::<u32>(slot);
            let t = tc.thread_rank();
            tc.swrite(&tile, t, t as u32);
            // Missing ompx_sync_thread_block() here!
            let _ = tc.sread(&tile, (t + 1) % tpb);
        })
        .unwrap();
        omp.device().detach_sanitizer();
        let diags = san.drain_diagnostics();
        assert!(diags.iter().any(|d| d.kind == DiagKind::SharedRace), "{diags:?}");
    }

    #[test]
    fn prepared_bare_is_reusable() {
        let omp = omp();
        let acc = omp.device().alloc::<u32>(1);
        let p = BareTarget::new(&omp, "reuse").num_teams([2u32]).thread_limit([8u32]).prepare({
            let acc = acc.clone();
            move |tc| {
                tc.atomic_add(&acc, 0, tc.global_rank() as u32 + 1);
            }
        });
        let per_launch: u32 = (1..=16).sum();
        p.execute().unwrap();
        p.execute().unwrap();
        assert_eq!(acc.get(0), 2 * per_launch);
    }
}
