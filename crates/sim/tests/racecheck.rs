//! Tests for the shared-memory race detector (the
//! `compute-sanitizer --tool racecheck` analogue).
//!
//! The detector targets exactly the bug class the paper's porting story
//! risks: hand-written SIMT tiling where a `__syncthreads()` went missing
//! between staging a tile and reading a neighbour's element. Racecheck is
//! session-scoped: attach a `SanState` with `ToolMask::RACECHECK` to the
//! device and read the structured diagnostics back afterwards.

use ompx_sim::memtrace::{MemAccessKind, MemEvent, MemSpace, MemTrace};
use ompx_sim::prelude::*;
use ompx_sim::san::{DiagKind, Diagnostic, SanState, ToolMask};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn dev() -> Device {
    Device::new(DeviceProfile::test_small())
}

/// Run `f` on `d` with a racecheck session attached, returning what the
/// session recorded.
fn with_racecheck_session(d: &Device, f: impl FnOnce()) -> Vec<Diagnostic> {
    let san = SanState::new(ToolMask::RACECHECK);
    d.attach_sanitizer(Arc::clone(&san));
    f();
    d.detach_sanitizer();
    san.drain_diagnostics()
}

fn has_shared_race(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.kind == DiagKind::SharedRace)
}

fn tile_kernel(slot: usize, tpb: usize, with_barrier: bool) -> Kernel {
    Kernel::with_flags(
        if with_barrier { "tile_ok" } else { "tile_racy" },
        KernelFlags { uses_block_sync: true, uses_warp_ops: false },
        move |tc: &mut ThreadCtx<'_>| {
            let tile = tc.shared::<u32>(slot);
            let t = tc.thread_rank();
            tc.swrite(&tile, t, t as u32);
            if with_barrier {
                tc.sync_threads();
            }
            // Reading the neighbour's element: safe only after the barrier.
            let _ = tc.sread(&tile, (t + 1) % tpb);
        },
    )
}

#[test]
fn correct_tiling_passes_racecheck() {
    let d = dev();
    let tpb = 16;
    let mut cfg = LaunchConfig::new(4u32, tpb as u32);
    let slot = cfg.shared_array::<u32>(tpb);
    let diags = with_racecheck_session(&d, || {
        d.launch(&tile_kernel(slot, tpb, true), cfg).unwrap();
    });
    assert!(!has_shared_race(&diags), "{diags:?}");
}

#[test]
fn missing_barrier_is_caught() {
    let d = dev();
    let tpb = 16;
    let mut cfg = LaunchConfig::new(1u32, tpb as u32);
    let slot = cfg.shared_array::<u32>(tpb);
    // No barrier between the write and the neighbour read: a classic
    // shared-memory race. The detector must record it (and the launch
    // still completes — hardware tools observe, they don't abort).
    let diags = with_racecheck_session(&d, || {
        d.launch(&tile_kernel(slot, tpb, false), cfg).unwrap();
    });
    assert!(has_shared_race(&diags), "{diags:?}");
    let d0 = diags.iter().find(|d| d.kind == DiagKind::SharedRace).unwrap();
    assert_eq!(d0.kernel, "tile_racy");
}

#[test]
fn write_write_conflict_is_caught() {
    let d = dev();
    let mut cfg = LaunchConfig::new(1u32, 8u32);
    let slot = cfg.shared_array::<u32>(1);
    let k = Kernel::with_flags(
        "ww_race",
        KernelFlags { uses_block_sync: true, uses_warp_ops: false },
        move |tc: &mut ThreadCtx<'_>| {
            let tile = tc.shared::<u32>(slot);
            // Every lane writes cell 0 in the same epoch.
            tc.swrite(&tile, 0, tc.thread_rank() as u32);
        },
    );
    let diags = with_racecheck_session(&d, || {
        d.launch(&k, cfg).unwrap();
    });
    assert!(has_shared_race(&diags), "{diags:?}");
}

/// Every lane of one block writes shared slot 0 cell 0 in the same epoch.
fn cell0_writer(name: &str) -> Kernel {
    Kernel::with_flags(
        name,
        KernelFlags { uses_block_sync: true, uses_warp_ops: false },
        |tc: &mut ThreadCtx<'_>| {
            let tile = tc.shared::<u32>(0);
            tc.swrite(&tile, 0, tc.thread_rank() as u32);
        },
    )
}

#[test]
fn session_reports_each_kernels_race_once() {
    // Two kernels race on the same (slot, cell) under one session: each
    // gets its own report, and relaunching the first adds none.
    let d = dev();
    let mut cfg = LaunchConfig::new(1u32, 8u32);
    cfg.shared_array::<u32>(1);
    let (first, second) = (cell0_writer("race_a"), cell0_writer("race_b"));
    let diags = with_racecheck_session(&d, || {
        d.launch(&first, cfg.clone()).unwrap();
        d.launch(&second, cfg.clone()).unwrap();
        d.launch(&first, cfg.clone()).unwrap();
    });
    let races: Vec<&str> = diags
        .iter()
        .filter(|d| d.kind == DiagKind::SharedRace)
        .map(|d| d.kernel.as_str())
        .collect();
    assert_eq!(races, ["race_a", "race_b"], "{diags:?}");
}

#[test]
fn same_epoch_reads_are_fine() {
    // Many readers of the same cell without writers: no race.
    let d = dev();
    let tpb = 16;
    let mut cfg = LaunchConfig::new(2u32, tpb as u32);
    let slot = cfg.shared_array::<f32>(1);
    let k = Kernel::with_flags(
        "broadcast_read",
        KernelFlags { uses_block_sync: true, uses_warp_ops: false },
        move |tc: &mut ThreadCtx<'_>| {
            let tile = tc.shared::<f32>(slot);
            if tc.thread_rank() == 0 {
                tc.swrite(&tile, 0, 42.0);
            }
            tc.sync_threads();
            assert_eq!(tc.sread(&tile, 0), 42.0);
        },
    );
    let diags = with_racecheck_session(&d, || {
        d.launch(&k, cfg).unwrap();
    });
    assert!(!has_shared_race(&diags), "{diags:?}");
}

#[test]
fn racecheck_off_by_default_never_fires() {
    // The racy kernel runs silently when no session is attached — like
    // hardware, where the race is invisible without a tool.
    let d = dev();
    let tpb = 16;
    let mut cfg = LaunchConfig::new(1u32, tpb as u32);
    let slot = cfg.shared_array::<u32>(tpb);
    d.launch(&tile_kernel(slot, tpb, false), cfg).unwrap();
}

/// The `j`-th plain access of the lane with global rank `rank` in the
/// race-fold property kernel: an element of a `len`-element buffer and
/// whether it is a write (one access in four).
fn fold_access(rank: usize, j: usize, seed: u64, len: usize) -> (usize, bool) {
    let mut h = (rank as u64) << 8 | j as u64;
    h = (h ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ h >> 29).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    ((h >> 2) as usize % len, h & 3 == 0)
}

/// Three plain global accesses of one lane, then two plain accesses to
/// cells of the shared slot `slot` of `slot_len` cells. Each lane is its
/// own group in the shared fold, so only a lane that touches one cell
/// twice can tell a fold that checks groups from one that does not.
fn touch(tc: &mut ThreadCtx<'_>, buf: &DBuf<u32>, slot: usize, slot_len: usize, seed: u64) {
    let rank = tc.global_rank();
    for j in 0..3 {
        let (i, write) = fold_access(rank, j, seed, buf.len());
        if write {
            tc.write(buf, i, rank as u32);
        } else {
            let _ = tc.read(buf, i);
        }
    }
    let tile = tc.shared::<u32>(slot);
    for j in 3..5 {
        let (i, write) = fold_access(rank, j, seed, slot_len);
        if write {
            tc.swrite(&tile, i, rank as u32);
        } else {
            let _ = tc.sread(&tile, i);
        }
    }
}

/// `touch` as a barrier-free closure (0), a closure that calls
/// `sync_threads` first (1, the team path for multi-lane blocks), or a
/// phased body that accesses after one `Step::Barrier` (2). All three carry
/// the same name, so their global-race reports must be byte-identical.
fn fold_kernel(form: u8, buf: &DBuf<u32>, slot: usize, slot_len: usize, seed: u64) -> Kernel {
    let buf = buf.clone();
    match form {
        0 => {
            Kernel::new("fold", move |tc: &mut ThreadCtx<'_>| touch(tc, &buf, slot, slot_len, seed))
        }
        1 => Kernel::new("fold", move |tc: &mut ThreadCtx<'_>| {
            tc.sync_threads();
            touch(tc, &buf, slot, slot_len, seed);
        })
        .with_block_sync(),
        _ => Kernel::phased("fold", move |tc, phase, _: &mut ()| {
            if phase == 0 {
                return Step::Barrier;
            }
            touch(tc, &buf, slot, slot_len, seed);
            Step::Exit
        }),
    }
}

/// Whether a traced access is a write; `None` for atomics, which never
/// race.
fn plain_write(e: &MemEvent) -> Option<bool> {
    match e.kind {
        MemAccessKind::Read => Some(false),
        MemAccessKind::Write => Some(true),
        MemAccessKind::Atomic => None,
    }
}

/// The shared-memory race rule applied directly to a memtrace: a cell of a
/// slot races within one barrier phase of one block when at least two
/// lanes touch it and one of them writes. Ranking accesses by (lane, write
/// first), the report pairs the lowest write with the lowest access from
/// any other lane and names the higher-ranked of the two. Blocks report in
/// rank order, each in (slot, cell, phase) order, and only the first report
/// of a (slot, cell) survives the session's deduplication.
fn reference_shared_races(events: &[MemEvent], cfg: &LaunchConfig) -> Vec<String> {
    // (block rank, slot, cell, phase) to the block and each access's
    // (lane, read).
    type Accesses = ((u32, u32, u32), Vec<(usize, bool)>);
    let mut cells: BTreeMap<(usize, usize, usize, u32), Accesses> = BTreeMap::new();
    for e in events {
        let MemSpace::Shared { slot } = e.space else { continue };
        let Some(write) = plain_write(e) else { continue };
        let block_rank = cfg.grid.linear(e.block.0, e.block.1, e.block.2);
        let lane = cfg.block.linear(e.thread.0, e.thread.1, e.thread.2);
        let cell = cells.entry((block_rank, slot, e.index, e.phase)).or_insert((e.block, vec![]));
        cell.1.push((lane, !write));
    }
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for ((_, slot, index, phase), (block, accesses)) in cells {
        let Some(w) = accesses.iter().filter(|a| !a.1).min() else { continue };
        let Some(other) = accesses.iter().filter(|a| a.0 != w.0).min() else { continue };
        if !seen.insert((slot, index)) {
            continue;
        }
        let (prev, cur) = if w <= other { (w, other) } else { (other, w) };
        let verb = |a: &(usize, bool)| if a.1 { "read" } else { "written" };
        let diag = Diagnostic {
            kind: DiagKind::SharedRace,
            kernel: "fold".into(),
            block,
            thread: cfg.block.delinear(cur.0),
            address: Some(index),
            alloc: Some(format!("shared slot {slot}")),
            message: format!(
                "cell {index} {} by lane {} and {} by lane {} within barrier epoch {phase} — \
                 missing sync_threads()?",
                verb(prev),
                prev.0,
                verb(cur),
                cur.0,
            ),
        };
        out.push(diag.to_string());
    }
    out
}

/// The cross-block race rule applied directly to a memtrace: an element
/// races when it has a write and accesses from two blocks. Ranking
/// accesses by (block rank, thread rank, write first), the report pairs the
/// lowest write with the lowest access from any other block, and names the
/// higher-ranked of the two.
fn reference_races(events: &[MemEvent], cfg: &LaunchConfig) -> Vec<String> {
    type Access = ((usize, usize, bool), (u32, u32, u32), (u32, u32, u32));
    let mut cells: BTreeMap<(usize, usize), (String, Vec<Access>)> = BTreeMap::new();
    for e in events {
        let MemSpace::Global { alloc_id, label } = &e.space else { continue };
        let Some(write) = plain_write(e) else { continue };
        let block_rank = cfg.grid.linear(e.block.0, e.block.1, e.block.2);
        let thread_rank = cfg.block.linear(e.thread.0, e.thread.1, e.thread.2);
        let cell = cells.entry((*alloc_id, e.index)).or_insert_with(|| (label.to_string(), vec![]));
        cell.1.push(((block_rank, thread_rank, !write), e.block, e.thread));
    }
    let mut out = Vec::new();
    for ((_, index), (label, accesses)) in cells {
        let Some(w) = accesses.iter().filter(|a| !a.0 .2).min() else { continue };
        let Some(other) = accesses.iter().filter(|a| a.0 .0 != w.0 .0).min() else { continue };
        let (prev, cur) = if w <= other { (w, other) } else { (other, w) };
        let verb = |a: &Access| if a.0 .2 { "read" } else { "written" };
        let diag = Diagnostic {
            kind: DiagKind::GlobalRace,
            kernel: "fold".into(),
            block: cur.1,
            thread: cur.2,
            address: Some(index),
            alloc: Some(label.clone()),
            message: format!(
                "element {index} of {label} {} by block ({},{},{}) and {} by block ({},{},{}) \
                 in the same launch without atomics",
                verb(prev),
                prev.1 .0,
                prev.1 .1,
                prev.1 .2,
                verb(cur),
                cur.1 .0,
                cur.1 .1,
                cur.1 .2,
            ),
        };
        out.push(diag.to_string());
    }
    out
}

/// The reports of one launch: the `SharedRace` reports, the `GlobalRace`
/// reports, and what the race rules say of the launch's memtrace.
struct FoldReports {
    shared: Vec<String>,
    global: Vec<String>,
    reference_shared: Vec<String>,
    reference_global: Vec<String>,
}

/// Launch the property kernel under racecheck with a memtrace attached.
/// The session's findings are every shared race, in block order, followed
/// by every global race.
fn fold_reports(
    form: u8,
    workers: usize,
    cfg: &LaunchConfig,
    len: usize,
    seed: u64,
) -> FoldReports {
    let d = dev();
    d.set_sim_workers(Some(workers));
    let buf = d.alloc::<u32>(len);
    buf.set_label("cells");
    let mut cfg = cfg.clone();
    let slot = cfg.shared_array::<u32>(len);
    let san = SanState::new(ToolMask::RACECHECK);
    let trace = MemTrace::new();
    d.attach_sanitizer(Arc::clone(&san));
    d.attach_mem_trace(Arc::clone(&trace));
    d.launch(&fold_kernel(form, &buf, slot, len, seed), cfg.clone()).unwrap();
    d.detach_sanitizer();
    d.detach_mem_trace();
    let diags = san.drain_diagnostics();
    let shared = diags.iter().take_while(|g| g.kind == DiagKind::SharedRace);
    let shared: Vec<String> = shared.map(|g| g.to_string()).collect();
    let global = diags[shared.len()..].iter().map(|g| g.to_string()).collect();
    let events = trace.events();
    FoldReports {
        shared,
        global,
        reference_shared: reference_shared_races(&events, &cfg),
        reference_global: reference_races(&events, &cfg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The race fold reports exactly what the race rules say of the
    /// launch's memtrace, for global memory (across blocks) and shared
    /// memory (across the lanes of a block), for multi-dimensional grids,
    /// blocks of any size, every executor form and any worker count.
    #[test]
    fn global_race_fold_matches_the_trace_reference(
        gx in 1u32..4, gy in 1u32..3, gz in 1u32..3,
        bx in 1u32..6, by in 1u32..4, bz in 1u32..3,
        len in 1usize..9,
        seed in 0u64..1_000_000,
        workers in 1usize..=4,
    ) {
        let cfg = LaunchConfig::new([gx, gy, gz], [bx, by, bz]);
        let first = fold_reports(0, 1, &cfg, len, seed);
        prop_assert_eq!(&first.global, &first.reference_global);
        for form in 0..3u8 {
            for w in [1, workers] {
                let r = fold_reports(form, w, &cfg, len, seed);
                prop_assert_eq!(&r.shared, &r.reference_shared, "shared: form {} workers {}", form, w);
                prop_assert_eq!(&r.global, &r.reference_global, "form {} workers {}", form, w);
                prop_assert_eq!(&r.global, &first.global, "form {} workers {}", form, w);
            }
        }
    }
}
