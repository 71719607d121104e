//! Sanitizer instrumentation: the simulator half of `ompx-sanitizer`.
//!
//! This module is the `compute-sanitizer` analogue's data plane. It owns the
//! diagnostic types and the per-device [`SanState`] that the executor and
//! [`crate::thread::ThreadCtx`] consult on every counted access while a
//! sanitizer session is attached (see [`crate::device::Device`]'s
//! `attach_sanitizer`). The tool framework, CLI surface, and report
//! formatting live in the `ompx-sanitizer` crate; keeping the hooks here
//! avoids a dependency cycle — the simulator cannot depend on its own
//! tooling.
//!
//! Device-side hooks never write the session directly: a lane pushes its
//! findings into its own lane log, and the launch's one observer
//! (`crate::observe`) merges every lane log into the session in canonical
//! (block rank, thread rank) order when the launch ends.
//!
//! Tool semantics implemented by these hooks:
//!
//! * **memcheck** — out-of-bounds element indices and use-after-free on
//!   [`crate::mem::DBuf`] global memory (the access is suppressed and
//!   recorded instead of panicking, so one launch can report many findings),
//!   plus misaligned typed accesses through the byte-offset accessor.
//! * **racecheck** — shared-memory races within one barrier epoch of a
//!   block (two lanes, at least one write) and cross-block conflicts on
//!   global memory: two blocks touching the same element in one launch, at
//!   least one write, no atomics. Blocks have no ordering within a launch,
//!   so this is exact, not timing-based. Racecheck exists only as a session
//!   tool; without a session a racy kernel runs silently, as on hardware.
//!   Both detectors fold accesses into one commutative summary,
//!   `CellRanks`, scanned at block end (shared) or launch end (global),
//!   so the findings are identical run to run regardless of host
//!   scheduling. The global fold costs a lane one log append per access:
//!   each block-loop worker folds its lanes' logs into its own `RaceFold`
//!   of packed integer ranks and merges it into the launch's once.
//! * **synccheck** — barrier divergence (a lane that participated in block
//!   barriers abandons lanes still waiting at one) and invalid `shfl_sync`
//!   member masks.
//! * **initcheck** — reads of never-written cells in init-tracked global
//!   buffers (`Device::alloc_uninit`, the `cudaMalloc` contract) and in
//!   shared memory (undefined at block start on real hardware).
//! * **leakcheck** — allocations still live when the program explicitly
//!   resets the device (`Device::reset`, the `cudaDeviceReset` analogue);
//!   like the hardware tool, implicit process-exit teardown is not a leak.

use crate::dim::LaunchConfig;
use crate::memtrace::MemAccessKind;
use crate::observe::Staged;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Bitmask of enabled sanitizer tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolMask(u32);

impl ToolMask {
    pub const NONE: ToolMask = ToolMask(0);
    pub const MEMCHECK: ToolMask = ToolMask(1 << 0);
    pub const RACECHECK: ToolMask = ToolMask(1 << 1);
    pub const SYNCCHECK: ToolMask = ToolMask(1 << 2);
    pub const INITCHECK: ToolMask = ToolMask(1 << 3);
    pub const LEAKCHECK: ToolMask = ToolMask(1 << 4);
    pub const ALL: ToolMask = ToolMask(0b11111);

    /// True when every tool in `other` is enabled in `self`.
    pub fn contains(self, other: ToolMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two masks.
    pub fn union(self, other: ToolMask) -> ToolMask {
        ToolMask(self.0 | other.0)
    }

    /// True when no tool is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for ToolMask {
    type Output = ToolMask;
    fn bitor(self, rhs: ToolMask) -> ToolMask {
        self.union(rhs)
    }
}

/// The kind of defect a diagnostic reports. Each kind belongs to exactly
/// one tool (see [`DiagKind::tool`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagKind {
    OutOfBounds,
    UseAfterFree,
    MisalignedAccess,
    SharedRace,
    GlobalRace,
    BarrierDivergence,
    InvalidShflMask,
    KernelFlagsDrift,
    UninitGlobalRead,
    UninitSharedRead,
    DeviceLeak,
}

impl DiagKind {
    /// The owning tool's name, as spelled on the `sanitize --tool` CLI.
    pub fn tool(self) -> &'static str {
        match self {
            DiagKind::OutOfBounds | DiagKind::UseAfterFree | DiagKind::MisalignedAccess => {
                "memcheck"
            }
            DiagKind::SharedRace | DiagKind::GlobalRace => "racecheck",
            DiagKind::BarrierDivergence
            | DiagKind::InvalidShflMask
            | DiagKind::KernelFlagsDrift => "synccheck",
            DiagKind::UninitGlobalRead | DiagKind::UninitSharedRead => "initcheck",
            DiagKind::DeviceLeak => "leakcheck",
        }
    }

    /// The mask bit of the owning tool.
    pub fn tool_mask(self) -> ToolMask {
        match self.tool() {
            "memcheck" => ToolMask::MEMCHECK,
            "racecheck" => ToolMask::RACECHECK,
            "synccheck" => ToolMask::SYNCCHECK,
            "initcheck" => ToolMask::INITCHECK,
            _ => ToolMask::LEAKCHECK,
        }
    }

    /// Short defect label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DiagKind::OutOfBounds => "out-of-bounds access",
            DiagKind::UseAfterFree => "use-after-free",
            DiagKind::MisalignedAccess => "misaligned typed access",
            DiagKind::SharedRace => "shared-memory data race",
            DiagKind::GlobalRace => "global-memory data race",
            DiagKind::BarrierDivergence => "barrier divergence",
            DiagKind::InvalidShflMask => "invalid shfl member mask",
            DiagKind::KernelFlagsDrift => "KernelFlags drift",
            DiagKind::UninitGlobalRead => "uninitialized global read",
            DiagKind::UninitSharedRead => "uninitialized shared read",
            DiagKind::DeviceLeak => "device memory leak",
        }
    }
}

/// One structured sanitizer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub kind: DiagKind,
    /// Kernel the access executed in (empty for host-side findings such as
    /// leaks).
    pub kernel: String,
    /// Block coordinates of the offending thread.
    pub block: (u32, u32, u32),
    /// Thread coordinates within the block.
    pub thread: (u32, u32, u32),
    /// Element index / byte offset of the access, when applicable.
    pub address: Option<usize>,
    /// Label of the allocation involved (the "backtrace label" given at
    /// `alloc_labeled`, or a synthesized `alloc#N` tag).
    pub alloc: Option<String>,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind.tool(), self.kind.label())?;
        if !self.kernel.is_empty() {
            write!(
                f,
                " in kernel `{}` block ({},{},{}) thread ({},{},{})",
                self.kernel,
                self.block.0,
                self.block.1,
                self.block.2,
                self.thread.0,
                self.thread.1,
                self.thread.2
            )?;
        }
        if let Some(a) = self.address {
            write!(f, " at index {a}")?;
        }
        if let Some(l) = &self.alloc {
            write!(f, " of {l}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// A registered device allocation, tracked while a session is attached.
#[derive(Debug, Clone)]
pub struct AllocRecord {
    pub id: usize,
    pub label: String,
    pub bytes: usize,
    pub live: bool,
}

/// "No access" in a [`CellRanks`] slot. Every real packed rank is smaller
/// (see [`LaunchSan::check_rank_width`]).
const NONE: u64 = u64::MAX;

/// Order-independent access summary of one cell for a race detector, as
/// three packed ranks: the minimum-ranked write, the minimum-ranked access,
/// and the minimum-ranked access from a different group than that one
/// ([`NONE`] where there is none). A cell races when it has a write and
/// accesses from two groups.
///
/// An access by member `m` of a group `g` of `width` members packs to
/// `(g * width + m) << 1 | !write`, so integer order is the canonical
/// `(group, member, !write)` order, and on one member a write outranks a
/// read. The global-memory fold groups threads by block (`width` = threads
/// per block); the shared-memory fold groups by lane (`width` = 1). Every
/// fold step is commutative, so accesses may arrive in any real-time order
/// and the scan still reports the same canonical pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellRanks {
    wmin: u64,
    amin: u64,
    amin2: u64,
}

impl CellRanks {
    pub(crate) const EMPTY: CellRanks = CellRanks { wmin: NONE, amin: NONE, amin2: NONE };

    /// Fold in the access with packed rank `p` (groups of `width`).
    pub(crate) fn offer(&mut self, p: u64, width: u64) {
        let group = |r: u64| (r >> 1) / width;
        if p & 1 == 0 && p < self.wmin {
            self.wmin = p;
        }
        if p < self.amin {
            // The displaced minimum becomes a runner-up candidate; the old
            // runner-up stays one unless it shares the new minimum's group.
            let a = std::mem::replace(&mut self.amin, p);
            let pg = group(p);
            let mut runner =
                if self.amin2 != NONE && group(self.amin2) != pg { self.amin2 } else { NONE };
            if a != NONE && group(a) != pg && a < runner {
                runner = a;
            }
            self.amin2 = runner;
        } else if p < self.amin2 && group(p) != group(self.amin) {
            self.amin2 = p;
        }
    }

    /// The canonical conflicting pair `(lower, higher)`, if this summary is
    /// a race: at least one write and accesses from at least two groups.
    pub(crate) fn conflict(&self, width: u64) -> Option<(u64, u64)> {
        if self.wmin == NONE || self.amin2 == NONE {
            return None;
        }
        let other = if (self.amin >> 1) / width != (self.wmin >> 1) / width {
            self.amin
        } else {
            self.amin2
        };
        Some((self.wmin.min(other), self.wmin.max(other)))
    }
}

/// A lane's plain (non-atomic, in-bounds) global accesses under racecheck,
/// in program order: `(allocation id, element, write)`. The lane only
/// appends; [`RaceFold::absorb`] ranks and folds the log when the lane
/// retires.
pub(crate) type RaceLog = Vec<(usize, usize, bool)>;

/// The cross-block race fold over some set of lanes: (allocation id,
/// element) to [`CellRanks`]. A block-loop worker keeps one for every lane
/// it runs and merges it into the launch's once, when it stops; a team-path
/// lane merges its own when it retires. No lock is taken per access.
#[derive(Debug)]
pub(crate) struct RaceFold {
    tpb: u64,
    cells: HashMap<(usize, usize), CellRanks>,
}

impl RaceFold {
    /// An empty fold for lanes of a launch with `tpb` threads per block.
    pub(crate) fn new(tpb: usize) -> RaceFold {
        RaceFold { tpb: tpb as u64, cells: HashMap::new() }
    }

    /// Fold (and empty) the log of the lane `thread_rank` of block
    /// `block_rank`.
    pub(crate) fn absorb(&mut self, block_rank: usize, thread_rank: usize, log: &mut RaceLog) {
        let lane = (block_rank as u64 * self.tpb + thread_rank as u64) << 1;
        for (alloc, index, write) in log.drain(..) {
            let cell = self.cells.entry((alloc, index)).or_insert(CellRanks::EMPTY);
            cell.offer(lane | u64::from(!write), self.tpb);
        }
    }

    /// Fold `other` into `self` by offering each of its cells' ranks.
    fn merge(&mut self, mut other: RaceFold) {
        if other.cells.len() > self.cells.len() {
            std::mem::swap(self, &mut other);
        }
        for (key, theirs) in other.cells {
            let cell = self.cells.entry(key).or_insert(CellRanks::EMPTY);
            for r in [theirs.wmin, theirs.amin, theirs.amin2] {
                if r != NONE {
                    cell.offer(r, self.tpb);
                }
            }
        }
    }
}

/// Identity fields a [`crate::thread::ThreadCtx`] passes with each hook
/// call.
#[derive(Clone, Copy)]
pub struct AccessSite<'k> {
    pub kernel: &'k str,
    pub block: (u32, u32, u32),
    pub thread: (u32, u32, u32),
    pub block_rank: usize,
}

/// Cap on recorded diagnostics per session, to bound a pathological
/// kernel's report (the hardware tools do the same).
const MAX_DIAGNOSTICS: usize = 512;

/// Dedup key: one report per (kind, allocation/site, address).
pub(crate) type DedupKey = (DiagKind, usize, usize);

/// A lane-local (or block-scan-local) diagnostic buffer. Device-side hooks
/// push here instead of into the shared session, so the set and order of a
/// lane's findings depend only on its own program order; the buffers are
/// merged into the session in canonical (block-rank, thread-rank) order at
/// launch end (see [`LaunchSan::finish`]).
#[derive(Debug, Default)]
pub(crate) struct DiagLog {
    diags: Vec<(Diagnostic, DedupKey)>,
    seen: HashSet<DedupKey>,
}

impl DiagLog {
    fn push(&mut self, diag: Diagnostic, key: DedupKey) {
        if self.diags.len() >= MAX_DIAGNOSTICS || !self.seen.insert(key) {
            return;
        }
        self.diags.push((diag, key));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }
}

/// Per-device sanitizer session state: enabled tools, recorded findings,
/// and the allocation registry.
pub struct SanState {
    enabled: ToolMask,
    diagnostics: Mutex<Vec<Diagnostic>>,
    /// Dedup: one report per (kind, allocation/site, address).
    seen: Mutex<HashSet<DedupKey>>,
    allocs: Mutex<Vec<AllocRecord>>,
}

impl SanState {
    /// Fresh session state with the given tools enabled.
    pub fn new(enabled: ToolMask) -> Arc<SanState> {
        Arc::new(SanState {
            enabled,
            diagnostics: Mutex::new(Vec::new()),
            seen: Mutex::new(HashSet::new()),
            allocs: Mutex::new(Vec::new()),
        })
    }

    /// The session's enabled tools.
    pub fn enabled(&self) -> ToolMask {
        self.enabled
    }

    /// True when `tool` is enabled in this session.
    pub fn tool_on(&self, tool: ToolMask) -> bool {
        self.enabled.contains(tool)
    }

    /// Copy of the findings recorded so far.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.diagnostics.lock().clone()
    }

    /// Move the findings out, leaving the session empty.
    pub fn drain_diagnostics(&self) -> Vec<Diagnostic> {
        std::mem::take(&mut *self.diagnostics.lock())
    }

    /// Number of findings recorded so far.
    pub fn finding_count(&self) -> usize {
        self.diagnostics.lock().len()
    }

    /// Snapshot of the allocation registry.
    pub fn allocations(&self) -> Vec<AllocRecord> {
        self.allocs.lock().clone()
    }

    fn record(&self, diag: Diagnostic, dedup_key: DedupKey) {
        if !self.seen.lock().insert(dedup_key) {
            return;
        }
        if let Some(reg) = ompx_telemetry::active() {
            reg.counter_add("sanitizer_findings_total", &[("tool", diag.kind.tool())], 1);
        }
        let mut diags = self.diagnostics.lock();
        if diags.len() < MAX_DIAGNOSTICS {
            diags.push(diag);
        }
    }

    // ---- allocation registry (memcheck / leakcheck) ----------------------

    /// Register a fresh allocation.
    pub(crate) fn on_alloc(&self, id: usize, label: String, bytes: usize) {
        self.allocs.lock().push(AllocRecord { id, label, bytes, live: true });
    }

    /// Rename a registered allocation (label attached after allocation).
    pub(crate) fn relabel_alloc(&self, id: usize, label: &str) {
        if let Some(rec) = self.allocs.lock().iter_mut().find(|r| r.id == id) {
            rec.label = label.to_string();
        }
    }

    /// Mark an allocation as freed.
    pub(crate) fn on_free(&self, id: usize) {
        if let Some(rec) = self.allocs.lock().iter_mut().find(|r| r.id == id) {
            rec.live = false;
        }
    }

    /// Leak scan at explicit device reset: every allocation registered in
    /// this session and never freed becomes a `DeviceLeak` finding.
    pub(crate) fn on_device_reset(&self, device_name: &str) {
        if !self.tool_on(ToolMask::LEAKCHECK) {
            return;
        }
        let leaks: Vec<AllocRecord> =
            self.allocs.lock().iter().filter(|r| r.live).cloned().collect();
        for rec in leaks {
            self.record(
                Diagnostic {
                    kind: DiagKind::DeviceLeak,
                    kernel: String::new(),
                    block: (0, 0, 0),
                    thread: (0, 0, 0),
                    address: None,
                    alloc: Some(rec.label.clone()),
                    message: format!(
                        "{} bytes allocated as {} still live at reset of {device_name}",
                        rec.bytes, rec.label
                    ),
                },
                (DiagKind::DeviceLeak, rec.id, 0),
            );
        }
    }

    // ---- device-side access hooks ---------------------------------------

    /// Global-memory access check. Returns `true` when the access must be
    /// suppressed (out-of-bounds or use-after-free under memcheck — the
    /// simulated hardware access does not happen; reads yield zero).
    ///
    /// Findings go into the caller's lane-local `log`; `alloc_label` is
    /// called only to name a finding. The cross-block race fold is a
    /// separate step: [`crate::thread::ThreadCtx`] appends the access to its
    /// [`RaceLog`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn global_access(
        &self,
        site: AccessSite<'_>,
        alloc_id: usize,
        alloc_label: impl FnOnce() -> String,
        len: usize,
        freed: bool,
        index: usize,
        kind: MemAccessKind,
        init_tracked_unwritten: bool,
        log: &mut DiagLog,
    ) -> bool {
        if self.tool_on(ToolMask::MEMCHECK) {
            if freed {
                let alloc_label = alloc_label();
                log.push(
                    Diagnostic {
                        kind: DiagKind::UseAfterFree,
                        kernel: site.kernel.to_string(),
                        block: site.block,
                        thread: site.thread,
                        address: Some(index),
                        alloc: Some(alloc_label.clone()),
                        message: format!(
                            "{:?} of element {index} in freed allocation {alloc_label}",
                            kind
                        ),
                    },
                    (DiagKind::UseAfterFree, alloc_id, index),
                );
                return true;
            }
            if index >= len {
                let alloc_label = alloc_label();
                log.push(
                    Diagnostic {
                        kind: DiagKind::OutOfBounds,
                        kernel: site.kernel.to_string(),
                        block: site.block,
                        thread: site.thread,
                        address: Some(index),
                        alloc: Some(alloc_label.clone()),
                        message: format!(
                            "{:?} of element {index} past the end of {alloc_label} (len {len})",
                            kind
                        ),
                    },
                    (DiagKind::OutOfBounds, alloc_id, index),
                );
                return true;
            }
        }
        if index >= len || freed {
            // Without memcheck the simulator keeps its panic-on-OOB
            // contract; freed buffers retain their storage (refcounted).
            return false;
        }
        if kind == MemAccessKind::Read
            && init_tracked_unwritten
            && self.tool_on(ToolMask::INITCHECK)
        {
            let alloc_label = alloc_label();
            log.push(
                Diagnostic {
                    kind: DiagKind::UninitGlobalRead,
                    kernel: site.kernel.to_string(),
                    block: site.block,
                    thread: site.thread,
                    address: Some(index),
                    alloc: Some(alloc_label.clone()),
                    message: format!("read of element {index} of {alloc_label} before any write"),
                },
                (DiagKind::UninitGlobalRead, alloc_id, index),
            );
        }
        false
    }

    /// Misaligned typed access through the byte-offset accessor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn misaligned_access(
        &self,
        site: AccessSite<'_>,
        alloc_id: usize,
        alloc_label: impl FnOnce() -> String,
        byte_offset: usize,
        align: usize,
        type_name: &str,
        log: &mut DiagLog,
    ) {
        if !self.tool_on(ToolMask::MEMCHECK) {
            return;
        }
        let alloc_label = alloc_label();
        log.push(
            Diagnostic {
                kind: DiagKind::MisalignedAccess,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: Some(byte_offset),
                alloc: Some(alloc_label.clone()),
                message: format!(
                    "{type_name} load at byte offset {byte_offset} of {alloc_label} \
                     (requires {align}-byte alignment)"
                ),
            },
            (DiagKind::MisalignedAccess, alloc_id, byte_offset),
        );
    }

    /// Shared-memory race found by the block-end fold scan
    /// ([`crate::shared::BlockShared::collect_races`]).
    pub(crate) fn shared_race(
        &self,
        site: AccessSite<'_>,
        slot: usize,
        race: crate::shared::SharedRace,
        log: &mut DiagLog,
    ) {
        log.push(
            Diagnostic {
                kind: DiagKind::SharedRace,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: Some(race.cell),
                alloc: Some(format!("shared slot {slot}")),
                message: format!(
                    "cell {} {} by lane {} and {} by lane {} within barrier epoch {} — \
                     missing sync_threads()?",
                    race.cell,
                    if race.prev_write { "written" } else { "read" },
                    race.prev_lane,
                    if race.this_write { "written" } else { "read" },
                    race.this_lane,
                    race.epoch,
                ),
            },
            (DiagKind::SharedRace, slot, race.cell),
        );
    }

    /// Uninitialized shared-memory read.
    pub(crate) fn uninit_shared_read(
        &self,
        site: AccessSite<'_>,
        slot: usize,
        index: usize,
        log: &mut DiagLog,
    ) {
        if !self.tool_on(ToolMask::INITCHECK) {
            return;
        }
        log.push(
            Diagnostic {
                kind: DiagKind::UninitSharedRead,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: Some(index),
                alloc: Some(format!("shared slot {slot}")),
                message: format!(
                    "read of shared cell {index} before any write in this block \
                     (shared memory is undefined at block start)"
                ),
            },
            (DiagKind::UninitSharedRead, slot, index),
        );
    }

    /// Barrier divergence: a lane that participated in block barriers
    /// executed only `synced` of the `max` `sync_threads` its block
    /// reached, abandoning siblings at a barrier it skipped.
    pub(crate) fn barrier_divergence(
        &self,
        site: AccessSite<'_>,
        synced: u64,
        max: u64,
        log: &mut DiagLog,
    ) {
        if !self.tool_on(ToolMask::SYNCCHECK) {
            return;
        }
        log.push(
            Diagnostic {
                kind: DiagKind::BarrierDivergence,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: None,
                alloc: None,
                message: format!(
                    "lane reached only {synced} of the block's {max} sync_threads barriers \
                     before exiting — divergent barrier"
                ),
            },
            (DiagKind::BarrierDivergence, site.block_rank, 0),
        );
    }

    /// `KernelFlags` drift: a kernel that never declared `uses_block_sync` /
    /// `uses_warp_ops` was launched on the serial path and then called a
    /// block or warp collective in a multi-thread block. Without a session
    /// the executor panics; under synccheck the collective degrades (barrier
    /// no-op, shuffle self-value) and the drift becomes a structured
    /// finding, so the whole launch can still be scanned. A phased kernel
    /// body calling a collective drifts the same way: its lanes run one
    /// after another. Returns `true` when the caller should degrade
    /// instead of panicking.
    pub(crate) fn flags_drift(
        &self,
        site: AccessSite<'_>,
        what: &str,
        missing: &str,
        phased: bool,
        log: &mut DiagLog,
    ) -> bool {
        if !self.tool_on(ToolMask::SYNCCHECK) {
            return false;
        }
        let message = if phased {
            format!(
                "{what} inside a phased kernel body — its lanes run one after another, \
                 so the collective degrades and results may be wrong; end the phase \
                 with Step::Barrier instead"
            )
        } else {
            format!(
                "{what} in a multi-thread block, but the kernel does not declare \
                 KernelFlags::{missing} — it ran on the serial path, so the \
                 collective degrades and results may be wrong"
            )
        };
        log.push(
            Diagnostic {
                kind: DiagKind::KernelFlagsDrift,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: None,
                alloc: None,
                message,
            },
            (DiagKind::KernelFlagsDrift, site.block_rank, 0),
        );
        true
    }

    /// Invalid `shfl_sync` member mask.
    pub(crate) fn invalid_shfl_mask(
        &self,
        site: AccessSite<'_>,
        mask: u64,
        lane: usize,
        src_lane: usize,
        log: &mut DiagLog,
    ) {
        if !self.tool_on(ToolMask::SYNCCHECK) {
            return;
        }
        log.push(
            Diagnostic {
                kind: DiagKind::InvalidShflMask,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: Some(src_lane),
                alloc: None,
                message: format!(
                    "shfl_sync mask {mask:#x} does not cover participating lane {lane} \
                     (source lane {src_lane})"
                ),
            },
            (DiagKind::InvalidShflMask, site.block_rank, lane),
        );
    }
}

/// Per-launch sanitizer part of the launch's observer
/// ([`crate::observe::Observer`]): the session, the kernel's name for
/// diagnostics, and the cross-block global-race fold. Nothing reaches the
/// shared [`SanState`] until [`LaunchSan::finish`] merges the staged lane
/// logs and the fold in canonical order, so the session's findings are
/// bit-identical run to run no matter how the OS schedules the blocks.
///
/// The race fold is integer-only: lanes log `(allocation, element, write)`,
/// each block-loop worker folds its lanes' logs into a `RaceFold` of its
/// own and merges it here once when it stops (a team-path lane merges its
/// own log when it retires). Labels and block/thread coordinates are worked
/// out in `finish`, for conflicting elements only.
pub(crate) struct LaunchSan {
    pub(crate) state: Arc<SanState>,
    pub(crate) kernel: String,
    /// Cross-block race fold of the lanes merged so far. Per-launch (blocks
    /// are unordered only within a launch).
    races: Mutex<Option<RaceFold>>,
}

impl LaunchSan {
    pub(crate) fn new(state: Arc<SanState>, kernel: &str) -> LaunchSan {
        LaunchSan { state, kernel: kernel.to_string(), races: Mutex::new(None) }
    }

    /// The session this launch reports into.
    pub(crate) fn state(&self) -> &SanState {
        &self.state
    }

    /// Kernel name for diagnostics.
    pub(crate) fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Under racecheck, panic unless every packed rank of launch `cfg` fits
    /// in 64 bits (below [`NONE`]), rather than truncate one: a launch of
    /// fewer than 2^63 threads always does. Called once per launch.
    pub(crate) fn check_rank_width(&self, cfg: &LaunchConfig) {
        if !self.state.tool_on(ToolMask::RACECHECK) {
            return;
        }
        let (blocks, tpb) = (cfg.num_blocks() as u64, cfg.threads_per_block() as u64);
        let fits = blocks.checked_mul(tpb).and_then(|n| n.checked_mul(2));
        assert!(
            fits.is_some(),
            "racecheck: {blocks} blocks of {tpb} threads overflow a 64-bit rank"
        );
    }

    /// Merge a worker's (or a retired team lane's) race fold into the
    /// launch's. Commutative, so workers may merge in any order.
    pub(crate) fn merge_races(&self, fold: RaceFold) {
        if fold.cells.is_empty() {
            return;
        }
        let mut races = self.races.lock();
        match races.as_mut() {
            Some(launch) => launch.merge(fold),
            None => *races = Some(fold),
        }
    }

    /// Merge everything into the session in canonical order: the staged
    /// lane and block-scan logs (already sorted by block rank, then thread
    /// rank, each block's scan last), then the cross-block races of launch
    /// `cfg` sorted by (allocation, element). Called exactly once after all
    /// workers have stopped — including when the launch panicked, so
    /// partial findings are preserved.
    pub(crate) fn finish(&self, staged: &mut [Staged], cfg: &LaunchConfig) {
        for entry in staged {
            for (diag, key) in entry.diags.diags.drain(..) {
                self.state.record(diag, key);
            }
        }

        let Some(fold) = self.races.lock().take() else { return };
        let mut races: Vec<((usize, usize), (u64, u64))> = fold
            .cells
            .iter()
            .filter_map(|(&key, cell)| Some((key, cell.conflict(fold.tpb)?)))
            .collect();
        races.sort_unstable_by_key(|&(key, _)| key);
        // Unpack a rank into (block coordinates, thread coordinates, write).
        let party = |r: u64| {
            let lane = (r >> 1) as usize;
            let tpb = fold.tpb as usize;
            (cfg.grid.delinear(lane / tpb), cfg.block.delinear(lane % tpb), r & 1 == 0)
        };
        for ((alloc_id, index), (prev, cur)) in races {
            let (prev_block, _, prev_write) = party(prev);
            let (cur_block, cur_thread, cur_write) = party(cur);
            let label = crate::mem::label_of(alloc_id);
            self.state.record(
                Diagnostic {
                    kind: DiagKind::GlobalRace,
                    kernel: self.kernel.clone(),
                    block: cur_block,
                    thread: cur_thread,
                    address: Some(index),
                    alloc: Some(label.to_string()),
                    message: format!(
                        "element {index} of {label} {} by block ({},{},{}) and {} by \
                         block ({},{},{}) in the same launch without atomics",
                        if prev_write { "written" } else { "read" },
                        prev_block.0,
                        prev_block.1,
                        prev_block.2,
                        if cur_write { "written" } else { "read" },
                        cur_block.0,
                        cur_block.1,
                        cur_block.2,
                    ),
                },
                (DiagKind::GlobalRace, alloc_id, index),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{LaneLog, Observer};

    /// The observer of a launch of kernel `k` with session `s` attached.
    fn observer(s: &Arc<SanState>) -> Observer {
        Observer::new(Some(Arc::clone(s)), None, "k").expect("a session is attached")
    }

    /// Stage `diags` as the log of lane `thread_rank` of block 0.
    fn stage(obs: &Observer, thread_rank: usize, diags: DiagLog) {
        let mut log = LaneLog { diags, ..LaneLog::default() };
        let thread = (thread_rank as u32, 0, 0);
        obs.stage_lane((0, thread_rank), (0, 0, 0), thread, &mut log, &mut RaceFold::new(8));
    }

    #[test]
    fn tool_mask_algebra() {
        let m = ToolMask::MEMCHECK | ToolMask::RACECHECK;
        assert!(m.contains(ToolMask::MEMCHECK));
        assert!(!m.contains(ToolMask::SYNCCHECK));
        assert!(ToolMask::ALL.contains(m));
        assert!(ToolMask::NONE.is_empty());
        for kind in [
            DiagKind::OutOfBounds,
            DiagKind::SharedRace,
            DiagKind::BarrierDivergence,
            DiagKind::UninitGlobalRead,
            DiagKind::DeviceLeak,
        ] {
            assert!(ToolMask::ALL.contains(kind.tool_mask()));
        }
    }

    #[test]
    fn dedup_and_cap() {
        let s = SanState::new(ToolMask::ALL);
        let obs = observer(&s);
        let site = AccessSite { kernel: "k", block: (0, 0, 0), thread: (0, 0, 0), block_rank: 0 };
        let mut log = DiagLog::default();
        for _ in 0..3 {
            assert!(s.global_access(
                site,
                1,
                || "buf".to_string(),
                4,
                false,
                9,
                MemAccessKind::Read,
                false,
                &mut log
            ));
        }
        stage(&obs, 0, log);
        obs.finish(&cfg());
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.diagnostics()[0].kind, DiagKind::OutOfBounds);
    }

    #[test]
    fn cross_lane_dedup_happens_at_merge() {
        // Two lanes independently hit the same OOB element: each lane log
        // records it, the session dedups at the canonical merge.
        let s = SanState::new(ToolMask::MEMCHECK);
        let obs = observer(&s);
        for lane in 0..2u32 {
            let site =
                AccessSite { kernel: "k", block: (0, 0, 0), thread: (lane, 0, 0), block_rank: 0 };
            let mut log = DiagLog::default();
            s.global_access(
                site,
                1,
                || "buf".to_string(),
                4,
                false,
                9,
                MemAccessKind::Write,
                false,
                &mut log,
            );
            stage(&obs, lane as usize, log);
        }
        obs.finish(&cfg());
        let d = s.diagnostics();
        assert_eq!(d.len(), 1);
        // Canonical merge: the lowest-ranked lane's report wins.
        assert_eq!(d[0].thread, (0, 0, 0));
    }

    #[test]
    fn leak_scan_reports_live_allocations_only() {
        let s = SanState::new(ToolMask::LEAKCHECK);
        s.on_alloc(1, "a".into(), 64);
        s.on_alloc(2, "b".into(), 128);
        s.on_free(1);
        s.on_device_reset("TestGPU");
        let d = s.diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DiagKind::DeviceLeak);
        assert_eq!(d[0].alloc.as_deref(), Some("b"));
    }

    /// A 1-D launch of 4 blocks of 8 threads.
    fn cfg() -> LaunchConfig {
        LaunchConfig::new(4u32, 8u32)
    }

    /// An allocation id no real buffer in this process reaches.
    const ALLOC: usize = usize::MAX - 7;

    /// One plain access by thread `thread_rank` of block `block_rank`,
    /// folded the way a retiring team-path lane folds its log.
    fn access(launch: &Observer, block_rank: usize, thread_rank: usize, index: usize, write: bool) {
        let mut fold = RaceFold::new(8);
        fold.absorb(block_rank, thread_rank, &mut vec![(ALLOC, index, write)]);
        launch.merge_races(fold);
    }

    #[test]
    fn cross_block_race_requires_distinct_blocks_and_a_write() {
        let s = SanState::new(ToolMask::RACECHECK);
        // Read/read from two blocks: not a race.
        let launch = observer(&s);
        access(&launch, 0, 0, 3, false);
        access(&launch, 1, 0, 3, false);
        launch.finish(&cfg());
        assert_eq!(s.finding_count(), 0);
        // Add a write from one of the blocks: race.
        let launch = observer(&s);
        access(&launch, 0, 0, 3, false);
        access(&launch, 1, 0, 3, false);
        access(&launch, 0, 0, 3, true);
        launch.finish(&cfg());
        assert_eq!(s.finding_count(), 1);
        // Same-block write/write in a fresh launch: not a cross-block race.
        let launch = observer(&s);
        access(&launch, 0, 0, 5, true);
        access(&launch, 0, 1, 5, true);
        launch.finish(&cfg());
        assert_eq!(s.finding_count(), 1);
    }

    #[test]
    fn global_race_report_is_fold_order_independent() {
        let accesses = [(3, 1, false), (1, 0, true), (2, 5, false), (1, 2, false)];
        let mut messages = Vec::new();
        for order in [false, true] {
            let s = SanState::new(ToolMask::RACECHECK);
            let launch = observer(&s);
            let mut seq = accesses.to_vec();
            if order {
                seq.reverse();
            }
            for (block, thread, write) in seq {
                access(&launch, block, thread, 0, write);
            }
            launch.finish(&cfg());
            let d = s.diagnostics();
            assert_eq!(d.len(), 1);
            messages.push(format!("{}", d[0]));
        }
        assert_eq!(messages[0], messages[1]);
        // The canonical pair: block 1's write vs block 2's read (the
        // lowest-ranked access outside block 1).
        assert!(messages[0].contains("written by block (1,0,0) and read by block (2,0,0)"));
        assert!(messages[0].contains("block (2,0,0) thread (5,0,0)"), "{}", messages[0]);
    }

    #[test]
    fn worker_folds_merge_to_the_one_worker_result() {
        // Folding everything on one worker equals folding any split of it
        // on several workers and merging: the merge offers each worker's
        // three ranks, which is all the fold keeps.
        let log: Vec<(usize, usize, bool)> =
            (0..32).map(|i| (i % 4, (i * 7 + 3) % 8, i % 3 == 0)).collect();
        let run = |split: usize| {
            let s = SanState::new(ToolMask::RACECHECK);
            let launch = observer(&s);
            for part in log.chunks(split) {
                let mut fold = RaceFold::new(8);
                for &(block, thread, write) in part {
                    fold.absorb(block, thread, &mut vec![(ALLOC, 0, write)]);
                }
                launch.merge_races(fold);
            }
            launch.finish(&cfg());
            s.diagnostics().iter().map(|d| format!("{d}")).collect::<Vec<_>>()
        };
        let whole = run(32);
        assert_eq!(whole.len(), 1);
        for split in [1, 3, 5, 16] {
            assert_eq!(run(split), whole, "split {split}");
        }
    }
}
