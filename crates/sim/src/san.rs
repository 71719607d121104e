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
//! Tool semantics implemented by these hooks:
//!
//! * **memcheck** — out-of-bounds element indices and use-after-free on
//!   [`crate::mem::DBuf`] global memory (the access is suppressed and
//!   recorded instead of panicking, so one launch can report many findings),
//!   plus misaligned typed accesses through the byte-offset accessor.
//! * **racecheck** — the shared-memory per-cell fold detector (migrated
//!   from the legacy `LaunchConfig::racecheck` panic into recorded
//!   diagnostics) and cross-block conflicts on global memory: two blocks
//!   touching the same element in one launch, at least one write, no
//!   atomics. Blocks have no ordering within a launch, so this is exact,
//!   not timing-based — and because both detectors fold accesses into
//!   commutative summaries scanned at block/launch end, the findings are
//!   identical run to run regardless of host scheduling.
//! * **synccheck** — barrier divergence (a lane that participated in block
//!   barriers abandons lanes still waiting at one) and invalid `shfl_sync`
//!   member masks.
//! * **initcheck** — reads of never-written cells in init-tracked global
//!   buffers (`Device::alloc_uninit`, the `cudaMalloc` contract) and in
//!   shared memory (undefined at block start on real hardware).
//! * **leakcheck** — allocations still live when the program explicitly
//!   resets the device (`Device::reset`, the `cudaDeviceReset` analogue);
//!   like the hardware tool, implicit process-exit teardown is not a leak.

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

/// One party to a potential cross-block race: a plain global access with
/// enough identity to rank it canonically and name it in a report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Party {
    pub(crate) block_rank: usize,
    pub(crate) thread_rank: usize,
    pub(crate) block: (u32, u32, u32),
    pub(crate) thread: (u32, u32, u32),
    pub(crate) write: bool,
}

impl Party {
    /// Canonical ordering key: block-linear first, thread-linear second; on
    /// the same thread a write outranks a read so the representative's kind
    /// is deterministic.
    fn rank(self) -> (usize, usize, bool) {
        (self.block_rank, self.thread_rank, !self.write)
    }
}

/// Order-independent per-(allocation, element) access summary for the
/// cross-block race detector: the minimum-ranked write, the minimum-ranked
/// access, and the minimum-ranked access from a different block than that
/// one. Every fold step is commutative, so concurrent blocks can feed it in
/// any real-time order and the launch-end scan still reports the same
/// canonical conflicting pair.
#[derive(Debug, Default)]
struct GlobalCellFold {
    label: String,
    wmin: Option<Party>,
    amin: Option<Party>,
    amin2: Option<Party>,
}

impl GlobalCellFold {
    fn offer(&mut self, p: Party) {
        if p.write && self.wmin.is_none_or(|w| p.rank() < w.rank()) {
            self.wmin = Some(p);
        }
        match self.amin {
            None => self.amin = Some(p),
            Some(a) if p.rank() < a.rank() => {
                self.amin = Some(p);
                let mut runner = self.amin2.filter(|r| r.block_rank != p.block_rank);
                if a.block_rank != p.block_rank && runner.is_none_or(|r| a.rank() < r.rank()) {
                    runner = Some(a);
                }
                self.amin2 = runner;
            }
            Some(a) => {
                if p.block_rank != a.block_rank && self.amin2.is_none_or(|r| p.rank() < r.rank()) {
                    self.amin2 = Some(p);
                }
            }
        }
    }

    /// The canonical conflicting pair, if this summary is a cross-block
    /// race: at least one write and accesses from at least two blocks.
    fn conflict(&self) -> Option<(Party, Party)> {
        let w = self.wmin?;
        let second = self.amin2?;
        let a = self.amin?;
        let other = if a.block_rank != w.block_rank { a } else { second };
        Some(if w.rank() <= other.rank() { (w, other) } else { (other, w) })
    }
}

/// How a counted global access touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalKind {
    Read,
    Write,
    Atomic,
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
    /// Findings go into the caller's lane-local `log`; the cross-block race
    /// fold is a separate per-launch step ([`LaunchSan::fold_global_access`])
    /// driven by [`crate::thread::ThreadCtx`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn global_access(
        &self,
        site: AccessSite<'_>,
        alloc_id: usize,
        alloc_label: &str,
        len: usize,
        freed: bool,
        index: usize,
        kind: GlobalKind,
        init_tracked_unwritten: bool,
        log: &mut DiagLog,
    ) -> bool {
        if self.tool_on(ToolMask::MEMCHECK) {
            if freed {
                log.push(
                    Diagnostic {
                        kind: DiagKind::UseAfterFree,
                        kernel: site.kernel.to_string(),
                        block: site.block,
                        thread: site.thread,
                        address: Some(index),
                        alloc: Some(alloc_label.to_string()),
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
                log.push(
                    Diagnostic {
                        kind: DiagKind::OutOfBounds,
                        kernel: site.kernel.to_string(),
                        block: site.block,
                        thread: site.thread,
                        address: Some(index),
                        alloc: Some(alloc_label.to_string()),
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
        if kind == GlobalKind::Read && init_tracked_unwritten && self.tool_on(ToolMask::INITCHECK) {
            log.push(
                Diagnostic {
                    kind: DiagKind::UninitGlobalRead,
                    kernel: site.kernel.to_string(),
                    block: site.block,
                    thread: site.thread,
                    address: Some(index),
                    alloc: Some(alloc_label.to_string()),
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
        alloc_label: &str,
        byte_offset: usize,
        align: usize,
        type_name: &str,
        log: &mut DiagLog,
    ) {
        if !self.tool_on(ToolMask::MEMCHECK) {
            return;
        }
        log.push(
            Diagnostic {
                kind: DiagKind::MisalignedAccess,
                kernel: site.kernel.to_string(),
                block: site.block,
                thread: site.thread,
                address: Some(byte_offset),
                alloc: Some(alloc_label.to_string()),
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

/// A lane's (or block scan's) diagnostic buffer staged for the canonical
/// launch-end merge.
struct StagedDiagLog {
    block_rank: usize,
    /// Thread-linear rank for lane logs; `u64::MAX` for the block-end scan
    /// so it sorts after every lane of its block.
    order: u64,
    diags: Vec<(Diagnostic, DedupKey)>,
}

/// Per-launch sanitizer context handed to the executor: the session, the
/// kernel's name for diagnostics, the staged per-lane diagnostic buffers,
/// and the cross-block global-race fold. Nothing reaches the shared
/// [`SanState`] until [`LaunchSan::finish`] merges everything in canonical
/// order, so the session's findings are bit-identical run to run no matter
/// how the OS schedules the blocks.
pub struct LaunchSan {
    pub(crate) state: Arc<SanState>,
    pub(crate) kernel: String,
    staged: Mutex<Vec<StagedDiagLog>>,
    /// Cross-block race fold: (alloc id, element) -> access summary.
    /// Per-launch (blocks are unordered only within a launch).
    cells: Mutex<HashMap<(usize, usize), GlobalCellFold>>,
}

impl LaunchSan {
    pub(crate) fn new(state: Arc<SanState>, kernel: &str) -> LaunchSan {
        LaunchSan {
            state,
            kernel: kernel.to_string(),
            staged: Mutex::new(Vec::new()),
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The session this launch reports into.
    pub fn state(&self) -> &SanState {
        &self.state
    }

    /// Kernel name for diagnostics.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Fold one plain (non-atomic, in-bounds) global access into the
    /// cross-block race summary. Commutative, so concurrent lanes may call
    /// it in any order.
    pub(crate) fn fold_global_access(
        &self,
        alloc_id: usize,
        alloc_label: &str,
        index: usize,
        party: Party,
    ) {
        let mut cells = self.cells.lock();
        let fold = cells.entry((alloc_id, index)).or_default();
        if fold.label.is_empty() {
            fold.label = alloc_label.to_string();
        }
        fold.offer(party);
    }

    /// Stage a lane's diagnostic buffer for the launch-end merge. Called
    /// once per lane when it finishes (including by panic unwinding).
    pub(crate) fn stage_lane(&self, block_rank: usize, thread_rank: usize, log: &mut DiagLog) {
        if log.is_empty() {
            return;
        }
        let log = std::mem::take(log);
        self.staged.lock().push(StagedDiagLog {
            block_rank,
            order: thread_rank as u64,
            diags: log.diags,
        });
    }

    /// Stage a block-end scan's diagnostics (shared-race fold results,
    /// barrier-divergence scan); they sort after every lane of the block.
    pub(crate) fn stage_block_scan(&self, block_rank: usize, log: DiagLog) {
        if log.is_empty() {
            return;
        }
        self.staged.lock().push(StagedDiagLog { block_rank, order: u64::MAX, diags: log.diags });
    }

    /// Merge everything into the session in canonical order: staged lane
    /// and block-scan buffers sorted by (block rank, thread rank), then the
    /// cross-block races sorted by (allocation, element). Called exactly
    /// once by the executor after all workers have stopped — including when
    /// the launch panicked, so partial findings are preserved.
    pub(crate) fn finish(&self) {
        let mut staged = std::mem::take(&mut *self.staged.lock());
        staged.sort_by_key(|a| (a.block_rank, a.order));
        for entry in staged {
            for (diag, key) in entry.diags {
                self.state.record(diag, key);
            }
        }

        let cells = std::mem::take(&mut *self.cells.lock());
        let mut keys: Vec<(usize, usize)> = cells.keys().copied().collect();
        keys.sort_unstable();
        for (alloc_id, index) in keys {
            let fold = &cells[&(alloc_id, index)];
            let Some((prev, cur)) = fold.conflict() else { continue };
            let label = &fold.label;
            self.state.record(
                Diagnostic {
                    kind: DiagKind::GlobalRace,
                    kernel: self.kernel.clone(),
                    block: cur.block,
                    thread: cur.thread,
                    address: Some(index),
                    alloc: Some(label.clone()),
                    message: format!(
                        "element {index} of {label} {} by block ({},{},{}) and {} by \
                         block ({},{},{}) in the same launch without atomics",
                        if prev.write { "written" } else { "read" },
                        prev.block.0,
                        prev.block.1,
                        prev.block.2,
                        if cur.write { "written" } else { "read" },
                        cur.block.0,
                        cur.block.1,
                        cur.block.2,
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
        let launch = LaunchSan::new(s.clone(), "k");
        let site = AccessSite { kernel: "k", block: (0, 0, 0), thread: (0, 0, 0), block_rank: 0 };
        let mut log = DiagLog::default();
        for _ in 0..3 {
            assert!(s.global_access(
                site,
                1,
                "buf",
                4,
                false,
                9,
                GlobalKind::Read,
                false,
                &mut log
            ));
        }
        launch.stage_lane(0, 0, &mut log);
        launch.finish();
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.diagnostics()[0].kind, DiagKind::OutOfBounds);
    }

    #[test]
    fn cross_lane_dedup_happens_at_merge() {
        // Two lanes independently hit the same OOB element: each lane log
        // records it, the session dedups at the canonical merge.
        let s = SanState::new(ToolMask::MEMCHECK);
        let launch = LaunchSan::new(s.clone(), "k");
        for lane in 0..2u32 {
            let site =
                AccessSite { kernel: "k", block: (0, 0, 0), thread: (lane, 0, 0), block_rank: 0 };
            let mut log = DiagLog::default();
            s.global_access(site, 1, "buf", 4, false, 9, GlobalKind::Write, false, &mut log);
            launch.stage_lane(0, lane as usize, &mut log);
        }
        launch.finish();
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

    fn party(block_rank: usize, thread_rank: usize, write: bool) -> Party {
        Party {
            block_rank,
            thread_rank,
            block: (block_rank as u32, 0, 0),
            thread: (thread_rank as u32, 0, 0),
            write,
        }
    }

    #[test]
    fn cross_block_race_requires_distinct_blocks_and_a_write() {
        let s = SanState::new(ToolMask::RACECHECK);
        // Read/read from two blocks: not a race.
        let launch = LaunchSan::new(s.clone(), "k");
        launch.fold_global_access(7, "buf", 3, party(0, 0, false));
        launch.fold_global_access(7, "buf", 3, party(1, 0, false));
        launch.finish();
        assert_eq!(s.finding_count(), 0);
        // Add a write from one of the blocks: race.
        let launch = LaunchSan::new(s.clone(), "k");
        launch.fold_global_access(7, "buf", 3, party(0, 0, false));
        launch.fold_global_access(7, "buf", 3, party(1, 0, false));
        launch.fold_global_access(7, "buf", 3, party(0, 0, true));
        launch.finish();
        assert_eq!(s.finding_count(), 1);
        // Same-block write/write in a fresh launch: not a cross-block race.
        let launch = LaunchSan::new(s.clone(), "k");
        launch.fold_global_access(7, "buf", 5, party(0, 0, true));
        launch.fold_global_access(7, "buf", 5, party(0, 1, true));
        launch.finish();
        assert_eq!(s.finding_count(), 1);
    }

    #[test]
    fn global_race_report_is_fold_order_independent() {
        let accesses =
            [party(3, 1, false), party(1, 0, true), party(2, 5, false), party(1, 2, false)];
        let mut messages = Vec::new();
        for order in [false, true] {
            let s = SanState::new(ToolMask::RACECHECK);
            let launch = LaunchSan::new(s.clone(), "k");
            let mut seq = accesses.to_vec();
            if order {
                seq.reverse();
            }
            for p in seq {
                launch.fold_global_access(9, "buf", 0, p);
            }
            launch.finish();
            let d = s.diagnostics();
            assert_eq!(d.len(), 1);
            messages.push(format!("{}", d[0]));
        }
        assert_eq!(messages[0], messages[1]);
        // The canonical pair: block 1's write vs block 2's read (the
        // lowest-ranked access outside block 1).
        assert!(messages[0].contains("written by block (1,0,0) and read by block (2,0,0)"));
    }
}
