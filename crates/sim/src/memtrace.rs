//! Memory-access tracing: the replay data plane for `ompx-analyzer`.
//!
//! While a [`MemTrace`] is attached to a [`crate::device::Device`], every
//! counted global- and shared-memory access made by every simulated thread
//! is recorded as a [`MemEvent`]. The static verifier's *replay validation*
//! mode drives a kernel on a small concrete grid with a trace attached and
//! then checks that its declared access summary predicts every observed
//! event — the mechanism by which hand-written summaries are validated
//! rather than trusted (see `crates/analyzer`).
//!
//! Each event also carries its *barrier context*: the launch sequence
//! number (several launches of the same kernel share one trace) and the
//! number of block barriers the accessing thread had executed when the
//! access happened. Barrier executions themselves are recorded as
//! [`BarrierEvent`]s. Together these let the analyzer validate barrier
//! *ordering* — which phase ran between which barriers — and let summary
//! extraction reconstruct barrier-delimited phases from a raw trace.
//!
//! The hook mirrors the sanitizer attachment pattern ([`crate::san`]): the
//! trace lives on the device, each launch wraps it in a [`LaunchMemTrace`]
//! carrying the kernel name, and [`crate::thread::ThreadCtx`] records into
//! it from the same accessor methods the sanitizer observes. Local-memory
//! accesses (`lread`/`lwrite`) are *not* traced: local arrays are private
//! to one thread and cannot race or go out of bounds at the buffer level.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which address space an event touched.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory: the allocation's id and diagnostic label.
    Global { alloc_id: usize, label: String },
    /// Block shared memory: the launch-config slot index.
    Shared { slot: usize },
}

/// How the access touched memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    Read,
    Write,
    Atomic,
}

/// One recorded memory access by one simulated thread.
#[derive(Debug, Clone)]
pub struct MemEvent {
    /// Kernel the access executed in.
    pub kernel: String,
    /// Sequence number of the launch within the trace (several launches of
    /// the same kernel may share one attached trace).
    pub launch: u64,
    /// Block coordinates of the accessing thread.
    pub block: (u32, u32, u32),
    /// Thread coordinates within the block.
    pub thread: (u32, u32, u32),
    /// Address space and target.
    pub space: MemSpace,
    /// Element index within the buffer or slot.
    pub index: usize,
    /// Read, write, or atomic.
    pub kind: MemAccessKind,
    /// Block barriers the accessing thread had executed before this access
    /// — the access's barrier-delimited segment within its launch.
    pub phase: u32,
}

/// One block-barrier execution by one simulated thread.
#[derive(Debug, Clone)]
pub struct BarrierEvent {
    /// Kernel the barrier executed in.
    pub kernel: String,
    /// Sequence number of the launch within the trace.
    pub launch: u64,
    /// Block coordinates of the thread.
    pub block: (u32, u32, u32),
    /// Thread coordinates within the block.
    pub thread: (u32, u32, u32),
    /// Zero-based ordinal of this barrier for this thread within the
    /// launch (how many barriers the thread had executed before it).
    pub ordinal: u32,
}

/// Cap on recorded events, bounding a runaway kernel's trace. Replay runs
/// use deliberately tiny grids, so hitting the cap means the harness is
/// misconfigured; [`MemTrace::truncated`] exposes the condition.
const MAX_EVENTS: usize = 4_000_000;

/// A device-attached memory-access trace (see [`crate::device::Device`]'s
/// `attach_mem_trace`).
pub struct MemTrace {
    events: Mutex<Vec<MemEvent>>,
    barriers: Mutex<Vec<BarrierEvent>>,
    truncated: AtomicBool,
    launches: AtomicU64,
}

impl MemTrace {
    /// Fresh, empty trace.
    pub fn new() -> Arc<MemTrace> {
        Arc::new(MemTrace {
            events: Mutex::new(Vec::new()),
            barriers: Mutex::new(Vec::new()),
            truncated: AtomicBool::new(false),
            launches: AtomicU64::new(0),
        })
    }

    /// Copy of the events recorded so far. Per-lane streams are merged in
    /// canonical (block-rank, thread-rank, program-order) order as each
    /// launch completes, so the trace is byte-stable across runs and
    /// worker counts.
    pub fn events(&self) -> Vec<MemEvent> {
        self.events.lock().clone()
    }

    /// Copy of the barrier executions recorded so far.
    pub fn barrier_events(&self) -> Vec<BarrierEvent> {
        self.barriers.lock().clone()
    }

    /// Move the memory events out, leaving the trace empty. Barrier events
    /// are cleared too: a consumer draining a launch must not leak that
    /// launch's stale barrier context into the next analysis.
    pub fn drain(&self) -> Vec<MemEvent> {
        let events = std::mem::take(&mut *self.events.lock());
        self.barriers.lock().clear();
        events
    }

    /// Move both event streams out, leaving the trace empty.
    pub fn take_events(&self) -> (Vec<MemEvent>, Vec<BarrierEvent>) {
        (std::mem::take(&mut *self.events.lock()), std::mem::take(&mut *self.barriers.lock()))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// True when the event cap was hit and events were dropped.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Relaxed)
    }
}

/// Append `items` to `out` up to the [`MAX_EVENTS`] cap, reporting whether
/// any were dropped.
fn append_capped<T>(out: &mut Vec<T>, items: impl ExactSizeIterator<Item = T>) -> bool {
    let room = MAX_EVENTS.saturating_sub(out.len());
    let dropped = items.len() > room;
    out.extend(items.take(room));
    dropped
}

/// A lane-local trace buffer. [`crate::thread::ThreadCtx`] records into it
/// in program order with no locking; the executor stages each lane's buffer
/// when the lane finishes, and [`LaunchMemTrace::finish`] merges all staged
/// buffers into the shared trace in canonical (block-rank, thread-rank)
/// order — so the trace bytes are identical run to run no matter how the
/// OS interleaves the lanes.
///
/// Events are buffered with empty `kernel` / zero `launch` fields; the
/// merge stamps the launch identity once, avoiding a per-event string clone
/// on the hot path.
#[derive(Debug, Default)]
pub(crate) struct TraceLog {
    events: Vec<MemEvent>,
    barriers: Vec<BarrierEvent>,
    truncated: bool,
}

impl TraceLog {
    pub(crate) fn push_event(&mut self, event: MemEvent) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        } else {
            self.truncated = true;
        }
    }

    pub(crate) fn push_barrier(&mut self, event: BarrierEvent) {
        if self.barriers.len() < MAX_EVENTS {
            self.barriers.push(event);
        } else {
            self.truncated = true;
        }
    }

    fn is_empty(&self) -> bool {
        self.events.is_empty() && self.barriers.is_empty() && !self.truncated
    }
}

/// One lane's trace buffer staged for the canonical launch-end merge.
struct StagedLane {
    block_rank: usize,
    thread_rank: usize,
    log: TraceLog,
}

/// Per-launch trace context handed to the executor: the trace, the
/// kernel's name, the launch's sequence number, and the staged per-lane
/// buffers awaiting the canonical merge.
pub struct LaunchMemTrace {
    trace: Arc<MemTrace>,
    kernel: String,
    launch: u64,
    staged: Mutex<Vec<StagedLane>>,
}

impl LaunchMemTrace {
    pub(crate) fn new(trace: Arc<MemTrace>, kernel: &str) -> LaunchMemTrace {
        let launch = trace.launches.fetch_add(1, Ordering::Relaxed);
        LaunchMemTrace { trace, kernel: kernel.to_string(), launch, staged: Mutex::new(Vec::new()) }
    }

    /// Stage a finished lane's buffer for the launch-end merge. Called once
    /// per lane (including when the lane is unwound by a panic, so partial
    /// traces survive).
    pub(crate) fn stage_lane(&self, block_rank: usize, thread_rank: usize, log: &mut TraceLog) {
        if log.is_empty() {
            return;
        }
        let log = std::mem::take(log);
        self.staged.lock().push(StagedLane { block_rank, thread_rank, log });
    }

    /// Merge every staged lane into the shared trace in canonical
    /// (block-rank, thread-rank) order, stamping the launch identity.
    /// Called exactly once by the executor after all workers have stopped.
    pub(crate) fn finish(&self) {
        let mut staged = std::mem::take(&mut *self.staged.lock());
        staged.sort_by_key(|s| (s.block_rank, s.thread_rank));
        let mut events = self.trace.events.lock();
        let mut barriers = self.trace.barriers.lock();
        // Reserve the launch's events up front: growing the shared trace
        // one push at a time leaves each outgrown buffer behind as free heap.
        let more: usize = staged.iter().map(|s| s.log.events.len()).sum();
        let room = MAX_EVENTS.saturating_sub(events.len());
        events.reserve(more.min(room));
        let more: usize = staged.iter().map(|s| s.log.barriers.len()).sum();
        let room = MAX_EVENTS.saturating_sub(barriers.len());
        barriers.reserve(more.min(room));
        let mut truncated = false;
        for lane in staged {
            truncated |= lane.log.truncated;
            truncated |= append_capped(
                &mut events,
                lane.log.events.into_iter().map(|mut e| {
                    e.kernel = self.kernel.clone();
                    e.launch = self.launch;
                    e
                }),
            );
            truncated |= append_capped(
                &mut barriers,
                lane.log.barriers.into_iter().map(|mut b| {
                    b.kernel = self.kernel.clone();
                    b.launch = self.launch;
                    b
                }),
            );
        }
        if truncated {
            self.trace.truncated.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceProfile};
    use crate::dim::LaunchConfig;
    use crate::exec::Kernel;
    use crate::thread::ThreadCtx;

    #[test]
    fn trace_records_global_reads_and_writes() {
        let d = Device::new(DeviceProfile::test_small());
        let a = d.alloc_from(&[1.0f32, 2.0, 3.0, 4.0]);
        let b = d.alloc::<f32>(4);
        let trace = MemTrace::new();
        d.attach_mem_trace(Arc::clone(&trace));
        let k = Kernel::new("copy", {
            let (a, b) = (a.clone(), b.clone());
            move |tc: &mut ThreadCtx| {
                let i = tc.global_thread_id_x();
                let v = tc.read(&a, i);
                tc.write(&b, i, v);
            }
        });
        d.launch(&k, LaunchConfig::linear(4, 2)).unwrap();
        d.detach_mem_trace();
        let events = trace.events();
        assert_eq!(events.len(), 8);
        let reads = events.iter().filter(|e| e.kind == MemAccessKind::Read).count();
        let writes = events.iter().filter(|e| e.kind == MemAccessKind::Write).count();
        assert_eq!((reads, writes), (4, 4));
        assert!(events.iter().all(|e| e.kernel == "copy"));
        // A barrier-free kernel records every access in segment 0 of launch 0.
        assert!(events.iter().all(|e| e.phase == 0 && e.launch == 0));
        assert!(trace.barrier_events().is_empty());
        assert!(events
            .iter()
            .all(|e| matches!(e.space, MemSpace::Global { alloc_id, .. } if alloc_id == a.alloc_id() || alloc_id == b.alloc_id())));
    }

    #[test]
    fn trace_records_shared_accesses_with_slot() {
        let d = Device::new(DeviceProfile::test_small());
        let trace = MemTrace::new();
        d.attach_mem_trace(Arc::clone(&trace));
        let mut cfg = LaunchConfig::new(1u32, 4u32);
        let slot = cfg.shared_array::<u32>(4);
        let k = Kernel::with_flags(
            "stage",
            crate::exec::KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            move |tc: &mut ThreadCtx| {
                let tile = tc.shared::<u32>(slot);
                let t = tc.thread_rank();
                tc.swrite(&tile, t, t as u32);
                tc.sync_threads();
                let _ = tc.sread(&tile, (t + 1) % 4);
            },
        );
        d.launch(&k, cfg).unwrap();
        d.detach_mem_trace();
        let events = trace.events();
        assert_eq!(events.len(), 8);
        assert!(events.iter().all(|e| e.space == MemSpace::Shared { slot }));
        // Writes happened before the barrier (segment 0), reads after
        // (segment 1) — the phase counter separates them.
        assert!(events.iter().all(|e| e.phase == u32::from(e.kind == MemAccessKind::Read)));
        // One barrier execution per thread, all the thread's first.
        let barriers = trace.barrier_events();
        assert_eq!(barriers.len(), 4);
        assert!(barriers.iter().all(|b| b.ordinal == 0 && b.launch == 0));
    }

    #[test]
    fn launch_ids_separate_back_to_back_launches() {
        let d = Device::new(DeviceProfile::test_small());
        let a = d.alloc::<u32>(4);
        let trace = MemTrace::new();
        d.attach_mem_trace(Arc::clone(&trace));
        let k = Kernel::new("w", {
            let a = a.clone();
            move |tc: &mut ThreadCtx| {
                let i = tc.global_thread_id_x();
                tc.write(&a, i, 1);
            }
        });
        d.launch(&k, LaunchConfig::linear(4, 2)).unwrap();
        d.launch(&k, LaunchConfig::linear(4, 2)).unwrap();
        d.detach_mem_trace();
        let launches: std::collections::BTreeSet<u64> =
            trace.events().iter().map(|e| e.launch).collect();
        assert_eq!(launches.len(), 2);
    }

    #[test]
    fn drain_clears_barrier_events_too() {
        let d = Device::new(DeviceProfile::test_small());
        let trace = MemTrace::new();
        d.attach_mem_trace(Arc::clone(&trace));
        let mut cfg = LaunchConfig::new(1u32, 4u32);
        let slot = cfg.shared_array::<u32>(4);
        let k = Kernel::with_flags(
            "stage",
            crate::exec::KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            move |tc: &mut ThreadCtx| {
                let tile = tc.shared::<u32>(slot);
                let t = tc.thread_rank();
                tc.swrite(&tile, t, t as u32);
                tc.sync_threads();
            },
        );
        d.launch(&k, cfg).unwrap();
        d.detach_mem_trace();
        assert!(!trace.barrier_events().is_empty());
        let drained = trace.drain();
        assert!(!drained.is_empty());
        // The drained launch's barrier context must not leak into the next
        // analysis.
        assert!(trace.barrier_events().is_empty());
        assert!(trace.is_empty());
    }

    #[test]
    fn take_events_moves_both_streams() {
        let trace = MemTrace::new();
        let launch = LaunchMemTrace::new(Arc::clone(&trace), "k");
        let mut log = TraceLog::default();
        log.push_event(MemEvent {
            kernel: String::new(),
            launch: 0,
            block: (0, 0, 0),
            thread: (0, 0, 0),
            space: MemSpace::Shared { slot: 0 },
            index: 0,
            kind: MemAccessKind::Write,
            phase: 0,
        });
        log.push_barrier(BarrierEvent {
            kernel: String::new(),
            launch: 0,
            block: (0, 0, 0),
            thread: (0, 0, 0),
            ordinal: 0,
        });
        launch.stage_lane(0, 0, &mut log);
        launch.finish();
        let (events, barriers) = trace.take_events();
        assert_eq!((events.len(), barriers.len()), (1, 1));
        assert!(events.iter().all(|e| e.kernel == "k"));
        assert!(barriers.iter().all(|b| b.kernel == "k"));
        assert!(trace.is_empty());
        assert!(trace.barrier_events().is_empty());
    }

    #[test]
    fn detached_launches_record_nothing() {
        let d = Device::new(DeviceProfile::test_small());
        let a = d.alloc::<u32>(4);
        let trace = MemTrace::new();
        d.attach_mem_trace(Arc::clone(&trace));
        d.detach_mem_trace();
        let k = Kernel::new("w", {
            let a = a.clone();
            move |tc: &mut ThreadCtx| {
                let i = tc.global_thread_id_x();
                tc.write(&a, i, 1);
            }
        });
        d.launch(&k, LaunchConfig::linear(4, 2)).unwrap();
        assert!(trace.is_empty());
        assert!(!trace.truncated());
    }
}
