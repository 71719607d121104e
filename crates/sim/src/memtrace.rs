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
//! The trace lives on the device like a sanitizer session
//! ([`crate::san`]), and both reach a launch through its one observer
//! (`crate::observe`): [`crate::thread::ThreadCtx`] records into the
//! lane's [`TraceLog`] from the same accessor methods the sanitizer
//! observes, the observer stages each retired lane's log with its
//! findings, and the trace part of the observer (`LaunchMemTrace`, which
//! carries the kernel name and the launch's sequence number) appends the
//! staged logs to the trace in canonical order at launch end. Local-memory
//! accesses (`lread`/`lwrite`) are *not* traced: local arrays are private
//! to one thread and cannot race or go out of bounds at the buffer level.

use crate::observe::Staged;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which address space an event touched.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory: the allocation's id and diagnostic label (one
    /// shared string per allocation and launch).
    Global { alloc_id: usize, label: Arc<str> },
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
    /// Kernel the access executed in (one shared string per launch).
    pub kernel: Arc<str>,
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
    /// Kernel the barrier executed in (one shared string per launch).
    pub kernel: Arc<str>,
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

/// Where a lane-local access went: a global allocation's id or a shared
/// slot. The launch-end merge turns it into a [`MemSpace`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneSpace {
    Global(usize),
    Shared(usize),
}

/// One access in a lane-local trace buffer: a [`MemEvent`] without the
/// fields that are the same for the whole lane or launch.
#[derive(Debug)]
struct LaneAccess {
    space: LaneSpace,
    index: usize,
    kind: MemAccessKind,
    phase: u32,
}

/// A lane-local trace buffer. [`crate::thread::ThreadCtx`] records into it
/// in program order with no locking; the launch's observer stages each
/// lane's buffer when the lane finishes, and [`LaunchMemTrace::finish`]
/// appends all staged buffers to the shared trace in canonical
/// (block-rank, thread-rank) order — so the trace bytes are identical run
/// to run no matter how the OS interleaves the lanes.
///
/// The buffer holds only what varies per access (and each barrier's
/// ordinal); the merge stamps the lane's coordinates, the launch identity
/// and each allocation's label, so no string is cloned on the hot path.
#[derive(Debug, Default)]
pub(crate) struct TraceLog {
    events: Vec<LaneAccess>,
    barriers: Vec<u32>,
    truncated: bool,
}

impl TraceLog {
    pub(crate) fn push_access(
        &mut self,
        space: LaneSpace,
        index: usize,
        kind: MemAccessKind,
        phase: u32,
    ) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(LaneAccess { space, index, kind, phase });
        } else {
            self.truncated = true;
        }
    }

    /// Record the lane's barrier number `ordinal` (zero-based).
    pub(crate) fn push_barrier(&mut self, ordinal: u32) {
        if self.barriers.len() < MAX_EVENTS {
            self.barriers.push(ordinal);
        } else {
            self.truncated = true;
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty() && self.barriers.is_empty() && !self.truncated
    }
}

/// Per-launch trace part of the launch's observer
/// ([`crate::observe::Observer`]): the trace, the kernel's name and the
/// launch's sequence number.
pub(crate) struct LaunchMemTrace {
    trace: Arc<MemTrace>,
    kernel: Arc<str>,
    launch: u64,
}

impl LaunchMemTrace {
    pub(crate) fn new(trace: Arc<MemTrace>, kernel: &str) -> LaunchMemTrace {
        let launch = trace.launches.fetch_add(1, Ordering::Relaxed);
        LaunchMemTrace { trace, kernel: kernel.into(), launch }
    }

    /// Append the staged lane logs, already in canonical (block-rank,
    /// thread-rank) order, to the shared trace, stamping the lane
    /// coordinates, the launch identity and the allocation labels. Called
    /// exactly once after all workers have stopped.
    pub(crate) fn finish(&self, staged: &mut [Staged]) {
        let mut events = self.trace.events.lock();
        let mut barriers = self.trace.barriers.lock();
        // Reserve the launch's events up front: growing the shared trace
        // one push at a time leaves each outgrown buffer behind as free heap.
        let more: usize = staged.iter().map(|s| s.trace.events.len()).sum();
        let room = MAX_EVENTS.saturating_sub(events.len());
        events.reserve(more.min(room));
        let more: usize = staged.iter().map(|s| s.trace.barriers.len()).sum();
        let room = MAX_EVENTS.saturating_sub(barriers.len());
        barriers.reserve(more.min(room));
        // One label per allocation the launch touched; a launch touches few.
        let mut labels: Vec<(usize, Arc<str>)> = Vec::new();
        let mut label = |alloc_id: usize| -> Arc<str> {
            if let Some((_, l)) = labels.iter().find(|(id, _)| *id == alloc_id) {
                return Arc::clone(l);
            }
            let l = crate::mem::label_of(alloc_id);
            labels.push((alloc_id, Arc::clone(&l)));
            l
        };
        let mut truncated = false;
        for lane in staged {
            let (block, thread) = (lane.block, lane.thread);
            let log = std::mem::take(&mut lane.trace);
            truncated |= log.truncated;
            truncated |= append_capped(
                &mut events,
                log.events.into_iter().map(|a| MemEvent {
                    kernel: Arc::clone(&self.kernel),
                    launch: self.launch,
                    block,
                    thread,
                    space: match a.space {
                        LaneSpace::Global(alloc_id) => {
                            MemSpace::Global { alloc_id, label: label(alloc_id) }
                        }
                        LaneSpace::Shared(slot) => MemSpace::Shared { slot },
                    },
                    index: a.index,
                    kind: a.kind,
                    phase: a.phase,
                }),
            );
            truncated |= append_capped(
                &mut barriers,
                log.barriers.into_iter().map(|ordinal| BarrierEvent {
                    kernel: Arc::clone(&self.kernel),
                    launch: self.launch,
                    block,
                    thread,
                    ordinal,
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
    use crate::observe::{LaneLog, Observer};
    use crate::san::RaceFold;
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
        assert!(events.iter().all(|e| &*e.kernel == "copy"));
        // A barrier-free kernel records every access in segment 0 of launch 0.
        assert!(events.iter().all(|e| e.phase == 0 && e.launch == 0));
        assert!(trace.barrier_events().is_empty());
        assert!(events
            .iter()
            .all(|e| matches!(e.space, MemSpace::Global { alloc_id, .. } if alloc_id == a.alloc_id() || alloc_id == b.alloc_id())));
    }

    #[test]
    fn kernel_and_labels_are_one_string_per_launch_and_allocation() {
        let d = Device::new(DeviceProfile::test_small());
        let a = d.alloc_from(&[1u32; 4]);
        a.set_label("input");
        let b = d.alloc::<u32>(4);
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
        let labels: Vec<(usize, Arc<str>)> = events
            .iter()
            .map(|e| match &e.space {
                MemSpace::Global { alloc_id, label } => (*alloc_id, Arc::clone(label)),
                MemSpace::Shared { .. } => unreachable!("the kernel touches global memory only"),
            })
            .collect();
        let unlabeled = format!("alloc#{}", b.alloc_id());
        for (id, label) in &labels {
            let (want, first) = if *id == a.alloc_id() {
                ("input", &labels[0].1)
            } else {
                (&*unlabeled, &labels[1].1)
            };
            assert_eq!(&**label, want);
            assert!(Arc::ptr_eq(label, first), "one label string per allocation");
        }
        assert!(events.iter().all(|e| Arc::ptr_eq(&e.kernel, &events[0].kernel)));
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
        let obs = Observer::new(None, Some(Arc::clone(&trace)), "k").expect("a trace is attached");
        let mut log = LaneLog::default();
        log.trace.push_access(LaneSpace::Shared(0), 0, MemAccessKind::Write, 0);
        log.trace.push_barrier(0);
        obs.stage_lane((0, 0), (0, 0, 0), (0, 0, 0), &mut log, &mut RaceFold::new(1));
        obs.finish(&LaunchConfig::new(1u32, 1u32));
        let (events, barriers) = trace.take_events();
        assert_eq!((events.len(), barriers.len()), (1, 1));
        assert!(events.iter().all(|e| &*e.kernel == "k"));
        assert!(barriers.iter().all(|b| &*b.kernel == "k"));
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
