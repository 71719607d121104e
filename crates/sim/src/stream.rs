//! Streams and events: in-order asynchronous work queues.
//!
//! A stream (§2.4 of the paper) is an ordered queue of device operations;
//! operations in one stream run in sequence, operations in different streams
//! may overlap. The OpenMP side of the reproduction builds on this: an
//! `omp_interop_t` initialized with `targetsync` wraps one of these streams,
//! and the paper's extended `depend(interopobj: obj)` clause enqueues a
//! `nowait` target region into it (§3.5).
//!
//! Each stream owns a host worker thread that drains its queue, so `nowait`
//! work is *really* asynchronous with respect to the submitting thread —
//! the same observable behaviour as CUDA streams, minus the silicon.

use crate::device::Device;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

type Work = Box<dyn FnOnce() + Send>;

/// Process-wide stream id allocator: ids name per-stream tracks in
/// profiler timelines and stay unique for the life of the process.
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

/// Utilization/overlap counters of one stream, as a plain snapshot — the
/// public stats API `ompx-prof` reports stream overlap from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Process-unique stream id (profiler track id).
    pub id: u64,
    /// Operations enqueued over the stream's lifetime.
    pub submitted: u64,
    /// Operations fully executed.
    pub completed: u64,
    /// Operations still pending.
    pub pending: u64,
    /// Modeled device-busy seconds accumulated on this stream.
    pub modeled_busy_s: f64,
    /// True when an enqueued operation panicked (sticky error).
    pub poisoned: bool,
}

pub(crate) struct StreamInner {
    id: u64,
    queue: Mutex<VecDeque<Work>>,
    cv: Condvar,
    /// Number of operations enqueued over the stream's lifetime.
    submitted: AtomicU64,
    /// Number of operations fully executed.
    completed: AtomicU64,
    shutdown: AtomicBool,
    /// Set when an enqueued operation panicked: the stream is poisoned
    /// (CUDA's sticky-error model) and the failure surfaces at the next
    /// synchronize.
    poisoned: AtomicBool,
    /// Modeled timeline: seconds of modeled device time accumulated by the
    /// operations executed on this stream.
    modeled_busy_s: Mutex<f64>,
}

impl StreamInner {
    fn new() -> Arc<Self> {
        Arc::new(StreamInner {
            id: NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            modeled_busy_s: Mutex::new(0.0),
        })
    }

    fn worker(self: &Arc<Self>) {
        loop {
            let work = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(w) = q.pop_front() {
                        break w;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    self.cv.wait(&mut q);
                }
            };
            // A panicking operation (simulated device assert, detected race,
            // out-of-bounds access) must not kill the worker — that would
            // wedge every later synchronize()/Event::wait() forever. Catch,
            // mark the stream poisoned (CUDA's sticky-error model), keep
            // draining; the failure surfaces at the next synchronize.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).is_err() {
                self.poisoned.store(true, Ordering::Release);
            }
            self.completed.fetch_add(1, Ordering::Release);
            // Wake synchronizers (they wait on the queue condvar too).
            let _q = self.queue.lock();
            self.cv.notify_all();
        }
    }

    /// Wait until every submitted operation has completed. Panics if any
    /// operation panicked (the stream is poisoned — sticky-error model).
    pub(crate) fn drain(self: &Arc<Self>) {
        let mut q = self.queue.lock();
        while self.completed.load(Ordering::Acquire) < self.submitted.load(Ordering::Acquire) {
            self.cv.wait(&mut q);
        }
        drop(q);
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "stream poisoned: an enqueued operation panicked (see earlier output)"
        );
    }

    /// Utilization snapshot (see [`StreamStats`]).
    pub(crate) fn stats(&self) -> StreamStats {
        // Load `completed` before `submitted` so the pending difference
        // cannot underflow (same reasoning as `Stream::pending`).
        let completed = self.completed.load(Ordering::Acquire);
        let submitted = self.submitted.load(Ordering::Acquire);
        StreamStats {
            id: self.id,
            submitted,
            completed,
            pending: submitted.saturating_sub(completed),
            modeled_busy_s: *self.modeled_busy_s.lock(),
            poisoned: self.poisoned.load(Ordering::Acquire),
        }
    }
}

/// Shutdown guard: stops the worker thread when the last user-held handle
/// to the stream is dropped.
struct StreamOwner {
    inner: Arc<StreamInner>,
}

impl Drop for StreamOwner {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let _q = self.inner.queue.lock();
        self.inner.cv.notify_all();
    }
}

/// An in-order asynchronous work queue on a device (a CUDA/HIP stream).
///
/// Cloning yields another handle to the *same* queue (device-pointer
/// semantics, like `cudaStream_t`); the worker shuts down when the last
/// handle is dropped.
#[derive(Clone)]
pub struct Stream {
    inner: Arc<StreamInner>,
    _owner: Arc<StreamOwner>,
    device: Device,
}

impl Stream {
    /// Create a stream on `device`; spawns the stream's worker thread.
    pub fn new(device: &Device) -> Self {
        let inner = StreamInner::new();
        device.inner.streams.lock().push(Arc::downgrade(&inner));
        {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sim-stream".into())
                .spawn(move || inner.worker())
                .expect("failed to spawn stream worker");
        }
        let owner = Arc::new(StreamOwner { inner: Arc::clone(&inner) });
        Stream { inner, _owner: owner, device: device.clone() }
    }

    /// The device this stream belongs to.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Enqueue an arbitrary operation; it runs after everything already in
    /// the queue. Returns immediately.
    pub fn enqueue(&self, op: impl FnOnce() + Send + 'static) {
        self.inner.submitted.fetch_add(1, Ordering::AcqRel);
        let mut q = self.inner.queue.lock();
        q.push_back(Box::new(op));
        self.inner.cv.notify_all();
    }

    /// Add modeled device-busy seconds to the stream's timeline *and*
    /// record a named span at the position the work occupied, if a
    /// profiler span log is installed ([`crate::span::SpanLog::install`]).
    /// `flow_in` ties the span to the host-side submission that enqueued
    /// it. This is the one way work lands on a stream's timeline: the
    /// launch pipeline calls it for kernel bars
    /// ([`crate::device::KernelBar::Stream`]), the runtimes for async
    /// copies.
    pub fn add_modeled_span(
        &self,
        name: &str,
        cat: crate::span::SpanCategory,
        seconds: f64,
        bytes: u64,
        flow_in: Option<u64>,
    ) {
        let start_s = {
            let mut busy = self.inner.modeled_busy_s.lock();
            let start = *busy;
            *busy += seconds;
            start
        };
        if let Some(log) = crate::span::active() {
            log.stream_span(self.inner.id, name, cat, start_s, seconds, bytes, flow_in);
        }
    }

    /// Total modeled device-busy seconds accumulated on this stream.
    pub fn modeled_busy_seconds(&self) -> f64 {
        *self.inner.modeled_busy_s.lock()
    }

    /// Process-unique stream id (names this stream's profiler track).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Utilization/overlap counters as a plain snapshot.
    pub fn stats(&self) -> StreamStats {
        self.inner.stats()
    }

    /// Block until the queue is empty, then roll the stream-synchronize
    /// fault site (`cudaStreamSynchronize` with an error code). Panics if
    /// an enqueued operation panicked: stream poisoning stands for a
    /// simulated-*program* bug (device assert, detected race) and stays
    /// deliberately fatal — it is not an injectable fault.
    pub fn try_synchronize(&self) -> crate::error::SimResult<()> {
        self.inner.drain();
        match self.device.roll_stream_fault(self.inner.id) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Block until the queue is empty (`cudaStreamSynchronize`). Injected
    /// faults are retried under the device's policy; if retries are
    /// exhausted the sync degrades — the queue *is* drained by then, only
    /// the modeled completion handshake failed — and the error stays
    /// recorded as sticky device state.
    pub fn synchronize(&self) {
        let policy = self.device.retry_policy();
        let result = crate::fault::run_with_retry(&self.device, &policy, "stream sync", || {
            self.try_synchronize()
        });
        if result.is_err() {
            if let Some(f) = self.device.faults() {
                f.note_degraded("stream sync");
            }
        }
    }

    /// Record an event capturing the work submitted so far
    /// (`cudaEventRecord`). When the event fires it also captures the
    /// stream's modeled device timeline, so two events measure modeled
    /// elapsed time like `cudaEventElapsedTime` (the timer most HeCBench
    /// kernels report with).
    pub fn record_event(&self) -> Event {
        let event = Event::new();
        let flag = Arc::clone(&event.flag);
        let stamp = Arc::clone(&event.modeled_at);
        let inner = Arc::clone(&self.inner);
        self.enqueue(move || {
            *stamp.lock() = Some(*inner.modeled_busy_s.lock());
            let (lock, cv) = &*flag;
            *lock.lock() = true;
            cv.notify_all();
        });
        event
    }

    /// Number of operations still pending.
    pub fn pending(&self) -> u64 {
        // Load `completed` first: it only grows after its matching
        // `submitted` increment, so this snapshot order (plus the
        // saturating subtraction) cannot underflow when another thread
        // enqueues-and-completes between the two loads.
        let completed = self.inner.completed.load(Ordering::Acquire);
        let submitted = self.inner.submitted.load(Ordering::Acquire);
        submitted.saturating_sub(completed)
    }

    /// True when an enqueued operation panicked (sticky error).
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stream(dev={}, pending={})", self.device.id(), self.pending())
    }
}

/// A completion marker within a stream (`cudaEvent_t`).
#[derive(Clone)]
pub struct Event {
    flag: Arc<(Mutex<bool>, Condvar)>,
    /// Stream's modeled device-busy seconds at the moment the event fired.
    modeled_at: Arc<Mutex<Option<f64>>>,
}

impl Event {
    fn new() -> Self {
        Event {
            flag: Arc::new((Mutex::new(false), Condvar::new())),
            modeled_at: Arc::new(Mutex::new(None)),
        }
    }

    /// True once all work preceding the event has completed.
    pub fn query(&self) -> bool {
        *self.flag.0.lock()
    }

    /// Block until the event has completed (`cudaEventSynchronize`).
    pub fn wait(&self) {
        let (lock, cv) = &*self.flag;
        let mut done = lock.lock();
        while !*done {
            cv.wait(&mut done);
        }
    }

    /// The stream's modeled timeline position when this event fired;
    /// `None` until the event completes.
    pub fn modeled_timestamp(&self) -> Option<f64> {
        *self.modeled_at.lock()
    }

    /// `cudaEventElapsedTime`: modeled seconds of device work between two
    /// events recorded on the same stream. Panics if either event has not
    /// fired (call [`Event::wait`] first).
    pub fn modeled_elapsed_since(&self, start: &Event) -> f64 {
        let end = self.modeled_timestamp().expect("end event has not fired");
        let begin = start.modeled_timestamp().expect("start event has not fired");
        end - begin
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event(done={})", self.query())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::span::SpanCategory;
    use std::sync::atomic::AtomicUsize;

    fn dev() -> Device {
        Device::new(DeviceProfile::test_small())
    }

    #[test]
    fn operations_execute_in_order() {
        let d = dev();
        let s = Stream::new(&d);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50 {
            let log = Arc::clone(&log);
            s.enqueue(move || log.lock().push(i));
        }
        s.synchronize();
        assert_eq!(*log.lock(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn enqueue_returns_before_completion() {
        let d = dev();
        let s = Stream::new(&d);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let ran = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            s.enqueue(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                ran.store(true, Ordering::SeqCst);
            });
        }
        // The op is blocked on the gate, so it cannot have run yet.
        assert!(!ran.load(Ordering::SeqCst));
        assert_eq!(s.pending(), 1);
        *gate.0.lock() = true;
        gate.1.notify_all();
        s.synchronize();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn events_mark_points_in_the_queue() {
        let d = dev();
        let s = Stream::new(&d);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            s.enqueue(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let ev = s.record_event();
        ev.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert!(ev.query());
    }

    #[test]
    fn independent_streams_can_overlap() {
        let d = dev();
        let s1 = Stream::new(&d);
        let s2 = Stream::new(&d);
        // s1's op waits for s2's op to run first — only possible if the two
        // streams execute concurrently.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            s1.enqueue(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            });
        }
        {
            let gate = Arc::clone(&gate);
            s2.enqueue(move || {
                *gate.0.lock() = true;
                gate.1.notify_all();
            });
        }
        s1.synchronize();
        s2.synchronize();
    }

    #[test]
    fn device_synchronize_drains_all_streams() {
        let d = dev();
        let s1 = Stream::new(&d);
        let s2 = Stream::new(&d);
        let counter = Arc::new(AtomicUsize::new(0));
        for s in [&s1, &s2] {
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                s.enqueue(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        d.synchronize();
        assert_eq!(counter.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn stats_snapshot_tracks_utilization() {
        let d = dev();
        let s = Stream::new(&d);
        let s2 = Stream::new(&d);
        assert_ne!(s.id(), s2.id(), "stream ids are process-unique");
        for _ in 0..4 {
            let s3 = s.clone();
            s.enqueue(move || s3.add_modeled_span("k", SpanCategory::Kernel, 1e-3, 0, None));
        }
        s.synchronize();
        let st = s.stats();
        assert_eq!(st.id, s.id());
        assert_eq!(st.submitted, 4);
        assert_eq!(st.completed, 4);
        assert_eq!(st.pending, 0);
        assert!(!st.poisoned);
        assert!((st.modeled_busy_s - 4e-3).abs() < 1e-12);
        // Untouched stream: all zero.
        let st2 = s2.stats();
        assert_eq!((st2.submitted, st2.completed, st2.pending), (0, 0, 0));
        assert_eq!(st2.modeled_busy_s, 0.0);
    }

    #[test]
    fn add_modeled_span_records_to_installed_log() {
        use crate::span::{SpanLog, Track};
        let d = dev();
        let s = Stream::new(&d);
        let log = SpanLog::new();
        let prev = SpanLog::install(Arc::clone(&log));
        s.add_modeled_span("k1", SpanCategory::Kernel, 2e-3, 0, None);
        s.add_modeled_span("cpy", SpanCategory::MemcpyH2D, 1e-3, 4096, Some(9));
        SpanLog::uninstall();
        if let Some(p) = prev {
            SpanLog::install(p);
        }
        assert!((s.modeled_busy_seconds() - 3e-3).abs() < 1e-12);
        let spans: Vec<_> =
            log.spans().into_iter().filter(|sp| sp.track == Track::Stream(s.id())).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_s, 0.0);
        assert!((spans[1].start_s - 2e-3).abs() < 1e-12);
        assert_eq!(spans[1].bytes, 4096);
        assert_eq!(spans[1].flow_in, Some(9));
    }

    #[test]
    fn modeled_time_accumulates() {
        let d = dev();
        let s = Stream::new(&d);
        s.add_modeled_span("k", SpanCategory::Kernel, 1.5e-3, 0, None);
        s.add_modeled_span("k", SpanCategory::Kernel, 0.5e-3, 0, None);
        assert!((s.modeled_busy_seconds() - 2.0e-3).abs() < 1e-12);
    }

    #[test]
    fn event_pairs_measure_modeled_elapsed_time() {
        let d = dev();
        let s = Stream::new(&d);
        let start = s.record_event();
        {
            let s2 = s.clone();
            s.enqueue(move || s2.add_modeled_span("k", SpanCategory::Kernel, 3.5e-3, 0, None));
        }
        let end = s.record_event();
        end.wait();
        assert!((end.modeled_elapsed_since(&start) - 3.5e-3).abs() < 1e-12);
        assert_eq!(start.modeled_timestamp(), Some(0.0));
    }

    #[test]
    fn panicking_op_poisons_instead_of_wedging() {
        let d = dev();
        let s = Stream::new(&d);
        s.enqueue(|| panic!("simulated device assert"));
        let ran_after = Arc::new(AtomicBool::new(false));
        {
            let r = Arc::clone(&ran_after);
            s.enqueue(move || r.store(true, Ordering::SeqCst));
        }
        // synchronize must NOT hang; it must surface the poisoned state.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.synchronize()));
        assert!(result.is_err(), "poisoned stream must fail synchronize");
        assert!(s.is_poisoned());
        // The worker survived and drained the op behind the panic.
        assert!(ran_after.load(Ordering::SeqCst));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn unfired_event_has_no_timestamp() {
        let d = dev();
        let s = Stream::new(&d);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            s.enqueue(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            });
        }
        let ev = s.record_event();
        assert_eq!(ev.modeled_timestamp(), None);
        *gate.0.lock() = true;
        gate.1.notify_all();
        ev.wait();
        assert!(ev.modeled_timestamp().is_some());
    }
}
