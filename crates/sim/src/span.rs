//! Span events: the timeline data plane for `ompx-prof`.
//!
//! A real profiler (`nsys`, `rocprof`) shows *when* things happened, not
//! just how much they cost: one timeline track for the host thread, one
//! per stream, with kernel bars, H2D/D2H memcpy bars, and arrows from a
//! `nowait` submission to the work it enqueued. This module records the
//! events those views are built from.
//!
//! The attachment follows the ambient pattern the sanitizer and the
//! memory trace established: a profiling harness installs a [`SpanLog`]
//! process-wide ([`SpanLog::install`]); while one is active, spans are
//! recorded into it. Every kernel bar comes from one place, the launch
//! pipeline [`crate::device::Device::launch_recovering`], on the track its
//! caller names ([`crate::device::KernelBar`]); the language runtimes
//! (`ompx-klang`, `ompx-hostrt`, `ompx`) record their memcpy, task and
//! sync spans. A raw [`crate::device::Device::launch`] records none. When
//! no log is installed the hot paths pay one relaxed atomic load.
//!
//! Timestamps are **modeled seconds**, not wall time: the host track keeps
//! a cursor that advances by each operation's modeled duration, and each
//! stream places its spans at the stream's modeled-busy offset. The
//! resulting timeline is bit-reproducible, like every other modeled
//! quantity in the simulator.
//!
//! `ompx-prof` converts a span list into a multi-track Chrome/Perfetto
//! trace (with flow arrows between `flow_out` and `flow_in` pairs).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which timeline track a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The submitting host thread.
    Host,
    /// A device stream (interop object), by [`crate::stream::Stream::id`].
    Stream(u64),
    /// OpenMP hidden helper threads (`nowait` target tasks).
    Tasks,
    /// One member of a serving pool (`ompx-serve`), by pool-member index.
    /// Each member gets its own timeline so a serve run renders as one
    /// track per device, like a multi-GPU `nsys` capture.
    Device(usize),
}

/// What kind of work a span represents (drives profiler coloring/legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanCategory {
    /// A kernel execution.
    Kernel,
    /// Host-to-device transfer.
    MemcpyH2D,
    /// Device-to-host transfer.
    MemcpyD2H,
    /// Device-to-device transfer.
    MemcpyD2D,
    /// Allocation, free, memset and other host API calls.
    HostOp,
    /// Task scheduling (nowait submission, helper-thread execution).
    Task,
    /// Synchronization (taskwait, stream/device synchronize).
    Sync,
    /// Retry of a transiently failed operation (fault injection): the
    /// backoff wait and the eventual recovery marker.
    Retry,
    /// Graceful degradation: a target region re-dispatched through the
    /// host-fallback path, or an operation completed past a fault.
    Fallback,
}

impl SpanCategory {
    /// Stable label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            SpanCategory::Kernel => "kernel",
            SpanCategory::MemcpyH2D => "memcpy_h2d",
            SpanCategory::MemcpyD2H => "memcpy_d2h",
            SpanCategory::MemcpyD2D => "memcpy_d2d",
            SpanCategory::HostOp => "host_op",
            SpanCategory::Task => "task",
            SpanCategory::Sync => "sync",
            SpanCategory::Retry => "retry",
            SpanCategory::Fallback => "fallback",
        }
    }
}

/// One timeline event: a named duration on a track, in modeled seconds.
#[derive(Debug, Clone)]
pub struct Span {
    /// Track the span is drawn on.
    pub track: Track,
    /// Display name (kernel name, "memcpy H2D", …).
    pub name: String,
    /// Category (export coloring, filtering).
    pub cat: SpanCategory,
    /// Start offset on the track's modeled timeline, seconds.
    pub start_s: f64,
    /// Duration in modeled seconds (0.0 renders as an instant).
    pub dur_s: f64,
    /// Bytes moved, for memcpy bars (0 when not applicable).
    pub bytes: u64,
    /// Incoming flow-arrow id (this span is the arrow's head).
    pub flow_in: Option<u64>,
    /// Outgoing flow-arrow id (this span is the arrow's tail).
    pub flow_out: Option<u64>,
    /// Request-scoped trace id: spans recorded while a trace context is
    /// set ([`set_trace_context`]) are stamped with it, so one serving
    /// request's path — batch dispatch, launches, retries, fallbacks —
    /// can be followed across tracks in the exported timeline.
    pub trace: Option<u64>,
}

/// Cheap gate so un-profiled runs pay one atomic load per hook.
static SPAN_LOG_ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE_SPAN_LOG: Mutex<Option<Arc<SpanLog>>> = Mutex::new(None);

/// The ambient request-scoped trace id (`0` = none). A serving layer sets
/// it around one request's execution so every span the runtimes record in
/// that window — launches, memcpys, retries, fallbacks — carries the id.
static CURRENT_TRACE: AtomicU64 = AtomicU64::new(0);

/// Set (or clear, with `None`) the ambient trace id stamped onto every
/// span recorded until the next call. Ids are caller-chosen and must be
/// non-zero (zero is the "no trace" sentinel).
pub fn set_trace_context(trace: Option<u64>) {
    CURRENT_TRACE.store(trace.unwrap_or(0), Ordering::Relaxed);
}

/// The ambient trace id, if one is set.
pub fn current_trace() -> Option<u64> {
    match CURRENT_TRACE.load(Ordering::Relaxed) {
        0 => None,
        id => Some(id),
    }
}

/// The process-wide span log a profiling harness installs, if any.
pub fn active() -> Option<Arc<SpanLog>> {
    if !SPAN_LOG_ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    ACTIVE_SPAN_LOG.lock().clone()
}

/// A shared, thread-safe, append-only span collector.
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
    /// Modeled-time cursor of the host track.
    host_cursor_s: Mutex<f64>,
    /// Modeled-time cursor of the helper-thread (task) track.
    task_cursor_s: Mutex<f64>,
    next_flow: AtomicU64,
}

impl SpanLog {
    /// Fresh, empty log.
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            spans: Mutex::new(Vec::new()),
            host_cursor_s: Mutex::new(0.0),
            task_cursor_s: Mutex::new(0.0),
            next_flow: AtomicU64::new(1),
        })
    }

    /// Install `log` as the process-wide active span log. Returns the
    /// previously installed log, if any (callers are expected to
    /// serialize profiled runs, as `ompx-hecbench` does).
    pub fn install(log: Arc<SpanLog>) -> Option<Arc<SpanLog>> {
        let prev = ACTIVE_SPAN_LOG.lock().replace(log);
        SPAN_LOG_ENABLED.store(true, Ordering::Relaxed);
        prev
    }

    /// Remove and return the active span log.
    pub fn uninstall() -> Option<Arc<SpanLog>> {
        SPAN_LOG_ENABLED.store(false, Ordering::Relaxed);
        ACTIVE_SPAN_LOG.lock().take()
    }

    /// Append a fully described span, stamping the ambient trace id onto
    /// spans that do not already carry one.
    pub fn record(&self, mut span: Span) {
        if span.trace.is_none() {
            span.trace = current_trace();
        }
        self.spans.lock().push(span);
    }

    /// Allocate a fresh flow-arrow id (ties a submission span to the
    /// enqueued work's span).
    pub fn new_flow_id(&self) -> u64 {
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Record an operation on the host track at the current cursor and
    /// advance the cursor by `dur_s`.
    pub fn host_op(&self, name: &str, cat: SpanCategory, dur_s: f64, bytes: u64) {
        self.host_op_inner(name, cat, dur_s, bytes, None);
    }

    /// [`SpanLog::host_op`] that also opens a flow arrow; returns the flow
    /// id to pass as `flow_in` of the downstream span.
    pub fn host_op_flow(&self, name: &str, cat: SpanCategory, dur_s: f64, bytes: u64) -> u64 {
        let id = self.new_flow_id();
        self.host_op_inner(name, cat, dur_s, bytes, Some(id));
        id
    }

    fn host_op_inner(
        &self,
        name: &str,
        cat: SpanCategory,
        dur_s: f64,
        bytes: u64,
        flow_out: Option<u64>,
    ) {
        let start_s = {
            let mut cursor = self.host_cursor_s.lock();
            let start = *cursor;
            *cursor += dur_s;
            start
        };
        self.record(Span {
            track: Track::Host,
            name: name.to_string(),
            cat,
            start_s,
            dur_s,
            bytes,
            flow_in: None,
            flow_out,
            trace: None,
        });
    }

    /// Record a span on a stream track at an explicit timeline offset
    /// (streams know their own modeled-busy cursor).
    #[allow(clippy::too_many_arguments)]
    pub fn stream_span(
        &self,
        stream_id: u64,
        name: &str,
        cat: SpanCategory,
        start_s: f64,
        dur_s: f64,
        bytes: u64,
        flow_in: Option<u64>,
    ) {
        self.record(Span {
            track: Track::Stream(stream_id),
            name: name.to_string(),
            cat,
            start_s,
            dur_s,
            bytes,
            flow_in,
            flow_out: None,
            trace: None,
        });
    }

    /// Record a span on a pool-device track at an explicit timeline
    /// offset (the serving layer knows each member's modeled-busy cursor).
    /// `flow_in` ties the span to the submission that enqueued it.
    pub fn device_span(
        &self,
        device: usize,
        name: &str,
        cat: SpanCategory,
        start_s: f64,
        dur_s: f64,
        flow_in: Option<u64>,
    ) {
        self.record(Span {
            track: Track::Device(device),
            name: name.to_string(),
            cat,
            start_s,
            dur_s,
            bytes: 0,
            flow_in,
            flow_out: None,
            trace: None,
        });
    }

    /// Record a helper-thread (task) span at the task track's cursor,
    /// advancing it by `dur_s`.
    pub fn task_span(&self, name: &str, dur_s: f64, flow_in: Option<u64>) {
        let start_s = {
            let mut cursor = self.task_cursor_s.lock();
            let start = *cursor;
            *cursor += dur_s;
            start
        };
        self.record(Span {
            track: Track::Tasks,
            name: name.to_string(),
            cat: SpanCategory::Task,
            start_s,
            dur_s,
            bytes: 0,
            flow_in,
            flow_out: None,
            trace: None,
        });
    }

    /// Current modeled host-track cursor, seconds.
    pub fn host_cursor_seconds(&self) -> f64 {
        *self.host_cursor_s.lock()
    }

    /// Snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cursor_advances_per_op() {
        let log = SpanLog::new();
        log.host_op("malloc", SpanCategory::HostOp, 1e-6, 0);
        log.host_op("memcpy", SpanCategory::MemcpyH2D, 2e-6, 4096);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_s, 0.0);
        assert!((spans[1].start_s - 1e-6).abs() < 1e-18);
        assert_eq!(spans[1].bytes, 4096);
        assert!((log.host_cursor_seconds() - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn flow_ids_pair_submission_with_work() {
        let log = SpanLog::new();
        let flow = log.host_op_flow("nowait submit k", SpanCategory::Task, 0.0, 0);
        log.stream_span(7, "k", SpanCategory::Kernel, 0.0, 5e-6, 0, Some(flow));
        let spans = log.spans();
        assert_eq!(spans[0].flow_out, Some(flow));
        assert_eq!(spans[1].flow_in, Some(flow));
        assert_eq!(spans[1].track, Track::Stream(7));
    }

    #[test]
    fn install_gates_the_ambient_hook() {
        // Not installed: hook sees nothing (other tests may race on the
        // global, so only assert the install/uninstall round trip).
        let log = SpanLog::new();
        let prev = SpanLog::install(Arc::clone(&log));
        assert!(active().is_some());
        let got = SpanLog::uninstall().expect("a log was installed");
        assert!(Arc::ptr_eq(&got, &log));
        if let Some(p) = prev {
            SpanLog::install(p);
        }
    }

    #[test]
    fn device_spans_land_on_their_member_track() {
        let log = SpanLog::new();
        let flow = log.host_op_flow("dispatch batch", SpanCategory::Task, 0.0, 0);
        log.device_span(2, "xsbench/ompx x4", SpanCategory::Kernel, 1e-3, 5e-4, Some(flow));
        let spans = log.spans();
        assert_eq!(spans[1].track, Track::Device(2));
        assert_eq!(spans[1].flow_in, Some(flow));
        assert!((spans[1].start_s - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn trace_context_stamps_recorded_spans() {
        let log = SpanLog::new();
        log.host_op("before", SpanCategory::HostOp, 0.0, 0);
        set_trace_context(Some(41));
        log.host_op("traced", SpanCategory::Kernel, 1e-6, 0);
        set_trace_context(None);
        log.host_op("after", SpanCategory::HostOp, 0.0, 0);
        let spans = log.spans();
        assert_eq!(spans[0].trace, None);
        assert_eq!(spans[1].trace, Some(41));
        assert_eq!(spans[2].trace, None);
    }

    #[test]
    fn task_track_has_its_own_cursor() {
        let log = SpanLog::new();
        log.host_op("submit", SpanCategory::Task, 1e-6, 0);
        log.task_span("k1", 3e-6, None);
        log.task_span("k2", 2e-6, None);
        let spans = log.spans();
        assert_eq!(spans[1].start_s, 0.0);
        assert!((spans[2].start_s - 3e-6).abs() < 1e-18);
        assert_eq!(spans[2].track, Track::Tasks);
    }
}
