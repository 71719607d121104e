//! The one observation path of a launch.
//!
//! A launch with a sanitizer session or a memory trace attached to its
//! device gets one [`Observer`]: the launch's sanitizer part
//! ([`LaunchSan`]) and trace part ([`LaunchMemTrace`]), either of which may
//! be absent. Each lane records into its own [`LaneLog`] in program order,
//! with no locking. When the lane retires the executor stages the log here
//! once, and folds the lane's global race log into its worker's
//! [`RaceFold`]. Block-end scans stage their findings after the block's
//! lanes. Once every worker has stopped, [`Observer::finish`] sorts the
//! staged records once, by (block rank, thread rank), and hands them to
//! each part in that order, so findings and trace bytes are identical run
//! to run and at any worker count, however the OS interleaves the lanes.
//!
//! A launch with no tool attached has no observer: each counted access
//! then tests one `Option` and records nothing.

use crate::dim::LaunchConfig;
use crate::memtrace::{LaunchMemTrace, MemTrace, TraceLog};
use crate::san::{DiagLog, LaunchSan, RaceFold, RaceLog, SanState};
use parking_lot::Mutex;
use std::sync::Arc;

/// Everything one lane observes, in program order.
#[derive(Debug, Default)]
pub(crate) struct LaneLog {
    /// Memory-trace events, when a trace is attached.
    pub(crate) trace: TraceLog,
    /// Sanitizer findings, when a session is attached.
    pub(crate) diags: DiagLog,
    /// Plain global accesses for racecheck's cross-block fold.
    pub(crate) races: RaceLog,
}

/// A retired lane's log, or a block-end scan's findings, staged for the
/// launch-end merge.
pub(crate) struct Staged {
    block_rank: usize,
    /// The lane's thread rank; `u64::MAX` for a block-end scan, so it sorts
    /// after every lane of its block.
    order: u64,
    pub(crate) block: (u32, u32, u32),
    pub(crate) thread: (u32, u32, u32),
    pub(crate) trace: TraceLog,
    pub(crate) diags: DiagLog,
}

/// The per-launch observer: the optional sanitizer and trace parts and the
/// staged records of the launch's lanes and block-end scans.
pub(crate) struct Observer {
    pub(crate) san: Option<LaunchSan>,
    pub(crate) mem: Option<LaunchMemTrace>,
    staged: Mutex<Vec<Staged>>,
}

impl Observer {
    /// The observer of one launch of `kernel` with the device's sanitizer
    /// session and memory trace, or `None` when neither is attached.
    pub(crate) fn new(
        san: Option<Arc<SanState>>,
        trace: Option<Arc<MemTrace>>,
        kernel: &str,
    ) -> Option<Observer> {
        if san.is_none() && trace.is_none() {
            return None;
        }
        Some(Observer {
            san: san.map(|state| LaunchSan::new(state, kernel)),
            mem: trace.map(|trace| LaunchMemTrace::new(trace, kernel)),
            staged: Mutex::new(Vec::new()),
        })
    }

    /// Stage the log of the retired lane `thread` (rank `thread_rank`) of
    /// block `block` (rank `block_rank`) and fold its race log into
    /// `races`. Called once per lane, including when the lane was unwound
    /// by a panic, so partial evidence survives a failing kernel.
    pub(crate) fn stage_lane(
        &self,
        (block_rank, thread_rank): (usize, usize),
        block: (u32, u32, u32),
        thread: (u32, u32, u32),
        log: &mut LaneLog,
        races: &mut RaceFold,
    ) {
        races.absorb(block_rank, thread_rank, &mut log.races);
        if log.trace.is_empty() && log.diags.is_empty() {
            return;
        }
        self.staged.lock().push(Staged {
            block_rank,
            order: thread_rank as u64,
            block,
            thread,
            trace: std::mem::take(&mut log.trace),
            diags: std::mem::take(&mut log.diags),
        });
    }

    /// Stage the findings of block `block_rank`'s end scan. A scan records
    /// no trace, so its coordinates are never read.
    pub(crate) fn stage_block_scan(&self, block_rank: usize, diags: DiagLog) {
        if diags.is_empty() {
            return;
        }
        self.staged.lock().push(Staged {
            block_rank,
            order: u64::MAX,
            block: (0, 0, 0),
            thread: (0, 0, 0),
            trace: TraceLog::default(),
            diags,
        });
    }

    /// Merge a worker's (or a retired team lane's) race fold into the
    /// launch's; see [`LaunchSan::merge_races`].
    pub(crate) fn merge_races(&self, fold: RaceFold) {
        if let Some(san) = &self.san {
            san.merge_races(fold);
        }
    }

    /// Sort the staged records of launch `cfg` into canonical order and
    /// merge them into the session and the trace. Called exactly once by
    /// the executor after all workers have stopped, including when the
    /// launch panicked.
    pub(crate) fn finish(&self, cfg: &LaunchConfig) {
        let mut staged = std::mem::take(&mut *self.staged.lock());
        staged.sort_unstable_by_key(|s| (s.block_rank, s.order));
        if let Some(san) = &self.san {
            san.finish(&mut staged, cfg);
        }
        if let Some(mem) = &self.mem {
            mem.finish(&mut staged);
        }
    }
}
