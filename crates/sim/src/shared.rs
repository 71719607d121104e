//! Per-block shared memory (`__shared__` / `groupprivate(team:)`).
//!
//! Shared arrays are declared on the [`crate::dim::LaunchConfig`] before
//! launch (the static layout a compiler would produce) and materialized once
//! per thread block. Every element is backed by a 64-bit atomic transport
//! word so that lanes of a block may access the array concurrently with
//! defined behaviour, exactly like device global memory ([`crate::mem`]).
//!
//! Type safety: each slot records the element type name at declaration and
//! validates it on access, turning the C "reinterpret the smem pointer" bug
//! class into a loud simulator panic.

use crate::dim::SharedSlotDecl;
use crate::mem::DeviceScalar;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The shared-memory arena of a single thread block.
pub struct BlockShared {
    slots: Vec<SharedSlot>,
}

/// One shared array instance (a `__shared__ T name[len]`).
pub struct SharedSlot {
    words: Box<[AtomicU64]>,
    /// Race-detector fold when racecheck is on: per (cell, barrier epoch),
    /// an order-independent summary of the accesses observed, scanned once
    /// at block end. A commutative fold — rather than a last-access shadow
    /// cell — makes the detector's output independent of the real-time
    /// order in which concurrently executing lanes touch the cell.
    race: Option<Mutex<HashMap<(usize, u64), SharedCellFold>>>,
    /// Initcheck bitmap (one bit per word) when initcheck is on: shared
    /// memory is undefined at block start on real hardware, so reads before
    /// any write in the block are flagged.
    init: Option<Box<[AtomicU64]>>,
    decl: SharedSlotDecl,
}

/// One lane's access to a shared cell, as remembered by the race fold.
#[derive(Debug, Clone, Copy)]
struct LaneAccess {
    lane: usize,
    write: bool,
}

impl LaneAccess {
    /// Canonical ordering key: lower lanes first; on the same lane, a
    /// write outranks a read so the representative's kind is deterministic.
    fn rank(self) -> (usize, bool) {
        (self.lane, !self.write)
    }
}

/// Order-independent per-(cell, epoch) access summary: the minimum-ranked
/// write, the minimum-ranked access, and the minimum-ranked access from a
/// different lane than that one. Enough to decide "≥ 2 distinct lanes, at
/// least one write" and to name a canonical conflicting pair, while every
/// fold step is commutative.
#[derive(Debug, Default)]
struct SharedCellFold {
    wmin: Option<LaneAccess>,
    amin: Option<LaneAccess>,
    amin2: Option<LaneAccess>,
}

impl SharedCellFold {
    fn offer(&mut self, p: LaneAccess) {
        if p.write && self.wmin.is_none_or(|w| p.rank() < w.rank()) {
            self.wmin = Some(p);
        }
        match self.amin {
            None => self.amin = Some(p),
            Some(a) if p.rank() < a.rank() => {
                self.amin = Some(p);
                // The displaced minimum becomes a runner-up candidate; the
                // old runner-up stays one unless it shares the new
                // minimum's lane.
                let mut runner = self.amin2.filter(|r| r.lane != p.lane);
                if a.lane != p.lane && runner.is_none_or(|r| a.rank() < r.rank()) {
                    runner = Some(a);
                }
                self.amin2 = runner;
            }
            Some(a) => {
                if p.lane != a.lane && self.amin2.is_none_or(|r| p.rank() < r.rank()) {
                    self.amin2 = Some(p);
                }
            }
        }
    }

    /// The canonical conflicting pair, if this summary is a race: at least
    /// one write and at least two distinct lanes.
    fn conflict(&self) -> Option<(LaneAccess, LaneAccess)> {
        let w = self.wmin?;
        let second = self.amin2?;
        let a = self.amin?;
        let other = if a.lane != w.lane { a } else { second };
        Some(if w.rank() <= other.rank() { (w, other) } else { (other, w) })
    }
}

impl BlockShared {
    /// Materialize the declared layout for one block.
    pub fn new(decls: &[SharedSlotDecl]) -> Self {
        Self::with_tools(decls, false, false)
    }

    /// Materialize the layout with any combination of per-cell tooling
    /// state: racecheck shadow cells and/or the initcheck bitmap.
    pub fn with_tools(decls: &[SharedSlotDecl], racecheck: bool, initcheck: bool) -> Self {
        let slots = decls
            .iter()
            .map(|d| SharedSlot {
                words: (0..d.len).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into_boxed_slice(),
                race: racecheck.then(|| Mutex::new(HashMap::new())),
                init: initcheck.then(|| {
                    (0..d.len.div_ceil(64))
                        .map(|_| AtomicU64::new(0))
                        .collect::<Vec<_>>()
                        .into_boxed_slice()
                }),
                decl: *d,
            })
            .collect();
        BlockShared { slots }
    }

    /// Borrow a typed view of slot `idx`. Panics (simulated compiler/type
    /// error) when the index or the element type is wrong.
    pub fn view<T: DeviceScalar>(&self, idx: usize) -> SharedView<'_, T> {
        let slot = self.slots.get(idx).unwrap_or_else(|| {
            panic!("shared slot {idx} out of range ({} declared)", self.slots.len())
        });
        let expected = std::any::type_name::<T>();
        // Pointer equality first: &'static str from type_name is usually
        // deduplicated, making the hot-path check O(1); fall back to a
        // content compare for correctness across codegen units.
        if !std::ptr::eq(slot.decl.type_name, expected) && slot.decl.type_name != expected {
            panic!(
                "shared slot {idx} declared as {} but accessed as {expected}",
                slot.decl.type_name
            );
        }
        SharedView {
            words: &slot.words,
            race: slot.race.as_ref(),
            init: slot.init.as_deref(),
            slot: idx,
            _marker: std::marker::PhantomData,
        }
    }

    /// Scan the race folds of every slot and return the detected races in
    /// canonical (slot, cell, epoch) order. Called once per block at block
    /// end (after all lanes retire), so the result is independent of lane
    /// interleaving during the block's execution.
    pub fn collect_races(&self) -> Vec<(usize, SharedRace)> {
        let mut out = Vec::new();
        for (slot_idx, slot) in self.slots.iter().enumerate() {
            let Some(race) = &slot.race else { continue };
            let map = race.lock();
            let mut keys: Vec<(usize, u64)> = map.keys().copied().collect();
            keys.sort_unstable();
            for (cell, epoch) in keys {
                if let Some((prev, this)) = map[&(cell, epoch)].conflict() {
                    out.push((
                        slot_idx,
                        SharedRace {
                            cell,
                            prev_lane: prev.lane,
                            prev_write: prev.write,
                            this_lane: this.lane,
                            this_write: this.write,
                            epoch,
                        },
                    ));
                }
            }
        }
        out
    }
}

/// A typed, bounds-checked view of one shared array, valid for the lifetime
/// of the block execution.
pub struct SharedView<'a, T: DeviceScalar> {
    words: &'a [AtomicU64],
    race: Option<&'a Mutex<HashMap<(usize, u64), SharedCellFold>>>,
    init: Option<&'a [AtomicU64]>,
    slot: usize,
    _marker: std::marker::PhantomData<T>,
}

/// Access kind for the race detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// A shared-memory race detected by the block-end fold scan: the canonical
/// conflicting pair of accesses on one cell within one barrier epoch.
/// [`crate::exec`] records these as diagnostics on the attached sanitizer
/// session when the block completes.
#[derive(Debug, Clone, Copy)]
pub struct SharedRace {
    pub cell: usize,
    pub prev_lane: usize,
    pub prev_write: bool,
    pub this_lane: usize,
    pub this_write: bool,
    pub epoch: u64,
}

impl<'a, T: DeviceScalar> SharedView<'a, T> {
    /// Race-detector hook (the `compute-sanitizer --tool racecheck`
    /// analogue): called by the thread context on counted accesses when the
    /// launch enabled race checking. `epoch` is the caller's barrier count;
    /// two threads touching the same cell in the same barrier epoch with at
    /// least one write is a shared-memory data race — the bug class that
    /// hand-ported SIMT tiling code introduces.
    ///
    /// The access is folded into an order-independent per-(cell, epoch)
    /// summary; conflicts are materialized at block end by
    /// [`BlockShared::collect_races`], so detection and reporting are
    /// deterministic regardless of how the OS interleaves lanes.
    #[inline]
    pub fn racecheck_access(&self, i: usize, lane: usize, epoch: u64, kind: AccessKind) {
        let Some(race) = self.race else { return };
        race.lock()
            .entry((i, epoch))
            .or_default()
            .offer(LaneAccess { lane, write: kind == AccessKind::Write });
    }

    /// Index of the declared slot this view borrows (for diagnostics).
    #[inline]
    pub fn slot_index(&self) -> usize {
        self.slot
    }

    /// True when initcheck tracking is on and cell `i` has never been
    /// written in this block.
    #[inline]
    pub fn is_unwritten(&self, i: usize) -> bool {
        match self.init {
            Some(bits) => bits[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) == 0,
            None => false,
        }
    }

    #[inline]
    fn mark_init(&self, i: usize) {
        if let Some(bits) = self.init {
            bits[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
        }
    }
    /// Element count.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Load element `i` (uncounted; `ThreadCtx` wraps this with counting).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::from_word(self.words[i].load(Ordering::Relaxed))
    }

    /// Store element `i` (uncounted; `ThreadCtx` wraps this with counting).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        self.mark_init(i);
        self.words[i].store(v.to_word(), Ordering::Relaxed)
    }

    /// Atomic add on a shared element; returns the previous value.
    ///
    /// Implemented as a CAS loop over the transport word, matching how GPUs
    /// implement shared-memory atomics for types without native support.
    #[inline]
    pub fn atomic_add(&self, i: usize, v: T) -> T
    where
        T: std::ops::Add<Output = T>,
    {
        self.mark_init(i);
        let cell = &self.words[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = T::from_word(cur);
            let new = (old + v).to_word();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::LaunchConfig;

    fn decls() -> Vec<SharedSlotDecl> {
        let mut cfg = LaunchConfig::new(1u32, 32u32);
        cfg.shared_array::<f32>(8);
        cfg.shared_array::<u32>(4);
        cfg.shared_slots
    }

    #[test]
    fn typed_views_roundtrip() {
        let bs = BlockShared::new(&decls());
        let f = bs.view::<f32>(0);
        f.set(3, 2.5);
        assert_eq!(f.get(3), 2.5);
        assert_eq!(f.get(0), 0.0);
        let u = bs.view::<u32>(1);
        u.set(0, 42);
        assert_eq!(u.get(0), 42);
        assert_eq!(f.len(), 8);
        assert_eq!(u.len(), 4);
    }

    #[test]
    #[should_panic(expected = "declared as f32 but accessed as u32")]
    fn type_confusion_panics() {
        let bs = BlockShared::new(&decls());
        let _ = bs.view::<u32>(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range_panics() {
        let bs = BlockShared::new(&decls());
        let _ = bs.view::<f32>(2);
    }

    #[test]
    fn race_fold_is_order_independent() {
        // Offer the same access set in two different orders; the conflict
        // representative must be identical.
        let accesses = [
            LaneAccess { lane: 5, write: false },
            LaneAccess { lane: 2, write: true },
            LaneAccess { lane: 7, write: true },
            LaneAccess { lane: 2, write: false },
        ];
        let mut fwd = SharedCellFold::default();
        let mut rev = SharedCellFold::default();
        for a in accesses {
            fwd.offer(a);
        }
        for a in accesses.iter().rev() {
            rev.offer(*a);
        }
        let (fp, ft) = fwd.conflict().expect("write + two lanes is a race");
        let (rp, rt) = rev.conflict().expect("write + two lanes is a race");
        assert_eq!((fp.lane, fp.write, ft.lane, ft.write), (rp.lane, rp.write, rt.lane, rt.write));
        // Lane 2's write is the minimum-ranked access; lane 5's read is the
        // lowest-ranked access on another lane.
        assert_eq!((fp.lane, fp.write), (2, true));
        assert_eq!((ft.lane, ft.write), (5, false));
    }

    #[test]
    fn race_fold_requires_write_and_two_lanes() {
        let mut reads_only = SharedCellFold::default();
        reads_only.offer(LaneAccess { lane: 0, write: false });
        reads_only.offer(LaneAccess { lane: 1, write: false });
        assert!(reads_only.conflict().is_none());

        let mut one_lane = SharedCellFold::default();
        one_lane.offer(LaneAccess { lane: 3, write: true });
        one_lane.offer(LaneAccess { lane: 3, write: false });
        assert!(one_lane.conflict().is_none());
    }

    #[test]
    fn collect_races_is_canonically_ordered() {
        let bs = BlockShared::with_tools(&decls(), true, false);
        let f = bs.view::<f32>(0);
        // Touch cells out of order and across epochs.
        f.racecheck_access(4, 1, 0, AccessKind::Write);
        f.racecheck_access(4, 0, 0, AccessKind::Read);
        f.racecheck_access(2, 6, 3, AccessKind::Write);
        f.racecheck_access(2, 2, 3, AccessKind::Write);
        f.racecheck_access(2, 9, 1, AccessKind::Read);
        f.racecheck_access(2, 8, 1, AccessKind::Write);
        // Same cell, different epochs: no conflict.
        f.racecheck_access(7, 0, 0, AccessKind::Write);
        f.racecheck_access(7, 1, 1, AccessKind::Write);
        let races = bs.collect_races();
        let keys: Vec<(usize, usize, u64)> =
            races.iter().map(|(slot, r)| (*slot, r.cell, r.epoch)).collect();
        assert_eq!(keys, vec![(0, 2, 1), (0, 2, 3), (0, 4, 0)]);
    }

    #[test]
    fn shared_atomic_add() {
        let bs = BlockShared::new(&decls());
        let f = bs.view::<f32>(0);
        assert_eq!(f.atomic_add(0, 1.5), 0.0);
        assert_eq!(f.atomic_add(0, 2.0), 1.5);
        assert_eq!(f.get(0), 3.5);
    }
}
