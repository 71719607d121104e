//! Device global memory: typed buffers with well-defined concurrent access.
//!
//! A real GPU's global memory is shared by tens of thousands of concurrently
//! executing threads; racy programs observe *some* value, never undefined
//! behaviour at the ISA level. We reproduce that contract in safe Rust by
//! backing every buffer element with an atomic cell accessed with `Relaxed`
//! ordering: simultaneous unsynchronized accesses are a bug in the simulated
//! program, but they are memory-safe and yield one of the written values —
//! exactly the hardware behaviour.
//!
//! Buffers are reference-counted handles ([`DBuf`]); cloning a handle is the
//! device-pointer copy of `cudaMalloc`-style APIs, not a data copy.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Arc, OnceLock};

/// Monotonic allocation ids, unique process-wide. Sanitizer diagnostics and
/// the leak registry key on these rather than addresses.
static NEXT_ALLOC_ID: AtomicUsize = AtomicUsize::new(1);

/// Labels of the live labeled allocations, by allocation id. Per-launch
/// tools record only an allocation's id on every access and look its label
/// up here when they report (see [`label_of`]).
static LABELS: Mutex<BTreeMap<usize, Arc<str>>> = Mutex::new(BTreeMap::new());

/// The diagnostic label of allocation `alloc_id`, as [`DBuf::label`] gives
/// it: the name attached with `set_label`, else `alloc#N`.
pub(crate) fn label_of(alloc_id: usize) -> Arc<str> {
    LABELS.lock().get(&alloc_id).cloned().unwrap_or_else(|| format!("alloc#{alloc_id}").into())
}

/// Scalar types that can live in simulated device memory.
///
/// Each scalar maps onto an atomic representation so that concurrent access
/// from simulated threads is defined behaviour (see module docs). The trait
/// is sealed by construction: implement it only via the macro below.
pub trait DeviceScalar:
    Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static
{
    /// The atomic cell type backing one element.
    type Atomic: Send + Sync;

    /// Create a cell holding `v`.
    fn new_cell(v: Self) -> Self::Atomic;
    /// Relaxed load.
    fn load(cell: &Self::Atomic) -> Self;
    /// Relaxed store.
    fn store(cell: &Self::Atomic, v: Self);
    /// Atomic fetch-add returning the previous value.
    fn fetch_add(cell: &Self::Atomic, v: Self) -> Self;
    /// Atomic fetch-min returning the previous value.
    fn fetch_min(cell: &Self::Atomic, v: Self) -> Self;
    /// Atomic fetch-max returning the previous value.
    fn fetch_max(cell: &Self::Atomic, v: Self) -> Self;
    /// Atomic compare-exchange; returns Ok(previous) on success.
    fn compare_exchange(cell: &Self::Atomic, current: Self, new: Self) -> Result<Self, Self>;
    /// Pack into a 64-bit transport word (used by warp shuffles).
    fn to_word(self) -> u64;
    /// Unpack from a 64-bit transport word.
    fn from_word(w: u64) -> Self;
}

macro_rules! int_scalar {
    ($t:ty, $atomic:ty) => {
        impl DeviceScalar for $t {
            type Atomic = $atomic;

            fn new_cell(v: Self) -> Self::Atomic {
                <$atomic>::new(v)
            }
            fn load(cell: &Self::Atomic) -> Self {
                cell.load(Ordering::Relaxed)
            }
            fn store(cell: &Self::Atomic, v: Self) {
                cell.store(v, Ordering::Relaxed)
            }
            fn fetch_add(cell: &Self::Atomic, v: Self) -> Self {
                cell.fetch_add(v, Ordering::Relaxed)
            }
            fn fetch_min(cell: &Self::Atomic, v: Self) -> Self {
                cell.fetch_min(v, Ordering::Relaxed)
            }
            fn fetch_max(cell: &Self::Atomic, v: Self) -> Self {
                cell.fetch_max(v, Ordering::Relaxed)
            }
            fn compare_exchange(
                cell: &Self::Atomic,
                current: Self,
                new: Self,
            ) -> Result<Self, Self> {
                cell.compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
            }
            fn to_word(self) -> u64 {
                self as u64
            }
            fn from_word(w: u64) -> Self {
                w as $t
            }
        }
    };
}

int_scalar!(u32, AtomicU32);
int_scalar!(i32, AtomicI32);
int_scalar!(u64, AtomicU64);
int_scalar!(i64, AtomicI64);
int_scalar!(usize, AtomicUsize);

macro_rules! float_scalar {
    ($t:ty, $bits:ty, $atomic:ty, $to_bits:ident, $from_bits:ident) => {
        impl DeviceScalar for $t {
            type Atomic = $atomic;

            fn new_cell(v: Self) -> Self::Atomic {
                <$atomic>::new(v.$to_bits())
            }
            fn load(cell: &Self::Atomic) -> Self {
                <$t>::$from_bits(cell.load(Ordering::Relaxed))
            }
            fn store(cell: &Self::Atomic, v: Self) {
                cell.store(v.$to_bits(), Ordering::Relaxed)
            }
            fn fetch_add(cell: &Self::Atomic, v: Self) -> Self {
                // CAS loop, the same strategy GPUs use for FP atomics on
                // architectures without native support.
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let old = <$t>::$from_bits(cur);
                    let new = (old + v).$to_bits();
                    match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
                    {
                        Ok(_) => return old,
                        Err(actual) => cur = actual,
                    }
                }
            }
            fn fetch_min(cell: &Self::Atomic, v: Self) -> Self {
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let old = <$t>::$from_bits(cur);
                    let new = if v < old { v } else { old };
                    match cell.compare_exchange_weak(
                        cur,
                        new.$to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return old,
                        Err(actual) => cur = actual,
                    }
                }
            }
            fn fetch_max(cell: &Self::Atomic, v: Self) -> Self {
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let old = <$t>::$from_bits(cur);
                    let new = if v > old { v } else { old };
                    match cell.compare_exchange_weak(
                        cur,
                        new.$to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return old,
                        Err(actual) => cur = actual,
                    }
                }
            }
            fn compare_exchange(
                cell: &Self::Atomic,
                current: Self,
                new: Self,
            ) -> Result<Self, Self> {
                cell.compare_exchange(
                    current.$to_bits(),
                    new.$to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .map(<$t>::$from_bits)
                .map_err(<$t>::$from_bits)
            }
            fn to_word(self) -> u64 {
                self.$to_bits() as u64
            }
            fn from_word(w: u64) -> Self {
                <$t>::$from_bits(w as $bits)
            }
        }
    };
}

float_scalar!(f32, u32, AtomicU32, to_bits, from_bits);
float_scalar!(f64, u64, AtomicU64, to_bits, from_bits);

/// Point-in-time image of one buffer, taken by the device's watchdog
/// checkpoint machinery before a partial-commit launch failure. Holds the
/// element values (as 64-bit transport words) and, for init-tracked
/// buffers, the raw initialization bitmap, so a restore rolls back
/// initcheck state along with the data.
pub(crate) struct BufImage {
    words: Vec<u64>,
    init: Option<Vec<u64>>,
}

/// Type-erased checkpoint access to one allocation. Implemented by the
/// buffer's shared inner state so [`crate::device::Device`] can keep a
/// registry of `Weak<dyn CheckpointTarget>` handles without knowing
/// element types.
pub(crate) trait CheckpointTarget: Send + Sync {
    /// The diagnostic label, if one was attached. Unlabeled allocations
    /// return `None` and cannot be excluded by a write-set hint.
    fn target_label(&self) -> Option<String>;
    /// True once `Device::free` released the allocation.
    fn target_freed(&self) -> bool;
    /// Snapshot the buffer's contents and init bitmap.
    fn save(&self) -> BufImage;
    /// Restore an image taken by [`CheckpointTarget::save`]. Writes the
    /// init bitmap back verbatim (bypassing `mark_init`), so elements that
    /// were uninitialized at checkpoint time become uninitialized again.
    fn restore(&self, image: &BufImage);
}

impl<T: DeviceScalar> CheckpointTarget for DBufInner<T> {
    fn target_label(&self) -> Option<String> {
        self.label.get().map(|l| l.to_string())
    }

    fn target_freed(&self) -> bool {
        self.freed.load(Ordering::Relaxed)
    }

    fn save(&self) -> BufImage {
        BufImage {
            words: self.cells.iter().map(|c| T::load(c).to_word()).collect(),
            init: self
                .init
                .as_ref()
                .map(|bits| bits.iter().map(|b| b.load(Ordering::Relaxed)).collect()),
        }
    }

    fn restore(&self, image: &BufImage) {
        for (cell, &w) in self.cells.iter().zip(&image.words) {
            T::store(cell, T::from_word(w));
        }
        if let (Some(bits), Some(saved)) = (&self.init, &image.init) {
            for (bit, &w) in bits.iter().zip(saved) {
                bit.store(w, Ordering::Relaxed);
            }
        }
    }
}

struct DBufInner<T: DeviceScalar> {
    cells: Box<[T::Atomic]>,
    device_id: usize,
    /// Process-unique allocation id (sanitizer registry key).
    alloc_id: usize,
    /// Human-readable label for diagnostics (`alloc_labeled`), set at most
    /// once and mirrored in [`LABELS`]; defaults to `alloc#<id>`.
    label: OnceLock<Arc<str>>,
    /// Set by `Device::free`. Storage stays valid (refcounted), so stale
    /// handles remain memory-safe; memcheck uses this to flag use-after-free.
    freed: AtomicBool,
    /// One bit per element when the buffer was created uninitialized
    /// (`Device::alloc_uninit`, the `cudaMalloc` contract); `None` for
    /// zero-initialised or host-seeded buffers, which are fully defined.
    init: Option<Box<[AtomicU64]>>,
}

impl<T: DeviceScalar> Drop for DBufInner<T> {
    fn drop(&mut self) {
        if self.label.get().is_some() {
            LABELS.lock().remove(&self.alloc_id);
        }
    }
}

/// A typed device global-memory buffer.
///
/// `DBuf<T>` is the simulator's `T* /* device pointer */`: cloning the handle
/// aliases the same memory, and all element access is bounds-checked (a real
/// GPU would fault; we panic with a precise message). Host-side helpers
/// (`to_vec`, `copy_from_host`, …) model `cudaMemcpy`; simulated threads
/// should instead go through [`crate::thread::ThreadCtx`] so traffic is
/// charged to the timing model.
///
/// ```
/// use ompx_sim::prelude::*;
/// let dev = Device::new(DeviceProfile::test_small());
/// let buf = dev.alloc_from(&[1.0f32, 2.0, 3.0]);
/// let alias = buf.clone();          // device-pointer copy, same storage
/// alias.set(0, 10.0);
/// assert_eq!(buf.to_vec(), vec![10.0, 2.0, 3.0]);
/// assert_eq!(buf.atomic_add(1, 0.5), 2.0);
/// ```
pub struct DBuf<T: DeviceScalar> {
    inner: Arc<DBufInner<T>>,
}

impl<T: DeviceScalar> Clone for DBuf<T> {
    fn clone(&self) -> Self {
        DBuf { inner: Arc::clone(&self.inner) }
    }
}

impl<T: DeviceScalar> DBuf<T> {
    pub(crate) fn new_zeroed(len: usize, device_id: usize) -> Self {
        let cells: Box<[T::Atomic]> =
            (0..len).map(|_| T::new_cell(T::default())).collect::<Vec<_>>().into_boxed_slice();
        Self::from_parts(cells, device_id, false)
    }

    /// Like [`DBuf::new_zeroed`] but with an initialization bitmap: elements
    /// read before any write are flagged by initcheck, the contract of
    /// `cudaMalloc` memory. (Storage is still physically zeroed — reads of
    /// uninitialized cells yield `T::default()`, a defined value, just as the
    /// rest of the simulator keeps racy programs memory-safe.)
    pub(crate) fn new_uninit(len: usize, device_id: usize) -> Self {
        let cells: Box<[T::Atomic]> =
            (0..len).map(|_| T::new_cell(T::default())).collect::<Vec<_>>().into_boxed_slice();
        Self::from_parts(cells, device_id, true)
    }

    pub(crate) fn from_slice(data: &[T], device_id: usize) -> Self {
        let cells: Box<[T::Atomic]> =
            data.iter().map(|&v| T::new_cell(v)).collect::<Vec<_>>().into_boxed_slice();
        Self::from_parts(cells, device_id, false)
    }

    fn from_parts(cells: Box<[T::Atomic]>, device_id: usize, track_init: bool) -> Self {
        let len = cells.len();
        let init = track_init
            .then(|| (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into());
        DBuf {
            inner: Arc::new(DBufInner {
                cells,
                device_id,
                alloc_id: NEXT_ALLOC_ID.fetch_add(1, Ordering::Relaxed),
                label: OnceLock::new(),
                freed: AtomicBool::new(false),
                init,
            }),
        }
    }

    /// Type-erased handle for the device's checkpoint registry.
    pub(crate) fn checkpoint_target(&self) -> Arc<dyn CheckpointTarget> {
        self.inner.clone()
    }

    /// Process-unique id of this allocation (shared by all aliasing handles).
    pub fn alloc_id(&self) -> usize {
        self.inner.alloc_id
    }

    /// Diagnostic label: the name given at `alloc_labeled`, else `alloc#N`.
    pub fn label(&self) -> String {
        match self.inner.label.get() {
            Some(l) => l.to_string(),
            None => format!("alloc#{}", self.alloc_id()),
        }
    }

    /// Attach a diagnostic label. First caller wins; later calls are no-ops.
    pub fn set_label(&self, label: &str) {
        let label: Arc<str> = label.into();
        if self.inner.label.set(Arc::clone(&label)).is_ok() {
            LABELS.lock().insert(self.alloc_id(), label);
        }
    }

    /// True once `Device::free` released this allocation.
    pub fn is_freed(&self) -> bool {
        self.inner.freed.load(Ordering::Relaxed)
    }

    pub(crate) fn mark_freed(&self) {
        self.inner.freed.store(true, Ordering::Relaxed);
    }

    /// True when element `i` of an init-tracked buffer has never been
    /// written. Always `false` for untracked buffers.
    #[inline]
    pub(crate) fn is_unwritten(&self, i: usize) -> bool {
        match &self.inner.init {
            Some(bits) => bits[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) == 0,
            None => false,
        }
    }

    #[inline]
    fn mark_init(&self, i: usize) {
        if let Some(bits) = &self.inner.init {
            if i < self.len() {
                bits[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
            }
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.cells.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.inner.cells.is_empty()
    }

    /// Size in bytes (by element type, not atomic representation).
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }

    /// Id of the owning device.
    pub fn device_id(&self) -> usize {
        self.inner.device_id
    }

    /// Two handles alias the same device allocation.
    pub fn same_allocation(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    #[inline]
    fn cell(&self, i: usize) -> &T::Atomic {
        &self.inner.cells[i]
    }

    /// Uncounted element load (host-side or runtime-internal use).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::load(self.cell(i))
    }

    /// Uncounted element store (host-side or runtime-internal use).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        self.mark_init(i);
        T::store(self.cell(i), v)
    }

    /// Uncounted atomic add; returns the previous value.
    #[inline]
    pub fn atomic_add(&self, i: usize, v: T) -> T {
        self.mark_init(i);
        T::fetch_add(self.cell(i), v)
    }

    /// Uncounted atomic min; returns the previous value.
    #[inline]
    pub fn atomic_min(&self, i: usize, v: T) -> T {
        self.mark_init(i);
        T::fetch_min(self.cell(i), v)
    }

    /// Uncounted atomic max; returns the previous value.
    #[inline]
    pub fn atomic_max(&self, i: usize, v: T) -> T {
        self.mark_init(i);
        T::fetch_max(self.cell(i), v)
    }

    /// Uncounted compare-exchange; `Ok(previous)` on success.
    #[inline]
    pub fn compare_exchange(&self, i: usize, current: T, new: T) -> Result<T, T> {
        self.mark_init(i);
        T::compare_exchange(self.cell(i), current, new)
    }

    /// Copy the whole buffer to a host `Vec` (device-to-host memcpy).
    pub fn to_vec(&self) -> Vec<T> {
        meter_copy("d2h", self.len() * std::mem::size_of::<T>());
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Copy `src` into the buffer starting at element 0 (host-to-device
    /// memcpy). Panics if `src` is longer than the buffer.
    pub fn copy_from_host(&self, src: &[T]) {
        assert!(
            src.len() <= self.len(),
            "host-to-device copy of {} elements into buffer of {}",
            src.len(),
            self.len()
        );
        meter_copy("h2d", std::mem::size_of_val(src));
        for (i, &v) in src.iter().enumerate() {
            self.set(i, v);
        }
    }

    /// Copy the buffer into `dst` (device-to-host memcpy). Panics if `dst`
    /// is longer than the buffer.
    pub fn copy_to_host(&self, dst: &mut [T]) {
        assert!(
            dst.len() <= self.len(),
            "device-to-host copy of {} elements from buffer of {}",
            dst.len(),
            self.len()
        );
        meter_copy("d2h", std::mem::size_of_val(dst));
        for (i, v) in dst.iter_mut().enumerate() {
            *v = self.get(i);
        }
    }

    /// Device-to-device copy of `len` elements (`cudaMemcpyDeviceToDevice`).
    pub fn copy_from_device(&self, src: &DBuf<T>, len: usize) {
        assert!(len <= src.len() && len <= self.len(), "device-to-device copy out of range");
        meter_copy("d2d", len * std::mem::size_of::<T>());
        for i in 0..len {
            self.set(i, src.get(i));
        }
    }

    /// Fill every element with `v` (`cudaMemset` analogue for typed data).
    pub fn fill(&self, v: T) {
        for i in 0..self.len() {
            self.set(i, v);
        }
    }
}

/// Count a modeled transfer on the ambient metric registry, if one is
/// installed, labeled by direction. Sits on the `DBuf` copy methods — the
/// one choke point every runtime's memcpy path (fallible device API,
/// hostrt mapping, klang) flows through.
fn meter_copy(dir: &'static str, bytes: usize) {
    if let Some(reg) = ompx_telemetry::active() {
        reg.counter_add("sim_memcpys_total", &[("dir", dir)], 1);
        reg.counter_add("sim_memcpy_bytes_total", &[("dir", dir)], bytes as u64);
    }
}

impl<T: DeviceScalar> std::fmt::Debug for DBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DBuf<{}>(len={}, dev={})",
            std::any::type_name::<T>(),
            self.len(),
            self.device_id()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_host_copies() {
        let buf = DBuf::<f32>::new_zeroed(8, 0);
        assert_eq!(buf.to_vec(), vec![0.0; 8]);
        buf.copy_from_host(&[1.0, 2.0, 3.0]);
        assert_eq!(buf.get(1), 2.0);
        let mut out = vec![0.0f32; 2];
        buf.copy_to_host(&mut out);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn clone_aliases_same_memory() {
        let a = DBuf::<u32>::from_slice(&[1, 2, 3], 0);
        let b = a.clone();
        b.set(0, 42);
        assert_eq!(a.get(0), 42);
        assert!(a.same_allocation(&b));
        let c = DBuf::<u32>::from_slice(&[1, 2, 3], 0);
        assert!(!a.same_allocation(&c));
    }

    #[test]
    fn atomic_ops_integer() {
        let buf = DBuf::<u32>::from_slice(&[10], 0);
        assert_eq!(buf.atomic_add(0, 5), 10);
        assert_eq!(buf.get(0), 15);
        assert_eq!(buf.atomic_min(0, 3), 15);
        assert_eq!(buf.get(0), 3);
        assert_eq!(buf.atomic_max(0, 100), 3);
        assert_eq!(buf.get(0), 100);
        assert_eq!(buf.compare_exchange(0, 100, 7), Ok(100));
        assert_eq!(buf.compare_exchange(0, 100, 9), Err(7));
    }

    #[test]
    fn atomic_add_float_cas_loop() {
        let buf = DBuf::<f64>::from_slice(&[1.5], 0);
        assert_eq!(buf.atomic_add(0, 2.5), 1.5);
        assert_eq!(buf.get(0), 4.0);
    }

    #[test]
    fn concurrent_atomic_adds_are_exact() {
        let buf = DBuf::<f32>::new_zeroed(1, 0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = buf.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        b.atomic_add(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(buf.get(0), 8000.0);
    }

    #[test]
    fn device_to_device_copy_and_fill() {
        let a = DBuf::<i64>::from_slice(&[5, 6, 7, 8], 0);
        let b = DBuf::<i64>::new_zeroed(4, 0);
        b.copy_from_device(&a, 3);
        assert_eq!(b.to_vec(), vec![5, 6, 7, 0]);
        b.fill(-1);
        assert_eq!(b.to_vec(), vec![-1; 4]);
    }

    #[test]
    #[should_panic(expected = "host-to-device copy")]
    fn oversized_host_copy_panics() {
        let buf = DBuf::<u32>::new_zeroed(2, 0);
        buf.copy_from_host(&[1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_access_panics() {
        let buf = DBuf::<u32>::new_zeroed(2, 0);
        buf.get(2);
    }
}
