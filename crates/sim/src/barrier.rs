//! A reusable sense-reversing barrier tuned for oversubscribed simulation.
//!
//! On its team path (closure kernels that call `sync_threads` or warp
//! collectives) the executor runs a thread block's lanes on real OS
//! threads, usually many more lanes than hardware cores. A pure spin
//! barrier would burn the very cores the other lanes need, so this barrier
//! spins briefly (cheap when the machine has spare cores) and then parks on
//! a condvar (cheap when it does not). Participant count is fixed at
//! construction; the executor builds one barrier per block team sized to
//! the launch's block dimension.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many times a waiter spins before parking.
const SPIN_LIMIT: u32 = 64;

/// A reusable barrier for a fixed set of participants.
pub struct SenseBarrier {
    participants: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SenseBarrier {
    /// A barrier for `participants` threads. Panics if zero.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        SenseBarrier {
            participants,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participants required per phase.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Block until all participants have arrived. Returns `true` for exactly
    /// one "leader" thread per phase (the last to arrive).
    pub fn wait(&self) -> bool {
        let my_sense = !self.sense.load(Ordering::Acquire);
        let pos = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if pos == self.participants {
            // Last arrival: reset the counter and flip the sense.
            self.arrived.store(0, Ordering::Release);
            let _guard = self.lock.lock();
            self.sense.store(my_sense, Ordering::Release);
            self.cv.notify_all();
            return true;
        }
        // Spin briefly, then park.
        let mut spins = 0;
        while self.sense.load(Ordering::Acquire) != my_sense {
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
                spins += 1;
            } else {
                let mut guard = self.lock.lock();
                while self.sense.load(Ordering::Acquire) != my_sense {
                    self.cv.wait(&mut guard);
                }
                break;
            }
        }
        false
    }
}

/// A barrier whose participants may *retire* (stop participating) at any
/// phase boundary — the behaviour of CUDA's `__syncthreads()` when some
/// threads of the block have already returned from the kernel: exited
/// threads count as arrived for every subsequent barrier.
///
/// Used for intra-kernel `sync_threads`/`sync_warp`, where lanes that finish
/// the kernel body early call [`RetireBarrier::retire`] so the remaining
/// lanes' barriers still complete.
pub struct RetireBarrier {
    state: Mutex<RetireState>,
    cv: Condvar,
}

struct RetireState {
    active: usize,
    arrived: usize,
    phase: u64,
}

impl RetireBarrier {
    /// A barrier initially expecting `active` participants.
    pub fn new(active: usize) -> Self {
        RetireBarrier {
            state: Mutex::new(RetireState { active, arrived: 0, phase: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Arrive and wait for the current phase to complete. Returns `true` for
    /// the lane that completed the phase.
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        st.arrived += 1;
        if st.arrived >= st.active {
            st.arrived = 0;
            st.phase += 1;
            self.cv.notify_all();
            return true;
        }
        let my_phase = st.phase;
        while st.phase == my_phase {
            self.cv.wait(&mut st);
        }
        false
    }

    /// Permanently stop participating. If this retirement completes the
    /// current phase, the waiting lanes are released; their count is
    /// returned (zero otherwise). A non-zero return means lanes were
    /// parked mid-`sync_threads` when this lane exited the kernel — the
    /// signature synccheck uses to flag barrier divergence.
    pub fn retire(&self) -> usize {
        let mut st = self.state.lock();
        debug_assert!(st.active > 0, "retire on an empty barrier");
        st.active -= 1;
        if st.active > 0 && st.arrived >= st.active {
            let released = st.arrived;
            st.arrived = 0;
            st.phase += 1;
            self.cv.notify_all();
            return released;
        }
        0
    }

    /// Number of still-active participants.
    pub fn active(&self) -> usize {
        self.state.lock().active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        for _ in 0..100 {
            assert!(b.wait());
        }
    }

    #[test]
    fn barrier_is_a_total_order_point() {
        // Classic check: each thread increments a counter before the barrier;
        // after the barrier every thread must observe the full count.
        const T: usize = 16;
        const ROUNDS: usize = 50;
        let barrier = Arc::new(SenseBarrier::new(T));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..T {
                let b = barrier.clone();
                let c = counter.clone();
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        c.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        assert_eq!(c.load(Ordering::SeqCst), (round * T) as u64);
                        b.wait(); // second barrier so nobody races ahead
                    }
                });
            }
        });
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        const T: usize = 8;
        let barrier = Arc::new(SenseBarrier::new(T));
        let leaders = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..T {
                let b = barrier.clone();
                let l = leaders.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        if b.wait() {
                            l.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 20);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SenseBarrier::new(0);
    }

    #[test]
    fn retire_barrier_basic_sync() {
        const T: usize = 8;
        let barrier = Arc::new(RetireBarrier::new(T));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..T {
                let b = barrier.clone();
                let c = counter.clone();
                s.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    assert_eq!(c.load(Ordering::SeqCst), T as u64);
                    b.retire();
                });
            }
        });
        assert_eq!(barrier.active(), 0);
    }

    #[test]
    fn retired_lanes_do_not_block_later_phases() {
        // Half the lanes retire immediately (early kernel return); the rest
        // must still complete several barrier phases.
        const T: usize = 6;
        let barrier = Arc::new(RetireBarrier::new(T));
        std::thread::scope(|s| {
            for i in 0..T {
                let b = barrier.clone();
                s.spawn(move || {
                    if i % 2 == 0 {
                        b.retire();
                        return;
                    }
                    for _ in 0..10 {
                        b.wait();
                    }
                    b.retire();
                });
            }
        });
        assert_eq!(barrier.active(), 0);
    }

    #[test]
    fn retiring_last_lane_completes_phase() {
        let barrier = Arc::new(RetireBarrier::new(2));
        let b2 = barrier.clone();
        let waiter = std::thread::spawn(move || {
            b2.wait(); // blocks until the other lane retires
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        barrier.retire();
        waiter.join().unwrap();
    }
}
