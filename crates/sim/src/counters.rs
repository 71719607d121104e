//! Cost counters: the event counts that feed the timing model.
//!
//! One struct, [`StatsSnapshot`], holds them at every level. A running lane
//! counts into its own `ThreadCtx::counters`; the executor sums a block's
//! lanes when the block commits and folds the sums into the launch total
//! (once per worker on the block loop, once per block on the team path),
//! setting the thread and block counts as it folds. The sums are integer, so the total is the same
//! in any fold order and at any worker count. These are the quantities a GPU
//! charges time for; [`crate::timing`] turns them into a modeled execution
//! time.

use serde::{Deserialize, Serialize};

/// Event counts of one lane, one block or a whole launch (plain fields: no
/// synchronization cost on the hot path of the functional simulation).
/// Scalable for workload extrapolation: the benchmarks simulate a
/// scaled-down problem and multiply counters up to the paper's problem size
/// before timing (see DESIGN.md §2).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Floating-point operations (fused multiply-add counts as 2).
    pub flops: u64,
    /// Integer/logic ALU operations that the kernel wants costed explicitly.
    pub int_ops: u64,
    /// Bytes read from global memory.
    pub global_load_bytes: u64,
    /// Bytes written to global memory.
    pub global_store_bytes: u64,
    /// Individual shared-memory accesses (reads + writes).
    pub shared_accesses: u64,
    /// Block-wide barriers, counted once per participating thread.
    pub barriers: u64,
    /// Warp-level synchronizations/shuffles, counted once per participating
    /// thread.
    pub warp_ops: u64,
    /// Global-memory atomic operations.
    pub atomic_ops: u64,
    /// Branches annotated as warp-divergent by the kernel.
    pub divergent_branches: u64,
    /// Operations executed in a serialized (master-only) runtime section;
    /// used by the OpenMP generic-mode device runtime model.
    pub serial_ops: u64,
    /// Constant-memory reads (broadcast-cached, near-register cost).
    pub const_reads: u64,
    /// Bytes read through warp-uniform (broadcast) loads; the hardware
    /// serves one transaction per warp, so the timing model divides these
    /// by the warp width.
    pub uniform_load_bytes: u64,
    /// Simulated threads that retired. Zero inside a running lane; the
    /// executor sets it when it folds.
    pub threads_executed: u64,
    /// Blocks that completed. Zero inside a running lane; the executor sets
    /// it when it folds.
    pub blocks_executed: u64,
}

impl StatsSnapshot {
    /// Total global-memory traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Add another counter set into this one, field by field.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.global_load_bytes += other.global_load_bytes;
        self.global_store_bytes += other.global_store_bytes;
        self.shared_accesses += other.shared_accesses;
        self.barriers += other.barriers;
        self.warp_ops += other.warp_ops;
        self.atomic_ops += other.atomic_ops;
        self.divergent_branches += other.divergent_branches;
        self.serial_ops += other.serial_ops;
        self.const_reads += other.const_reads;
        self.uniform_load_bytes += other.uniform_load_bytes;
        self.threads_executed += other.threads_executed;
        self.blocks_executed += other.blocks_executed;
    }

    /// Element-wise sum of two counter sets (multi-kernel launches).
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        let mut sum = *self;
        sum.merge(other);
        sum
    }

    /// Multiply every extensive counter by `factor` (workload extrapolation).
    pub fn scaled(&self, factor: f64) -> StatsSnapshot {
        let s = |v: u64| ((v as f64) * factor).round() as u64;
        StatsSnapshot {
            flops: s(self.flops),
            int_ops: s(self.int_ops),
            global_load_bytes: s(self.global_load_bytes),
            global_store_bytes: s(self.global_store_bytes),
            shared_accesses: s(self.shared_accesses),
            barriers: s(self.barriers),
            warp_ops: s(self.warp_ops),
            atomic_ops: s(self.atomic_ops),
            divergent_branches: s(self.divergent_branches),
            serial_ops: s(self.serial_ops),
            const_reads: s(self.const_reads),
            uniform_load_bytes: s(self.uniform_load_bytes),
            threads_executed: s(self.threads_executed),
            blocks_executed: s(self.blocks_executed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = StatsSnapshot { flops: 1, global_load_bytes: 4, ..Default::default() };
        let b = StatsSnapshot {
            flops: 2,
            barriers: 3,
            serial_ops: 7,
            threads_executed: 5,
            blocks_executed: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 3);
        assert_eq!(a.global_load_bytes, 4);
        assert_eq!(a.barriers, 3);
        assert_eq!(a.serial_ops, 7);
        assert_eq!(a.threads_executed, 5);
        assert_eq!(a.blocks_executed, 1);
    }

    #[test]
    fn snapshot_scaling_rounds() {
        let snap = StatsSnapshot {
            flops: 10,
            global_store_bytes: 3,
            threads_executed: 1,
            ..Default::default()
        };
        let scaled = snap.scaled(2.5);
        assert_eq!(scaled.flops, 25);
        assert_eq!(scaled.global_store_bytes, 8); // 7.5 rounds to 8
        assert_eq!(scaled.threads_executed, 3); // 2.5 rounds
    }

    #[test]
    fn snapshot_merge_is_elementwise() {
        let a = StatsSnapshot { flops: 1, barriers: 2, ..Default::default() };
        let b = StatsSnapshot { flops: 10, shared_accesses: 5, ..Default::default() };
        let m = a.merged(&b);
        assert_eq!(m.flops, 11);
        assert_eq!(m.barriers, 2);
        assert_eq!(m.shared_accesses, 5);
    }
}
