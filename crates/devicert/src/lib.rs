//! # ompx-devicert — the LLVM OpenMP *device* runtime, modeled
//!
//! When Clang compiles a traditional OpenMP `target teams` region for a GPU
//! it links a device runtime (Doerfert et al., IPDPS'22; Huber et al.,
//! CGO'22 — the paper's refs \[5\] and \[9\]) that makes the SIMT machine
//! behave like the OpenMP execution model:
//!
//! * **Generic mode** — when the region has sequential parts between
//!   `parallel` constructs, one *master* thread executes them while the
//!   remaining threads of the team idle in a **state machine**, waiting for
//!   the master to broadcast parallel-region work descriptors. Every
//!   `parallel` region costs two team-wide barriers plus descriptor
//!   handling, and the sequential parts are fully serialized.
//! * **Variable globalization** — locals that may be shared across the
//!   team cannot live in registers; the runtime moves them to a globalized
//!   heap in device memory (or, when the heap-to-shared optimization
//!   applies, into shared memory — the effect the paper observes for
//!   RSBench §4.2.2).
//! * **SPMD mode** — when the compiler can prove the region is uniformly
//!   parallel (`target teams distribute parallel for`), all threads execute
//!   it directly and most of the machinery disappears.
//!
//! The paper's `ompx_bare` extension (§3.1) exists precisely to bypass all
//! of this; the Figure 8 gaps between `omp` and `ompx` are this crate's
//! costs. We therefore implement the modes so the gap *emerges* from counted
//! events rather than being asserted:
//!
//! * Generic-mode regions run the master's work for real (functionally
//!   correct results) and charge the state-machine events — fork/join
//!   barrier participations, descriptor ops, serialized region dispatch —
//!   to the same counters every other kernel uses.
//! * Globalized scratch ([`globalization::Scratch`]) really lives in a
//!   [`ompx_sim::mem::DBuf`] (global memory traffic) or a shared-memory slot
//!   (heap-to-shared), so the traffic difference is measured, not
//!   configured.
//!
//! Apart from [`ExecMode`], which other crates read off launch plans, the
//! crate's one caller is `ompx-hostrt`'s target-region lowering, and its
//! API is what that lowering calls:
//!
//! * [`mode`] — [`ExecMode`] and its launch-time overheads;
//! * [`spmd`] — [`spmd::spmd_kernel`] over [`spmd::SpmdCtx`]'s
//!   `distribute_parallel_for[_reduce]`;
//! * [`generic`] — [`generic::generic_kernel`] and
//!   [`generic::generic_launch_config`] over [`generic::TeamCtx`]'s
//!   `parallel_for[_reduce]`;
//! * [`globalization`] — [`globalization::Scratch`], the per-thread scratch
//!   a region body reads and writes.

pub mod generic;
pub mod globalization;
pub mod mode;
pub mod spmd;

pub use mode::ExecMode;
