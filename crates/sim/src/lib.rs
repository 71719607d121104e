//! # ompx-sim — a functional SIMT GPU simulator with an analytical timing model
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *"OpenMP Kernel Language Extensions for Performance Portable GPU Codes"*
//! (Tian, Scogland, Chapman, Doerfert — SC-W 2023). The paper evaluates its
//! OpenMP extensions on an NVIDIA A100 and an AMD MI250; neither OpenMP nor a
//! GPU exists in this environment, so every layer of that stack is rebuilt in
//! software:
//!
//! * **Functional execution** — kernels are plain Rust closures over a
//!   [`thread::ThreadCtx`]; the executor really runs every simulated GPU
//!   thread, including block-wide barriers (`sync_threads`), warp-level
//!   primitives (shuffle/ballot), shared memory, and global-memory atomics.
//!   Program outputs (checksums) are therefore *real*, and every program
//!   version in the evaluation must agree on them.
//! * **Analytical timing** — while executing, each simulated thread counts
//!   the events a GPU would charge for (FLOPs, global/shared memory traffic,
//!   barriers, atomics, divergent branches). The [`timing`] module converts
//!   those counts into a modeled execution time using a standard
//!   occupancy × roofline model parameterised by a [`device::DeviceProfile`]
//!   (A100, MI250) and a per-kernel codegen description
//!   ([`timing::CodegenInfo`]: registers, static shared memory, binary size).
//!   This is the mechanism through which the paper's performance deltas flow
//!   (occupancy limits, memory traffic added by variable globalization, the
//!   generic-mode state machine), so the reproduced *shape* of Figure 8 is
//!   mechanistic rather than hard-coded.
//!
//! The simulator is deliberately vendor-neutral: the CUDA-like and HIP-like
//! front ends (`ompx-klang`), the OpenMP device runtime (`ompx-devicert`),
//! the OpenMP host runtime (`ompx-hostrt`), and the paper's extensions
//! (`ompx`) all lower onto this one substrate.
//!
//! ## Quick tour
//!
//! ```
//! use ompx_sim::prelude::*;
//!
//! let dev = Device::new(DeviceProfile::a100());
//! let a = dev.alloc_from(&[1.0f32, 2.0, 3.0, 4.0]);
//! let b = dev.alloc::<f32>(4);
//!
//! let kernel = Kernel::new("scale", {
//!     let (a, b) = (a.clone(), b.clone());
//!     move |ctx: &mut ThreadCtx| {
//!         let i = ctx.global_thread_id_x();
//!         if i < a.len() {
//!             let v = ctx.read(&a, i);
//!             ctx.flops(1);
//!             ctx.write(&b, i, v * 2.0);
//!         }
//!     }
//! });
//!
//! let stats = dev.launch(&kernel, LaunchConfig::linear(4, 2)).unwrap();
//! assert_eq!(b.to_vec(), vec![2.0, 4.0, 6.0, 8.0]);
//! assert_eq!(stats.flops, 4);
//! ```

pub mod barrier;
pub mod constant;
pub mod counters;
pub mod device;
pub mod dim;
pub mod error;
pub mod exec;
pub mod fault;
pub mod mem;
pub mod memtrace;
mod observe;
pub mod san;
pub mod shared;
pub mod span;
pub mod stream;
pub mod thread;
pub mod timing;
pub mod warp;

/// The workspace's JSON module, re-exported for crates that reach the
/// telemetry layer only through the simulator.
pub use ompx_telemetry::json;

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::constant::CBuf;
    pub use crate::device::{Device, DeviceProfile, Vendor};
    pub use crate::dim::{Dim3, LaunchConfig};
    pub use crate::error::SimError;
    pub use crate::exec::{Kernel, KernelFlags, Step};
    pub use crate::fault::{
        run_with_retry, FaultEvent, FaultKind, FaultPlan, FaultSite, FaultSnapshot, FaultState,
        RetryPolicy,
    };
    pub use crate::mem::{DBuf, DeviceScalar};
    pub use crate::shared::{SharedSlot, SharedView};
    pub use crate::span::{Span, SpanCategory, SpanLog, Track};
    pub use crate::stream::{Event, Stream, StreamStats};
    pub use crate::thread::ThreadCtx;
    pub use crate::timing::{CodegenInfo, ModeOverheads, ModeledTime};
}

pub use prelude::*;
