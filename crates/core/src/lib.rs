//! # ompx — OpenMP kernel language extensions (the paper's contribution)
//!
//! This crate is the Rust rendering of the extensions proposed in
//! *"OpenMP Kernel Language Extensions for Performance Portable GPU
//! Codes"* (Tian, Scogland, Chapman, Doerfert — SC-W 2023), built on the
//! modeled LLVM OpenMP stack (`ompx-hostrt` + `ompx-devicert`) and the GPU
//! simulator (`ompx-sim`):
//!
//! | Paper section | Extension | Here |
//! |---|---|---|
//! | §3.1 | `ompx_bare` clause: bare-metal target regions with no device runtime and no globalization | [`bare::BareTarget`] |
//! | §3.2 | multi-dimensional `num_teams` / `thread_limit` | [`bare::BareTarget::num_teams`] accepts 1-, 2-, 3-D (and longer — extra dimensions are disregarded, as specified) |
//! | §3.3 | device APIs: thread indexing, block/warp sync, warp primitives | [`device_api`] (C-style `ompx_*` functions and the idiomatic [`device_api::Dim`]-based forms) |
//! | §3.4 | host APIs (`ompx_malloc`, …) | [`host_api`] |
//! | §3.5 | `depend(interopobj: obj)` dependence type | [`interop_depend`] |
//! | §3.6 | wrapper layer over vendor libraries | [`blas`] |
//!
//! ## The porting story (Figure 1 → Figure 4)
//!
//! A CUDA kernel ports to a bare OpenMP target region by text replacement:
//!
//! ```
//! use ompx::prelude::*;
//!
//! let omp = ompx::runtime_nvidia();              // prototype toolchain
//! let n = 1000usize;
//! let a = ompx::host_api::ompx_malloc_from(&omp, &vec![2.0f32; n]);
//! let b = ompx::host_api::ompx_malloc::<f32>(&omp, n);
//!
//! let bsize = 128u32;
//! let gsize = (n as u32).div_ceil(bsize);
//! // #pragma omp target teams ompx_bare num_teams(gsize) thread_limit(bsize)
//! let r = BareTarget::new(&omp, "vscale")
//!     .num_teams([gsize])
//!     .thread_limit([bsize])
//!     .launch({
//!         let (a, b) = (a.clone(), b.clone());
//!         move |tc| {
//!             let i = ompx_block_id_x(tc) * ompx_block_dim_x(tc) + ompx_thread_id_x(tc);
//!             if i < n {
//!                 let v = tc.read(&a, i);
//!                 tc.flops(1);
//!                 tc.write(&b, i, 2.0 * v);
//!             }
//!         }
//!     })
//!     .unwrap();
//! assert_eq!(b.to_vec(), vec![4.0f32; n]);
//! assert!(r.modeled.seconds > 0.0);
//! ```

pub mod bare;
pub mod blas;
pub mod device_api;
pub mod host_api;
pub mod interop_depend;

pub use bare::BareTarget;
pub use ompx_hostrt::{InteropObj, OmpxError, OpenMp};

use ompx_klang::toolchain::Toolchain;
use ompx_sim::device::{Device, DeviceProfile};

/// The runtime of an `ompx`-compiled program on the paper's NVIDIA system:
/// A100 + the LLVM 18 prototype toolchain, no `omp`-mode quirks (bare
/// regions bypass the runtime paths the quirks live in).
pub fn runtime_nvidia() -> OpenMp {
    OpenMp::with_device(
        Device::new(DeviceProfile::a100()),
        Toolchain::OmpxPrototype,
        ompx_hostrt::KnownIssues::new(),
    )
}

/// The runtime of an `ompx`-compiled program on the paper's AMD system.
pub fn runtime_amd() -> OpenMp {
    OpenMp::with_device(
        Device::new(DeviceProfile::mi250()),
        Toolchain::OmpxPrototype,
        ompx_hostrt::KnownIssues::new(),
    )
}

/// An `ompx` runtime on an explicit device.
pub fn runtime_on(device: Device) -> OpenMp {
    OpenMp::with_device(device, Toolchain::OmpxPrototype, ompx_hostrt::KnownIssues::new())
}

/// Convenient glob import mirroring `#include <ompx.h>` + `using namespace
/// ompx`.
pub mod prelude {
    pub use crate::bare::BareTarget;
    pub use crate::device_api::*;
    pub use crate::host_api::*;
    pub use crate::interop_depend::*;
    pub use ompx_hostrt::{InteropObj, OmpxError, OpenMp};
    pub use ompx_sim::exec::Step;
    pub use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite, RetryPolicy};
    pub use ompx_sim::thread::ThreadCtx;
}
