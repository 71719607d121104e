//! # ompx-prof — an Nsight/rocprof-style profiler for the simulator
//!
//! The paper evaluates its OpenMP kernel-language extensions by comparing
//! modeled kernel times across program versions and devices. This crate
//! adds the observability layer a real performance study leans on:
//!
//! * **Derived metrics** ([`metrics`]) — achieved occupancy, % of peak
//!   DRAM throughput, arithmetic intensity, warp-execution and coalescing
//!   efficiency, stall fractions, and a bottleneck classification read
//!   directly off the timing model's dominant term.
//! * **Timelines** ([`chrome`]) — the runtimes record [`Span`]s (kernel
//!   bars, H2D/D2H memcpy bars, `nowait` submissions with flow arrows)
//!   into an ambient [`SpanLog`]; the exporter renders them as a
//!   multi-track Chrome/Perfetto trace: one host track, one per stream,
//!   one for the hidden helper threads.
//! * **Rooflines** ([`roofline`]) — per-kernel `(AI, GFLOP/s)` placement
//!   against the device's memory and compute roofs, as CSV.
//! * **Reports** ([`report`]) — profile tables in text/CSV/JSON; the JSON
//!   report is the committed baseline the `profile --baseline` gate diffs
//!   field by field.
//! * **Stream-overlap probe** ([`probe`]) — the §3.5
//!   `depend(interopobj:)` idiom run as a self-check, so every profile
//!   carries a genuine multi-stream timeline and a serialization canary.
//!
//! The `profile` binary in `ompx-bench` drives all of this over the
//! HeCBench app × version × device matrix.
//!
//! [`Span`]: ompx_sim::span::Span
//! [`SpanLog`]: ompx_sim::span::SpanLog

pub mod chrome;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod roofline;

pub use chrome::to_chrome_trace;
pub use metrics::{classify, derive_metrics, Bottleneck, KernelMetrics};
pub use probe::{overlap_probe, OverlapReport};
pub use report::{table_csv, table_text, to_json, CellProfile};
pub use roofline::{place, RooflinePoint};
