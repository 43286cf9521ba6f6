//! # hpvm-hdc
//!
//! Facade crate for the HPVM-HDC reproduction: a heterogeneous programming
//! system for hyperdimensional computing (ISCA 2025).
//!
//! This crate simply re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`core`] — hypervector/hypermatrix math, encodings, similarity metrics.
//! * [`ir`] — the HPVM-HDC IR and the HDC++ builder DSL.
//! * [`passes`] — automatic binarization, reduction perforation, lowering,
//!   data-movement hoisting, target assignment, and `compile()`, which runs
//!   them in one fixed order.
//! * [`runtime`] — the reference program executor: the value store and the
//!   CPU interpretation of every HDC intrinsic (dense and bit-packed).
//! * [`accel`] — the accelerator back end: analytical performance models
//!   for the digital ASIC and ReRAM targets, and the model-backed
//!   `AcceleratedExecutor` that reports modeled accelerator-vs-CPU
//!   speedups while the runtime kernels produce the outputs.
//! * [`datasets`] — seeded synthetic workloads (ISOLET-like, EMG-like,
//!   HyperOMS-like) behind the `Dataset { train, test, meta }` API.
//! * [`apps`] — the application suite: HD classification with retraining,
//!   HD clustering, and top-k spectral matching, each compiled through the
//!   full pass pipeline, executable in batched or sequential mode, and —
//!   via `run_accelerated` — through the accelerator back end.
//! * [`serve`] — the serving layer: an `Arc`-shared compiled-model
//!   registry with atomic mid-flight swaps, a time/size-windowed
//!   micro-batching request coalescer dispatching through the batched
//!   kernels (every window bit-identical to the sequential oracle),
//!   health/stats endpoints, and an open-loop load generator.
//! * [`analyze`] — the static-analysis layer over the IR's def-use
//!   chains and worklist engine (`ir::dataflow`): liveness, abstract
//!   shape/dtype and bit-taint interpretation, perforation/`wrap_shift`/
//!   `parallel_for` legality, and effect/alias classification of the
//!   `Arc`-backed value store — surfaced as an `AnalysisReport` (stable
//!   `HDA0xx` codes, JSON), the `hdc-lint` binary, and `compile_audited`,
//!   which analyzes a program before and after compilation.
//!
//! See `README.md` for the workspace layout and a quickstart,
//! `docs/architecture.md` for the IR → passes → executor walkthrough,
//! `docs/accelerator-model.md` for the accelerator cost model, and
//! `docs/serving.md` for the serving layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdc_accel as accel;
pub use hdc_analyze as analyze;
pub use hdc_apps as apps;
pub use hdc_core as core;
pub use hdc_datasets as datasets;
pub use hdc_ir as ir;
pub use hdc_passes as passes;
pub use hdc_runtime as runtime;
pub use hdc_serve as serve;
