//! # hdc-passes
//!
//! Compiler transformations over HPVM-HDC IR (paper §4.2 / §4.3):
//!
//! * [`binarize`](mod@binarize) — automatic binarization propagation (Algorithm 1): a
//!   taint analysis seeded at `sign` operations that rewrites tainted
//!   hypervectors and hypermatrices to a 1-bit element representation.
//! * [`perforation`] — reduction perforation: attach `red_perf` descriptors
//!   to similarity / matmul / l2norm reductions from a compile-time
//!   configuration, without touching application source.
//! * [`lowering`] — lowering of HDC intrinsics into explicit parallel loop
//!   nests (the representation HPVM's generic back ends consume), used by
//!   the CPU/GPU back ends' cost models and for IR inspection.
//! * [`data_movement`] — hoisting of loop-invariant device transfers out of
//!   the coarse-grain stage loops (the Listing 6 optimization).
//! * [`target_assign`] — mapping of dataflow-graph nodes onto hardware
//!   targets with legality checks (accelerators only accept stage nodes and
//!   reject the approximation optimizations).
//! * [`dce`] — dead code elimination for leaf nodes.
//! * [`pipeline`] — [`compile`], which runs the five transformations above
//!   (all but lowering) in one fixed order and re-verifies the IR after
//!   every pass; [`CompileOptions`] holds the
//!   paper's two tuning knobs (binarization and perforation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binarize;
pub mod data_movement;
pub mod dce;
pub mod lowering;
pub mod perforation;
pub mod pipeline;
pub mod target_assign;

pub use binarize::{binarize, BinarizeOptions, BinarizeReport};
pub use data_movement::{hoist_data_movement, DataMovementReport};
pub use dce::{eliminate_dead_code, DceReport};
pub use lowering::{lower_instr, LoopDim, LoopNest};
pub use perforation::{apply_perforation, PerforationConfig, PerforationReport, PerforationSite};
pub use pipeline::{compile, CompileOptions, CompileReport, PipelineError};
pub use target_assign::{
    accelerator_supports, assign_targets, stage_illegal_reason, stage_placements, StagePlacement,
    TargetAssignReport, TargetConfig,
};
