//! # hdc-ir
//!
//! The HPVM-HDC intermediate representation and the HDC++ builder DSL.
//!
//! The original HPVM-HDC compiler extends LLVM/HPVM IR with HDC intrinsics
//! and represents programs as hierarchical dataflow graphs whose nodes are
//! annotated with hardware targets (paper §4.1). This crate reproduces that
//! layer in Rust:
//!
//! * [`Program`] — a retargetable HDC program: a table of typed value slots
//!   plus a top-level dataflow graph of [`Node`]s. Leaf nodes hold straight
//!   line sequences of [`HdcInstr`]s; `ParallelFor` nodes capture generic
//!   Hetero-C++-style data parallelism; [`StageNode`]s capture the three
//!   coarse-grain algorithmic stages (`encoding_loop`, `training_loop`,
//!   `inference_loop`) that map onto HDC accelerators.
//! * [`HdcOp`] — the HDC intrinsics of the paper's Table 1.
//! * [`ProgramBuilder`] — the HDC++-like embedded DSL used by applications
//!   to construct programs without referring to any hardware target.
//! * [`verify::verify`] — the IR verifier: value ids in range, op arity
//!   and shapes, stage interfaces, perforation and target legality, each
//!   failure a typed [`verify::Violation`].
//! * [`dataflow`] — def-use chains (with the structural stage flows) and
//!   the worklist engine that binarization, DCE and the analyzer share.
//! * [`printer`] — a human-readable textual dump of the IR.
//! * [`Target`] — the hardware targets nodes may be annotated with.
//!
//! Compiler transformations over this IR live in the `hdc-passes` crate and
//! execution lives in `hdc-runtime` / `hdc-accel`.
//!
//! # Example
//!
//! ```
//! use hdc_ir::prelude::*;
//!
//! // Listing 1 of the paper: random-projection encoding followed by
//! // Hamming-distance scoring and arg-min, expressed in the builder DSL.
//! let mut b = ProgramBuilder::new("classify_one");
//! let features = b.input_vector("input_features", ElementKind::F32, 617);
//! let rp = b.input_matrix("rp_matrix", ElementKind::F32, 2048, 617);
//! let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
//! let encoded = b.matmul(features, rp);
//! let dists = b.hamming_distance(encoded, classes);
//! let label = b.arg_min(dists);
//! b.mark_output(label);
//! let program = b.finish();
//! assert!(hdc_ir::verify::verify(&program).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dataflow;
pub mod instr;
pub mod ops;
pub mod printer;
pub mod program;
pub mod stage;
pub mod target;
pub mod types;
pub mod verify;

pub use builder::ProgramBuilder;
pub use instr::{HdcInstr, Operand};
pub use ops::HdcOp;
pub use program::{Node, NodeBody, NodeId, Program, ValueId, ValueInfo, ValueRole};
pub use stage::{ScorePolarity, StageInterface, StageKind, StageNode};
pub use target::Target;
pub use types::ValueType;

/// Re-export of the element kind tag shared with `hdc-core`.
pub use hdc_core::element::ElementKind;

/// Commonly used items for building and inspecting HDC programs.
pub mod prelude {
    pub use crate::builder::ProgramBuilder;
    pub use crate::instr::{HdcInstr, Operand};
    pub use crate::ops::HdcOp;
    pub use crate::program::{Node, NodeBody, Program, ValueId, ValueRole};
    pub use crate::stage::{ScorePolarity, StageKind};
    pub use crate::target::Target;
    pub use crate::types::ValueType;
    pub use crate::ElementKind;
}
