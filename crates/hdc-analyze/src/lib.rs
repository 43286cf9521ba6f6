//! Static dataflow analysis for HPVM-HDC IR.
//!
//! `hdc-analyze` is the diagnostic layer of the compiler: where the
//! [`hdc_ir::verify`] verifier rejects programs that are structurally
//! malformed, this crate finds programs that are well-formed but *wrong* —
//! dead stages, binarized values leaking into full-precision kernels,
//! illegal perforation descriptors, mis-sized stage interfaces, racy
//! parallel loops.
//!
//! The crate is built from four pieces:
//!
//! * [`dataflow`] — def-use chains over the IR, with explicit *structural*
//!   sites for the stage-interface flows the instruction list does not
//!   show (`queries → body_query`, `body_result → output`), plus the
//!   shared worklist engine ([`dataflow::solve`]).
//! * [`liveness`] — backward analysis flagging dead values (`HDA001`) and
//!   dead stage outputs (`HDA002`).
//! * [`shape`] — abstract shape/dtype interpretation of stage interfaces
//!   (`HDA003`), bit-taint (`HDA004`), perforation legality (`HDA005`,
//!   `HDA010`), `wrap_shift` placement (`HDA006`, `HDA007`) and
//!   `parallel_for` independence (`HDA008`, `HDA009`).
//! * [`effects`] — per-node effect/alias classification over the
//!   `Arc`-backed runtime store (`HDA011` plus the one-directional
//!   zero-copy contract checked against
//!   `ExecStats::tensor_bytes_copied`).
//!
//! Everything is surfaced three ways: programmatically via [`analyze`]
//! (an [`AnalysisReport`] with machine-readable JSON), on the command line
//! via the `hdc-lint` binary (non-zero exit on errors), and around a whole
//! compile via [`pipeline::compile_audited`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod diag;
pub mod effects;
pub mod liveness;
pub mod pipeline;
pub mod shape;

pub use diag::{AnalysisReport, Diagnostic, DiagnosticCode, Location, Severity};
pub use pipeline::{compile_audited, AuditedCompile};

use hdc_ir::program::Program;

/// Run every analysis over `program` and collect the findings.
///
/// Diagnostics are ordered by analysis (liveness, then shape/taint/
/// legality, then effects); within one analysis they follow program order.
pub fn analyze(program: &Program) -> AnalysisReport {
    let du = dataflow::DefUse::new(program);
    let mut diagnostics = Vec::new();
    let (_liveness, mut d) = liveness::check(program, &du);
    diagnostics.append(&mut d);
    let (_taint, mut d) = shape::check(program, &du);
    diagnostics.append(&mut d);
    let (_effects, mut d) = effects::check(program, &du);
    diagnostics.append(&mut d);
    AnalysisReport {
        program: program.name.clone(),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;

    #[test]
    fn analyze_aggregates_all_analyses() {
        let mut b = ProgramBuilder::new("aggregate");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let n = b.input_vector("n", ElementKind::F64, 16);
        let s = b.sign(a);
        let dead = b.sign_flip(a);
        let _ = dead;
        let bad = b.div(s, n); // HDA004
        b.mark_output(bad);
        let report = analyze(&b.finish());
        assert!(report.has_code(DiagnosticCode::DeadValue), "{report}");
        assert!(report.has_code(DiagnosticCode::BitTaintLeak), "{report}");
        assert!(report.has_errors());
        assert_eq!(report.program, "aggregate");
    }

    #[test]
    fn clean_program_reports_clean() {
        let mut b = ProgramBuilder::new("clean");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let m = b.input_matrix("m", ElementKind::F64, 4, 16);
        let d = b.hamming_distance(a, m);
        let sel = b.arg_min(d);
        b.mark_output(sel);
        let report = analyze(&b.finish());
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(!report.has_errors());
    }
}
