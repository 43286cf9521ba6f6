//! Static dataflow analysis for HPVM-HDC IR.
//!
//! `hdc-analyze` is the diagnostic layer of the compiler. It finds dead
//! stages, binarized values leaking into full-precision kernels, racy
//! parallel loops and other programs that run but compute the wrong thing,
//! and reports every finding under a stable code. The [`hdc_ir::verify`]
//! verifier owns the stage-interface and perforation rules; this crate
//! reports its `StageShape` violations as `HDA003` and its `Perforation`
//! violations as `HDA005`, so those two errors always mean `verify`
//! rejects the program.
//!
//! Its analyses are transfer functions over [`hdc_ir::dataflow`]: def-use
//! chains with explicit *structural* sites for the stage-interface flows
//! the instruction list does not show (`queries → body_query`,
//! `body_result → output`), and the worklist engine
//! ([`hdc_ir::dataflow::solve`]) that binarization and DCE run on too.
//!
//! * [`liveness`] — backward analysis flagging dead values (`HDA001`) and
//!   dead stage outputs (`HDA002`).
//! * [`shape`] — the verifier's stage-interface (`HDA003`) and perforation
//!   (`HDA005`) violations, element-kind drift across an encoding stage
//!   (an `HDA003` warning), bit-taint (`HDA004`), mixed perforation
//!   (`HDA010`), `wrap_shift` placement (`HDA006`, `HDA007`) and
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
    let du = hdc_ir::dataflow::DefUse::new(program);
    let mut diagnostics = Vec::new();
    let (_liveness, mut d) = liveness::check(program, &du);
    diagnostics.append(&mut d);
    let (_taint, mut d) = shape::check(program, &du);
    diagnostics.append(&mut d);
    let (_effects, mut d) = effects::check(program);
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
