//! Compiler integration: audit a whole [`hdc_passes::pipeline::compile`]
//! run by analyzing the program before and after and diffing the
//! diagnostics.

use crate::diag::AnalysisReport;
use hdc_ir::program::Program;
use hdc_passes::pipeline::{compile, CompileOptions, CompileReport, PipelineError};

/// The result of [`compile_audited`]: the compile report plus the analyzer
/// verdicts on the input and output IR.
#[derive(Debug, Clone)]
pub struct AuditedCompile {
    /// Analyzer report on the program as submitted.
    pub before: AnalysisReport,
    /// The pipeline's own report.
    pub compile: CompileReport,
    /// Analyzer report on the compiled program.
    pub after: AnalysisReport,
}

impl AuditedCompile {
    /// Diagnostics present after compilation that were not present before:
    /// `(code, message)` pairs the pipeline *introduced*. A clean compiler
    /// keeps this empty — transformations may remove findings (DCE deletes
    /// dead values) but must not create new ones.
    pub fn introduced(&self) -> Vec<(crate::diag::DiagnosticCode, String)> {
        self.after
            .diagnostics
            .iter()
            .filter(|d| {
                !self
                    .before
                    .diagnostics
                    .iter()
                    .any(|b| b.code == d.code && b.location == d.location)
            })
            .map(|d| (d.code, d.message.clone()))
            .collect()
    }
}

/// Compile `program` with the standard pipeline, analyzing the IR before
/// and after.
///
/// # Errors
///
/// Propagates [`PipelineError`] from the underlying pipeline run.
pub fn compile_audited(
    program: &mut Program,
    options: &CompileOptions,
) -> Result<AuditedCompile, PipelineError> {
    let before = crate::analyze(program);
    let compile = compile(program, options)?;
    let after = crate::analyze(program);
    Ok(AuditedCompile {
        before,
        compile,
        after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::stage::ScorePolarity;

    fn classification_like() -> Program {
        let mut b = ProgramBuilder::new("cls");
        let feats = b.input_matrix("feats", ElementKind::F64, 6, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 64, 8);
        let classes = b.input_matrix("cls", ElementKind::F64, 3, 64);
        let enc = b.encoding_loop("encode", feats, 64, |body, sample| {
            let e = body.matmul(sample, proj);
            body.sign(e)
        });
        let labels = b.inference_loop("infer", enc, classes, ScorePolarity::Distance, |body, q| {
            body.hamming_distance(q, classes)
        });
        b.mark_output(labels);
        b.finish()
    }

    #[test]
    fn audited_compile_introduces_nothing_on_clean_input() {
        let mut program = classification_like();
        let audit = compile_audited(&mut program, &CompileOptions::default()).expect("compiles");
        assert!(!audit.before.has_errors(), "{}", audit.before.summary());
        assert!(!audit.after.has_errors(), "{}", audit.after.summary());
        assert!(
            audit.introduced().is_empty(),
            "pipeline introduced: {:?}",
            audit.introduced()
        );
    }
}
