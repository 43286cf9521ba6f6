//! The compiler: [`compile`] runs the paper's passes in one fixed order and
//! re-verifies the IR after every step.
//!
//! The original HPVM-HDC compiler sequences its transformations inside the
//! LLVM pass pipeline. Here the order is written out in [`compile`]:
//! automatic binarization → reduction perforation → data-movement hoisting
//! → target assignment → DCE. The two approximations are the paper's tuning
//! knobs ([`CompileOptions`]); the other three always run. The verifier runs
//! on the input and after each pass, so a transformation bug is reported
//! against the pass that introduced it rather than at execution time.

use crate::binarize::{binarize, BinarizeReport};
use crate::data_movement::{hoist_data_movement, DataMovementReport};
use crate::dce::{eliminate_dead_code, DceReport};
use crate::perforation::{apply_perforation, PerforationConfig, PerforationReport};
use crate::target_assign::{assign_targets, TargetAssignReport, TargetConfig};
use hdc_ir::program::Program;
use hdc_ir::verify::{verify, VerifyErrors};
use std::fmt;

/// Failures raised by [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The IR verifier failed after a pass ran.
    VerificationFailed {
        /// The pass after which verification failed (`"<input>"` when the
        /// program was invalid before any pass ran).
        pass: String,
        /// The verifier's failures.
        errors: VerifyErrors,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::VerificationFailed { pass, errors } => {
                write!(f, "IR invalid after pass `{pass}`: {errors}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The paper's two tuning knobs (Table 3 configurations are combinations of
/// them).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Automatic binarization; `false` disables the pass (Table 3 configs
    /// I–II).
    pub binarize: bool,
    /// Reduction-perforation rules; an empty config leaves reductions dense.
    pub perforation: PerforationConfig,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            binarize: true,
            perforation: PerforationConfig::none(),
        }
    }
}

impl CompileOptions {
    /// The paper's baseline configuration: no approximations.
    pub fn baseline() -> Self {
        CompileOptions {
            binarize: false,
            perforation: PerforationConfig::none(),
        }
    }
}

/// The report of a [`compile`] invocation: one report per pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompileReport {
    /// Binarization, when [`CompileOptions::binarize`] enabled it.
    pub binarize: Option<BinarizeReport>,
    /// Perforation, when [`CompileOptions::perforation`] had rules.
    pub perforation: Option<PerforationReport>,
    /// Data-movement hoisting.
    pub data_movement: DataMovementReport,
    /// Target assignment (the default CPU mapping).
    pub target_assign: TargetAssignReport,
    /// Dead-code elimination.
    pub dce: DceReport,
}

impl CompileReport {
    /// The binarization report, when binarization was enabled.
    pub fn binarize(&self) -> Option<&BinarizeReport> {
        self.binarize.as_ref()
    }
}

/// One line per pass that ran, in execution order: the pass name padded to
/// 16 columns, then its summary.
impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(r) = &self.binarize {
            writeln!(
                f,
                "{:<16} binarized {} values ({} instrs affected), {}B -> {}B ({:.1}x)",
                "binarize",
                r.binarized_values,
                r.affected_instrs,
                r.bytes_before,
                r.bytes_after,
                r.reduction_factor()
            )?;
        }
        if let Some(r) = &self.perforation {
            writeln!(
                f,
                "{:<16} annotated {} reductions ({} skipped on accelerators)",
                "perforation", r.annotated_instrs, r.skipped_on_accelerators
            )?;
        }
        let (dm, ta) = (&self.data_movement, &self.target_assign);
        writeln!(
            f,
            "{:<16} hoisted {} values across {} stages ({}B per iteration)",
            "data-movement", dm.hoisted_values, dm.stages, dm.hoisted_bytes_per_iteration
        )?;
        writeln!(
            f,
            "{:<16} assigned {} nodes ({} stages demoted to fallback)",
            "target-assign", ta.assigned_nodes, ta.demoted_stages
        )?;
        writeln!(
            f,
            "{:<16} removed {} dead instructions",
            "dce", self.dce.removed_instrs
        )
    }
}

/// Verify `program`, blaming `pass` for any failure.
fn verified(program: &Program, pass: &str) -> Result<(), PipelineError> {
    verify(program).map_err(|errors| PipelineError::VerificationFailed {
        pass: pass.to_string(),
        errors,
    })
}

/// Run one pass, then re-verify the IR.
fn step<R>(
    program: &mut Program,
    pass: &str,
    run: impl FnOnce(&mut Program) -> R,
) -> Result<R, PipelineError> {
    let report = run(program);
    verified(program, pass)?;
    Ok(report)
}

/// Compile a program: binarize (when enabled) → perforate (when rules are
/// present) → hoist data movement → assign targets → DCE.
///
/// Binarization runs first because it seeds at `sign` instructions and
/// changes storage sizes; hoisting accounts bytes at those sizes; target
/// legality depends on the final element kinds and perforation
/// annotations; DCE runs last so every earlier pass sees the full
/// instruction stream. Targets always get the default CPU mapping;
/// accelerator placement is done on a copy by the accelerator executor.
///
/// # Errors
///
/// Returns [`PipelineError::VerificationFailed`] naming `"<input>"` for an
/// invalid input program, or the pass after which the IR stopped verifying.
pub fn compile(
    program: &mut Program,
    options: &CompileOptions,
) -> Result<CompileReport, PipelineError> {
    verified(program, "<input>")?;
    let binarized = if options.binarize {
        Some(step(program, "binarize", binarize)?)
    } else {
        None
    };
    let perforated = if options.perforation.rules.is_empty() {
        None
    } else {
        Some(step(program, "perforation", |p| {
            apply_perforation(p, &options.perforation)
        })?)
    };
    Ok(CompileReport {
        binarize: binarized,
        perforation: perforated,
        data_movement: step(program, "data-movement", hoist_data_movement)?,
        target_assign: step(program, "target-assign", |p| {
            assign_targets(p, &TargetConfig::default())
        })?,
        dce: step(program, "dce", eliminate_dead_code)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::program::ValueId;

    fn listing1() -> (Program, ValueId, ValueId) {
        let mut b = ProgramBuilder::new("listing1");
        let features = b.input_vector("features", ElementKind::F32, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let encoded = b.matmul(features, rp);
        let encoded_b = b.sign(encoded);
        let classes_b = b.sign(classes);
        let dists = b.hamming_distance(encoded_b, classes_b);
        let label = b.arg_min(dists);
        b.mark_output(label);
        (b.finish(), encoded_b, classes_b)
    }

    /// The pass names `Display` lists, in order.
    fn pass_names(report: &CompileReport) -> Vec<String> {
        let text = report.to_string();
        text.lines()
            .map(|line| line.split_whitespace().next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn default_compile_runs_full_pipeline() {
        let (mut p, encoded_b, _) = listing1();
        let report = compile(&mut p, &CompileOptions::default()).unwrap();
        assert_eq!(
            pass_names(&report),
            vec!["binarize", "data-movement", "target-assign", "dce"]
        );
        assert!(report.binarize().unwrap().binarized_values >= 2);
        assert_eq!(p.value(encoded_b).ty.element_kind(), Some(ElementKind::Bit));
    }

    #[test]
    fn perforation_runs_second_when_configured() {
        let (mut p, ..) = listing1();
        let options = CompileOptions {
            perforation: PerforationConfig::strided_similarity(2),
            ..CompileOptions::default()
        };
        let report = compile(&mut p, &options).unwrap();
        assert_eq!(
            pass_names(&report),
            vec![
                "binarize",
                "perforation",
                "data-movement",
                "target-assign",
                "dce"
            ]
        );
        assert_eq!(report.perforation.unwrap().annotated_instrs, 1);
    }

    #[test]
    fn baseline_compile_skips_approximations() {
        let (mut p, encoded_b, _) = listing1();
        let report = compile(&mut p, &CompileOptions::baseline()).unwrap();
        assert!(report.binarize().is_none());
        assert_eq!(p.value(encoded_b).ty.element_kind(), Some(ElementKind::F32));
    }

    #[test]
    fn invalid_input_program_is_reported_as_input() {
        use hdc_ir::instr::HdcInstr;
        use hdc_ir::ops::HdcOp;
        use hdc_ir::program::{Node, NodeBody};
        use hdc_ir::Target;
        let mut p = Program::new("bad");
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::Sign,
                    vec![ValueId::new(9).into()],
                    None,
                )],
            },
        });
        let err = compile(&mut p, &CompileOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::VerificationFailed { ref pass, .. } if pass == "<input>"
        ));
    }

    #[test]
    fn stage_shape_mismatch_is_rejected_as_input() {
        // An encoding body that produces 32-element rows into a 16-column
        // output (the analyzer's HDA003 battery program): the executor
        // would fail at its first row write, so compile() refuses it.
        use hdc_ir::types::ValueType;
        use hdc_ir::verify::Rule;
        let mut b = ProgramBuilder::new("neg_shape");
        let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            body.matmul(sample, proj)
        });
        b.mark_output(enc);
        let mut p = b.finish();
        p.value_mut(enc).ty = ValueType::HyperMatrix {
            elem: ElementKind::F64,
            rows: 4,
            cols: 16,
        };
        let err = compile(&mut p, &CompileOptions::default()).unwrap_err();
        let PipelineError::VerificationFailed { pass, errors } = err;
        assert_eq!(pass, "<input>");
        assert_eq!(errors.violations.len(), 1, "{errors}");
        assert_eq!(errors.violations[0].rule, Rule::StageShape);
    }

    #[test]
    fn report_display_and_lookup() {
        let (mut p, ..) = listing1();
        let report = compile(&mut p, &CompileOptions::default()).unwrap();
        let text = report.to_string();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("binarize         binarized "));
        assert!(text.contains("target-assign    assigned "));
        assert!(text.ends_with("removed 0 dead instructions\n"));
        assert!(report.perforation.is_none());
        assert_eq!(report.target_assign.assigned_nodes, 1);
    }
}
