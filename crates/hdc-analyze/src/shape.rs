//! Abstract shape / dtype interpretation and legality rules.
//!
//! The IR verifier checks per-instruction operand typing; what it cannot
//! see is how values flow *across* stage interfaces and loop boundaries.
//! This module closes that gap with four families of checks:
//!
//! * **Stage-interface shapes** (`HDA003`): the per-sample `body_result`
//!   must agree with what the stage semantics do with it — an encoding
//!   body must produce one output row (`dim == output.cols`), a training
//!   or inference body must produce one score per class
//!   (`dim == classes.rows`), and the output length must match the query
//!   count. Element-kind drift across an interface is a warning.
//! * **Bit-taint** (`HDA004`): a forward dataflow tracks which values are
//!   binarized (±1 / packed-bit contents). Feeding a tainted value into
//!   an `hdc.div` or element-wise `cosine` — kernels that are only
//!   meaningful on full-precision data — is an error. Reductions and
//!   selections launder taint (collapsing the hypervector dimension
//!   produces full-precision scores), as does a `type_cast` to a dense
//!   kind; that mirrors Algorithm 1's `IsHDCReduceOp` rule.
//! * **Perforation legality** (`HDA005`, `HDA010`): a `red_perf`
//!   annotation on an op that does not support it, or a descriptor that
//!   is invalid for the op's reduction dimension, is an error. Mixing
//!   different descriptors on the same op within one node is a warning —
//!   the scores are no longer comparable.
//! * **`wrap_shift` position** (`HDA006`, `HDA007`): wrap-shift is a
//!   permutation *encoding* primitive. Applying it to a reduction or
//!   selection result (scores, labels) or to a non-tensor is an error;
//!   a shift amount that is a multiple of the dimension is a no-op
//!   warning.

use crate::diag::{Diagnostic, DiagnosticCode, Location, Severity};
use hdc_core::element::ElementKind;
use hdc_core::ops::ElementwiseOp;
use hdc_ir::dataflow::{solve, DefUse, Direction, Site, SiteKind};
use hdc_ir::instr::HdcInstr;
use hdc_ir::ops::{HdcOp, OpCategory};
use hdc_ir::program::{NodeBody, Program, ValueId};
use hdc_ir::stage::StageKind;
use hdc_ir::types::ValueType;

/// Result of the bit-taint analysis.
#[derive(Debug, Clone)]
pub struct BitTaint {
    /// `tainted[v]` is true when value `v` may hold binarized contents.
    pub tainted: Vec<bool>,
}

impl BitTaint {
    /// Whether a value may hold binarized contents.
    pub fn is_tainted(&self, v: ValueId) -> bool {
        self.tainted[v.index()]
    }
}

/// Compute bit-taint for `program` over prebuilt def-use chains.
pub fn compute_taint(program: &Program, du: &DefUse) -> BitTaint {
    let seeds: Vec<(ValueId, bool)> = program
        .values()
        .iter()
        .enumerate()
        .filter(|(_, info)| info.ty.element_kind() == Some(ElementKind::Bit))
        .map(|(i, _)| (ValueId::new(i), true))
        .collect();
    let tainted = solve(
        du,
        program.values().len(),
        &seeds,
        Direction::Forward,
        |site: &Site, facts: &[bool]| transfer_taint(program, site, facts),
    );
    BitTaint { tainted }
}

fn transfer_taint(program: &Program, site: &Site, facts: &[bool]) -> Vec<(ValueId, bool)> {
    let any_read = site.reads.iter().any(|r| facts[r.index()]);
    match site.kind {
        SiteKind::Instr { node, index } => {
            let instr = &program.node(node).instrs()[index];
            let out = match instr.op {
                // Binarization points: sign produces ±1 contents whatever
                // the storage kind; a cast to Bit packs.
                HdcOp::Sign
                | HdcOp::TypeCast {
                    to: ElementKind::Bit,
                } => true,
                // Densification point: casting to a dense kind launders.
                HdcOp::TypeCast { .. } => false,
                _ => match instr.op.category() {
                    // Collapsing the hypervector dimension produces
                    // full-precision scores / indices (Algorithm 1).
                    OpCategory::Reduction | OpCategory::Selection => false,
                    OpCategory::Creation => false,
                    OpCategory::Elementwise | OpCategory::DataMovement => any_read,
                },
            };
            site.writes.iter().map(|w| (*w, out)).collect()
        }
        SiteKind::StageQueryFlow { .. } => {
            // The executor copies one query row into the body-query slot.
            site.writes.iter().map(|w| (*w, any_read)).collect()
        }
        SiteKind::StageResultFlow { node } => {
            let is_selection = match &program.node(node).body {
                NodeBody::Stage(stage) => matches!(stage.kind, StageKind::Inference),
                _ => false,
            };
            // Inference outputs are selected labels; encoding outputs are
            // the body results stacked, training outputs accumulate the
            // (possibly binarized) queries.
            let out = !is_selection && any_read;
            site.writes.iter().map(|w| (*w, out)).collect()
        }
        SiteKind::ParallelForIndex { .. } => Vec::new(),
    }
}

/// Run all shape / taint / perforation / wrap-shift checks.
pub fn check(program: &Program, du: &DefUse) -> (BitTaint, Vec<Diagnostic>) {
    let taint = compute_taint(program, du);
    let mut diags = Vec::new();
    check_stage_interfaces(program, &mut diags);
    check_taint_leaks(program, du, &taint, &mut diags);
    check_perforation(program, du, &mut diags);
    check_wrap_shift(program, du, &mut diags);
    check_parallel_for(program, du, &mut diags);
    (taint, diags)
}

fn rows_of(ty: &ValueType) -> Option<usize> {
    match ty {
        ValueType::HyperMatrix { rows, .. } => Some(*rows),
        _ => None,
    }
}

fn output_len(ty: &ValueType) -> Option<usize> {
    match ty {
        ValueType::IndexVector { len } => Some(*len),
        ValueType::HyperMatrix { rows, .. } => Some(*rows),
        _ => None,
    }
}

fn check_stage_interfaces(program: &Program, diags: &mut Vec<Diagnostic>) {
    for node in program.nodes() {
        let NodeBody::Stage(stage) = &node.body else {
            continue;
        };
        let result_ty = program.value(stage.body_result).ty;
        let result_name = &program.value(stage.body_result).name;
        let result_dim = result_ty.reduction_dim();
        let loc = || Location::node(&node.name).with_value(result_name);
        match stage.kind {
            StageKind::Encoding => {
                let out_ty = program.value(stage.interface.output).ty;
                if let (Some(dim), ValueType::HyperMatrix { cols, .. }) = (result_dim, out_ty) {
                    if dim != cols {
                        diags.push(Diagnostic {
                            code: DiagnosticCode::StageShapeMismatch,
                            severity: Severity::Error,
                            location: loc(),
                            message: format!(
                                "encoding body produces a {dim}-element result but the stage \
                                 output has {cols} columns"
                            ),
                            suggestion: Some(
                                "make the body return one encoded row of the output width".into(),
                            ),
                        });
                    }
                }
                if let (Some(re), Some(oe)) = (result_ty.element_kind(), out_ty.element_kind()) {
                    if re != oe {
                        diags.push(Diagnostic {
                            code: DiagnosticCode::StageShapeMismatch,
                            severity: Severity::Warning,
                            location: loc(),
                            message: format!(
                                "encoding body result is {re} but the stage output stores \
                                 {oe}; the executor will convert every row"
                            ),
                            suggestion: Some("cast inside the body or retype the output".into()),
                        });
                    }
                }
            }
            StageKind::Training { .. } | StageKind::Inference => {
                let classes_rows = stage
                    .interface
                    .classes
                    .and_then(|c| rows_of(&program.value(c).ty));
                if let (Some(dim), Some(rows)) = (result_dim, classes_rows) {
                    if dim != rows {
                        diags.push(Diagnostic {
                            code: DiagnosticCode::StageShapeMismatch,
                            severity: Severity::Error,
                            location: loc(),
                            message: format!(
                                "{} body produces {dim} scores but the class memory has \
                                 {rows} rows; {} selects over one score per class",
                                stage.kind,
                                match stage.polarity {
                                    hdc_ir::stage::ScorePolarity::Similarity => "arg_max",
                                    hdc_ir::stage::ScorePolarity::Distance => "arg_min",
                                },
                            ),
                            suggestion: Some(
                                "score against the stage's class matrix so lengths agree".into(),
                            ),
                        });
                    }
                }
            }
        }
        // Output length vs query count, for every stage kind that maps one
        // query row to one output row/label.
        let q_ty = program.value(stage.interface.queries).ty;
        let out_ty = program.value(stage.interface.output).ty;
        if !matches!(stage.kind, StageKind::Training { .. }) {
            if let (Some(q_rows), Some(out_rows)) = (rows_of(&q_ty), output_len(&out_ty)) {
                if q_rows != out_rows {
                    diags.push(Diagnostic {
                        code: DiagnosticCode::StageShapeMismatch,
                        severity: Severity::Error,
                        location: Location::node(&node.name)
                            .with_value(&program.value(stage.interface.output).name),
                        message: format!(
                            "{} maps {q_rows} query rows to an output of length {out_rows}",
                            stage.kind
                        ),
                        suggestion: Some("size the stage output to the query count".into()),
                    });
                }
            }
        }
    }
}

fn check_taint_leaks(
    program: &Program,
    du: &DefUse,
    taint: &BitTaint,
    diags: &mut Vec<Diagnostic>,
) {
    for site in &du.sites {
        let SiteKind::Instr { node, index } = site.kind else {
            continue;
        };
        let instr = &program.node(node).instrs()[index];
        let precision_kernel = matches!(
            instr.op,
            HdcOp::Elementwise(ElementwiseOp::Div) | HdcOp::CosineElementwise
        );
        if !precision_kernel {
            continue;
        }
        for read in &site.reads {
            if taint.is_tainted(*read) {
                let name = &program.value(*read).name;
                diags.push(Diagnostic {
                    code: DiagnosticCode::BitTaintLeak,
                    severity: Severity::Error,
                    location: Location::instr(&program.node(node).name, index).with_value(name),
                    message: format!(
                        "binarized value `{name}` flows into `{}`, which is only meaningful \
                         on full-precision data",
                        instr.op
                    ),
                    suggestion: Some(format!(
                        "insert a `type_cast` to a dense kind before `{}` or drop the \
                         binarization upstream",
                        instr.op
                    )),
                });
            }
        }
    }
}

fn reduction_dim_of_first_operand(program: &Program, instr: &HdcInstr) -> Option<usize> {
    let first = instr.operands.first()?.as_value()?;
    program.value(first).ty.reduction_dim()
}

fn check_perforation(program: &Program, du: &DefUse, diags: &mut Vec<Diagnostic>) {
    for site in &du.sites {
        let SiteKind::Instr { node, index } = site.kind else {
            continue;
        };
        let instr = &program.node(node).instrs()[index];
        let Some(perf) = instr.perforation else {
            continue;
        };
        let loc = Location::instr(&program.node(node).name, index);
        if !instr.op.supports_perforation() {
            diags.push(Diagnostic {
                code: DiagnosticCode::IllegalPerforation,
                severity: Severity::Error,
                location: loc,
                message: format!(
                    "`{}` carries a red_perf annotation but is not a perforable reduction",
                    instr.op
                ),
                suggestion: Some(
                    "red_perf is legal on hamming_distance, cossim, matmul and l2norm only".into(),
                ),
            });
            continue;
        }
        if let Some(dim) = reduction_dim_of_first_operand(program, instr) {
            if let Err(e) = perf.validate(dim) {
                diags.push(Diagnostic {
                    code: DiagnosticCode::IllegalPerforation,
                    severity: Severity::Error,
                    location: loc,
                    message: format!(
                        "red_perf [{}, {}) stride {} is invalid for reduction dimension \
                         {dim}: {e}",
                        perf.begin, perf.end, perf.stride
                    ),
                    suggestion: Some("fix the descriptor range/stride".into()),
                });
            }
        }
    }
    // HDA010: the same op perforated differently within one node produces
    // scores that are not comparable with each other.
    for node in program.nodes() {
        let mut seen: Vec<(HdcOp, Option<hdc_core::Perforation>)> = Vec::new();
        for instr in node.instrs() {
            if !instr.op.supports_perforation() {
                continue;
            }
            if let Some((_, prior)) = seen.iter().find(|(op, _)| *op == instr.op) {
                if *prior != instr.perforation {
                    diags.push(Diagnostic {
                        code: DiagnosticCode::MixedPerforation,
                        severity: Severity::Warning,
                        location: Location::node(&node.name),
                        message: format!(
                            "`{}` appears with different perforation descriptors in the same \
                             node; the resulting scores are not mutually comparable",
                            instr.op
                        ),
                        suggestion: Some("use one red_perf descriptor per op within a node".into()),
                    });
                    break;
                }
            } else {
                seen.push((instr.op, instr.perforation));
            }
        }
    }
}

/// Whether `value` is (possibly) produced by a reduction or selection — the
/// positions where `wrap_shift` stops being a permutation of encoded
/// hypervector lanes and starts permuting scores or labels.
fn produced_by_score_op(program: &Program, du: &DefUse, value: ValueId) -> Option<String> {
    for &si in &du.defs[value.index()] {
        if let SiteKind::Instr { node, index } = du.sites[si].kind {
            let op = program.node(node).instrs()[index].op;
            if matches!(op.category(), OpCategory::Reduction | OpCategory::Selection) {
                return Some(op.to_string());
            }
        }
    }
    None
}

fn check_wrap_shift(program: &Program, du: &DefUse, diags: &mut Vec<Diagnostic>) {
    for site in &du.sites {
        let SiteKind::Instr { node, index } = site.kind else {
            continue;
        };
        let instr = &program.node(node).instrs()[index];
        if instr.op != HdcOp::WrapShift {
            continue;
        }
        let loc = || Location::instr(&program.node(node).name, index);
        let Some(input) = instr.operands.first().and_then(|o| o.as_value()) else {
            continue;
        };
        let input_info = program.value(input);
        if !input_info.ty.is_tensor() {
            diags.push(Diagnostic {
                code: DiagnosticCode::WrapShiftPosition,
                severity: Severity::Error,
                location: loc().with_value(&input_info.name),
                message: format!(
                    "wrap_shift permutes hypervector lanes but `{}` is {}",
                    input_info.name, input_info.ty
                ),
                suggestion: Some("apply wrap_shift to a hypervector or hypermatrix".into()),
            });
            continue;
        }
        if let Some(op) = produced_by_score_op(program, du, input) {
            diags.push(Diagnostic {
                code: DiagnosticCode::WrapShiftPosition,
                severity: Severity::Error,
                location: loc().with_value(&input_info.name),
                message: format!(
                    "wrap_shift applied to `{}`, a `{op}` result; permuting scores changes \
                     which class each score belongs to",
                    input_info.name
                ),
                suggestion: Some(
                    "move the wrap_shift before the reduction, onto the encoded operand".into(),
                ),
            });
            continue;
        }
        if let (Some(amount), Some(dim)) = (
            instr.operands.get(1).and_then(|o| o.as_imm()),
            input_info.ty.reduction_dim(),
        ) {
            if dim > 0 && amount.rem_euclid(dim as i64) == 0 {
                diags.push(Diagnostic {
                    code: DiagnosticCode::WrapShiftNoop,
                    severity: Severity::Warning,
                    location: loc().with_value(&input_info.name),
                    message: format!(
                        "wrap_shift by {amount} on dimension {dim} is the identity permutation"
                    ),
                    suggestion: Some("delete the shift or use a non-multiple amount".into()),
                });
            }
        }
    }
}

fn check_parallel_for(program: &Program, du: &DefUse, diags: &mut Vec<Diagnostic>) {
    for node in program.nodes() {
        let NodeBody::ParallelFor { count, index, body } = &node.body else {
            continue;
        };
        // HDA009: a loop index nobody reads means every instance does
        // identical work.
        if *count > 1 && du.uses[index.index()].is_empty() {
            diags.push(Diagnostic {
                code: DiagnosticCode::ParallelForIndexUnused,
                severity: Severity::Warning,
                location: Location::node(&node.name).with_value(&program.value(*index).name),
                message: format!(
                    "parallel_for runs {count} instances but none of them reads the \
                     instance index; every instance repeats the same work"
                ),
                suggestion: Some(
                    "index per-instance data with the loop index, or drop the loop".into(),
                ),
            });
        }
        // HDA008: an in-place row write whose row operand is a compile-time
        // immediate targets the same row from every instance.
        for (ii, instr) in body.iter().enumerate() {
            let (is_set, is_acc) = (
                instr.op == HdcOp::SetMatrixRow,
                instr.op == HdcOp::AccumulateRow,
            );
            if (!is_set && !is_acc) || *count <= 1 {
                continue;
            }
            if let Some(row) = instr.operands.get(2).and_then(|o| o.as_imm()) {
                let target = instr
                    .operands
                    .first()
                    .and_then(|o| o.as_value())
                    .map(|v| program.value(v).name.clone())
                    .unwrap_or_default();
                diags.push(Diagnostic {
                    code: DiagnosticCode::ParallelForCollision,
                    // set_matrix_row races are order-dependent (last write
                    // wins); accumulate_row commutes element-wise, so the
                    // collision is only a perf/intent smell.
                    severity: if is_set {
                        Severity::Error
                    } else {
                        Severity::Warning
                    },
                    location: Location::instr(&node.name, ii).with_value(&target),
                    message: format!(
                        "all {count} parallel instances {} row {row} of `{target}`; \
                         iterations of a parallel_for must be independent",
                        if is_set {
                            "overwrite"
                        } else {
                            "accumulate into"
                        },
                    ),
                    suggestion: Some(
                        "derive the row from the instance index (e.g. accumulate_row with a \
                         dynamic row)"
                            .into(),
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::program::{Node, ValueInfo, ValueRole};
    use hdc_ir::stage::ScorePolarity;
    use hdc_ir::Target;

    fn analyze(p: &Program) -> Vec<Diagnostic> {
        let du = DefUse::new(p);
        check(p, &du).1
    }

    #[test]
    fn clean_pipeline_has_no_diagnostics() {
        let mut b = ProgramBuilder::new("clean");
        let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
        let classes = b.input_matrix("cls", ElementKind::F64, 3, 32);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            let e = body.matmul(sample, proj);
            body.sign(e)
        });
        let labels = b.inference_loop("infer", enc, classes, ScorePolarity::Distance, |body, q| {
            body.hamming_distance(q, classes)
        });
        b.mark_output(labels);
        let diags = analyze(&b.finish());
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn taint_is_laundered_by_reduction_and_cast() {
        let mut b = ProgramBuilder::new("launder");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let m = b.input_matrix("m", ElementKind::Bit, 4, 16);
        let s = b.sign(a);
        let scores = b.hamming_distance(s, m);
        let dense = b.type_cast(s, ElementKind::F64);
        b.mark_output(scores);
        b.mark_output(dense);
        let p = b.finish();
        let du = DefUse::new(&p);
        let (taint, diags) = check(&p, &du);
        assert!(taint.is_tainted(s));
        assert!(taint.is_tainted(ValueId::new(1)), "declared Bit input");
        assert!(!taint.is_tainted(scores), "reduction launders");
        assert!(!taint.is_tainted(dense), "dense cast launders");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn bit_taint_into_div_is_an_error() {
        let mut b = ProgramBuilder::new("leak");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let n = b.input_vector("norms", ElementKind::F64, 16);
        let s = b.sign(a);
        let bad = b.div(s, n);
        b.mark_output(bad);
        let diags = analyze(&b.finish());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagnosticCode::BitTaintLeak);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn encoding_dim_mismatch_is_an_error() {
        // Built through the raw IR API: the builder sizes the output from
        // the body result, so the mismatch must be constructed by hand.
        let mut b = ProgramBuilder::new("mismatch");
        let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            body.matmul(sample, proj)
        });
        b.mark_output(enc);
        let mut p = b.finish();
        // Shrink the stage output width behind the body's back.
        let out = {
            let NodeBody::Stage(stage) = &p.nodes()[0].body else {
                panic!("expected stage")
            };
            stage.interface.output
        };
        p.value_mut(out).ty = ValueType::HyperMatrix {
            elem: ElementKind::F64,
            rows: 4,
            cols: 16,
        };
        let diags = analyze(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::StageShapeMismatch
                    && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn illegal_perforation_on_elementwise_op() {
        // The builder refuses this, so assemble the node directly.
        let mut p = Program::new("perf");
        let a = p.add_value(ValueInfo {
            name: "a".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F64,
                dim: 64,
            },
            role: ValueRole::Input,
        });
        let r = p.add_value(ValueInfo {
            name: "r".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F64,
                dim: 64,
            },
            role: ValueRole::Output,
        });
        let instr = HdcInstr::new(HdcOp::Sign, vec![a.into()], Some(r))
            .with_perforation(hdc_core::Perforation::strided(0, 64, 2));
        p.add_node(Node {
            name: "n0".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![instr],
            },
        });
        let diags = analyze(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagnosticCode::IllegalPerforation);
    }

    #[test]
    fn out_of_range_perforation_is_an_error() {
        let mut b = ProgramBuilder::new("range");
        let a = b.input_vector("a", ElementKind::F64, 64);
        let m = b.input_matrix("m", ElementKind::F64, 4, 64);
        let d = b.hamming_distance(a, m);
        b.red_perf(d, 64, 128, 1); // begin beyond the dimension
        b.mark_output(d);
        let diags = analyze(&b.finish());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagnosticCode::IllegalPerforation);
    }

    #[test]
    fn wrap_shift_on_scores_and_noop_amounts() {
        let mut b = ProgramBuilder::new("shift");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let m = b.input_matrix("m", ElementKind::F64, 4, 16);
        let ok = b.wrap_shift(a, 3);
        let noop = b.wrap_shift(a, 32); // 32 % 16 == 0
        let scores = b.cossim(a, m);
        let bad = b.wrap_shift(scores, 1);
        b.mark_output(ok);
        b.mark_output(noop);
        b.mark_output(bad);
        let diags = analyze(&b.finish());
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&DiagnosticCode::WrapShiftNoop), "{diags:?}");
        assert!(
            codes.contains(&DiagnosticCode::WrapShiftPosition),
            "{diags:?}"
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn parallel_for_collision_and_unused_index() {
        let mut b = ProgramBuilder::new("pfor");
        let acc = b.zero_matrix(ElementKind::F64, 4, 16);
        let row = b.input_vector("row", ElementKind::F64, 16);
        b.parallel_for("collide", 8, |b, _idx| {
            b.set_matrix_row(acc, row, 2);
        });
        let out = b.get_matrix_row(acc, 2);
        b.mark_output(out);
        let diags = analyze(&b.finish());
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&DiagnosticCode::ParallelForCollision),
            "{diags:?}"
        );
        assert!(
            codes.contains(&DiagnosticCode::ParallelForIndexUnused),
            "{diags:?}"
        );
        let collision = diags
            .iter()
            .find(|d| d.code == DiagnosticCode::ParallelForCollision)
            .unwrap();
        assert_eq!(collision.severity, Severity::Error);
    }

    #[test]
    fn dynamic_row_accumulate_is_clean() {
        let mut b = ProgramBuilder::new("pfor_ok");
        let acc = b.zero_matrix(ElementKind::F64, 8, 16);
        let rows = b.input_matrix("rows", ElementKind::F64, 8, 16);
        b.parallel_for("scatter", 8, |b, idx| {
            let r = b.get_matrix_row_dyn(rows, idx);
            b.accumulate_row(acc, r, idx);
        });
        let out = b.get_matrix_row(acc, 0);
        b.mark_output(out);
        let diags = analyze(&b.finish());
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }
}
