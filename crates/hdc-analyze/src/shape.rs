//! Abstract shape / dtype interpretation and legality rules.
//!
//! The IR verifier ([`hdc_ir::verify`]) owns the stage-interface and
//! perforation rules; this module reports its typed violations under the
//! analyzer's stable codes and adds the rules the verifier does not hold:
//!
//! * **Stage-interface shapes** (`HDA003`): every [`Rule::StageShape`]
//!   violation is an error — an encoding body must produce one output row
//!   (`dim == output.cols`), a training or inference body one score per
//!   class (`dim == classes.rows`), and the output length must match the
//!   query count. Element-kind drift from an encoding body result to the
//!   stage output is a warning, reported here: the executor converts the
//!   rows.
//! * **Bit-taint** (`HDA004`): a forward dataflow tracks which values are
//!   binarized (±1 / packed-bit contents). Feeding a tainted value into
//!   an `hdc.div` or element-wise `cosine` — kernels that are only
//!   meaningful on full-precision data — is an error. Reductions and
//!   selections launder taint (collapsing the hypervector dimension
//!   produces full-precision scores), as does a `type_cast` to a dense
//!   kind; that mirrors Algorithm 1's `IsHDCReduceOp` rule.
//! * **Perforation legality** (`HDA005`, `HDA010`): every
//!   [`Rule::Perforation`] violation (a `red_perf` annotation on an op
//!   that does not support it, or a descriptor invalid for the op's
//!   reduction dimension) is an error. Mixing different descriptors on the
//!   same op within one node is a warning — the scores are no longer
//!   comparable.
//! * **`wrap_shift` position** (`HDA006`, `HDA007`): wrap-shift is a
//!   permutation *encoding* primitive. Applying it to a reduction or
//!   selection result (scores, labels) or to a non-tensor is an error;
//!   a shift amount that is a multiple of the dimension is a no-op
//!   warning.

use crate::diag::{Diagnostic, DiagnosticCode, Location, Severity};
use hdc_core::element::ElementKind;
use hdc_core::ops::ElementwiseOp;
use hdc_ir::dataflow::{solve, DefUse, Direction, Site, SiteKind};
use hdc_ir::ops::{HdcOp, OpCategory};
use hdc_ir::program::{NodeBody, Program, ValueId};
use hdc_ir::stage::StageKind;
use hdc_ir::verify::{verify, Rule, Violation};

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
    let violations = verify(program)
        .err()
        .map_or_else(Vec::new, |e| e.violations);
    let mut diags = Vec::new();
    report_violations(program, &violations, Rule::StageShape, &mut diags);
    check_element_kind_drift(program, &mut diags);
    check_taint_leaks(program, du, &taint, &mut diags);
    report_violations(program, &violations, Rule::Perforation, &mut diags);
    check_mixed_perforation(program, &mut diags);
    check_wrap_shift(program, du, &mut diags);
    check_parallel_for(program, du, &mut diags);
    (taint, diags)
}

/// The verifier's `rule` violations as error diagnostics: `StageShape` is
/// `HDA003`, `Perforation` is `HDA005`.
fn report_violations(
    program: &Program,
    violations: &[Violation],
    rule: Rule,
    diags: &mut Vec<Diagnostic>,
) {
    let (code, suggestion) = match rule {
        Rule::StageShape => (
            DiagnosticCode::StageShapeMismatch,
            "produce one output row per query, one encoded row of the output width, \
             and one score per class row",
        ),
        Rule::Perforation => (
            DiagnosticCode::IllegalPerforation,
            "red_perf is legal on hamming_distance, cossim, matmul and l2norm only, \
             with a range inside the reduction dimension",
        ),
        Rule::Malformed => return,
    };
    for v in violations.iter().filter(|v| v.rule == rule) {
        diags.push(Diagnostic {
            code,
            severity: Severity::Error,
            location: Location {
                node: Some(v.node.clone()),
                instr: v.instr,
                value: v.value.map(|id| program.value(id).name.clone()),
            },
            message: v.message.clone(),
            suggestion: Some(suggestion.into()),
        });
    }
}

/// `HDA003` warning: an encoding body result whose element kind differs
/// from the stage output's. It is advisory: the executor converts every
/// row.
fn check_element_kind_drift(program: &Program, diags: &mut Vec<Diagnostic>) {
    for node in program.nodes() {
        let NodeBody::Stage(stage) = &node.body else {
            continue;
        };
        if stage.kind != StageKind::Encoding {
            continue;
        }
        let result = program.value(stage.body_result);
        let out_ty = program.value(stage.interface.output).ty;
        if let (Some(re), Some(oe)) = (result.ty.element_kind(), out_ty.element_kind()) {
            if re != oe {
                diags.push(Diagnostic {
                    code: DiagnosticCode::StageShapeMismatch,
                    severity: Severity::Warning,
                    location: Location::node(&node.name).with_value(&result.name),
                    message: format!(
                        "encoding body result is {re} but the stage output stores \
                         {oe}; the executor will convert every row"
                    ),
                    suggestion: Some("cast inside the body or retype the output".into()),
                });
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

/// `HDA010`: the same op perforated differently within one node produces
/// scores that are not comparable with each other.
fn check_mixed_perforation(program: &Program, diags: &mut Vec<Diagnostic>) {
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
    use hdc_ir::instr::HdcInstr;
    use hdc_ir::program::{Node, ValueInfo, ValueRole};
    use hdc_ir::stage::ScorePolarity;
    use hdc_ir::types::ValueType;
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
        p.value_mut(enc).ty = ValueType::HyperMatrix {
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
    fn class_rows_mismatch_is_an_error() {
        // An inference body that scores against a 5-row memory while the
        // stage's class memory has 3 rows: arg_min would select over
        // scores that do not belong to the stage's classes.
        let mut b = ProgramBuilder::new("class_rows");
        let queries = b.input_matrix("q", ElementKind::F64, 4, 32);
        let classes = b.input_matrix("cls", ElementKind::F64, 3, 32);
        let other = b.input_matrix("other", ElementKind::F64, 5, 32);
        let labels = b.inference_loop(
            "infer",
            queries,
            classes,
            ScorePolarity::Distance,
            |body, q| body.hamming_distance(q, other),
        );
        b.mark_output(labels);
        let p = b.finish();
        let diags = analyze(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(
            (d.code, d.severity),
            (DiagnosticCode::StageShapeMismatch, Severity::Error)
        );
        let NodeBody::Stage(stage) = &p.nodes()[0].body else {
            panic!("expected stage")
        };
        let result = &p.value(stage.body_result).name;
        assert_eq!(d.location, Location::node("infer").with_value(result));
        assert!(
            verify(&p).is_err(),
            "verify must reject what HDA003 errors on"
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
