//! The IR verifier: operand value ids in range, op arity and shapes,
//! perforation legality, stage-interface shapes and accelerator target
//! legality.
//!
//! It is the one owner of the stage-interface and perforation rules: every
//! [`Violation`] names the [`Rule`] it breaks, and `hdc-analyze` reports
//! [`Rule::StageShape`] as `HDA003` and [`Rule::Perforation`] as `HDA005`.

use crate::instr::{HdcInstr, Operand};
use crate::ops::HdcOp;
use crate::program::{NodeBody, Program, ValueId};
use crate::stage::{StageKind, StageNode};
use crate::types::ValueType;
use std::fmt;

/// The rule family a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The IR is malformed: a value id out of range, a wrong arity or
    /// operand shape, an incomplete stage, an illegal target.
    Malformed,
    /// A stage's body result or output disagrees with its interface: one
    /// output row per query row, one encoded row of the output width, one
    /// score per class row.
    StageShape,
    /// A `red_perf` annotation on an op that is not a perforable
    /// reduction, or a descriptor invalid for the reduction dimension.
    Perforation,
}

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule broken.
    pub rule: Rule,
    /// Name of the node the failure is in.
    pub node: String,
    /// Index of the instruction within `node.instrs()`, if one is at fault.
    pub instr: Option<usize>,
    /// The value slot at fault, if one is.
    pub value: Option<ValueId>,
    /// What is wrong.
    pub message: String,
}

/// A collection of verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyErrors {
    /// Every failure, in program order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for VerifyErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "IR verification failed ({} errors):",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - [{}] {}", v.node, v.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyErrors {}

/// Walks a program; `node` and `instr` say where it is looking, and every
/// violation it records is placed there.
struct Checker<'a> {
    program: &'a Program,
    node: &'a str,
    instr: Option<usize>,
    violations: Vec<Violation>,
}

impl<'a> Checker<'a> {
    fn push(&mut self, rule: Rule, value: Option<ValueId>, message: String) {
        self.violations.push(Violation {
            rule,
            node: self.node.to_string(),
            instr: self.instr,
            value,
            message,
        });
    }

    fn err(&mut self, message: String) {
        self.push(Rule::Malformed, None, message);
    }

    fn value_ty(&self, v: ValueId) -> Option<ValueType> {
        self.program.values().get(v.index()).map(|info| info.ty)
    }

    fn check_instr(&mut self, instr: &HdcInstr) {
        // operand value ids must exist
        for op in &instr.operands {
            if let Operand::Value(v) = op {
                if self.value_ty(*v).is_none() {
                    self.err(format!("{}: operand {} out of range", instr.op, v.index()));
                    return;
                }
            }
        }
        if let Some(r) = instr.result {
            if self.value_ty(r).is_none() {
                self.err(format!("{}: result value out of range", instr.op));
                return;
            }
        }
        self.check_arity_and_shapes(instr);
        self.check_perforation(instr);
    }

    fn operand_value_ty(&self, instr: &HdcInstr, idx: usize) -> Option<ValueType> {
        instr
            .operands
            .get(idx)
            .and_then(Operand::as_value)
            .and_then(|v| self.value_ty(v))
    }

    fn check_arity_and_shapes(&mut self, instr: &HdcInstr) {
        let op = &instr.op;
        let n = instr.operands.len();
        let expect = |checker: &mut Self, cond: bool, msg: String| {
            if !cond {
                checker.err(msg);
            }
        };
        match op {
            HdcOp::Zero
            | HdcOp::Random { .. }
            | HdcOp::Gaussian { .. }
            | HdcOp::RandomBipolar { .. } => {
                expect(self, n == 0, format!("{op}: expected 0 operands, got {n}"));
                expect(
                    self,
                    instr.result.is_some(),
                    format!("{op}: missing result"),
                );
            }
            HdcOp::Sign
            | HdcOp::SignFlip
            | HdcOp::AbsoluteValue
            | HdcOp::CosineElementwise
            | HdcOp::TypeCast { .. }
            | HdcOp::L2Norm
            | HdcOp::ArgMin
            | HdcOp::ArgMax
            | HdcOp::MatrixTranspose => {
                expect(self, n == 1, format!("{op}: expected 1 operand, got {n}"));
            }
            HdcOp::WrapShift | HdcOp::GetMatrixRow => {
                expect(self, n == 2, format!("{op}: expected 2 operands, got {n}"));
            }
            HdcOp::ArgTopK { k } => {
                expect(self, n == 1, format!("{op}: expected 1 operand, got {n}"));
                let k = *k;
                if k == 0 {
                    self.err(format!("{op}: k must be at least 1"));
                }
                // k may not exceed the number of candidate scores (the
                // vector length / matrix column count), and the result must
                // be an index vector sized k (vector) or rows*k (matrix).
                if let Some(input_ty) = self.operand_value_ty(instr, 0) {
                    let (candidates, expected_len) = match input_ty {
                        ValueType::HyperVector { dim, .. } => (Some(dim), Some(k)),
                        ValueType::HyperMatrix { rows, cols, .. } => (Some(cols), Some(rows * k)),
                        _ => (None, None),
                    };
                    match candidates {
                        Some(c) if k > c => {
                            self.err(format!("{op}: k = {k} exceeds the {c} candidate scores"))
                        }
                        None => self.err(format!(
                            "{op}: operand must be a hypervector or hypermatrix"
                        )),
                        _ => {}
                    }
                    if let (Some(expected), Some(r)) = (expected_len, instr.result) {
                        match self.value_ty(r) {
                            Some(ValueType::IndexVector { len }) if len == expected => {}
                            Some(other) => self.err(format!(
                                "{op}: result must be indices<{expected}>, got {other}"
                            )),
                            None => {}
                        }
                    }
                }
            }
            HdcOp::GetElement => {
                expect(
                    self,
                    n == 2 || n == 3,
                    format!("{op}: expected 2-3 operands, got {n}"),
                );
            }
            HdcOp::SetMatrixRow | HdcOp::AccumulateRow => {
                expect(self, n == 3, format!("{op}: expected 3 operands, got {n}"));
                // The executor updates operand 0 in place and reads operand 1;
                // both must be value references, not immediates.
                expect(
                    self,
                    instr.operands.first().and_then(Operand::as_value).is_some(),
                    format!("{op}: first operand must be a matrix value reference"),
                );
                expect(
                    self,
                    instr.operands.get(1).and_then(Operand::as_value).is_some(),
                    format!("{op}: second operand must be a hypervector value reference"),
                );
                if let (Some(m), Some(v)) = (
                    self.operand_value_ty(instr, 0),
                    self.operand_value_ty(instr, 1),
                ) {
                    if let (
                        ValueType::HyperMatrix { cols, .. },
                        ValueType::HyperVector { dim, .. },
                    ) = (m, v)
                    {
                        if cols != dim {
                            self.err(format!(
                                "{op}: row length {dim} does not match matrix columns {cols}"
                            ));
                        }
                    }
                }
            }
            HdcOp::Elementwise(_) => {
                expect(self, n == 2, format!("{op}: expected 2 operands, got {n}"));
                if let (Some(a), Some(b)) = (
                    self.operand_value_ty(instr, 0),
                    self.operand_value_ty(instr, 1),
                ) {
                    let dims_match = match (a, b) {
                        (
                            ValueType::HyperVector { dim: da, .. },
                            ValueType::HyperVector { dim: db, .. },
                        ) => da == db,
                        (
                            ValueType::HyperMatrix {
                                rows: ra, cols: ca, ..
                            },
                            ValueType::HyperMatrix {
                                rows: rb, cols: cb, ..
                            },
                        ) => ra == rb && ca == cb,
                        (ValueType::Scalar(_), ValueType::Scalar(_)) => true,
                        _ => false,
                    };
                    if !dims_match {
                        self.err(format!("{op}: operand shapes {a} and {b} are incompatible"));
                    }
                }
            }
            HdcOp::CosineSimilarity | HdcOp::HammingDistance => {
                expect(self, n == 2, format!("{op}: expected 2 operands, got {n}"));
                if let (Some(a), Some(b)) = (
                    self.operand_value_ty(instr, 0),
                    self.operand_value_ty(instr, 1),
                ) {
                    let (da, db) = (a.reduction_dim(), b.reduction_dim());
                    if let (Some(da), Some(db)) = (da, db) {
                        if da != db {
                            self.err(format!("{op}: reduction dimensions {da} and {db} differ"));
                        }
                    } else {
                        self.err(format!(
                            "{op}: operands must be hypervectors or hypermatrices"
                        ));
                    }
                }
            }
            HdcOp::MatMul => {
                expect(self, n == 2, format!("{op}: expected 2 operands, got {n}"));
                if let (Some(a), Some(b)) = (
                    self.operand_value_ty(instr, 0),
                    self.operand_value_ty(instr, 1),
                ) {
                    let in_dim = match a {
                        ValueType::HyperVector { dim, .. } => Some(dim),
                        ValueType::HyperMatrix { cols, .. } => Some(cols),
                        _ => None,
                    };
                    let proj_cols = match b {
                        ValueType::HyperMatrix { cols, .. } => Some(cols),
                        _ => None,
                    };
                    match (in_dim, proj_cols) {
                        (Some(i), Some(p)) if i != p => {
                            self.err(format!(
                                "matmul: input dimension {i} does not match projection columns {p}"
                            ));
                        }
                        (None, _) | (_, None) => {
                            self.err(
                                "matmul: operands must be (vector|matrix, matrix)".to_string(),
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn check_perforation(&mut self, instr: &HdcInstr) {
        let Some(perf) = instr.perforation else {
            return;
        };
        if !instr.op.supports_perforation() {
            self.push(
                Rule::Perforation,
                None,
                format!(
                    "{} carries a red_perf annotation but is not a perforable reduction",
                    instr.op
                ),
            );
            return;
        }
        if let Some(dim) = self
            .operand_value_ty(instr, 0)
            .and_then(|ty| ty.reduction_dim())
        {
            if let Err(e) = perf.validate(dim) {
                self.push(
                    Rule::Perforation,
                    None,
                    format!(
                        "{}: red_perf {perf} is invalid for dimension {dim}: {e}",
                        instr.op
                    ),
                );
            }
        }
    }

    fn stage_shape(&mut self, value: ValueId, message: String) {
        self.push(Rule::StageShape, Some(value), message);
    }

    fn check_stage(&mut self, stage: &StageNode) {
        let queries_ty = self.value_ty(stage.interface.queries);
        let (q_rows, q_cols) = match queries_ty {
            Some(ValueType::HyperMatrix { rows, cols, .. }) => (rows, cols),
            _ => {
                self.err("stage queries must be a hypermatrix".to_string());
                return;
            }
        };
        match self.value_ty(stage.body_query) {
            Some(ValueType::HyperVector { dim, .. }) => {
                if dim != q_cols {
                    self.err(format!(
                        "stage body query dimension {dim} does not match queries columns {q_cols}"
                    ));
                }
            }
            _ => self.err("stage body query must be a hypervector".to_string()),
        }
        if stage.body.is_empty() {
            self.err("stage has an empty implementation body".to_string());
        }
        if !stage
            .body
            .iter()
            .any(|i| i.written_values().contains(&stage.body_result))
        {
            self.err("stage body never writes its result value".to_string());
        }
        let result_dim = self
            .value_ty(stage.body_result)
            .and_then(|ty| ty.reduction_dim());
        let output = stage.interface.output;
        match stage.kind {
            StageKind::Encoding => match self.value_ty(output) {
                Some(ValueType::HyperMatrix { rows, cols, .. }) => {
                    if let Some(dim) = result_dim.filter(|&dim| dim != cols) {
                        self.stage_shape(
                            stage.body_result,
                            format!("encoding body result has {dim} elements, output has {cols} columns"),
                        );
                    }
                    if rows != q_rows {
                        self.stage_shape(
                            output,
                            format!("encoding output rows {rows} do not match query rows {q_rows}"),
                        );
                    }
                }
                _ => self.err("encoding_loop output must be a hypermatrix".to_string()),
            },
            StageKind::Inference => {
                self.check_class_scores(stage, result_dim);
                match self.value_ty(output) {
                    Some(ValueType::IndexVector { len }) => {
                        if len != q_rows {
                            self.stage_shape(
                                output,
                                format!("inference output length {len} does not match query rows {q_rows}"),
                            );
                        }
                    }
                    _ => self.err("inference_loop output must be an index vector".to_string()),
                }
            }
            StageKind::Training { epochs } => {
                if epochs == 0 {
                    self.err("training_loop with zero epochs".to_string());
                }
                self.check_class_scores(stage, result_dim);
                match stage.interface.labels.and_then(|l| self.value_ty(l)) {
                    Some(ValueType::IndexVector { len }) => {
                        if len != q_rows {
                            self.err(format!(
                                "training labels length {len} does not match query rows {q_rows}"
                            ));
                        }
                    }
                    _ => self.err("training_loop requires index-vector labels".to_string()),
                }
            }
        }
    }

    /// A training or inference body must produce one score per class row.
    fn check_class_scores(&mut self, stage: &StageNode, result_dim: Option<usize>) {
        let Some(classes) = stage.interface.classes else {
            self.err(format!(
                "{} requires a class hypermatrix",
                stage.kind.name()
            ));
            return;
        };
        if let (Some(dim), Some(ValueType::HyperMatrix { rows, .. })) =
            (result_dim, self.value_ty(classes))
        {
            if dim != rows {
                self.stage_shape(
                    stage.body_result,
                    format!(
                        "{} body produces {dim} scores but the class memory has {rows} rows",
                        stage.kind.name()
                    ),
                );
            }
        }
    }
}

/// Verify a program, returning all failures at once.
///
/// # Errors
///
/// Returns [`VerifyErrors`] with one [`Violation`] per problem found:
/// out-of-range value references, arity or shape mismatches, malformed
/// stages and accelerator-targeted nodes that are not coarse-grain stages
/// ([`Rule::Malformed`]); stage bodies and outputs that disagree with the
/// interface ([`Rule::StageShape`]); illegal `red_perf` annotations
/// ([`Rule::Perforation`]).
pub fn verify(program: &Program) -> Result<(), VerifyErrors> {
    let mut checker = Checker {
        program,
        node: "",
        instr: None,
        violations: Vec::new(),
    };
    for node in program.nodes() {
        checker.node = &node.name;
        for (index, instr) in node.instrs().iter().enumerate() {
            checker.instr = Some(index);
            checker.check_instr(instr);
        }
        checker.instr = None;
        match &node.body {
            NodeBody::Leaf { .. } => {}
            NodeBody::ParallelFor { index, count, .. } => {
                if *count == 0 {
                    checker.err("parallel_for with zero iterations".to_string());
                }
                match checker.value_ty(*index) {
                    Some(ValueType::Scalar(_)) => {}
                    _ => checker.err("parallel_for index must be a scalar value".to_string()),
                }
            }
            NodeBody::Stage(stage) => checker.check_stage(stage),
        }
        if node.target.is_hdc_accelerator() && !matches!(node.body, NodeBody::Stage(_)) {
            checker.err(format!(
                "node targets {} but is not a coarse-grain stage; accelerators only accept \
                 encoding/training/inference loops",
                node.target
            ));
        }
        if node.target.is_hdc_accelerator() {
            let has_perforation = node.instrs().iter().any(|i| i.perforation.is_some());
            if has_perforation {
                checker.err(format!(
                    "red_perf annotations are not supported on {}",
                    node.target
                ));
            }
        }
    }
    if checker.violations.is_empty() {
        Ok(())
    } else {
        Err(VerifyErrors {
            violations: checker.violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::program::{Node, NodeBody, ValueInfo, ValueRole};
    use crate::stage::{ScorePolarity, StageInterface};
    use crate::target::Target;
    use hdc_core::element::ElementKind;
    use hdc_core::Perforation;

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new("ok");
        let a = b.input_vector("a", ElementKind::F32, 64);
        let m = b.input_matrix("m", ElementKind::F32, 4, 64);
        let d = b.hamming_distance(a, m);
        let l = b.arg_min(d);
        b.mark_output(l);
        verify(&b.finish()).unwrap();
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut p = Program::new("bad");
        let a = p.add_value(ValueInfo {
            name: "a".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 64,
            },
            role: ValueRole::Input,
        });
        let m = p.add_value(ValueInfo {
            name: "m".into(),
            ty: ValueType::HyperMatrix {
                elem: ElementKind::F32,
                rows: 4,
                cols: 128,
            },
            role: ValueRole::Input,
        });
        let r = p.add_value(ValueInfo {
            name: "r".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 4,
            },
            role: ValueRole::Output,
        });
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::HammingDistance,
                    vec![a.into(), m.into()],
                    Some(r),
                )],
            },
        });
        let err = verify(&p).unwrap_err();
        assert!(err.to_string().contains("reduction dimensions"));
    }

    #[test]
    fn matmul_dimension_check() {
        let mut b = ProgramBuilder::new("mm");
        let x = b.input_vector("x", ElementKind::F32, 100);
        let w = b.input_matrix("w", ElementKind::F32, 2048, 617);
        let e = b.matmul(x, w);
        b.mark_output(e);
        let err = verify(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("matmul"));
    }

    #[test]
    fn perforation_on_non_reduction_detected() {
        let mut p = Program::new("perf");
        let a = p.add_value(ValueInfo {
            name: "a".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 64,
            },
            role: ValueRole::Input,
        });
        let r = p.add_value(ValueInfo {
            name: "r".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 64,
            },
            role: ValueRole::Output,
        });
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(HdcOp::Sign, vec![a.into()], Some(r))
                    .with_perforation(Perforation::strided(0, 64, 2))],
            },
        });
        let err = verify(&p).unwrap_err();
        assert!(err.to_string().contains("red_perf"));
    }

    #[test]
    fn arg_top_k_rules() {
        // Well-formed: builder-produced top-k over a score matrix verifies.
        let mut b = ProgramBuilder::new("topk_ok");
        let scores = b.input_matrix("scores", ElementKind::F32, 10, 64);
        let picks = b.arg_top_k(scores, 5);
        b.mark_output(picks);
        verify(&b.finish()).unwrap();

        // k larger than the candidate count is rejected.
        let mut b = ProgramBuilder::new("topk_big");
        let scores = b.input_vector("scores", ElementKind::F32, 4);
        let picks = b.arg_top_k(scores, 9);
        b.mark_output(picks);
        let err = verify(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("exceeds the 4 candidate scores"));

        // k = 0 is rejected.
        let mut b = ProgramBuilder::new("topk_zero");
        let scores = b.input_vector("scores", ElementKind::F32, 4);
        let picks = b.arg_top_k(scores, 0);
        b.mark_output(picks);
        let err = verify(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("k must be at least 1"));

        // A result slot with the wrong length is rejected.
        let mut p = Program::new("topk_len");
        let scores = p.add_value(ValueInfo {
            name: "scores".into(),
            ty: ValueType::HyperMatrix {
                elem: ElementKind::F32,
                rows: 3,
                cols: 8,
            },
            role: ValueRole::Input,
        });
        let out = p.add_value(ValueInfo {
            name: "out".into(),
            ty: ValueType::IndexVector { len: 5 },
            role: ValueRole::Output,
        });
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::ArgTopK { k: 2 },
                    vec![scores.into()],
                    Some(out),
                )],
            },
        });
        let err = verify(&p).unwrap_err();
        assert!(err.to_string().contains("result must be indices<6>"));
    }

    #[test]
    fn accelerator_nodes_must_be_stages() {
        let mut b = ProgramBuilder::new("acc");
        b.set_default_target(Target::DigitalAsic);
        let a = b.input_vector("a", ElementKind::F32, 64);
        let s = b.sign(a);
        b.mark_output(s);
        let err = verify(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("coarse-grain stage"));
    }

    #[test]
    fn stage_interface_errors_detected() {
        // hand-construct an inference stage whose output has the wrong length
        let mut p = Program::new("stage");
        let queries = p.add_value(ValueInfo {
            name: "q".into(),
            ty: ValueType::HyperMatrix {
                elem: ElementKind::F32,
                rows: 10,
                cols: 64,
            },
            role: ValueRole::Input,
        });
        let classes = p.add_value(ValueInfo {
            name: "c".into(),
            ty: ValueType::HyperMatrix {
                elem: ElementKind::F32,
                rows: 4,
                cols: 64,
            },
            role: ValueRole::Input,
        });
        let out = p.add_value(ValueInfo {
            name: "out".into(),
            ty: ValueType::IndexVector { len: 5 },
            role: ValueRole::Output,
        });
        let body_query = p.add_value(ValueInfo {
            name: "bq".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 64,
            },
            role: ValueRole::Temp,
        });
        let scores = p.add_value(ValueInfo {
            name: "scores".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 4,
            },
            role: ValueRole::Temp,
        });
        p.add_node(Node {
            name: "infer".into(),
            target: Target::Cpu,
            body: NodeBody::Stage(StageNode {
                kind: StageKind::Inference,
                interface: StageInterface {
                    queries,
                    classes: Some(classes),
                    labels: None,
                    output: out,
                },
                polarity: ScorePolarity::Distance,
                body: vec![HdcInstr::new(
                    HdcOp::HammingDistance,
                    vec![body_query.into(), classes.into()],
                    Some(scores),
                )],
                body_query,
                body_result: scores,
                persistent_values: vec![],
            }),
        });
        let err = verify(&p).unwrap_err();
        assert!(err.to_string().contains("inference output length"));
        assert_eq!(err.violations.len(), 1, "{err}");
        let v = &err.violations[0];
        assert_eq!(
            (v.rule, v.node.as_str(), v.instr, v.value),
            (Rule::StageShape, "infer", None, Some(out))
        );
    }

    #[test]
    fn in_place_ops_require_value_operands() {
        let mut p = Program::new("imm");
        let m = p.add_value(ValueInfo {
            name: "m".into(),
            ty: ValueType::HyperMatrix {
                elem: ElementKind::F32,
                rows: 2,
                cols: 4,
            },
            role: ValueRole::Input,
        });
        let v = p.add_value(ValueInfo {
            name: "v".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 4,
            },
            role: ValueRole::Output,
        });
        // Immediate in the matrix position: must be rejected, not executed.
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::SetMatrixRow,
                    vec![Operand::ImmInt(0), v.into(), Operand::ImmInt(0)],
                    None,
                )],
            },
        });
        let err = verify(&p).unwrap_err();
        assert!(err
            .to_string()
            .contains("first operand must be a matrix value"));

        let mut p2 = Program::new("imm2");
        let m2 = p2.add_value(ValueInfo {
            name: "m".into(),
            ty: p.value(m).ty,
            role: ValueRole::Output,
        });
        p2.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::AccumulateRow,
                    vec![m2.into(), Operand::ImmInt(1), Operand::ImmInt(0)],
                    None,
                )],
            },
        });
        let err = verify(&p2).unwrap_err();
        assert!(err
            .to_string()
            .contains("second operand must be a hypervector value"));
    }

    #[test]
    fn out_of_range_value_detected() {
        let mut p = Program::new("oob");
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::Sign,
                    vec![ValueId::new(42).into()],
                    None,
                )],
            },
        });
        assert!(verify(&p).is_err());
    }
}
