//! The HDC++ embedded DSL: a builder that constructs [`Program`]s.
//!
//! Applications use [`ProgramBuilder`] the way the paper's applications use
//! HDC++: every `__hetero_hdc_*` primitive has a corresponding method, the
//! three stage loops take a closure playing the role of the "implementation
//! function", and `red_perf` attaches a perforation directive to the
//! instruction that produced a value. The builder never mentions hardware —
//! target assignment happens later in `hdc-passes`.

use crate::instr::{HdcInstr, Operand};
use crate::ops::HdcOp;
use crate::program::{Node, NodeBody, Program, ValueId, ValueInfo, ValueRole};
use crate::stage::{ScorePolarity, StageInterface, StageKind, StageNode};
use crate::target::Target;
use crate::types::ValueType;
use hdc_core::element::ElementKind;
use hdc_core::ops::ElementwiseOp;
use hdc_core::Perforation;

/// Builder for [`Program`]s; the Rust embedding of HDC++.
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
    /// Stack of instruction buffers. The bottom entry collects instructions
    /// for the next top-level leaf node; stage / parallel-for construction
    /// pushes a nested buffer for the body.
    buffers: Vec<Vec<HdcInstr>>,
    default_target: Target,
    temp_counter: usize,
    seed_counter: u64,
}

impl ProgramBuilder {
    /// Create a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program::new(name),
            buffers: vec![Vec::new()],
            default_target: Target::Cpu,
            temp_counter: 0,
            seed_counter: 0x5eed,
        }
    }

    /// Set the target assigned to nodes sealed from now on. Applications
    /// normally leave this alone and let the target-assignment pass decide.
    pub fn set_default_target(&mut self, target: Target) {
        self.default_target = target;
    }

    // ------------------------------------------------------------------
    // value declaration
    // ------------------------------------------------------------------

    fn add_value(&mut self, name: String, ty: ValueType, role: ValueRole) -> ValueId {
        self.program.add_value(ValueInfo { name, ty, role })
    }

    fn temp(&mut self, ty: ValueType) -> ValueId {
        let name = format!("t{}", self.temp_counter);
        self.temp_counter += 1;
        self.add_value(name, ty, ValueRole::Temp)
    }

    fn next_seed(&mut self) -> u64 {
        self.seed_counter = self
            .seed_counter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        self.seed_counter
    }

    /// Declare a hypervector program input.
    pub fn input_vector(&mut self, name: &str, elem: ElementKind, dim: usize) -> ValueId {
        self.add_value(
            name.to_string(),
            ValueType::HyperVector { elem, dim },
            ValueRole::Input,
        )
    }

    /// Declare a hypermatrix program input.
    pub fn input_matrix(
        &mut self,
        name: &str,
        elem: ElementKind,
        rows: usize,
        cols: usize,
    ) -> ValueId {
        self.add_value(
            name.to_string(),
            ValueType::HyperMatrix { elem, rows, cols },
            ValueRole::Input,
        )
    }

    /// Declare an index-vector program input (e.g. training labels).
    pub fn input_indices(&mut self, name: &str, len: usize) -> ValueId {
        self.add_value(
            name.to_string(),
            ValueType::IndexVector { len },
            ValueRole::Input,
        )
    }

    /// Declare a scalar program input.
    pub fn input_scalar(&mut self, name: &str, elem: ElementKind) -> ValueId {
        self.add_value(name.to_string(), ValueType::Scalar(elem), ValueRole::Input)
    }

    /// Mark a value as a program output (readable by the host after
    /// execution).
    pub fn mark_output(&mut self, value: ValueId) {
        self.program.value_mut(value).role = ValueRole::Output;
    }

    /// Give a value a descriptive name (purely cosmetic; helps IR dumps).
    pub fn name_value(&mut self, value: ValueId, name: &str) {
        self.program.value_mut(value).name = name.to_string();
    }

    /// The declared type of a value.
    pub fn value_type(&self, value: ValueId) -> ValueType {
        self.program.value(value).ty
    }

    // ------------------------------------------------------------------
    // instruction emission helpers
    // ------------------------------------------------------------------

    fn emit(&mut self, instr: HdcInstr) {
        self.buffers
            .last_mut()
            .expect("builder always has an active buffer")
            .push(instr);
    }

    fn emit_unary(&mut self, op: HdcOp, input: ValueId, result_ty: ValueType) -> ValueId {
        let result = self.temp(result_ty);
        self.emit(HdcInstr::new(op, vec![input.into()], Some(result)));
        result
    }

    // ------------------------------------------------------------------
    // creation primitives
    // ------------------------------------------------------------------

    /// `hypervector<dim>()`: a zero-initialised hypervector.
    pub fn zero_vector(&mut self, elem: ElementKind, dim: usize) -> ValueId {
        let result = self.temp(ValueType::HyperVector { elem, dim });
        self.emit(HdcInstr::new(HdcOp::Zero, vec![], Some(result)));
        result
    }

    /// `hypermatrix<rows, cols>()`: a zero-initialised hypermatrix.
    pub fn zero_matrix(&mut self, elem: ElementKind, rows: usize, cols: usize) -> ValueId {
        let result = self.temp(ValueType::HyperMatrix { elem, rows, cols });
        self.emit(HdcInstr::new(HdcOp::Zero, vec![], Some(result)));
        result
    }

    /// `random_hypermatrix()`: uniform random values in `[-1, 1]`.
    pub fn random_matrix(&mut self, elem: ElementKind, rows: usize, cols: usize) -> ValueId {
        let seed = self.next_seed();
        let result = self.temp(ValueType::HyperMatrix { elem, rows, cols });
        self.emit(HdcInstr::new(HdcOp::Random { seed }, vec![], Some(result)));
        result
    }

    /// `gaussian_hypermatrix()`: standard-normal random values.
    pub fn gaussian_matrix(&mut self, elem: ElementKind, rows: usize, cols: usize) -> ValueId {
        let seed = self.next_seed();
        let result = self.temp(ValueType::HyperMatrix { elem, rows, cols });
        self.emit(HdcInstr::new(
            HdcOp::Gaussian { seed },
            vec![],
            Some(result),
        ));
        result
    }

    /// A random bipolar (±1) hypermatrix, the usual random-projection seed.
    pub fn random_bipolar_matrix(
        &mut self,
        elem: ElementKind,
        rows: usize,
        cols: usize,
    ) -> ValueId {
        let seed = self.next_seed();
        let result = self.temp(ValueType::HyperMatrix { elem, rows, cols });
        self.emit(HdcInstr::new(
            HdcOp::RandomBipolar { seed },
            vec![],
            Some(result),
        ));
        result
    }

    /// `gaussian_hypervector()`.
    pub fn gaussian_vector(&mut self, elem: ElementKind, dim: usize) -> ValueId {
        let seed = self.next_seed();
        let result = self.temp(ValueType::HyperVector { elem, dim });
        self.emit(HdcInstr::new(
            HdcOp::Gaussian { seed },
            vec![],
            Some(result),
        ));
        result
    }

    // ------------------------------------------------------------------
    // element-wise primitives
    // ------------------------------------------------------------------

    /// `sign(input)`.
    pub fn sign(&mut self, input: ValueId) -> ValueId {
        let ty = self.value_type(input);
        self.emit_unary(HdcOp::Sign, input, ty)
    }

    /// `sign_flip(input)`.
    pub fn sign_flip(&mut self, input: ValueId) -> ValueId {
        let ty = self.value_type(input);
        self.emit_unary(HdcOp::SignFlip, input, ty)
    }

    /// `absolute_value(input)`.
    pub fn absolute_value(&mut self, input: ValueId) -> ValueId {
        let ty = self.value_type(input);
        self.emit_unary(HdcOp::AbsoluteValue, input, ty)
    }

    /// Element-wise `cosine(input)`.
    pub fn cosine(&mut self, input: ValueId) -> ValueId {
        let ty = self.value_type(input);
        self.emit_unary(HdcOp::CosineElementwise, input, ty)
    }

    /// `wrap_shift(input, amount)`.
    pub fn wrap_shift(&mut self, input: ValueId, amount: i64) -> ValueId {
        let ty = self.value_type(input);
        let result = self.temp(ty);
        self.emit(HdcInstr::new(
            HdcOp::WrapShift,
            vec![input.into(), amount.into()],
            Some(result),
        ));
        result
    }

    /// `type_cast(input, to)`.
    pub fn type_cast(&mut self, input: ValueId, to: ElementKind) -> ValueId {
        let ty = self.value_type(input).with_element_kind(to);
        self.emit_unary(HdcOp::TypeCast { to }, input, ty)
    }

    fn elementwise(&mut self, op: ElementwiseOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.value_type(lhs);
        let result = self.temp(ty);
        self.emit(HdcInstr::new(
            HdcOp::Elementwise(op),
            vec![lhs.into(), rhs.into()],
            Some(result),
        ));
        result
    }

    /// Element-wise `add`.
    pub fn add(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.elementwise(ElementwiseOp::Add, lhs, rhs)
    }

    /// Element-wise `sub`.
    pub fn sub(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.elementwise(ElementwiseOp::Sub, lhs, rhs)
    }

    /// Element-wise `mul` (binding).
    pub fn mul(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.elementwise(ElementwiseOp::Mul, lhs, rhs)
    }

    /// Element-wise `div`.
    pub fn div(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.elementwise(ElementwiseOp::Div, lhs, rhs)
    }

    // ------------------------------------------------------------------
    // reductions, indexing, similarity
    // ------------------------------------------------------------------

    /// `l2norm(input)`: scalar for hypervectors, per-row vector for
    /// hypermatrices.
    pub fn l2norm(&mut self, input: ValueId) -> ValueId {
        let ty = match self.value_type(input) {
            ValueType::HyperMatrix { rows, .. } => ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: rows,
            },
            _ => ValueType::Scalar(ElementKind::F32),
        };
        self.emit_unary(HdcOp::L2Norm, input, ty)
    }

    /// `get_element(tensor, row [, col])`.
    pub fn get_element(&mut self, input: ValueId, row: i64, col: Option<i64>) -> ValueId {
        let mut operands: Vec<Operand> = vec![input.into(), row.into()];
        if let Some(c) = col {
            operands.push(c.into());
        }
        self.get_element_operands(input, operands)
    }

    /// `get_element(tensor, row)` with a dynamic row index (e.g. a
    /// parallel-loop instance id), as used when gathering per-sample labels
    /// or cluster assignments inside a loop body.
    pub fn get_element_dyn(&mut self, input: ValueId, row: impl Into<Operand>) -> ValueId {
        let operands = vec![input.into(), row.into()];
        self.get_element_operands(input, operands)
    }

    fn get_element_operands(&mut self, input: ValueId, operands: Vec<Operand>) -> ValueId {
        let elem = self
            .value_type(input)
            .element_kind()
            .unwrap_or(ElementKind::F32);
        let result = self.temp(ValueType::Scalar(elem));
        self.emit(HdcInstr::new(HdcOp::GetElement, operands, Some(result)));
        result
    }

    /// `arg_min(input)`: scalar index for hypervectors, per-row index vector
    /// for hypermatrices.
    pub fn arg_min(&mut self, input: ValueId) -> ValueId {
        let ty = match self.value_type(input) {
            ValueType::HyperMatrix { rows, .. } => ValueType::IndexVector { len: rows },
            _ => ValueType::Scalar(ElementKind::I32),
        };
        self.emit_unary(HdcOp::ArgMin, input, ty)
    }

    /// `arg_max(input)`.
    pub fn arg_max(&mut self, input: ValueId) -> ValueId {
        let ty = match self.value_type(input) {
            ValueType::HyperMatrix { rows, .. } => ValueType::IndexVector { len: rows },
            _ => ValueType::Scalar(ElementKind::I32),
        };
        self.emit_unary(HdcOp::ArgMax, input, ty)
    }

    /// `arg_top_k(input, k)`: indices of the `k` largest elements, in
    /// descending score order. A hypervector of scores yields `k` indices;
    /// a hypermatrix (one row of scores per sample) yields the per-row
    /// top-k flattened row-major (`rows * k` indices, sample `i`'s matches
    /// at `[i*k, (i+1)*k)`). Distance scores should be `sign_flip`ped
    /// first, exactly as `arg_min` relates to `arg_max`.
    pub fn arg_top_k(&mut self, input: ValueId, k: usize) -> ValueId {
        let ty = match self.value_type(input) {
            ValueType::HyperMatrix { rows, .. } => ValueType::IndexVector { len: rows * k },
            _ => ValueType::IndexVector { len: k },
        };
        self.emit_unary(HdcOp::ArgTopK { k }, input, ty)
    }

    /// `get_matrix_row(matrix, row_idx)` with an immediate row index.
    pub fn get_matrix_row(&mut self, matrix: ValueId, row: i64) -> ValueId {
        self.get_matrix_row_dyn(matrix, Operand::ImmInt(row))
    }

    /// `get_matrix_row(matrix, row_idx)` with a dynamic row index (e.g. a
    /// parallel-loop instance id).
    pub fn get_matrix_row_dyn(&mut self, matrix: ValueId, row: impl Into<Operand>) -> ValueId {
        let (elem, cols) = match self.value_type(matrix) {
            ValueType::HyperMatrix { elem, cols, .. } => (elem, cols),
            other => (other.element_kind().unwrap_or(ElementKind::F32), 0),
        };
        let result = self.temp(ValueType::HyperVector { elem, dim: cols });
        self.emit(HdcInstr::new(
            HdcOp::GetMatrixRow,
            vec![matrix.into(), row.into()],
            Some(result),
        ));
        result
    }

    /// `set_matrix_row(matrix, new_row, row_idx)` with an immediate index.
    pub fn set_matrix_row(&mut self, matrix: ValueId, new_row: ValueId, row: i64) {
        self.set_matrix_row_dyn(matrix, new_row, Operand::ImmInt(row));
    }

    /// `set_matrix_row` with a dynamic row index.
    pub fn set_matrix_row_dyn(
        &mut self,
        matrix: ValueId,
        new_row: ValueId,
        row: impl Into<Operand>,
    ) {
        self.emit(HdcInstr::new(
            HdcOp::SetMatrixRow,
            vec![matrix.into(), new_row.into(), row.into()],
            None,
        ));
    }

    /// `matrix[row] += vector` (fused bundling update).
    pub fn accumulate_row(&mut self, matrix: ValueId, vector: ValueId, row: impl Into<Operand>) {
        self.emit(HdcInstr::new(
            HdcOp::AccumulateRow,
            vec![matrix.into(), vector.into(), row.into()],
            None,
        ));
    }

    /// `matrix_transpose(input)`.
    pub fn transpose(&mut self, input: ValueId) -> ValueId {
        let ty = match self.value_type(input) {
            ValueType::HyperMatrix { elem, rows, cols } => ValueType::HyperMatrix {
                elem,
                rows: cols,
                cols: rows,
            },
            other => other,
        };
        self.emit_unary(HdcOp::MatrixTranspose, input, ty)
    }

    fn similarity_result_type(&self, lhs: ValueId, rhs: ValueId) -> ValueType {
        match (self.value_type(lhs), self.value_type(rhs)) {
            (ValueType::HyperVector { .. }, ValueType::HyperVector { .. }) => {
                ValueType::Scalar(ElementKind::F32)
            }
            (ValueType::HyperVector { .. }, ValueType::HyperMatrix { rows, .. })
            | (ValueType::HyperMatrix { rows, .. }, ValueType::HyperVector { .. }) => {
                ValueType::HyperVector {
                    elem: ElementKind::F32,
                    dim: rows,
                }
            }
            (ValueType::HyperMatrix { rows: lr, .. }, ValueType::HyperMatrix { rows: rr, .. }) => {
                ValueType::HyperMatrix {
                    elem: ElementKind::F32,
                    rows: lr,
                    cols: rr,
                }
            }
            _ => ValueType::Scalar(ElementKind::F32),
        }
    }

    /// `cossim(lhs, rhs)`.
    pub fn cossim(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.similarity_result_type(lhs, rhs);
        let result = self.temp(ty);
        self.emit(HdcInstr::new(
            HdcOp::CosineSimilarity,
            vec![lhs.into(), rhs.into()],
            Some(result),
        ));
        result
    }

    /// `hamming_distance(lhs, rhs)`.
    pub fn hamming_distance(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.similarity_result_type(lhs, rhs);
        let result = self.temp(ty);
        self.emit(HdcInstr::new(
            HdcOp::HammingDistance,
            vec![lhs.into(), rhs.into()],
            Some(result),
        ));
        result
    }

    /// `matmul(lhs, rhs)`: `lhs` is a feature hypervector (or a batch
    /// hypermatrix with one sample per row) and `rhs` is a `D x F`
    /// projection hypermatrix; the result has dimension `D` per sample.
    pub fn matmul(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        let out_dim = match self.value_type(rhs) {
            ValueType::HyperMatrix { rows, .. } => rows,
            _ => 0,
        };
        let ty = match self.value_type(lhs) {
            ValueType::HyperVector { elem, .. } => ValueType::HyperVector { elem, dim: out_dim },
            ValueType::HyperMatrix { elem, rows, .. } => ValueType::HyperMatrix {
                elem,
                rows,
                cols: out_dim,
            },
            other => other,
        };
        let result = self.temp(ty);
        self.emit(HdcInstr::new(
            HdcOp::MatMul,
            vec![lhs.into(), rhs.into()],
            Some(result),
        ));
        result
    }

    /// `red_perf(result, begin, end, stride)`: annotate the instruction that
    /// produced `value` with a reduction-perforation directive.
    ///
    /// # Panics
    ///
    /// Panics if no instruction in the current node produced `value` or if
    /// that instruction's operation does not support perforation, mirroring
    /// the compile-time diagnostics of the original compiler.
    pub fn red_perf(&mut self, value: ValueId, begin: usize, end: usize, stride: usize) {
        let buffer = self
            .buffers
            .last_mut()
            .expect("builder always has an active buffer");
        let instr = buffer
            .iter_mut()
            .rev()
            .find(|i| i.result == Some(value))
            .unwrap_or_else(|| {
                panic!("red_perf: no producing instruction for value in current node")
            });
        assert!(
            instr.op.supports_perforation(),
            "red_perf: {} does not support reduction perforation",
            instr.op
        );
        instr.perforation = Some(Perforation::strided(begin, end, stride));
    }

    // ------------------------------------------------------------------
    // nodes
    // ------------------------------------------------------------------

    /// Seal the instructions emitted so far into a leaf node.
    pub fn seal_node(&mut self, name: &str) {
        let instrs = std::mem::take(self.buffers.last_mut().expect("active buffer"));
        if instrs.is_empty() {
            return;
        }
        let target = self.default_target;
        self.program.add_node(Node {
            name: name.to_string(),
            target,
            body: NodeBody::Leaf { instrs },
        });
    }

    /// Emit a generic data-parallel loop node (Hetero-C++ `parallel for`).
    /// The closure receives the builder and the loop-index value and builds
    /// the per-iteration body.
    pub fn parallel_for(
        &mut self,
        name: &str,
        count: usize,
        build_body: impl FnOnce(&mut ProgramBuilder, ValueId),
    ) {
        self.seal_node(&format!("{name}.pre"));
        let index = self.add_value(
            format!("{name}.index"),
            ValueType::Scalar(ElementKind::I64),
            ValueRole::Temp,
        );
        self.buffers.push(Vec::new());
        build_body(self, index);
        let body = self.buffers.pop().expect("pushed body buffer");
        let target = self.default_target;
        self.program.add_node(Node {
            name: name.to_string(),
            target,
            body: NodeBody::ParallelFor { count, index, body },
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn stage_common(
        &mut self,
        name: &str,
        kind: StageKind,
        interface: StageInterface,
        polarity: ScorePolarity,
        query_dim: usize,
        query_elem: ElementKind,
        build_body: impl FnOnce(&mut ProgramBuilder, ValueId) -> ValueId,
    ) {
        self.seal_node(&format!("{name}.pre"));
        let body_query = self.add_value(
            format!("{name}.query"),
            ValueType::HyperVector {
                elem: query_elem,
                dim: query_dim,
            },
            ValueRole::Temp,
        );
        self.buffers.push(Vec::new());
        let body_result = build_body(self, body_query);
        let body = self.buffers.pop().expect("pushed stage body buffer");
        let target = self.default_target;
        self.program.add_node(Node {
            name: name.to_string(),
            target,
            body: NodeBody::Stage(StageNode {
                kind,
                interface,
                polarity,
                body,
                body_query,
                body_result,
                persistent_values: Vec::new(),
            }),
        });
    }

    /// `encoding_loop(encode, queries, encoder)`: apply the per-sample
    /// encoding body to every row of `features`, producing an encoded
    /// hypermatrix. The closure receives the per-sample feature hypervector
    /// and must return the encoded hypervector value.
    pub fn encoding_loop(
        &mut self,
        name: &str,
        features: ValueId,
        encoded_dim: usize,
        build_body: impl FnOnce(&mut ProgramBuilder, ValueId) -> ValueId,
    ) -> ValueId {
        let (elem, rows, cols) = match self.value_type(features) {
            ValueType::HyperMatrix { elem, rows, cols } => (elem, rows, cols),
            other => panic!("encoding_loop: features must be a hypermatrix, got {other}"),
        };
        let output = self.add_value(
            format!("{name}.encoded"),
            ValueType::HyperMatrix {
                elem,
                rows,
                cols: encoded_dim,
            },
            ValueRole::Temp,
        );
        let interface = StageInterface {
            queries: features,
            classes: None,
            labels: None,
            output,
        };
        self.stage_common(
            name,
            StageKind::Encoding,
            interface,
            ScorePolarity::Similarity,
            cols,
            elem,
            build_body,
        );
        output
    }

    /// `inference_loop(infer, queries, classes)`: classify every row of
    /// `queries` against `classes`. The closure builds the per-sample score
    /// computation and returns the score-vector value; `polarity` says
    /// whether scores are similarities or distances. Returns the predicted
    /// label index vector.
    pub fn inference_loop(
        &mut self,
        name: &str,
        queries: ValueId,
        classes: ValueId,
        polarity: ScorePolarity,
        build_body: impl FnOnce(&mut ProgramBuilder, ValueId) -> ValueId,
    ) -> ValueId {
        let (elem, rows, cols) = match self.value_type(queries) {
            ValueType::HyperMatrix { elem, rows, cols } => (elem, rows, cols),
            other => panic!("inference_loop: queries must be a hypermatrix, got {other}"),
        };
        let output = self.add_value(
            format!("{name}.labels"),
            ValueType::IndexVector { len: rows },
            ValueRole::Temp,
        );
        let interface = StageInterface {
            queries,
            classes: Some(classes),
            labels: None,
            output,
        };
        self.stage_common(
            name,
            StageKind::Inference,
            interface,
            polarity,
            cols,
            elem,
            build_body,
        );
        output
    }

    /// `training_loop(train, queries, labels, classes, epochs)`: iterate over
    /// the labelled samples for `epochs` epochs, updating `classes` on every
    /// misprediction (perceptron-style HDC retraining). The closure builds
    /// the per-sample score computation. Returns the (updated) class matrix
    /// value for convenience.
    #[allow(clippy::too_many_arguments)]
    pub fn training_loop(
        &mut self,
        name: &str,
        queries: ValueId,
        labels: ValueId,
        classes: ValueId,
        epochs: usize,
        polarity: ScorePolarity,
        build_body: impl FnOnce(&mut ProgramBuilder, ValueId) -> ValueId,
    ) -> ValueId {
        let (elem, _rows, cols) = match self.value_type(queries) {
            ValueType::HyperMatrix { elem, rows, cols } => (elem, rows, cols),
            other => panic!("training_loop: queries must be a hypermatrix, got {other}"),
        };
        let interface = StageInterface {
            queries,
            classes: Some(classes),
            labels: Some(labels),
            output: classes,
        };
        self.stage_common(
            name,
            StageKind::Training { epochs },
            interface,
            polarity,
            cols,
            elem,
            build_body,
        );
        classes
    }

    /// Finish the program, sealing any pending instructions into a final
    /// leaf node.
    pub fn finish(mut self) -> Program {
        self.seal_node("main");
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::DefUse;
    use crate::program::NodeId;
    use crate::verify::verify;

    /// The `(def node, use node)` pairs of values that cross from an
    /// earlier node into a later one.
    fn cross_node_edges(p: &Program) -> Vec<(NodeId, NodeId)> {
        let du = DefUse::new(p);
        let node = |si: usize| du.sites[si].kind.node();
        let mut edges: Vec<_> = du
            .defs
            .iter()
            .zip(&du.uses)
            .flat_map(|(defs, uses)| {
                defs.iter()
                    .flat_map(move |&d| uses.iter().map(move |&u| (node(d), node(u))))
            })
            .filter(|(d, u)| d < u)
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    #[test]
    fn listing1_builds_and_verifies() {
        let mut b = ProgramBuilder::new("listing1");
        let features = b.input_vector("input_features", ElementKind::F32, 617);
        let rp = b.input_matrix("rp_matrix", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("clusters", ElementKind::F32, 26, 2048);
        let encoded = b.matmul(features, rp);
        let dists = b.hamming_distance(encoded, classes);
        let label = b.arg_min(dists);
        b.mark_output(label);
        let p = b.finish();
        assert_eq!(p.nodes().len(), 1);
        assert_eq!(p.instr_count(), 3);
        verify(&p).unwrap();
        // result types inferred correctly
        assert_eq!(
            p.value(encoded).ty,
            ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 2048
            }
        );
        assert_eq!(
            p.value(dists).ty,
            ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 26
            }
        );
    }

    #[test]
    fn red_perf_attaches_to_producer() {
        let mut b = ProgramBuilder::new("perf");
        let a = b.input_vector("a", ElementKind::F32, 2048);
        let m = b.input_matrix("m", ElementKind::F32, 26, 2048);
        let d = b.hamming_distance(a, m);
        b.red_perf(d, 0, 1024, 2);
        let p = b.finish();
        let instr = p.iter_instrs().find(|i| i.result == Some(d)).unwrap();
        let perf = instr.perforation.unwrap();
        assert_eq!((perf.begin, perf.end, perf.stride), (0, 1024, 2));
    }

    #[test]
    #[should_panic(expected = "does not support reduction perforation")]
    fn red_perf_rejects_elementwise() {
        let mut b = ProgramBuilder::new("perf_bad");
        let a = b.input_vector("a", ElementKind::F32, 16);
        let s = b.sign(a);
        b.red_perf(s, 0, 16, 2);
    }

    #[test]
    fn stage_nodes_capture_interface() {
        let mut b = ProgramBuilder::new("stages");
        let features = b.input_matrix("features", ElementKind::F32, 100, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let labels = b.input_indices("labels", 100);
        let encoded = b.encoding_loop("encode", features, 2048, |b, q| b.matmul(q, rp));
        b.training_loop(
            "train",
            encoded,
            labels,
            classes,
            3,
            ScorePolarity::Similarity,
            |b, q| b.cossim(q, classes),
        );
        let preds = b.inference_loop(
            "infer",
            encoded,
            classes,
            ScorePolarity::Distance,
            |b, q| b.hamming_distance(q, classes),
        );
        b.mark_output(preds);
        let p = b.finish();
        verify(&p).unwrap();
        let stage_count = p
            .nodes()
            .iter()
            .filter(|n| matches!(n.body, NodeBody::Stage(_)))
            .count();
        assert_eq!(stage_count, 3);
        // encode feeds train and infer; train feeds infer its classes
        let n = NodeId::new;
        assert_eq!(
            cross_node_edges(&p),
            vec![(n(0), n(1)), (n(0), n(2)), (n(1), n(2))]
        );
    }

    #[test]
    fn parallel_for_builds_node() {
        let mut b = ProgramBuilder::new("par");
        let m = b.input_matrix("m", ElementKind::F32, 8, 64);
        let out = b.input_matrix("out", ElementKind::F32, 8, 64);
        b.mark_output(out);
        b.parallel_for("rows", 8, |b, idx| {
            let row = b.get_matrix_row_dyn(m, idx);
            let s = b.sign(row);
            b.set_matrix_row_dyn(out, s, idx);
        });
        let p = b.finish();
        verify(&p).unwrap();
        assert!(p
            .nodes()
            .iter()
            .any(|n| matches!(n.body, NodeBody::ParallelFor { count: 8, .. })));
    }

    #[test]
    fn seal_node_splits_graph() {
        let mut b = ProgramBuilder::new("multi");
        let a = b.input_vector("a", ElementKind::F32, 32);
        let s = b.sign(a);
        b.seal_node("first");
        let f = b.sign_flip(s);
        b.mark_output(f);
        let p = b.finish();
        assert_eq!(p.nodes().len(), 2);
        assert_eq!(cross_node_edges(&p), vec![(NodeId::new(0), NodeId::new(1))]);
    }

    #[test]
    fn creation_ops_and_casts() {
        let mut b = ProgramBuilder::new("create");
        let z = b.zero_matrix(ElementKind::F32, 4, 128);
        let r = b.random_matrix(ElementKind::F32, 4, 128);
        let g = b.gaussian_vector(ElementKind::F64, 128);
        let bp = b.random_bipolar_matrix(ElementKind::I8, 4, 128);
        let cast = b.type_cast(bp, ElementKind::F32);
        let sum = b.add(z, r);
        let norm = b.l2norm(g);
        let t = b.transpose(cast);
        b.mark_output(sum);
        b.mark_output(norm);
        b.mark_output(t);
        let p = b.finish();
        verify(&p).unwrap();
        assert_eq!(
            p.value(t).ty,
            ValueType::HyperMatrix {
                elem: ElementKind::F32,
                rows: 128,
                cols: 4
            }
        );
    }
}
