//! Automatic binarization propagation (paper §4.2, Algorithm 1).
//!
//! The pass performs an inter-procedural (here: whole-program) taint
//! analysis seeded at `hdc.sign` instructions. Values that only ever hold
//! bipolar ±1 data are rewritten to the 1-bit element kind, which shrinks
//! data movement by up to 32× and lets the back ends dispatch XOR/popcount
//! kernels for Hamming distance.
//!
//! The taint is a transfer function over [`hdc_ir::dataflow::solve`],
//! flowing both ways through element-wise and data-movement ops. The
//! target kind is always [`ElementKind::Bit`], and Algorithm 1's
//! `BinarizeReduce?` is fixed off: the inputs of a reduction keep their
//! precision.

use hdc_core::element::ElementKind;
use hdc_ir::dataflow::{solve, DefUse, Direction, SiteKind};
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{NodeBody, Program, ValueId};
use hdc_ir::stage::StageKind;

/// Statistics reported by the binarization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinarizeReport {
    /// Number of value slots rewritten to the binarized element kind.
    pub binarized_values: usize,
    /// Number of instructions that now touch at least one binarized value.
    pub affected_instrs: usize,
    /// Total tensor footprint before the rewrite, in bytes.
    pub bytes_before: usize,
    /// Total tensor footprint after the rewrite, in bytes.
    pub bytes_after: usize,
}

impl BinarizeReport {
    /// Data-movement reduction factor achieved by the pass.
    pub fn reduction_factor(&self) -> f64 {
        if self.bytes_after == 0 {
            1.0
        } else {
            self.bytes_before as f64 / self.bytes_after as f64
        }
    }
}

/// Run automatic binarization over a program in place.
///
/// Only hypervector and hypermatrix values are ever rewritten; scalars,
/// index vectors and the raw (pre-`sign`) feature tensors keep their types.
pub fn binarize(program: &mut Program) -> BinarizeReport {
    let bytes_before = program.total_value_bytes();
    let tainted = bipolar_values(program);

    let mut binarized_values = 0;
    for v in (0..tainted.len()).filter(|&v| tainted[v]) {
        let info = program.value_mut(ValueId::new(v));
        if info.ty.element_kind() != Some(ElementKind::Bit) {
            info.ty = info.ty.with_element_kind(ElementKind::Bit);
            binarized_values += 1;
        }
    }

    let affected_instrs = program
        .iter_instrs()
        .filter(|i| {
            i.read_values()
                .chain(i.written_values())
                .any(|v| tainted[v.index()])
        })
        .count();

    BinarizeReport {
        binarized_values,
        affected_instrs,
        bytes_before,
        bytes_after: program.total_value_bytes(),
    }
}

/// Whether an instruction passes bipolarity between its tensors. Sign
/// inputs are real valued; reductions produce counts and accumulations;
/// selection and indexing produce indices and scalars; a type cast is a
/// precision the user asked for.
fn propagates(op: &HdcOp) -> bool {
    !op.is_reduce_op()
        && !matches!(
            op,
            HdcOp::Sign
                | HdcOp::ArgMin
                | HdcOp::ArgMax
                | HdcOp::ArgTopK { .. }
                | HdcOp::GetElement
                | HdcOp::TypeCast { .. }
        )
}

/// The taint analysis: `tainted[v]` when value `v` only ever holds ±1 data.
fn bipolar_values(program: &Program) -> Vec<bool> {
    let is_tensor = |v: &ValueId| program.value(*v).ty.is_tensor();
    // Seed: results of sign instructions hold bipolar values by definition.
    let seeds: Vec<(ValueId, bool)> = program
        .iter_instrs()
        .filter(|i| matches!(i.op, HdcOp::Sign))
        .filter_map(|i| i.result)
        .filter(is_tensor)
        .map(|v| (v, true))
        .collect();
    let du = DefUse::new(program);
    solve(
        &du,
        program.values().len(),
        &seeds,
        Direction::Both,
        |site, tainted| {
            let flow = |from: ValueId, to: ValueId| {
                if tainted[from.index()] && is_tensor(&to) {
                    vec![(to, true)]
                } else {
                    Vec::new()
                }
            };
            match site.kind {
                // Element-wise and data-movement operations preserve
                // bipolarity, so taint flows through both their inputs and
                // outputs.
                SiteKind::Instr { node, index } => {
                    let tensors = site
                        .reads
                        .iter()
                        .chain(&site.writes)
                        .filter(|v| is_tensor(v));
                    if propagates(&program.node(node).instrs()[index].op)
                        && tensors.clone().any(|v| tainted[v.index()])
                    {
                        tensors.map(|v| (*v, true)).collect()
                    } else {
                        Vec::new()
                    }
                }
                // The executor copies rows of `queries` into `body_query`
                // every iteration.
                SiteKind::StageQueryFlow { .. } => flow(site.reads[0], site.writes[0]),
                // An encoding stage assembles its output from the
                // per-sample `body_result`. Inference and training outputs
                // are index vectors / aliases of the class matrix.
                SiteKind::StageResultFlow { node } => match &program.node(node).body {
                    NodeBody::Stage(stage) if matches!(stage.kind, StageKind::Encoding) => {
                        flow(stage.body_result, stage.interface.output)
                    }
                    _ => Vec::new(),
                },
                SiteKind::ParallelForIndex { .. } => Vec::new(),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::verify::verify;

    /// Build the classification-inference pattern of Table 3 config III:
    /// sign the encoded query and the class matrix, then Hamming distance.
    fn classification_program() -> (Program, ValueId, ValueId, ValueId, ValueId) {
        let mut b = ProgramBuilder::new("binarize_me");
        let features = b.input_vector("features", ElementKind::F32, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let encoded = b.matmul(features, rp);
        let encoded_b = b.sign(encoded);
        let classes_b = b.sign(classes);
        let dists = b.hamming_distance(encoded_b, classes_b);
        let label = b.arg_min(dists);
        b.mark_output(label);
        (b.finish(), encoded_b, classes_b, dists, features)
    }

    #[test]
    fn sign_outputs_become_bit() {
        let (mut p, encoded_b, classes_b, dists, features) = classification_program();
        let report = binarize(&mut p);
        assert!(report.binarized_values >= 2);
        assert_eq!(p.value(encoded_b).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(classes_b).ty.element_kind(), Some(ElementKind::Bit));
        // Distances and raw features keep their precision.
        assert_eq!(p.value(dists).ty.element_kind(), Some(ElementKind::F32));
        assert_eq!(p.value(features).ty.element_kind(), Some(ElementKind::F32));
        // The program still verifies (shapes unchanged).
        verify(&p).unwrap();
        assert!(report.reduction_factor() > 1.0);
        assert!(report.bytes_after < report.bytes_before);
    }

    #[test]
    fn elementwise_chain_propagates_taint() {
        let mut b = ProgramBuilder::new("chain");
        let a = b.input_vector("a", ElementKind::F32, 1024);
        let s = b.sign(a);
        let shifted = b.wrap_shift(s, 3);
        let flipped = b.sign_flip(shifted);
        b.mark_output(flipped);
        let mut p = b.finish();
        binarize(&mut p);
        assert_eq!(p.value(s).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(shifted).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(flipped).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(a).ty.element_kind(), Some(ElementKind::F32));
    }

    #[test]
    fn reduce_inputs_stay_full_precision() {
        // matmul consumes a signed projection matrix: its other input (the
        // feature vector) stays full precision.
        let mut b = ProgramBuilder::new("agg");
        let features = b.input_vector("features", ElementKind::F32, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let rp_b = b.sign(rp);
        let encoded = b.matmul(features, rp_b);
        b.mark_output(encoded);
        let mut p = b.finish();
        binarize(&mut p);
        assert_eq!(p.value(rp_b).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(features).ty.element_kind(), Some(ElementKind::F32));
    }

    #[test]
    fn taint_flows_back_to_an_earlier_def() {
        // `y = a ⊙ b` is built before the sign it meets two ops later, so
        // `a` and `b` are tainted only by flowing backward from that use.
        let mut b = ProgramBuilder::new("backward");
        let a = b.input_vector("a", ElementKind::F32, 256);
        let c = b.input_vector("b", ElementKind::F32, 256);
        let x = b.input_vector("x", ElementKind::F32, 256);
        let y = b.mul(a, c);
        let s = b.sign(x);
        let shifted = b.wrap_shift(s, 1);
        let z = b.mul(y, shifted);
        b.mark_output(z);
        let mut p = b.finish();
        let report = binarize(&mut p);
        for v in [a, c, y, s, shifted, z] {
            assert_eq!(p.value(v).ty.element_kind(), Some(ElementKind::Bit));
        }
        assert_eq!(p.value(x).ty.element_kind(), Some(ElementKind::F32));
        assert_eq!(report.binarized_values, 6);
        verify(&p).unwrap();
    }

    #[test]
    fn no_sign_means_no_change() {
        let mut b = ProgramBuilder::new("nosign");
        let a = b.input_vector("a", ElementKind::F32, 256);
        let m = b.input_matrix("m", ElementKind::F32, 8, 256);
        let d = b.cossim(a, m);
        b.mark_output(d);
        let mut p = b.finish();
        let before = p.clone();
        let report = binarize(&mut p);
        assert_eq!(report.binarized_values, 0);
        assert_eq!(report.bytes_before, report.bytes_after);
        assert_eq!(p, before);
    }

    #[test]
    fn stage_bodies_are_binarized_too() {
        let mut b = ProgramBuilder::new("stage_binarize");
        let queries = b.input_matrix("queries", ElementKind::F32, 50, 2048);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let classes_b = b.sign(classes);
        let preds = b.inference_loop(
            "infer",
            queries,
            classes_b,
            hdc_ir::stage::ScorePolarity::Distance,
            |b, q| {
                let qb = b.sign(q);
                b.hamming_distance(qb, classes_b)
            },
        );
        b.mark_output(preds);
        let mut p = b.finish();
        let report = binarize(&mut p);
        assert!(report.binarized_values >= 2);
        assert_eq!(p.value(classes_b).ty.element_kind(), Some(ElementKind::Bit));
        verify(&p).unwrap();
    }

    #[test]
    fn taint_flows_through_stage_interfaces() {
        // A sign-terminated encoding body binarizes the stage's output
        // matrix, and a downstream inference stage fed by that matrix gets a
        // binarized per-sample query slot.
        let mut b = ProgramBuilder::new("stage_flow");
        let features = b.input_matrix("features", ElementKind::F64, 12, 20);
        let rp = b.input_matrix("rp", ElementKind::F64, 64, 20);
        let classes = b.input_matrix("classes", ElementKind::F64, 3, 64);
        let classes_b = b.sign(classes);
        let encoded = b.encoding_loop("encode", features, 64, |b, q| {
            let e = b.matmul(q, rp);
            b.sign(e)
        });
        let preds = b.inference_loop(
            "infer",
            encoded,
            classes_b,
            hdc_ir::stage::ScorePolarity::Distance,
            |b, q| b.hamming_distance(q, classes_b),
        );
        b.mark_output(preds);
        let mut p = b.finish();
        binarize(&mut p);
        assert_eq!(p.value(encoded).ty.element_kind(), Some(ElementKind::Bit));
        // Raw features and the projection stay full precision.
        assert_eq!(p.value(features).ty.element_kind(), Some(ElementKind::F64));
        assert_eq!(p.value(rp).ty.element_kind(), Some(ElementKind::F64));
        verify(&p).unwrap();
    }

    #[test]
    fn report_counts_value_types() {
        let (mut p, ..) = classification_program();
        let report = binarize(&mut p);
        assert_eq!(report.binarized_values, p.binarized_value_count());
        assert!(report.affected_instrs >= 3, "sign, sign, hamming at least");
    }
}
