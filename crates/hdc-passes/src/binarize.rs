//! Automatic binarization propagation (paper §4.2, Algorithm 1).
//!
//! The pass performs an inter-procedural (here: whole-program) taint
//! analysis seeded at `hdc.sign` instructions. Values that only ever hold
//! bipolar ±1 data are rewritten to the 1-bit element kind, which shrinks
//! data movement by up to 32× and lets the back ends dispatch XOR/popcount
//! kernels for Hamming distance.

use hdc_core::element::ElementKind;
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{NodeBody, Program, ValueId};
use hdc_ir::stage::StageKind;
use std::collections::HashSet;

/// Options controlling the binarization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinarizeOptions {
    /// The element kind tainted tensors are rewritten to. The paper's
    /// evaluation uses single-bit elements; `i8` is also supported for
    /// studying intermediate precisions.
    pub binarized_type: ElementKind,
    /// `BinarizeReduce?` in Algorithm 1: when set, the *inputs* of reducing
    /// operations (matmul, cossim, hamming_distance, l2norm) that consume
    /// tainted values are binarized too (more aggressive, larger error).
    pub binarize_reduce_inputs: bool,
}

impl Default for BinarizeOptions {
    fn default() -> Self {
        BinarizeOptions {
            binarized_type: ElementKind::Bit,
            binarize_reduce_inputs: false,
        }
    }
}

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
pub fn binarize(program: &mut Program, options: &BinarizeOptions) -> BinarizeReport {
    let bytes_before = program.total_value_bytes();

    // --- taint analysis -------------------------------------------------
    let mut tainted: HashSet<ValueId> = HashSet::new();

    // Seed: results of sign instructions hold bipolar values by definition.
    for instr in program.iter_instrs() {
        if matches!(instr.op, HdcOp::Sign) {
            if let Some(r) = instr.result {
                if program.value(r).ty.is_tensor() {
                    tainted.insert(r);
                }
            }
        }
    }

    // Fixpoint propagation. Element-wise and data-movement operations
    // preserve bipolarity, so taint flows through both their inputs and
    // outputs. Reducing operations produce counts/accumulations, so taint
    // does not flow through them by default; with `binarize_reduce_inputs`
    // their tensor inputs are additionally reduced in precision.
    loop {
        let mut changed = false;
        for instr in program.iter_instrs() {
            let tensor_inputs: Vec<ValueId> = instr
                .read_values()
                .filter(|v| program.value(*v).ty.is_tensor())
                .collect();
            let tensor_outputs: Vec<ValueId> = instr
                .written_values()
                .into_iter()
                .filter(|v| program.value(*v).ty.is_tensor())
                .collect();
            let any_tainted = tensor_inputs
                .iter()
                .chain(tensor_outputs.iter())
                .any(|v| tainted.contains(v));
            if !any_tainted {
                continue;
            }
            match instr.op {
                // Taint never enters through `sign` inputs (they are real
                // valued) and never leaves reductions by default.
                HdcOp::Sign => {}
                op if op.is_reduce_op() => {
                    if options.binarize_reduce_inputs {
                        for v in &tensor_inputs {
                            changed |= tainted.insert(*v);
                        }
                    }
                }
                // Selection and indexing produce indices/scalars, not
                // bipolar tensors; taint stops here.
                HdcOp::ArgMin | HdcOp::ArgMax | HdcOp::ArgTopK { .. } | HdcOp::GetElement => {}
                // Type casts are precision barriers: the user explicitly
                // requested a representation.
                HdcOp::TypeCast { .. } => {}
                _ => {
                    for v in tensor_inputs.iter().chain(tensor_outputs.iter()) {
                        changed |= tainted.insert(*v);
                    }
                }
            }
        }
        // Taint also flows through stage interfaces, which connect values
        // structurally rather than through instructions: the executor copies
        // rows of `interface.queries` into `body_query` every iteration, and
        // an encoding stage assembles `interface.output` from the per-sample
        // `body_result`. (Inference/training outputs are index vectors /
        // aliases of the class matrix, so only encoding propagates to its
        // output.)
        for node in program.nodes() {
            if let NodeBody::Stage(stage) = &node.body {
                let mut flow = |from: ValueId, to: ValueId, changed: &mut bool| {
                    if tainted.contains(&from) && program.value(to).ty.is_tensor() {
                        *changed |= tainted.insert(to);
                    }
                };
                flow(stage.interface.queries, stage.body_query, &mut changed);
                if matches!(stage.kind, StageKind::Encoding) {
                    flow(stage.body_result, stage.interface.output, &mut changed);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // --- rewrite ----------------------------------------------------------
    let mut binarized_values = 0;
    for v in &tainted {
        let info = program.value_mut(*v);
        if info.ty.element_kind() != Some(options.binarized_type) {
            info.ty = info.ty.with_element_kind(options.binarized_type);
            binarized_values += 1;
        }
    }

    let affected_instrs = program
        .iter_instrs()
        .filter(|i| {
            i.read_values()
                .chain(i.written_values())
                .any(|v| tainted.contains(&v))
        })
        .count();

    BinarizeReport {
        binarized_values,
        affected_instrs,
        bytes_before,
        bytes_after: program.total_value_bytes(),
    }
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
        let report = binarize(&mut p, &BinarizeOptions::default());
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
        binarize(&mut p, &BinarizeOptions::default());
        assert_eq!(p.value(s).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(shifted).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(flipped).ty.element_kind(), Some(ElementKind::Bit));
        assert_eq!(p.value(a).ty.element_kind(), Some(ElementKind::F32));
    }

    #[test]
    fn reduce_inputs_untouched_by_default_binarized_when_aggressive() {
        // matmul consumes a signed projection matrix: by default its other
        // input (the feature vector) stays full precision; with
        // binarize_reduce_inputs it is reduced too.
        let build = || {
            let mut b = ProgramBuilder::new("agg");
            let features = b.input_vector("features", ElementKind::F32, 617);
            let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
            let rp_b = b.sign(rp);
            let encoded = b.matmul(features, rp_b);
            b.mark_output(encoded);
            (b.finish(), features)
        };

        let (mut default_p, features) = build();
        binarize(&mut default_p, &BinarizeOptions::default());
        assert_eq!(
            default_p.value(features).ty.element_kind(),
            Some(ElementKind::F32)
        );

        let (mut aggressive_p, features) = build();
        binarize(
            &mut aggressive_p,
            &BinarizeOptions {
                binarize_reduce_inputs: true,
                ..BinarizeOptions::default()
            },
        );
        assert_eq!(
            aggressive_p.value(features).ty.element_kind(),
            Some(ElementKind::Bit)
        );
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
        let report = binarize(&mut p, &BinarizeOptions::default());
        assert_eq!(report.binarized_values, 0);
        assert_eq!(report.bytes_before, report.bytes_after);
        assert_eq!(p, before);
    }

    #[test]
    fn alternate_binarized_type() {
        let (mut p, encoded_b, _, _, _) = classification_program();
        binarize(
            &mut p,
            &BinarizeOptions {
                binarized_type: ElementKind::I8,
                binarize_reduce_inputs: false,
            },
        );
        assert_eq!(p.value(encoded_b).ty.element_kind(), Some(ElementKind::I8));
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
        let report = binarize(&mut p, &BinarizeOptions::default());
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
        binarize(&mut p, &BinarizeOptions::default());
        assert_eq!(p.value(encoded).ty.element_kind(), Some(ElementKind::Bit));
        // Raw features and the projection stay full precision.
        assert_eq!(p.value(features).ty.element_kind(), Some(ElementKind::F64));
        assert_eq!(p.value(rp).ty.element_kind(), Some(ElementKind::F64));
        verify(&p).unwrap();
    }

    #[test]
    fn report_counts_value_types() {
        let (mut p, ..) = classification_program();
        let report = binarize(&mut p, &BinarizeOptions::default());
        assert_eq!(report.binarized_values, p.binarized_value_count());
        assert!(report.affected_instrs >= 3, "sign, sign, hamming at least");
    }
}
