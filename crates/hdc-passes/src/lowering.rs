//! Lowering of HDC intrinsics into explicit parallel loop nests (§4.1).
//!
//! HPVM-HDC has two lowering strategies for HDC primitives: expand them into
//! generic HPVM IR loop subgraphs (used by the CPU back end and by targets
//! without library support), or map them directly onto device library calls
//! (cuBLAS / Thrust on GPUs, the functional interface on accelerators).
//!
//! This module implements the first strategy as an analysis: every HDC
//! instruction is described as a [`LoopNest`] — the loop extents, which
//! loops are parallel, and the per-iteration work. The CPU and GPU back
//! ends use these nests to decide thread mappings and to estimate kernel
//! cost.

use hdc_core::element::ElementKind;
use hdc_ir::instr::HdcInstr;
use hdc_ir::ops::HdcOp;
use hdc_ir::program::Program;
use hdc_ir::types::ValueType;

/// One loop dimension of a lowered loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopDim {
    /// Trip count.
    pub extent: usize,
    /// Whether iterations are independent (lowered to an HPVM parallel node
    /// with dynamic instances / a GPU thread dimension).
    pub parallel: bool,
}

/// A lowered HDC instruction: a loop nest around a scalar body.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// The op this nest implements.
    pub op: HdcOp,
    /// Outer-to-inner loop dimensions.
    pub loops: Vec<LoopDim>,
    /// Arithmetic operations per innermost iteration (used by cost models).
    pub flops_per_iter: f64,
    /// Bytes read per innermost iteration.
    pub bytes_per_iter: f64,
    /// Whether the innermost loop is a reduction (not parallelisable without
    /// a tree/atomic reduction).
    pub has_reduction: bool,
}

impl LoopNest {
    /// Total number of innermost iterations.
    pub fn total_iterations(&self) -> usize {
        self.loops.iter().map(|l| l.extent.max(1)).product()
    }

    /// Total floating-point (or popcount-equivalent) operations.
    pub fn total_flops(&self) -> f64 {
        self.total_iterations() as f64 * self.flops_per_iter
    }

    /// Total bytes touched.
    pub fn total_bytes(&self) -> f64 {
        self.total_iterations() as f64 * self.bytes_per_iter
    }

    /// Degree of available data parallelism (product of parallel extents).
    pub fn parallelism(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| l.parallel)
            .map(|l| l.extent.max(1))
            .product()
    }
}

fn elem_bytes(e: Option<ElementKind>) -> f64 {
    match e {
        Some(ElementKind::Bit) => 1.0 / 8.0,
        Some(k) => (k.bit_width() / 8) as f64,
        None => 4.0,
    }
}

fn tensor_dims(ty: ValueType) -> (usize, usize) {
    match ty {
        ValueType::HyperVector { dim, .. } => (1, dim),
        ValueType::HyperMatrix { rows, cols, .. } => (rows, cols),
        _ => (1, 1),
    }
}

/// Lower one HDC instruction into a loop-nest description.
///
/// The perforation annotation (if any) shrinks the reduction extent, exactly
/// as the generated loops would.
pub fn lower_instr(program: &Program, instr: &HdcInstr) -> LoopNest {
    let operand_ty = |idx: usize| -> Option<ValueType> {
        instr
            .operands
            .get(idx)
            .and_then(|o| o.as_value())
            .map(|v| program.value(v).ty)
    };
    let result_ty = instr.result.map(|r| program.value(r).ty);
    let in0 = operand_ty(0);
    let in1 = operand_ty(1);
    let bytes0 = elem_bytes(in0.and_then(|t| t.element_kind()));
    let bytes1 = elem_bytes(in1.and_then(|t| t.element_kind()));

    let reduce_extent = |dim: usize| -> usize {
        match instr.perforation {
            Some(p) => p.visited_count(dim),
            None => dim,
        }
    };

    match instr.op {
        HdcOp::MatMul => {
            // out[q][d] = sum_f in[q][f] * proj[d][f]
            let (q_rows, in_dim) = tensor_dims(in0.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            let (out_dim, _) = tensor_dims(in1.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: q_rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: out_dim,
                        parallel: true,
                    },
                    LoopDim {
                        extent: reduce_extent(in_dim),
                        parallel: false,
                    },
                ],
                flops_per_iter: 2.0,
                bytes_per_iter: bytes0 + bytes1,
                has_reduction: true,
            }
        }
        HdcOp::CosineSimilarity | HdcOp::HammingDistance => {
            let (l_rows, dim) = tensor_dims(in0.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            let (r_rows, _) = tensor_dims(in1.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            let flops = if matches!(instr.op, HdcOp::CosineSimilarity) {
                // dot + two norms
                6.0
            } else if in0.and_then(|t| t.element_kind()) == Some(ElementKind::Bit) {
                // xor + popcount amortised over a 64-bit word
                2.0 / 64.0
            } else {
                1.0
            };
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: l_rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: r_rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: reduce_extent(dim),
                        parallel: false,
                    },
                ],
                flops_per_iter: flops,
                bytes_per_iter: bytes0 + bytes1,
                has_reduction: true,
            }
        }
        HdcOp::L2Norm => {
            let (rows, dim) = tensor_dims(in0.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: reduce_extent(dim),
                        parallel: false,
                    },
                ],
                flops_per_iter: 2.0,
                bytes_per_iter: bytes0,
                has_reduction: true,
            }
        }
        HdcOp::ArgMin | HdcOp::ArgMax => {
            let (rows, dim) = tensor_dims(in0.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: dim,
                        parallel: false,
                    },
                ],
                flops_per_iter: 1.0,
                bytes_per_iter: bytes0,
                has_reduction: true,
            }
        }
        HdcOp::ArgTopK { k } => {
            // Per-row selection maintaining a k-entry best list: the scan
            // over candidates is sequential, each step costs ~log2(k)
            // comparisons against the heap of current bests.
            let (rows, dim) = tensor_dims(in0.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: dim,
                        parallel: false,
                    },
                ],
                flops_per_iter: 1.0 + (k.max(1) as f64).log2(),
                bytes_per_iter: bytes0,
                has_reduction: true,
            }
        }
        HdcOp::MatrixTranspose => {
            let (rows, cols) = tensor_dims(in0.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: cols,
                        parallel: true,
                    },
                ],
                flops_per_iter: 0.0,
                bytes_per_iter: 2.0 * bytes0,
                has_reduction: false,
            }
        }
        HdcOp::GetMatrixRow | HdcOp::SetMatrixRow | HdcOp::AccumulateRow => {
            let ty = if matches!(instr.op, HdcOp::GetMatrixRow) {
                in0
            } else {
                operand_ty(1)
            };
            let (_, cols) = tensor_dims(ty.unwrap_or(ValueType::Scalar(ElementKind::F32)));
            LoopNest {
                op: instr.op,
                loops: vec![LoopDim {
                    extent: cols,
                    parallel: true,
                }],
                flops_per_iter: if matches!(instr.op, HdcOp::AccumulateRow) {
                    1.0
                } else {
                    0.0
                },
                bytes_per_iter: 2.0 * bytes0,
                has_reduction: false,
            }
        }
        HdcOp::GetElement => LoopNest {
            op: instr.op,
            loops: vec![LoopDim {
                extent: 1,
                parallel: false,
            }],
            flops_per_iter: 0.0,
            bytes_per_iter: bytes0,
            has_reduction: false,
        },
        // Creation and element-wise operations: one (parallel) loop over all
        // elements of the result (or input for in-place style ops).
        _ => {
            let ty = result_ty
                .or(in0)
                .unwrap_or(ValueType::Scalar(ElementKind::F32));
            let (rows, cols) = tensor_dims(ty);
            let flops = match instr.op {
                HdcOp::CosineElementwise => 8.0,
                HdcOp::Zero
                | HdcOp::Random { .. }
                | HdcOp::Gaussian { .. }
                | HdcOp::RandomBipolar { .. } => 1.0,
                _ => 1.0,
            };
            LoopNest {
                op: instr.op,
                loops: vec![
                    LoopDim {
                        extent: rows,
                        parallel: true,
                    },
                    LoopDim {
                        extent: cols,
                        parallel: true,
                    },
                ],
                flops_per_iter: flops,
                bytes_per_iter: bytes0 + elem_bytes(result_ty.and_then(|t| t.element_kind())),
                has_reduction: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_ir::builder::ProgramBuilder;

    #[test]
    fn matmul_lowered_to_three_deep_nest() {
        let mut b = ProgramBuilder::new("mm");
        let x = b.input_vector("x", ElementKind::F32, 617);
        let w = b.input_matrix("w", ElementKind::F32, 2048, 617);
        let e = b.matmul(x, w);
        b.mark_output(e);
        let p = b.finish();
        let instr = p.iter_instrs().next().unwrap();
        let nest = lower_instr(&p, instr);
        assert_eq!(nest.loops.len(), 3);
        assert_eq!(nest.loops[1].extent, 2048);
        assert_eq!(nest.loops[2].extent, 617);
        assert!(nest.loops[1].parallel);
        assert!(!nest.loops[2].parallel, "reduction loop is sequential");
        assert!(nest.has_reduction);
        assert_eq!(nest.total_iterations(), 2048 * 617);
    }

    #[test]
    fn hamming_lowering_matches_listing4_shape() {
        // Listing 4 of the paper: outer parallel loop over classes, inner
        // sequential loop over the hypervector dimension.
        let mut b = ProgramBuilder::new("hd");
        let q = b.input_vector("q", ElementKind::F32, 2048);
        let c = b.input_matrix("c", ElementKind::F32, 26, 2048);
        let d = b.hamming_distance(q, c);
        b.mark_output(d);
        let p = b.finish();
        let nest = lower_instr(&p, p.iter_instrs().next().unwrap());
        assert_eq!(nest.loops.len(), 3);
        assert_eq!(nest.loops[0].extent, 1);
        assert_eq!(nest.loops[1].extent, 26);
        assert_eq!(nest.loops[2].extent, 2048);
        assert_eq!(nest.parallelism(), 26);
    }

    #[test]
    fn perforation_shrinks_reduction_extent() {
        let mut b = ProgramBuilder::new("perf");
        let q = b.input_vector("q", ElementKind::F32, 2048);
        let c = b.input_matrix("c", ElementKind::F32, 26, 2048);
        let d = b.hamming_distance(q, c);
        b.red_perf(d, 0, 2048, 2);
        b.mark_output(d);
        let p = b.finish();
        let nest = lower_instr(&p, p.iter_instrs().next().unwrap());
        assert_eq!(nest.loops[2].extent, 1024);
    }

    #[test]
    fn binarized_hamming_is_cheaper_per_element() {
        let mut b = ProgramBuilder::new("bits");
        let q = b.input_vector("q", ElementKind::F32, 2048);
        let c = b.input_matrix("c", ElementKind::F32, 26, 2048);
        let qs = b.sign(q);
        let cs = b.sign(c);
        let d = b.hamming_distance(qs, cs);
        b.mark_output(d);
        let mut p = b.finish();
        let hamming_nest = |p: &Program| {
            let instr = p.iter_instrs().find(|i| i.op == HdcOp::HammingDistance);
            lower_instr(p, instr.unwrap())
        };
        let dense_nest = hamming_nest(&p);
        crate::binarize::binarize(&mut p);
        let bit_nest = hamming_nest(&p);
        assert!(bit_nest.total_flops() < dense_nest.total_flops());
        assert!(bit_nest.total_bytes() < dense_nest.total_bytes());
    }

    #[test]
    fn elementwise_lowering_is_fully_parallel() {
        let mut b = ProgramBuilder::new("ew");
        let a = b.input_matrix("a", ElementKind::F32, 8, 1024);
        let s = b.sign(a);
        b.mark_output(s);
        let p = b.finish();
        let nest = lower_instr(&p, p.iter_instrs().next().unwrap());
        assert!(!nest.has_reduction);
        assert_eq!(nest.parallelism(), 8 * 1024);
    }
}
