//! # hdc-runtime
//!
//! The reference interpreter for HPVM-HDC programs: the execution half of
//! the compile→execute spine.
//!
//! A [`Program`](hdc_ir::Program) built with the HDC++ builder DSL and
//! transformed by the `hdc-passes` pipeline is executed here:
//!
//! * [`Executor`] — walks the verified dataflow graph in order, evaluating
//!   every [`HdcOp`](hdc_ir::HdcOp) intrinsic against the `hdc-core`
//!   kernels, with bit-packed XOR/popcount dispatch for binarized operands
//!   and full `red_perf` (reduction perforation) support.
//! * [`Value`] — the runtime representation of a value slot: scalar, dense
//!   hypervector/hypermatrix, bit-packed vector/matrix, or index vector.
//!   Tensor payloads are `Arc`-shared, so moving values between slots,
//!   snapshotting the store, and collecting outputs never copy a tensor.
//! * [`Outputs`] — typed access to the program's output slots after a run.
//! * [`ExecStats`] — execution counters (instructions, stage samples, bit
//!   kernel dispatches, batched kernel calls, tensor bytes copied,
//!   accelerator-placed stage samples).
//! * [`StageTraceEntry`] — the per-run record of every executed stage node
//!   (name, kind, compiler-assigned target, samples, schedule), exposed via
//!   [`Executor::stage_trace`]. Stages placed on an HDC accelerator target
//!   still execute *functionally* here — the interpreter is the output
//!   oracle for every back end — while the trace lets an accelerator
//!   performance model (the `hdc-accel` crate) charge modeled cycles and
//!   energy against exactly the stage work that ran.
//!
//! # Batched execution
//!
//! The executor runs stage loops in one of two modes:
//!
//! * **Batched** (the default): an `inference_loop` whose body is a single
//!   `hamming_distance` / `cossim` reduction of the sample against a
//!   loop-invariant class matrix is executed as one matrix-level kernel
//!   call from [`hdc_core::batch`] over the whole sample matrix — the
//!   binarized configuration never unpacks a tensor, so
//!   [`ExecStats::tensor_bytes_copied`] stays at zero. An `encoding_loop`
//!   whose body is `matmul` (optionally followed by `sign`) is likewise
//!   executed as one batched matmul. Stage bodies that don't match these
//!   shapes (extra instructions, integer-quantized intermediates, mixed
//!   packed/dense operands) automatically take the sequential path.
//!   `ParallelFor` nodes whose bodies pass a row-independence analysis run
//!   their instances through the rayon compat layer against `Arc` store
//!   snapshots.
//! * **Sequential** ([`Executor::set_mode`]`(`[`ExecMode::Sequential`]`)`):
//!   one interpreter pass per sample, exactly the PR-1 reference
//!   semantics. This path stays the *reference oracle*: the batched kernels are bit-identical to it (the
//!   popcounts are exact integers and the dense kernels accumulate in the
//!   same element order), and the `batched_equivalence` integration tests
//!   assert both paths produce identical outputs so any future kernel
//!   change that breaks equivalence is caught immediately.
//!
//! A batched `training_loop` runs on the blocked re-freeze schedule of
//! [`training`]: perceptron updates are order-dependent, so each block of
//! an epoch is scored by one kernel call and replayed in sample order with
//! the stale scores patched. [`replay_epoch`] is that schedule's one
//! implementation, shared with the online trainer in `hdc-serve`.
//!
//! # Example
//!
//! ```
//! use hdc_core::prelude::*;
//! use hdc_ir::prelude::*;
//! use hdc_runtime::{Executor, Value};
//!
//! // Listing 1: random-projection encode, Hamming score, arg-min.
//! let mut b = ProgramBuilder::new("classify_one");
//! let features = b.input_vector("features", ElementKind::F32, 16);
//! let rp = b.input_matrix("rp", ElementKind::F32, 64, 16);
//! let classes = b.input_matrix("classes", ElementKind::F32, 2, 64);
//! let encoded = b.matmul(features, rp);
//! let signed = b.sign(encoded);
//! let dists = b.hamming_distance(signed, classes);
//! let label = b.arg_min(dists);
//! b.mark_output(label);
//! let program = b.finish();
//!
//! let mut rng = HdcRng::seed_from_u64(7);
//! let proj = RandomProjection::<f64>::bipolar(64, 16, &mut rng);
//! let x = HyperVector::from_fn(16, |i| i as f64 - 8.0);
//! let target = proj.encode(&x).sign();
//! let classes_data =
//!     HyperMatrix::from_rows(vec![target.clone(), target.sign_flip()]).unwrap();
//!
//! let mut exec = Executor::new(&program).unwrap();
//! exec.bind("features", Value::vector(x)).unwrap();
//! exec.bind("rp", Value::matrix(proj.matrix().clone())).unwrap();
//! exec.bind("classes", Value::matrix(classes_data)).unwrap();
//! let outputs = exec.run().unwrap();
//! assert_eq!(outputs.scalar(label).unwrap(), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod executor;
pub mod training;
pub mod value;

pub use error::{Result, RuntimeError};
pub use executor::{ExecMode, ExecStats, Executor, Outputs, StageTraceEntry};
pub use training::{replay_epoch, EpochCounts, TRAIN_BLOCK_ROWS};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_core::ops::ElementwiseOp;
    use hdc_core::prelude::*;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::program::ValueId;
    use hdc_ir::stage::ScorePolarity;

    fn run_unary(
        build: impl FnOnce(&mut ProgramBuilder, ValueId) -> ValueId,
        input: Vec<f64>,
    ) -> (Outputs, ValueId) {
        let mut b = ProgramBuilder::new("unary");
        let a = b.input_vector("a", ElementKind::F64, input.len());
        let r = build(&mut b, a);
        b.mark_output(r);
        let p = b.finish();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind("a", Value::vector(HyperVector::from_vec(input)))
            .unwrap();
        (exec.run().unwrap(), r)
    }

    #[test]
    fn sign_and_flip_and_abs() {
        let (out, r) = run_unary(|b, a| b.sign(a), vec![-2.0, 0.0, 3.0]);
        assert_eq!(out.vector(r).unwrap().as_slice(), &[-1.0, 1.0, 1.0]);
        let (out, r) = run_unary(|b, a| b.sign_flip(a), vec![-2.0, 3.0]);
        assert_eq!(out.vector(r).unwrap().as_slice(), &[2.0, -3.0]);
        let (out, r) = run_unary(|b, a| b.absolute_value(a), vec![-2.5, 4.0]);
        assert_eq!(out.vector(r).unwrap().as_slice(), &[2.5, 4.0]);
    }

    #[test]
    fn cosine_elementwise_and_wrap_shift() {
        let (out, r) = run_unary(|b, a| b.cosine(a), vec![0.0, std::f64::consts::PI]);
        let v = out.vector(r).unwrap();
        assert!((v.get(0).unwrap() - 1.0).abs() < 1e-12);
        assert!((v.get(1).unwrap() + 1.0).abs() < 1e-12);
        let (out, r) = run_unary(|b, a| b.wrap_shift(a, 1), vec![1.0, 2.0, 3.0]);
        assert_eq!(out.vector(r).unwrap().as_slice(), &[3.0, 1.0, 2.0]);
    }

    #[test]
    fn elementwise_binary_ops() {
        let mut b = ProgramBuilder::new("binary");
        let x = b.input_vector("x", ElementKind::F64, 3);
        let y = b.input_vector("y", ElementKind::F64, 3);
        let sum = b.add(x, y);
        let diff = b.sub(x, y);
        let prod = b.mul(x, y);
        let quot = b.div(x, y);
        for v in [sum, diff, prod, quot] {
            b.mark_output(v);
        }
        let p = b.finish();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind(
            "x",
            Value::vector(HyperVector::from_vec(vec![4.0, 6.0, 9.0])),
        )
        .unwrap();
        exec.bind(
            "y",
            Value::vector(HyperVector::from_vec(vec![2.0, 3.0, 3.0])),
        )
        .unwrap();
        let out = exec.run().unwrap();
        assert_eq!(out.vector(sum).unwrap().as_slice(), &[6.0, 9.0, 12.0]);
        assert_eq!(out.vector(diff).unwrap().as_slice(), &[2.0, 3.0, 6.0]);
        assert_eq!(out.vector(prod).unwrap().as_slice(), &[8.0, 18.0, 27.0]);
        assert_eq!(out.vector(quot).unwrap().as_slice(), &[2.0, 2.0, 3.0]);
    }

    #[test]
    fn creation_ops_are_seeded_and_shaped() {
        let mut b = ProgramBuilder::new("create");
        let z = b.zero_matrix(ElementKind::F64, 2, 8);
        let r = b.random_matrix(ElementKind::F64, 3, 8);
        let g = b.gaussian_vector(ElementKind::F64, 8);
        let bp = b.random_bipolar_matrix(ElementKind::F64, 2, 8);
        for v in [z, r, bp] {
            b.mark_output(v);
        }
        b.mark_output(g);
        let p = b.finish();
        let out = Executor::new(&p).unwrap().run().unwrap();
        assert!(out.matrix(z).unwrap().as_slice().iter().all(|&x| x == 0.0));
        let rm = out.matrix(r).unwrap();
        assert_eq!((rm.rows(), rm.cols()), (3, 8));
        assert!(rm.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
        assert!(out
            .matrix(bp)
            .unwrap()
            .as_slice()
            .iter()
            .all(|&x| x == 1.0 || x == -1.0));
        assert_eq!(out.vector(g).unwrap().dimension(), 8);
        // Re-running is deterministic.
        let out2 = Executor::new(&p).unwrap().run().unwrap();
        assert_eq!(out.matrix(r).unwrap(), out2.matrix(r).unwrap());
    }

    #[test]
    fn reductions_selection_and_indexing() {
        let mut b = ProgramBuilder::new("reduce");
        let v = b.input_vector("v", ElementKind::F64, 4);
        let m = b.input_matrix("m", ElementKind::F64, 2, 4);
        let norm = b.l2norm(v);
        let lo = b.arg_min(v);
        let hi = b.arg_max(v);
        let rows_lo = b.arg_min(m);
        let elem = b.get_element(m, 1, Some(2));
        let row = b.get_matrix_row(m, 1);
        let t = b.transpose(m);
        for x in [norm, lo, hi, elem] {
            b.mark_output(x);
        }
        b.mark_output(rows_lo);
        b.mark_output(row);
        b.mark_output(t);
        let p = b.finish();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind(
            "v",
            Value::vector(HyperVector::from_vec(vec![3.0, -4.0, 0.0, 5.0])),
        )
        .unwrap();
        exec.bind(
            "m",
            Value::matrix(
                HyperMatrix::from_flat(2, 4, vec![5.0, 1.0, 2.0, 0.5, 9.0, 3.0, -1.0, 4.0])
                    .unwrap(),
            ),
        )
        .unwrap();
        let out = exec.run().unwrap();
        assert!((out.scalar(norm).unwrap() - (9.0f64 + 16.0 + 25.0).sqrt()).abs() < 1e-12);
        assert_eq!(out.scalar(lo).unwrap(), 1.0);
        assert_eq!(out.scalar(hi).unwrap(), 3.0);
        assert_eq!(out.indices(rows_lo).unwrap(), &[3, 2]);
        assert_eq!(out.scalar(elem).unwrap(), -1.0);
        assert_eq!(out.vector(row).unwrap().as_slice(), &[9.0, 3.0, -1.0, 4.0]);
        let tm = out.matrix(t).unwrap();
        assert_eq!((tm.rows(), tm.cols()), (4, 2));
        assert_eq!(tm.get(2, 1).unwrap(), -1.0);
    }

    #[test]
    fn set_and_accumulate_rows() {
        let mut b = ProgramBuilder::new("rows");
        let m = b.input_matrix("m", ElementKind::F64, 2, 3);
        let v = b.input_vector("v", ElementKind::F64, 3);
        b.set_matrix_row(m, v, 0);
        b.accumulate_row(m, v, 1);
        b.mark_output(m);
        let p = b.finish();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind(
            "m",
            Value::matrix(HyperMatrix::from_flat(2, 3, vec![0.0; 6]).unwrap()),
        )
        .unwrap();
        exec.bind(
            "v",
            Value::vector(HyperVector::from_vec(vec![1.0, 2.0, 3.0])),
        )
        .unwrap();
        let out = exec.run().unwrap();
        let m_out = out.matrix(m).unwrap();
        assert_eq!(m_out.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(m_out.row(1).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn type_cast_quantizes() {
        let mut b = ProgramBuilder::new("cast");
        let v = b.input_vector("v", ElementKind::F64, 3);
        let cast = b.type_cast(v, ElementKind::I8);
        b.mark_output(cast);
        let p = b.finish();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind(
            "v",
            Value::vector(HyperVector::from_vec(vec![1.6, -300.0, 2.2])),
        )
        .unwrap();
        let out = exec.run().unwrap();
        assert_eq!(out.vector(cast).unwrap().as_slice(), &[2.0, -128.0, 2.0]);
    }

    #[test]
    fn similarity_metrics_match_core_kernels() {
        let mut b = ProgramBuilder::new("sim");
        let q = b.input_vector("q", ElementKind::F64, 8);
        let m = b.input_matrix("m", ElementKind::F64, 3, 8);
        let cs = b.cossim(q, m);
        let hd = b.hamming_distance(q, m);
        b.mark_output(cs);
        b.mark_output(hd);
        let p = b.finish();
        let mut rng = HdcRng::seed_from_u64(3);
        let qv: HyperVector<f64> = hdc_core::random::bipolar_hypervector(8, &mut rng);
        let mm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(3, 8, &mut rng);
        let mut exec = Executor::new(&p).unwrap();
        exec.bind("q", Value::vector(qv.clone())).unwrap();
        exec.bind("m", Value::matrix(mm.clone())).unwrap();
        let out = exec.run().unwrap();
        let expect_cs = cosine_similarity_matrix(&qv, &mm, Perforation::NONE).unwrap();
        let expect_hd = hamming_distance_matrix(&qv, &mm, Perforation::NONE).unwrap();
        assert_eq!(out.vector(cs).unwrap(), expect_cs);
        assert_eq!(out.vector(hd).unwrap(), expect_hd);
    }

    #[test]
    fn perforation_annotations_are_honored() {
        let mut b = ProgramBuilder::new("perf");
        let q = b.input_vector("q", ElementKind::F64, 8);
        let m = b.input_matrix("m", ElementKind::F64, 2, 8);
        let d = b.hamming_distance(q, m);
        b.red_perf(d, 0, 8, 2);
        b.mark_output(d);
        let p = b.finish();
        let ones = HyperVector::splat(8, 1.0);
        let flipped = ones.sign_flip();
        let mm = HyperMatrix::from_rows(vec![ones.clone(), flipped]).unwrap();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind("q", Value::vector(ones)).unwrap();
        exec.bind("m", Value::matrix(mm)).unwrap();
        let out = exec.run().unwrap();
        // Only 4 of 8 positions visited; similarity distances not rescaled.
        assert_eq!(out.vector(d).unwrap().as_slice(), &[0.0, 4.0]);
    }

    #[test]
    fn binarized_slots_dispatch_bit_kernels() {
        let mut b = ProgramBuilder::new("bits");
        let q = b.input_vector("q", ElementKind::F64, 128);
        let m = b.input_matrix("m", ElementKind::F64, 4, 128);
        let qs = b.sign(q);
        let ms = b.sign(m);
        let d = b.hamming_distance(qs, ms);
        let label = b.arg_min(d);
        b.mark_output(label);
        let mut p = b.finish();
        // Binarize the program, so the sign results become Bit slots.
        let report = hdc_passes::binarize(&mut p);
        assert!(report.binarized_values >= 2);
        let mut rng = HdcRng::seed_from_u64(9);
        let qv: HyperVector<f64> = hdc_core::random::random_hypervector(128, &mut rng);
        let mm: HyperMatrix<f64> = hdc_core::random::random_hypermatrix(4, 128, &mut rng);
        let mut exec = Executor::new(&p).unwrap();
        exec.bind("q", Value::vector(qv.clone())).unwrap();
        exec.bind("m", Value::matrix(mm.clone())).unwrap();
        let out = exec.run().unwrap();
        assert!(exec.stats().bit_kernel_ops >= 1, "popcount path used");
        // Reference: dense sign + hamming.
        let expect = hamming_distance_matrix(&qv.sign(), &mm.sign(), Perforation::NONE).unwrap();
        let expect_label = arg_min(expect.as_slice()).unwrap() as f64;
        assert_eq!(out.scalar(label).unwrap(), expect_label);
    }

    #[test]
    fn bit_bind_is_xor() {
        let mut b = ProgramBuilder::new("bind");
        let x = b.input_vector("x", ElementKind::F64, 64);
        let y = b.input_vector("y", ElementKind::F64, 64);
        let xs = b.sign(x);
        let ys = b.sign(y);
        let bound = b.mul(xs, ys);
        b.mark_output(bound);
        let mut p = b.finish();
        hdc_passes::binarize(&mut p);
        let mut rng = HdcRng::seed_from_u64(4);
        let xv: HyperVector<f64> = hdc_core::random::random_hypervector(64, &mut rng);
        let yv: HyperVector<f64> = hdc_core::random::random_hypervector(64, &mut rng);
        let mut exec = Executor::new(&p).unwrap();
        exec.bind("x", Value::vector(xv.clone())).unwrap();
        exec.bind("y", Value::vector(yv.clone())).unwrap();
        let out = exec.run().unwrap();
        assert!(exec.stats().bit_kernel_ops >= 1);
        let expect = xv.sign().zip_with(&yv.sign(), |a, b| a * b).unwrap();
        assert_eq!(out.vector(bound).unwrap(), expect);
    }

    #[test]
    fn parallel_for_processes_all_rows() {
        let mut b = ProgramBuilder::new("par");
        let m = b.input_matrix("m", ElementKind::F64, 4, 8);
        let out_m = b.input_matrix("out", ElementKind::F64, 4, 8);
        b.mark_output(out_m);
        b.parallel_for("rows", 4, |b, idx| {
            let row = b.get_matrix_row_dyn(m, idx);
            let s = b.sign(row);
            b.set_matrix_row_dyn(out_m, s, idx);
        });
        let p = b.finish();
        let mut rng = HdcRng::seed_from_u64(5);
        let mm: HyperMatrix<f64> = hdc_core::random::random_hypermatrix(4, 8, &mut rng);
        let mut exec = Executor::new(&p).unwrap();
        exec.bind("m", Value::matrix(mm.clone())).unwrap();
        exec.bind("out", Value::matrix(HyperMatrix::zeros(4, 8)))
            .unwrap();
        let out = exec.run().unwrap();
        assert_eq!(out.matrix(out_m).unwrap(), mm.sign());
    }

    #[test]
    fn encoding_and_inference_stages_run_end_to_end() {
        let mut b = ProgramBuilder::new("stages");
        let features = b.input_matrix("features", ElementKind::F64, 6, 16);
        let rp = b.input_matrix("rp", ElementKind::F64, 64, 16);
        let classes = b.input_matrix("classes", ElementKind::F64, 3, 64);
        let encoded = b.encoding_loop("encode", features, 64, |b, q| {
            let e = b.matmul(q, rp);
            b.sign(e)
        });
        let preds = b.inference_loop(
            "infer",
            encoded,
            classes,
            ScorePolarity::Distance,
            |b, q| b.hamming_distance(q, classes),
        );
        b.mark_output(preds);
        let p = b.finish();

        // Three bipolar class prototypes; queries are noisy copies.
        let mut rng = HdcRng::seed_from_u64(6);
        let proj = RandomProjection::<f64>::bipolar(64, 16, &mut rng);
        let prototypes: Vec<HyperVector<f64>> = (0..3)
            .map(|_| hdc_core::random::gaussian_hypervector(16, &mut rng))
            .collect();
        let feature_rows: Vec<HyperVector<f64>> = (0..6)
            .map(|i| {
                let base = &prototypes[i % 3];
                HyperVector::from_fn(16, |j| base.get(j).unwrap() + 0.01 * (i as f64))
            })
            .collect();
        let class_rows: Vec<HyperVector<f64>> = prototypes
            .iter()
            .map(|proto| proj.encode(proto).sign())
            .collect();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind(
            "features",
            Value::matrix(HyperMatrix::from_rows(feature_rows).unwrap()),
        )
        .unwrap();
        exec.bind("rp", Value::matrix(proj.matrix().clone()))
            .unwrap();
        exec.bind(
            "classes",
            Value::matrix(HyperMatrix::from_rows(class_rows).unwrap()),
        )
        .unwrap();
        let out = exec.run().unwrap();
        assert_eq!(out.indices(preds).unwrap(), &[0, 1, 2, 0, 1, 2]);
        assert_eq!(exec.stats().stage_samples, 12, "6 encode + 6 infer");
    }

    #[test]
    fn training_stage_separates_classes() {
        // Two well-separated clusters; training from a zero class matrix
        // must learn to classify them.
        let dim = 64;
        let mut b = ProgramBuilder::new("train");
        let queries = b.input_matrix("queries", ElementKind::F64, 8, dim);
        let labels = b.input_indices("labels", 8);
        let classes = b.input_matrix("classes", ElementKind::F64, 2, dim);
        b.training_loop(
            "train",
            queries,
            labels,
            classes,
            3,
            ScorePolarity::Similarity,
            |b, q| b.cossim(q, classes),
        );
        let preds = b.inference_loop(
            "infer",
            queries,
            classes,
            ScorePolarity::Similarity,
            |b, q| b.cossim(q, classes),
        );
        b.mark_output(preds);
        let p = b.finish();

        let mut rng = HdcRng::seed_from_u64(8);
        let proto_a: HyperVector<f64> = hdc_core::random::bipolar_hypervector(dim, &mut rng);
        let proto_b: HyperVector<f64> = hdc_core::random::bipolar_hypervector(dim, &mut rng);
        let rows: Vec<HyperVector<f64>> = (0..8)
            .map(|i| {
                let proto = if i % 2 == 0 { &proto_a } else { &proto_b };
                // Flip a couple of positions for noise.
                let mut v = proto.clone();
                v.set(i % dim, -v.get(i % dim).unwrap()).unwrap();
                v
            })
            .collect();
        let truth: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let mut exec = Executor::new(&p).unwrap();
        exec.bind(
            "queries",
            Value::matrix(HyperMatrix::from_rows(rows).unwrap()),
        )
        .unwrap();
        exec.bind("labels", Value::indices(truth.clone())).unwrap();
        exec.bind("classes", Value::matrix(HyperMatrix::zeros(2, dim)))
            .unwrap();
        let out = exec.run().unwrap();
        assert_eq!(out.indices(preds).unwrap(), truth.as_slice());
    }

    #[test]
    fn unbound_input_is_reported() {
        let mut b = ProgramBuilder::new("unbound");
        let v = b.input_vector("v", ElementKind::F64, 4);
        let s = b.sign(v);
        b.mark_output(s);
        let p = b.finish();
        let err = Executor::new(&p).unwrap().run().unwrap_err();
        assert!(matches!(err, RuntimeError::UnboundInput { ref name, .. } if name == "v"));
    }

    #[test]
    fn bind_rejects_wrong_shapes() {
        let mut b = ProgramBuilder::new("shape");
        let v = b.input_vector("v", ElementKind::F64, 4);
        let s = b.sign(v);
        b.mark_output(s);
        let p = b.finish();
        let mut exec = Executor::new(&p).unwrap();
        let err = exec
            .bind("v", Value::vector(HyperVector::zeros(5)))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ShapeMismatch { .. }));
    }

    #[test]
    fn invalid_programs_are_rejected_up_front() {
        use hdc_ir::instr::HdcInstr;
        use hdc_ir::ops::HdcOp;
        use hdc_ir::program::{Node, NodeBody, Program};
        use hdc_ir::Target;
        let mut p = Program::new("bad");
        p.add_node(Node {
            name: "n".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(
                    HdcOp::Sign,
                    vec![ValueId::new(3).into()],
                    None,
                )],
            },
        });
        assert!(matches!(
            Executor::new(&p),
            Err(RuntimeError::InvalidProgram(_))
        ));
    }

    #[test]
    fn elementwise_op_table_is_complete() {
        // Every ElementwiseOp variant executes.
        for op in [
            ElementwiseOp::Add,
            ElementwiseOp::Sub,
            ElementwiseOp::Mul,
            ElementwiseOp::Div,
        ] {
            let mut b = ProgramBuilder::new("table");
            let x = b.input_vector("x", ElementKind::F64, 2);
            let y = b.input_vector("y", ElementKind::F64, 2);
            let r = match op {
                ElementwiseOp::Add => b.add(x, y),
                ElementwiseOp::Sub => b.sub(x, y),
                ElementwiseOp::Mul => b.mul(x, y),
                ElementwiseOp::Div => b.div(x, y),
            };
            b.mark_output(r);
            let p = b.finish();
            let mut exec = Executor::new(&p).unwrap();
            exec.bind("x", Value::vector(HyperVector::from_vec(vec![8.0, 6.0])))
                .unwrap();
            exec.bind("y", Value::vector(HyperVector::from_vec(vec![2.0, 3.0])))
                .unwrap();
            let out = exec.run().unwrap();
            assert_eq!(
                out.vector(r).unwrap().as_slice(),
                &[op.apply(8.0, 2.0), op.apply(6.0, 3.0)]
            );
        }
    }
}
