//! Equivalence property tests: the batched stage execution path and the
//! parallel `ParallelFor` schedule must produce outputs identical to the
//! per-sample sequential reference oracle, across dense/binarized ×
//! perforated/unperforated configurations — and the batched binarized
//! inference path must perform **zero** tensor copies.

use hdc_core::element::ElementKind;
use hdc_core::matmul::SIGN_ENCODE_MAX_ROWS;
use hdc_core::prelude::*;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{Program, ValueId};
use hdc_ir::stage::ScorePolarity;
use hdc_runtime::{ExecMode, ExecStats, Executor, Value};
use std::sync::Arc;

const DIM: usize = 192;

/// The executor schedule for a `batched` flag: the batched (or parallel)
/// side of every comparison, or the sequential oracle.
fn mode(batched: bool) -> ExecMode {
    if batched {
        ExecMode::Batched
    } else {
        ExecMode::Sequential
    }
}

const CLASSES: usize = 7;
const QUERIES: usize = 23;

#[derive(Clone, Copy, Debug)]
enum Metric {
    Hamming,
    Cosine,
}

/// `(begin, end, stride)` red_perf annotations exercised by every case:
/// dense, strided (half the elements), and a segment that straddles a
/// 64-bit word boundary.
fn perforations() -> Vec<Option<(usize, usize, usize)>> {
    vec![None, Some((0, DIM, 2)), Some((30, 150, 1))]
}

fn build_inference(
    binarized: bool,
    metric: Metric,
    perf: Option<(usize, usize, usize)>,
) -> (Program, ValueId) {
    build_inference_classes(CLASSES, binarized, metric, perf)
}

fn build_inference_classes(
    class_rows: usize,
    binarized: bool,
    metric: Metric,
    perf: Option<(usize, usize, usize)>,
) -> (Program, ValueId) {
    let elem = if binarized {
        ElementKind::Bit
    } else {
        ElementKind::F64
    };
    let mut b = ProgramBuilder::new("equiv_infer");
    let q = b.input_matrix("queries", elem, QUERIES, DIM);
    let c = b.input_matrix("classes", elem, class_rows, DIM);
    let polarity = match metric {
        Metric::Hamming => ScorePolarity::Distance,
        Metric::Cosine => ScorePolarity::Similarity,
    };
    let preds = b.inference_loop("infer", q, c, polarity, |b, s| {
        let d = match metric {
            Metric::Hamming => b.hamming_distance(s, c),
            Metric::Cosine => b.cossim(s, c),
        };
        if let Some((begin, end, stride)) = perf {
            b.red_perf(d, begin, end, stride);
        }
        d
    });
    b.mark_output(preds);
    (b.finish(), preds)
}

fn inference_data(binarized: bool) -> (Value, Value) {
    inference_data_classes(CLASSES, binarized)
}

fn inference_data_classes(class_rows: usize, binarized: bool) -> (Value, Value) {
    let mut rng = HdcRng::seed_from_u64(0xE9);
    let queries: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(QUERIES, DIM, &mut rng);
    let classes: HyperMatrix<f64> =
        hdc_core::random::bipolar_hypermatrix(class_rows, DIM, &mut rng);
    if binarized {
        (
            Value::bit_matrix(BitMatrix::from_dense(&queries)),
            Value::bit_matrix(BitMatrix::from_dense(&classes)),
        )
    } else {
        (Value::matrix(queries), Value::matrix(classes))
    }
}

fn run_inference(
    program: &Program,
    preds: ValueId,
    queries: &Value,
    classes: &Value,
    batched: bool,
) -> (Vec<usize>, ExecStats) {
    let mut exec = Executor::new(program).unwrap();
    exec.set_mode(mode(batched));
    exec.bind("queries", queries.clone()).unwrap();
    exec.bind("classes", classes.clone()).unwrap();
    let out = exec.run().unwrap();
    (out.indices(preds).unwrap().to_vec(), exec.stats())
}

#[test]
fn batched_inference_matches_sequential_across_configs() {
    for binarized in [false, true] {
        for metric in [Metric::Hamming, Metric::Cosine] {
            for perf in perforations() {
                let (program, preds) = build_inference(binarized, metric, perf);
                let (queries, classes) = inference_data(binarized);
                let (batched, b_stats) = run_inference(&program, preds, &queries, &classes, true);
                let (sequential, s_stats) =
                    run_inference(&program, preds, &queries, &classes, false);
                assert_eq!(
                    batched, sequential,
                    "binarized={binarized} metric={metric:?} perf={perf:?}"
                );
                assert_eq!(
                    b_stats.batched_kernel_ops, 1,
                    "batched path used one matrix-level kernel call"
                );
                assert_eq!(
                    s_stats.batched_kernel_ops, 0,
                    "sequential oracle stays per-sample"
                );
                assert_eq!(
                    b_stats.stage_samples, QUERIES,
                    "batched stages still account per sample"
                );
                assert_eq!(s_stats.stage_samples, QUERIES);
                // Every run stamps the dispatched kernel backend.
                let backend = hdc_core::simd::selected().name();
                assert_eq!(b_stats.kernel_backend, backend);
                assert_eq!(s_stats.kernel_backend, backend);
            }
        }
    }
}

#[test]
fn batched_binarized_inference_is_zero_copy() {
    for perf in perforations() {
        let (program, preds) = build_inference(true, Metric::Hamming, perf);
        let (queries, classes) = inference_data(true);
        let (batched, b_stats) = run_inference(&program, preds, &queries, &classes, true);
        let (sequential, s_stats) = run_inference(&program, preds, &queries, &classes, false);
        assert_eq!(batched, sequential);
        assert_eq!(
            b_stats.tensor_bytes_copied, 0,
            "batched binarized inference must not copy a single tensor byte (perf={perf:?})"
        );
        assert!(
            s_stats.tensor_bytes_copied > 0,
            "the per-sample oracle unpacks and stages rows"
        );
        // The popcount kernels served every sample on both paths.
        assert_eq!(b_stats.bit_kernel_ops, QUERIES);
        assert_eq!(s_stats.bit_kernel_ops, QUERIES);
    }
}

#[test]
fn dense_inference_stats_are_accounted_exactly() {
    // The zero-copy claim is only meaningful if the copy accounting is
    // trustworthy on paths that DO copy. For a dense cosine inference run
    // the expected values are exact:
    //
    // * batched: one matrix-level kernel call, and — because the bound
    //   matrices are already in the declared dense representation — zero
    //   tensor bytes copied (kernel outputs are fresh allocations, not
    //   copies);
    // * sequential: no batched kernels, and exactly one row staging copy
    //   per sample (QUERIES * DIM * 8 bytes) — the per-sample oracle
    //   materializes each query row into the stage body slot, while the
    //   score reads and operand accesses are Arc-shared.
    let (program, preds) = build_inference(false, Metric::Cosine, None);
    let (queries, classes) = inference_data(false);
    let (batched, b_stats) = run_inference(&program, preds, &queries, &classes, true);
    let (sequential, s_stats) = run_inference(&program, preds, &queries, &classes, false);
    assert_eq!(batched, sequential);
    assert_eq!(b_stats.batched_kernel_ops, 1);
    assert_eq!(b_stats.tensor_bytes_copied, 0);
    assert_eq!(s_stats.batched_kernel_ops, 0);
    assert_eq!(
        s_stats.tensor_bytes_copied,
        QUERIES * DIM * 8,
        "sequential dense inference stages one row copy per sample"
    );
    // Dense runs never touch the bit kernels.
    assert_eq!(b_stats.bit_kernel_ops, 0);
    assert_eq!(s_stats.bit_kernel_ops, 0);
}

#[test]
fn batched_encoding_matches_sequential() {
    const FEATURES: usize = 24;
    const ENC_DIM: usize = 96;
    const SAMPLES: usize = 9;
    for perf in [None, Some((0, FEATURES, 2))] {
        let mut b = ProgramBuilder::new("equiv_encode");
        let features = b.input_matrix("features", ElementKind::F64, SAMPLES, FEATURES);
        let rp = b.input_matrix("rp", ElementKind::F64, ENC_DIM, FEATURES);
        let encoded = b.encoding_loop("encode", features, ENC_DIM, |b, q| {
            let e = b.matmul(q, rp);
            if let Some((begin, end, stride)) = perf {
                b.red_perf(e, begin, end, stride);
            }
            b.sign(e)
        });
        b.mark_output(encoded);
        let program = b.finish();

        let mut rng = HdcRng::seed_from_u64(0x5EED);
        let fm: HyperMatrix<f64> =
            hdc_core::random::gaussian_hypermatrix(SAMPLES, FEATURES, &mut rng);
        let pm: HyperMatrix<f64> =
            hdc_core::random::bipolar_hypermatrix(ENC_DIM, FEATURES, &mut rng);

        let run = |batched: bool| {
            let mut exec = Executor::new(&program).unwrap();
            exec.set_mode(mode(batched));
            exec.bind("features", Value::matrix(fm.clone())).unwrap();
            exec.bind("rp", Value::matrix(pm.clone())).unwrap();
            let out = exec.run().unwrap();
            (out.matrix(encoded).unwrap(), exec.stats())
        };
        let (batched, b_stats) = run(true);
        let (sequential, s_stats) = run(false);
        assert_eq!(batched, sequential, "perf={perf:?}");
        assert_eq!(b_stats.batched_kernel_ops, 1);
        assert_eq!(s_stats.batched_kernel_ops, 0);
        assert_eq!(b_stats.stage_samples, SAMPLES);
    }
}

/// A projection bound as sign bits (its slot declared `Bit`) encodes
/// through the sign kernels on both schedules, to exactly the matrix the
/// same program gives with the `f64` ±1 projection, at every window size
/// up to one panel, one past it, and 64; dense, strided and segmented.
#[test]
fn bit_projection_encoding_matches_sequential_and_dense() {
    const FEATURES: usize = 70;
    const ENC_DIM: usize = 76;
    let build = |samples: usize, rp_elem: ElementKind, perf: Option<(usize, usize, usize)>| {
        let mut b = ProgramBuilder::new("equiv_sign_encode");
        let features = b.input_matrix("features", ElementKind::F64, samples, FEATURES);
        let rp = b.input_matrix("rp", rp_elem, ENC_DIM, FEATURES);
        let encoded = b.encoding_loop("encode", features, ENC_DIM, |b, q| {
            let e = b.matmul(q, rp);
            if let Some((begin, end, stride)) = perf {
                b.red_perf(e, begin, end, stride);
            }
            e
        });
        b.mark_output(encoded);
        (b.finish(), encoded)
    };
    let mut rng = HdcRng::seed_from_u64(0x5165);
    let pm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(ENC_DIM, FEATURES, &mut rng);
    let signs = Value::bit_matrix(BitMatrix::from_bipolar(&Arc::new(pm.clone())).unwrap());
    let bits = |m: &HyperMatrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for samples in (1..=9).chain([64]) {
        let fm: HyperMatrix<f64> =
            hdc_core::random::gaussian_hypermatrix(samples, FEATURES, &mut rng);
        for perf in [None, Some((0, FEATURES, 2)), Some((3, 67, 1))] {
            let run = |rp_elem: ElementKind, rp: Value, batched: bool| {
                let (program, encoded) = build(samples, rp_elem, perf);
                let mut exec = Executor::new(&program).unwrap();
                exec.set_mode(mode(batched));
                exec.bind("features", Value::matrix(fm.clone())).unwrap();
                exec.bind("rp", rp).unwrap();
                let out = exec.run().unwrap();
                (out.matrix(encoded).unwrap(), exec.stats())
            };
            let (dense, d_stats) = run(ElementKind::F64, Value::matrix(pm.clone()), true);
            let (batched, b_stats) = run(ElementKind::Bit, signs.clone(), true);
            let (sequential, s_stats) = run(ElementKind::Bit, signs.clone(), false);
            let context = format!("samples={samples} perf={perf:?}");
            assert_eq!(bits(&batched), bits(&sequential), "{context}");
            assert_eq!(bits(&batched), bits(&dense), "{context}");
            assert_eq!(b_stats.batched_kernel_ops, 1, "{context}");
            // Batches past the sign-bit leg's rows stream the expansion
            // through the fused panel leg; the per-sample schedule never
            // does.
            let fused = if samples > SIGN_ENCODE_MAX_ROWS {
                samples
            } else {
                0
            };
            assert_eq!(b_stats.sign_encoded_rows, samples - fused, "{context}");
            assert_eq!(b_stats.fused_encoded_rows, fused, "{context}");
            assert_eq!(s_stats.sign_encoded_rows, samples, "{context}");
            assert_eq!(s_stats.fused_encoded_rows, 0, "{context}");
            assert_eq!(d_stats.sign_encoded_rows, 0, "{context}");
            assert_eq!(d_stats.fused_encoded_rows, 0, "{context}");
            // The batched sign encode neither unpacks the projection nor
            // copies the queries.
            assert_eq!(b_stats.tensor_bytes_copied, 0, "{context}");
        }
    }
}

#[test]
fn stage_bodies_outside_the_pattern_fall_back_to_sequential() {
    // An inference body with an extra elementwise op is not a single-kernel
    // pattern; the executor must take the per-sample path (and still be
    // correct).
    let mut b = ProgramBuilder::new("fallback");
    let q = b.input_matrix("queries", ElementKind::F64, 6, 32);
    let c = b.input_matrix("classes", ElementKind::F64, 3, 32);
    let preds = b.inference_loop("infer", q, c, ScorePolarity::Distance, |b, s| {
        let d = b.hamming_distance(s, c);
        b.add(d, d)
    });
    b.mark_output(preds);
    let program = b.finish();
    let mut rng = HdcRng::seed_from_u64(3);
    let qm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(6, 32, &mut rng);
    let cm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(3, 32, &mut rng);
    let run = |batched: bool| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(batched));
        exec.bind("queries", Value::matrix(qm.clone())).unwrap();
        exec.bind("classes", Value::matrix(cm.clone())).unwrap();
        let out = exec.run().unwrap();
        (out.indices(preds).unwrap().to_vec(), exec.stats())
    };
    let (with_batching, stats) = run(true);
    let (without, _) = run(false);
    assert_eq!(with_batching, without);
    assert_eq!(stats.batched_kernel_ops, 0, "pattern must not match");
}

#[test]
fn parallel_for_matches_sequential_schedule() {
    const ROWS: usize = 5;
    const COLS: usize = 48;
    let mut b = ProgramBuilder::new("par_rows");
    let m = b.input_matrix("m", ElementKind::F64, ROWS, COLS);
    let out_m = b.input_matrix("out", ElementKind::F64, ROWS, COLS);
    b.mark_output(out_m);
    b.parallel_for("rows", ROWS, |b, idx| {
        let row = b.get_matrix_row_dyn(m, idx);
        let shifted = b.wrap_shift(row, 3);
        let s = b.sign(shifted);
        b.set_matrix_row_dyn(out_m, s, idx);
    });
    let program = b.finish();
    let mut rng = HdcRng::seed_from_u64(11);
    let mm: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(ROWS, COLS, &mut rng);
    let run = |parallel: bool| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(parallel));
        exec.bind("m", Value::matrix(mm.clone())).unwrap();
        exec.bind("out", Value::matrix(HyperMatrix::zeros(ROWS, COLS)))
            .unwrap();
        let out = exec.run().unwrap();
        out.matrix(out_m).unwrap()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn parallel_for_accumulate_rows_matches_sequential() {
    const ROWS: usize = 4;
    const COLS: usize = 40;
    let mut b = ProgramBuilder::new("par_acc");
    let m = b.input_matrix("m", ElementKind::F64, ROWS, COLS);
    let acc = b.input_matrix("acc", ElementKind::F64, ROWS, COLS);
    b.mark_output(acc);
    b.parallel_for("acc_rows", ROWS, |b, idx| {
        let row = b.get_matrix_row_dyn(m, idx);
        // Two accumulations into the same row: the second must observe the
        // first, on both schedules.
        b.accumulate_row(acc, row, idx);
        b.accumulate_row(acc, row, idx);
    });
    let program = b.finish();
    let mut rng = HdcRng::seed_from_u64(13);
    let mm: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(ROWS, COLS, &mut rng);
    let base: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(ROWS, COLS, &mut rng);
    let run = |parallel: bool| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(parallel));
        exec.bind("m", Value::matrix(mm.clone())).unwrap();
        exec.bind("acc", Value::matrix(base.clone())).unwrap();
        let out = exec.run().unwrap();
        out.matrix(acc).unwrap()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn cross_iteration_dependences_fall_back_to_sequential() {
    // accumulate_row at a *fixed* row is a reduction across iterations —
    // the row-independence analysis must reject it and the sequential
    // schedule must run (results identical whether the toggle is on or
    // off).
    const COLS: usize = 16;
    let mut b = ProgramBuilder::new("par_reduce");
    let m = b.input_matrix("m", ElementKind::F64, 4, COLS);
    let acc = b.input_matrix("acc", ElementKind::F64, 1, COLS);
    b.mark_output(acc);
    b.parallel_for("reduce", 4, |b, idx| {
        let row = b.get_matrix_row_dyn(m, idx);
        b.accumulate_row(acc, row, 0i64);
    });
    let program = b.finish();
    let mut rng = HdcRng::seed_from_u64(17);
    let mm: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(4, COLS, &mut rng);
    let run = |parallel: bool| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(parallel));
        exec.bind("m", Value::matrix(mm.clone())).unwrap();
        exec.bind("acc", Value::matrix(HyperMatrix::zeros(1, COLS)))
            .unwrap();
        let out = exec.run().unwrap();
        out.matrix(acc).unwrap()
    };
    assert_eq!(run(true), run(false));
    // And the fallback really did reduce: row 0 is the column sum of m.
    let reduced = run(true);
    for cidx in 0..COLS {
        let expect: f64 = (0..4).map(|r| mm.get(r, cidx).unwrap()).sum();
        assert!((reduced.get(0, cidx).unwrap() - expect).abs() < 1e-12);
    }
}

#[test]
fn arg_top_k_matches_sequential_and_rejects_nan() {
    // Matrix operand: the batched selection kernel vs the per-row
    // sequential loop must agree exactly (including ties, which resolve to
    // the lower index on both paths).
    let mut b = ProgramBuilder::new("topk_equiv");
    let scores = b.input_matrix("scores", ElementKind::F64, 11, 17);
    let picks = b.arg_top_k(scores, 4);
    b.mark_output(picks);
    let program = b.finish();
    let mut rng = HdcRng::seed_from_u64(0x70C);
    let data: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(11, 17, &mut rng);
    let run = |batched: bool| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(batched));
        exec.bind("scores", Value::matrix(data.clone())).unwrap();
        let out = exec.run().unwrap();
        (out.indices(picks).unwrap().to_vec(), exec.stats())
    };
    let (batched, b_stats) = run(true);
    let (sequential, s_stats) = run(false);
    assert_eq!(batched, sequential);
    assert_eq!(batched.len(), 11 * 4);
    assert_eq!(b_stats.batched_kernel_ops, 1);
    assert_eq!(s_stats.batched_kernel_ops, 0);

    // NaN scores shorten the selection (arg_top_k skips incomparable
    // values); a row left with fewer than k comparable scores cannot fill
    // the declared indices<rows*k> layout, and both schedules must reject
    // it instead of returning a ragged result.
    let mut nan_data = data.clone();
    for col in 0..14 {
        nan_data.set(3, col, f64::NAN).unwrap();
    }
    for batched in [true, false] {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(batched));
        exec.bind("scores", Value::matrix(nan_data.clone()))
            .unwrap();
        assert!(
            exec.run().is_err(),
            "NaN scores must fail top-k selection (batched={batched})"
        );
    }

    // Vector operand: same contract on the non-batched shape. One NaN
    // among six scores leaves only five comparable candidates, so a full
    // k = 6 selection cannot satisfy indices<6> and must error.
    let mut b = ProgramBuilder::new("topk_vec");
    let scores_v = b.input_vector("scores", ElementKind::F64, 6);
    let picks_v = b.arg_top_k(scores_v, 6);
    b.mark_output(picks_v);
    let program_v = b.finish();
    let mut exec = Executor::new(&program_v).unwrap();
    exec.bind(
        "scores",
        Value::vector(HyperVector::from_vec(vec![
            1.0,
            f64::NAN,
            3.0,
            0.5,
            2.0,
            -1.0,
        ])),
    )
    .unwrap();
    assert!(
        exec.run().is_err(),
        "vector top-k shortened by NaN must error, not return ragged indices"
    );
}

#[test]
fn leaf_arg_min_over_matrix_rejects_all_nan_row() {
    // A leaf `arg_min` over a score matrix: a row with no comparable score
    // has no answer, so it is `EmptyInput` (as for a vector operand), not a
    // silent label 0, under both schedules.
    let mut b = ProgramBuilder::new("argmin_rows");
    let scores = b.input_matrix("scores", ElementKind::F64, 3, 4);
    let picks = b.arg_min(scores);
    b.mark_output(picks);
    let program = b.finish();
    let mut data = HyperMatrix::from_flat(
        3,
        4,
        vec![5.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0, 9.0, -1.0, 3.0],
    )
    .unwrap();
    for mode in ExecMode::ALL {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode);
        exec.bind("scores", Value::matrix(data.clone())).unwrap();
        let out = exec.run().unwrap();
        assert_eq!(out.indices(picks).unwrap(), &[1, 0, 2], "{mode}");
    }
    for col in 0..4 {
        data.set(1, col, f64::NAN).unwrap();
    }
    for mode in ExecMode::ALL {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode);
        exec.bind("scores", Value::matrix(data.clone())).unwrap();
        let err = exec.run().unwrap_err();
        assert!(
            matches!(
                err,
                hdc_runtime::RuntimeError::Core(hdc_core::HdcError::EmptyInput(_))
            ),
            "{mode}: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// batched-epoch training
// ---------------------------------------------------------------------------

const TRAIN_SAMPLES: usize = 21;

fn build_training(
    metric: Metric,
    perf: Option<(usize, usize, usize)>,
    epochs: usize,
) -> (Program, ValueId) {
    build_training_rows(TRAIN_SAMPLES, metric, perf, epochs)
}

fn build_training_rows(
    samples: usize,
    metric: Metric,
    perf: Option<(usize, usize, usize)>,
    epochs: usize,
) -> (Program, ValueId) {
    let mut b = ProgramBuilder::new("equiv_train");
    let q = b.input_matrix("train", ElementKind::F64, samples, DIM);
    let y = b.input_indices("labels", samples);
    let c = b.input_matrix("classes", ElementKind::F64, CLASSES, DIM);
    let polarity = match metric {
        Metric::Hamming => ScorePolarity::Distance,
        Metric::Cosine => ScorePolarity::Similarity,
    };
    let trained = b.training_loop("retrain", q, y, c, epochs, polarity, |b, s| {
        let d = match metric {
            Metric::Hamming => b.hamming_distance(s, c),
            Metric::Cosine => b.cossim(s, c),
        };
        if let Some((begin, end, stride)) = perf {
            b.red_perf(d, begin, end, stride);
        }
        d
    });
    b.mark_output(trained);
    (b.finish(), trained)
}

/// Noisy prototype samples whose labels force mispredictions from the zero
/// class matrix, so every epoch performs mid-epoch class-row updates.
fn training_data() -> (Value, Value, Value) {
    let (train, labels, _) = prototype_samples(TRAIN_SAMPLES);
    (
        train,
        labels,
        Value::matrix(HyperMatrix::zeros(CLASSES, DIM)),
    )
}

/// `samples` noisy copies of bipolar class prototypes (an eighth of the
/// elements flipped, labels cycling through the classes), and the
/// prototypes themselves.
fn prototype_samples(samples: usize) -> (Value, Value, HyperMatrix<f64>) {
    let mut rng = HdcRng::seed_from_u64(0x7EA1);
    let protos: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(CLASSES, DIM, &mut rng);
    let labels: Vec<usize> = (0..samples).map(|i| i % CLASSES).collect();
    let rows: Vec<HyperVector<f64>> = labels
        .iter()
        .map(|&l| {
            let mut v = protos.row_vector(l).unwrap();
            for k in 0..DIM / 8 {
                let idx = (k * 5 + l * 11) % DIM;
                let flipped = -v.get(idx).unwrap();
                v.set(idx, flipped).unwrap();
            }
            v
        })
        .collect();
    (
        Value::matrix(HyperMatrix::from_rows(rows).unwrap()),
        Value::indices(labels),
        protos,
    )
}

fn run_training(
    program: &Program,
    trained: ValueId,
    data: &(Value, Value, Value),
    batched: bool,
) -> (HyperMatrix<f64>, ExecStats) {
    let mut exec = Executor::new(program).unwrap();
    exec.set_mode(mode(batched));
    exec.bind("train", data.0.clone()).unwrap();
    exec.bind("labels", data.1.clone()).unwrap();
    exec.bind("classes", data.2.clone()).unwrap();
    let out = exec.run().unwrap();
    (out.matrix(trained).unwrap(), exec.stats())
}

#[test]
fn batched_epoch_training_is_bit_identical_to_sequential() {
    let data = training_data();
    for metric in [Metric::Cosine, Metric::Hamming] {
        for perf in perforations() {
            for epochs in [1, 3] {
                let (program, trained) = build_training(metric, perf, epochs);
                let (batched, b_stats) = run_training(&program, trained, &data, true);
                let (sequential, s_stats) = run_training(&program, trained, &data, false);
                assert_eq!(
                    batched.as_slice(),
                    sequential.as_slice(),
                    "metric={metric:?} perf={perf:?} epochs={epochs}"
                );
                // One epoch kernel per epoch on the batched schedule; the
                // sequential oracle never touches the batched kernels.
                assert_eq!(b_stats.epoch_kernel_ops, epochs);
                assert_eq!(b_stats.batched_kernel_ops, epochs);
                assert_eq!(s_stats.epoch_kernel_ops, 0);
                assert_eq!(s_stats.batched_kernel_ops, 0);
                assert_eq!(s_stats.rescored_samples, 0);
                // Starting from a zero class matrix, the first sample with a
                // nonzero label mispredicts, so later samples re-score.
                assert!(
                    b_stats.rescored_samples > 0,
                    "mid-epoch updates must force re-scoring"
                );
                assert!(b_stats.rescored_samples <= epochs * TRAIN_SAMPLES);
                // Both schedules account every per-sample pass.
                assert_eq!(b_stats.stage_samples, epochs * TRAIN_SAMPLES);
                assert_eq!(s_stats.stage_samples, epochs * TRAIN_SAMPLES);
            }
        }
    }
}

/// The executor's `TRAIN_BLOCK_ROWS` (private): the train-row counts below
/// sit on both sides of one block boundary and past several.
const TRAIN_BLOCK: usize = 64;

/// Where a blocked-schedule case starts from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Start {
    /// Zero class matrix: every class but the first mispredicts until its
    /// row is first updated, so the first epoch patches nearly every sample.
    Zero,
    /// The class prototypes themselves: every sample is already classified
    /// correctly, nothing updates, nothing is patched.
    Converged,
    /// Gaussian class matrix and Gaussian-perturbed samples: scores and
    /// updates are non-integer, so bit-identity is not an artefact of exact
    /// integer arithmetic.
    Gaussian,
}

fn blocked_training_data(samples: usize, start: Start) -> (Value, Value, Value) {
    let (train, labels, protos) = prototype_samples(samples);
    match start {
        Start::Zero => (
            train,
            labels,
            Value::matrix(HyperMatrix::zeros(CLASSES, DIM)),
        ),
        Start::Converged => (train, labels, Value::matrix(protos)),
        Start::Gaussian => {
            let mut rng = HdcRng::seed_from_u64(0x6A55 ^ samples as u64);
            let noise: HyperMatrix<f64> =
                hdc_core::random::gaussian_hypermatrix(samples, DIM, &mut rng);
            let classes: HyperMatrix<f64> =
                hdc_core::random::gaussian_hypermatrix(CLASSES, DIM, &mut rng);
            let bipolar = train.to_dense_matrix("train").unwrap();
            let perturbed = bipolar.zip_with(&noise, |x, n| x + 0.75 * n).unwrap();
            (Value::matrix(perturbed), labels, Value::matrix(classes))
        }
    }
}

#[test]
fn blocked_training_matches_oracle_across_block_boundaries() {
    let row_counts = [
        1,
        TRAIN_BLOCK - 1,
        TRAIN_BLOCK,
        TRAIN_BLOCK + 1,
        3 * TRAIN_BLOCK + 7,
    ];
    for samples in row_counts {
        for start in [Start::Zero, Start::Converged, Start::Gaussian] {
            let data = blocked_training_data(samples, start);
            for metric in [Metric::Cosine, Metric::Hamming] {
                for perf in perforations() {
                    for epochs in [1, 3] {
                        let case = format!(
                            "samples={samples} start={start:?} metric={metric:?} perf={perf:?} \
                             epochs={epochs}"
                        );
                        let (program, trained) = build_training_rows(samples, metric, perf, epochs);
                        let (oracle, _) = run_training(&program, trained, &data, false);
                        for shards in [1, 2, 3, 7] {
                            let mut exec = Executor::new(&program).unwrap();
                            exec.set_class_shards(Some(shards));
                            exec.bind("train", data.0.clone()).unwrap();
                            exec.bind("labels", data.1.clone()).unwrap();
                            exec.bind("classes", data.2.clone()).unwrap();
                            let out = exec.run().unwrap();
                            assert_eq!(
                                out.matrix(trained).unwrap().as_slice(),
                                oracle.as_slice(),
                                "{case} shards={shards}"
                            );
                            let stats = exec.stats();
                            let passes = epochs * samples;
                            // However many blocks an epoch is walked in, it
                            // counts as one epoch kernel.
                            assert_eq!(stats.epoch_kernel_ops, epochs, "{case}");
                            assert_eq!(stats.batched_kernel_ops, epochs, "{case}");
                            assert_eq!(stats.stage_samples, passes, "{case}");
                            assert_eq!(stats.reference_kernel_ops, 0, "{case}");
                            assert_eq!(
                                stats.class_shards,
                                if shards > 1 { epochs * shards } else { 0 },
                                "{case}"
                            );
                            // Untouched score rows select through the merge
                            // tree, patched ones directly.
                            assert_eq!(
                                stats.shard_merge_ops,
                                (passes - stats.rescored_samples) * (shards - 1),
                                "{case} shards={shards}"
                            );
                            // A patched sample patches one to CLASSES scores;
                            // the first sample of a block never is.
                            assert!(stats.rescored_rows >= stats.rescored_samples, "{case}");
                            assert!(
                                stats.rescored_rows <= stats.rescored_samples * CLASSES,
                                "{case}"
                            );
                            let blocks = epochs * samples.div_ceil(TRAIN_BLOCK);
                            assert!(stats.rescored_samples <= passes - blocks, "{case}");
                            match start {
                                Start::Converged => {
                                    assert_eq!(stats.rescored_samples, 0, "{case}");
                                    assert_eq!(stats.rescored_rows, 0, "{case}");
                                }
                                // From zero, sample 1 (label 1, predicted 0)
                                // mispredicts, so sample 2 is patched.
                                Start::Zero if samples > 2 => {
                                    assert!(stats.rescored_samples > 0, "{case}");
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn converged_training_leaves_the_class_matrix_untouched() {
    let data = blocked_training_data(TRAIN_BLOCK + 1, Start::Converged);
    let (program, trained) = build_training_rows(TRAIN_BLOCK + 1, Metric::Cosine, None, 3);
    let (batched, _) = run_training(&program, trained, &data, true);
    assert_eq!(batched, data.2.to_dense_matrix("classes").unwrap());
}

// ---------------------------------------------------------------------------
// instruction-level dense all-pairs similarity
// ---------------------------------------------------------------------------

#[test]
fn dense_all_pairs_scores_are_bit_identical_to_sequential() {
    // Query and library counts leave every panel tail: 8k+1..8k+7 rows on
    // the packed side, 4k+1..4k+3 on the streamed side.
    for (queries, library) in [(9, 5), (10, 6), (11, 7), (13, 9), (23, 10), (3, 11), (1, 1)] {
        for metric in [Metric::Cosine, Metric::Hamming] {
            for perf in perforations() {
                let mut b = ProgramBuilder::new("dense_all_pairs");
                let q = b.input_matrix("queries", ElementKind::F64, queries, DIM);
                let lib = b.input_matrix("library", ElementKind::F64, library, DIM);
                let scores = match metric {
                    Metric::Hamming => b.hamming_distance(q, lib),
                    Metric::Cosine => b.cossim(q, lib),
                };
                if let Some((begin, end, stride)) = perf {
                    b.red_perf(scores, begin, end, stride);
                }
                b.mark_output(scores);
                let program = b.finish();

                let mut rng = HdcRng::seed_from_u64(0xA11 ^ (queries * 31 + library) as u64);
                // Hamming needs coinciding elements to say anything: bipolar
                // rows; cosine gets non-integer ones.
                let (qm, lm): (HyperMatrix<f64>, HyperMatrix<f64>) = match metric {
                    Metric::Hamming => (
                        hdc_core::random::bipolar_hypermatrix(queries, DIM, &mut rng),
                        hdc_core::random::bipolar_hypermatrix(library, DIM, &mut rng),
                    ),
                    Metric::Cosine => (
                        hdc_core::random::gaussian_hypermatrix(queries, DIM, &mut rng),
                        hdc_core::random::gaussian_hypermatrix(library, DIM, &mut rng),
                    ),
                };
                let run = |batched: bool, shards: Option<usize>| {
                    let mut exec = Executor::new(&program).unwrap();
                    exec.set_mode(mode(batched));
                    exec.set_class_shards(shards);
                    exec.bind("queries", Value::matrix(qm.clone())).unwrap();
                    exec.bind("library", Value::matrix(lm.clone())).unwrap();
                    let out = exec.run().unwrap();
                    (out.matrix(scores).unwrap(), exec.stats())
                };
                let (sequential, s_stats) = run(false, None);
                assert_eq!(s_stats.batched_kernel_ops, 0, "the oracle stays per-pair");
                assert_eq!(
                    s_stats.reference_kernel_ops, 0,
                    "only counted in batched mode"
                );
                for shards in [1, 2, 3] {
                    let (batched, b_stats) = run(true, Some(shards));
                    assert_eq!(
                        batched.as_slice(),
                        sequential.as_slice(),
                        "{queries}x{library} metric={metric:?} perf={perf:?} shards={shards}"
                    );
                    assert_eq!(b_stats.batched_kernel_ops, 1, "one batch kernel call");
                    assert_eq!(b_stats.reference_kernel_ops, 0);
                    assert_eq!(b_stats.tensor_bytes_copied, 0, "dense operands are shared");
                    let effective = shards.min(library);
                    assert_eq!(
                        b_stats.class_shards,
                        if effective > 1 { effective } else { 0 }
                    );
                }
            }
        }
    }
}

#[test]
fn per_sample_fallbacks_are_counted_as_reference_kernel_ops() {
    // Mixed packed/dense stage operands are the one shape the batch kernels
    // leave to the per-sample loop; every sample then calls a reference
    // `*_matrix` kernel, and batched mode says so.
    let mut b = ProgramBuilder::new("mixed_operands");
    let q = b.input_matrix("queries", ElementKind::Bit, QUERIES, DIM);
    let c = b.input_matrix("classes", ElementKind::F64, CLASSES, DIM);
    let preds = b.inference_loop("infer", q, c, ScorePolarity::Distance, |b, s| {
        b.hamming_distance(s, c)
    });
    b.mark_output(preds);
    let program = b.finish();
    let (queries, _) = inference_data(true);
    let (_, classes) = inference_data(false);
    let (batched, b_stats) = run_inference(&program, preds, &queries, &classes, true);
    let (sequential, s_stats) = run_inference(&program, preds, &queries, &classes, false);
    assert_eq!(batched, sequential);
    assert_eq!(b_stats.batched_kernel_ops, 0);
    assert_eq!(b_stats.reference_kernel_ops, QUERIES);
    assert_eq!(s_stats.reference_kernel_ops, 0);
}

#[test]
fn repeated_runs_report_identical_stats_and_outputs() {
    // Regression: `run` used to accumulate ExecStats across calls and leave
    // the previous run's trained class matrix in the store, so a second run
    // reported doubled counters and trained on top of mutated state.
    let data = training_data();
    for batched in [true, false] {
        let (program, trained) = build_training(Metric::Cosine, None, 2);
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(batched));
        exec.bind("train", data.0.clone()).unwrap();
        exec.bind("labels", data.1.clone()).unwrap();
        exec.bind("classes", data.2.clone()).unwrap();
        let first = exec.run().unwrap();
        let first_stats = exec.stats();
        let first_trace = exec.stage_trace().to_vec();
        let second = exec.run().unwrap();
        let second_stats = exec.stats();
        assert_eq!(
            first.matrix(trained).unwrap().as_slice(),
            second.matrix(trained).unwrap().as_slice(),
            "batched={batched}: identical runs must produce identical outputs"
        );
        assert_eq!(
            first_stats, second_stats,
            "batched={batched}: identical runs must report identical stats"
        );
        assert_eq!(exec.stage_trace(), first_trace.as_slice());

        // Rebinding between runs takes effect (the restore must not clobber
        // it): binding a nonzero class matrix matches a fresh executor.
        let mut rng = HdcRng::seed_from_u64(0xB1D);
        let warm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(CLASSES, DIM, &mut rng);
        exec.bind("classes", Value::matrix(warm.clone())).unwrap();
        let rebound = exec.run().unwrap();
        let mut fresh = Executor::new(&program).unwrap();
        fresh.set_mode(mode(batched));
        fresh.bind("train", data.0.clone()).unwrap();
        fresh.bind("labels", data.1.clone()).unwrap();
        fresh.bind("classes", Value::matrix(warm)).unwrap();
        let expect = fresh.run().unwrap();
        assert_eq!(
            rebound.matrix(trained).unwrap().as_slice(),
            expect.matrix(trained).unwrap().as_slice()
        );
    }
}

// ---------------------------------------------------------------------------
// segmented-reduction clustering update
// ---------------------------------------------------------------------------

#[test]
fn segmented_accumulate_matches_sequential() {
    const N: usize = 13;
    const K: usize = 3;
    const COLS: usize = 40;
    // The clustering update shape, in both variants: dense rows gathered
    // directly, and binarized rows gathered through a type_cast barrier.
    for binarized in [false, true] {
        let mut b = ProgramBuilder::new("seg_acc");
        let elem = if binarized {
            ElementKind::Bit
        } else {
            ElementKind::F64
        };
        let m = b.input_matrix("m", elem, N, COLS);
        let assign_in = b.input_indices("assign", N);
        let acc = b.input_matrix("acc", ElementKind::F64, K, COLS);
        b.mark_output(acc);
        b.parallel_for("update", N, |b, idx| {
            let row = b.get_matrix_row_dyn(m, idx);
            let row = if binarized {
                b.type_cast(row, ElementKind::F64)
            } else {
                row
            };
            let cluster = b.get_element_dyn(assign_in, idx);
            b.accumulate_row(acc, row, cluster);
        });
        let program = b.finish();
        let mut rng = HdcRng::seed_from_u64(0x5E6);
        let dense: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(N, COLS, &mut rng);
        let rows_value = if binarized {
            Value::bit_matrix(BitMatrix::from_dense(&dense))
        } else {
            Value::matrix(dense)
        };
        let assignments: Vec<usize> = (0..N).map(|i| (i * 2) % K).collect();
        let base: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(K, COLS, &mut rng);
        let run = |batched: bool| {
            let mut exec = Executor::new(&program).unwrap();
            exec.set_mode(mode(batched));
            exec.bind("m", rows_value.clone()).unwrap();
            exec.bind("assign", Value::indices(assignments.clone()))
                .unwrap();
            exec.bind("acc", Value::matrix(base.clone())).unwrap();
            let out = exec.run().unwrap();
            (out.matrix(acc).unwrap(), exec.stats())
        };
        let (batched, b_stats) = run(true);
        let (sequential, s_stats) = run(false);
        assert_eq!(
            batched.as_slice(),
            sequential.as_slice(),
            "binarized={binarized}"
        );
        assert_eq!(b_stats.epoch_kernel_ops, 1, "one segmented reduction");
        assert_eq!(b_stats.batched_kernel_ops, 1);
        assert_eq!(s_stats.epoch_kernel_ops, 0);
        assert_eq!(s_stats.batched_kernel_ops, 0);
    }
}

#[test]
fn binarized_pipeline_equivalence_through_passes() {
    // Compile a sign-annotated inference program through automatic
    // binarization, then check batched == sequential on the binarized form.
    let mut b = ProgramBuilder::new("binarize_equiv");
    let q = b.input_matrix("queries", ElementKind::F64, QUERIES, DIM);
    let c = b.input_matrix("classes", ElementKind::F64, CLASSES, DIM);
    let qs = b.sign(q);
    let cs = b.sign(c);
    let preds = b.inference_loop("infer", qs, cs, ScorePolarity::Distance, |b, s| {
        b.hamming_distance(s, cs)
    });
    b.mark_output(preds);
    let mut program = b.finish();
    hdc_passes::binarize(&mut program);

    let mut rng = HdcRng::seed_from_u64(0xB1AB);
    let qm: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(QUERIES, DIM, &mut rng);
    let cm: HyperMatrix<f64> = hdc_core::random::gaussian_hypermatrix(CLASSES, DIM, &mut rng);
    let run = |batched: bool| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_mode(mode(batched));
        exec.bind("queries", Value::matrix(qm.clone())).unwrap();
        exec.bind("classes", Value::matrix(cm.clone())).unwrap();
        let out = exec.run().unwrap();
        out.indices(preds).unwrap().to_vec()
    };
    assert_eq!(run(true), run(false));
}

// ---------------------------------------------------------------------------
// class-memory sharding: the second parallel axis must stay bit-identical
// to the sequential per-sample oracle for every forced shard count, and the
// shard/merge counters must account exactly.
// ---------------------------------------------------------------------------

#[test]
fn sharded_inference_is_bit_identical_to_sequential_oracle() {
    for binarized in [false, true] {
        for metric in [Metric::Hamming, Metric::Cosine] {
            for perf in perforations() {
                let (program, preds) = build_inference(binarized, metric, perf);
                let (queries, classes) = inference_data(binarized);
                let (sequential, s_stats) =
                    run_inference(&program, preds, &queries, &classes, false);
                assert_eq!(s_stats.class_shards, 0, "oracle never shards");
                assert_eq!(s_stats.shard_merge_ops, 0);
                for shards in [1, 2, 3, 7, 16] {
                    let mut exec = Executor::new(&program).unwrap();
                    exec.set_class_shards(Some(shards));
                    exec.bind("queries", queries.clone()).unwrap();
                    exec.bind("classes", classes.clone()).unwrap();
                    let out = exec.run().unwrap();
                    assert_eq!(
                        out.indices(preds).unwrap(),
                        sequential.as_slice(),
                        "binarized={binarized} metric={metric:?} perf={perf:?} shards={shards}"
                    );
                    let stats = exec.stats();
                    // The plan clamps to the class-row count; a single
                    // effective shard runs the unsharded path with zero
                    // shard accounting.
                    let effective = shards.min(CLASSES);
                    if effective > 1 {
                        assert_eq!(stats.class_shards, effective, "shards={shards}");
                        assert_eq!(
                            stats.shard_merge_ops,
                            QUERIES * (effective - 1),
                            "one reduction tree per query row"
                        );
                    } else {
                        assert_eq!(stats.class_shards, 0);
                        assert_eq!(stats.shard_merge_ops, 0);
                    }
                    // Sharding changes scheduling only; the batched-call
                    // accounting is untouched.
                    assert_eq!(stats.batched_kernel_ops, 1);
                    assert_eq!(stats.stage_samples, QUERIES);
                }
            }
        }
    }
}

/// The batched path under `rayon::set_num_threads` {1, 2, 4, 8} with the
/// auto shard plan: labels bit-identical to the sequential oracle at every
/// worker count, and `class_shards` exactly what the auto plan picks for
/// that count. The override is process-global; no other test here depends
/// on it, because their `CLASSES`-row class memories stay one shard at any
/// worker count.
#[test]
fn thread_sweep_with_auto_shard_plan_matches_sequential_oracle() {
    const SWEEP_CLASSES: usize = 8 * hdc_core::shard::MIN_ROWS_PER_SHARD;
    for (binarized, metric) in [(false, Metric::Cosine), (true, Metric::Hamming)] {
        for perf in perforations() {
            let (program, preds) = build_inference_classes(SWEEP_CLASSES, binarized, metric, perf);
            let (queries, classes) = inference_data_classes(SWEEP_CLASSES, binarized);
            let (sequential, _) = run_inference(&program, preds, &queries, &classes, false);
            for threads in [1, 2, 4, 8] {
                rayon::set_num_threads(threads);
                let case = format!("binarized={binarized} perf={perf:?} threads={threads}");
                let mut exec = Executor::new(&program).unwrap();
                exec.set_class_shards(None);
                exec.bind("queries", queries.clone()).unwrap();
                exec.bind("classes", classes.clone()).unwrap();
                let out = exec.run().unwrap();
                assert_eq!(out.indices(preds).unwrap(), sequential.as_slice(), "{case}");
                let auto = hdc_core::default_shard_count(QUERIES, SWEEP_CLASSES, threads);
                assert_eq!(auto, threads, "{case}: the sweep must reach every count");
                let stats = exec.stats();
                assert_eq!(
                    stats.class_shards,
                    if auto > 1 { auto } else { 0 },
                    "{case}"
                );
                assert_eq!(stats.shard_merge_ops, QUERIES * (auto - 1), "{case}");
            }
        }
    }
    rayon::set_num_threads(0);
}

#[test]
fn sharded_training_is_bit_identical_to_sequential_oracle() {
    let data = training_data();
    for metric in [Metric::Cosine, Metric::Hamming] {
        for perf in perforations() {
            let (program, trained) = build_training(metric, perf, 2);
            let (sequential, _) = run_training(&program, trained, &data, false);
            for shards in [2, 3, 7] {
                let mut exec = Executor::new(&program).unwrap();
                exec.set_class_shards(Some(shards));
                exec.bind("train", data.0.clone()).unwrap();
                exec.bind("labels", data.1.clone()).unwrap();
                exec.bind("classes", data.2.clone()).unwrap();
                let out = exec.run().unwrap();
                assert_eq!(
                    out.matrix(trained).unwrap().as_slice(),
                    sequential.as_slice(),
                    "metric={metric:?} perf={perf:?} shards={shards}"
                );
                let stats = exec.stats();
                assert_eq!(stats.epoch_kernel_ops, 2);
                assert_eq!(
                    stats.class_shards,
                    2 * shards,
                    "one sharded epoch kernel per epoch"
                );
                // Frozen-score selections merge through the tree; stale
                // re-scores use the per-sample oracle directly, so merges
                // are bounded by the non-rescored sample count.
                let frozen_selections = 2 * TRAIN_SAMPLES - stats.rescored_samples;
                assert_eq!(stats.shard_merge_ops, frozen_selections * (shards - 1));
            }
        }
    }
}

#[test]
fn sharded_top_k_and_all_pairs_match_unsharded() {
    // An all-pairs bit similarity feeding arg_top_k: both the scoring and
    // the selection run sharded, and must agree with the unsharded path.
    const LIBRARY: usize = 23;
    let mut b = ProgramBuilder::new("sharded_topk");
    let q = b.input_matrix("queries", ElementKind::Bit, QUERIES, DIM);
    let lib = b.input_matrix("library", ElementKind::Bit, LIBRARY, DIM);
    let scores = b.cossim(q, lib);
    let picks = b.arg_top_k(scores, 4);
    b.mark_output(picks);
    let program = b.finish();

    let mut rng = HdcRng::seed_from_u64(0x70F2);
    let qm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(QUERIES, DIM, &mut rng);
    let lm: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(LIBRARY, DIM, &mut rng);
    let run = |shards: Option<usize>| {
        let mut exec = Executor::new(&program).unwrap();
        exec.set_class_shards(shards);
        exec.bind("queries", Value::bit_matrix(BitMatrix::from_dense(&qm)))
            .unwrap();
        exec.bind("library", Value::bit_matrix(BitMatrix::from_dense(&lm)))
            .unwrap();
        let out = exec.run().unwrap();
        (out.indices(picks).unwrap().to_vec(), exec.stats())
    };
    let (baseline, base_stats) = run(Some(1));
    assert_eq!(base_stats.class_shards, 0);
    for shards in [2, 3, 7, 16] {
        let (sharded, stats) = run(Some(shards));
        assert_eq!(sharded, baseline, "shards={shards}");
        let effective = shards.min(LIBRARY);
        // Both the all-pairs score kernel and the top-k selection shard.
        assert_eq!(stats.class_shards, 2 * effective);
        assert_eq!(stats.shard_merge_ops, QUERIES * (effective - 1));
    }
}
