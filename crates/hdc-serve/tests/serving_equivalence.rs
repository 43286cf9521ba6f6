//! Serving equivalence battery: a coalesced window of N mixed-client
//! queries must be **bit-identical** to N single-query sequential-oracle
//! runs — for every app model shape, dense and binarized pipelines, and
//! shard counts {1, auto} — including when the queries arrive interleaved
//! from concurrent clients through the live [`Service`].
//!
//! Two layers of checks:
//!
//! * `infer_window` (the model layer, no threads): window output ==
//!   per-row oracle output == the app's own committed inference results.
//! * `Service::submit` under concurrent interleaved submitters: every
//!   response == the oracle answer for that payload regardless of
//!   submission order or which window a request landed in.

use hdc_apps::{ClassificationApp, ClusteringApp, ExecMode, MatchingApp};
use hdc_core::batch::SimilarityMetric;
use hdc_core::matmul::SIGN_ENCODE_MAX_ROWS;
use hdc_core::prelude::{HdcRng, HyperMatrix, SeedableRng};
use hdc_core::random::{bipolar_hypermatrix, gaussian_hypermatrix};
use hdc_core::similarity::cosine_similarity_matrix;
use hdc_core::Perforation;
use hdc_datasets::synthetic::{hyperoms_like, isolet_like, HyperOmsParams, IsoletParams};
use hdc_ir::stage::ScorePolarity;
use hdc_passes::CompileOptions;
use hdc_runtime::{replay_epoch, Value};
use hdc_serve::{
    ModelRegistry, Prediction, ServableModel, ServeError, Service, ServiceConfig, WindowConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// One model under test plus its query payloads and app-committed answers.
struct Case {
    model: Arc<ServableModel>,
    queries: Vec<Vec<f64>>,
    /// The app's own per-query predictions, flattened (labels, or top-k
    /// runs of `outputs_per_query` indices).
    expected_flat: Vec<usize>,
}

fn flatten(predictions: &[Prediction]) -> Vec<usize> {
    predictions
        .iter()
        .flat_map(|p| match p {
            Prediction::Label(l) => vec![*l],
            Prediction::TopK(ks) => ks.clone(),
        })
        .collect()
}

fn classifier_case(options: &CompileOptions) -> Case {
    let dataset = isolet_like(&IsoletParams {
        classes: 4,
        features: 32,
        train_per_class: 6,
        test_per_class: 5,
        noise: 1.2,
        seed: 11,
    });
    let queries: Vec<Vec<f64>> = (0..dataset.test.len())
        .map(|i| dataset.test.features.row(i).unwrap().to_vec())
        .collect();
    let app = ClassificationApp::with_options(dataset, 256, 2, options).unwrap();
    let expected_flat = app.run(ExecMode::Batched).unwrap().predictions;
    Case {
        model: Arc::new(ServableModel::classifier("cls", &app).unwrap()),
        queries,
        expected_flat,
    }
}

fn cluster_case(options: &CompileOptions) -> Case {
    let dataset = isolet_like(&IsoletParams {
        classes: 3,
        features: 24,
        train_per_class: 8,
        test_per_class: 2,
        noise: 0.8,
        seed: 23,
    });
    // Assign the training samples: the app's own final assignments are the
    // committed ground truth for them.
    let queries: Vec<Vec<f64>> = (0..dataset.train.len())
        .map(|i| dataset.train.features.row(i).unwrap().to_vec())
        .collect();
    let app = ClusteringApp::with_options(dataset, 128, 2, options).unwrap();
    let expected_flat = app.run(ExecMode::Batched).unwrap().assignments;
    Case {
        model: Arc::new(ServableModel::cluster_assigner("clu", &app).unwrap()),
        queries,
        expected_flat,
    }
}

fn matcher_case(options: &CompileOptions) -> Case {
    let dataset = hyperoms_like(&HyperOmsParams {
        library_size: 16,
        bins: 80,
        peaks: 8,
        queries_per_entry: 2,
        ..HyperOmsParams::default()
    });
    let queries: Vec<Vec<f64>> = (0..dataset.test.len())
        .map(|i| dataset.test.features.row(i).unwrap().to_vec())
        .collect();
    let app = MatchingApp::with_options(dataset, 256, 3, options).unwrap();
    let expected_flat = app.run(ExecMode::Batched).unwrap().candidates;
    Case {
        model: Arc::new(ServableModel::matcher("match", &app).unwrap()),
        queries,
        expected_flat,
    }
}

fn all_cases(options: &CompileOptions) -> Vec<(&'static str, Case)> {
    vec![
        ("classifier", classifier_case(options)),
        ("cluster-assigner", cluster_case(options)),
        ("matcher", matcher_case(options)),
    ]
}

/// Window output must equal the per-row oracle AND the app's committed
/// predictions, for each shard count.
fn check_window_vs_oracle(label: &str, case: &Case, shards: Option<usize>) {
    let window = case
        .model
        .infer_window(&case.queries, true, shards)
        .unwrap();
    for (i, row) in case.queries.iter().enumerate() {
        let oracle = case.model.oracle_infer(row).unwrap();
        assert_eq!(
            window.predictions[i], oracle,
            "{label} shards={shards:?}: window row {i} != oracle"
        );
    }
    assert_eq!(
        flatten(&window.predictions),
        case.expected_flat,
        "{label} shards={shards:?}: serving path != app inference"
    );
}

#[test]
fn coalesced_window_matches_oracle_binarized() {
    for (label, case) in all_cases(&CompileOptions::default()) {
        assert!(
            case.model.binarized(),
            "{label}: default pipeline binarizes"
        );
        for shards in [Some(1), None] {
            check_window_vs_oracle(label, &case, shards);
        }
    }
}

#[test]
fn coalesced_window_matches_oracle_dense() {
    for (label, case) in all_cases(&CompileOptions::baseline()) {
        assert!(!case.model.binarized(), "{label}: baseline stays dense");
        for shards in [Some(1), None] {
            check_window_vs_oracle(label, &case, shards);
        }
    }
}

/// Every prefix batch size (1..=N) must agree with the oracle — the
/// coalescer can flush a window of any size up to `max_batch`, and each
/// size runs its own program, built and compiled at that size. Covers all
/// three model kinds on both pipelines; the matcher's `rows x k` top-k
/// output is the shape that scales by more than the row count.
#[test]
fn every_window_size_matches_oracle() {
    for options in [CompileOptions::default(), CompileOptions::baseline()] {
        for (label, case) in all_cases(&options) {
            let oracle: Vec<Prediction> = case
                .queries
                .iter()
                .map(|row| case.model.oracle_infer(row).unwrap())
                .collect();
            for n in 1..=case.queries.len() {
                let window = case
                    .model
                    .infer_window(&case.queries[..n], true, None)
                    .unwrap();
                assert_eq!(window.predictions, oracle[..n], "{label}: window size {n}");
            }
        }
    }
}

/// `program_for` builds each size once: a second call hands back the
/// cached `Arc`, distinct sizes get distinct programs, and a zero-row
/// batch is a typed error.
#[test]
fn program_for_caches_one_program_per_size() {
    for (label, case) in all_cases(&CompileOptions::default()) {
        for rows in [1, 3] {
            let first = case.model.program_for(rows).unwrap();
            let again = case.model.program_for(rows).unwrap();
            assert!(Arc::ptr_eq(&first, &again), "{label}: size {rows} rebuilt");
        }
        let one = case.model.program_for(1).unwrap();
        let three = case.model.program_for(3).unwrap();
        assert!(!Arc::ptr_eq(&one, &three), "{label}: sizes share a program");
        assert!(matches!(
            case.model.program_for(0),
            Err(ServeError::ModelBuild(_))
        ));
    }
}

/// Interleaved concurrent submission through the live service: C client
/// threads submit their slices of the query stream in round-robin
/// interleaving; each response must equal the oracle for its payload, no
/// matter how the coalescer grouped them.
fn check_interleaved_service(label: &str, case: &Case, shards: Option<usize>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::clone(&case.model));
    let service = Service::start(
        registry,
        ServiceConfig {
            window: WindowConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(300),
            },
            class_shards: shards,
            batched: true,
        },
    );
    let oracle: Vec<Prediction> = case
        .queries
        .iter()
        .map(|row| case.model.oracle_infer(row).unwrap())
        .collect();
    // Several rounds so windows mix requests from different clients in
    // different orders.
    for round in 0..3 {
        let clients = 3;
        std::thread::scope(|scope| {
            for client in 0..clients {
                let service = &service;
                let case = &case;
                let oracle = &oracle;
                scope.spawn(move || {
                    // Round-robin slice, rotated per round so submission
                    // order varies between rounds.
                    let mut i = (client + round) % clients;
                    while i < case.queries.len() {
                        let got = service.submit("m", case.queries[i].clone()).wait().unwrap();
                        assert_eq!(
                            got, oracle[i],
                            "{label} shards={shards:?} round {round}: query {i}"
                        );
                        i += clients;
                    }
                });
            }
        });
    }
    let stats = service.stats();
    assert_eq!(stats.failed, 0, "{label}: no request may fail");
    assert_eq!(
        stats.completed,
        3 * case.queries.len() as u64,
        "{label}: every submission answered"
    );
    service.shutdown();
}

#[test]
fn interleaved_submission_matches_oracle_binarized() {
    for (label, case) in all_cases(&CompileOptions::default()) {
        for shards in [Some(1), None] {
            check_interleaved_service(label, &case, shards);
        }
    }
}

#[test]
fn interleaved_submission_matches_oracle_dense() {
    for (label, case) in all_cases(&CompileOptions::baseline()) {
        for shards in [Some(1), None] {
            check_interleaved_service(label, &case, shards);
        }
    }
}

/// Sequential dispatch (batched stages off) must also be bit-identical —
/// the batched/sequential equivalence the rest of the repo pins extends
/// through the serving layer.
#[test]
fn sequential_dispatch_matches_batched() {
    let case = classifier_case(&CompileOptions::default());
    let batched = case.model.infer_window(&case.queries, true, None).unwrap();
    let sequential = case.model.infer_window(&case.queries, false, None).unwrap();
    assert_eq!(batched.predictions, sequential.predictions);
}

/// Whether a model binds its projection as sign bits (a ±1 projection).
fn has_sign_bits(model: &ServableModel) -> bool {
    matches!(model.projection(), Value::BitMatrix(_))
}

/// Every query answers the same in a window of 1..=`SIGN_ENCODE_MAX_ROWS`
/// rows as inside a window longer than one 8-row panel, and as the
/// oracle. When the model has sign bits, short windows encode on the
/// sign-bit leg (`sign_encoded_rows` counts every row) and long ones on
/// the fused leg (`fused_encoded_rows`); otherwise neither counts.
fn check_short_windows_match_long(label: &str, model: &ServableModel, queries: &[Vec<f64>]) {
    assert!(queries.len() > 8, "{label}: a long window needs > 8 rows");
    let has_signs = has_sign_bits(model);
    let long = model.infer_window(queries, true, None).unwrap();
    assert_eq!(long.stats.sign_encoded_rows, 0, "{label}: long window");
    let fused = if has_signs { queries.len() } else { 0 };
    assert_eq!(long.stats.fused_encoded_rows, fused, "{label}: long window");
    for (row, expected) in queries.iter().zip(&long.predictions) {
        assert_eq!(
            &model.oracle_infer(row).unwrap(),
            expected,
            "{label}: oracle"
        );
    }
    for n in 1..=SIGN_ENCODE_MAX_ROWS {
        for (w, window) in queries.chunks(n).enumerate() {
            let short = model.infer_window(window, true, None).unwrap();
            let signed = if has_signs { window.len() } else { 0 };
            assert_eq!(short.stats.sign_encoded_rows, signed, "{label}: size {n}");
            assert_eq!(short.stats.fused_encoded_rows, 0, "{label}: size {n}");
            let expected = &long.predictions[w * n..w * n + window.len()];
            assert_eq!(
                short.predictions, expected,
                "{label}: window {w} of size {n}"
            );
        }
    }
}

#[test]
fn short_windows_on_sign_bits_match_long_windows_and_oracle() {
    for options in [CompileOptions::default(), CompileOptions::baseline()] {
        for (label, case) in all_cases(&options) {
            assert!(
                has_sign_bits(&case.model),
                "{label}: a ±1 projection has sign bits"
            );
            check_short_windows_match_long(label, &case.model, &case.queries);
        }
    }
}

/// Windows from one full panel up, around the fused leg's 16-row tiles
/// and 64-row blocks, answer every row as a 1-row window and the oracle
/// do, for every model kind and both compile configurations.
#[test]
fn long_windows_on_the_fused_leg_match_one_row_windows_and_oracle() {
    for options in [CompileOptions::default(), CompileOptions::baseline()] {
        for (label, case) in all_cases(&options) {
            let singles: Vec<Prediction> = case
                .queries
                .iter()
                .map(|row| {
                    let one = case
                        .model
                        .infer_window(std::slice::from_ref(row), true, None);
                    let one = one.unwrap().predictions.remove(0);
                    assert_eq!(case.model.oracle_infer(row).unwrap(), one, "{label}");
                    one
                })
                .collect();
            for n in [8, 9, 15, 16, 17, 63, 64] {
                let picks: Vec<usize> = (0..n).map(|i| (i * 5 + n) % case.queries.len()).collect();
                let rows: Vec<Vec<f64>> = picks.iter().map(|&i| case.queries[i].clone()).collect();
                let window = case.model.infer_window(&rows, true, None).unwrap();
                assert_eq!(window.stats.fused_encoded_rows, n, "{label}: size {n}");
                assert_eq!(window.stats.sign_encoded_rows, 0, "{label}: size {n}");
                for (row, (&i, answer)) in picks.iter().zip(&window.predictions).enumerate() {
                    assert_eq!(answer, &singles[i], "{label}: size {n}, row {row}");
                }
            }
        }
    }
}

/// A projection that is not ±1 has no sign bits: every window encodes
/// against the `f64` matrix, on neither sign leg, and still agrees with
/// the oracle.
#[test]
fn gaussian_projection_builds_no_sign_bits_and_still_matches() {
    for options in [CompileOptions::default(), CompileOptions::baseline()] {
        let case = classifier_case(&options);
        let (dim, features) = match case.model.projection() {
            Value::BitMatrix(b) => (b.rows(), b.cols()),
            other => panic!("sign bits expected, got {}", other.kind_name()),
        };
        let mut rng = HdcRng::seed_from_u64(0x6A55);
        let gaussian: HyperMatrix<f64> = gaussian_hypermatrix(dim, features, &mut rng);
        let memory = case.model.class_memory().unwrap().clone();
        let model = ServableModel::classifier_from_artifacts(
            "gauss",
            features,
            Value::matrix(gaussian),
            memory,
            None,
        )
        .unwrap();
        assert!(matches!(model.projection(), Value::Matrix(_)));
        check_short_windows_match_long("gaussian classifier", &model, &case.queries);
        let rows: Vec<Vec<f64>> = case.queries.iter().cycle().take(64).cloned().collect();
        let full = model.infer_window(&rows, true, None).unwrap();
        assert_eq!(full.stats.sign_encoded_rows, 0);
        assert_eq!(full.stats.fused_encoded_rows, 0);
    }
}

/// Each encode leg is observable: a one-row window (and the one-row
/// oracle) encodes its row on the sign-bit leg, a 64-row window on the
/// fused leg. A silent fallback to the `f64` kernel, or to the per-sample
/// path, fails here.
#[test]
fn one_row_windows_take_the_sign_leg_and_64_row_windows_do_not() {
    let case = classifier_case(&CompileOptions::default());
    let one = case
        .model
        .infer_window(&case.queries[..1], true, None)
        .unwrap();
    assert_eq!(one.stats.sign_encoded_rows, 1);
    assert_eq!(one.stats.fused_encoded_rows, 0);
    assert_eq!(
        one.stats.batched_kernel_ops, 2,
        "encode and score stay batched"
    );
    let oracle = case
        .model
        .infer_window(&case.queries[..1], false, None)
        .unwrap();
    assert_eq!(oracle.stats.sign_encoded_rows, 1);
    assert_eq!(oracle.stats.fused_encoded_rows, 0);
    let rows: Vec<Vec<f64>> = case.queries.iter().cycle().take(64).cloned().collect();
    let full = case.model.infer_window(&rows, true, None).unwrap();
    assert_eq!(full.stats.sign_encoded_rows, 0);
    assert_eq!(full.stats.fused_encoded_rows, 64);
    assert_eq!(full.stats.batched_kernel_ops, 2);
    assert_eq!(full.predictions[..1], one.predictions[..]);
}

/// The work-size shard rule at two worker threads, on a 16-class model:
/// a one-row window and the one-row feedback replay
/// [`OnlineTrainer::feed_one`](hdc_serve::OnlineTrainer::feed_one) makes
/// score on one shard (no merge), a 64-row window still splits the class
/// memory in two, and every answer equals the sequential oracle.
#[test]
fn one_row_calls_score_on_one_shard_at_two_threads() {
    let dataset = isolet_like(&IsoletParams {
        classes: 16,
        features: 32,
        train_per_class: 4,
        test_per_class: 4,
        noise: 1.2,
        seed: 11,
    });
    let queries: Vec<Vec<f64>> = dataset
        .test
        .features
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();
    assert_eq!(queries.len(), 64);
    let app = ClassificationApp::new(dataset, 256, 1).unwrap();
    let model = ServableModel::classifier("wide", &app).unwrap();
    let (classes, _) = model
        .train_state()
        .expect("a trained classifier keeps its accumulator")
        .dense_matrix("classes")
        .unwrap();
    let oracle: Vec<Prediction> = queries
        .iter()
        .map(|row| model.oracle_infer(row).unwrap())
        .collect();

    rayon::set_num_threads(2);
    let one = model.infer_window(&queries[..1], true, None).unwrap();
    let full = model.infer_window(&queries, true, None).unwrap();

    // The one-row feedback replay, against the per-pair reference scores
    // and the perceptron update spelled out.
    let mut rng = HdcRng::seed_from_u64(0x5AD);
    let sample: HyperMatrix<f64> = bipolar_hypermatrix(1, classes.cols(), &mut rng);
    let row = sample.row_vector(0).unwrap();
    let sims = cosine_similarity_matrix(&row, &classes, Perforation::NONE).unwrap();
    let pred = hdc_core::ops::arg_max(sims.as_slice()).unwrap();
    let label = (pred + 1) % classes.rows();
    let mut expected = classes.as_ref().clone();
    for (c, sign) in [(label, 1.0), (pred, -1.0)] {
        let updated = expected
            .row_vector(c)
            .unwrap()
            .zip_with(&row, |x, s| x + sign * s);
        expected.set_row(c, &updated.unwrap()).unwrap();
    }
    let mut trained = classes.as_ref().clone();
    let counts = replay_epoch(
        &sample,
        &[label],
        &mut trained,
        SimilarityMetric::Cosine,
        ScorePolarity::Similarity,
        Perforation::NONE,
        None,
    )
    .unwrap();
    rayon::set_num_threads(0);

    assert_eq!(one.predictions, oracle[..1]);
    assert_eq!(one.stats.class_shards, 0, "one row scores unsharded");
    assert_eq!(one.stats.shard_merge_ops, 0);
    assert_eq!(full.predictions, oracle);
    assert_eq!(full.stats.class_shards, 2, "64 rows × 16 classes shard");
    assert_eq!(full.stats.shard_merge_ops, queries.len());
    assert_eq!(
        counts.class_shards, 1,
        "one-row feedback scores on one shard"
    );
    assert_eq!(counts.shard_merge_ops, 0);
    assert_eq!(counts.updates, 1);
    assert_eq!(trained, expected);
}
