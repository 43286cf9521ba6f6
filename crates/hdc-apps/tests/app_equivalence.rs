//! Application-level equivalence and quality gates.
//!
//! Every application must produce *identical* outputs under the batched
//! executor (matrix-level kernels, parallel loops) and the per-sample
//! sequential reference oracle — this is the app-level extension of the
//! kernel-level `batched_equivalence` suite in `hdc-runtime`. On top of
//! equivalence, each app must clear a quality floor on its seeded synthetic
//! workload (accuracy / purity / recall), and the retraining app must show
//! the point of retraining: test accuracy improves with epochs.

use hdc_apps::classification::ClassificationApp;
use hdc_apps::clustering::ClusteringApp;
use hdc_apps::matching::MatchingApp;
use hdc_apps::{AppError, ExecMode};
use hdc_datasets::synthetic::{
    emg_like, hyperoms_like, isolet_like, EmgParams, HyperOmsParams, IsoletParams,
};
use hdc_datasets::Dataset;
use hdc_passes::{CompileOptions, PerforationConfig};

const DIM: usize = 1024;

fn isolet() -> Dataset {
    isolet_like(&IsoletParams {
        classes: 8,
        features: 96,
        train_per_class: 20,
        test_per_class: 12,
        noise: 2.0,
        seed: 0xA11,
    })
}

fn emg() -> Dataset {
    emg_like(&EmgParams {
        gestures: 5,
        channels: 4,
        window: 32,
        train_per_class: 10,
        test_per_class: 5,
        noise: 0.7,
        phase_jitter: 0.6,
        seed: 0xE3,
    })
}

fn spectra() -> Dataset {
    hyperoms_like(&HyperOmsParams {
        library_size: 48,
        bins: 300,
        peaks: 20,
        queries_per_entry: 2,
        ..HyperOmsParams::default()
    })
}

// ---------------------------------------------------------------------------
// classification
// ---------------------------------------------------------------------------

#[test]
fn classification_batched_matches_sequential() {
    let app = ClassificationApp::new(isolet(), DIM, 3).unwrap();
    let batched = app.run(ExecMode::Batched).unwrap();
    let sequential = app.run(ExecMode::Sequential).unwrap();
    assert_eq!(
        batched.predictions, sequential.predictions,
        "batched and sequential classification must agree"
    );
    assert_eq!(batched.accuracy, sequential.accuracy);
    // The batched mode actually engaged the matrix-level kernels; the
    // sequential oracle must not.
    assert!(
        batched.stats.batched_kernel_ops >= 3,
        "two encodes + inference"
    );
    assert_eq!(sequential.stats.batched_kernel_ops, 0);
}

#[test]
fn retraining_improves_test_accuracy_across_epochs() {
    // On this seeded workload the curve is exactly [0.875, ~0.948, ~0.948]:
    // epoch 1 (≈ one-shot bundling) leaves boundary errors that later
    // epochs' perceptron updates correct. Everything is deterministic, so
    // the margin (7 of 96 test samples) cannot flake.
    let dataset = isolet();
    let curve = ClassificationApp::epoch_sweep(&dataset, DIM, &[1, 4, 8]).unwrap();
    assert!(
        curve[0] < 1.0,
        "epoch-1 accuracy {curve:?} leaves no headroom — raise dataset noise"
    );
    assert!(
        curve[2] - curve[0] > 0.03,
        "retraining must improve accuracy by a real margin: curve {curve:?}"
    );
    assert!(
        curve[2] > 0.9,
        "retrained accuracy too low on separable clusters: curve {curve:?}"
    );
}

#[test]
fn batched_epoch_training_matches_oracle_across_configs() {
    // Property-style sweep: blocked re-freeze training must stay
    // bit-identical to the sequential oracle across dense/binarized x
    // perforation {1.0, 0.5} x epochs {1, 3}. The isolet workload trains
    // from a zero class matrix, so every configuration performs mid-block
    // class-row updates — the batched schedule must report the scores it
    // patched to stay exact, not assume a block's frozen scores held.
    let dataset = isolet();
    for binarized in [true, false] {
        for stride in [1usize, 2] {
            for epochs in [1usize, 3] {
                let mut options = if binarized {
                    CompileOptions::default()
                } else {
                    CompileOptions::baseline()
                };
                if stride > 1 {
                    options.perforation = PerforationConfig::strided_similarity(stride);
                }
                let app = ClassificationApp::with_options(dataset.clone(), 512, epochs, &options)
                    .unwrap();
                let batched = app.run(ExecMode::Batched).unwrap();
                let sequential = app.run(ExecMode::Sequential).unwrap();
                let cfg = format!("binarized={binarized} stride={stride} epochs={epochs}");
                assert_eq!(
                    batched.predictions, sequential.predictions,
                    "{cfg}: predictions must be bit-identical"
                );
                assert_eq!(batched.accuracy, sequential.accuracy, "{cfg}");
                // One epoch kernel per training epoch, none on the oracle.
                assert_eq!(batched.stats.epoch_kernel_ops, epochs, "{cfg}");
                assert_eq!(sequential.stats.epoch_kernel_ops, 0, "{cfg}");
                assert_eq!(sequential.stats.rescored_samples, 0, "{cfg}");
                let train = app.dataset().train.len();
                assert!(
                    batched.stats.rescored_samples > 0,
                    "{cfg}: mid-epoch updates must force re-scoring"
                );
                assert!(batched.stats.rescored_samples <= epochs * train, "{cfg}");
                assert!(
                    batched.stats.rescored_rows >= batched.stats.rescored_samples,
                    "{cfg}"
                );
            }
        }
    }
}

#[test]
fn epoch_sweep_matches_per_entry_apps() {
    // The sweep reuses one compiled program and one set of encodings; its
    // accuracies must equal building a fresh app per epochs entry.
    let dataset = isolet();
    let entries = [1usize, 4, 8];
    let sweep = ClassificationApp::epoch_sweep(&dataset, DIM, &entries).unwrap();
    let naive: Vec<f64> = entries
        .iter()
        .map(|&e| {
            ClassificationApp::new(dataset.clone(), DIM, e)
                .unwrap()
                .run(ExecMode::Batched)
                .unwrap()
                .accuracy
        })
        .collect();
    assert_eq!(sweep, naive, "sweep accuracies must be unchanged");
}

#[test]
fn classification_handles_emg_windows_too() {
    // Scenario diversity: the same app binary classifies the EMG-style
    // windowed time series.
    let app = ClassificationApp::new(emg(), DIM, 3).unwrap();
    let batched = app.run(ExecMode::Batched).unwrap();
    let sequential = app.run(ExecMode::Sequential).unwrap();
    assert_eq!(batched.predictions, sequential.predictions);
    assert!(
        batched.accuracy > 0.6,
        "EMG gesture accuracy {} too low",
        batched.accuracy
    );
}

// ---------------------------------------------------------------------------
// clustering
// ---------------------------------------------------------------------------

#[test]
fn clustering_batched_matches_sequential() {
    let dataset = isolet_like(&IsoletParams {
        classes: 4,
        features: 64,
        train_per_class: 16,
        test_per_class: 1,
        noise: 0.9,
        seed: 0xC1,
    });
    let app = ClusteringApp::new(dataset, DIM, 3).unwrap();
    let batched = app.run(ExecMode::Batched).unwrap();
    let sequential = app.run(ExecMode::Sequential).unwrap();
    assert_eq!(
        batched.assignments, sequential.assignments,
        "batched and sequential clustering must agree"
    );
    assert!(
        batched.purity > 0.85,
        "purity {} too low for well-separated clusters",
        batched.purity
    );
    // Round structure: every assign stage batches, and every
    // accumulate-by-assignment update loop collapses into one segmented
    // reduction (the row writes are keyed by the frozen assignment vector,
    // so the whole round is one kernel call).
    assert!(
        batched.stats.batched_kernel_ops >= 4 + 3,
        "encode + 3 assigns + final + 3 segmented updates, got {}",
        batched.stats.batched_kernel_ops
    );
    assert_eq!(
        batched.stats.epoch_kernel_ops, 3,
        "one segmented reduction per round"
    );
    assert_eq!(sequential.stats.batched_kernel_ops, 0);
    assert_eq!(sequential.stats.epoch_kernel_ops, 0);
}

// ---------------------------------------------------------------------------
// top-k spectral matching
// ---------------------------------------------------------------------------

#[test]
fn matching_batched_matches_sequential() {
    let app = MatchingApp::new(spectra(), DIM, 5).unwrap();
    let batched = app.run(ExecMode::Batched).unwrap();
    let sequential = app.run(ExecMode::Sequential).unwrap();
    assert_eq!(
        batched.candidates, sequential.candidates,
        "batched and sequential top-k candidates must agree"
    );
    assert_eq!(batched.best, sequential.best);
    assert_eq!(batched.recall_at_k, sequential.recall_at_k);
    // The sequential oracle must be genuinely kernel-free: the all-pairs
    // similarity and the top-k selection fall back to the dense reference
    // paths, not just the stage loops.
    assert_eq!(sequential.stats.batched_kernel_ops, 0);
}

#[test]
fn matching_recovers_sources_in_top_k() {
    let app = MatchingApp::new(spectra(), DIM, 5).unwrap();
    let run = app.run(ExecMode::Batched).unwrap();
    assert!(
        run.recall_at_k > 0.9,
        "recall@5 {} too low — queries are noisy copies of library entries",
        run.recall_at_k
    );
    assert!(
        run.recall_at_1 > 0.6,
        "recall@1 {} too low",
        run.recall_at_1
    );
    assert!(run.recall_at_k >= run.recall_at_1);
    // Structure: k candidates per query, headed by the arg_max winner.
    let k = app.k();
    assert_eq!(run.candidates.len(), app.dataset().test.len() * k);
    for (i, &best) in run.best.iter().enumerate() {
        assert_eq!(run.candidates[i * k], best);
    }
}

#[test]
fn matching_top_k_runs_as_batched_selection_kernel() {
    let app = MatchingApp::new(spectra(), DIM, 5).unwrap();
    let run = app.run(ExecMode::Batched).unwrap();
    // Two batched encodes + the all-pairs bit similarity + the top-k
    // selection kernel.
    assert!(
        run.stats.batched_kernel_ops >= 4,
        "expected batched encode/similarity/top-k kernels, got {}",
        run.stats.batched_kernel_ops
    );
}

// ---------------------------------------------------------------------------
// batched means batched
// ---------------------------------------------------------------------------

#[test]
fn batched_mode_never_runs_a_reference_kernel() {
    // Every similarity reduction of the three apps, binarized and dense,
    // must reach a batch kernel in batched mode: a per-sample fallback or a
    // reference all-pairs loop would count here.
    for options in [CompileOptions::default(), CompileOptions::baseline()] {
        let classify = ClassificationApp::with_options(isolet(), 512, 2, &options).unwrap();
        let cluster = ClusteringApp::with_options(emg(), 512, 2, &options).unwrap();
        let matcher = MatchingApp::with_options(spectra(), 512, 5, &options).unwrap();
        let stats = [
            classify.run(ExecMode::Batched).unwrap().stats,
            cluster.run(ExecMode::Batched).unwrap().stats,
            matcher.run(ExecMode::Batched).unwrap().stats,
        ];
        for (app, stats) in ["classification", "clustering", "matching"]
            .iter()
            .zip(stats)
        {
            assert_eq!(
                stats.reference_kernel_ops, 0,
                "{app}, binarized={}: {stats:?}",
                options.binarize
            );
            assert!(stats.batched_kernel_ops > 0, "{app}");
        }
    }
}

// ---------------------------------------------------------------------------
// harvest
// ---------------------------------------------------------------------------

/// Every app harvests named values through one path: known names come
/// back in order, an unknown name is a typed error, not a panic.
#[test]
fn harvest_returns_named_values_and_rejects_unknown_names() {
    let classification = ClassificationApp::new(isolet(), DIM, 1).unwrap();
    let clustering = ClusteringApp::new(emg(), DIM, 1).unwrap();
    let matching = MatchingApp::new(spectra(), DIM, 3).unwrap();
    let harvests = [
        (
            "classification",
            classification.harvest(&["rp_matrix", "nope"]),
        ),
        ("clustering", clustering.harvest(&["rp_matrix", "nope"])),
        ("matching", matching.harvest(&["rp_matrix", "nope"])),
    ];
    for (label, harvested) in harvests {
        match harvested {
            Err(AppError::UnknownValue(name)) => assert_eq!(name, "nope", "{label}"),
            other => panic!("{label}: expected UnknownValue, got {other:?}"),
        }
    }
    let values = matching
        .harvest(&["rp_matrix", "encode_library.encoded"])
        .unwrap();
    assert_eq!(values.len(), 2);
    assert_eq!(values[0].kind_name(), "matrix");
    assert_eq!(
        values[1].kind_name(),
        "bit-matrix",
        "default pipeline binarizes"
    );
}
