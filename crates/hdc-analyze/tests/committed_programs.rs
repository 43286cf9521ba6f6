//! The acceptance gate behind `hdc-lint`: every program this repo commits
//! to — the three application pipelines (default and baseline), the
//! serving templates at two batch sizes, the online trainer's programs —
//! passes the analyzer with **zero error diagnostics** (in fact with zero
//! diagnostics of any severity: the committed suite is the analyzer's
//! false-positive corpus).
//!
//! Also pins the effect analysis' one-directional contract against the
//! executor's own copy accounting: a program classified all-zero-copy
//! reports `tensor_bytes_copied == 0` when executed.

use hdc_analyze::{analyze, effects};
use hdc_apps::{ClassificationApp, ClusteringApp, MatchingApp};
use hdc_core::element::ElementKind;
use hdc_core::{HyperMatrix, HyperVector};
use hdc_datasets::synthetic::{isolet_like, IsoletParams};
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::Program;
use hdc_passes::pipeline::CompileOptions;
use hdc_runtime::{Executor, Value};
use hdc_serve::{ModelRegistry, OnlineTrainer, OnlineTrainerConfig, ServableModel, SwapPolicy};
use std::sync::Arc;

fn small_dataset(seed: u64) -> hdc_datasets::Dataset {
    isolet_like(&IsoletParams {
        classes: 4,
        features: 32,
        train_per_class: 6,
        test_per_class: 5,
        noise: 1.2,
        seed,
    })
}

const DIM: usize = 256;

fn assert_clean(program: &Program, what: &str) {
    let report = analyze(program);
    assert!(
        report.diagnostics.is_empty(),
        "{what} is not clean:\n{report}"
    );
}

#[test]
fn application_pipelines_are_clean_in_both_configurations() {
    for (label, options) in [
        ("default", CompileOptions::default()),
        ("baseline", CompileOptions::baseline()),
    ] {
        let app = ClassificationApp::with_options(small_dataset(11), DIM, 2, &options)
            .expect("classification build");
        assert_clean(app.program(), &format!("classification/{label}"));

        let app = ClusteringApp::with_options(small_dataset(12), DIM, 3, &options)
            .expect("clustering build");
        assert_clean(app.program(), &format!("clustering/{label}"));

        let app =
            MatchingApp::with_options(small_dataset(13), DIM, 3, &options).expect("matching build");
        assert_clean(app.program(), &format!("matching/{label}"));
    }
}

#[test]
fn serving_templates_are_clean_at_both_batch_sizes() {
    let class_app = ClassificationApp::new(small_dataset(11), DIM, 2).expect("build");
    let cluster_app = ClusteringApp::new(small_dataset(12), DIM, 3).expect("build");
    let match_app = MatchingApp::new(small_dataset(13), DIM, 3).expect("build");
    let models = [
        ServableModel::classifier("t", &class_app).expect("servable"),
        ServableModel::cluster_assigner("t", &cluster_app).expect("servable"),
        ServableModel::matcher("t", &match_app).expect("servable"),
    ];
    for model in &models {
        for rows in [1usize, 8] {
            let program = model.program_for(rows).expect("serve program");
            assert_clean(&program, &format!("serve program at {rows} rows"));
        }
    }
}

#[test]
fn online_trainer_programs_are_clean() {
    let app = ClassificationApp::new(small_dataset(11), DIM, 2).expect("build");
    let model = Arc::new(ServableModel::classifier("t", &app).expect("servable"));
    let registry = Arc::new(ModelRegistry::new());
    registry.register("t", model);
    let mut trainer = OnlineTrainer::attach(
        registry,
        "t",
        OnlineTrainerConfig {
            policy: SwapPolicy::manual(),
            ..OnlineTrainerConfig::default()
        },
    )
    .expect("trainer attach");
    assert_clean(trainer.freeze_program(), "online freeze program");
    let encode = trainer.encoding_program(4).expect("encode program");
    assert_clean(&encode, "online encoding program");
}

#[test]
fn zero_copy_verdict_matches_executor_accounting() {
    // A statically all-zero-copy program: dense query vs dense class
    // memory, reduction + selection — nothing crosses a representation
    // boundary, nothing mutates in place.
    let mut b = ProgramBuilder::new("zc_exec");
    let q = b.input_vector("q", ElementKind::F64, 64);
    let classes = b.input_matrix("classes", ElementKind::F64, 4, 64);
    let d = b.hamming_distance(q, classes);
    let label = b.arg_min(d);
    b.mark_output(label);
    let program = b.finish();

    let verdict = effects::classify(&program);
    assert!(
        verdict.zero_copy_feasible(),
        "expected all-zero-copy: {:?}",
        verdict.per_node
    );

    let mut exec = Executor::new(&program).expect("executor");
    exec.bind("q", Value::vector(HyperVector::splat(64, 1.0)))
        .expect("bind q");
    exec.bind(
        "classes",
        Value::matrix(HyperMatrix::from_fn(4, 64, |r, c| {
            if (r + c) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        })),
    )
    .expect("bind classes");
    exec.run().expect("run");
    // The one-directional contract: zero-copy feasible ⇒ zero bytes copied.
    assert_eq!(
        exec.stats().tensor_bytes_copied,
        0,
        "zero-copy program copied tensor bytes"
    );
}

#[test]
fn copying_pipeline_is_not_classified_zero_copy() {
    // The converse direction is deliberately NOT claimed by the analysis,
    // but an execution that *does* copy must come from a program with at
    // least one non-zero-copy node — otherwise the contract above is
    // vacuous.
    let app = ClassificationApp::new(small_dataset(11), DIM, 2).expect("build");
    let verdict = effects::classify(app.program());
    assert!(
        !verdict.zero_copy_feasible(),
        "training pipeline cannot be all-zero-copy: {:?}",
        verdict.per_node
    );
}
