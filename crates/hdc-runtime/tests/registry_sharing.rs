//! Executor-sharing regression battery: two executors built over the same
//! `Arc`-shared artifacts (the serving-registry pattern — one bound model,
//! many request executors) must never observe each other's run state.
//!
//! This extends the run-reset fix (repeated `run()`s on one executor are
//! independent) across executors: binding an artifact is a refcount bump,
//! and the COW `Value` payloads guarantee one executor's in-place stage
//! mutations (training loops update the class matrix in place) stay
//! invisible to every other executor bound to the same artifacts — even
//! when they run concurrently on worker threads.

use hdc_core::element::ElementKind;
use hdc_core::prelude::*;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{Program, ValueId};
use hdc_ir::stage::ScorePolarity;
use hdc_runtime::{Executor, Value};

const DIM: usize = 128;
const CLASSES: usize = 5;
const SAMPLES: usize = 20;

/// A training + inference program: the training loop mutates the bound
/// class matrix *in place* (the exact run-state hazard), then inference
/// scores the queries against the trained classes.
fn build_train_infer() -> (Program, ValueId) {
    let mut b = ProgramBuilder::new("registry_sharing");
    let train = b.input_matrix("train", ElementKind::F64, SAMPLES, DIM);
    let labels = b.input_indices("labels", SAMPLES);
    let classes = b.input_matrix("classes", ElementKind::F64, CLASSES, DIM);
    let queries = b.input_matrix("queries", ElementKind::F64, SAMPLES, DIM);
    b.training_loop(
        "train",
        train,
        labels,
        classes,
        2,
        ScorePolarity::Similarity,
        |b, s| b.cossim(s, classes),
    );
    let preds = b.inference_loop(
        "infer",
        queries,
        classes,
        ScorePolarity::Similarity,
        |b, s| b.cossim(s, classes),
    );
    b.mark_output(preds);
    b.mark_output(classes);
    (b.finish(), preds)
}

/// The shared artifacts, `Arc`-backed exactly as a registry would hold
/// them: binding them to an executor is a refcount bump.
fn artifacts(seed: u64) -> (Value, Value, Value, Value) {
    let mut rng = HdcRng::seed_from_u64(seed);
    let train: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(SAMPLES, DIM, &mut rng);
    let queries: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(SAMPLES, DIM, &mut rng);
    let classes = HyperMatrix::from_flat(CLASSES, DIM, vec![0.0; CLASSES * DIM]).unwrap();
    let labels: Vec<usize> = (0..SAMPLES).map(|i| i % CLASSES).collect();
    (
        Value::matrix(train),
        Value::indices(labels),
        Value::matrix(classes),
        Value::matrix(queries),
    )
}

fn bind_all(exec: &mut Executor<'_>, arts: &(Value, Value, Value, Value)) {
    exec.bind("train", arts.0.clone()).unwrap();
    exec.bind("labels", arts.1.clone()).unwrap();
    exec.bind("classes", arts.2.clone()).unwrap();
    exec.bind("queries", arts.3.clone()).unwrap();
}

#[test]
fn sibling_forks_are_isolated_and_concurrent_runs_identical() {
    let (program, _) = build_train_infer();
    let arts = artifacts(0x5B);
    let mut root = Executor::new(&program).unwrap();
    bind_all(&mut root, &arts);
    let reference = root.run().unwrap();
    // Siblings: independent executors bound to the same `Arc` artifacts,
    // each training the shared class matrix in place on its own thread.
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (program, arts) = (&program, &arts);
                scope.spawn(move || {
                    let mut sibling = Executor::new(program).unwrap();
                    bind_all(&mut sibling, arts);
                    let out = sibling.run().unwrap();
                    (out, sibling.stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (out, stats)) in outputs.iter().enumerate() {
        assert_eq!(out, &reference, "sibling {i} diverged from the root run");
        assert_eq!(
            stats.instructions_executed,
            root.stats().instructions_executed,
            "sibling {i} counted different work"
        );
    }
    // The root re-runs unchanged after its siblings trained.
    assert_eq!(root.run().unwrap(), reference);
    // The shared artifacts themselves are untouched: a fresh executor
    // bound from the same Arcs still reproduces the reference.
    let mut fresh = Executor::new(&program).unwrap();
    bind_all(&mut fresh, &arts);
    assert_eq!(fresh.run().unwrap(), reference);
}
