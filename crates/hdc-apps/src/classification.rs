//! HD classification with iterative retraining.
//!
//! The canonical HDC learning pipeline (the paper's HD-Classification
//! application): random-projection encode, bootstrap class hypervectors by
//! perceptron-style retraining, binarize, classify. The whole pipeline is
//! one IR program — two `encoding_loop` stages (train and test sets), a
//! `training_loop` whose per-sample body scores against the live class
//! matrix, a `sign` binarization of the trained classes, and an
//! `inference_loop` over the test set:
//!
//! ```text
//! train_x ──► encoding_loop ──► training_loop(epochs) ──► sign ─┐
//! test_x  ──► encoding_loop ───────────────────────────────────► inference_loop ──► labels
//! ```
//!
//! Retraining semantics (inside `training_loop`, per epoch, per sample): on
//! a misprediction the encoded sample is **added** to the true class row and
//! **subtracted** from the predicted class row. Starting from a zero class
//! matrix, the first epoch degenerates to one-shot bundling (everything
//! mispredicts), and later epochs correct the boundary errors bundling
//! leaves behind — [`ClassificationApp::epoch_sweep`] exposes the resulting
//! accuracy-vs-epochs curve, which the `app_equivalence` suite requires to
//! improve.

use crate::compiled::Compiled;
use crate::{ExecMode, Result};
use hdc_core::element::ElementKind;
use hdc_datasets::Dataset;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{NodeBody, Program, ValueId, ValueRole};
use hdc_ir::stage::{ScorePolarity, StageKind};
use hdc_passes::{eliminate_dead_code, CompileOptions, CompileReport};
use hdc_runtime::{ExecStats, Outputs, Value};

/// The compiled classification application.
#[derive(Debug)]
pub struct ClassificationApp {
    core: Compiled,
    preds: ValueId,
    enc_train: ValueId,
    enc_test: ValueId,
    dim: usize,
    epochs: usize,
}

/// The outcome of one classification run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationRun {
    /// Predicted class per test sample.
    pub predictions: Vec<usize>,
    /// Fraction of test predictions matching ground truth.
    pub accuracy: f64,
    /// Executor counters for the run.
    pub stats: ExecStats,
}

impl ClassificationApp {
    /// Build the classification program for `dataset` at hypervector
    /// dimension `dim` with `epochs` retraining epochs, and compile it
    /// through the default pass pipeline (binarization on).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Compile`](crate::AppError::Compile) if the pass
    /// pipeline rejects the program.
    pub fn new(dataset: Dataset, dim: usize, epochs: usize) -> Result<Self> {
        Self::with_options(dataset, dim, epochs, &CompileOptions::default())
    }

    /// [`ClassificationApp::new`] with explicit compile options (e.g. the
    /// dense baseline configuration).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Compile`](crate::AppError::Compile) if the pass
    /// pipeline rejects the program.
    pub fn with_options(
        dataset: Dataset,
        dim: usize,
        epochs: usize,
        options: &CompileOptions,
    ) -> Result<Self> {
        let (program, preds, enc_train, enc_test) = build_program(&dataset, dim, epochs);
        let inputs = vec![
            (
                "train_features",
                Value::matrix(dataset.train.features.clone()),
            ),
            (
                "test_features",
                Value::matrix(dataset.test.features.clone()),
            ),
            ("train_labels", Value::indices(dataset.train.labels.clone())),
        ];
        let core = Compiled::new(dataset, program, options, inputs)?;
        Ok(ClassificationApp {
            core,
            preds,
            enc_train,
            enc_test,
            dim,
            epochs,
        })
    }

    /// The compiled IR program.
    pub fn program(&self) -> &Program {
        &self.core.program
    }

    /// The pass pipeline's compile report.
    pub fn compile_report(&self) -> &CompileReport {
        &self.core.report
    }

    /// The dataset the app classifies.
    pub fn dataset(&self) -> &Dataset {
        &self.core.dataset
    }

    /// Hypervector dimension the app encodes into.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of retraining epochs the program performs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Execute the app under the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if execution
    /// fails.
    pub fn run(&self, mode: ExecMode) -> Result<ClassificationRun> {
        let (out, stats) = self.core.run(mode)?;
        self.outcome(&out, stats)
    }

    fn outcome(&self, out: &Outputs, stats: ExecStats) -> Result<ClassificationRun> {
        let predictions = out.indices(self.preds)?.to_vec();
        Ok(ClassificationRun {
            accuracy: self.dataset().test_accuracy(&predictions),
            predictions,
            stats,
        })
    }

    /// Execute the app through the accelerator back end: stage nodes are
    /// re-targeted onto `target` (with legality demotion), outputs stay
    /// bit-identical to [`run`](ClassificationApp::run), and the returned
    /// report carries the modeled accelerator-vs-CPU cost of every
    /// accelerated stage.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if execution
    /// fails.
    pub fn run_accelerated(
        &self,
        model: &hdc_accel::AcceleratorModel,
        target: hdc_ir::Target,
    ) -> Result<crate::Accelerated<ClassificationRun>> {
        let run = self.core.run_accelerated(model, target)?;
        Ok(crate::Accelerated {
            run: self.outcome(&run.outputs, run.stats.exec)?,
            modeled: run.stats.modeled,
        })
    }

    /// Test accuracy as a function of retraining epochs, run batched. This
    /// is the retraining curve of the paper's Figure 7-style evaluations.
    ///
    /// The whole sweep shares **one** compiled program: the train and test
    /// sets are encoded once (the encodings are harvested from a single
    /// run), and each entry then executes a reduced train+infer program
    /// whose `training_loop` epoch count is the only thing that varies — no
    /// per-entry rebuild, recompile, or re-encoding. The accuracies are
    /// identical to building one full app per entry (asserted by the
    /// `app_equivalence` suite): the epoch count influences nothing before
    /// the training stage.
    ///
    /// # Errors
    ///
    /// Propagates compile or runtime failures from any entry.
    pub fn epoch_sweep(dataset: &Dataset, dim: usize, epochs: &[usize]) -> Result<Vec<f64>> {
        let Some(&first) = epochs.first() else {
            return Ok(Vec::new());
        };
        let app = ClassificationApp::new(dataset.clone(), dim, first)?;
        app.sweep_epochs(epochs)
    }

    /// [`ClassificationApp::epoch_sweep`] over this app's compiled program:
    /// encode once, then run the training+inference tail once per `epochs`
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures from the harvest run or any entry.
    pub fn sweep_epochs(&self, epochs: &[usize]) -> Result<Vec<f64>> {
        // Harvest the encoded train/test matrices from one encode-only run
        // of the compiled program (the encodings do not depend on the epoch
        // count, and the training/inference tail would be thrown away).
        let mut harvest = self.core.program.clone();
        harvest.nodes_mut().retain(|n| match &n.body {
            NodeBody::Stage(s) => s.kind == StageKind::Encoding,
            _ => true,
        });
        harvest.value_mut(self.preds).role = ValueRole::Temp;
        harvest.value_mut(self.enc_train).role = ValueRole::Output;
        harvest.value_mut(self.enc_test).role = ValueRole::Output;
        eliminate_dead_code(&mut harvest);
        let out = self.core.executor(&harvest, ExecMode::Batched)?.run()?;
        let enc_train = out
            .get(self.enc_train)
            .expect("marked as output above")
            .clone();
        let enc_test = out
            .get(self.enc_test)
            .expect("marked as output above")
            .clone();
        // The reduced program: the encoding stages are dropped and the
        // encoded matrices become host-bound inputs; dead code from the
        // dropped stages (the projection matrix) is eliminated.
        let mut reduced = self.core.program.clone();
        reduced
            .nodes_mut()
            .retain(|n| !matches!(&n.body, NodeBody::Stage(s) if s.kind == StageKind::Encoding));
        reduced.value_mut(self.enc_train).role = ValueRole::Input;
        reduced.value_mut(self.enc_test).role = ValueRole::Input;
        eliminate_dead_code(&mut reduced);
        epochs
            .iter()
            .map(|&e| {
                let mut program = reduced.clone();
                for node in program.nodes_mut() {
                    if let NodeBody::Stage(stage) = &mut node.body {
                        if matches!(stage.kind, StageKind::Training { .. }) {
                            stage.kind = StageKind::Training { epochs: e };
                        }
                    }
                }
                // The raw feature inputs are unused once the encoding
                // stages are gone, but they keep their input role; binding
                // them is a reference-count bump.
                let mut exec = self.core.executor(&program, ExecMode::Batched)?;
                exec.bind_id(self.enc_train, enc_train.clone())?;
                exec.bind_id(self.enc_test, enc_test.clone())?;
                let out = exec.run()?;
                let predictions = out.indices(self.preds)?;
                Ok(self.dataset().test_accuracy(predictions))
            })
            .collect()
    }

    /// Harvest the trained classifier artifacts from one run of the
    /// compiled program: the projection matrix, the *dense* trained class
    /// memory (`class_hvs`, the perceptron accumulator before the freeze),
    /// and the frozen class memory (`class_bits`, bit-packed under the
    /// binarized configuration).
    ///
    /// This is the re-freezing hook the serving layer builds on: a servable
    /// model is constructed from these artifacts, and an online trainer
    /// resumes perceptron updates from the dense accumulator, re-freezing
    /// through the same `sign` that produced `class_bits` here.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if the
    /// harvest run fails.
    pub fn harvest_artifacts(&self) -> Result<HarvestedClassifier> {
        let [rp_matrix, class_hvs, class_bits] =
            <[Value; 3]>::try_from(self.harvest(&["rp_matrix", "class_hvs", "class_bits"])?)
                .expect("one value per name");
        Ok(HarvestedClassifier {
            rp_matrix,
            class_hvs,
            class_bits,
        })
    }

    /// Run the compiled program once (batched) with the named values
    /// flipped to outputs, and return them in `names` order. Harvested
    /// values are `Arc`-backed; holding them never copies a tensor.
    ///
    /// # Errors
    ///
    /// [`AppError::UnknownValue`](crate::AppError::UnknownValue) if the
    /// program has no value of one of the names, or
    /// [`AppError::Runtime`](crate::AppError::Runtime) if the run fails.
    pub fn harvest(&self, names: &[&str]) -> Result<Vec<Value>> {
        self.core.harvest(names)
    }
}

/// Trained classifier artifacts harvested by
/// [`ClassificationApp::harvest_artifacts`]. All `Value`s are `Arc`-backed;
/// holding or re-binding them never copies a tensor.
#[derive(Debug, Clone)]
pub struct HarvestedClassifier {
    /// The random projection matrix (`dim x features`, dense `f64`).
    pub rp_matrix: Value,
    /// The dense trained class memory (`classes x dim`, the accumulator
    /// perceptron updates apply to).
    pub class_hvs: Value,
    /// The frozen class memory `sign(class_hvs)` — bit-packed when the app
    /// compiled with binarization, dense `±1` under the baseline.
    pub class_bits: Value,
}

/// Build the (uncompiled) classification program. The projection matrix is
/// created in-program from the builder's deterministic seed sequence, so
/// every program built for the same dataset shape shares it.
fn build_program(
    dataset: &Dataset,
    dim: usize,
    epochs: usize,
) -> (Program, ValueId, ValueId, ValueId) {
    let features = dataset.meta.features;
    let classes = dataset.meta.classes;
    let n_train = dataset.train.len();
    let n_test = dataset.test.len();
    let mut b = ProgramBuilder::new("hd_classification");
    let train_x = b.input_matrix("train_features", ElementKind::F64, n_train, features);
    let test_x = b.input_matrix("test_features", ElementKind::F64, n_test, features);
    let train_y = b.input_indices("train_labels", n_train);
    let rp = b.random_bipolar_matrix(ElementKind::F64, dim, features);
    b.name_value(rp, "rp_matrix");
    let class_hvs = b.zero_matrix(ElementKind::F64, classes, dim);
    b.name_value(class_hvs, "class_hvs");
    let enc_train = b.encoding_loop("encode_train", train_x, dim, |b, q| {
        let e = b.matmul(q, rp);
        b.sign(e)
    });
    let enc_test = b.encoding_loop("encode_test", test_x, dim, |b, q| {
        let e = b.matmul(q, rp);
        b.sign(e)
    });
    b.training_loop(
        "retrain",
        enc_train,
        train_y,
        class_hvs,
        epochs,
        ScorePolarity::Similarity,
        |b, q| b.cossim(q, class_hvs),
    );
    // Binarize the trained model: the automatic-binarization pass turns
    // this into the 1-bit class memory, and Hamming inference below into
    // the XOR/popcount batched kernel.
    let class_bits = b.sign(class_hvs);
    b.name_value(class_bits, "class_bits");
    let preds = b.inference_loop(
        "infer",
        enc_test,
        class_bits,
        ScorePolarity::Distance,
        |b, q| b.hamming_distance(q, class_bits),
    );
    b.mark_output(preds);
    (b.finish(), preds, enc_train, enc_test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind as EK;
    use hdc_datasets::synthetic::{isolet_like, IsoletParams};
    use hdc_ir::program::NodeBody;

    fn small_dataset() -> Dataset {
        isolet_like(&IsoletParams {
            classes: 4,
            features: 32,
            train_per_class: 6,
            test_per_class: 3,
            noise: 1.2,
            seed: 11,
        })
    }

    #[test]
    fn program_has_four_stages_and_binarizes() {
        let app = ClassificationApp::new(small_dataset(), 256, 2).unwrap();
        let stages = app
            .program()
            .nodes()
            .iter()
            .filter(|n| matches!(n.body, NodeBody::Stage(_)))
            .count();
        assert_eq!(stages, 4, "encode x2, retrain, infer");
        // The pass pipeline binarized the encoded matrices and the class
        // bits.
        assert!(app.compile_report().binarize().unwrap().binarized_values >= 3);
        let bit_slots = app.program().binarized_value_count();
        assert!(
            bit_slots >= 3,
            "encoded train/test + class bits, got {bit_slots}"
        );
        // The raw feature inputs stay dense.
        let train_x = app
            .program()
            .values()
            .iter()
            .find(|v| v.name == "train_features")
            .unwrap();
        assert_eq!(train_x.ty.element_kind(), Some(EK::F64));
    }

    #[test]
    fn runs_and_produces_one_label_per_test_sample() {
        let app = ClassificationApp::new(small_dataset(), 256, 2).unwrap();
        let run = app.run(ExecMode::Batched).unwrap();
        assert_eq!(run.predictions.len(), app.dataset().test.len());
        assert!(run.predictions.iter().all(|&p| p < 4));
        assert!(run.stats.batched_kernel_ops > 0, "stages batched");
    }
}
