//! The measured surface: every call the benchmark makes into `hpvm-hdc`
//! goes through this module, and no other module names a type of the
//! program. When a public function moves, this is the one file a follow-up
//! `benchmark` issue re-points. The frozen workload sizes live here too,
//! as the arguments of the dataset generators.
//!
//! Functions that time a call take their own inputs ready-made, so the
//! timer covers the call into the program and nothing of the benchmark.

use crate::loadgen::Target;
use hpvm_hdc::accel::AcceleratorModel;
use hpvm_hdc::apps::{ClassificationApp, ClusteringApp, ExecMode, MatchingApp};
use hpvm_hdc::core::batch::{
    accumulate_by_segment_bits, arg_top_k_batch, cosine_similarity_batch, hamming_distance_batch,
};
use hpvm_hdc::core::element::ElementKind;
use hpvm_hdc::core::matmul::matmul_batch;
use hpvm_hdc::core::{BitMatrix, HyperMatrix, Perforation};
use hpvm_hdc::datasets::drift::{incremental_classes, IncrementalClassParams};
use hpvm_hdc::datasets::synthetic::{
    emg_like, hyperoms_like, isolet_like, EmgParams, HyperOmsParams, IsoletParams,
};
use hpvm_hdc::ir::builder::ProgramBuilder;
use hpvm_hdc::ir::program::Program;
use hpvm_hdc::ir::Target as HardwareTarget;
use hpvm_hdc::passes::{compile, CompileOptions, PerforationConfig};
use hpvm_hdc::runtime::{Executor, Value};
use hpvm_hdc::serve::{
    Coalescer, ModelRegistry, OnlineTrainer, OnlineTrainerConfig, Prediction, ResponseFuture,
    ServableModel, Service, ServiceConfig, SwapPolicy, WindowConfig,
};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use hpvm_hdc::datasets::Dataset;
pub use hpvm_hdc::runtime::ExecStats;
pub use hpvm_hdc::serve::ServiceStats;

/// Hypervector dimension of every workload.
pub const DIM: usize = 2048;
pub const EPOCHS: usize = 3;
pub const ROUNDS: usize = 10;
pub const TOP_K: usize = 5;
/// The coalescing window of every serve workload.
pub const WINDOW_ROWS: usize = 64;
pub const WINDOW_DELAY: Duration = Duration::from_micros(300);
/// Feedback updates between two published generations on `serve_online`.
const SWAP_EVERY_UPDATES: u64 = 4;
const MODEL: &str = "bench";

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

// ---------------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------------

pub fn host_facts() -> String {
    format!(
        "nproc={} rayon_threads={} simd={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        hpvm_hdc::core::simd::selected().name(),
    )
}

// ---------------------------------------------------------------------------
// Datasets and apps
// ---------------------------------------------------------------------------

/// The program a workload compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Classification with retraining, default (binarized) pipeline.
    ClassifyBits,
    /// Top-k matching, dense f64 baseline pipeline.
    MatchDense,
    /// [`Pipeline::MatchDense`] with stride-2 similarity perforation.
    MatchDensePerf50,
    /// Clustering, default (binarized) pipeline.
    ClusterBits,
}

impl Pipeline {
    /// Stride of the similarity reduction.
    pub fn score_stride(self) -> usize {
        match self {
            Pipeline::MatchDensePerf50 => 2,
            _ => 1,
        }
    }
}

/// ISOLET-like: the dataset of `classify_retrain` and of the model that
/// `serve_light` and `serve_saturated` serve.
///
/// Noise 3.0, not the generator's 2.0: every retraining epoch then
/// mispredicts within its first samples, so the rescoring work does not
/// depend on where an epoch's first misprediction happens to fall (4112 to
/// 5897 rescored samples from seed to seed at 2.0, 5750 to 6118 at 3.0), and
/// accuracy is near 0.92 instead of saturated.
pub fn isolet(seed: u64) -> Dataset {
    isolet_like(&IsoletParams {
        classes: 26,
        features: 617,
        train_per_class: 80,
        test_per_class: 20,
        noise: 3.0,
        seed,
    })
}

/// HyperOMS-like library with one query per entry.
pub fn hyperoms(seed: u64) -> Dataset {
    hyperoms_like(&HyperOmsParams {
        library_size: 768,
        bins: 400,
        queries_per_entry: 1,
        seed,
        ..HyperOmsParams::default()
    })
}

/// EMG-like gesture windows; only the train split is clustered.
pub fn emg(seed: u64) -> Dataset {
    emg_like(&EmgParams {
        gestures: 5,
        channels: 4,
        window: 64,
        train_per_class: 1000,
        test_per_class: 1,
        seed,
        ..EmgParams::default()
    })
}

/// A labelled feedback tape: `(features, label)` in arrival order.
pub struct Tape {
    pub samples: Vec<(Vec<f64>, usize)>,
}

/// Incremental classes: 18 of 26 classes before the onset, all after.
pub fn incremental(seed: u64) -> (Dataset, Tape) {
    let scenario = incremental_classes(&IncrementalClassParams {
        classes: 26,
        initial_classes: 18,
        features: 617,
        train_per_class: 20,
        pre_samples: 200,
        post_samples: 500,
        seed,
        ..IncrementalClassParams::default()
    });
    let tape = Tape {
        samples: scenario
            .tape
            .samples
            .into_iter()
            .map(|s| (s.features, s.label))
            .collect(),
    };
    (scenario.base, tape)
}

/// Rows of a split as owned request payloads.
pub fn test_rows(dataset: &Dataset) -> Vec<Vec<f64>> {
    dataset
        .test
        .features
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect()
}

pub fn test_labels(dataset: &Dataset) -> &[usize] {
    &dataset.test.labels
}

/// Sizes the kernel probes are shaped by.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub train: usize,
    pub test: usize,
    pub features: usize,
    pub classes: usize,
}

pub fn shape(dataset: &Dataset) -> Shape {
    Shape {
        train: dataset.train.len(),
        test: dataset.test.len(),
        features: dataset.meta.features,
        classes: dataset.meta.classes,
    }
}

/// A compiled application.
pub enum App {
    Classify(ClassificationApp),
    Match(MatchingApp),
    Cluster(ClusteringApp),
}

/// What one run of an app produced.
pub struct Run {
    /// Predictions, flattened top-k candidate lists, or assignments.
    pub outputs: Vec<usize>,
    /// Accuracy, recall@k or purity against the planted labels.
    pub quality: f64,
    pub stats: ExecStats,
}

/// Statistics of a modeled accelerator run.
pub struct Modeled {
    pub cycles: u64,
    pub accel_s: f64,
    pub accelerated_stages: usize,
    pub demoted_stages: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accelerator {
    Asic,
    Reram,
}

impl App {
    /// IR build, pass pipeline and verification: `App::new` or
    /// `App::with_options`.
    pub fn compile(pipeline: Pipeline, dataset: Dataset) -> Result<App, String> {
        match pipeline {
            Pipeline::ClassifyBits => ClassificationApp::new(dataset, DIM, EPOCHS)
                .map(App::Classify)
                .map_err(text),
            Pipeline::ClusterBits => ClusteringApp::new(dataset, DIM, ROUNDS)
                .map(App::Cluster)
                .map_err(text),
            Pipeline::MatchDense | Pipeline::MatchDensePerf50 => {
                let mut options = CompileOptions::baseline();
                if pipeline == Pipeline::MatchDensePerf50 {
                    options.perforation = PerforationConfig::strided_similarity(2);
                }
                MatchingApp::with_options(dataset, DIM, TOP_K, &options)
                    .map(App::Match)
                    .map_err(text)
            }
        }
    }

    /// One full run: batched (the production path) or sequential (the
    /// per-sample reference the benchmark uses as its oracle).
    pub fn run(&self, sequential: bool) -> Result<Run, String> {
        let mode = if sequential {
            ExecMode::Sequential
        } else {
            ExecMode::Batched
        };
        match self {
            App::Classify(app) => app.run(mode).map_err(text).map(|r| Run {
                outputs: r.predictions,
                quality: r.accuracy,
                stats: r.stats,
            }),
            App::Match(app) => app.run(mode).map_err(text).map(|r| Run {
                outputs: r.candidates,
                quality: r.recall_at_k,
                stats: r.stats,
            }),
            App::Cluster(app) => app.run(mode).map_err(text).map(|r| Run {
                outputs: r.assignments,
                quality: r.purity,
                stats: r.stats,
            }),
        }
    }

    /// `run_accelerated` with the default, uncalibrated model. Outputs must
    /// equal the CPU run's. Only the classification app is run this way.
    pub fn run_accelerated(&self, accelerator: Accelerator) -> Result<(Run, Modeled), String> {
        let App::Classify(app) = self else {
            return Err("only a classification app is run accelerated".to_string());
        };
        let target = match accelerator {
            Accelerator::Asic => HardwareTarget::DigitalAsic,
            Accelerator::Reram => HardwareTarget::ReRamAccelerator,
        };
        let accelerated = app
            .run_accelerated(&AcceleratorModel::default(), target)
            .map_err(text)?;
        let report = accelerated.modeled;
        let modeled = Modeled {
            cycles: report
                .stages
                .iter()
                .map(|s| s.cycles_per_sample * s.samples as u64)
                .sum(),
            accel_s: report.accel_seconds(),
            accelerated_stages: report.accelerated_stages(),
            demoted_stages: report.demoted.len(),
        };
        let run = Run {
            outputs: accelerated.run.predictions,
            quality: accelerated.run.accuracy,
            stats: accelerated.run.stats,
        };
        Ok((run, modeled))
    }

    pub fn program(&self) -> &Program {
        match self {
            App::Classify(app) => app.program(),
            App::Match(app) => app.program(),
            App::Cluster(app) => app.program(),
        }
    }

    pub fn dataset(&self) -> &Dataset {
        match self {
            App::Classify(app) => app.dataset(),
            App::Match(app) => app.dataset(),
            App::Cluster(app) => app.dataset(),
        }
    }

    pub fn instr_count(&self) -> usize {
        self.program().instr_count()
    }

    /// Seconds of `ir::verify` on the compiled program.
    pub fn verify_seconds(&self) -> Result<f64, String> {
        let (seconds, verdict) = timed(|| hpvm_hdc::ir::verify::verify(self.program()));
        verdict.map(|()| seconds).map_err(text)
    }

    /// Seconds of `analyze::analyze` on the compiled program, and the
    /// number of diagnostics it raised.
    pub fn analyze_seconds(&self) -> (f64, usize) {
        let (seconds, report) = timed(|| hpvm_hdc::analyze::analyze(self.program()));
        (seconds, report.diagnostics.len())
    }

    /// Seconds of `Executor::new` plus binding every input, on the compiled
    /// program: what each run and each serving window pays before its first
    /// instruction.
    pub fn exec_new_bind_seconds(&self) -> Result<f64, String> {
        let d = self.dataset();
        let train = Value::matrix(d.train.features.clone());
        let test = Value::matrix(d.test.features.clone());
        let labels = Value::indices(d.train.labels.clone());
        let inputs: Vec<(&str, Value)> = match self {
            App::Classify(_) => vec![
                ("train_features", train),
                ("test_features", test),
                ("train_labels", labels),
            ],
            App::Match(_) => vec![("library", train), ("queries", test)],
            App::Cluster(_) => vec![("samples", train)],
        };
        let (seconds, bound) = timed(|| -> Result<(), String> {
            let mut exec = Executor::new(self.program()).map_err(text)?;
            for (name, value) in inputs {
                exec.bind(name, value).map_err(text)?;
            }
            Ok(())
        });
        bound.map(|()| seconds)
    }
}

/// The benchmark's own Listing-1-shaped program (encode, binarize, Hamming,
/// arg-min) at a workload's shape, uncompiled: the input of the
/// `passes::compile` probe.
pub fn listing1_program(shape: Shape) -> Program {
    let mut b = ProgramBuilder::new("bench_listing1");
    let features = b.input_vector("features", ElementKind::F64, shape.features);
    let rp = b.input_matrix("rp", ElementKind::F64, DIM, shape.features);
    let classes = b.input_matrix("classes", ElementKind::F64, shape.classes, DIM);
    let encoded = b.matmul(features, rp);
    let signed = b.sign(encoded);
    let class_bits = b.sign(classes);
    let distances = b.hamming_distance(signed, class_bits);
    let label = b.arg_min(distances);
    b.mark_output(label);
    b.finish()
}

/// Seconds of `passes::compile` with the default options, and how many
/// values it binarized.
pub fn passes_compile_seconds(mut program: Program) -> Result<(f64, usize), String> {
    let (seconds, report) = timed(|| compile(&mut program, &CompileOptions::default()));
    let report = report.map_err(text)?;
    Ok((seconds, report.binarize().map_or(0, |b| b.binarized_values)))
}

// ---------------------------------------------------------------------------
// Kernel probes: the benchmark calls a layer's public function itself
// ---------------------------------------------------------------------------

/// Deterministic filler for probe operands (a 64-bit LCG); kernel time does
/// not depend on the values.
fn filler(salt: u64) -> impl FnMut() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15 ^ salt;
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state
    }
}

fn bipolar(rows: usize, cols: usize, salt: u64) -> HyperMatrix<f64> {
    let mut next = filler(salt);
    HyperMatrix::from_fn(
        rows,
        cols,
        |_, _| if next() >> 63 == 0 { 1.0 } else { -1.0 },
    )
}

/// The descriptor `PerforationConfig::strided_similarity` annotates with.
fn stride(step: usize) -> Perforation {
    Perforation::strided(0, usize::MAX, step)
}

/// An operation of `hdc-core` at the shape a workload's program calls it.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// `matmul_batch`: `rows x features` queries into `DIM`.
    Encode { rows: usize, features: usize },
    /// `cosine_similarity_batch` over dense f64 rows.
    ScoreCosine {
        queries: usize,
        classes: usize,
        stride: usize,
    },
    /// `hamming_distance_batch` over bit-packed rows.
    ScoreHammingBits { queries: usize, classes: usize },
    /// `arg_top_k_batch` over a `queries x candidates` score matrix.
    Select {
        queries: usize,
        candidates: usize,
        k: usize,
    },
    /// `accumulate_by_segment_bits`: `rows` bit rows into `segments`.
    Accumulate { rows: usize, segments: usize },
}

impl Kernel {
    /// Seconds of each of `reps` calls, operands built once outside the
    /// timer.
    pub fn seconds(self, reps: usize) -> Result<Vec<f64>, String> {
        let run = |call: &dyn Fn() -> Result<(), String>| -> Result<Vec<f64>, String> {
            (0..reps)
                .map(|_| {
                    let (seconds, outcome) = timed(call);
                    outcome.map(|()| seconds)
                })
                .collect()
        };
        fn keep<T>(result: hpvm_hdc::core::Result<T>) -> Result<(), String> {
            result
                .map(|out| {
                    std::hint::black_box(out);
                })
                .map_err(text)
        }
        match self {
            Kernel::Encode { rows, features } => {
                let queries = bipolar(rows, features, 1);
                let projection = bipolar(DIM, features, 2);
                run(&|| keep(matmul_batch(&queries, &projection, Perforation::NONE)))
            }
            Kernel::ScoreCosine {
                queries,
                classes,
                stride: step,
            } => {
                let q = bipolar(queries, DIM, 3);
                let c = bipolar(classes, DIM, 4);
                run(&|| keep(cosine_similarity_batch(&q, &c, stride(step))))
            }
            Kernel::ScoreHammingBits { queries, classes } => {
                let q = BitMatrix::from_dense(&bipolar(queries, DIM, 7));
                let c = BitMatrix::from_dense(&bipolar(classes, DIM, 8));
                run(&|| keep(hamming_distance_batch(&q, &c, stride(1))))
            }
            Kernel::Select {
                queries,
                candidates,
                k,
            } => {
                let mut next = filler(9);
                let scores =
                    HyperMatrix::from_fn(queries, candidates, |_, _| (next() >> 11) as f64);
                run(&|| keep(arg_top_k_batch(&scores, k)))
            }
            Kernel::Accumulate { rows, segments } => {
                let bits = BitMatrix::from_dense(&bipolar(rows, DIM, 10));
                let assignment: Vec<usize> = (0..rows).map(|i| i % segments).collect();
                let init = HyperMatrix::zeros(segments, DIM);
                run(&|| keep(accumulate_by_segment_bits(&bits, &assignment, &init)))
            }
        }
    }
}

/// Seconds of each of `reps` empty two-item parallel maps: what one
/// parallel call of the rayon shim costs before it does any work.
pub fn par_call_seconds(reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            timed(|| {
                let out: Vec<usize> = vec![0usize, 1].into_par_iter().map(|x| x).collect();
                std::hint::black_box(out);
            })
            .0
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

fn window() -> WindowConfig {
    WindowConfig {
        max_batch: WINDOW_ROWS,
        max_delay: WINDOW_DELAY,
    }
}

fn label(prediction: Prediction) -> Option<usize> {
    match prediction {
        Prediction::Label(label) => Some(label),
        Prediction::TopK(_) => None,
    }
}

/// A trained, servable classifier.
#[derive(Clone)]
pub struct Model(Arc<ServableModel>);

impl Model {
    /// `ServableModel::classifier`: trains the app once and harvests its
    /// projection and class memory.
    pub fn train(app: &App) -> Result<Model, String> {
        match app {
            App::Classify(app) => ServableModel::classifier(MODEL, app)
                .map(|m| Model(Arc::new(m)))
                .map_err(text),
            _ => Err("only a classification app is served".to_string()),
        }
    }

    /// The single-request sequential reference.
    pub fn oracle_infer(&self, row: &[f64]) -> Result<usize, String> {
        let prediction = self.0.oracle_infer(row).map_err(text)?;
        label(prediction).ok_or_else(|| "classifier answered without a label".to_string())
    }

    /// Seconds of one `infer_window` over `rows`, as the dispatcher runs it.
    pub fn window_seconds(&self, rows: &[Vec<f64>]) -> Result<f64, String> {
        let (seconds, outcome) = timed(|| self.0.infer_window(rows, true, None));
        outcome.map(|_| seconds).map_err(text)
    }

    /// Seconds of `Executor::new` plus binding the queries on the
    /// one-row window program.
    pub fn exec_new_bind_seconds(&self, row: &[f64]) -> Result<f64, String> {
        let program = self.0.program_for(1).map_err(text)?;
        let queries = HyperMatrix::from_flat(1, row.len(), row.to_vec()).map_err(text)?;
        let value = Value::matrix(queries);
        let (seconds, bound) = timed(|| -> Result<(), String> {
            let mut exec = Executor::new(&program).map_err(text)?;
            exec.bind("queries", value).map_err(text)?;
            Ok(())
        });
        bound.map(|()| seconds)
    }

    fn registry(&self) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(MODEL, Arc::clone(&self.0));
        registry
    }
}

fn trainer(registry: Arc<ModelRegistry>, policy: SwapPolicy) -> Result<OnlineTrainer, String> {
    let config = OnlineTrainerConfig {
        policy,
        class_shards: None,
    };
    OnlineTrainer::attach(registry, MODEL, config).map_err(text)
}

/// A running service over one model, answering requests drawn from `pool`.
pub struct Server {
    service: Arc<Service>,
    pool: Arc<Vec<Vec<f64>>>,
}

impl Server {
    /// `Service::start` over a fresh registry holding `model`.
    pub fn start(model: &Model, pool: Arc<Vec<Vec<f64>>>) -> Server {
        let config = ServiceConfig {
            window: window(),
            class_shards: None,
            batched: true,
        };
        Server {
            service: Service::start(model.registry(), config),
            pool,
        }
    }

    /// Attach an online trainer that publishes every
    /// `SWAP_EVERY_UPDATES` updates.
    pub fn attach_trainer(&self) -> Result<(), String> {
        let registry = Arc::clone(self.service.registry());
        let trainer = trainer(registry, SwapPolicy::every_updates(SWAP_EVERY_UPDATES))?;
        self.service.attach_trainer(trainer);
        Ok(())
    }

    /// `Service::feedback`: encode, shadow update and any publish. `true`
    /// when the call published a new generation.
    pub fn feedback(&self, row: &[f64], label: usize) -> Result<bool, String> {
        self.service
            .feedback(MODEL, row, label)
            .map(|outcome| outcome.published.is_some())
            .map_err(text)
    }

    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Stop the dispatcher and wait for it.
    pub fn shutdown(self) {
        self.service.shutdown();
        // Dropping the last handle joins the dispatcher thread.
        drop(self.service);
    }
}

impl Target for Server {
    type Ticket = ResponseFuture;

    fn submit(&self, request: usize) -> ResponseFuture {
        let row = self.pool[request % self.pool.len()].clone();
        self.service.submit(MODEL, row)
    }

    fn wait(&self, ticket: ResponseFuture) -> Option<usize> {
        ticket.wait().ok().and_then(label)
    }
}

/// What the sequential reference answers along a feedback tape.
pub struct Reference {
    /// The live generation's `oracle_infer` for each tape sample, asked
    /// before the sample's feedback is applied.
    pub replies: Vec<usize>,
    /// Tape positions whose feedback published a new generation.
    pub published_at: Vec<usize>,
    /// Seconds of each detached `feed_one`.
    pub feed_seconds: Vec<f64>,
}

/// Replay `tape` against a detached trainer, with no service: query the
/// live generation through the oracle, feed the label, follow
/// `FeedOutcome::published`. The served replay must answer the same.
pub fn reference_replay(model: &Model, tape: &Tape) -> Result<Reference, String> {
    let mut trainer = trainer(
        model.registry(),
        SwapPolicy::every_updates(SWAP_EVERY_UPDATES),
    )?;
    let mut live = model.clone();
    let mut reference = Reference {
        replies: Vec::with_capacity(tape.samples.len()),
        published_at: Vec::new(),
        feed_seconds: Vec::with_capacity(tape.samples.len()),
    };
    for (position, (row, label)) in tape.samples.iter().enumerate() {
        reference.replies.push(live.oracle_infer(row)?);
        let (seconds, outcome) = timed(|| trainer.feed_one(row, *label));
        reference.feed_seconds.push(seconds);
        if let Some(next) = outcome.map_err(text)?.published {
            live = Model(next);
            reference.published_at.push(position);
        }
    }
    Ok(reference)
}

/// Seconds of one `OnlineTrainer::publish` (re-freeze and swap) of a
/// detached trainer holding the updates of the whole tape.
pub fn publish_seconds(model: &Model, tape: &Tape) -> Result<f64, String> {
    let mut trainer = trainer(model.registry(), SwapPolicy::manual())?;
    for (row, label) in &tape.samples {
        trainer.feed_one(row, *label).map_err(text)?;
    }
    let (seconds, published) = timed(|| trainer.publish());
    published.map(|_| seconds).map_err(text)
}

/// Mean seconds of a `Coalescer::push`, over one window's worth of pushes
/// ending in the size-full flush.
pub fn coalescer_push_seconds() -> f64 {
    let mut coalescer = Coalescer::new(window());
    let now = Instant::now();
    let (seconds, flushed) = timed(|| {
        let mut flushed = None;
        for item in 0..WINDOW_ROWS {
            flushed = coalescer.push(item, now);
        }
        flushed
    });
    assert_eq!(flushed.map(|w| w.len()), Some(WINDOW_ROWS));
    seconds / WINDOW_ROWS as f64
}

/// Mean seconds of `ModelRegistry::get` and of `ModelRegistry::swap`.
pub fn registry_seconds(model: &Model, calls: usize) -> Result<(f64, f64), String> {
    let registry = model.registry();
    let (get, found) = timed(|| (0..calls).try_for_each(|_| registry.get(MODEL).map(|_| ())));
    found.map_err(text)?;
    let (swap, ()) = timed(|| {
        for _ in 0..calls {
            std::hint::black_box(registry.swap(MODEL, Arc::clone(&model.0)));
        }
    });
    Ok((get / calls as f64, swap / calls as f64))
}
