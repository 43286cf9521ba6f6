//! `perf_json`: the machine-readable performance harness.
//!
//! Two workload families, each run through the `hdc-runtime` executor twice
//! per configuration — once on the per-sample sequential reference oracle
//! and once on the batched matrix-level kernel path — with identical
//! outputs asserted before any timing is recorded:
//!
//! * the **kernel grid** (`records`): a fixed inference grid, dims
//!   {2048, 10240} × classes {26, 100} × dense/binarized × perforation
//!   {1.0, 0.5};
//! * the **application suite** (`apps`): the three `hdc-apps` workloads
//!   (classification with retraining, clustering, top-k spectral matching)
//!   on their seeded `hdc-datasets` generators, compiled through the full
//!   pass pipeline;
//! * the **training section** (`training`): how the batched training /
//!   clustering-update patterns executed — epoch kernels launched,
//!   samples re-scored to stay bit-identical to the oracle, and the
//!   resulting end-to-end speedup per app;
//! * the **accelerator section** (`accelerator`): the unperforated kernel
//!   grid points and all three apps re-targeted onto the two modeled HDC
//!   accelerators (`hdc-accel`), with outputs asserted identical to the
//!   batched CPU run and the *modeled* accelerator-vs-CPU speedup, cycle
//!   and energy accounting recorded (deterministic — no wall clocks);
//! * the **scaling section** (`scaling`): the unperforated kernel grid
//!   re-run on the batched path at 1/2/4/8 worker threads
//!   (`rayon::set_num_threads`), each point's labels asserted identical to
//!   the sequential oracle and its class-memory shard/merge counters
//!   recorded — the measured two-axis (rows × class shards) scaling curve,
//!   stamped with the physical core count so a 1-core container's flat
//!   curve reads as what it is.
//!
//! Results land as JSON (default `BENCH_results.json`), establishing the
//! perf-trajectory snapshot every future PR is measured against. Run
//! `perf_json --help` for the flag and schema reference.
//!
//! Exit code is non-zero if any configuration's batched or accelerated
//! outputs diverge from the sequential oracle (or a flag is unrecognized),
//! so wiring the smoke grid into CI keeps the JSON emitter, the app suite,
//! the accelerator model, and the equivalence guarantee from rotting.

#![forbid(unsafe_code)]

use hdc_accel::{AcceleratedExecutor, AcceleratorModel};
use hdc_apps::{ClassificationApp, ClusteringApp, ExecMode, MatchingApp};
use hdc_bench::calibrate::CpuCalibration;
use hdc_core::element::ElementKind;
use hdc_core::prelude::*;
use hdc_datasets::drift::{
    concept_drift, incremental_classes, label_shift, windowed_accuracy, ConceptDriftParams,
    DriftScenario, IncrementalClassParams, LabelShiftParams,
};
use hdc_datasets::synthetic::{
    emg_like, hyperoms_like, isolet_like, EmgParams, HyperOmsParams, IsoletParams,
};
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{Program, ValueId};
use hdc_ir::stage::ScorePolarity;
use hdc_ir::Target;
use hdc_runtime::{ExecStats, Executor, Value};
use hdc_serve::{
    run_load, LoadConfig, LoadReport, ModelRegistry, OnlineTrainer, OnlineTrainerConfig,
    Prediction, ServableModel, Service, ServiceConfig, SwapPolicy, WindowConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The accelerator targets the model covers, in report order.
const ACCEL_TARGETS: [Target; 2] = [Target::DigitalAsic, Target::ReRamAccelerator];

/// Worker-thread counts the scaling section sweeps the batched path over.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One grid point: an inference workload shape.
#[derive(Debug, Clone, Copy)]
struct Config {
    dim: usize,
    classes: usize,
    queries: usize,
    binarized: bool,
    /// Reduction stride: 1 visits every element (fraction 1.0), 2 visits
    /// half (fraction 0.5).
    stride: usize,
}

impl Config {
    fn perforation_fraction(&self) -> f64 {
        1.0 / self.stride as f64
    }

    fn representation(&self) -> &'static str {
        if self.binarized {
            "binarized"
        } else {
            "dense"
        }
    }

    fn metric(&self) -> &'static str {
        if self.binarized {
            "hamming"
        } else {
            "cosine"
        }
    }
}

/// One measured grid point.
struct Record {
    cfg: Config,
    sequential_ms: f64,
    batched_ms: f64,
    outputs_match: bool,
    /// Worker threads the batched run executed with
    /// (`rayon::current_num_threads()` at measurement time).
    threads_used: usize,
    sequential_stats: ExecStats,
    batched_stats: ExecStats,
}

fn full_grid() -> Vec<Config> {
    let mut grid = Vec::new();
    for &dim in &[2048usize, 10240] {
        for &classes in &[26usize, 100] {
            for &binarized in &[false, true] {
                for &stride in &[1usize, 2] {
                    // The binarized path is cheap enough for the full
                    // 1000-query load; the dense oracle is O(dim*classes)
                    // flops per sample, so trim its batch to keep the grid
                    // under a minute.
                    let queries = if binarized { 1000 } else { 250 };
                    grid.push(Config {
                        dim,
                        classes,
                        queries,
                        binarized,
                        stride,
                    });
                }
            }
        }
    }
    grid
}

fn smoke_grid() -> Vec<Config> {
    let mut grid = Vec::new();
    for &binarized in &[false, true] {
        for &stride in &[1usize, 2] {
            grid.push(Config {
                dim: 256,
                classes: 8,
                queries: 16,
                binarized,
                stride,
            });
        }
    }
    grid
}

/// Build the inference program for one grid point: classify every query row
/// against the class matrix with the representation's natural metric
/// (XOR/popcount Hamming when binarized, cosine when dense).
fn build_program(cfg: &Config) -> (Program, ValueId) {
    let elem = if cfg.binarized {
        ElementKind::Bit
    } else {
        ElementKind::F64
    };
    let mut b = ProgramBuilder::new("perf_infer");
    let q = b.input_matrix("queries", elem, cfg.queries, cfg.dim);
    let c = b.input_matrix("classes", elem, cfg.classes, cfg.dim);
    let polarity = if cfg.binarized {
        ScorePolarity::Distance
    } else {
        ScorePolarity::Similarity
    };
    let dim = cfg.dim;
    let stride = cfg.stride;
    let binarized = cfg.binarized;
    let preds = b.inference_loop("infer", q, c, polarity, |b, s| {
        let d = if binarized {
            b.hamming_distance(s, c)
        } else {
            b.cossim(s, c)
        };
        if stride > 1 {
            b.red_perf(d, 0, dim, stride);
        }
        d
    });
    b.mark_output(preds);
    (b.finish(), preds)
}

/// Deterministic workload data: bipolar class prototypes and queries that
/// are noisy prototype copies, so the classification is non-trivial.
fn build_data(cfg: &Config) -> (Value, Value) {
    let mut rng = HdcRng::seed_from_u64(0xBE2C + cfg.dim as u64 + cfg.classes as u64);
    let classes: HyperMatrix<f64> =
        hdc_core::random::bipolar_hypermatrix(cfg.classes, cfg.dim, &mut rng);
    let query_rows: Vec<HyperVector<f64>> = (0..cfg.queries)
        .map(|i| {
            let mut v = classes
                .row_vector(i % cfg.classes)
                .expect("class row in range");
            // Flip ~10% of the elements.
            for k in 0..cfg.dim / 10 {
                let idx = (k * 7 + i * 13) % cfg.dim;
                let flipped = -v.get(idx).expect("index in range");
                v.set(idx, flipped).expect("index in range");
            }
            v
        })
        .collect();
    let queries = HyperMatrix::from_rows(query_rows).expect("equal row dims");
    if cfg.binarized {
        (
            Value::bit_matrix(BitMatrix::from_dense(&queries)),
            Value::bit_matrix(BitMatrix::from_dense(&classes)),
        )
    } else {
        (Value::matrix(queries), Value::matrix(classes))
    }
}

/// Run one mode `reps` times; report the best wall-clock (milliseconds),
/// the predicted labels, and the executor stats of the final rep.
fn run_mode(
    program: &Program,
    preds: ValueId,
    queries: &Value,
    classes: &Value,
    batched: bool,
    reps: usize,
) -> (f64, Vec<usize>, ExecStats) {
    let mut best_ms = f64::INFINITY;
    let mut labels = Vec::new();
    let mut stats = ExecStats::default();
    for _ in 0..reps.max(1) {
        let mut exec = Executor::new(program).expect("program verifies");
        exec.set_batched_stages(batched);
        exec.set_parallel_loops(batched);
        exec.bind("queries", queries.clone())
            .expect("shape checked");
        exec.bind("classes", classes.clone())
            .expect("shape checked");
        let start = Instant::now();
        let out = exec.run().expect("workload executes");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
        labels = out.indices(preds).expect("labels output").to_vec();
        stats = exec.stats();
    }
    (best_ms, labels, stats)
}

fn measure(cfg: Config, reps: usize) -> Record {
    let (program, preds) = build_program(&cfg);
    let (queries, classes) = build_data(&cfg);
    let (sequential_ms, seq_labels, sequential_stats) =
        run_mode(&program, preds, &queries, &classes, false, reps);
    let (batched_ms, bat_labels, batched_stats) =
        run_mode(&program, preds, &queries, &classes, true, reps);
    Record {
        cfg,
        sequential_ms,
        batched_ms,
        outputs_match: seq_labels == bat_labels,
        threads_used: rayon::current_num_threads(),
        sequential_stats,
        batched_stats,
    }
}

// ---------------------------------------------------------------------------
// scaling section: the batched kernel grid across worker-thread counts
// ---------------------------------------------------------------------------

/// One thread count of one scaling record.
struct ScalingPoint {
    threads_requested: usize,
    /// What `rayon::current_num_threads()` resolved to under the override —
    /// equal to the request (the pool oversubscribes a smaller host; the
    /// top-level `cores_physical` field says whether it did).
    threads_used: usize,
    batched_ms: f64,
    /// This point's time relative to the same configuration at 1 thread.
    speedup_vs_1: f64,
    /// Batched labels identical to the sequential oracle at this count.
    outputs_match: bool,
    /// Class-memory shards the executor chose across the run (second
    /// parallel axis; 0 when every kernel ran unsharded).
    class_shards: usize,
    /// Pairwise reduction-tree merges performed to fold shard partials.
    shard_merge_ops: usize,
}

/// One unperforated grid point swept over [`THREAD_SWEEP`].
struct ScalingRecord {
    cfg: Config,
    points: Vec<ScalingPoint>,
}

/// Sweep the batched path over the thread counts, asserting every point
/// against the sequential oracle. The thread override is cleared before
/// returning.
fn measure_scaling(grid: &[Config], reps: usize) -> Vec<ScalingRecord> {
    let mut out = Vec::new();
    for &cfg in grid.iter().filter(|c| c.stride == 1) {
        let (program, preds) = build_program(&cfg);
        let (queries, classes) = build_data(&cfg);
        let (_, reference, _) = run_mode(&program, preds, &queries, &classes, false, 1);
        let mut points: Vec<ScalingPoint> = Vec::with_capacity(THREAD_SWEEP.len());
        for &threads in &THREAD_SWEEP {
            rayon::set_num_threads(threads);
            let (ms, labels, stats) = run_mode(&program, preds, &queries, &classes, true, reps);
            let base_ms = points.first().map_or(ms, |p| p.batched_ms);
            points.push(ScalingPoint {
                threads_requested: threads,
                threads_used: rayon::current_num_threads(),
                batched_ms: ms,
                speedup_vs_1: base_ms / ms,
                outputs_match: labels == reference,
                class_shards: stats.class_shards,
                shard_merge_ops: stats.shard_merge_ops,
            });
        }
        rayon::set_num_threads(0);
        out.push(ScalingRecord { cfg, points });
    }
    out
}

// ---------------------------------------------------------------------------
// application suite
// ---------------------------------------------------------------------------

/// One measured application workload.
struct AppRecord {
    app: &'static str,
    dataset: &'static str,
    dim: usize,
    /// Samples the timed output covers (test samples, clustered samples, or
    /// queries).
    samples: usize,
    quality_metric: &'static str,
    quality: f64,
    sequential_ms: f64,
    batched_ms: f64,
    outputs_match: bool,
    batched_stats: ExecStats,
    sequential_stats: ExecStats,
}

/// Time `run` in both executor modes (`reps` times each, best wall-clock),
/// and compare outputs. `run` returns `(predictions, quality, stats)`.
fn time_app(
    reps: usize,
    run: impl Fn(ExecMode) -> (Vec<usize>, f64, ExecStats),
) -> (f64, f64, bool, f64, ExecStats, ExecStats) {
    let mut best = [f64::INFINITY; 2];
    let mut outputs: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut quality = 0.0;
    let mut stats = [ExecStats::default(); 2];
    for (slot, mode) in [ExecMode::Sequential, ExecMode::Batched]
        .into_iter()
        .enumerate()
    {
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let (preds, q, s) = run(mode);
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e3);
            outputs[slot] = preds;
            quality = q;
            stats[slot] = s;
        }
    }
    let matches = outputs[0] == outputs[1];
    (best[0], best[1], matches, quality, stats[0], stats[1])
}

/// One training-pattern record of the schema-v4 `training` section: how the
/// batched-epoch training schedule (classification) and the
/// segmented-reduction clustering update actually executed, from the
/// batched run's [`ExecStats`] counters.
struct TrainingRecord {
    app: &'static str,
    /// `epoch_training` (blocked re-freeze scoring + in-order replay) or
    /// `segmented_update` (accumulate-by-assignment collapsed to one
    /// kernel).
    pattern: &'static str,
    /// Training epochs or clustering rounds unrolled into the program.
    passes: usize,
    /// Samples each pass covers.
    train_samples: usize,
    epoch_kernel_ops: usize,
    rescored_samples: usize,
    /// `(sample, class row)` scores patched on behalf of those samples.
    rescored_rows: usize,
    /// `rescored_samples / (passes x train_samples)`: the fraction of
    /// per-sample predictions whose frozen score row the batched schedule
    /// had to patch against the live class matrix to stay bit-identical to
    /// the oracle.
    rescore_rate: f64,
    /// End-to-end app speedup (sequential_ms / batched_ms).
    speedup: f64,
    outputs_match: bool,
}

fn training_records(suite: &AppSuite, apps: &[AppRecord]) -> Vec<TrainingRecord> {
    let by_name = |name: &str| {
        apps.iter()
            .find(|r| r.app == name)
            .expect("app record present")
    };
    let classification = {
        let record = by_name("classification_retrain");
        let passes = suite.classification.epochs();
        let samples = suite.classification.dataset().train.len();
        let rescored = record.batched_stats.rescored_samples;
        TrainingRecord {
            app: record.app,
            pattern: "epoch_training",
            passes,
            train_samples: samples,
            epoch_kernel_ops: record.batched_stats.epoch_kernel_ops,
            rescored_samples: rescored,
            rescored_rows: record.batched_stats.rescored_rows,
            rescore_rate: rescored as f64 / (passes * samples).max(1) as f64,
            speedup: record.sequential_ms / record.batched_ms,
            outputs_match: record.outputs_match,
        }
    };
    let clustering = {
        let record = by_name("clustering");
        let passes = suite.clustering.rounds();
        let samples = suite.clustering.dataset().train.len();
        let rescored = record.batched_stats.rescored_samples;
        TrainingRecord {
            app: record.app,
            pattern: "segmented_update",
            passes,
            train_samples: samples,
            epoch_kernel_ops: record.batched_stats.epoch_kernel_ops,
            rescored_samples: rescored,
            rescored_rows: record.batched_stats.rescored_rows,
            // The segmented update never re-scores today; deriving the rate
            // keeps the record self-consistent if that ever changes.
            rescore_rate: rescored as f64 / (passes * samples).max(1) as f64,
            speedup: record.sequential_ms / record.batched_ms,
            outputs_match: record.outputs_match,
        }
    };
    vec![classification, clustering]
}

/// The three compiled applications, built once and shared between the
/// CPU-mode timing section and the accelerator model section.
struct AppSuite {
    classification: ClassificationApp,
    classification_dim: usize,
    clustering: ClusteringApp,
    clustering_dim: usize,
    matching: MatchingApp,
    matching_dim: usize,
}

fn build_apps(smoke: bool) -> AppSuite {
    let (isolet_params, classification_dim, epochs) = if smoke {
        (
            IsoletParams {
                classes: 4,
                features: 64,
                train_per_class: 4,
                test_per_class: 2,
                noise: 1.5,
                seed: 0xA11,
            },
            256,
            2,
        )
    } else {
        (IsoletParams::default(), 2048, 3)
    };
    let (emg_params, clustering_dim, rounds) = if smoke {
        (
            EmgParams {
                gestures: 3,
                channels: 2,
                window: 16,
                train_per_class: 6,
                test_per_class: 1,
                noise: 0.5,
                phase_jitter: 0.5,
                seed: 0xC1,
            },
            256,
            2,
        )
    } else {
        (
            EmgParams {
                gestures: 8,
                channels: 4,
                window: 64,
                train_per_class: 24,
                test_per_class: 1,
                noise: 0.6,
                phase_jitter: 0.5,
                seed: 0xC1,
            },
            2048,
            3,
        )
    };
    let (oms_params, matching_dim, k) = if smoke {
        (
            HyperOmsParams {
                library_size: 16,
                bins: 80,
                peaks: 8,
                queries_per_entry: 1,
                ..HyperOmsParams::default()
            },
            256,
            3,
        )
    } else {
        (
            HyperOmsParams {
                library_size: 256,
                bins: 400,
                peaks: 24,
                queries_per_entry: 2,
                ..HyperOmsParams::default()
            },
            2048,
            10,
        )
    };
    AppSuite {
        classification: ClassificationApp::new(
            isolet_like(&isolet_params),
            classification_dim,
            epochs,
        )
        .expect("app compiles"),
        classification_dim,
        clustering: ClusteringApp::new(emg_like(&emg_params), clustering_dim, rounds)
            .expect("app compiles"),
        clustering_dim,
        matching: MatchingApp::new(hyperoms_like(&oms_params), matching_dim, k)
            .expect("app compiles"),
        matching_dim,
    }
}

fn measure_classification(suite: &AppSuite, reps: usize) -> AppRecord {
    let app = &suite.classification;
    let (sequential_ms, batched_ms, outputs_match, quality, sequential_stats, batched_stats) =
        time_app(reps, |mode| {
            let run = app.run(mode).expect("classification executes");
            (run.predictions, run.accuracy, run.stats)
        });
    AppRecord {
        app: "classification_retrain",
        dataset: "isolet-like",
        dim: suite.classification_dim,
        samples: app.dataset().test.len(),
        quality_metric: "test_accuracy",
        quality,
        sequential_ms,
        batched_ms,
        outputs_match,
        batched_stats,
        sequential_stats,
    }
}

fn measure_clustering(suite: &AppSuite, reps: usize) -> AppRecord {
    let app = &suite.clustering;
    let (sequential_ms, batched_ms, outputs_match, quality, sequential_stats, batched_stats) =
        time_app(reps, |mode| {
            let run = app.run(mode).expect("clustering executes");
            (run.assignments, run.purity, run.stats)
        });
    AppRecord {
        app: "clustering",
        dataset: "emg-like",
        dim: suite.clustering_dim,
        samples: app.dataset().train.len(),
        quality_metric: "purity",
        quality,
        sequential_ms,
        batched_ms,
        outputs_match,
        batched_stats,
        sequential_stats,
    }
}

fn measure_matching(suite: &AppSuite, reps: usize) -> AppRecord {
    let app = &suite.matching;
    let (sequential_ms, batched_ms, outputs_match, quality, sequential_stats, batched_stats) =
        time_app(reps, |mode| {
            let run = app.run(mode).expect("matching executes");
            (run.candidates, run.recall_at_k, run.stats)
        });
    AppRecord {
        app: "spectral_matching_topk",
        dataset: "hyperoms-like",
        dim: suite.matching_dim,
        samples: app.dataset().test.len(),
        quality_metric: "recall_at_k",
        quality,
        sequential_ms,
        batched_ms,
        outputs_match,
        batched_stats,
        sequential_stats,
    }
}

// ---------------------------------------------------------------------------
// accelerator model section
// ---------------------------------------------------------------------------

/// Modeled totals shared by the kernel-grid and app accelerator records.
struct AccelSummary {
    accelerated_stages: usize,
    demoted_stages: usize,
    programming_bits: u64,
    /// Total datapath cycles across all accelerated stages and samples
    /// (per-stage rates are weighted by their own sample counts — a
    /// training stage's epochs×samples passes and an inference stage's
    /// query count never share one denominator).
    modeled_cycles_total: u64,
    modeled_accel_ms: f64,
    modeled_cpu_ms: f64,
    modeled_speedup: f64,
    modeled_energy_uj: f64,
    /// Widest multi-chip tiling any stage needed (1 = everything fit one
    /// device array).
    chips_max: u64,
    /// Total modeled chip-to-chip transfer time of multi-chip tilings (ms);
    /// zero when every stage fit one chip.
    modeled_interconnect_ms: f64,
    outputs_match: bool,
}

fn summarize(report: &hdc_accel::AccelReport, outputs_match: bool) -> AccelSummary {
    AccelSummary {
        accelerated_stages: report.accelerated_stages(),
        demoted_stages: report.demoted.len(),
        programming_bits: report.stages.iter().map(|s| s.programming_bits).sum(),
        modeled_cycles_total: report
            .stages
            .iter()
            .map(|s| s.cycles_per_sample * s.samples as u64)
            .sum(),
        modeled_accel_ms: report.accel_seconds() * 1e3,
        modeled_cpu_ms: report.cpu_seconds() * 1e3,
        modeled_speedup: report.modeled_speedup(),
        modeled_energy_uj: report.energy_joules() * 1e6,
        chips_max: report.stages.iter().map(|s| s.chips).max().unwrap_or(1),
        modeled_interconnect_ms: report
            .stages
            .iter()
            .map(|s| s.interconnect_seconds)
            .sum::<f64>()
            * 1e3,
        outputs_match,
    }
}

/// The shared trailing fields of an accelerator JSON record.
fn summary_json_fields(s: &AccelSummary) -> String {
    format!(
        concat!(
            "        \"accelerated_stages\": {},\n",
            "        \"demoted_stages\": {},\n",
            "        \"programming_bits\": {},\n",
            "        \"modeled_cycles_total\": {},\n",
            "        \"modeled_accel_ms\": {:.6},\n",
            "        \"modeled_cpu_ms\": {:.6},\n",
            "        \"modeled_speedup\": {:.2},\n",
            "        \"modeled_energy_uj\": {:.3},\n",
            "        \"chips_max\": {},\n",
            "        \"modeled_interconnect_ms\": {:.6},\n",
            "        \"outputs_match\": {}\n"
        ),
        s.accelerated_stages,
        s.demoted_stages,
        s.programming_bits,
        s.modeled_cycles_total,
        s.modeled_accel_ms,
        s.modeled_cpu_ms,
        s.modeled_speedup,
        s.modeled_energy_uj,
        s.chips_max,
        s.modeled_interconnect_ms,
        s.outputs_match,
    )
}

/// One kernel-grid point on one modeled accelerator.
struct AccelKernelRecord {
    cfg: Config,
    target: Target,
    summary: AccelSummary,
}

/// Model one unperforated kernel-grid point on `target`: run it through the
/// accelerated executor and compare labels against the batched CPU run.
fn measure_accel_kernel(
    cfg: Config,
    target: Target,
    model: &AcceleratorModel,
) -> AccelKernelRecord {
    let (program, preds) = build_program(&cfg);
    let (queries, classes) = build_data(&cfg);
    let (_, reference, _) = run_mode(&program, preds, &queries, &classes, true, 1);
    let ax = AcceleratedExecutor::new(&program, target, model.clone());
    let run = ax
        .run_with(|exec| {
            exec.bind("queries", queries.clone())?;
            exec.bind("classes", classes.clone())?;
            Ok(())
        })
        .expect("accelerated workload executes");
    let labels = run.outputs.indices(preds).expect("labels output").to_vec();
    AccelKernelRecord {
        cfg,
        target,
        summary: summarize(&run.stats.modeled, labels == reference),
    }
}

/// One application on one modeled accelerator.
struct AccelAppRecord {
    app: &'static str,
    target: Target,
    summary: AccelSummary,
}

/// The batched CPU predictions each accelerated app run is compared
/// against, computed once and shared across all accelerator targets.
struct AppReferences {
    classification: Vec<usize>,
    clustering: Vec<usize>,
    matching: Vec<usize>,
}

fn app_references(suite: &AppSuite) -> AppReferences {
    AppReferences {
        classification: suite
            .classification
            .run(ExecMode::Batched)
            .expect("classification executes")
            .predictions,
        clustering: suite
            .clustering
            .run(ExecMode::Batched)
            .expect("clustering executes")
            .assignments,
        matching: suite
            .matching
            .run(ExecMode::Batched)
            .expect("matching executes")
            .candidates,
    }
}

/// Model all three applications on `target`, comparing predictions against
/// the shared batched CPU references.
fn measure_accel_apps(
    suite: &AppSuite,
    refs: &AppReferences,
    target: Target,
    model: &AcceleratorModel,
) -> Vec<AccelAppRecord> {
    let classification = {
        let accel = suite
            .classification
            .run_accelerated(model, target)
            .expect("accelerated classification executes");
        AccelAppRecord {
            app: "classification_retrain",
            target,
            summary: summarize(&accel.modeled, accel.run.predictions == refs.classification),
        }
    };
    let clustering = {
        let accel = suite
            .clustering
            .run_accelerated(model, target)
            .expect("accelerated clustering executes");
        AccelAppRecord {
            app: "clustering",
            target,
            summary: summarize(&accel.modeled, accel.run.assignments == refs.clustering),
        }
    };
    let matching = {
        let accel = suite
            .matching
            .run_accelerated(model, target)
            .expect("accelerated matching executes");
        AccelAppRecord {
            app: "spectral_matching_topk",
            target,
            summary: summarize(&accel.modeled, accel.run.candidates == refs.matching),
        }
    };
    vec![classification, clustering, matching]
}

// ---------------------------------------------------------------------------
// serving section: micro-batching coalescer vs batch-size-1 dispatch
// ---------------------------------------------------------------------------

/// Concurrency levels (submitter lanes) the serving section sweeps.
const SERVING_CONCURRENCY: [usize; 2] = [4, 16];

/// Requests per load run: enough windows for stable percentiles while
/// keeping the smoke tier in CI time.
fn serving_requests(smoke: bool) -> usize {
    if smoke {
        240
    } else {
        960
    }
}

/// One load run: a window policy at one concurrency level.
struct ServingRecord {
    /// `micro_batch` (time/size-windowed coalescing) or `single`
    /// (batch-size-1 dispatch — every request is its own window).
    mode: &'static str,
    window_batch: usize,
    window_delay_us: u64,
    report: LoadReport,
    /// Windows the service dispatched, and how they flushed.
    windows: u64,
    size_full_windows: u64,
    deadline_windows: u64,
    max_window_rows: u64,
}

/// Run the open-loop load generator against the serving stack: the
/// classification app's model behind a [`Service`], each concurrency level
/// under the micro-batching window and under batch-size-1 dispatch, every
/// response checked against the sequential per-request oracle.
fn measure_serving(suite: &AppSuite, smoke: bool) -> Vec<ServingRecord> {
    let model = Arc::new(
        ServableModel::classifier("classification", &suite.classification)
            .expect("servable model builds"),
    );
    let queries: Vec<Vec<f64>> = {
        let test = &suite.classification.dataset().test;
        (0..test.len())
            .map(|i| test.features.row(i).expect("row in range").to_vec())
            .collect()
    };
    let requests = serving_requests(smoke);
    // Offered far above either policy's capacity so both runs are
    // throughput-bound and the QPS comparison is a capacity comparison.
    let offered_qps = 50_000.0;
    let mut records = Vec::new();
    for &concurrency in &SERVING_CONCURRENCY {
        // The micro-batch window is sized to the offered parallelism so
        // saturated lanes flush size-full; the deadline is only the
        // straggler bound (docs/serving.md discusses the tradeoff).
        let policies: [(&'static str, WindowConfig); 2] = [
            (
                "micro_batch",
                WindowConfig {
                    max_batch: concurrency,
                    max_delay: Duration::from_micros(300),
                },
            ),
            (
                "single",
                WindowConfig {
                    max_batch: 1,
                    max_delay: Duration::ZERO,
                },
            ),
        ];
        for (mode, window) in policies {
            let registry = Arc::new(ModelRegistry::new());
            registry.register("classification", Arc::clone(&model));
            let service = Service::start(
                registry,
                ServiceConfig {
                    window,
                    ..ServiceConfig::default()
                },
            );
            let report = run_load(
                &service,
                &model,
                &queries,
                &LoadConfig {
                    model: "classification".to_string(),
                    concurrency,
                    qps: offered_qps,
                    requests,
                    check: true,
                },
            );
            let stats = service.stats();
            service.shutdown();
            records.push(ServingRecord {
                mode,
                window_batch: window.max_batch,
                window_delay_us: window.max_delay.as_micros() as u64,
                report,
                windows: stats.windows,
                size_full_windows: stats.size_full_windows,
                deadline_windows: stats.deadline_windows,
                max_window_rows: stats.max_window_rows,
            });
        }
    }
    records
}

fn serving_record_json(r: &ServingRecord) -> String {
    format!(
        concat!(
            "      {{\n",
            "        \"mode\": \"{}\",\n",
            "        \"window_batch\": {},\n",
            "        \"window_delay_us\": {},\n",
            "        \"concurrency\": {},\n",
            "        \"offered_qps\": {:.1},\n",
            "        \"achieved_qps\": {:.1},\n",
            "        \"completed\": {},\n",
            "        \"failed\": {},\n",
            "        \"mismatched\": {},\n",
            "        \"p50_us\": {},\n",
            "        \"p99_us\": {},\n",
            "        \"mean_us\": {},\n",
            "        \"max_us\": {},\n",
            "        \"windows\": {},\n",
            "        \"size_full_windows\": {},\n",
            "        \"deadline_windows\": {},\n",
            "        \"max_window_rows\": {}\n",
            "      }}"
        ),
        json_escape_free(r.mode),
        r.window_batch,
        r.window_delay_us,
        r.report.concurrency,
        r.report.offered_qps,
        r.report.achieved_qps,
        r.report.completed,
        r.report.failed,
        r.report.mismatched,
        r.report.p50_us,
        r.report.p99_us,
        r.report.mean_us,
        r.report.max_us,
        r.windows,
        r.size_full_windows,
        r.deadline_windows,
        r.max_window_rows,
    )
}

fn serving_json(suite: &AppSuite, records: &[ServingRecord], smoke: bool) -> String {
    let rows: Vec<String> = records.iter().map(serving_record_json).collect();
    format!(
        concat!(
            "  \"serving\": {{\n",
            "    \"model\": \"classification\",\n",
            "    \"dim\": {},\n",
            "    \"requests_per_run\": {},\n",
            "    \"records\": [\n{}\n    ]\n",
            "  }}"
        ),
        suite.classification_dim,
        serving_requests(smoke),
        rows.join(",\n"),
    )
}

/// Updates the online trainer's swap policy publishes after.
const ONLINE_SWAP_EVERY_UPDATES: u64 = 8;

/// One drift scenario replayed prequentially through the serving stack
/// against a static and an adapting copy of the same base model.
struct OnlineRecord {
    scenario: &'static str,
    classes: usize,
    features: usize,
    samples: usize,
    /// Tape index where the drift switches on.
    onset: usize,
    /// Samples per accuracy-over-time window.
    window: usize,
    /// Generations the swap policy published during the replay.
    swaps: u64,
    /// Perceptron updates applied to the shadow.
    updates: u64,
    /// Feedback calls that errored (must be 0).
    feedback_failed: u64,
    /// Responses diverging from the live generation's sequential oracle
    /// (must be 0 — no request may observe a torn swap).
    mismatched: u64,
    mean_update_latency_us: u64,
    max_update_latency_us: u64,
    static_accuracy: Vec<f64>,
    adapting_accuracy: Vec<f64>,
    static_post_accuracy: f64,
    adapting_post_accuracy: f64,
    /// Whether the scenario is one the adapting model should beat the
    /// static model on after the onset (label shift is the control: the
    /// class-conditional distributions never move, so no recovery gap is
    /// expected there).
    recovery_expected: bool,
    /// Adapting post-onset accuracy beats static by a clear margin.
    recovered: bool,
}

/// The drift scenarios the online section replays, each with whether
/// post-onset recovery is expected (see [`OnlineRecord::recovery_expected`]).
fn drift_scenarios(smoke: bool) -> Vec<(DriftScenario, bool)> {
    if smoke {
        vec![
            (
                label_shift(&LabelShiftParams {
                    pre_samples: 40,
                    post_samples: 40,
                    ..LabelShiftParams::default()
                }),
                false,
            ),
            (
                incremental_classes(&IncrementalClassParams {
                    pre_samples: 30,
                    post_samples: 60,
                    ..IncrementalClassParams::default()
                }),
                true,
            ),
            (
                concept_drift(&ConceptDriftParams {
                    pre_samples: 30,
                    post_samples: 60,
                    ..ConceptDriftParams::default()
                }),
                true,
            ),
        ]
    } else {
        vec![
            (label_shift(&LabelShiftParams::default()), false),
            (
                incremental_classes(&IncrementalClassParams::default()),
                true,
            ),
            (concept_drift(&ConceptDriftParams::default()), true),
        ]
    }
}

/// Replay each drift tape prequentially (predict, then learn) through a
/// service carrying two registry entries for the same base model: `static`
/// never adapts, `adapting` takes every tape sample as labeled feedback
/// through [`Service::feedback`] under an every-N-updates swap policy.
/// Every response is checked against the live generation's sequential
/// oracle — feedback runs on this thread, so the generation each query
/// resolves is deterministic.
fn measure_online(smoke: bool) -> Vec<OnlineRecord> {
    let dim = if smoke { 128 } else { 256 };
    let window = if smoke { 10 } else { 20 };
    let mut records = Vec::new();
    for (scenario, recovery_expected) in drift_scenarios(smoke) {
        let DriftScenario { base, tape } = scenario;
        let app = ClassificationApp::new(base, dim, 2).expect("drift base app builds");
        let model =
            Arc::new(ServableModel::classifier("adapting", &app).expect("servable model builds"));
        let registry = Arc::new(ModelRegistry::new());
        registry.register("static", Arc::clone(&model));
        registry.register("adapting", Arc::clone(&model));
        let service = Service::start(
            Arc::clone(&registry),
            ServiceConfig {
                window: WindowConfig {
                    max_batch: 1,
                    max_delay: Duration::ZERO,
                },
                ..ServiceConfig::default()
            },
        );
        let trainer = OnlineTrainer::attach(
            Arc::clone(&registry),
            "adapting",
            OnlineTrainerConfig {
                policy: SwapPolicy::every_updates(ONLINE_SWAP_EVERY_UPDATES),
                class_shards: None,
            },
        )
        .expect("trainer attaches to classifier");
        service.attach_trainer(trainer);

        let mut current = Arc::clone(&model);
        let mut static_hits = Vec::with_capacity(tape.samples.len());
        let mut adapting_hits = Vec::with_capacity(tape.samples.len());
        let mut mismatched = 0u64;
        let mut feedback_failed = 0u64;
        let mut swaps = 0u64;
        let mut updates = 0u64;
        let mut latency_total_us = 0u128;
        let mut latency_max_us = 0u64;
        for sample in &tape.samples {
            let p_static = service
                .submit("static", sample.features.clone())
                .wait()
                .expect("static query answered");
            let p_adapting = service
                .submit("adapting", sample.features.clone())
                .wait()
                .expect("adapting query answered");
            if p_static != model.oracle_infer(&sample.features).expect("static oracle") {
                mismatched += 1;
            }
            if p_adapting
                != current
                    .oracle_infer(&sample.features)
                    .expect("adapting oracle")
            {
                mismatched += 1;
            }
            static_hits.push(p_static == Prediction::Label(sample.label));
            adapting_hits.push(p_adapting == Prediction::Label(sample.label));
            let fed_at = Instant::now();
            match service.feedback("adapting", &sample.features, sample.label) {
                Ok(out) => {
                    updates += out.updates;
                    if let Some(published) = out.published {
                        swaps += 1;
                        current = published;
                    }
                }
                Err(_) => feedback_failed += 1,
            }
            let us = fed_at.elapsed().as_micros();
            latency_total_us += us;
            latency_max_us = latency_max_us.max(us as u64);
        }
        service.shutdown();

        let post_accuracy = |hits: &[bool]| {
            let post = &hits[tape.onset..];
            post.iter().filter(|&&h| h).count() as f64 / post.len().max(1) as f64
        };
        let static_post_accuracy = post_accuracy(&static_hits);
        let adapting_post_accuracy = post_accuracy(&adapting_hits);
        records.push(OnlineRecord {
            scenario: tape.name,
            classes: tape.classes,
            features: tape.features,
            samples: tape.samples.len(),
            onset: tape.onset,
            window,
            swaps,
            updates,
            feedback_failed,
            mismatched,
            mean_update_latency_us: (latency_total_us / tape.samples.len().max(1) as u128) as u64,
            max_update_latency_us: latency_max_us,
            static_accuracy: windowed_accuracy(&static_hits, window),
            adapting_accuracy: windowed_accuracy(&adapting_hits, window),
            static_post_accuracy,
            adapting_post_accuracy,
            recovery_expected,
            recovered: adapting_post_accuracy > static_post_accuracy + 0.05,
        });
    }
    records
}

fn accuracy_series_json(series: &[f64]) -> String {
    let cells: Vec<String> = series.iter().map(|a| format!("{a:.4}")).collect();
    cells.join(", ")
}

fn online_record_json(r: &OnlineRecord) -> String {
    format!(
        concat!(
            "      {{\n",
            "        \"scenario\": \"{}\",\n",
            "        \"classes\": {},\n",
            "        \"features\": {},\n",
            "        \"samples\": {},\n",
            "        \"onset\": {},\n",
            "        \"accuracy_window\": {},\n",
            "        \"swaps\": {},\n",
            "        \"updates\": {},\n",
            "        \"feedback_failed\": {},\n",
            "        \"mismatched\": {},\n",
            "        \"mean_update_latency_us\": {},\n",
            "        \"max_update_latency_us\": {},\n",
            "        \"static_accuracy\": [{}],\n",
            "        \"adapting_accuracy\": [{}],\n",
            "        \"static_post_accuracy\": {:.4},\n",
            "        \"adapting_post_accuracy\": {:.4},\n",
            "        \"recovery_expected\": {},\n",
            "        \"recovered\": {}\n",
            "      }}"
        ),
        json_escape_free(r.scenario),
        r.classes,
        r.features,
        r.samples,
        r.onset,
        r.window,
        r.swaps,
        r.updates,
        r.feedback_failed,
        r.mismatched,
        r.mean_update_latency_us,
        r.max_update_latency_us,
        accuracy_series_json(&r.static_accuracy),
        accuracy_series_json(&r.adapting_accuracy),
        r.static_post_accuracy,
        r.adapting_post_accuracy,
        r.recovery_expected,
        r.recovered,
    )
}

fn online_json(records: &[OnlineRecord]) -> String {
    let rows: Vec<String> = records.iter().map(online_record_json).collect();
    format!(
        concat!(
            "  \"online\": {{\n",
            "    \"swap_policy\": \"every_updates({})\",\n",
            "    \"records\": [\n{}\n    ]\n",
            "  }}"
        ),
        ONLINE_SWAP_EVERY_UPDATES,
        rows.join(",\n"),
    )
}

/// Host metadata stamped into the report's `cpu` section: what machine and
/// kernel backend produced these numbers, so the perf trajectory separates
/// hardware changes from algorithmic wins.
struct CpuInfo {
    arch: &'static str,
    cores: usize,
    backend: &'static str,
    features: Vec<&'static str>,
    rustc_version: String,
    calibration: Option<CpuCalibration>,
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn gather_cpu_info(calibration: Option<CpuCalibration>) -> CpuInfo {
    CpuInfo {
        arch: std::env::consts::ARCH,
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        backend: hdc_core::simd::selected().name(),
        features: hdc_core::simd::detected_features(),
        rustc_version: rustc_version(),
        calibration,
    }
}

fn json_escape_free(s: &str) -> &str {
    // All strings we emit are static identifiers; assert rather than escape.
    assert!(
        !s.contains(['"', '\\']),
        "emitted strings must not need escaping"
    );
    s
}

fn record_json(r: &Record) -> String {
    let speedup = r.sequential_ms / r.batched_ms;
    format!(
        concat!(
            "    {{\n",
            "      \"dim\": {},\n",
            "      \"classes\": {},\n",
            "      \"queries\": {},\n",
            "      \"representation\": \"{}\",\n",
            "      \"metric\": \"{}\",\n",
            "      \"perforation_fraction\": {},\n",
            "      \"sequential_ms\": {:.3},\n",
            "      \"batched_ms\": {:.3},\n",
            "      \"speedup\": {:.2},\n",
            "      \"outputs_match\": {},\n",
            "      \"threads_used\": {},\n",
            "      \"sequential_tensor_bytes_copied\": {},\n",
            "      \"batched_tensor_bytes_copied\": {},\n",
            "      \"batched_kernel_ops\": {},\n",
            "      \"class_shards\": {},\n",
            "      \"shard_merge_ops\": {}\n",
            "    }}"
        ),
        r.cfg.dim,
        r.cfg.classes,
        r.cfg.queries,
        json_escape_free(r.cfg.representation()),
        json_escape_free(r.cfg.metric()),
        r.cfg.perforation_fraction(),
        r.sequential_ms,
        r.batched_ms,
        speedup,
        r.outputs_match,
        r.threads_used,
        r.sequential_stats.tensor_bytes_copied,
        r.batched_stats.tensor_bytes_copied,
        r.batched_stats.batched_kernel_ops,
        r.batched_stats.class_shards,
        r.batched_stats.shard_merge_ops,
    )
}

fn scaling_point_json(p: &ScalingPoint) -> String {
    format!(
        concat!(
            "        {{ \"threads_requested\": {}, \"threads_used\": {}, ",
            "\"batched_ms\": {:.3}, \"speedup_vs_1\": {:.2}, ",
            "\"outputs_match\": {}, \"class_shards\": {}, ",
            "\"shard_merge_ops\": {} }}"
        ),
        p.threads_requested,
        p.threads_used,
        p.batched_ms,
        p.speedup_vs_1,
        p.outputs_match,
        p.class_shards,
        p.shard_merge_ops,
    )
}

fn scaling_json(r: &ScalingRecord) -> String {
    format!(
        concat!(
            "      {{\n",
            "        \"dim\": {},\n",
            "        \"classes\": {},\n",
            "        \"queries\": {},\n",
            "        \"representation\": \"{}\",\n",
            "        \"threads\": [\n{}\n        ]\n",
            "      }}"
        ),
        r.cfg.dim,
        r.cfg.classes,
        r.cfg.queries,
        json_escape_free(r.cfg.representation()),
        r.points
            .iter()
            .map(scaling_point_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    )
}

fn app_json(r: &AppRecord) -> String {
    let speedup = r.sequential_ms / r.batched_ms;
    format!(
        concat!(
            "    {{\n",
            "      \"app\": \"{}\",\n",
            "      \"dataset\": \"{}\",\n",
            "      \"dim\": {},\n",
            "      \"samples\": {},\n",
            "      \"quality_metric\": \"{}\",\n",
            "      \"quality\": {:.4},\n",
            "      \"sequential_ms\": {:.3},\n",
            "      \"batched_ms\": {:.3},\n",
            "      \"speedup\": {:.2},\n",
            "      \"outputs_match\": {},\n",
            "      \"sequential_tensor_bytes_copied\": {},\n",
            "      \"batched_tensor_bytes_copied\": {},\n",
            "      \"batched_kernel_ops\": {}\n",
            "    }}"
        ),
        json_escape_free(r.app),
        json_escape_free(r.dataset),
        r.dim,
        r.samples,
        json_escape_free(r.quality_metric),
        r.quality,
        r.sequential_ms,
        r.batched_ms,
        speedup,
        r.outputs_match,
        r.sequential_stats.tensor_bytes_copied,
        r.batched_stats.tensor_bytes_copied,
        r.batched_stats.batched_kernel_ops,
    )
}

fn training_json(r: &TrainingRecord) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"app\": \"{}\",\n",
            "      \"pattern\": \"{}\",\n",
            "      \"passes\": {},\n",
            "      \"train_samples\": {},\n",
            "      \"epoch_kernel_ops\": {},\n",
            "      \"rescored_samples\": {},\n",
            "      \"rescored_rows\": {},\n",
            "      \"rescore_rate\": {:.4},\n",
            "      \"speedup\": {:.2},\n",
            "      \"outputs_match\": {}\n",
            "    }}"
        ),
        json_escape_free(r.app),
        json_escape_free(r.pattern),
        r.passes,
        r.train_samples,
        r.epoch_kernel_ops,
        r.rescored_samples,
        r.rescored_rows,
        r.rescore_rate,
        r.speedup,
        r.outputs_match,
    )
}

fn accel_kernel_json(r: &AccelKernelRecord) -> String {
    format!(
        concat!(
            "      {{\n",
            "        \"dim\": {},\n",
            "        \"classes\": {},\n",
            "        \"queries\": {},\n",
            "        \"representation\": \"{}\",\n",
            "        \"target\": \"{}\",\n",
            "{}",
            "      }}"
        ),
        r.cfg.dim,
        r.cfg.classes,
        r.cfg.queries,
        json_escape_free(r.cfg.representation()),
        r.target,
        summary_json_fields(&r.summary),
    )
}

fn accel_app_json(r: &AccelAppRecord) -> String {
    format!(
        concat!(
            "      {{\n",
            "        \"app\": \"{}\",\n",
            "        \"target\": \"{}\",\n",
            "{}",
            "      }}"
        ),
        json_escape_free(r.app),
        r.target,
        summary_json_fields(&r.summary),
    )
}

fn accel_params_json(model: &AcceleratorModel) -> String {
    let target_json = |p: &hdc_accel::AccelParams| -> String {
        format!(
            concat!(
                "      {{\n",
                "        \"target\": \"{}\",\n",
                "        \"clock_hz\": {:e},\n",
                "        \"reduce_lane_bits\": {},\n",
                "        \"map_lane_bits\": {},\n",
                "        \"stream_bits_per_sec\": {:e},\n",
                "        \"program_bits_per_sec\": {:e},\n",
                "        \"energy_per_cycle_j\": {:e},\n",
                "        \"energy_per_bit_j\": {:e},\n",
                "        \"array_bits\": {},\n",
                "        \"interconnect_bits_per_sec\": {:e},\n",
                "        \"interconnect_energy_per_bit_j\": {:e}\n",
                "      }}"
            ),
            p.target,
            p.clock_hz,
            p.reduce_lane_bits,
            p.map_lane_bits,
            p.stream_bits_per_sec,
            p.program_bits_per_sec,
            p.energy_per_cycle_j,
            p.energy_per_bit_j,
            p.array_bits,
            p.interconnect_bits_per_sec,
            p.interconnect_energy_per_bit_j,
        )
    };
    format!(
        concat!(
            "    \"cpu_model\": {{ \"flops_per_sec\": {:e}, \"bytes_per_sec\": {:e} }},\n",
            "    \"targets\": [\n{}\n    ]"
        ),
        model.cpu.flops_per_sec,
        model.cpu.bytes_per_sec,
        [&model.digital_asic, &model.reram]
            .into_iter()
            .map(target_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    )
}

/// The `cpu` section: host metadata plus, when `--calibrate` ran, the
/// measured backend throughputs and the [`hdc_accel::CpuParams`] roofline
/// derived from them (always emitted, so consumers see which params the
/// accelerator section was computed against).
fn cpu_json(info: &CpuInfo, model: &AcceleratorModel) -> String {
    let features: Vec<String> = info
        .features
        .iter()
        .map(|f| format!("\"{}\"", json_escape_free(f)))
        .collect();
    let calibration = match &info.calibration {
        Some(c) => format!(
            concat!(
                "    \"calibration\": {{\n",
                "      \"clock_hz_estimate\": {:e},\n",
                "      \"popcount_bits_per_sec\": {:e},\n",
                "      \"flops_per_sec\": {:e},\n",
                "      \"stream_bytes_per_sec\": {:e},\n",
                "      \"popcount_bits_per_cycle\": {:.2},\n",
                "      \"flops_per_cycle\": {:.2}\n",
                "    }},\n"
            ),
            c.clock_hz_estimate,
            c.popcount_bits_per_sec,
            c.flops_per_sec,
            c.stream_bytes_per_sec,
            c.popcount_bits_per_cycle(),
            c.flops_per_cycle(),
        ),
        None => String::new(),
    };
    format!(
        concat!(
            "  \"cpu\": {{\n",
            "    \"arch\": \"{}\",\n",
            "    \"cores_physical\": {},\n",
            "    \"kernel_backend\": \"{}\",\n",
            "    \"features\": [{}],\n",
            "    \"rustc_version\": \"{}\",\n",
            "    \"calibrated\": {},\n",
            "{}",
            "    \"cpu_params\": {{ \"flops_per_sec\": {:e}, \"bytes_per_sec\": {:e} }}\n",
            "  }}"
        ),
        json_escape_free(info.arch),
        info.cores,
        json_escape_free(info.backend),
        features.join(", "),
        json_escape_free(&info.rustc_version),
        info.calibration.is_some(),
        calibration,
        model.cpu.flops_per_sec,
        model.cpu.bytes_per_sec,
    )
}

/// Everything one report run produced, grouped so `emit_json` takes the
/// sections as a unit.
struct ReportSections<'a> {
    records: &'a [Record],
    apps: &'a [AppRecord],
    training: &'a [TrainingRecord],
    scaling: &'a [ScalingRecord],
    cpu: &'a CpuInfo,
    model: &'a AcceleratorModel,
    accel_kernels: &'a [AccelKernelRecord],
    accel_apps: &'a [AccelAppRecord],
    suite: &'a AppSuite,
    serving: &'a [ServingRecord],
    online: &'a [OnlineRecord],
}

fn emit_json(sections: &ReportSections<'_>, smoke: bool) -> String {
    let ReportSections {
        records,
        apps,
        training,
        scaling,
        cpu,
        model,
        accel_kernels,
        accel_apps,
        suite,
        serving,
        online,
    } = sections;
    let rows: Vec<String> = records.iter().map(record_json).collect();
    let app_rows: Vec<String> = apps.iter().map(app_json).collect();
    let training_rows: Vec<String> = training.iter().map(training_json).collect();
    let scaling_rows: Vec<String> = scaling.iter().map(scaling_json).collect();
    let accel_kernel_rows: Vec<String> = accel_kernels.iter().map(accel_kernel_json).collect();
    let accel_app_rows: Vec<String> = accel_apps.iter().map(accel_app_json).collect();
    let sweep: Vec<String> = THREAD_SWEEP.iter().map(|t| t.to_string()).collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"hdc-bench/perf_json/v8\",\n",
            "  \"workload\": \"batched_inference_vs_sequential\",\n",
            "  \"grid\": \"{}\",\n",
            "  \"cores_physical\": {},\n",
            "  \"command\": \"cargo run --release -p hdc-bench --bin perf_json\",\n",
            "{},\n",
            "  \"records\": [\n{}\n  ],\n",
            "  \"apps\": [\n{}\n  ],\n",
            "  \"training\": [\n{}\n  ],\n",
            "  \"scaling\": {{\n",
            "    \"threads_swept\": [{}],\n",
            "    \"cores_physical\": {},\n",
            "    \"records\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"accelerator\": {{\n",
            "{},\n",
            "    \"kernel_grid\": [\n{}\n    ],\n",
            "    \"apps\": [\n{}\n    ]\n",
            "  }},\n",
            "{},\n",
            "{}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        cpu.cores,
        cpu_json(cpu, model),
        rows.join(",\n"),
        app_rows.join(",\n"),
        training_rows.join(",\n"),
        sweep.join(", "),
        cpu.cores,
        scaling_rows.join(",\n"),
        accel_params_json(model),
        accel_kernel_rows.join(",\n"),
        accel_app_rows.join(",\n"),
        serving_json(suite, serving, smoke),
        online_json(online),
    )
}

const HELP: &str = "\
perf_json — the hpvm-hdc machine-readable performance harness

Runs the fixed inference kernel grid (dims {2048, 10240} x classes {26, 100}
x dense/binarized x perforation {1.0, 0.5}) and the three hdc-apps workloads
(classification with retraining, clustering, top-k spectral matching), each
once on the sequential reference oracle (per-sample stage loops, dense
reference reductions, per-row selection) and once on the batched kernel
path, asserting identical outputs before recording timings. A `training`
section records how the blocked re-freeze training schedule and the
segmented-reduction clustering update executed (epoch kernels, re-scored
samples and score rows, rescore rate, end-to-end speedup). A `scaling` section re-runs the
unperforated kernel grid on the batched path at 1/2/4/8 worker threads
(HDC_NUM_THREADS-equivalent overrides), asserting every point against the
sequential oracle and recording the class-memory shard counts and
reduction-tree merges of the two-axis parallel schedule; the curve is
stamped with the physical core count, so oversubscribed points on a small
host are identifiable. The same
workloads are then re-targeted onto the two modeled HDC accelerators
(hdc-accel: the digital ASIC and the ReRAM PIM design) — outputs asserted
identical to the batched CPU run, modeled accelerator-vs-CPU speedups,
cycle and energy accounting recorded. Only the unperforated kernel-grid
points appear in the accelerator section: stages carrying red_perf are
demoted off the accelerators by the target-assignment legality rules, so
there is nothing to model. The accelerator numbers are fully deterministic
(no wall clocks); see docs/accelerator-model.md for the equations.

A `serving` section runs the open-loop load generator (hdc-serve) against
the classification model behind the micro-batching service: each
concurrency level in {4, 16} under the coalescing window (32 rows / 300us)
and under batch-size-1 dispatch, offered load far above capacity so the
achieved-QPS comparison is a capacity comparison. Every response is checked
against the sequential per-request oracle; failed and mismatched counts
must be zero. p50/p99/mean/max latency are measured from each request's
scheduled arrival (coordinated-omission corrected).

An `online` section replays three seeded drift scenarios (label shift,
incremental classes, concept drift on the EMG-like stream) prequentially
through the serving stack: each tape sample is first classified by a
*static* and an *adapting* registry entry of the same base model, then fed
as labeled feedback to the adapting entry's online trainer, which
publishes re-frozen generations under an every-N-updates swap policy.
Accuracy-over-time for both models, swap counts, and per-sample update
latency are recorded; every response is checked against the live
generation's sequential oracle, and the adapting model must recover
accuracy after the drift onset on the scenarios where the
class-conditional distributions actually move (label shift is the
control).

The `cpu` section stamps host metadata (arch, cores, detected CPU features,
the runtime-selected SIMD kernel backend, rustc version). With --calibrate
it additionally times the selected backend on this host (popcount
throughput, dense flops, streaming bandwidth, an estimated clock) and
derives the CpuParams roofline the accelerator model compares against —
modeled speedups are then relative to *this* machine rather than the
documented reference defaults.

USAGE:
    cargo run --release -p hdc-bench --bin perf_json [-- OPTIONS]

OPTIONS:
    --smoke        Run the tiny CI grid instead of the full grid: 256-dim
                   kernels and miniature app datasets, one rep. Finishes in
                   seconds; used by the CI workflow.
    --calibrate    Measure the selected kernel backend on this host and use
                   the calibrated CpuParams as the accelerator model's CPU
                   baseline (quick sizes under --smoke).
    --out <PATH>   Write the JSON report to PATH (default:
                   BENCH_results.json).
    -h, --help     Print this help and exit.

OUTPUT (schema \"hdc-bench/perf_json/v8\"):
    {
      \"schema\": \"hdc-bench/perf_json/v8\",
      \"grid\": \"full\" | \"smoke\",
      \"cores_physical\": <host cores detected>,
      \"cpu\": {      // host + kernel-backend metadata
        \"arch\", \"cores_physical\",
        \"kernel_backend\",          // scalar | avx2 | avx512 | neon (runtime-selected)
        \"features\": [...],         // detected CPU features
        \"rustc_version\",
        \"calibrated\",              // true when --calibrate ran
        \"calibration\": {          // present only when calibrated
          \"clock_hz_estimate\", \"popcount_bits_per_sec\", \"flops_per_sec\",
          \"stream_bytes_per_sec\", \"popcount_bits_per_cycle\",
          \"flops_per_cycle\" },
        \"cpu_params\": { \"flops_per_sec\", \"bytes_per_sec\" } },  // model baseline
      \"records\": [  // kernel grid, one object per configuration
        { \"dim\", \"classes\", \"queries\",       // workload shape
          \"representation\", \"metric\",         // binarized+hamming | dense+cosine
          \"perforation_fraction\",             // red_perf visit fraction
          \"sequential_ms\", \"batched_ms\", \"speedup\",
          \"outputs_match\",                    // batched == sequential labels
          \"threads_used\",                     // worker threads of the batched run
          \"sequential_tensor_bytes_copied\", \"batched_tensor_bytes_copied\",
          \"batched_kernel_ops\",
          \"class_shards\", \"shard_merge_ops\" } ],  // second parallel axis
      \"apps\": [     // application suite, one object per app
        { \"app\", \"dataset\", \"dim\", \"samples\",
          \"quality_metric\", \"quality\",        // accuracy / purity / recall@k
          \"sequential_ms\", \"batched_ms\", \"speedup\", \"outputs_match\",
          \"sequential_tensor_bytes_copied\", \"batched_tensor_bytes_copied\",
          \"batched_kernel_ops\" } ],
      \"training\": [ // batched training / clustering-update patterns
        { \"app\",
          \"pattern\",                // epoch_training | segmented_update
          \"passes\",                 // training epochs / clustering rounds
          \"train_samples\",
          \"epoch_kernel_ops\",       // one batched kernel per epoch/round
          \"rescored_samples\",       // samples with a patched score row
          \"rescored_rows\",          // (sample, class) scores patched for them
          \"rescore_rate\",           // rescored / (passes * train_samples)
          \"speedup\", \"outputs_match\" } ],
      \"scaling\": {  // batched kernel grid across worker-thread counts
        \"threads_swept\": [1, 2, 4, 8],
        \"cores_physical\": <host cores detected>,
        \"records\": [   // unperforated grid points
          { \"dim\", \"classes\", \"queries\", \"representation\",
            \"threads\": [  // one point per swept count
              { \"threads_requested\", \"threads_used\",
                \"batched_ms\", \"speedup_vs_1\",
                \"outputs_match\",     // batched == sequential oracle labels
                \"class_shards\", \"shard_merge_ops\" } ] } ] },
      \"accelerator\": {  // modeled accelerator back end (hdc-accel)
        \"cpu_model\": { \"flops_per_sec\", \"bytes_per_sec\" },  // CPU roofline
        \"targets\": [   // the modeled device parameters, one per target
          { \"target\", \"clock_hz\", \"reduce_lane_bits\", \"map_lane_bits\",
            \"stream_bits_per_sec\", \"program_bits_per_sec\",
            \"energy_per_cycle_j\", \"energy_per_bit_j\",
            \"array_bits\",                     // per-chip capacity (tiling)
            \"interconnect_bits_per_sec\", \"interconnect_energy_per_bit_j\" } ],
        \"kernel_grid\": [  // unperforated grid points x targets
          { \"dim\", \"classes\", \"queries\", \"representation\", \"target\",
            \"accelerated_stages\", \"demoted_stages\",
            \"programming_bits\",               // persistent memories, once
            \"modeled_cycles_total\",           // datapath cycles, all stages x samples
            \"modeled_accel_ms\", \"modeled_cpu_ms\", \"modeled_speedup\",
            \"modeled_energy_uj\",
            \"chips_max\",                      // widest multi-chip tiling
            \"modeled_interconnect_ms\",        // chip-to-chip transfer time
            \"outputs_match\" } ],             // accelerated == batched labels
        \"apps\": [        // application suite x targets, same fields
          { \"app\", \"target\", \"accelerated_stages\", \"demoted_stages\",
            \"programming_bits\", \"modeled_cycles_total\",
            \"modeled_accel_ms\", \"modeled_cpu_ms\", \"modeled_speedup\",
            \"modeled_energy_uj\", \"chips_max\", \"modeled_interconnect_ms\",
            \"outputs_match\" } ]
      },
      \"serving\": {  // micro-batching service vs batch-size-1 dispatch
        \"model\": \"classification\", \"dim\", \"requests_per_run\",
        \"records\": [  // window policies x concurrency levels
          { \"mode\",                  // micro_batch | single
            \"window_batch\", \"window_delay_us\", \"concurrency\",
            \"offered_qps\", \"achieved_qps\",
            \"completed\", \"failed\", \"mismatched\",  // oracle-checked; must be 0
            \"p50_us\", \"p99_us\", \"mean_us\", \"max_us\",  // from scheduled arrival
            \"windows\", \"size_full_windows\", \"deadline_windows\",
            \"max_window_rows\" } ] },
      \"online\": {   // online adaptation under drift (hdc-serve::online)
        \"swap_policy\",            // e.g. every_updates(8)
        \"records\": [  // one object per drift scenario
          { \"scenario\",             // label_shift | incremental_classes | concept_drift
            \"classes\", \"features\", \"samples\",
            \"onset\",                // tape index where the drift switches on
            \"accuracy_window\",      // samples per accuracy-over-time bucket
            \"swaps\", \"updates\",     // generations published / perceptron updates
            \"feedback_failed\",      // must be 0
            \"mismatched\",           // responses off the live oracle; must be 0
            \"mean_update_latency_us\", \"max_update_latency_us\",
            \"static_accuracy\": [..], \"adapting_accuracy\": [..],  // over time
            \"static_post_accuracy\", \"adapting_post_accuracy\",    // after onset
            \"recovery_expected\",    // false for the label-shift control
            \"recovered\" } ] }      // adapting beats static post-onset
    }

Exit status: 0 on success, 1 if any batched or accelerated output diverged
from the reference, 2 on a usage error.";

struct Args {
    smoke: bool,
    calibrate: bool,
    out_path: String,
}

/// Parse flags strictly: unknown flags are an error (exit 2), not silently
/// ignored.
fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut smoke = false;
    let mut calibrate = false;
    let mut out_path = "BENCH_results.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--calibrate" => calibrate = true,
            "--out" => {
                out_path = it
                    .next()
                    .ok_or_else(|| "--out requires a path argument".to_string())?
                    .clone();
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => {
                return Err(format!(
                    "unrecognized argument `{other}` (run with --help for usage)"
                ))
            }
        }
    }
    Ok(Args {
        smoke,
        calibrate,
        out_path,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let smoke = args.smoke;
    let reps = if smoke { 1 } else { 2 };
    let grid = if smoke { smoke_grid() } else { full_grid() };

    // Calibrate before any timing so the accelerator section below models
    // against this host's roofline; without --calibrate the documented
    // default CpuParams apply (and the report says so via "calibrated").
    let calibration = if args.calibrate {
        println!(
            "calibrating CPU: backend={}, {} sizes...",
            hdc_core::simd::selected().name(),
            if smoke { "quick" } else { "full" }
        );
        let cal = hdc_bench::calibrate::calibrate(smoke);
        println!(
            "  clock~{:.2} GHz  popcount {:.1} bits/cyc  {:.2} Gflop/s  stream {:.1} GB/s",
            cal.clock_hz_estimate / 1e9,
            cal.popcount_bits_per_cycle(),
            cal.flops_per_sec / 1e9,
            cal.stream_bytes_per_sec / 1e9,
        );
        Some(cal)
    } else {
        None
    };
    let cpu_info = gather_cpu_info(calibration);

    let mut records = Vec::with_capacity(grid.len());
    let mut all_match = true;
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>5} {:>14} {:>12} {:>8}  match",
        "dim", "classes", "queries", "repr", "perf", "sequential_ms", "batched_ms", "speedup"
    );
    for cfg in grid {
        let record = measure(cfg, reps);
        all_match &= record.outputs_match;
        println!(
            "{:>6} {:>8} {:>8} {:>10} {:>5} {:>14.3} {:>12.3} {:>7.2}x  {}",
            cfg.dim,
            cfg.classes,
            cfg.queries,
            cfg.representation(),
            cfg.perforation_fraction(),
            record.sequential_ms,
            record.batched_ms,
            record.sequential_ms / record.batched_ms,
            if record.outputs_match {
                "ok"
            } else {
                "MISMATCH"
            }
        );
        records.push(record);
    }

    println!(
        "\n{:>24} {:>14} {:>6} {:>14} {:>12} {:>8} {:>16}  match",
        "app", "dataset", "dim", "sequential_ms", "batched_ms", "speedup", "quality"
    );
    let suite = build_apps(smoke);
    let apps = vec![
        measure_classification(&suite, reps),
        measure_clustering(&suite, reps),
        measure_matching(&suite, reps),
    ];
    for record in &apps {
        all_match &= record.outputs_match;
        println!(
            "{:>24} {:>14} {:>6} {:>14.3} {:>12.3} {:>7.2}x {:>12}={:.3}  {}",
            record.app,
            record.dataset,
            record.dim,
            record.sequential_ms,
            record.batched_ms,
            record.sequential_ms / record.batched_ms,
            record.quality_metric,
            record.quality,
            if record.outputs_match {
                "ok"
            } else {
                "MISMATCH"
            }
        );
    }

    // ----- training-pattern section -----
    let training = training_records(&suite, &apps);
    println!(
        "\n{:>24} {:>18} {:>7} {:>8} {:>14} {:>10} {:>13} {:>13} {:>8}",
        "app",
        "pattern",
        "passes",
        "samples",
        "epoch_kernels",
        "rescored",
        "rescored_rows",
        "rescore_rate",
        "speedup"
    );
    for record in &training {
        println!(
            "{:>24} {:>18} {:>7} {:>8} {:>14} {:>10} {:>13} {:>13.4} {:>7.2}x",
            record.app,
            record.pattern,
            record.passes,
            record.train_samples,
            record.epoch_kernel_ops,
            record.rescored_samples,
            record.rescored_rows,
            record.rescore_rate,
            record.speedup,
        );
    }

    // ----- scaling section -----
    let grid_for_scaling = if smoke { smoke_grid() } else { full_grid() };
    println!(
        "\n{:>6} {:>8} {:>10} {:>8} {:>12} {:>12} {:>8} {:>8}  match",
        "dim", "classes", "repr", "threads", "batched_ms", "speedup_vs_1", "shards", "merges"
    );
    let scaling = measure_scaling(&grid_for_scaling, reps);
    for record in &scaling {
        for p in &record.points {
            all_match &= p.outputs_match;
            println!(
                "{:>6} {:>8} {:>10} {:>8} {:>12.3} {:>11.2}x {:>8} {:>8}  {}",
                record.cfg.dim,
                record.cfg.classes,
                record.cfg.representation(),
                p.threads_requested,
                p.batched_ms,
                p.speedup_vs_1,
                p.class_shards,
                p.shard_merge_ops,
                if p.outputs_match { "ok" } else { "MISMATCH" }
            );
        }
    }

    // ----- modeled accelerator section -----
    // One shared CpuParams source: the calibrated roofline when --calibrate
    // ran, the documented defaults otherwise.
    let model = match &cpu_info.calibration {
        Some(cal) => AcceleratorModel::with_cpu(cal.cpu_params()),
        None => AcceleratorModel::default(),
    };
    println!(
        "\n{:>6} {:>8} {:>10} {:>18} {:>8} {:>16} {:>14} {:>8}  match",
        "dim",
        "classes",
        "repr",
        "target",
        "stages",
        "modeled_accel_ms",
        "modeled_cpu_ms",
        "speedup"
    );
    let mut accel_kernels = Vec::new();
    for cfg in if smoke { smoke_grid() } else { full_grid() } {
        // red_perf stages demote off the accelerators; only unperforated
        // points have accelerated work to model.
        if cfg.stride != 1 {
            continue;
        }
        for target in ACCEL_TARGETS {
            let record = measure_accel_kernel(cfg, target, &model);
            all_match &= record.summary.outputs_match;
            println!(
                "{:>6} {:>8} {:>10} {:>18} {:>8} {:>16.4} {:>14.4} {:>7.2}x  {}",
                record.cfg.dim,
                record.cfg.classes,
                record.cfg.representation(),
                record.target.to_string(),
                record.summary.accelerated_stages,
                record.summary.modeled_accel_ms,
                record.summary.modeled_cpu_ms,
                record.summary.modeled_speedup,
                if record.summary.outputs_match {
                    "ok"
                } else {
                    "MISMATCH"
                }
            );
            accel_kernels.push(record);
        }
    }
    println!(
        "\n{:>24} {:>18} {:>8} {:>16} {:>14} {:>8}  match",
        "app", "target", "stages", "modeled_accel_ms", "modeled_cpu_ms", "speedup"
    );
    let mut accel_apps = Vec::new();
    let refs = app_references(&suite);
    for target in ACCEL_TARGETS {
        for record in measure_accel_apps(&suite, &refs, target, &model) {
            all_match &= record.summary.outputs_match;
            println!(
                "{:>24} {:>18} {:>8} {:>16.4} {:>14.4} {:>7.2}x  {}",
                record.app,
                record.target.to_string(),
                record.summary.accelerated_stages,
                record.summary.modeled_accel_ms,
                record.summary.modeled_cpu_ms,
                record.summary.modeled_speedup,
                if record.summary.outputs_match {
                    "ok"
                } else {
                    "MISMATCH"
                }
            );
            accel_apps.push(record);
        }
    }

    // ----- serving section -----
    println!(
        "\n{:>12} {:>12} {:>10} {:>12} {:>8} {:>8} {:>8}  ok",
        "mode", "concurrency", "window", "achieved_qps", "p50_us", "p99_us", "windows"
    );
    let serving = measure_serving(&suite, smoke);
    for r in &serving {
        let clean = r.report.failed == 0 && r.report.mismatched == 0;
        all_match &= clean;
        println!(
            "{:>12} {:>12} {:>10} {:>12.0} {:>8} {:>8} {:>8}  {}",
            r.mode,
            r.report.concurrency,
            format!("{}/{}us", r.window_batch, r.window_delay_us),
            r.report.achieved_qps,
            r.report.p50_us,
            r.report.p99_us,
            r.windows,
            if clean { "ok" } else { "FAILED" }
        );
    }
    for &concurrency in &SERVING_CONCURRENCY {
        let qps_of = |mode: &str| {
            serving
                .iter()
                .find(|r| r.mode == mode && r.report.concurrency == concurrency)
                .map(|r| r.report.achieved_qps)
                .unwrap_or(0.0)
        };
        println!(
            "  concurrency {}: micro-batch {:.0} qps vs single {:.0} qps ({:.2}x)",
            concurrency,
            qps_of("micro_batch"),
            qps_of("single"),
            qps_of("micro_batch") / qps_of("single").max(1.0),
        );
    }

    // ----- online-adaptation section -----
    println!(
        "\n{:>20} {:>8} {:>6} {:>8} {:>12} {:>14} {:>10} {:>10}  ok",
        "scenario",
        "samples",
        "swaps",
        "updates",
        "static_post",
        "adapting_post",
        "recovered",
        "mean_us"
    );
    let online = measure_online(smoke);
    for r in &online {
        let clean =
            r.feedback_failed == 0 && r.mismatched == 0 && (!r.recovery_expected || r.recovered);
        all_match &= clean;
        println!(
            "{:>20} {:>8} {:>6} {:>8} {:>12.4} {:>14.4} {:>10} {:>10}  {}",
            r.scenario,
            r.samples,
            r.swaps,
            r.updates,
            r.static_post_accuracy,
            r.adapting_post_accuracy,
            if r.recovery_expected {
                if r.recovered {
                    "yes"
                } else {
                    "NO"
                }
            } else {
                "control"
            },
            r.mean_update_latency_us,
            if clean { "ok" } else { "FAILED" }
        );
    }

    let json = emit_json(
        &ReportSections {
            records: &records,
            apps: &apps,
            training: &training,
            scaling: &scaling,
            cpu: &cpu_info,
            model: &model,
            accel_kernels: &accel_kernels,
            accel_apps: &accel_apps,
            suite: &suite,
            serving: &serving,
            online: &online,
        },
        smoke,
    );
    std::fs::write(&args.out_path, json).expect("write results file");
    println!("\nwrote {}", args.out_path);
    if !all_match {
        eprintln!("error: batched or accelerated outputs diverged from the reference");
        std::process::exit(1);
    }
}
