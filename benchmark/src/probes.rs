//! Per-layer numbers of the traced run. A *probe* is the benchmark calling
//! a layer's public function itself, at the shape and as many times as the
//! workload's program calls it; counts come from the program's own
//! statistics and repeat exactly.

use crate::batch::Batch;
use crate::report::Layers;
use crate::stats::median;
use crate::surface::{
    self, timed, Accelerator, App, ExecStats, Kernel, Model, Pipeline, ServiceStats, Shape, DIM,
    WINDOW_ROWS,
};

/// Calls timed per kernel of a batch run, and of a (much shorter) window.
const KERNEL_REPS: usize = 5;
const SMALL_REPS: usize = 5;
const PAR_CALL_REPS: usize = 200;
const WINDOW_REPS: usize = 15;
const REGISTRY_CALLS: usize = 1000;

/// Cycles, seconds, accelerated stages, demoted stages.
const ACCELERATORS: [(Accelerator, [&str; 4]); 2] = [
    (
        Accelerator::Asic,
        [
            "hdc-accel.asic.modeled_cycles",
            "hdc-accel.asic.modeled_accel_s",
            "hdc-accel.asic.accelerated_stages",
            "hdc-accel.asic.demoted_stages",
        ],
    ),
    (
        Accelerator::Reram,
        [
            "hdc-accel.reram.modeled_cycles",
            "hdc-accel.reram.modeled_accel_s",
            "hdc-accel.reram.accelerated_stages",
            "hdc-accel.reram.demoted_stages",
        ],
    ),
];

/// A kernel and how many times one run (or one window) calls it.
struct Call {
    kernel: Kernel,
    calls: usize,
}

/// The `hdc-core` calls behind one batched run of `pipeline`, read off the
/// program each app builds: one batched kernel per encoding stage, per
/// training epoch, per inference stage and per clustering update.
fn kernel_plan(pipeline: Pipeline, shape: Shape) -> Vec<Call> {
    let Shape {
        train,
        test,
        features,
        classes,
    } = shape;
    let once = |kernel| Call { kernel, calls: 1 };
    match pipeline {
        Pipeline::ClassifyBits => vec![
            once(Kernel::Encode {
                rows: train,
                features,
            }),
            once(Kernel::Encode {
                rows: test,
                features,
            }),
            Call {
                kernel: Kernel::ScoreCosine {
                    queries: train,
                    classes,
                    stride: 1,
                },
                calls: surface::EPOCHS,
            },
            once(Kernel::ScoreHammingBits {
                queries: test,
                classes,
            }),
        ],
        Pipeline::MatchDense | Pipeline::MatchDensePerf50 => vec![
            once(Kernel::Encode {
                rows: train,
                features,
            }),
            once(Kernel::Encode {
                rows: test,
                features,
            }),
            once(Kernel::ScoreCosine {
                queries: test,
                classes: train,
                stride: pipeline.score_stride(),
            }),
            once(Kernel::Select {
                queries: test,
                candidates: train,
                k: surface::TOP_K,
            }),
        ],
        Pipeline::ClusterBits => vec![
            once(Kernel::Encode {
                rows: train,
                features,
            }),
            Call {
                kernel: Kernel::ScoreHammingBits {
                    queries: train,
                    classes,
                },
                calls: surface::ROUNDS + 1,
            },
            Call {
                kernel: Kernel::Accumulate {
                    rows: train,
                    segments: classes,
                },
                calls: surface::ROUNDS,
            },
        ],
    }
}

/// The `hdc-core` calls behind one serving window of `rows` requests.
fn window_plan(rows: usize, shape: Shape) -> Vec<Call> {
    vec![
        Call {
            kernel: Kernel::Encode {
                rows,
                features: shape.features,
            },
            calls: 1,
        },
        Call {
            kernel: Kernel::ScoreHammingBits {
                queries: rows,
                classes: shape.classes,
            },
            calls: 1,
        },
    ]
}

/// Run every probe of `plan`, set the `hdc-core.*` metrics, and return the
/// probed seconds in total and the number of batched kernel calls covered.
fn probe_kernels(plan: &[Call], reps: usize, layers: &mut Layers) -> Result<(f64, usize), String> {
    let (mut encode_s, mut dense_s, mut bits_s, mut select_s, mut accumulate_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut flops, mut dense_bytes, mut popcount_words) = (0.0, 0.0, 0.0);
    let mut batched_calls = 0;
    for Call { kernel, calls } in plan {
        let calls_f = *calls as f64;
        let seconds = median(&kernel.seconds(reps)?) * calls_f;
        let dim = DIM as f64;
        match *kernel {
            Kernel::Encode { rows, features } => {
                encode_s += seconds;
                flops += calls_f * 2.0 * rows as f64 * features as f64 * dim;
                batched_calls += calls;
            }
            Kernel::ScoreCosine {
                queries, classes, ..
            } => {
                dense_s += seconds;
                // Computed from tensor sizes: both operands read, the score
                // matrix written, eight bytes an element.
                let (q, c) = (queries as f64, classes as f64);
                dense_bytes += calls_f * 8.0 * (q * dim + c * dim + q * c);
                batched_calls += calls;
            }
            Kernel::ScoreHammingBits { queries, classes } => {
                bits_s += seconds;
                popcount_words += calls_f * queries as f64 * classes as f64 * dim / 64.0;
                batched_calls += calls;
            }
            // `arg_top_k` is a leaf instruction, not a batched stage.
            Kernel::Select { .. } => select_s += seconds,
            Kernel::Accumulate { .. } => {
                accumulate_s += seconds;
                batched_calls += calls;
            }
        }
    }
    let per_second = |work: f64, seconds: f64| if seconds > 0.0 { work / seconds } else { 0.0 };
    layers.set("hdc-core.encode_s", encode_s);
    layers.set("hdc-core.encode_gflops", per_second(flops, encode_s) / 1e9);
    layers.set("hdc-core.score_s", dense_s + bits_s);
    layers.set(
        "hdc-core.score_gbytes_per_s",
        per_second(dense_bytes, dense_s) / 1e9,
    );
    layers.set(
        "hdc-core.score_popcount_words_per_s",
        per_second(popcount_words, bits_s),
    );
    layers.set("hdc-core.select_s", select_s);
    layers.set("hdc-core.accumulate_s", accumulate_s);
    Ok((
        encode_s + dense_s + bits_s + select_s + accumulate_s,
        batched_calls,
    ))
}

fn median_of(reps: usize, mut probe: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let seconds: Result<Vec<f64>, String> = (0..reps).map(|_| probe()).collect();
    seconds.map(|s| median(&s))
}

fn exec_counts(stats: &ExecStats, layers: &mut Layers) {
    layers.set("hdc-runtime.bytes_copied", stats.tensor_bytes_copied as f64);
    layers.set(
        "hdc-runtime.instructions",
        stats.instructions_executed as f64,
    );
    layers.set(
        "hdc-runtime.batched_kernel_ops",
        stats.batched_kernel_ops as f64,
    );
    layers.set("hdc-runtime.bit_kernel_ops", stats.bit_kernel_ops as f64);
    layers.set(
        "hdc-runtime.epoch_kernel_ops",
        stats.epoch_kernel_ops as f64,
    );
    layers.set(
        "hdc-runtime.rescored_samples",
        stats.rescored_samples as f64,
    );
    layers.set("hdc-runtime.stage_samples", stats.stage_samples as f64);
    layers.set("hdc-runtime.shard_merge_ops", stats.shard_merge_ops as f64);
}

/// Layers under a batch workload. `run_s` is the traced median of
/// `hdc-apps.run_s`, of which the probes take their shares.
pub fn batch_layers(
    batch: &Batch,
    app: &App,
    stats: &ExecStats,
    run_s: f64,
    reference_outputs: &[usize],
    layers: &mut Layers,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let shape = surface::shape(app.dataset());
    exec_counts(stats, layers);

    let listing1 = surface::listing1_program(shape);
    let mut binarized = 0;
    let compile_s = median_of(SMALL_REPS, || {
        surface::passes_compile_seconds(listing1.clone()).map(|(seconds, values)| {
            binarized = values;
            seconds
        })
    })?;
    layers.set("hdc-passes.compile_s", compile_s);
    layers.set("hdc-passes.binarized_values", binarized as f64);
    layers.set(
        "hdc-ir.verify_s",
        median_of(SMALL_REPS, || app.verify_seconds())?,
    );
    layers.set("hdc-ir.program_instrs", app.instr_count() as f64);
    let mut diagnostics = 0;
    let analyze_s = median_of(SMALL_REPS, || {
        let (seconds, found) = app.analyze_seconds();
        diagnostics = found;
        Ok(seconds)
    })?;
    layers.set("hdc-analyze.analyze_s", analyze_s);
    layers.set("hdc-analyze.diagnostics", diagnostics as f64);
    if diagnostics > 0 {
        errors.push(format!(
            "hdc-analyze raised {diagnostics} diagnostics on the compiled program"
        ));
    }
    layers.set(
        "hdc-runtime.exec_new_bind_s",
        median_of(SMALL_REPS, || app.exec_new_bind_seconds())?,
    );
    layers.set(
        "compat-rayon.par_call_s",
        median(&surface::par_call_seconds(PAR_CALL_REPS)),
    );

    let (probed_s, probed_calls) =
        probe_kernels(&kernel_plan(batch.pipeline, shape), KERNEL_REPS, layers)?;
    // By construction: the probes and the runtime's own time sum to the run.
    layers.set("hdc-runtime.self_s", run_s - probed_s);
    layers.set(
        "hdc-runtime.unprobed_kernel_ops",
        stats.batched_kernel_ops as f64 - probed_calls as f64,
    );

    if batch.pipeline == Pipeline::ClassifyBits {
        let mut host = Vec::new();
        for (accelerator, names) in ACCELERATORS {
            let (host_s, accelerated) = timed(|| app.run_accelerated(accelerator));
            let (run, modeled) = accelerated?;
            host.push(host_s);
            if run.outputs != reference_outputs {
                errors.push(format!(
                    "{accelerator:?}: accelerated outputs differ from the reference"
                ));
            }
            let values = [
                modeled.cycles as f64,
                modeled.accel_s,
                modeled.accelerated_stages as f64,
                modeled.demoted_stages as f64,
            ];
            for (name, value) in names.into_iter().zip(values) {
                layers.set(name, value);
            }
        }
        layers.set("hdc-accel.host_s", median(&host));
    }
    Ok(())
}

/// What the timed part of a serve workload observed.
pub struct Observed {
    pub latency_p50_s: f64,
    pub submit_s: f64,
    pub stats: ServiceStats,
}

/// Layers under a serve workload.
pub fn serve_layers(
    model: &Model,
    pool: &[Vec<f64>],
    shape: Shape,
    observed: &Observed,
    layers: &mut Layers,
) -> Result<(), String> {
    let stats = &observed.stats;
    layers.set("hdc-serve.submit_s", observed.submit_s);
    layers.set("hdc-serve.windows", stats.windows as f64);
    layers.set(
        "hdc-serve.size_full_windows",
        stats.size_full_windows as f64,
    );
    layers.set("hdc-serve.deadline_windows", stats.deadline_windows as f64);
    let rows_per_window = stats.rows_dispatched as f64 / (stats.windows as f64).max(1.0);
    layers.set("hdc-serve.rows_per_window", rows_per_window);
    layers.set(
        "hdc-serve.partitioned_windows",
        stats.partitioned_windows as f64,
    );
    layers.set("hdc-serve.rejected", stats.rejected as f64);
    layers.set("hdc-serve.failed", stats.failed as f64);
    layers.set("hdc-serve.swaps_published", stats.swaps_published as f64);
    layers.set("hdc-serve.online_updates", stats.online_updates as f64);
    layers.set("hdc-runtime.bytes_copied", stats.tensor_bytes_copied as f64);
    layers.set(
        "hdc-runtime.instructions",
        stats.instructions_executed as f64,
    );
    layers.set(
        "hdc-runtime.batched_kernel_ops",
        stats.batched_kernel_ops as f64,
    );
    layers.set("hdc-runtime.bit_kernel_ops", stats.bit_kernel_ops as f64);
    layers.set("hdc-runtime.shard_merge_ops", stats.shard_merge_ops as f64);

    let window = |rows: usize| median_of(WINDOW_REPS, || model.window_seconds(&pool[..rows]));
    let (b1, b16, b64) = (window(1)?, window(16)?, window(WINDOW_ROWS)?);
    let per_row = (b64 - b16) / (WINDOW_ROWS - 16) as f64;
    layers.set("hdc-serve.window_exec_b1_s", b1);
    layers.set("hdc-serve.window_exec_b16_s", b16);
    layers.set("hdc-serve.window_exec_b64_s", b64);
    layers.set("hdc-serve.window_per_row_s", per_row);
    layers.set("hdc-serve.window_fixed_s", b1 - per_row);
    // The window the service ran, at the observed mean rows per window.
    let window_exec = b1 + per_row * (rows_per_window - 1.0).max(0.0);
    layers.set(
        "hdc-serve.queue_wait_s",
        observed.latency_p50_s - window_exec - observed.submit_s,
    );

    layers.set(
        "hdc-runtime.exec_new_bind_s",
        median_of(WINDOW_REPS, || model.exec_new_bind_seconds(&pool[0]))?,
    );
    let push: Vec<f64> = (0..SMALL_REPS)
        .map(|_| surface::coalescer_push_seconds())
        .collect();
    layers.set("hdc-serve.coalescer_push_s", median(&push));
    let (get_s, swap_s) = surface::registry_seconds(model, REGISTRY_CALLS)?;
    layers.set("hdc-serve.registry_get_s", get_s);
    layers.set("hdc-serve.registry_swap_s", swap_s);
    layers.set(
        "compat-rayon.par_call_s",
        median(&surface::par_call_seconds(PAR_CALL_REPS)),
    );

    let rows = (rows_per_window.round() as usize).clamp(1, WINDOW_ROWS);
    let (probed_s, _) = probe_kernels(&window_plan(rows, shape), WINDOW_REPS, layers)?;
    // Per window: what the runtime spends around the kernels.
    layers.set("hdc-runtime.self_s", window(rows)? - probed_s);
    Ok(())
}
