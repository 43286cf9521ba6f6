//! The four batch workloads: compile an application, run it repeatedly in
//! batched mode, and check every run against the sequential reference.

use crate::digest::{self, Expected};
use crate::probes;
use crate::report::{EndToEndValues, Layers, Outcome};
use crate::stats::{median, summary};
use crate::surface::{self, timed, App, Dataset, Pipeline};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Compilations timed per run at most; a compilation takes 0.2 to 9 ms, and
/// the median of a few hundred is steadier than the median of thirty.
const MAX_COMPILE_REPS: usize = 300;
/// Timed runs are never fewer than this, however short `--seconds` is.
const MIN_RUN_REPS: usize = 5;

pub struct Batch {
    pub name: &'static str,
    pub pipeline: Pipeline,
    pub generate: fn(u64) -> Dataset,
}

pub const WORKLOADS: [Batch; 4] = [
    Batch {
        name: "classify_retrain",
        pipeline: Pipeline::ClassifyBits,
        generate: surface::isolet,
    },
    Batch {
        name: "match_dense_topk",
        pipeline: Pipeline::MatchDense,
        generate: surface::hyperoms,
    },
    Batch {
        name: "match_dense_perf50",
        pipeline: Pipeline::MatchDensePerf50,
        generate: surface::hyperoms,
    },
    Batch {
        name: "cluster_bits",
        pipeline: Pipeline::ClusterBits,
        generate: surface::emg,
    },
];

/// The oracle of a batch workload: one sequential run.
pub fn oracle(batch: &Batch, seed: u64) -> Result<Expected, String> {
    let app = App::compile(batch.pipeline, (batch.generate)(seed))?;
    let reference = app.run(true)?;
    Ok(Expected::of(&reference.outputs, reference.quality))
}

/// Seconds of each `App::compile`, the dataset cloned outside the timer.
/// Compiles until `budget` is spent: three times at least,
/// `MAX_COMPILE_REPS` times at most.
pub fn compile_seconds(
    pipeline: Pipeline,
    dataset: &Dataset,
    budget: Duration,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut seconds = Vec::new();
    while seconds.len() < 3 || (seconds.len() < MAX_COMPILE_REPS && start.elapsed() < budget) {
        let input = dataset.clone();
        let (s, app) = timed(|| App::compile(pipeline, input));
        app?;
        seconds.push(s);
    }
    Ok(seconds)
}

pub fn run(batch: &Batch, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut errors = Vec::new();

    // Set-up: everything before the first timed repetition.
    let setup_start = Instant::now();
    let setup = tracer.begin("setup", None, 0);
    let (generate_s, dataset) =
        tracer.time("hdc-datasets.generate", setup, 0, || (batch.generate)(seed));
    let input = dataset.clone();
    let (_, app) = tracer.time("hdc-apps.new", setup, 0, || {
        App::compile(batch.pipeline, input)
    });
    let app = app?;
    let (_, reference) = tracer.time("oracle.sequential_run", setup, 0, || app.run(true));
    let reference = reference?;
    let expected = Expected::of(&reference.outputs, reference.quality);
    if let Err(e) = digest::check_committed(batch.name, seed, &expected) {
        errors.push(e);
    }
    tracer.end(setup);
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Measurement.
    let measure_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let compile = compile_seconds(batch.pipeline, &dataset, budget / 10)?;
    app.run(false)?; // warm-up
    let mut run_seconds = Vec::new();
    let mut failed = 0;
    let mut stats = None;
    while run_seconds.len() < MIN_RUN_REPS || measure_start.elapsed() < budget {
        let rep = run_seconds.len() as u64;
        let (seconds, outcome) = tracer.time("hdc-apps.run", None, rep, || app.run(false));
        run_seconds.push(seconds);
        match outcome {
            Ok(run) if run.outputs == reference.outputs && run.quality == reference.quality => {
                stats = Some(run.stats);
            }
            _ => failed += 1,
        }
    }

    let run_s = median(&run_seconds);
    let rows = (dataset.train.len() + dataset.test.len()) as f64;
    let end_to_end = EndToEndValues {
        setup_s,
        compile_s: median(&compile),
        run_s,
        quality: reference.quality,
        // One operation of a batch workload is one run, so the wait for an
        // answer is the run time. Fewer than twenty runs fit a measurement:
        // no percentile above the median has ten samples beyond it, and the
        // highest one the sample supports is the median again.
        latency_p50_s: run_s,
        latency_p90_s: run_s,
        throughput_per_s: rows / run_s,
    };

    if tracer.enabled() {
        layers.set("hdc-datasets.generate_s", generate_s);
        layers.set("hdc-apps.new_s", median(&compile));
        layers.set("hdc-apps.run_s", run_s);
        layers.set(
            "trace.setup_self_s",
            tracer.self_seconds(setup.expect("enabled")),
        );
        if let Some(stats) = stats {
            probes::batch_layers(
                batch,
                &app,
                &stats,
                run_s,
                &reference.outputs,
                &mut layers,
                &mut errors,
            )?;
        }
    }

    Ok(Outcome {
        attempted: run_seconds.len() as u64,
        failed,
        errors,
        end_to_end,
        layers,
        summaries: vec![
            ("compile_s", summary(&compile)),
            ("run_s", summary(&run_seconds)),
        ],
    })
}
