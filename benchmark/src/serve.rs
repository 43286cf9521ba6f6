//! The three serve workloads: an in-process service driven by the
//! benchmark's load generator, every reply checked against the
//! single-request sequential reference.

use crate::batch::compile_seconds;
use crate::digest::{self, Expected};
use crate::loadgen::{run_load, Completed, Load, Target};
use crate::probes;
use crate::report::{EndToEndValues, Layers, Outcome};
use crate::stats::{best_slice, median, percentile, sorted, summary};
use crate::surface::{self, App, Model, Pipeline, Reference, Server, Tape};
use crate::trace::{SpanId, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The load runs once, without a break; latency and throughput are taken
/// per slice of its completions, and the least disturbed slice is reported
/// (`stats::best_slice`).
const SLICES: usize = 20;
/// Queries (and feedback calls) per slice of the `serve_online` replays.
const ONLINE_SLICE: usize = 100;
const WARM_UP: Duration = Duration::from_millis(300);
const MIN_REPLAYS: usize = 3;

pub struct Rate {
    pub name: &'static str,
    pub load: Load,
}

pub const RATE_WORKLOADS: [Rate; 2] = [
    Rate {
        name: "serve_light",
        load: Load::Open { rate_per_s: 1000.0 },
    },
    Rate {
        name: "serve_saturated",
        load: Load::Closed { in_flight: 128 },
    },
];

pub const ONLINE: &str = "serve_online";

/// The informational latency metrics, from every sample of the traced run.
fn latency_layers(layers: &mut Layers, p50_s: f64, samples: &[f64]) {
    let ascending = sorted(samples);
    layers.set("hdc-serve.latency_p50_s", p50_s);
    layers.set("hdc-serve.latency_p99_s", percentile(&ascending, 0.99));
    layers.set("hdc-serve.latency_max_s", percentile(&ascending, 1.0));
    let slow = ascending.iter().filter(|l| **l > 0.020).count();
    layers.set(
        "hdc-serve.over_20ms_share",
        slow as f64 / ascending.len().max(1) as f64,
    );
}

fn accuracy(replies: impl Iterator<Item = (usize, usize)>) -> f64 {
    let (hits, total) = replies.fold((0usize, 0usize), |(hits, total), (reply, label)| {
        (hits + usize::from(reply == label), total + 1)
    });
    hits as f64 / total.max(1) as f64
}

/// The model `serve_light` and `serve_saturated` serve, the request pool,
/// and the reference's answer for each pool row.
struct Served {
    dataset: surface::Dataset,
    model: Model,
    pool: Arc<Vec<Vec<f64>>>,
    oracle: Vec<usize>,
    oracle_s: f64,
    generate_s: f64,
}

fn serve_isolet(seed: u64, tracer: &mut Tracer, setup: SpanId) -> Result<Served, String> {
    let (generate_s, dataset) =
        tracer.time("hdc-datasets.generate", setup, 0, || surface::isolet(seed));
    let input = dataset.clone();
    let (_, app) = tracer.time("hdc-apps.new", setup, 0, || {
        App::compile(Pipeline::ClassifyBits, input)
    });
    let app = app?;
    let (_, model) = tracer.time("hdc-serve.train", setup, 0, || Model::train(&app));
    let model = model?;
    let pool = Arc::new(surface::test_rows(&dataset));
    let (oracle_s, oracle) = tracer.time("oracle.infer_each_row", setup, 0, || {
        pool.iter()
            .map(|row| model.oracle_infer(row))
            .collect::<Result<Vec<usize>, String>>()
    });
    Ok(Served {
        dataset,
        model,
        pool,
        oracle: oracle?,
        oracle_s,
        generate_s,
    })
}

fn pool_expected(served: &Served) -> Expected {
    let labels = surface::test_labels(&served.dataset);
    let quality = accuracy(served.oracle.iter().copied().zip(labels.iter().copied()));
    Expected::of(&served.oracle, quality)
}

/// The oracle of a rate workload: `oracle_infer` on every pool row.
pub fn rate_oracle(seed: u64) -> Result<Expected, String> {
    serve_isolet(seed, &mut Tracer::new(false), None).map(|served| pool_expected(&served))
}

pub fn run_rate(
    rate: &Rate,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut errors = Vec::new();

    let setup_start = Instant::now();
    let setup = tracer.begin("setup", None, 0);
    let served = serve_isolet(seed, tracer, setup)?;
    if let Err(e) = digest::check_committed(rate.name, seed, &pool_expected(&served)) {
        errors.push(e);
    }
    tracer.end(setup);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let measure_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let compile = compile_seconds(Pipeline::ClassifyBits, &served.dataset, budget / 20)?;
    let server = Server::start(&served.model, Arc::clone(&served.pool));
    run_load(&server, rate.load, WARM_UP);
    let length = budget
        .saturating_sub(measure_start.elapsed())
        .max(Duration::from_millis(100));
    let load = run_load(&server, rate.load, length);
    let service_stats = server.stats();
    server.shutdown();

    let completed = &load.completed;
    let pool_len = served.pool.len();
    let failed = completed
        .iter()
        .filter(|c| c.reply != Some(served.oracle[c.request % pool_len]))
        .count() as u64;
    // Quality over whole passes through the pool, so that it depends on the
    // seed and not on how many requests fit into the run.
    let labels = surface::test_labels(&served.dataset);
    let whole_passes = (completed.len() / pool_len).max(1) * pool_len;
    let quality = accuracy(
        completed
            .iter()
            .take(whole_passes)
            .filter_map(|c| c.reply.map(|reply| (reply, labels[c.request % pool_len]))),
    );
    let latencies: Vec<f64> = completed.iter().map(Completed::latency_s).collect();
    // Equal counts of consecutive completions; the few left over at the
    // end belong to no slice.
    let slice = (completed.len() / SLICES).max(1);
    let rates: Vec<f64> = completed
        .chunks_exact(slice)
        .scan(load.start, |from, c| {
            let until = c[slice - 1].done;
            let seconds = until.saturating_duration_since(*from).as_secs_f64();
            *from = until;
            Some(slice as f64 / seconds)
        })
        .collect();
    let end_to_end = EndToEndValues {
        setup_s,
        compile_s: median(&compile),
        // The time to answer the whole load, first due instant to last
        // reply.
        run_s: load.wall_s,
        quality,
        latency_p50_s: best_slice(latencies.chunks_exact(slice), |s| percentile(s, 0.5)),
        latency_p90_s: best_slice(latencies.chunks_exact(slice), |s| percentile(s, 0.9)),
        throughput_per_s: match rate.load {
            // After a stall an open loop completes its backlog in a rush,
            // so a slice's rate says nothing; the rate achieved overall does.
            Load::Open { .. } => completed.len() as f64 / load.wall_s,
            Load::Closed { .. } => rates.iter().copied().fold(0.0, f64::max),
        },
    };

    if tracer.enabled() {
        for c in completed {
            let request = tracer.record("request", c.due, c.done, None, c.request as u64);
            tracer.record(
                "hdc-serve.submit",
                c.submit_start,
                c.submit_end,
                request,
                c.request as u64,
            );
        }
        layers.set("hdc-datasets.generate_s", served.generate_s);
        layers.set("hdc-apps.new_s", median(&compile));
        layers.set("hdc-serve.oracle_infer_s", served.oracle_s);
        layers.set(
            "trace.setup_self_s",
            tracer.self_seconds(setup.expect("enabled")),
        );
        latency_layers(&mut layers, end_to_end.latency_p50_s, &latencies);
        let late: Vec<f64> = completed.iter().map(Completed::late_s).collect();
        layers.set("loadgen.late_p99_s", percentile(&sorted(&late), 0.99));
        layers.set("loadgen.achieved_rate_per_s", end_to_end.throughput_per_s);
        let submit: Vec<f64> = completed.iter().map(Completed::submit_s).collect();
        let observed = probes::Observed {
            latency_p50_s: end_to_end.latency_p50_s,
            submit_s: median(&submit),
            stats: service_stats,
        };
        probes::serve_layers(
            &served.model,
            &served.pool,
            surface::shape(&served.dataset),
            &observed,
            &mut layers,
        )?;
    }

    Ok(Outcome {
        attempted: completed.len() as u64,
        failed,
        errors,
        end_to_end,
        layers,
        summaries: vec![
            ("compile_s", summary(&compile)),
            ("latency_s", summary(&latencies)),
            ("slice throughput_per_s", summary(&rates)),
        ],
    })
}

/// What `serve_online` sets up: the model trained on the pre-drift
/// classes, the tape, and the reference's replies along it.
struct Online {
    base: surface::Dataset,
    model: Model,
    tape: Tape,
    reference: Reference,
    generate_s: f64,
    oracle_s: f64,
}

fn online_setup(seed: u64, tracer: &mut Tracer, setup: SpanId) -> Result<Online, String> {
    let (generate_s, (base, tape)) = tracer.time("hdc-datasets.generate", setup, 0, || {
        surface::incremental(seed)
    });
    let input = base.clone();
    let (_, app) = tracer.time("hdc-apps.new", setup, 0, || {
        App::compile(Pipeline::ClassifyBits, input)
    });
    let app = app?;
    let (_, model) = tracer.time("hdc-serve.train", setup, 0, || Model::train(&app));
    let model = model?;
    let (oracle_s, reference) = tracer.time("oracle.reference_replay", setup, 0, || {
        surface::reference_replay(&model, &tape)
    });
    Ok(Online {
        base,
        model,
        tape,
        reference: reference?,
        generate_s,
        oracle_s,
    })
}

/// Prequential accuracy: each reply, given before its sample's label was
/// fed back, against that label, over the whole tape. (The post-onset part
/// alone swings by 10 % from seed to seed.)
fn prequential_accuracy(tape: &Tape, replies: &[usize]) -> f64 {
    accuracy(
        tape.samples
            .iter()
            .zip(replies)
            .map(|((_, label), reply)| (*reply, *label)),
    )
}

fn online_expected(online: &Online) -> Expected {
    Expected::of(
        &online.reference.replies,
        prequential_accuracy(&online.tape, &online.reference.replies),
    )
}

/// The oracle of `serve_online`: the detached reference replay.
pub fn online_oracle(seed: u64) -> Result<Expected, String> {
    online_setup(seed, &mut Tracer::new(false), None).map(|online| online_expected(&online))
}

/// One prequential replay on a fresh service: submit, wait, feedback.
struct Replay {
    wall_s: f64,
    query_s: Vec<f64>,
    submit_s: Vec<f64>,
    feedback_s: Vec<f64>,
    replies: Vec<usize>,
    failed: u64,
    stats: surface::ServiceStats,
}

fn replay(
    online: &Online,
    pool: &Arc<Vec<Vec<f64>>>,
    rep: u64,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let server = Server::start(&online.model, Arc::clone(pool));
    server.attach_trainer()?;
    let steps = online.tape.samples.len();
    let mut r = Replay {
        wall_s: 0.0,
        query_s: Vec::with_capacity(steps),
        submit_s: Vec::with_capacity(steps),
        feedback_s: Vec::with_capacity(steps),
        replies: Vec::with_capacity(steps),
        failed: 0,
        stats: surface::ServiceStats::default(),
    };
    let start = Instant::now();
    let span = tracer.begin("replay", None, rep);
    for (step, (row, label)) in online.tape.samples.iter().enumerate() {
        let asked = Instant::now();
        let ticket = server.submit(step);
        let submitted = Instant::now();
        let reply = server.wait(ticket);
        let answered = Instant::now();
        let published = server.feedback(row, *label);
        let fed = Instant::now();
        let request = tracer.record("request", asked, answered, span, step as u64);
        tracer.record("hdc-serve.submit", asked, submitted, request, step as u64);
        tracer.record("hdc-serve.feedback", answered, fed, span, step as u64);
        r.query_s.push(answered.duration_since(asked).as_secs_f64());
        r.submit_s
            .push(submitted.duration_since(asked).as_secs_f64());
        r.feedback_s
            .push(fed.duration_since(answered).as_secs_f64());
        if reply != Some(online.reference.replies[step]) {
            r.failed += 1;
        }
        // The served trainer must publish exactly where the reference did.
        let expect_publish = online.reference.published_at.contains(&step);
        if published != Ok(expect_publish) {
            r.failed += 1;
        }
        r.replies.extend(reply);
    }
    tracer.end(span);
    r.wall_s = start.elapsed().as_secs_f64();
    r.stats = server.stats();
    server.shutdown();
    Ok(r)
}

pub fn run_online(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut errors = Vec::new();

    let setup_start = Instant::now();
    let setup = tracer.begin("setup", None, 0);
    let online = online_setup(seed, tracer, setup)?;
    let expected = online_expected(&online);
    if let Err(e) = digest::check_committed(ONLINE, seed, &expected) {
        errors.push(e);
    }
    tracer.end(setup);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let measure_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let compile = compile_seconds(Pipeline::ClassifyBits, &online.base, budget / 20)?;
    let pool = Arc::new(
        online
            .tape
            .samples
            .iter()
            .map(|(row, _)| row.clone())
            .collect::<Vec<_>>(),
    );
    let mut replays = Vec::new();
    while replays.len() < MIN_REPLAYS || measure_start.elapsed() < budget {
        replays.push(replay(&online, &pool, replays.len() as u64, tracer)?);
    }

    if replays.iter().any(|r| r.stats != replays[0].stats) {
        errors.push("the replays' service counters differ".to_string());
    }
    let steps = online.tape.samples.len();
    let failed: u64 = replays.iter().map(|r| r.failed).sum();
    let walls: Vec<f64> = replays.iter().map(|r| r.wall_s).collect();
    let concat = |of: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        replays.iter().flat_map(|r| of(r).iter().copied()).collect()
    };
    let queries = concat(|r| &r.query_s);
    let feedback = concat(|r| &r.feedback_s);
    let best = |samples: &[f64], q: f64| {
        best_slice(samples.chunks_exact(ONLINE_SLICE), |s| percentile(s, q))
    };
    let end_to_end = EndToEndValues {
        setup_s,
        compile_s: median(&compile),
        run_s: median(&walls),
        quality: prequential_accuracy(&online.tape, &replays[0].replies),
        latency_p50_s: best(&queries, 0.5),
        latency_p90_s: best(&queries, 0.9),
        throughput_per_s: steps as f64 / median(&walls),
    };

    if tracer.enabled() {
        layers.set("hdc-datasets.generate_s", online.generate_s);
        layers.set("hdc-apps.new_s", median(&compile));
        layers.set("hdc-apps.run_s", end_to_end.run_s);
        layers.set("hdc-serve.oracle_infer_s", online.oracle_s);
        layers.set(
            "trace.setup_self_s",
            tracer.self_seconds(setup.expect("enabled")),
        );
        latency_layers(&mut layers, end_to_end.latency_p50_s, &queries);
        layers.set("hdc-serve.feedback_s", best(&feedback, 0.5));
        layers.set(
            "hdc-serve.trainer_feed_s",
            median(&online.reference.feed_seconds),
        );
        layers.set(
            "hdc-serve.publish_s",
            surface::publish_seconds(&online.model, &online.tape)?,
        );
        layers.set("loadgen.achieved_rate_per_s", end_to_end.throughput_per_s);
        let submit = concat(|r| &r.submit_s);
        let observed = probes::Observed {
            latency_p50_s: end_to_end.latency_p50_s,
            submit_s: median(&submit),
            // Counters of one replay; every replay counted the same (checked).
            stats: replays[0].stats.clone(),
        };
        probes::serve_layers(
            &online.model,
            &pool,
            surface::shape(&online.base),
            &observed,
            &mut layers,
        )?;
    }

    Ok(Outcome {
        // A query and a feedback call per tape sample.
        attempted: (replays.len() * steps * 2) as u64,
        failed,
        errors,
        end_to_end,
        layers,
        summaries: vec![
            ("compile_s", summary(&compile)),
            ("replay run_s", summary(&walls)),
            ("query latency_s (all replays)", summary(&queries)),
            ("feedback_s (all replays)", summary(&feedback)),
        ],
    })
}
