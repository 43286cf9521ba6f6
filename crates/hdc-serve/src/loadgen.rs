//! Open-loop load generation against a running [`Service`].
//!
//! The generator schedules request arrivals on a fixed open-loop timeline
//! (`t_i = i / qps` from the run start) and spreads them round-robin over
//! `concurrency` submitter lanes. Each lane sleeps until its next
//! scheduled arrival, submits, and blocks on the response before taking
//! its next assigned arrival. Latency is measured **from the scheduled
//! arrival instant**, not from the (possibly delayed) actual submission —
//! the standard coordinated-omission correction, so a backed-up service
//! shows up as tail latency instead of silently thinning the arrival
//! process.
//!
//! With [`LoadConfig::check`] enabled every response is compared against
//! the model's per-request sequential oracle
//! ([`ServableModel::oracle_infer`]); any divergence counts in
//! [`LoadReport::mismatched`]. The CI load runs keep the check on and
//! require zero.

use crate::model::{Prediction, ServableModel};
use crate::service::Service;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Registry name of the model to query.
    pub model: String,
    /// Number of submitter lanes (bounds in-flight requests).
    pub concurrency: usize,
    /// Offered arrival rate, requests per second, across all lanes.
    pub qps: f64,
    /// Total requests to issue.
    pub requests: usize,
    /// Verify every response against the sequential oracle.
    pub check: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            model: "default".to_string(),
            concurrency: 8,
            qps: 2_000.0,
            requests: 400,
            check: false,
        }
    }
}

/// The outcome of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Submitter lanes used.
    pub concurrency: usize,
    /// Offered (scheduled) arrival rate, requests per second.
    pub offered_qps: f64,
    /// Completed requests per second of wall time.
    pub achieved_qps: f64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Responses that diverged from the sequential oracle (only counted
    /// when [`LoadConfig::check`] is on; must be zero).
    pub mismatched: u64,
    /// Median latency, microseconds (scheduled arrival to response).
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
    /// Maximum latency, microseconds.
    pub max_us: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl LoadReport {
    /// Render the report as a JSON object (the `load_gen` bin's output).
    /// `indent` is prepended to every line after the opening brace.
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            concat!(
                "{{\n{i}  \"concurrency\": {},\n{i}  \"offered_qps\": {:.1},\n",
                "{i}  \"achieved_qps\": {:.1},\n{i}  \"completed\": {},\n",
                "{i}  \"failed\": {},\n{i}  \"mismatched\": {},\n",
                "{i}  \"p50_us\": {},\n{i}  \"p99_us\": {},\n",
                "{i}  \"mean_us\": {},\n{i}  \"max_us\": {},\n",
                "{i}  \"wall_ms\": {}\n{i}}}"
            ),
            self.concurrency,
            self.offered_qps,
            self.achieved_qps,
            self.completed,
            self.failed,
            self.mismatched,
            self.p50_us,
            self.p99_us,
            self.mean_us,
            self.max_us,
            self.wall.as_millis(),
            i = indent
        )
    }
}

/// Nearest-rank percentile of an ascending latency list.
fn percentile_us(sorted: &[Duration], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_micros() as u64
}

/// Run an open-loop load against `service`, cycling through `queries` as
/// request payloads. `model` must be the model registered under
/// [`LoadConfig::model`]; it is only consulted for oracle answers when
/// [`LoadConfig::check`] is on (computed up front, outside the timed run).
///
/// # Panics
///
/// Panics if `queries` is empty, `config.concurrency == 0`, or
/// `config.qps` is not positive — a load run needs traffic.
pub fn run_load(
    service: &Arc<Service>,
    model: &Arc<ServableModel>,
    queries: &[Vec<f64>],
    config: &LoadConfig,
) -> LoadReport {
    assert!(!queries.is_empty(), "need at least one query payload");
    assert!(config.concurrency >= 1, "need at least one lane");
    assert!(config.qps > 0.0, "offered QPS must be positive");
    let oracle: Option<Vec<Prediction>> = config.check.then(|| {
        queries
            .iter()
            .map(|q| {
                model
                    .oracle_infer(q)
                    .expect("oracle inference on a valid payload")
            })
            .collect()
    });
    // Small lead time so every lane is parked on its first arrival before
    // the clock starts.
    let start = Instant::now() + Duration::from_millis(5);
    let lanes: Vec<LaneOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.concurrency)
            .map(|lane| {
                let oracle = oracle.as_deref();
                scope.spawn(move || run_lane(service, queries, oracle, lane, config, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    let mut latencies: Vec<Duration> = Vec::with_capacity(config.requests);
    let (mut completed, mut failed, mut mismatched) = (0_u64, 0_u64, 0_u64);
    for lane in lanes {
        latencies.extend(lane.latencies);
        completed += lane.completed;
        failed += lane.failed;
        mismatched += lane.mismatched;
    }
    latencies.sort_unstable();
    let mean_us = if latencies.is_empty() {
        0
    } else {
        (latencies.iter().map(Duration::as_micros).sum::<u128>() / latencies.len() as u128) as u64
    };
    LoadReport {
        concurrency: config.concurrency,
        offered_qps: config.qps,
        achieved_qps: completed as f64 / wall.as_secs_f64(),
        completed,
        failed,
        mismatched,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        mean_us,
        max_us: latencies.last().map_or(0, |d| d.as_micros() as u64),
        wall,
    }
}

struct LaneOutcome {
    latencies: Vec<Duration>,
    completed: u64,
    failed: u64,
    mismatched: u64,
}

fn run_lane(
    service: &Arc<Service>,
    queries: &[Vec<f64>],
    oracle: Option<&[Prediction]>,
    lane: usize,
    config: &LoadConfig,
    start: Instant,
) -> LaneOutcome {
    let mut outcome = LaneOutcome {
        latencies: Vec::new(),
        completed: 0,
        failed: 0,
        mismatched: 0,
    };
    let mut i = lane;
    while i < config.requests {
        let scheduled = start + Duration::from_secs_f64(i as f64 / config.qps);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let payload_index = i % queries.len();
        let response = service
            .submit(&config.model, queries[payload_index].clone())
            .wait();
        outcome.latencies.push(scheduled.elapsed());
        match response {
            Ok(prediction) => {
                outcome.completed += 1;
                if let Some(oracle) = oracle {
                    if prediction != oracle[payload_index] {
                        outcome.mismatched += 1;
                    }
                }
            }
            Err(_) => outcome.failed += 1,
        }
        i += config.concurrency;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalescer::WindowConfig;
    use crate::registry::ModelRegistry;
    use crate::service::ServiceConfig;
    use hdc_apps::ClassificationApp;
    use hdc_datasets::synthetic::{isolet_like, IsoletParams};

    #[test]
    fn load_run_completes_all_requests_and_matches_oracle() {
        let dataset = isolet_like(&IsoletParams {
            classes: 3,
            features: 16,
            train_per_class: 4,
            test_per_class: 3,
            noise: 1.0,
            seed: 9,
        });
        let queries: Vec<Vec<f64>> = (0..dataset.test.len())
            .map(|i| dataset.test.features.row(i).unwrap().to_vec())
            .collect();
        let app = ClassificationApp::new(dataset, 128, 1).unwrap();
        let model = Arc::new(ServableModel::classifier("cls", &app).unwrap());
        let registry = Arc::new(ModelRegistry::new());
        registry.register("cls", Arc::clone(&model));
        let service = Service::start(
            registry,
            ServiceConfig {
                window: WindowConfig {
                    max_batch: 8,
                    max_delay: Duration::from_micros(500),
                },
                ..ServiceConfig::default()
            },
        );
        let report = run_load(
            &service,
            &model,
            &queries,
            &LoadConfig {
                model: "cls".to_string(),
                concurrency: 4,
                qps: 5_000.0,
                requests: 64,
                check: true,
            },
        );
        assert_eq!(report.completed, 64);
        assert_eq!(report.failed, 0);
        assert_eq!(report.mismatched, 0);
        assert!(report.p99_us >= report.p50_us);
        assert!(report.achieved_qps > 0.0);
        let json = report.to_json("");
        assert!(json.contains("\"mismatched\": 0"), "{json}");
        service.shutdown();
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 50);
        assert_eq!(percentile_us(&sorted, 0.99), 99);
        assert_eq!(percentile_us(&sorted, 1.0), 100);
        assert_eq!(percentile_us(&[], 0.5), 0);
    }
}
