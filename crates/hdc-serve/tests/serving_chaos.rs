//! Chaos / soak battery: the service must degrade gracefully — typed
//! errors, no panics, consistent stats — while concurrent clients fire
//! malformed queries (wrong dimension, NaN, zero-length), bursts far past
//! the window size, and the registry is swapped mid-flight. Run by CI
//! under `HDC_NUM_THREADS={1,4}`; the combined soak test additionally
//! forces both thread counts in-process via the rayon compat layer.

use hdc_apps::ClassificationApp;
use hdc_datasets::synthetic::{isolet_like, IsoletParams};
use hdc_passes::CompileOptions;
use hdc_serve::{
    ModelRegistry, Prediction, ServableModel, ServeError, Service, ServiceConfig, WindowConfig,
};
use std::sync::Arc;
use std::time::Duration;

const FEATURES: usize = 24;

fn make_model(name: &str, seed: u64, options: &CompileOptions) -> Arc<ServableModel> {
    let dataset = isolet_like(&IsoletParams {
        classes: 3,
        features: FEATURES,
        train_per_class: 5,
        test_per_class: 3,
        noise: 1.0,
        seed,
    });
    let app = ClassificationApp::with_options(dataset, 128, 1, options).unwrap();
    Arc::new(ServableModel::classifier(name, &app).unwrap())
}

fn valid_query(i: usize) -> Vec<f64> {
    (0..FEATURES)
        .map(|j| ((i * 31 + j * 7) % 13) as f64 - 6.0)
        .collect()
}

fn start_service(registry: Arc<ModelRegistry>, max_batch: usize) -> Arc<Service> {
    Service::start(
        registry,
        ServiceConfig {
            window: WindowConfig {
                max_batch,
                max_delay: Duration::from_micros(300),
            },
            ..ServiceConfig::default()
        },
    )
}

/// Malformed traffic from concurrent clients gets typed errors and never
/// poisons the valid requests coalesced around it.
#[test]
fn malformed_queries_get_typed_errors_and_never_poison_windows() {
    let model = make_model("m", 41, &CompileOptions::default());
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::clone(&model));
    let service = start_service(registry, 8);
    let oracle: Vec<Prediction> = (0..16)
        .map(|i| model.oracle_infer(&valid_query(i)).unwrap())
        .collect();
    std::thread::scope(|scope| {
        // Well-behaved clients.
        for client in 0..3 {
            let service = &service;
            let oracle = &oracle;
            scope.spawn(move || {
                for round in 0..4 {
                    for (i, expected) in oracle.iter().enumerate() {
                        let got = service.submit("m", valid_query(i)).wait().unwrap();
                        assert_eq!(got, *expected, "client {client} round {round} query {i}");
                    }
                }
            });
        }
        // Abusive clients interleaving malformed traffic.
        for _ in 0..3 {
            let service = &service;
            scope.spawn(move || {
                for i in 0..16 {
                    // Zero-length query.
                    assert_eq!(
                        service.submit("m", vec![]).wait(),
                        Err(ServeError::EmptyQuery)
                    );
                    // Wrong dimension.
                    assert_eq!(
                        service.submit("m", vec![1.0; FEATURES + 3]).wait(),
                        Err(ServeError::WrongDimension {
                            expected: FEATURES,
                            got: FEATURES + 3
                        })
                    );
                    // NaN payload.
                    let mut q = valid_query(i);
                    q[5] = f64::NAN;
                    assert_eq!(
                        service.submit("m", q).wait(),
                        Err(ServeError::NonFinitePayload { index: 5 })
                    );
                    // Infinity payload.
                    let mut q = valid_query(i);
                    q[0] = f64::INFINITY;
                    assert_eq!(
                        service.submit("m", q).wait(),
                        Err(ServeError::NonFinitePayload { index: 0 })
                    );
                    // Unknown model.
                    assert!(matches!(
                        service.submit("nope", valid_query(i)).wait(),
                        Err(ServeError::UnknownModel(_))
                    ));
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 3 * 4 * 16, "all valid requests answered");
    assert_eq!(stats.failed, 0, "no accepted request may fail");
    assert_eq!(
        stats.rejected,
        3 * 16 * 5,
        "every malformed request counted"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "accepted == answered once drained"
    );
    service.shutdown();
}

/// A burst far past the window size: every request still answered
/// correctly, no window exceeds `max_batch` rows.
#[test]
fn burst_past_window_size_is_absorbed() {
    let model = make_model("m", 42, &CompileOptions::default());
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::clone(&model));
    let service = start_service(registry, 4);
    let oracle: Vec<Prediction> = (0..8)
        .map(|i| model.oracle_infer(&valid_query(i)).unwrap())
        .collect();
    // 12 clients × 20 requests against a 4-row window.
    std::thread::scope(|scope| {
        for client in 0..12 {
            let service = &service;
            let oracle = &oracle;
            scope.spawn(move || {
                for round in 0..20 {
                    let i = (client + round) % 8;
                    let got = service.submit("m", valid_query(i)).wait().unwrap();
                    assert_eq!(got, oracle[i], "client {client} round {round}");
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 12 * 20);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.max_window_rows <= 4,
        "window overflowed: {} rows",
        stats.max_window_rows
    );
    assert!(
        stats.windows >= (12 * 20) / 4,
        "burst must split into windows"
    );
    service.shutdown();
}

/// Mid-flight registry swaps: in-flight requests are answered by the model
/// they resolved at submission; every response matches one of the swapped
/// generations' oracles; swapping to a model with a different feature
/// count turns stale-shaped traffic into typed errors, not panics.
#[test]
fn registry_swap_mid_flight_is_graceful() {
    let gen_a = make_model("gen-a", 51, &CompileOptions::default());
    let gen_b = make_model("gen-b", 52, &CompileOptions::baseline());
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::clone(&gen_a));
    let service = start_service(Arc::clone(&registry), 8);
    let oracle_a: Vec<Prediction> = (0..8)
        .map(|i| gen_a.oracle_infer(&valid_query(i)).unwrap())
        .collect();
    let oracle_b: Vec<Prediction> = (0..8)
        .map(|i| gen_b.oracle_infer(&valid_query(i)).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for _client in 0..4 {
            let service = &service;
            let (oracle_a, oracle_b) = (&oracle_a, &oracle_b);
            scope.spawn(move || {
                for round in 0..30 {
                    let i = round % 8;
                    let got = service.submit("m", valid_query(i)).wait().unwrap();
                    assert!(
                        got == oracle_a[i] || got == oracle_b[i],
                        "round {round}: answer from neither generation"
                    );
                }
            });
        }
        // The swapper flips generations while traffic is in flight.
        let registry = &registry;
        let (gen_a, gen_b) = (&gen_a, &gen_b);
        scope.spawn(move || {
            for flip in 0..40 {
                let next = if flip % 2 == 0 { gen_b } else { gen_a };
                registry.swap("m", Arc::clone(next));
                std::thread::sleep(Duration::from_micros(200));
            }
        });
    });
    let stats = service.stats();
    assert_eq!(stats.failed, 0, "swaps must not fail in-flight requests");
    assert_eq!(stats.completed, 4 * 30);
    // Swap to an incompatible feature count: stale-shaped traffic now gets
    // a typed dimension error.
    let dataset = isolet_like(&IsoletParams {
        classes: 3,
        features: FEATURES * 2,
        train_per_class: 5,
        test_per_class: 2,
        noise: 1.0,
        seed: 53,
    });
    let app = ClassificationApp::new(dataset, 128, 1).unwrap();
    let wide = Arc::new(ServableModel::classifier("wide", &app).unwrap());
    registry.swap("m", wide);
    assert_eq!(
        service.submit("m", valid_query(0)).wait(),
        Err(ServeError::WrongDimension {
            expected: FEATURES * 2,
            got: FEATURES
        })
    );
    service.shutdown();
    // After shutdown: typed rejection, not a panic or a hang.
    assert_eq!(
        service.submit("m", valid_query(0)).wait(),
        Err(ServeError::ShuttingDown)
    );
}

/// The full storm — valid + malformed + bursts + swaps — run once pinned
/// to one worker thread and once on four, exercising both the sequential
/// and sharded parallel kernel paths under chaos.
#[test]
fn soak_storm_under_one_and_four_threads() {
    for threads in [1_usize, 4] {
        rayon::set_num_threads(threads);
        let gen_a = make_model("a", 61, &CompileOptions::default());
        let gen_b = make_model("b", 62, &CompileOptions::default());
        let registry = Arc::new(ModelRegistry::new());
        registry.register("m", Arc::clone(&gen_a));
        let service = start_service(Arc::clone(&registry), 6);
        let oracle_a: Vec<Prediction> = (0..8)
            .map(|i| gen_a.oracle_infer(&valid_query(i)).unwrap())
            .collect();
        let oracle_b: Vec<Prediction> = (0..8)
            .map(|i| gen_b.oracle_infer(&valid_query(i)).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for client in 0..6 {
                let service = &service;
                let (oracle_a, oracle_b) = (&oracle_a, &oracle_b);
                scope.spawn(move || {
                    for round in 0..25 {
                        let i = (client * 3 + round) % 8;
                        if round % 5 == 4 {
                            // One malformed request per five.
                            let mut q = valid_query(i);
                            q[i % FEATURES] = f64::NAN;
                            assert!(matches!(
                                service.submit("m", q).wait(),
                                Err(ServeError::NonFinitePayload { .. })
                            ));
                        } else {
                            let got = service.submit("m", valid_query(i)).wait().unwrap();
                            assert!(
                                got == oracle_a[i] || got == oracle_b[i],
                                "threads={threads} client={client} round={round}"
                            );
                        }
                    }
                });
            }
            let registry = &registry;
            let (gen_a, gen_b) = (&gen_a, &gen_b);
            scope.spawn(move || {
                for flip in 0..20 {
                    registry.swap("m", Arc::clone(if flip % 2 == 0 { gen_b } else { gen_a }));
                    std::thread::sleep(Duration::from_micros(300));
                }
            });
        });
        let stats = service.stats();
        let valid_per_client = 25 - 25 / 5;
        assert_eq!(
            stats.completed,
            6 * valid_per_client as u64,
            "threads={threads}"
        );
        assert_eq!(stats.failed, 0, "threads={threads}");
        assert_eq!(stats.rejected, 6 * (25 / 5) as u64, "threads={threads}");
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        service.shutdown();
    }
}

/// Registry names reach the `/health` body as escaped JSON strings: a
/// name holding a quote and a backslash must not break the document. The
/// `/stats` stage trace goes through the same escaper.
#[test]
fn health_and_stats_json_escape_names() {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("a\"b\\c", make_model("m", 43, &CompileOptions::default()));
    let service = start_service(registry, 4);
    let health = service.health_json();
    assert!(health.contains(r#""models": ["a\"b\\c"]"#), "{health}");
    service.submit("a\"b\\c", valid_query(0)).wait().unwrap();
    let stats = service.stats_json();
    assert!(stats.contains(r#"{"node": "encode", "kind": "#), "{stats}");
    service.shutdown();
}
