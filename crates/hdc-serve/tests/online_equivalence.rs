//! Online/offline training equivalence: the online trainer is not allowed
//! to be a second trainer. Feeding the offline training set through
//! [`OnlineTrainer::feed`] in epoch order and publishing once must produce
//! a class memory **bit-identical** to the offline batched trainer's — for
//! the binarized pipeline and the dense baseline, for sharded and unsharded
//! frozen-score selection, and for feeds shorter and longer than one
//! re-freeze block. The seeded drift tapes, replayed through an adapting
//! service, must recover where the drift moves the class-conditional
//! distributions. Run by CI under `HDC_NUM_THREADS={1,4}`.

use hdc_apps::ClassificationApp;
use hdc_core::{BitMatrix, HyperMatrix};
use hdc_datasets::drift::{
    concept_drift, incremental_classes, label_shift, ConceptDriftParams, DriftScenario,
    IncrementalClassParams, LabelShiftParams,
};
use hdc_datasets::synthetic::{isolet_like, IsoletParams};
use hdc_passes::CompileOptions;
use hdc_runtime::{Value, TRAIN_BLOCK_ROWS};
use hdc_serve::service::{Service, ServiceConfig};
use hdc_serve::{
    MockClock, ModelRegistry, OnlineTrainer, OnlineTrainerConfig, Prediction, ServableModel,
    SwapPolicy, WindowConfig,
};
use std::sync::Arc;
use std::time::Duration;

const FEATURES: usize = 24;
const DIM: usize = 128;
const CLASSES: usize = 4;
const EPOCHS: usize = 3;

fn dataset() -> hdc_datasets::Dataset {
    dataset_of(6)
}

fn dataset_of(train_per_class: usize) -> hdc_datasets::Dataset {
    isolet_like(&IsoletParams {
        classes: CLASSES,
        features: FEATURES,
        train_per_class,
        test_per_class: 3,
        noise: 1.2,
        seed: 0x0e11,
    })
}

/// Register an untrained model — zero dense accumulator, frozen memory =
/// `sign(0)` (all `+1`: clear bits when packed) — built from the offline
/// app's own projection matrix. Starting from the zero accumulator makes a
/// trainer's replay start exactly where the offline trainer's epoch loop
/// starts.
fn seed_registry(rp: Value, binarized: bool) -> Arc<ModelRegistry> {
    let frozen = if binarized {
        Value::bit_matrix(BitMatrix::zeros(CLASSES, DIM))
    } else {
        Value::matrix(HyperMatrix::<f64>::zeros(CLASSES, DIM).sign())
    };
    let zeros = Value::matrix(HyperMatrix::zeros(CLASSES, DIM));
    let model =
        ServableModel::classifier_from_artifacts("m", FEATURES, rp, frozen, Some(zeros)).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::new(model));
    registry
}

/// [`seed_registry`] with a manually published trainer attached.
fn seed_trainer(
    rp: Value,
    binarized: bool,
    class_shards: Option<usize>,
) -> (Arc<ModelRegistry>, OnlineTrainer) {
    let registry = seed_registry(rp, binarized);
    let trainer = OnlineTrainer::attach(
        Arc::clone(&registry),
        "m",
        OnlineTrainerConfig {
            policy: SwapPolicy::manual(),
            class_shards,
        },
    )
    .unwrap();
    (registry, trainer)
}

fn train_rows(data: &hdc_datasets::Dataset) -> (Vec<Vec<f64>>, Vec<usize>) {
    let rows = data
        .train
        .features
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();
    (rows, data.train.labels.clone())
}

/// Feeding the whole training set once per epoch and publishing once must
/// reproduce the offline batched trainer bit for bit: the published frozen
/// class memory equals the offline harvest's `class_bits`, and the dense
/// shadow equals the offline accumulator `class_hvs`. Checked for the
/// binarized pipeline and the dense baseline, with the frozen-score
/// selection both unsharded (`Some(1)`) and auto-sharded (`None`).
#[test]
fn epoch_order_feeds_reproduce_offline_training_bit_for_bit() {
    for (options, binarized, label) in [
        (CompileOptions::default(), true, "binarized"),
        (CompileOptions::baseline(), false, "baseline"),
    ] {
        let offline = ClassificationApp::with_options(dataset(), DIM, EPOCHS, &options).unwrap();
        let harvested = offline.harvest_artifacts().unwrap();
        for shards in [Some(1), None] {
            let (registry, mut trainer) =
                seed_trainer(harvested.rp_matrix.clone(), binarized, shards);
            let (rows, labels) = train_rows(offline.dataset());
            for _epoch in 0..EPOCHS {
                trainer.feed(&rows, &labels).unwrap();
            }
            let published = trainer.publish().unwrap();
            assert_eq!(
                published.class_memory().unwrap(),
                &harvested.class_bits,
                "{label} shards={shards:?}: published frozen memory diverged from offline",
            );
            assert_eq!(
                published.train_state().unwrap(),
                &harvested.class_hvs,
                "{label} shards={shards:?}: published accumulator diverged from offline",
            );
            assert_eq!(
                Value::matrix(trainer.shadow().clone()),
                harvested.class_hvs,
                "{label} shards={shards:?}: shadow diverged from offline accumulator",
            );
            // The registry now serves the published generation.
            assert!(Arc::ptr_eq(&registry.get("m").unwrap(), &published));
            assert_eq!(trainer.generation(), 1);
        }
    }
}

/// One epoch of per-sample feeds (mini-batch size 1) equals one offline
/// epoch: every score a selection reads is current, so batch boundaries
/// are invisible to the trained result.
#[test]
fn per_sample_feeds_match_offline_single_epoch() {
    let options = CompileOptions::default();
    let offline = ClassificationApp::with_options(dataset(), DIM, 1, &options).unwrap();
    let harvested = offline.harvest_artifacts().unwrap();
    let (_registry, mut trainer) = seed_trainer(harvested.rp_matrix.clone(), true, None);
    let (rows, labels) = train_rows(offline.dataset());
    for (row, &label) in rows.iter().zip(&labels) {
        trainer.feed_one(row, label).unwrap();
    }
    let published = trainer.publish().unwrap();
    assert_eq!(published.class_memory().unwrap(), &harvested.class_bits);
    assert_eq!(Value::matrix(trainer.shadow().clone()), harvested.class_hvs,);
}

/// A single feed longer than one [`TRAIN_BLOCK_ROWS`] block crosses
/// re-freeze boundaries inside the trainer exactly as an offline epoch
/// does: the shadow equals one offline epoch over the same rows bit for
/// bit, and no block's first sample is ever patched.
#[test]
fn one_feed_across_block_boundaries_matches_offline_single_epoch() {
    for (options, binarized) in [
        (CompileOptions::default(), true),
        (CompileOptions::baseline(), false),
    ] {
        let offline = ClassificationApp::with_options(dataset_of(40), DIM, 1, &options).unwrap();
        let harvested = offline.harvest_artifacts().unwrap();
        let (rows, labels) = train_rows(offline.dataset());
        let blocks = rows.len().div_ceil(TRAIN_BLOCK_ROWS);
        assert!(blocks >= 3, "the feed must span several blocks");
        for shards in [Some(1), Some(2), None] {
            let (_registry, mut trainer) =
                seed_trainer(harvested.rp_matrix.clone(), binarized, shards);
            let out = trainer.feed(&rows, &labels).unwrap();
            assert_eq!(out.processed, rows.len());
            assert!(out.updates > 0 && out.rescored > 0);
            assert!(out.rescored as usize <= rows.len() - blocks);
            assert_eq!(
                Value::matrix(trainer.shadow().clone()),
                harvested.class_hvs,
                "binarized={binarized} shards={shards:?}: shadow diverged from offline epoch",
            );
            let published = trainer.publish().unwrap();
            assert_eq!(published.class_memory().unwrap(), &harvested.class_bits);
        }
    }
}

/// `SwapPolicy::every_elapsed` against an injected clock: the trigger needs
/// both unpublished updates and the elapsed interval, and every publish
/// restarts the interval.
#[test]
fn elapsed_policy_publishes_on_the_injected_clock() {
    let offline =
        ClassificationApp::with_options(dataset(), DIM, 1, &CompileOptions::default()).unwrap();
    let harvested = offline.harvest_artifacts().unwrap();
    let registry = seed_registry(harvested.rp_matrix.clone(), true);
    let clock = Arc::new(MockClock::new());
    let mut trainer = OnlineTrainer::attach_with_clock(
        Arc::clone(&registry),
        "m",
        OnlineTrainerConfig {
            policy: SwapPolicy::every_elapsed(Duration::from_secs(10)),
            class_shards: None,
        },
        Arc::clone(&clock) as Arc<dyn hdc_serve::Clock>,
    )
    .unwrap();
    let (rows, labels) = train_rows(offline.dataset());
    let row_of = |label: usize| &rows[labels.iter().position(|&l| l == label).unwrap()];

    // Against the all-zero shadow every score ties at 0 and class 0 wins:
    // a class-0 sample applies no update, so no amount of elapsed time
    // publishes.
    clock.advance(Duration::from_secs(3600));
    let out = trainer.feed_one(row_of(0), 0).unwrap();
    assert_eq!((out.updates, out.published.is_some()), (0, false));
    // A class-1 sample is mispredicted as 0; the interval has long passed.
    let out = trainer.feed_one(row_of(1), 1).unwrap();
    assert_eq!(out.updates, 1);
    let first = out.published.expect("update pending and interval elapsed");
    assert!(Arc::ptr_eq(&registry.get("m").unwrap(), &first));
    assert_eq!(trainer.generation(), 1);
    // The publish restarted the interval. Class 2's row is still zero, so
    // its sample is mispredicted too — but 9.999 s is not yet 10 s.
    let out = trainer.feed_one(row_of(2), 2).unwrap();
    assert_eq!((out.updates, out.published.is_some()), (1, false));
    clock.advance(Duration::from_millis(9_999));
    let out = trainer.feed_one(row_of(0), 0).unwrap();
    assert!(out.published.is_none());
    assert!(trainer.pending_updates() >= 1);
    clock.advance(Duration::from_millis(1));
    let out = trainer.feed_one(row_of(0), 0).unwrap();
    assert!(out.published.is_some());
    assert_eq!((trainer.generation(), trainer.pending_updates()), (2, 0));
}

/// Publishing with zero unpublished updates is a no-op: the registry entry
/// is returned unchanged (`Arc::ptr_eq`), every artifact is untouched, and
/// no generation is burned.
#[test]
fn zero_update_publish_is_a_noop() {
    let offline =
        ClassificationApp::with_options(dataset(), DIM, EPOCHS, &CompileOptions::default())
            .unwrap();
    let harvested = offline.harvest_artifacts().unwrap();
    let (registry, mut trainer) = seed_trainer(harvested.rp_matrix.clone(), true, None);
    let before = registry.get("m").unwrap();
    let published = trainer.publish().unwrap();
    assert!(
        Arc::ptr_eq(&published, &before),
        "no-op publish must return the live Arc"
    );
    assert!(Arc::ptr_eq(&registry.get("m").unwrap(), &before));
    assert_eq!(trainer.generation(), 0);
    assert_eq!(trainer.stats().publishes, 0);
    // Same after a feed that applies no update: predict-correct samples
    // leave the shadow untouched, so the policy never fires and an
    // explicit publish still no-ops.
    let (rows, labels) = train_rows(&dataset());
    let mut trainer2 = {
        let model = Arc::new(ServableModel::classifier("trained", &offline).unwrap());
        registry.register("trained", model);
        OnlineTrainer::attach(
            Arc::clone(&registry),
            "trained",
            OnlineTrainerConfig::default(),
        )
        .unwrap()
    };
    // Replay the training set until an epoch applies zero updates (the
    // perceptron converged for this separable toy set), then publish.
    let mut converged = false;
    for _ in 0..10 {
        let out = trainer2.feed(&rows, &labels).unwrap();
        if out.updates == 0 {
            converged = true;
            break;
        }
        trainer2.publish().unwrap();
    }
    assert!(
        converged,
        "toy training set failed to converge in 10 epochs"
    );
    let live = registry.get("trained").unwrap();
    let republished = trainer2.publish().unwrap();
    assert!(Arc::ptr_eq(&republished, &live));
}

/// Every published generation shares the projection with the attach-time
/// model: the sign bits, and their ±1 expansion, which is the harvested
/// `f64` matrix itself. Publishing is a refcount bump, never a copy, and
/// no generation rescans the matrix or rebuilds its 10 MB expansion.
#[test]
fn generations_share_the_projection_payload() {
    let offline =
        ClassificationApp::with_options(dataset(), DIM, 1, &CompileOptions::default()).unwrap();
    let harvested = offline.harvest_artifacts().unwrap();
    let Value::Matrix(matrix) = &harvested.rp_matrix else {
        panic!("the harvested projection is an f64 matrix");
    };
    let (registry, mut trainer) = seed_trainer(harvested.rp_matrix.clone(), true, None);
    let before = registry.get("m").unwrap();
    let signs = |model: &ServableModel| match model.projection() {
        Value::BitMatrix(bits) => Arc::clone(bits),
        other => panic!("a ±1 projection has sign bits, got {other:?}"),
    };
    assert!(
        Arc::ptr_eq(signs(&before).expansion().unwrap(), matrix),
        "the expansion is the harvested matrix"
    );
    let (rows, labels) = train_rows(&dataset());
    for generation in 1..=2 {
        trainer.feed(&rows, &labels).unwrap();
        let published = trainer.publish().unwrap();
        assert!(!Arc::ptr_eq(&published, &before));
        assert!(
            Arc::ptr_eq(&signs(&before), &signs(&published)),
            "generation {generation}: sign bits must be shared"
        );
        assert!(
            Arc::ptr_eq(signs(&published).expansion().unwrap(), matrix),
            "generation {generation}: the expansion must be shared"
        );
    }
}

/// The swapped-in generation answers requests through the service exactly
/// as its own oracle does — the serving path and the publish path agree on
/// what the new model is.
#[test]
fn service_answers_match_published_generation_oracle() {
    let offline =
        ClassificationApp::with_options(dataset(), DIM, 1, &CompileOptions::default()).unwrap();
    let harvested = offline.harvest_artifacts().unwrap();
    let (registry, mut trainer) = seed_trainer(harvested.rp_matrix.clone(), true, None);
    let (rows, labels) = train_rows(&dataset());
    for _ in 0..EPOCHS {
        trainer.feed(&rows, &labels).unwrap();
    }
    let published = trainer.publish().unwrap();
    let service = Service::start(Arc::clone(&registry), ServiceConfig::default());
    for row in rows.iter().take(8) {
        let expected = published.oracle_infer(row).unwrap();
        let got = service.submit("m", row.clone()).wait().unwrap();
        assert_eq!(got, expected);
    }
    service.shutdown();
}

/// The drift contract: each seeded tape replayed prequentially (predict,
/// then learn) through one service holding a `static` and an `adapting`
/// entry for the same base model. Every answer equals the live
/// generation's oracle (feedback runs on this thread, so the generation a
/// query resolves is known) and no feedback call errors. Where the drift
/// moves the class-conditional distributions the swap policy publishes and
/// the adapting model beats the static one after the onset by a clear
/// margin. Label shift is the control: `P(x|y)` never moves, so it makes
/// too few updates to publish and no recovery gap is expected there.
#[test]
fn drift_tapes_replay_cleanly_and_recover_after_onset() {
    let tapes = [
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
    ];
    for (DriftScenario { base, tape }, recovers) in tapes {
        let name = tape.name;
        let app = ClassificationApp::new(base, DIM, 2).unwrap();
        let model = Arc::new(ServableModel::classifier("adapting", &app).unwrap());
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
                policy: SwapPolicy::every_updates(8),
                class_shards: None,
            },
        )
        .unwrap();
        service.attach_trainer(trainer);

        let mut live = Arc::clone(&model);
        let mut swaps = 0;
        let (mut static_hits, mut adapting_hits) = (0, 0);
        for (i, sample) in tape.samples.iter().enumerate() {
            let p_static = service
                .submit("static", sample.features.clone())
                .wait()
                .unwrap();
            let p_adapting = service
                .submit("adapting", sample.features.clone())
                .wait()
                .unwrap();
            assert_eq!(
                p_static,
                model.oracle_infer(&sample.features).unwrap(),
                "{name} sample {i}: static answer off its oracle"
            );
            assert_eq!(
                p_adapting,
                live.oracle_infer(&sample.features).unwrap(),
                "{name} sample {i}: adapting answer off the live generation's oracle"
            );
            if i >= tape.onset {
                let truth = Prediction::Label(sample.label);
                static_hits += usize::from(p_static == truth);
                adapting_hits += usize::from(p_adapting == truth);
            }
            let out = service
                .feedback("adapting", &sample.features, sample.label)
                .unwrap_or_else(|e| panic!("{name} sample {i}: feedback failed: {e}"));
            if let Some(published) = out.published {
                swaps += 1;
                live = published;
            }
        }
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats.failed, 0, "{name}");
        assert_eq!(stats.feedback_rejected, 0, "{name}");
        assert_eq!(stats.swaps_published, swaps, "{name}");
        if recovers {
            assert!(swaps >= 1, "{name}: the swap policy never published");
            let post = (tape.samples.len() - tape.onset) as f64;
            let (static_acc, adapting_acc) =
                (static_hits as f64 / post, adapting_hits as f64 / post);
            assert!(
                adapting_acc > static_acc + 0.05,
                "{name}: no recovery after the onset (adapting {adapting_acc:.3} vs static \
                 {static_acc:.3})"
            );
        }
    }
}
