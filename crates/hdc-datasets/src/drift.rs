//! Drift scenarios for online adaptation: timestamped feedback tapes.
//!
//! Each generator builds a [`DriftScenario`]: a *base* [`Dataset`] used to
//! train the initial (pre-drift) model offline, plus a [`DriftTape`] — a
//! timestamped stream of labeled feedback samples whose distribution
//! changes at a configured onset. Replaying the tape prequentially
//! (predict each sample, then reveal its label as feedback) measures how a
//! static model degrades after the onset and how fast an adapting model
//! recovers.
//!
//! Three drift shapes, mirroring the online-learning literature:
//!
//! * [`label_shift`] — `P(y)` changes (post-onset labels concentrate on a
//!   subset of classes) while `P(x|y)` stays fixed. A static model's
//!   per-class behaviour is unchanged, so this is the control scenario:
//!   adaptation must not *hurt*.
//! * [`incremental_classes`] — classes unseen during offline training
//!   appear only after the onset. The static model cannot ever predict
//!   them; the adapting model must grow its class memory rows from
//!   feedback alone.
//! * [`concept_drift`] — `P(x|y)` changes on the EMG-like stream: every
//!   gesture's oscillation profile is redrawn at the onset, invalidating
//!   the offline class memory outright.
//!
//! Everything is derived from the seed in the parameter struct, so two
//! calls with equal parameters return byte-identical scenarios.

use crate::{Dataset, DatasetMeta, Split};
use hdc_core::{HdcRng, HyperMatrix, HyperVector};
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, StandardNormal};

/// One labeled feedback observation on a drift tape.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackSample {
    /// Arrival time of the observation, milliseconds from tape start.
    pub at_ms: u64,
    /// Feature payload (same length as the scenario's feature count).
    pub features: Vec<f64>,
    /// Ground-truth label, revealed to the trainer as feedback.
    pub label: usize,
}

/// A timestamped labeled feedback stream with one drift onset.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftTape {
    /// Scenario name (stable, for reports).
    pub name: &'static str,
    /// Total number of classes any sample on the tape may carry.
    pub classes: usize,
    /// Feature-vector length of every sample.
    pub features: usize,
    /// Index of the first post-drift sample: `samples[..onset]` follow the
    /// base distribution, `samples[onset..]` the drifted one.
    pub onset: usize,
    /// The observations, in arrival order with non-decreasing `at_ms`.
    pub samples: Vec<FeedbackSample>,
    /// RNG seed the tape was derived from.
    pub seed: u64,
}

impl DriftTape {
    /// Samples before the drift onset.
    pub fn pre(&self) -> &[FeedbackSample] {
        &self.samples[..self.onset]
    }

    /// Samples at and after the drift onset.
    pub fn post(&self) -> &[FeedbackSample] {
        &self.samples[self.onset..]
    }

    /// Arrival time of the first post-drift sample, or the end of the tape
    /// if the onset is past the last sample.
    pub fn onset_ms(&self) -> u64 {
        self.samples
            .get(self.onset)
            .or(self.samples.last())
            .map_or(0, |s| s.at_ms)
    }
}

/// A drift scenario: the offline base dataset plus the feedback tape.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScenario {
    /// Pre-drift dataset the initial model is trained on offline.
    pub base: Dataset,
    /// The timestamped feedback stream replayed against the service.
    pub tape: DriftTape,
}

/// Parameters for [`label_shift`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelShiftParams {
    /// Number of classes.
    pub classes: usize,
    /// Feature-vector length.
    pub features: usize,
    /// Offline training samples per class in the base dataset.
    pub train_per_class: usize,
    /// Offline test samples per class in the base dataset.
    pub test_per_class: usize,
    /// Per-sample Gaussian noise around the class centroid.
    pub noise: f64,
    /// Tape samples before the onset (uniform label marginals).
    pub pre_samples: usize,
    /// Tape samples after the onset (shifted marginals).
    pub post_samples: usize,
    /// Post-onset label mass concentrates on the first `shifted_classes`
    /// classes.
    pub shifted_classes: usize,
    /// Probability a post-onset label is drawn from the shifted subset.
    pub shifted_mass: f64,
    /// Milliseconds between consecutive tape samples.
    pub period_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LabelShiftParams {
    fn default() -> Self {
        LabelShiftParams {
            classes: 6,
            features: 48,
            train_per_class: 8,
            test_per_class: 4,
            noise: 1.2,
            pre_samples: 160,
            post_samples: 160,
            shifted_classes: 2,
            shifted_mass: 0.85,
            period_ms: 5,
            seed: 0x1abe1,
        }
    }
}

/// Label shift on Gaussian class clusters: `P(y)` changes at the onset,
/// `P(x|y)` does not.
///
/// Pre-onset labels cycle round-robin (exactly uniform marginals);
/// post-onset each label lands in the first `shifted_classes` classes with
/// probability `shifted_mass`, else anywhere. Sample features are always
/// centroid + noise for the drawn label, from the same centroids the base
/// dataset uses.
pub fn label_shift(params: &LabelShiftParams) -> DriftScenario {
    assert!(
        params.shifted_classes > 0 && params.shifted_classes <= params.classes,
        "shifted subset {} must be within 1..={} classes",
        params.shifted_classes,
        params.classes
    );
    let mut rng = HdcRng::seed_from_u64(params.seed);
    let centroids = cluster_centroids(params.classes, params.features, &mut rng);
    let base = cluster_base(
        "label-shift-base",
        &centroids,
        params.classes,
        params.noise,
        params.train_per_class,
        params.test_per_class,
        params.seed,
        &mut rng,
    );
    let mut samples = Vec::with_capacity(params.pre_samples + params.post_samples);
    for i in 0..params.pre_samples {
        let label = i % params.classes;
        push_cluster_sample(
            &mut samples,
            &centroids,
            label,
            params.noise,
            params.period_ms,
            &mut rng,
        );
    }
    for _ in 0..params.post_samples {
        let label = if rng.gen_bool(params.shifted_mass) {
            rng.gen_range(0..params.shifted_classes)
        } else {
            rng.gen_range(0..params.classes)
        };
        push_cluster_sample(
            &mut samples,
            &centroids,
            label,
            params.noise,
            params.period_ms,
            &mut rng,
        );
    }
    DriftScenario {
        base,
        tape: DriftTape {
            name: "label-shift",
            classes: params.classes,
            features: params.features,
            onset: params.pre_samples,
            samples,
            seed: params.seed,
        },
    }
}

/// Parameters for [`incremental_classes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalClassParams {
    /// Total number of classes (class-memory rows the model declares).
    pub classes: usize,
    /// Classes present in the base dataset and the pre-onset tape.
    pub initial_classes: usize,
    /// Feature-vector length.
    pub features: usize,
    /// Offline training samples per *initial* class.
    pub train_per_class: usize,
    /// Offline test samples per *initial* class.
    pub test_per_class: usize,
    /// Per-sample Gaussian noise around the class centroid.
    pub noise: f64,
    /// Tape samples before the onset (initial classes only).
    pub pre_samples: usize,
    /// Tape samples after the onset (mix including new classes).
    pub post_samples: usize,
    /// Probability a post-onset label is one of the new classes.
    pub new_class_mass: f64,
    /// Milliseconds between consecutive tape samples.
    pub period_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IncrementalClassParams {
    fn default() -> Self {
        IncrementalClassParams {
            classes: 6,
            initial_classes: 4,
            features: 48,
            train_per_class: 8,
            test_per_class: 4,
            noise: 1.2,
            pre_samples: 120,
            post_samples: 200,
            new_class_mass: 0.5,
            period_ms: 5,
            seed: 0x1c7e55,
        }
    }
}

/// Incremental classes: labels `initial_classes..classes` appear only at
/// and after the onset.
///
/// The base dataset declares all `classes` in its metadata (so the class
/// memory has a row per eventual class) but contains samples only for the
/// initial subset — the rows for unseen classes stay at their zero
/// initialization until online feedback trains them.
pub fn incremental_classes(params: &IncrementalClassParams) -> DriftScenario {
    assert!(
        params.initial_classes > 0 && params.initial_classes < params.classes,
        "initial classes {} must be within 1..{}",
        params.initial_classes,
        params.classes
    );
    let mut rng = HdcRng::seed_from_u64(params.seed);
    let centroids = cluster_centroids(params.classes, params.features, &mut rng);
    let mut base = cluster_base(
        "incremental-classes-base",
        &centroids[..params.initial_classes],
        params.initial_classes,
        params.noise,
        params.train_per_class,
        params.test_per_class,
        params.seed,
        &mut rng,
    );
    // The model must declare a class-memory row for every eventual class.
    base.meta.classes = params.classes;
    let mut samples = Vec::with_capacity(params.pre_samples + params.post_samples);
    for i in 0..params.pre_samples {
        let label = i % params.initial_classes;
        push_cluster_sample(
            &mut samples,
            &centroids,
            label,
            params.noise,
            params.period_ms,
            &mut rng,
        );
    }
    for _ in 0..params.post_samples {
        let label = if rng.gen_bool(params.new_class_mass) {
            rng.gen_range(params.initial_classes..params.classes)
        } else {
            rng.gen_range(0..params.initial_classes)
        };
        push_cluster_sample(
            &mut samples,
            &centroids,
            label,
            params.noise,
            params.period_ms,
            &mut rng,
        );
    }
    DriftScenario {
        base,
        tape: DriftTape {
            name: "incremental-classes",
            classes: params.classes,
            features: params.features,
            onset: params.pre_samples,
            samples,
            seed: params.seed,
        },
    }
}

/// Parameters for [`concept_drift`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConceptDriftParams {
    /// Number of gesture classes.
    pub gestures: usize,
    /// Number of EMG electrode channels.
    pub channels: usize,
    /// Timesteps per window; features flatten `channels * window`.
    pub window: usize,
    /// Offline training windows per gesture.
    pub train_per_class: usize,
    /// Offline test windows per gesture.
    pub test_per_class: usize,
    /// Additive measurement noise standard deviation.
    pub noise: f64,
    /// Maximum random phase offset (radians) at which a window is cut.
    pub phase_jitter: f64,
    /// Tape samples before the onset (pre-drift profiles).
    pub pre_samples: usize,
    /// Tape samples after the onset (redrawn profiles).
    pub post_samples: usize,
    /// Milliseconds between consecutive tape samples.
    pub period_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConceptDriftParams {
    fn default() -> Self {
        ConceptDriftParams {
            gestures: 5,
            channels: 3,
            window: 16,
            train_per_class: 10,
            test_per_class: 5,
            noise: 0.4,
            phase_jitter: 0.3,
            pre_samples: 120,
            post_samples: 200,
            period_ms: 5,
            seed: 0xd21f7,
        }
    }
}

/// Per-gesture, per-channel oscillation parameters (the EMG "concept").
#[derive(Debug, Clone, Copy)]
struct ChannelWave {
    amplitude: f64,
    frequency: f64,
    phase: f64,
}

/// Concept drift on the EMG-like stream: `P(x|y)` changes at the onset.
///
/// Every gesture's per-channel oscillation profile (amplitude, frequency,
/// phase) is redrawn at the onset — the electrode placement shifted, so
/// the same gesture now produces different signals. The offline class
/// memory becomes stale outright; only feedback-driven retraining can
/// track the new concept.
pub fn concept_drift(params: &ConceptDriftParams) -> DriftScenario {
    let features = params.channels * params.window;
    let mut rng = HdcRng::seed_from_u64(params.seed);
    let pre_profiles = wave_profiles(params.gestures, params.channels, &mut rng);
    let post_profiles = wave_profiles(params.gestures, params.channels, &mut rng);
    let draw_split = |per_class: usize, rng: &mut HdcRng| -> Split {
        let mut rows = Vec::with_capacity(per_class * params.gestures);
        let mut labels = Vec::with_capacity(per_class * params.gestures);
        for _ in 0..per_class {
            for (gesture, profile) in pre_profiles.iter().enumerate() {
                rows.push(HyperVector::from_vec(wave_sample(profile, params, rng)));
                labels.push(gesture);
            }
        }
        Split {
            features: HyperMatrix::from_rows(rows).expect("equal row dims"),
            labels,
        }
    };
    let train = draw_split(params.train_per_class, &mut rng);
    let test = draw_split(params.test_per_class, &mut rng);
    let base = Dataset {
        train,
        test,
        meta: DatasetMeta {
            name: "concept-drift-base",
            classes: params.gestures,
            features,
            seed: params.seed,
        },
    };
    let mut samples = Vec::with_capacity(params.pre_samples + params.post_samples);
    for (count, profiles) in [
        (params.pre_samples, &pre_profiles),
        (params.post_samples, &post_profiles),
    ] {
        for i in 0..count {
            let gesture = i % params.gestures;
            let at_ms = samples.len() as u64 * params.period_ms;
            samples.push(FeedbackSample {
                at_ms,
                features: wave_sample(&profiles[gesture], params, &mut rng),
                label: gesture,
            });
        }
    }
    DriftScenario {
        base,
        tape: DriftTape {
            name: "concept-drift",
            classes: params.gestures,
            features,
            onset: params.pre_samples,
            samples,
            seed: params.seed,
        },
    }
}

fn cluster_centroids(classes: usize, features: usize, rng: &mut HdcRng) -> Vec<HyperVector<f64>> {
    (0..classes)
        .map(|_| HyperVector::from_fn(features, |_| StandardNormal.sample(rng)))
        .collect()
}

/// Draw a base dataset from (a prefix of) the scenario centroids, in the
/// same round-robin order `isolet_like` uses.
#[allow(clippy::too_many_arguments)]
fn cluster_base(
    name: &'static str,
    centroids: &[HyperVector<f64>],
    classes: usize,
    noise: f64,
    train_per_class: usize,
    test_per_class: usize,
    seed: u64,
    rng: &mut HdcRng,
) -> Dataset {
    let features = centroids[0].dimension();
    let draw_split = |per_class: usize, rng: &mut HdcRng| -> Split {
        let mut rows = Vec::with_capacity(per_class * classes);
        let mut labels = Vec::with_capacity(per_class * classes);
        for _ in 0..per_class {
            for (class, centroid) in centroids.iter().enumerate() {
                rows.push(HyperVector::from_vec(cluster_sample(centroid, noise, rng)));
                labels.push(class);
            }
        }
        Split {
            features: HyperMatrix::from_rows(rows).expect("equal row dims"),
            labels,
        }
    };
    let train = draw_split(train_per_class, rng);
    let test = draw_split(test_per_class, rng);
    Dataset {
        train,
        test,
        meta: DatasetMeta {
            name,
            classes,
            features,
            seed,
        },
    }
}

fn cluster_sample(centroid: &HyperVector<f64>, noise: f64, rng: &mut HdcRng) -> Vec<f64> {
    centroid
        .as_slice()
        .iter()
        .map(|&c| {
            let n: f64 = StandardNormal.sample(rng);
            c + noise * n
        })
        .collect()
}

fn push_cluster_sample(
    samples: &mut Vec<FeedbackSample>,
    centroids: &[HyperVector<f64>],
    label: usize,
    noise: f64,
    period_ms: u64,
    rng: &mut HdcRng,
) {
    let at_ms = samples.len() as u64 * period_ms;
    samples.push(FeedbackSample {
        at_ms,
        features: cluster_sample(&centroids[label], noise, rng),
        label,
    });
}

fn wave_profiles(gestures: usize, channels: usize, rng: &mut HdcRng) -> Vec<Vec<ChannelWave>> {
    (0..gestures)
        .map(|_| {
            (0..channels)
                .map(|_| ChannelWave {
                    amplitude: rng.gen_range(0.5..=1.5),
                    frequency: rng.gen_range(1.0..=8.0),
                    phase: rng.gen_range(0.0..=std::f64::consts::TAU),
                })
                .collect()
        })
        .collect()
}

fn wave_sample(profile: &[ChannelWave], params: &ConceptDriftParams, rng: &mut HdcRng) -> Vec<f64> {
    let start = rng.gen_range(0.0..=params.phase_jitter.max(f64::MIN_POSITIVE));
    let mut row = Vec::with_capacity(params.channels * params.window);
    for wave in profile {
        for t in 0..params.window {
            let angle = start + wave.phase + wave.frequency * (t as f64 / params.window as f64);
            let n: f64 = StandardNormal.sample(rng);
            row.push(wave.amplitude * angle.sin() + params.noise * n);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shift() -> LabelShiftParams {
        LabelShiftParams {
            classes: 4,
            features: 16,
            train_per_class: 4,
            test_per_class: 2,
            pre_samples: 80,
            post_samples: 80,
            shifted_classes: 1,
            shifted_mass: 0.9,
            seed: 11,
            ..LabelShiftParams::default()
        }
    }

    #[test]
    fn tapes_are_seed_deterministic() {
        let shift = small_shift();
        assert_eq!(label_shift(&shift), label_shift(&shift));
        let inc = IncrementalClassParams {
            seed: 12,
            ..IncrementalClassParams::default()
        };
        assert_eq!(incremental_classes(&inc), incremental_classes(&inc));
        let cd = ConceptDriftParams {
            seed: 13,
            ..ConceptDriftParams::default()
        };
        assert_eq!(concept_drift(&cd), concept_drift(&cd));
        // A different seed changes the tape.
        let other = label_shift(&LabelShiftParams { seed: 14, ..shift });
        assert_ne!(label_shift(&shift).tape, other.tape);
    }

    #[test]
    fn label_shift_marginals_actually_shift() {
        let params = small_shift();
        let tape = label_shift(&params).tape;
        let share = |samples: &[FeedbackSample]| -> f64 {
            samples
                .iter()
                .filter(|s| s.label < params.shifted_classes)
                .count() as f64
                / samples.len() as f64
        };
        let pre = share(tape.pre());
        let post = share(tape.post());
        // Round-robin pre-onset: exactly 1-in-4 labels in the shifted
        // subset. Post-onset the subset carries ~0.9 + 0.1/4 of the mass.
        assert!((pre - 0.25).abs() < 1e-9, "pre-onset share {pre}");
        assert!(post > 0.7, "post-onset share {post} did not shift");
        // P(x|y) unchanged: every sample still matches its centroid count.
        assert!(tape.samples.iter().all(|s| s.features.len() == 16));
    }

    #[test]
    fn incremental_tape_gates_unseen_labels_on_onset() {
        let params = IncrementalClassParams {
            classes: 5,
            initial_classes: 3,
            pre_samples: 60,
            post_samples: 90,
            seed: 21,
            ..IncrementalClassParams::default()
        };
        let scenario = incremental_classes(&params);
        // Base dataset: only initial classes present, but metadata declares
        // every eventual class (the class memory needs the rows).
        assert_eq!(scenario.base.meta.classes, 5);
        assert!(scenario.base.train.labels.iter().all(|&l| l < 3));
        assert!(scenario.base.test.labels.iter().all(|&l| l < 3));
        let tape = &scenario.tape;
        assert_eq!(tape.onset, 60);
        assert!(
            tape.pre().iter().all(|s| s.label < 3),
            "unseen label leaked pre-onset"
        );
        assert!(
            tape.post().iter().any(|s| s.label >= 3),
            "new classes never appear post-onset"
        );
        assert!(tape.samples.iter().all(|s| s.label < 5));
    }

    #[test]
    fn concept_drift_redraws_profiles_at_onset() {
        let params = ConceptDriftParams {
            gestures: 3,
            channels: 2,
            window: 8,
            pre_samples: 30,
            post_samples: 30,
            noise: 0.0,
            phase_jitter: 0.0,
            seed: 31,
            ..ConceptDriftParams::default()
        };
        let scenario = concept_drift(&params);
        let tape = &scenario.tape;
        assert_eq!(tape.features, 16);
        // Noise- and jitter-free: pre-onset samples of a gesture are
        // identical to each other, and differ from the redrawn post-onset
        // concept of the same gesture.
        assert_eq!(tape.samples[0].features, tape.samples[3].features);
        assert_eq!(tape.samples[0].label, tape.samples[30].label);
        assert_ne!(
            tape.samples[0].features, tape.samples[30].features,
            "post-onset concept must differ"
        );
        // Labels keep cycling over the same gesture set on both sides.
        assert!(tape.samples.iter().all(|s| s.label < 3));
    }

    #[test]
    fn tape_timestamps_are_monotone() {
        let tape = label_shift(&small_shift()).tape;
        assert!(tape.samples.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert_eq!(tape.onset_ms(), tape.samples[tape.onset].at_ms);
    }
}
