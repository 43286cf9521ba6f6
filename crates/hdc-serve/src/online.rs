//! Online adaptation: shadow class memory, perceptron feedback updates,
//! and atomic generation publishing.
//!
//! The paper's case for HDC retraining is that a class-memory update is a
//! handful of vector ops — cheap enough to run *inside* a serving loop.
//! This module closes that loop: an [`OnlineTrainer`] consumes labeled
//! feedback samples, applies perceptron updates to a **shadow** copy of
//! the live model's dense class memory, and publishes a new model
//! generation through [`ModelRegistry::swap`] when a [`SwapPolicy`]
//! triggers. Readers never observe a partial update: in-flight windows
//! keep the `Arc` they resolved, and the shadow is private to the trainer
//! until it is re-frozen and swapped in.
//!
//! # Bit-identity discipline
//!
//! The online path must not invent a second trainer. Every piece is the
//! offline machinery, reused:
//!
//! * **Encoding** runs the same `encoding_loop` (batched `matmul` +
//!   `sign`) the app's program uses, compiled through the same pass
//!   pipeline — so feedback rows encode bit-identically to offline
//!   training rows.
//! * **Replay** *is* the executor's batched training schedule: each feed
//!   is one [`replay_epoch`] call over the encoded mini-batch — the blocked
//!   re-freeze walk the offline `training_loop` stage runs once per epoch.
//! * **Freezing** re-runs `sign` over the shadow through the compiled
//!   pass pipeline (binarized or dense baseline, matching the live
//!   model), producing the same artifact representation the offline
//!   harvest yields.
//!
//! The `online_equivalence` suite pins all three: feeding the offline
//! training set in epoch order and publishing once produces a class
//! memory bit-identical to the offline batched trainer's.

use crate::clock::{Clock, SystemClock};
use crate::model::{
    compile_program, element_kind, exec_err, matrix_shape, run_once, stack_rows, validate_row,
    ServableModel,
};
use crate::registry::ModelRegistry;
use crate::{Result, ServeError};
use hdc_core::batch::SimilarityMetric;
use hdc_core::element::ElementKind;
use hdc_core::{HyperMatrix, Perforation};
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::Program;
use hdc_ir::stage::ScorePolarity;
use hdc_runtime::{replay_epoch, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the trainer publishes its shadow as a new model generation. All
/// triggers are optional and OR-ed together; a trainer with no triggers
/// publishes only on explicit [`OnlineTrainer::publish`] calls. A policy
/// never fires while the shadow has no unpublished updates — a swap that
/// would change nothing is not worth a program compile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwapPolicy {
    /// Publish once this many unpublished updates have accumulated.
    pub every_updates: Option<u64>,
    /// Publish once this much time has passed since the last publish.
    pub every_elapsed: Option<Duration>,
}

impl SwapPolicy {
    /// No automatic publishing; swap only on explicit
    /// [`OnlineTrainer::publish`] calls.
    pub fn manual() -> Self {
        SwapPolicy::default()
    }

    /// Publish every `n` updates.
    pub fn every_updates(n: u64) -> Self {
        SwapPolicy {
            every_updates: Some(n),
            ..SwapPolicy::default()
        }
    }

    /// Publish every `t` elapsed since the last publish.
    pub fn every_elapsed(t: Duration) -> Self {
        SwapPolicy {
            every_elapsed: Some(t),
            ..SwapPolicy::default()
        }
    }
}

/// Configuration for [`OnlineTrainer::attach`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineTrainerConfig {
    /// When to publish the shadow as a new generation.
    pub policy: SwapPolicy,
    /// Class-memory shard count override for the frozen-score selection,
    /// exactly like [`hdc_runtime::Executor::set_class_shards`]; `None`
    /// derives the count from the class rows and worker threads.
    pub class_shards: Option<usize>,
}

/// Cumulative counters over the trainer's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OnlineStats {
    /// Feedback batches processed.
    pub feeds: u64,
    /// Feedback samples replayed.
    pub samples: u64,
    /// Perceptron updates applied (mispredicted samples).
    pub updates: u64,
    /// Samples whose frozen score row was patched: visited after an
    /// earlier update within the same row block of their feed.
    pub rescored: u64,
    /// Generations published through the registry.
    pub publishes: u64,
}

/// The outcome of one [`OnlineTrainer::feed`] call.
#[derive(Debug, Clone, Default)]
pub struct FeedOutcome {
    /// Samples replayed from this batch.
    pub processed: usize,
    /// Perceptron updates this batch applied to the shadow.
    pub updates: u64,
    /// Samples of this batch whose frozen score row was patched against
    /// the updated shadow.
    pub rescored: u64,
    /// The new generation, if the swap policy fired on this batch.
    pub published: Option<Arc<ServableModel>>,
}

/// An online perceptron trainer bound to one registry entry.
///
/// Created with [`OnlineTrainer::attach`] from a model that carries its
/// dense training accumulator
/// ([`ServableModel::train_state`]). The trainer owns a private *shadow*
/// copy of that accumulator; [`OnlineTrainer::feed`] encodes labeled
/// samples and replays them against the shadow, and
/// [`OnlineTrainer::publish`] re-freezes the shadow and swaps the new
/// generation into the registry — a pointer exchange for every reader.
pub struct OnlineTrainer {
    registry: Arc<ModelRegistry>,
    /// Registry key the trainer publishes under.
    key: String,
    features: usize,
    dim: usize,
    binarized: bool,
    /// The projection as the model binds it, shared with every published
    /// generation by refcount bump.
    rp: Value,
    /// The private dense class memory feedback updates accumulate into.
    shadow: HyperMatrix<f64>,
    /// Compiled `sign(class_hvs)` freeze program (fixed shape).
    freeze_program: Program,
    /// Compiled encode programs, cached per feedback-batch size.
    encode_programs: HashMap<usize, Arc<Program>>,
    policy: SwapPolicy,
    class_shards: Option<usize>,
    clock: Arc<dyn Clock>,
    last_publish_at: Instant,
    updates_since_publish: u64,
    generation: u64,
    stats: OnlineStats,
}

impl std::fmt::Debug for OnlineTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineTrainer")
            .field("key", &self.key)
            .field("features", &self.features)
            .field("dim", &self.dim)
            .field("classes", &self.shadow.rows())
            .field("binarized", &self.binarized)
            .field("policy", &self.policy)
            .field("generation", &self.generation)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl OnlineTrainer {
    /// Attach a trainer to the model registered under `key`, seeding the
    /// shadow from its dense training accumulator.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if no model is registered under
    /// `key`; [`ServeError::NotAdaptable`] if the model carries no dense
    /// training accumulator (cluster assigners, matchers, or classifiers
    /// built without one); [`ServeError::ModelBuild`] if compiling the
    /// freeze program fails.
    pub fn attach(
        registry: Arc<ModelRegistry>,
        key: &str,
        config: OnlineTrainerConfig,
    ) -> Result<Self> {
        Self::attach_with_clock(registry, key, config, Arc::new(SystemClock))
    }

    /// [`OnlineTrainer::attach`] with an injectable clock, so elapsed-time
    /// swap policies are testable without real sleeps.
    ///
    /// # Errors
    ///
    /// Same contract as [`OnlineTrainer::attach`].
    pub fn attach_with_clock(
        registry: Arc<ModelRegistry>,
        key: &str,
        config: OnlineTrainerConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let model = registry.get(key)?;
        let train_state = model
            .train_state()
            .ok_or_else(|| ServeError::NotAdaptable(key.to_string()))?;
        let shadow = train_state
            .to_dense_matrix("train state")
            .map_err(|e| ServeError::ModelBuild(e.to_string()))?;
        let rp = model.projection().clone();
        let (dim, _) = matrix_shape(&rp, "rp_matrix")?;
        if shadow.cols() != dim {
            return Err(ServeError::ModelBuild(format!(
                "train state cols {} != projection dim {dim}",
                shadow.cols()
            )));
        }
        let binarized = model.binarized();
        let freeze_program = build_freeze_program(key, shadow.rows(), dim, binarized)?;
        let now = clock.now();
        Ok(OnlineTrainer {
            registry,
            key: key.to_string(),
            features: model.features(),
            dim,
            binarized,
            rp,
            shadow,
            freeze_program,
            encode_programs: HashMap::new(),
            policy: config.policy,
            class_shards: config.class_shards,
            clock,
            last_publish_at: now,
            updates_since_publish: 0,
            generation: 0,
            stats: OnlineStats::default(),
        })
    }

    /// Registry key the trainer publishes under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Feature count feedback rows must have.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of class-memory rows (valid labels are `0..classes()`).
    pub fn classes(&self) -> usize {
        self.shadow.rows()
    }

    /// Generations published so far (0 = still serving the attach-time
    /// model).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative trainer counters.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// The private dense shadow class memory (read-only; the equivalence
    /// suite compares it against the offline accumulator).
    pub fn shadow(&self) -> &HyperMatrix<f64> {
        &self.shadow
    }

    /// Unpublished updates accumulated in the shadow.
    pub fn pending_updates(&self) -> u64 {
        self.updates_since_publish
    }

    /// The compiled freeze program (`sign(class_hvs)`) this trainer swaps
    /// through on publish. Exposed read-only so the static analyzer can
    /// lint the exact IR the serving layer executes.
    pub fn freeze_program(&self) -> &Program {
        &self.freeze_program
    }

    /// The compiled encode program for a batch of `rows` feedback samples
    /// (built on first use and cached per batch size), exposed for the
    /// same lint purpose as [`OnlineTrainer::freeze_program`].
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelBuild`] if compiling the encode program fails.
    pub fn encoding_program(&mut self, rows: usize) -> Result<Arc<Program>> {
        if let Some(p) = self.encode_programs.get(&rows) {
            return Ok(Arc::clone(p));
        }
        let rp_elem = element_kind(&self.rp);
        let mut b = ProgramBuilder::new(format!("online_encode_{}", self.key));
        let queries = b.input_matrix("queries", ElementKind::F64, rows, self.features);
        let rp_in = b.input_matrix("rp_matrix", rp_elem, self.dim, self.features);
        let enc = b.encoding_loop("encode", queries, self.dim, |b, q| {
            let e = b.matmul(q, rp_in);
            b.sign(e)
        });
        b.name_value(enc, "encoded");
        b.mark_output(enc);
        let mut program = b.finish();
        compile_program(&mut program, self.binarized)?;
        let arc = Arc::new(program);
        self.encode_programs.insert(rows, Arc::clone(&arc));
        Ok(arc)
    }

    /// Process one mini-batch of labeled feedback: encode the rows, replay
    /// them against the shadow in order (mirroring the offline batched
    /// training schedule), and publish a new generation if the swap
    /// policy fires.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyQuery`] / [`ServeError::WrongDimension`] /
    /// [`ServeError::NonFinitePayload`] for malformed rows,
    /// [`ServeError::UnknownLabel`] for an out-of-range label (all
    /// checked before any update is applied — a bad batch never leaves a
    /// partial shadow), or [`ServeError::Execution`] /
    /// [`ServeError::ModelBuild`] from the encode or publish paths.
    pub fn feed(&mut self, rows: &[Vec<f64>], labels: &[usize]) -> Result<FeedOutcome> {
        if rows.len() != labels.len() {
            return Err(ServeError::Execution(format!(
                "feedback batch has {} rows but {} labels",
                rows.len(),
                labels.len()
            )));
        }
        for row in rows {
            validate_row(self.features, row)?;
        }
        let classes = self.classes();
        for &label in labels {
            if label >= classes {
                return Err(ServeError::UnknownLabel { label, classes });
            }
        }
        if rows.is_empty() {
            return Ok(FeedOutcome::default());
        }
        let encoded = self.encode(rows)?;
        let counts = replay_epoch(
            &encoded,
            labels,
            &mut self.shadow,
            SimilarityMetric::Cosine,
            ScorePolarity::Similarity,
            Perforation::NONE,
            self.class_shards,
        )
        .map_err(exec_err)?;
        let (updates, rescored) = (counts.updates as u64, counts.rescored_samples as u64);
        self.stats.feeds += 1;
        self.stats.samples += rows.len() as u64;
        self.stats.updates += updates;
        self.stats.rescored += rescored;
        self.updates_since_publish += updates;
        let published = if self.should_publish() {
            Some(self.publish()?)
        } else {
            None
        };
        Ok(FeedOutcome {
            processed: rows.len(),
            updates,
            rescored,
            published,
        })
    }

    /// [`OnlineTrainer::feed`] for a single sample.
    ///
    /// # Errors
    ///
    /// Same contract as [`OnlineTrainer::feed`].
    pub fn feed_one(&mut self, row: &[f64], label: usize) -> Result<FeedOutcome> {
        self.feed(std::slice::from_ref(&row.to_vec()), &[label])
    }

    /// Re-freeze the shadow through the pass pipeline and atomically swap
    /// the new generation into the registry.
    ///
    /// With no unpublished updates this is a **no-op**: the live model is
    /// returned unchanged (`Arc::ptr_eq` with the registry entry, every
    /// artifact untouched) and no swap happens — republishing an
    /// identical class memory would only churn program caches.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if the registry entry was removed, or
    /// [`ServeError::ModelBuild`] / [`ServeError::Execution`] if
    /// re-freezing or program compilation fails.
    pub fn publish(&mut self) -> Result<Arc<ServableModel>> {
        if self.updates_since_publish == 0 {
            return self.registry.get(&self.key);
        }
        let class_bits = self.freeze()?;
        let model = Arc::new(ServableModel::classifier_from_artifacts(
            &format!("{}@gen{}", self.key, self.generation + 1),
            self.features,
            // The projection never changes: every generation shares the
            // same Arc payloads, and none rescans them.
            self.rp.clone(),
            class_bits,
            Some(Value::matrix(self.shadow.clone())),
        )?);
        self.registry.swap(&self.key, Arc::clone(&model));
        self.generation += 1;
        self.stats.publishes += 1;
        self.updates_since_publish = 0;
        self.last_publish_at = self.clock.now();
        Ok(model)
    }

    fn should_publish(&self) -> bool {
        if self.updates_since_publish == 0 {
            return false;
        }
        if let Some(n) = self.policy.every_updates {
            if self.updates_since_publish >= n {
                return true;
            }
        }
        if let Some(t) = self.policy.every_elapsed {
            if self.clock.now().duration_since(self.last_publish_at) >= t {
                return true;
            }
        }
        false
    }

    /// Encode a feedback batch through the model's own encoding pipeline:
    /// batched `matmul` + `sign`, compiled with the live configuration.
    /// Returns the encoded rows as a dense `±1` matrix (unpacking a
    /// bit-packed encode output reproduces the dense `sign` exactly:
    /// both map `0.0` to `+1`).
    fn encode(&mut self, rows: &[Vec<f64>]) -> Result<HyperMatrix<f64>> {
        let program = self.encoding_program(rows.len())?;
        let queries = stack_rows(self.features, rows)?;
        let binds = [
            ("rp_matrix", self.rp.clone()),
            ("queries", Value::matrix(queries)),
        ];
        let out = run_once(&program, &binds).map_err(exec_err)?;
        out.by_name("encoded")
            .ok_or_else(|| ServeError::Execution("encode output missing".to_string()))?
            .to_dense_matrix("encoded feedback")
            .map_err(exec_err)
    }

    /// Re-freeze the shadow: `sign(class_hvs)` through the compiled pass
    /// pipeline, bit-packed under the binarized configuration.
    fn freeze(&self) -> Result<Value> {
        let binds = [("class_hvs", Value::matrix(self.shadow.clone()))];
        let out = run_once(&self.freeze_program, &binds).map_err(exec_err)?;
        out.by_name("class_bits")
            .cloned()
            .ok_or_else(|| ServeError::Execution("freeze output missing".to_string()))
    }
}

fn build_freeze_program(key: &str, classes: usize, dim: usize, binarized: bool) -> Result<Program> {
    let mut b = ProgramBuilder::new(format!("online_freeze_{key}"));
    let hvs = b.input_matrix("class_hvs", ElementKind::F64, classes, dim);
    let bits = b.sign(hvs);
    b.name_value(bits, "class_bits");
    b.mark_output(bits);
    let mut program = b.finish();
    compile_program(&mut program, binarized)?;
    Ok(program)
}
