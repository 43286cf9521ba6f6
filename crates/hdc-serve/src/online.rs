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
//!   pipeline, executed on a [`fork`](Executor::fork) of a bound executor
//!   — so feedback rows encode bit-identically to offline training rows.
//! * **Replay** mirrors the executor's batched training schedule exactly:
//!   scores for the whole mini-batch are frozen with one
//!   [`score_epoch_sharded`] call, samples replay in submission order, and
//!   the first class-memory update flips the remainder of the batch to
//!   live per-sample rescoring with the public reference kernel — the
//!   same stale-flag protocol `hdc-runtime` uses, with the same
//!   [`update_row_in_place`] accumulation.
//! * **Freezing** re-runs `sign` over the shadow through the compiled
//!   pass pipeline (binarized or dense baseline, matching the live
//!   model), producing the same artifact representation the offline
//!   harvest yields.
//!
//! The `online_equivalence` suite pins all three: feeding the offline
//! training set in epoch order and publishing once produces a class
//! memory bit-identical to the offline batched trainer's.

use crate::clock::{Clock, SystemClock};
use crate::model::ServableModel;
use crate::registry::ModelRegistry;
use crate::{Result, ServeError};
use hdc_core::batch::{score_epoch_sharded, SimilarityMetric};
use hdc_core::element::ElementKind;
use hdc_core::similarity::cosine_similarity_matrix;
use hdc_core::{default_shard_count, HyperMatrix, Perforation, ShardPlan};
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::Program;
use hdc_ir::stage::ScorePolarity;
use hdc_passes::{compile, CompileOptions};
use hdc_runtime::{update_row_in_place, Executor, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the trainer publishes its shadow as a new model generation. All
/// triggers are optional and OR-ed together; a trainer with no triggers
/// publishes only on explicit [`OnlineTrainer::publish`] calls. A policy
/// never fires while the shadow has no unpublished updates — a swap that
/// would change nothing is not worth a template compile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwapPolicy {
    /// Publish once this many unpublished updates have accumulated.
    pub every_updates: Option<u64>,
    /// Publish once this much time has passed since the last publish.
    pub every_elapsed: Option<Duration>,
    /// Publish when the live-rescore rate since the last publish exceeds
    /// this fraction. The rescore rate is PR 5's staleness machinery: the
    /// share of replayed samples that could not use the frozen epoch
    /// scores because an earlier update invalidated them. A high rate
    /// means the shadow is diverging quickly from what it was scoring
    /// with — i.e. from what the live model is still serving.
    pub rescore_rate_above: Option<f64>,
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
    /// exactly like [`Executor::set_class_shards`]; `None` derives the
    /// count from the class rows and worker threads.
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
    /// Samples re-scored live because an earlier update in their batch
    /// invalidated the frozen scores.
    pub rescored: u64,
    /// Generations published through the registry.
    pub publishes: u64,
}

/// The outcome of one [`OnlineTrainer::feed`] call.
#[derive(Debug, Clone)]
pub struct FeedOutcome {
    /// Samples replayed from this batch.
    pub processed: usize,
    /// Perceptron updates this batch applied to the shadow.
    pub updates: u64,
    /// Samples this batch re-scored live against the updated shadow.
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
    /// The projection matrix, shared with every published generation by
    /// refcount bump.
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
    samples_since_publish: u64,
    rescored_since_publish: u64,
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
        let dim = match &rp {
            Value::Matrix(m) => m.rows(),
            other => {
                return Err(ServeError::ModelBuild(format!(
                    "projection must be a dense matrix, got {}",
                    other.kind_name()
                )))
            }
        };
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
            samples_since_publish: 0,
            rescored_since_publish: 0,
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
        self.encode_program(rows)
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
            self.validate_row(row)?;
        }
        let classes = self.classes();
        for &label in labels {
            if label >= classes {
                return Err(ServeError::UnknownLabel { label, classes });
            }
        }
        if rows.is_empty() {
            return Ok(FeedOutcome {
                processed: 0,
                updates: 0,
                rescored: 0,
                published: None,
            });
        }
        let encoded = self.encode(rows)?;
        let (updates, rescored) = self.replay(&encoded, labels)?;
        self.stats.feeds += 1;
        self.stats.samples += rows.len() as u64;
        self.stats.updates += updates;
        self.stats.rescored += rescored;
        self.samples_since_publish += rows.len() as u64;
        self.updates_since_publish += updates;
        self.rescored_since_publish += rescored;
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
    /// re-freezing or template compilation fails.
    pub fn publish(&mut self) -> Result<Arc<ServableModel>> {
        if self.updates_since_publish == 0 {
            return self.registry.get(&self.key);
        }
        let class_bits = self.freeze()?;
        let model = Arc::new(ServableModel::classifier_from_artifacts(
            &format!("{}@gen{}", self.key, self.generation + 1),
            self.features,
            // The projection never changes: every generation shares the
            // same Arc payload.
            self.rp.clone(),
            class_bits,
            Some(Value::matrix(self.shadow.clone())),
        )?);
        self.registry.swap(&self.key, Arc::clone(&model));
        self.generation += 1;
        self.stats.publishes += 1;
        self.updates_since_publish = 0;
        self.samples_since_publish = 0;
        self.rescored_since_publish = 0;
        self.last_publish_at = self.clock.now();
        Ok(model)
    }

    /// Validate a feedback row exactly like query submission does.
    fn validate_row(&self, row: &[f64]) -> Result<()> {
        if row.is_empty() {
            return Err(ServeError::EmptyQuery);
        }
        if row.len() != self.features {
            return Err(ServeError::WrongDimension {
                expected: self.features,
                got: row.len(),
            });
        }
        if let Some(index) = row.iter().position(|x| !x.is_finite()) {
            return Err(ServeError::NonFinitePayload { index });
        }
        Ok(())
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
        if let Some(rate) = self.policy.rescore_rate_above {
            if self.samples_since_publish > 0
                && self.rescored_since_publish as f64 / self.samples_since_publish as f64 > rate
            {
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
        let program = self.encode_program(rows.len())?;
        let mut flat = Vec::with_capacity(rows.len() * self.features);
        for row in rows {
            flat.extend_from_slice(row);
        }
        let queries = HyperMatrix::from_flat(rows.len(), self.features, flat).map_err(exec_err)?;
        let mut base = Executor::new(&program).map_err(exec_err)?;
        base.set_batched_stages(true);
        base.set_parallel_loops(true);
        base.bind("rp_matrix", self.rp.clone()).map_err(exec_err)?;
        base.bind("queries", Value::matrix(queries))
            .map_err(exec_err)?;
        // Shadow execution: run on a fork so the bound base store is never
        // mutated in place — the same isolation discipline serving windows
        // get from re-binding per window, at refcount-bump cost.
        let mut shadow_exec = base.fork();
        let out = shadow_exec.run().map_err(exec_err)?;
        out.by_name("encoded")
            .ok_or_else(|| ServeError::Execution("encode output missing".to_string()))?
            .to_dense_matrix("encoded feedback")
            .map_err(exec_err)
    }

    /// Replay one encoded mini-batch against the shadow, mirroring the
    /// executor's batched training schedule: freeze the whole batch's
    /// scores with one sharded epoch kernel, replay in order, and fall
    /// back to live per-sample rescoring once an update makes the frozen
    /// scores stale. Returns `(updates, rescored)`.
    fn replay(&mut self, queries: &HyperMatrix<f64>, labels: &[usize]) -> Result<(u64, u64)> {
        let plan = self.shard_plan();
        let frozen = score_epoch_sharded(
            queries,
            &self.shadow,
            SimilarityMetric::Cosine,
            Perforation::NONE,
            &plan,
        )
        .map_err(exec_err)?;
        let mut stale = false;
        let mut updates = 0u64;
        let mut rescored = 0u64;
        for (r, &label) in labels.iter().enumerate() {
            let pred = if stale {
                let sample = queries.row_vector(r).map_err(exec_err)?;
                let scores = cosine_similarity_matrix(&sample, &self.shadow, Perforation::NONE)
                    .map_err(exec_err)?;
                rescored += 1;
                ScorePolarity::Similarity.select(scores.as_slice())
            } else {
                select_sharded(frozen.row(r).map_err(exec_err)?, &plan)
            }
            .ok_or_else(|| ServeError::Execution("empty score row".to_string()))?;
            if pred != label {
                let sample = queries.row(r).map_err(exec_err)?;
                update_row_in_place(&mut self.shadow, label, sample, 1.0).map_err(exec_err)?;
                update_row_in_place(&mut self.shadow, pred, sample, -1.0).map_err(exec_err)?;
                stale = true;
                updates += 1;
            }
        }
        Ok((updates, rescored))
    }

    /// Re-freeze the shadow: `sign(class_hvs)` through the compiled pass
    /// pipeline, bit-packed under the binarized configuration.
    fn freeze(&self) -> Result<Value> {
        let mut base = Executor::new(&self.freeze_program).map_err(exec_err)?;
        base.bind("class_hvs", Value::matrix(self.shadow.clone()))
            .map_err(exec_err)?;
        let mut shadow_exec = base.fork();
        let out = shadow_exec.run().map_err(exec_err)?;
        out.by_name("class_bits")
            .cloned()
            .ok_or_else(|| ServeError::Execution("freeze output missing".to_string()))
    }

    fn encode_program(&mut self, rows: usize) -> Result<Arc<Program>> {
        if let Some(p) = self.encode_programs.get(&rows) {
            return Ok(Arc::clone(p));
        }
        let mut b = ProgramBuilder::new(format!("online_encode_{}", self.key));
        let queries = b.input_matrix("queries", ElementKind::F64, rows, self.features);
        let rp_in = b.input_matrix("rp_matrix", ElementKind::F64, self.dim, self.features);
        let enc = b.encoding_loop("encode", queries, self.dim, |b, q| {
            let e = b.matmul(q, rp_in);
            b.sign(e)
        });
        b.name_value(enc, "encoded");
        b.mark_output(enc);
        let mut program = b.finish();
        compile(&mut program, &self.compile_options())
            .map_err(|e| ServeError::ModelBuild(e.to_string()))?;
        let arc = Arc::new(program);
        self.encode_programs.insert(rows, Arc::clone(&arc));
        Ok(arc)
    }

    fn compile_options(&self) -> CompileOptions {
        if self.binarized {
            CompileOptions::default()
        } else {
            CompileOptions::baseline()
        }
    }

    fn shard_plan(&self) -> ShardPlan {
        let rows = self.shadow.rows();
        let shards = self
            .class_shards
            .unwrap_or_else(|| default_shard_count(rows, rayon::current_num_threads()));
        ShardPlan::split(rows, shards)
    }
}

/// The frozen-score selection of the batched training schedule: plain
/// first-occurrence arg-max for a single shard, the sharded merge (global
/// lowest-index tie-break) otherwise.
fn select_sharded(row: &[f64], plan: &ShardPlan) -> Option<usize> {
    if plan.shard_count() <= 1 {
        ScorePolarity::Similarity.select(row)
    } else {
        hdc_core::shard::row_arg_max_sharded(row, plan).value
    }
}

fn build_freeze_program(key: &str, classes: usize, dim: usize, binarized: bool) -> Result<Program> {
    let mut b = ProgramBuilder::new(format!("online_freeze_{key}"));
    let hvs = b.input_matrix("class_hvs", ElementKind::F64, classes, dim);
    let bits = b.sign(hvs);
    b.name_value(bits, "class_bits");
    b.mark_output(bits);
    let mut program = b.finish();
    let options = if binarized {
        CompileOptions::default()
    } else {
        CompileOptions::baseline()
    };
    compile(&mut program, &options).map_err(|e| ServeError::ModelBuild(e.to_string()))?;
    Ok(program)
}

fn exec_err(e: impl std::fmt::Display) -> ServeError {
    ServeError::Execution(e.to_string())
}
