//! Servable models: trained app artifacts plus an inference-only program
//! built and compiled per batch size.
//!
//! A [`ServableModel`] is built *from* a trained app
//! ([`ClassificationApp`], [`ClusteringApp`], [`MatchingApp`]) in two
//! steps:
//!
//! 1. **Harvest.** The app's `harvest` runs its compiled program once with
//!    the trained artifacts (projection matrix, binarized class memory,
//!    final centroids, encoded library) flipped to outputs. The harvested
//!    [`Value`]s are `Arc`-backed, so the model holds them — and later
//!    binds them to every window's executor — by refcount bump.
//! 2. **Program.** An *inference-only* program is built against the same
//!    artifact shapes: `queries` input → random-projection encode → score
//!    against the class memory in an `inference_loop` (or all-pairs
//!    `cossim` + `arg_top_k` against the library). It is compiled with the
//!    same binarization configuration the app used (detected from the
//!    harvested artifact representation: a bit-packed class memory means
//!    the app was binarized).
//!
//! IR programs carry static shapes, so [`ServableModel::program_for`]
//! builds and compiles the program at the window's row count on first use
//! and caches it per size, the way the online trainer gets its encode
//! programs. Construction builds the 1-row program, so a model that cannot
//! compile fails there, and the oracle's program is ready.
//!
//! A ±1 projection is held as its sign bits, built once at construction,
//! whose ±1 `f64` expansion is the harvested matrix itself (shared, not
//! copied). Every program declares `rp_matrix` as `Bit` and binds the
//! bits, so every window encodes through
//! [`hdc_core::matmul::matmul_signs`], which picks its leg by the
//! window's row count. A projection that is not ±1 stays an `f64` matrix.
//! Every leg gives the same bits.

use crate::{Result, ServeError};
use hdc_apps::{ClassificationApp, ClusteringApp, MatchingApp};
use hdc_core::element::ElementKind;
use hdc_core::{BitMatrix, HyperMatrix};
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::Program;
use hdc_ir::stage::ScorePolarity;
use hdc_passes::{compile, CompileOptions};
use hdc_runtime::{ExecMode, ExecStats, Executor, Outputs, StageTraceEntry, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One request's inference result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prediction {
    /// Predicted class / cluster index (classification, cluster assign).
    Label(usize),
    /// Ranked top-k candidate indices (spectral matching).
    TopK(Vec<usize>),
}

/// How a model scores an encoded query against its memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scoring {
    /// Nearest class row by Hamming distance (classifiers).
    Hamming,
    /// Nearest centroid row by cosine similarity (cluster assigners).
    Cosine,
    /// The `k` best library rows by all-pairs cosine (matchers).
    TopK(usize),
}

/// The outcome of one window execution: per-row predictions plus the
/// executor's counters and stage trace for the stats endpoint.
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// One prediction per submitted row, in row order.
    pub predictions: Vec<Prediction>,
    /// Executor counters for the window run.
    pub stats: ExecStats,
    /// Per-stage trace of the window run.
    pub stage_trace: Vec<StageTraceEntry>,
}

/// The form a window binds a projection in: the sign bits of a ±1
/// matrix ([`BitMatrix::from_bipolar`], which keeps the matrix as the
/// bits' expansion: 158 KB of bits beside the same 10 MB at 2048 x 617),
/// anything else as it is. A bit matrix passes through without a rescan,
/// so the online trainer's generations rebuild nothing.
fn window_projection(rp: Value) -> Value {
    match &rp {
        Value::Matrix(m) => BitMatrix::from_bipolar(m).map_or(rp, Value::bit_matrix),
        _ => rp,
    }
}

/// A trained model in servable form: `Arc`-shared artifacts plus compiled
/// programs cached per batch size. Cheap to share (`Arc` it into the
/// [`ModelRegistry`](crate::ModelRegistry)); all methods take `&self`.
#[derive(Debug)]
pub struct ServableModel {
    name: String,
    scoring: Scoring,
    /// Query feature count (submission-time validation).
    features: usize,
    /// The projection as every window binds it to `rp_matrix`
    /// ([`window_projection`]).
    rp: Value,
    /// The class memory, centroids or encoded library queries are scored
    /// against.
    memory: Value,
    /// The dense training accumulator the frozen class memory was signed
    /// from, when the model supports online adaptation (classifiers only).
    train_state: Option<Value>,
    /// Compiled programs, keyed by batch size.
    programs: Mutex<HashMap<usize, Arc<Program>>>,
}

impl ServableModel {
    /// Serve a trained classification app: encode with its projection
    /// matrix, score against its (binarized or dense) trained class
    /// memory, return one [`Prediction::Label`] per query.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if harvesting the app's
    /// artifacts or compiling the serving program fails.
    pub fn classifier(name: &str, app: &ClassificationApp) -> Result<Self> {
        let harvested = app.harvest_artifacts().map_err(build_err)?;
        Self::classifier_from_artifacts(
            name,
            app.dataset().meta.features,
            harvested.rp_matrix,
            harvested.class_bits,
            Some(harvested.class_hvs),
        )
    }

    /// Build a classifier model directly from harvested (or re-frozen)
    /// artifacts: a projection matrix, a frozen class memory, and
    /// optionally the dense training accumulator the frozen memory was
    /// signed from. This is the publication path of the online trainer:
    /// after shadow updates, a new generation is assembled from the same
    /// projection `Value` (a refcount bump) plus the re-frozen memory.
    /// The projection may be the `f64` matrix or its sign bits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if the artifact shapes disagree
    /// or program compilation fails.
    pub fn classifier_from_artifacts(
        name: &str,
        features: usize,
        rp: Value,
        classes: Value,
        train_state: Option<Value>,
    ) -> Result<Self> {
        let rp = window_projection(rp);
        Self::new(name, Scoring::Hamming, features, rp, classes, train_state)
    }

    /// Serve a trained clustering app as a cluster-assignment model:
    /// encode with its projection matrix, score against its final
    /// centroids, return the nearest centroid index per query.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if harvesting the app's
    /// artifacts or compiling the serving program fails.
    pub fn cluster_assigner(name: &str, app: &ClusteringApp) -> Result<Self> {
        let centroids = format!("centroids_{}", app.rounds());
        let [rp, centroids] = as_pair(app.harvest(&["rp_matrix", &centroids]))?;
        let features = app.dataset().meta.features;
        let rp = window_projection(rp);
        Self::new(name, Scoring::Cosine, features, rp, centroids, None)
    }

    /// Serve a trained matching app: encode queries with its projection
    /// matrix, score all pairs against its encoded reference library,
    /// return the ranked top-k library indices per query
    /// ([`Prediction::TopK`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if harvesting the app's
    /// artifacts or compiling the serving program fails.
    pub fn matcher(name: &str, app: &MatchingApp) -> Result<Self> {
        let [rp, library] = as_pair(app.harvest(&["rp_matrix", "encode_library.encoded"]))?;
        let features = app.dataset().meta.features;
        let rp = window_projection(rp);
        Self::new(name, Scoring::TopK(app.k()), features, rp, library, None)
    }

    /// Check the artifact shapes, then build and cache the 1-row program.
    fn new(
        name: &str,
        scoring: Scoring,
        features: usize,
        rp: Value,
        memory: Value,
        train_state: Option<Value>,
    ) -> Result<Self> {
        let (dim, rp_cols) = matrix_shape(&rp, "rp_matrix")?;
        if rp_cols != features {
            return Err(ServeError::ModelBuild(format!(
                "projection matrix cols {rp_cols} != feature count {features}"
            )));
        }
        let (_, memory_cols) = matrix_shape(&memory, "model memory")?;
        if memory_cols != dim {
            return Err(ServeError::ModelBuild(format!(
                "model memory cols {memory_cols} != projection dim {dim}"
            )));
        }
        let model = ServableModel {
            name: name.to_string(),
            scoring,
            features,
            rp,
            memory,
            train_state,
            programs: Mutex::new(HashMap::new()),
        };
        model.program_for(1)?;
        Ok(model)
    }

    /// Model name (registry key candidate).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Query feature count; submissions of any other length are rejected.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Indices returned per request: 1 for label models, `k` for top-k
    /// matchers.
    pub fn outputs_per_query(&self) -> usize {
        match self.scoring {
            Scoring::TopK(k) => k,
            Scoring::Hamming | Scoring::Cosine => 1,
        }
    }

    /// The projection as every window binds it: a [`Value::BitMatrix`] of
    /// sign bits when every entry is exactly ±1 (its
    /// [`BitMatrix::expansion`] is the harvested `f64` matrix), the
    /// [`Value::Matrix`] otherwise.
    pub fn projection(&self) -> &Value {
        &self.rp
    }

    /// The frozen class/centroid memory artifact, if this model scores
    /// against one (classifiers and cluster assigners; `None` for
    /// matchers, which bind an encoded library instead).
    pub fn class_memory(&self) -> Option<&Value> {
        match self.scoring {
            Scoring::TopK(_) => None,
            Scoring::Hamming | Scoring::Cosine => Some(&self.memory),
        }
    }

    /// The dense training accumulator the frozen class memory was signed
    /// from, when the model was built with one (the online trainer seeds
    /// its shadow memory from this).
    pub fn train_state(&self) -> Option<&Value> {
        self.train_state.as_ref()
    }

    /// Whether the serving program runs the bit-packed (binarized)
    /// representation.
    pub fn binarized(&self) -> bool {
        matches!(self.memory, Value::BitMatrix(_) | Value::Bits(_))
    }

    /// Name of the input slot the memory artifact binds to.
    fn memory_input(&self) -> &'static str {
        match self.scoring {
            Scoring::TopK(_) => "library_enc",
            Scoring::Hamming | Scoring::Cosine => "class_memory",
        }
    }

    /// Validate a query payload the way the service does at submission.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyQuery`], [`ServeError::WrongDimension`], or
    /// [`ServeError::NonFinitePayload`].
    pub fn validate_query(&self, row: &[f64]) -> Result<()> {
        validate_row(self.features, row)
    }

    /// The compiled program for a batch of `rows` queries: built and
    /// compiled at that size on first use, then cached.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] for a zero-row batch or a program
    /// that fails to compile.
    pub fn program_for(&self, rows: usize) -> Result<Arc<Program>> {
        if rows == 0 {
            return Err(ServeError::ModelBuild(
                "batch must hold at least one query".to_string(),
            ));
        }
        let mut cache = self
            .programs
            .lock()
            .expect("no program build panics while holding the cache");
        if let Some(p) = cache.get(&rows) {
            return Ok(Arc::clone(p));
        }
        let arc = Arc::new(self.build(rows)?);
        cache.insert(rows, Arc::clone(&arc));
        Ok(arc)
    }

    /// Build and compile the inference program for `rows` queries.
    fn build(&self, rows: usize) -> Result<Program> {
        let (dim, features) = matrix_shape(&self.rp, "rp_matrix")?;
        let (memory_rows, _) = matrix_shape(&self.memory, "model memory")?;
        let rp_elem = element_kind(&self.rp);
        let binarized = self.binarized();
        let memory_elem = if binarized {
            ElementKind::Bit
        } else {
            ElementKind::F64
        };
        let mut b = ProgramBuilder::new(format!("serve_{}", self.name));
        let queries = b.input_matrix("queries", ElementKind::F64, rows, features);
        let rp = b.input_matrix("rp_matrix", rp_elem, dim, features);
        let memory = b.input_matrix(self.memory_input(), memory_elem, memory_rows, dim);
        let enc = b.encoding_loop("encode", queries, dim, |b, q| {
            let e = b.matmul(q, rp);
            b.sign(e)
        });
        let preds = match self.scoring {
            Scoring::Hamming => {
                b.inference_loop("infer", enc, memory, ScorePolarity::Distance, |b, q| {
                    b.hamming_distance(q, memory)
                })
            }
            Scoring::Cosine => {
                b.inference_loop("infer", enc, memory, ScorePolarity::Similarity, |b, q| {
                    b.cossim(q, memory)
                })
            }
            Scoring::TopK(k) => {
                let scores = b.cossim(enc, memory);
                b.name_value(scores, "scores");
                b.arg_top_k(scores, k)
            }
        };
        b.name_value(preds, "preds");
        b.mark_output(preds);
        let mut program = b.finish();
        compile_program(&mut program, binarized)?;
        Ok(program)
    }

    /// Execute one window: stack `rows` into a query matrix, run the
    /// batch-sized program, split per-row predictions back out.
    ///
    /// `batched` selects the executor schedule (`true` =
    /// [`ExecMode::Batched`], `false` = the per-sample sequential oracle);
    /// `class_shards` overrides the class-memory shard count exactly like
    /// [`Executor::set_class_shards`].
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] a row fails validation with, or
    /// [`ServeError::Execution`] if the executor rejects the window.
    pub fn infer_window(
        &self,
        rows: &[Vec<f64>],
        batched: bool,
        class_shards: Option<usize>,
    ) -> Result<WindowOutcome> {
        for row in rows {
            self.validate_query(row)?;
        }
        let program = self.program_for(rows.len())?;
        let queries = stack_rows(self.features, rows)?;
        let mut exec = Executor::new(&program).map_err(exec_err)?;
        exec.set_mode(if batched {
            ExecMode::Batched
        } else {
            ExecMode::Sequential
        });
        exec.set_class_shards(class_shards);
        exec.bind("queries", Value::matrix(queries))
            .map_err(exec_err)?;
        // Arc payloads: a refcount bump per window, never a copy.
        exec.bind("rp_matrix", self.rp.clone()).map_err(exec_err)?;
        exec.bind(self.memory_input(), self.memory.clone())
            .map_err(exec_err)?;
        let out = exec.run().map_err(exec_err)?;
        let predictions = self.split_predictions(&out, rows.len())?;
        Ok(WindowOutcome {
            predictions,
            stats: exec.stats(),
            stage_trace: exec.stage_trace().to_vec(),
        })
    }

    /// The single-request sequential oracle: batch size 1, per-sample
    /// interpreter schedule, no sharding. `serving_equivalence` pins every
    /// coalesced window to be bit-identical to this, row by row.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServableModel::infer_window`].
    pub fn oracle_infer(&self, row: &[f64]) -> Result<Prediction> {
        let outcome = self.infer_window(std::slice::from_ref(&row.to_vec()), false, None)?;
        Ok(outcome.predictions[0].clone())
    }

    fn split_predictions(&self, out: &Outputs, rows: usize) -> Result<Vec<Prediction>> {
        let indices = out
            .by_name("preds")
            .ok_or_else(|| exec_err("output `preds` missing from run"))?
            .as_indices("serving output")
            .map_err(exec_err)?;
        let per_query = self.outputs_per_query();
        if indices.len() != rows * per_query {
            return Err(exec_err(format!(
                "expected {rows}x{per_query} indices, got {}",
                indices.len()
            )));
        }
        Ok(match self.scoring {
            Scoring::TopK(k) => indices
                .chunks(k)
                .map(|c| Prediction::TopK(c.to_vec()))
                .collect(),
            Scoring::Hamming | Scoring::Cosine => {
                indices.iter().map(|&i| Prediction::Label(i)).collect()
            }
        })
    }
}

/// The two values of a two-name app harvest.
fn as_pair(harvested: hdc_apps::Result<Vec<Value>>) -> Result<[Value; 2]> {
    let values = harvested.map_err(build_err)?;
    Ok(<[Value; 2]>::try_from(values).expect("one value per harvested name"))
}

fn build_err(e: impl std::fmt::Display) -> ServeError {
    ServeError::ModelBuild(e.to_string())
}

pub(crate) fn exec_err(e: impl std::fmt::Display) -> ServeError {
    ServeError::Execution(e.to_string())
}

/// Stack validated request rows into one `rows.len() x features` matrix.
pub(crate) fn stack_rows(features: usize, rows: &[Vec<f64>]) -> Result<HyperMatrix<f64>> {
    let mut flat = Vec::with_capacity(rows.len() * features);
    for row in rows {
        flat.extend_from_slice(row);
    }
    HyperMatrix::from_flat(rows.len(), features, flat).map_err(exec_err)
}

/// The one payload check of the serving layer, shared by query submission
/// and online feedback: a row of exactly `features` finite values.
pub(crate) fn validate_row(features: usize, row: &[f64]) -> Result<()> {
    if row.is_empty() {
        return Err(ServeError::EmptyQuery);
    }
    if row.len() != features {
        return Err(ServeError::WrongDimension {
            expected: features,
            got: row.len(),
        });
    }
    if let Some(index) = row.iter().position(|x| !x.is_finite()) {
        return Err(ServeError::NonFinitePayload { index });
    }
    Ok(())
}

/// Compile a serving-layer program (window inference, feedback encode,
/// re-freeze) with the binarization configuration matching the harvested
/// artifacts.
pub(crate) fn compile_program(program: &mut Program, binarized: bool) -> Result<()> {
    let options = if binarized {
        CompileOptions::default()
    } else {
        CompileOptions::baseline()
    };
    compile(program, &options).map(|_| ()).map_err(build_err)
}

/// Shape of a dense or bit-packed matrix value.
pub(crate) fn matrix_shape(value: &Value, what: &str) -> Result<(usize, usize)> {
    match value {
        Value::Matrix(m) => Ok((m.rows(), m.cols())),
        Value::BitMatrix(b) => Ok((b.rows(), b.cols())),
        other => Err(ServeError::ModelBuild(format!(
            "{what}: expected a matrix artifact, got {}",
            other.kind_name()
        ))),
    }
}

/// The element kind a program declares a matrix value with: `Bit` for a
/// bit matrix, `F64` otherwise.
pub(crate) fn element_kind(value: &Value) -> ElementKind {
    match value {
        Value::BitMatrix(_) => ElementKind::Bit,
        _ => ElementKind::F64,
    }
}

/// Build an executor for `program` (default, batched schedule), bind
/// `binds` — `Arc` payloads, so refcount bumps — and run it once.
pub(crate) fn run_once(program: &Program, binds: &[(&str, Value)]) -> hdc_runtime::Result<Outputs> {
    let mut exec = Executor::new(program)?;
    for (name, value) in binds {
        exec.bind(name, value.clone())?;
    }
    exec.run()
}
