//! Servable models: trained app artifacts + an inference-only program
//! template instantiated per batch size.
//!
//! A [`ServableModel`] is built *from* a trained app
//! ([`ClassificationApp`], [`ClusteringApp`], [`MatchingApp`]) in two
//! steps:
//!
//! 1. **Harvest.** The app's compiled program is cloned, its trained
//!    artifacts (projection matrix, binarized class memory, final
//!    centroids, encoded library) are flipped to
//!    [`ValueRole::Output`], and the program is run once. The harvested
//!    [`Value`]s are `Arc`-backed, so the model holds them — and later
//!    binds them to every window's executor — by refcount bump.
//! 2. **Template.** A fresh *inference-only* program is built against the
//!    same artifact shapes: `queries` input → random-projection encode →
//!    score against the class memory (or all-pairs match against the
//!    library). The template is compiled with the same binarization
//!    configuration the app used (detected from the harvested artifact
//!    representation: a bit-packed class memory means the app was
//!    binarized).
//!
//! IR programs carry static shapes, so a template cannot execute a batch
//! of arbitrary size directly. The model instead *re-rows* the template:
//! the constructor builds the template twice with two different sentinel
//! row counts, and every value whose declared shape differs between the
//! two builds is recorded as batch-scaled (with its per-request
//! multiplier — `k` for top-k index outputs). [`ServableModel::program_for`]
//! clones the template, rewrites those shapes for the requested batch
//! size, and caches the result per size; the executor re-verifies each
//! instantiation. This shape-diff approach needs no assumptions about
//! which dimensions collide with the sentinel.

use crate::{Result, ServeError};
use hdc_apps::{ClassificationApp, ClusteringApp, MatchingApp};
use hdc_core::element::ElementKind;
use hdc_core::HyperMatrix;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{Program, ValueId, ValueRole};
use hdc_ir::stage::ScorePolarity;
use hdc_ir::types::ValueType;
use hdc_passes::{compile, CompileOptions};
use hdc_runtime::{ExecStats, Executor, Outputs, StageTraceEntry, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The two sentinel row counts the constructor builds templates with; any
/// declared dimension that differs between the two builds scales with the
/// batch size. Primes, so accidental collisions with model dimensions
/// cannot produce a consistent false positive across both builds.
const SENTINEL_A: usize = 997;
const SENTINEL_B: usize = 1009;

/// One request's inference result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prediction {
    /// Predicted class / cluster index (classification, cluster assign).
    Label(usize),
    /// Ranked top-k candidate indices (spectral matching).
    TopK(Vec<usize>),
}

/// What the template's named output holds per request row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputKind {
    /// One label index per row.
    Label,
    /// `k` ranked indices per row.
    TopK(usize),
}

/// A value whose declared shape scales with the batch size.
#[derive(Debug, Clone, Copy)]
struct ScaledValue {
    id: ValueId,
    /// Entries per request row (1 for query/encode rows and label outputs,
    /// `k` for flattened top-k index vectors).
    multiplier: usize,
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

/// A trained model in servable form: `Arc`-shared artifacts plus a
/// batch-size-parametric compiled program. Cheap to share (`Arc` it into
/// the [`ModelRegistry`](crate::ModelRegistry)); all methods take `&self`.
#[derive(Debug)]
pub struct ServableModel {
    name: String,
    /// Compiled inference template at `SENTINEL_A` rows.
    template: Program,
    /// Values in `template` whose shapes scale with the batch size.
    scaled: Vec<ScaledValue>,
    /// Model artifacts bound to every executor, by input name.
    bindings: Vec<(String, Value)>,
    /// Name of the value holding the per-row results.
    output_name: String,
    output_kind: OutputKind,
    /// Query feature count (submission-time validation).
    features: usize,
    /// The dense training accumulator the frozen class memory was signed
    /// from, when the model supports online adaptation (classifiers only).
    train_state: Option<Value>,
    /// Re-rowed program cache, keyed by batch size.
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
    /// artifacts or compiling the serving template fails.
    pub fn classifier(name: &str, app: &ClassificationApp) -> Result<Self> {
        let harvested = app
            .harvest_artifacts()
            .map_err(|e| ServeError::ModelBuild(e.to_string()))?;
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
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if the artifact shapes disagree
    /// or template compilation fails.
    pub fn classifier_from_artifacts(
        name: &str,
        features: usize,
        rp: Value,
        classes: Value,
        train_state: Option<Value>,
    ) -> Result<Self> {
        Self::scoring_model(
            name,
            features,
            rp,
            classes,
            ScorePolarity::Distance,
            ScoreOp::Hamming,
            train_state,
        )
    }

    /// Serve a trained clustering app as a cluster-assignment model:
    /// encode with its projection matrix, score against its final
    /// centroids, return the nearest centroid index per query.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if harvesting the app's
    /// artifacts or compiling the serving template fails.
    pub fn cluster_assigner(name: &str, app: &ClusteringApp) -> Result<Self> {
        let dataset = app.dataset();
        let centroid_name = format!("centroids_{}", app.rounds());
        let harvested = harvest(
            app.program(),
            &[("samples", Value::matrix(dataset.train.features.clone()))],
            &["rp_matrix", &centroid_name],
        )?;
        let rp = harvested[0].clone();
        let centroids = harvested[1].clone();
        Self::scoring_model(
            name,
            dataset.meta.features,
            rp,
            centroids,
            ScorePolarity::Similarity,
            ScoreOp::Cosine,
            None,
        )
    }

    /// Serve a trained matching app: encode queries with its projection
    /// matrix, score all pairs against its encoded reference library,
    /// return the ranked top-k library indices per query
    /// ([`Prediction::TopK`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] if harvesting the app's
    /// artifacts or compiling the serving template fails.
    pub fn matcher(name: &str, app: &MatchingApp) -> Result<Self> {
        let dataset = app.dataset();
        let harvested = harvest(
            app.program(),
            &[
                ("library", Value::matrix(dataset.train.features.clone())),
                ("queries", Value::matrix(dataset.test.features.clone())),
            ],
            &["rp_matrix", "encode_library.encoded"],
        )?;
        let rp = harvested[0].clone();
        let library = harvested[1].clone();
        let k = app.k();
        let features = dataset.meta.features;
        let (dim, _) = matrix_shape(&rp, "rp_matrix")?;
        let (lib_rows, lib_cols) = matrix_shape(&library, "encoded library")?;
        if lib_cols != dim {
            return Err(ServeError::ModelBuild(format!(
                "encoded library cols {lib_cols} != projection dim {dim}"
            )));
        }
        let binarized = matches!(library, Value::BitMatrix(_));
        let build = |rows: usize| -> Result<Program> {
            let mut b = ProgramBuilder::new(format!("serve_{name}"));
            let queries = b.input_matrix("queries", ElementKind::F64, rows, features);
            let rp_in = b.input_matrix("rp_matrix", ElementKind::F64, dim, features);
            let lib_elem = if binarized {
                ElementKind::Bit
            } else {
                ElementKind::F64
            };
            let lib_in = b.input_matrix("library_enc", lib_elem, lib_rows, dim);
            let enc = b.encoding_loop("encode", queries, dim, |b, q| {
                let e = b.matmul(q, rp_in);
                b.sign(e)
            });
            let scores = b.cossim(enc, lib_in);
            b.name_value(scores, "scores");
            let top_k = b.arg_top_k(scores, k);
            b.name_value(top_k, "preds");
            b.mark_output(top_k);
            let mut program = b.finish();
            compile_template(&mut program, binarized)?;
            Ok(program)
        };
        Self::from_builds(
            name,
            build,
            vec![
                ("rp_matrix".to_string(), rp),
                ("library_enc".to_string(), library),
            ],
            OutputKind::TopK(k),
            features,
            None,
        )
    }

    /// Shared constructor for the encode-then-score models (classifier and
    /// cluster assigner): per-query scoring against a fixed class/centroid
    /// memory inside an `inference_loop`.
    fn scoring_model(
        name: &str,
        features: usize,
        rp: Value,
        classes: Value,
        polarity: ScorePolarity,
        score_op: ScoreOp,
        train_state: Option<Value>,
    ) -> Result<Self> {
        let (dim, rp_cols) = matrix_shape(&rp, "rp_matrix")?;
        if rp_cols != features {
            return Err(ServeError::ModelBuild(format!(
                "projection matrix cols {rp_cols} != feature count {features}"
            )));
        }
        let (class_rows, class_cols) = matrix_shape(&classes, "class memory")?;
        if class_cols != dim {
            return Err(ServeError::ModelBuild(format!(
                "class memory cols {class_cols} != projection dim {dim}"
            )));
        }
        let binarized = matches!(classes, Value::BitMatrix(_));
        let build = |rows: usize| -> Result<Program> {
            let mut b = ProgramBuilder::new(format!("serve_{name}"));
            let queries = b.input_matrix("queries", ElementKind::F64, rows, features);
            let rp_in = b.input_matrix("rp_matrix", ElementKind::F64, dim, features);
            let class_elem = if binarized {
                ElementKind::Bit
            } else {
                ElementKind::F64
            };
            let class_in = b.input_matrix("class_memory", class_elem, class_rows, dim);
            let enc = b.encoding_loop("encode", queries, dim, |b, q| {
                let e = b.matmul(q, rp_in);
                b.sign(e)
            });
            let preds = b.inference_loop("infer", enc, class_in, polarity, |b, q| match score_op {
                ScoreOp::Hamming => b.hamming_distance(q, class_in),
                ScoreOp::Cosine => b.cossim(q, class_in),
            });
            b.name_value(preds, "preds");
            b.mark_output(preds);
            let mut program = b.finish();
            compile_template(&mut program, binarized)?;
            Ok(program)
        };
        Self::from_builds(
            name,
            build,
            vec![
                ("rp_matrix".to_string(), rp),
                ("class_memory".to_string(), classes),
            ],
            OutputKind::Label,
            features,
            train_state,
        )
    }

    /// Build the template at both sentinel row counts, diff the declared
    /// value shapes to find the batch-scaled values, and assemble the
    /// model.
    fn from_builds(
        name: &str,
        build: impl Fn(usize) -> Result<Program>,
        bindings: Vec<(String, Value)>,
        output_kind: OutputKind,
        features: usize,
        train_state: Option<Value>,
    ) -> Result<Self> {
        let template = build(SENTINEL_A)?;
        let alt = build(SENTINEL_B)?;
        let scaled = diff_scaled_values(&template, &alt)?;
        Ok(ServableModel {
            name: name.to_string(),
            template,
            scaled,
            bindings,
            output_name: "preds".to_string(),
            output_kind,
            features,
            train_state,
            programs: Mutex::new(HashMap::new()),
        })
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
        match self.output_kind {
            OutputKind::Label => 1,
            OutputKind::TopK(k) => k,
        }
    }

    /// The projection matrix artifact bound to every window executor.
    pub fn projection(&self) -> &Value {
        &self
            .bindings
            .iter()
            .find(|(name, _)| name == "rp_matrix")
            .expect("every servable model binds a projection matrix")
            .1
    }

    /// The frozen class/centroid memory artifact, if this model scores
    /// against one (classifiers and cluster assigners; `None` for
    /// matchers, which bind an encoded library instead).
    pub fn class_memory(&self) -> Option<&Value> {
        self.bindings
            .iter()
            .find(|(name, _)| name == "class_memory")
            .map(|(_, v)| v)
    }

    /// The dense training accumulator the frozen class memory was signed
    /// from, when the model was built with one (the online trainer seeds
    /// its shadow memory from this).
    pub fn train_state(&self) -> Option<&Value> {
        self.train_state.as_ref()
    }

    /// Whether the serving template runs the bit-packed (binarized)
    /// representation.
    pub fn binarized(&self) -> bool {
        self.bindings
            .iter()
            .any(|(_, v)| matches!(v, Value::BitMatrix(_) | Value::Bits(_)))
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

    /// The compiled program instantiated for a batch of `rows` queries
    /// (cached per size).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelBuild`] for a zero-row batch.
    pub fn program_for(&self, rows: usize) -> Result<Arc<Program>> {
        if rows == 0 {
            return Err(ServeError::ModelBuild(
                "batch must hold at least one query".to_string(),
            ));
        }
        let mut cache = self.programs.lock().unwrap();
        if let Some(p) = cache.get(&rows) {
            return Ok(Arc::clone(p));
        }
        let mut program = self.template.clone();
        for sv in &self.scaled {
            let info = program.value_mut(sv.id);
            match &mut info.ty {
                ValueType::HyperMatrix { rows: r, .. } => *r = rows * sv.multiplier,
                ValueType::IndexVector { len } => *len = rows * sv.multiplier,
                other => {
                    return Err(ServeError::ModelBuild(format!(
                        "batch-scaled value `{}` has non-scalable type {other}",
                        info.name
                    )))
                }
            }
        }
        let arc = Arc::new(program);
        cache.insert(rows, Arc::clone(&arc));
        Ok(arc)
    }

    /// Execute one window: stack `rows` into a query matrix, run the
    /// batch-sized program, split per-row predictions back out.
    ///
    /// `batched` selects the executor schedule (`true` = matrix kernels,
    /// `false` = the per-sample sequential oracle); `class_shards`
    /// overrides the class-memory shard count exactly like
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
        exec.set_batched_stages(batched);
        exec.set_parallel_loops(batched);
        exec.set_class_shards(class_shards);
        exec.bind("queries", Value::matrix(queries))
            .map_err(exec_err)?;
        for (input, value) in &self.bindings {
            // Arc payload: a refcount bump per window, never a copy.
            exec.bind(input, value.clone()).map_err(exec_err)?;
        }
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
        let value = out.by_name(&self.output_name).ok_or_else(|| {
            ServeError::Execution(format!("output `{}` missing from run", self.output_name))
        })?;
        let indices = value
            .as_indices("serving output")
            .map_err(|e| ServeError::Execution(e.to_string()))?;
        match self.output_kind {
            OutputKind::Label => {
                if indices.len() != rows {
                    return Err(ServeError::Execution(format!(
                        "expected {rows} labels, got {}",
                        indices.len()
                    )));
                }
                Ok(indices.iter().map(|&i| Prediction::Label(i)).collect())
            }
            OutputKind::TopK(k) => {
                if indices.len() != rows * k {
                    return Err(ServeError::Execution(format!(
                        "expected {rows}x{k} candidates, got {}",
                        indices.len()
                    )));
                }
                Ok(indices
                    .chunks(k)
                    .map(|c| Prediction::TopK(c.to_vec()))
                    .collect())
            }
        }
    }
}

/// Which similarity the scoring body computes.
#[derive(Debug, Clone, Copy)]
enum ScoreOp {
    Hamming,
    Cosine,
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

/// Compile a serving-layer program (inference template, feedback encode,
/// re-freeze) with the binarization configuration matching the harvested
/// artifacts.
pub(crate) fn compile_template(program: &mut Program, binarized: bool) -> Result<()> {
    let options = if binarized {
        CompileOptions::default()
    } else {
        CompileOptions::baseline()
    };
    compile(program, &options)
        .map(|_| ())
        .map_err(|e| ServeError::ModelBuild(e.to_string()))
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

/// Build an executor for `program` (default, batched schedule), bind
/// `binds` — `Arc` payloads, so refcount bumps — and run it once.
pub(crate) fn run_once(program: &Program, binds: &[(&str, Value)]) -> hdc_runtime::Result<Outputs> {
    let mut exec = Executor::new(program)?;
    for (name, value) in binds {
        exec.bind(name, value.clone())?;
    }
    exec.run()
}

/// Run a compiled app program once with the named values flipped to
/// outputs, returning the harvested artifact values in `names` order.
fn harvest(program: &Program, binds: &[(&str, Value)], names: &[&str]) -> Result<Vec<Value>> {
    let mut p = program.clone();
    let ids: Vec<ValueId> = names
        .iter()
        .map(|name| {
            p.values()
                .iter()
                .position(|v| v.name == *name)
                .map(ValueId::new)
                .ok_or_else(|| {
                    ServeError::ModelBuild(format!("app program has no value named `{name}`"))
                })
        })
        .collect::<Result<_>>()?;
    for &id in &ids {
        p.value_mut(id).role = ValueRole::Output;
    }
    let out = run_once(&p, binds).map_err(|e| ServeError::ModelBuild(e.to_string()))?;
    Ok(ids
        .iter()
        .map(|&id| {
            out.get(id)
                .expect("value was marked as an output above")
                .clone()
        })
        .collect())
}

/// Diff the declared shapes of two sentinel builds: every value whose
/// shape differs scales with the batch size. Returns the scaled values
/// with their per-request multipliers.
fn diff_scaled_values(a: &Program, b: &Program) -> Result<Vec<ScaledValue>> {
    if a.values().len() != b.values().len() {
        return Err(ServeError::ModelBuild(
            "sentinel builds disagree on value count; template build is row-dependent".to_string(),
        ));
    }
    let mut scaled = Vec::new();
    for (index, (va, vb)) in a.values().iter().zip(b.values().iter()).enumerate() {
        if va.ty == vb.ty {
            continue;
        }
        let (dim_a, dim_b) = match (&va.ty, &vb.ty) {
            (
                ValueType::HyperMatrix {
                    rows: ra, cols: ca, ..
                },
                ValueType::HyperMatrix {
                    rows: rb, cols: cb, ..
                },
            ) if ca == cb => (*ra, *rb),
            (ValueType::IndexVector { len: la }, ValueType::IndexVector { len: lb }) => (*la, *lb),
            _ => {
                return Err(ServeError::ModelBuild(format!(
                    "value `{}` changes non-row shape between sentinel builds ({} vs {})",
                    va.name, va.ty, vb.ty
                )))
            }
        };
        if dim_a % SENTINEL_A != 0
            || dim_b % SENTINEL_B != 0
            || dim_a / SENTINEL_A != dim_b / SENTINEL_B
        {
            return Err(ServeError::ModelBuild(format!(
                "value `{}` scales irregularly with the batch size ({dim_a} @ {SENTINEL_A}, {dim_b} @ {SENTINEL_B})",
                va.name
            )));
        }
        scaled.push(ScaledValue {
            id: ValueId::new(index),
            multiplier: dim_a / SENTINEL_A,
        });
    }
    Ok(scaled)
}
