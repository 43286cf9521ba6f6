//! The program executor: a reference interpreter for HPVM-HDC programs with
//! a batched fast path.
//!
//! [`Executor`] walks a verified [`Program`] node by node, evaluating every
//! HDC intrinsic against the `hdc-core` kernels. Values live in a store
//! keyed by [`ValueId`]; slots binarized by the compiler (element kind
//! `Bit`) hold bit-packed payloads, and the executor dispatches the
//! XOR/popcount kernels whenever both operands of a Hamming-distance or
//! cosine-similarity reduction are packed — the same specialization the
//! paper's CPU/GPU back ends perform after automatic binarization.
//! `red_perf` annotations are honored by forwarding the [`Perforation`]
//! descriptor into the kernels.
//!
//! Execution semantics worth calling out:
//!
//! * The interpreter computes in `f64` and conforms results to each slot's
//!   declared element kind on store (packing for `Bit`, round-and-saturate
//!   for integer kinds). This makes it a *reference* semantics: back ends
//!   must match its outputs, not its performance.
//! * Tensor payloads are `Arc`-shared ([`Value`]); moving values between
//!   slots never copies a tensor. Every genuine copy (representation
//!   conversions, per-sample row staging, copy-on-write of a shared
//!   payload) is counted in [`ExecStats::tensor_bytes_copied`].
//! * **Stage batching** (on by default, [`Executor::set_mode`]):
//!   an `inference_loop` whose body is a single similarity reduction
//!   against a loop-invariant class matrix, or an `encoding_loop` whose
//!   body is `matmul` (optionally followed by `sign`), is executed as one
//!   matrix-level kernel call ([`hdc_core::batch`]) over the whole sample
//!   matrix instead of one interpreter pass per sample. The per-sample
//!   loop is kept as the reference oracle; the batched kernels are
//!   bit-identical to it, and equivalence tests hold the two paths
//!   together.
//! * **`ParallelFor`** nodes whose bodies pass a row-independence analysis
//!   (every in-place row write is indexed by the loop variable, no
//!   cross-iteration dataflow) run their instances through the rayon
//!   compat layer: each instance executes against a cheap `Arc` snapshot
//!   of the store with its row writes deferred to a log, and the logs are
//!   merged afterwards. Bodies that fail the analysis fall back to the
//!   sequential schedule, which remains the reference.
//! * `training_loop` implements perceptron-style HDC retraining: on a
//!   misprediction the sample is added to the true class row and subtracted
//!   from the predicted row. A binarized class matrix is unpacked for the
//!   duration of the stage and re-binarized by sign at stage exit. In
//!   batched mode, a recognized training body runs on the **blocked
//!   re-freeze schedule** of [`crate::training`], one
//!   [`replay_epoch`] call per epoch (all blocks of an epoch count once
//!   in [`ExecStats::epoch_kernel_ops`]; patched samples and scores are
//!   counted in [`ExecStats::rescored_samples`] and
//!   [`ExecStats::rescored_rows`]). Every score a selection reads is the
//!   one the per-sample kernel would compute, so the trained matrix stays
//!   bit-identical to the sequential oracle. The clustering
//!   accumulate-by-assignment
//!   `ParallelFor` gets the same frozen-assignment treatment: the
//!   assignment vector is already frozen by the preceding assign stage, so
//!   the whole update collapses into one segmented reduction
//!   ([`hdc_core::batch::accumulate_by_segment`]).

use crate::error::{Result, RuntimeError};
use crate::training::{replay_epoch, update_row_in_place};
use crate::value::Value;
use hdc_core::batch::SimilarityMetric as Metric;
use hdc_core::element::{Element, ElementKind};
use hdc_core::ops::ElementwiseOp;
use hdc_core::shard::Merged;
use hdc_core::similarity::{
    cosine_similarity, cosine_similarity_all_pairs, cosine_similarity_matrix, hamming_distance,
    hamming_distance_all_pairs, hamming_distance_matrix,
};
use hdc_core::{BitMatrix, BitVector, HdcRng, HyperMatrix, HyperVector, Perforation};
use hdc_ir::instr::{HdcInstr, Operand};
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{Node, NodeBody, Program, ValueId, ValueRole};
use hdc_ir::stage::{ScorePolarity, StageKind, StageNode};
use hdc_ir::types::ValueType;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Which schedule an [`Executor`] runs ([`Executor::set_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Matrix-level batched stage execution plus parallel loops (the
    /// default production path).
    Batched,
    /// One interpreter pass per sample — the reference oracle the batched
    /// path is checked against.
    Sequential,
}

impl ExecMode {
    /// Both modes, in the order the equivalence tests compare them.
    pub const ALL: [ExecMode; 2] = [ExecMode::Batched, ExecMode::Sequential];

    /// Whether this mode enables batched stages / parallel loops.
    pub fn is_batched(self) -> bool {
        matches!(self, ExecMode::Batched)
    }

    /// Lower-case name used in reports and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Batched => "batched",
            ExecMode::Sequential => "sequential",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution counters, useful for tests and profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Total instructions evaluated (stage bodies count once per sample,
    /// whether the stage ran per-sample or batched).
    pub instructions_executed: usize,
    /// Total per-sample stage-body executions (batched stages count one per
    /// sample they process).
    pub stage_samples: usize,
    /// Reductions dispatched to the bit-packed XOR/popcount kernels
    /// (batched stages count one per query row, matching the sequential
    /// schedule).
    pub bit_kernel_ops: usize,
    /// Matrix-level batched kernel calls (one per batched stage or
    /// all-pairs bit reduction).
    pub batched_kernel_ops: usize,
    /// Bytes of tensor payload copied: representation conversions
    /// (pack/unpack/quantize), per-sample row staging in the sequential
    /// stage loops, and copy-on-write of shared payloads. The batched
    /// inference path performs none.
    pub tensor_bytes_copied: usize,
    /// Per-sample stage-body executions performed on behalf of a stage node
    /// placed on an HDC accelerator target. The interpreter executes these
    /// samples functionally with the same kernels as CPU-targeted stages
    /// (it is the output oracle); the count is what an accelerator
    /// performance model (see the `hdc-accel` crate) multiplies by its
    /// per-sample modeled cost.
    pub accelerated_stage_samples: usize,
    /// Epoch-level batched kernel calls: one per training epoch scored with
    /// the epoch kernel ([`hdc_core::batch::score_rows_sharded`], however
    /// many row blocks the epoch is walked in) and one per clustering
    /// update collapsed into [`hdc_core::batch::accumulate_by_segment`].
    /// Every epoch kernel is also counted in
    /// [`batched_kernel_ops`](ExecStats::batched_kernel_ops).
    pub epoch_kernel_ops: usize,
    /// Samples of the blocked training schedule that needed any live
    /// rescoring: visited after a class row changed within their row block,
    /// so part of their frozen score row was patched. Zero when no block
    /// sees an update before its last sample (or in sequential mode);
    /// `epochs x samples` minus one per block is the worst case.
    pub rescored_samples: usize,
    /// `(sample, class row)` scores the blocked training schedule patched
    /// with the per-pair reference reduction — the work behind
    /// [`rescored_samples`](ExecStats::rescored_samples).
    pub rescored_rows: usize,
    /// Reference similarity kernel calls made while batched execution was
    /// enabled: the per-sample `*_matrix` forms of [`hdc_core::similarity`]
    /// (its `*_all_pairs` forms only ever run in sequential mode), reached
    /// when a stage fell back to the per-sample loop. Zero means batched
    /// mode never ran a reference loop; mixed packed/dense stage operands
    /// are the only legitimate source. Always zero in sequential mode,
    /// where the reference kernels are the schedule.
    pub reference_kernel_ops: usize,
    /// Class-memory shard blocks launched by sharded batched kernels (the
    /// sum of shard counts over every batched call that ran sharded). Zero
    /// when every call ran unsharded — one thread, a small class memory, or
    /// sequential mode.
    pub class_shards: usize,
    /// Pairwise partial-result merges performed by the reduction trees that
    /// combine per-shard `arg_min` / `arg_max` / top-k selections back into
    /// global winners (`shards - 1` per merged selection row).
    pub shard_merge_ops: usize,
    /// Query rows encoded on the sign-bit leg, against a projection bound
    /// as sign bits: batches of at most
    /// [`SIGN_ENCODE_MAX_ROWS`](hdc_core::matmul::SIGN_ENCODE_MAX_ROWS)
    /// rows in batched stages and matrix `matmul`s
    /// ([`hdc_core::matmul::matmul_signs`]), and every sample of the
    /// per-sample schedule ([`hdc_core::matmul::matvec_signs`]). Zero when
    /// every projection was dense.
    pub sign_encoded_rows: usize,
    /// Query rows encoded on the fused panel leg of
    /// [`hdc_core::matmul::matmul_signs`]: batches of more than
    /// [`SIGN_ENCODE_MAX_ROWS`](hdc_core::matmul::SIGN_ENCODE_MAX_ROWS)
    /// rows against a projection bound as sign bits, streamed as its ±1
    /// expansion. Zero when every projection was dense, and in sequential
    /// mode.
    pub fused_encoded_rows: usize,
    /// Name of the [`hdc_core::simd`] kernel backend the run dispatched to
    /// (`scalar` / `avx2` / `avx512` / `neon`), stamped at the start of
    /// every run. Empty only on a default-constructed counter set.
    pub kernel_backend: &'static str,
}

impl ExecStats {
    /// Fold another counter set into this one (parallel-loop merge).
    fn absorb(&mut self, other: ExecStats) {
        self.instructions_executed += other.instructions_executed;
        self.stage_samples += other.stage_samples;
        self.bit_kernel_ops += other.bit_kernel_ops;
        self.batched_kernel_ops += other.batched_kernel_ops;
        self.tensor_bytes_copied += other.tensor_bytes_copied;
        self.accelerated_stage_samples += other.accelerated_stage_samples;
        self.epoch_kernel_ops += other.epoch_kernel_ops;
        self.rescored_samples += other.rescored_samples;
        self.rescored_rows += other.rescored_rows;
        self.reference_kernel_ops += other.reference_kernel_ops;
        self.class_shards += other.class_shards;
        self.shard_merge_ops += other.shard_merge_ops;
        self.sign_encoded_rows += other.sign_encoded_rows;
        self.fused_encoded_rows += other.fused_encoded_rows;
        if self.kernel_backend.is_empty() {
            self.kernel_backend = other.kernel_backend;
        }
    }
}

/// One stage node executed by a run, in execution order: the placement and
/// sample-count record an accelerator back end needs to account modeled
/// per-stage cost against what actually ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTraceEntry {
    /// Name of the stage node.
    pub node: String,
    /// Stage kind name (`encoding_loop` / `training_loop` /
    /// `inference_loop`).
    pub kind: &'static str,
    /// Hardware target the node was assigned to by the compiler.
    pub target: hdc_ir::Target,
    /// Per-sample body executions the stage performed (training loops count
    /// every epoch's pass over every sample).
    pub samples: usize,
    /// Whether the stage ran as one batched matrix-level kernel call.
    pub batched: bool,
}

/// The typed outputs of a program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    values: Vec<(ValueId, String, Value)>,
}

impl Outputs {
    /// The output for `id`, if `id` is an output slot.
    pub fn get(&self, id: ValueId) -> Option<&Value> {
        self.values
            .iter()
            .find(|(v, _, _)| *v == id)
            .map(|(_, _, val)| val)
    }

    /// The output with the given slot name.
    pub fn by_name(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .find(|(_, n, _)| n == name)
            .map(|(_, _, val)| val)
    }

    /// All outputs, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str, &Value)> {
        self.values.iter().map(|(id, n, v)| (*id, n.as_str(), v))
    }

    /// A scalar output.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is not an output or not a scalar.
    pub fn scalar(&self, id: ValueId) -> Result<f64> {
        self.require(id)?.as_scalar("output")
    }

    /// An index-vector output.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is not an output or not an index vector.
    pub fn indices(&self, id: ValueId) -> Result<&[usize]> {
        self.require(id)?.as_indices("output")
    }

    /// A tensor output as a dense `f64` hypervector.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is not an output or not vector shaped.
    pub fn vector(&self, id: ValueId) -> Result<HyperVector<f64>> {
        self.require(id)?.to_dense_vector("output")
    }

    /// A tensor output as a dense `f64` hypermatrix.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is not an output or not matrix shaped.
    pub fn matrix(&self, id: ValueId) -> Result<HyperMatrix<f64>> {
        self.require(id)?.to_dense_matrix("output")
    }

    fn require(&self, id: ValueId) -> Result<&Value> {
        self.get(id)
            .ok_or(RuntimeError::MissingOutput { value: id.index() })
    }
}

/// Deferred row writes collected while a `ParallelFor` instance executes
/// against a store snapshot: `(target matrix, row, dense row value)`.
/// Bit-matrix targets log the row as it would be stored (re-binarized by
/// sign), so intra-iteration read-back matches the sequential schedule.
#[derive(Debug)]
struct RowLog {
    targets: Vec<ValueId>,
    writes: Vec<(ValueId, usize, HyperVector<f64>)>,
}

impl RowLog {
    fn latest(&self, target: ValueId, row: usize) -> Option<&HyperVector<f64>> {
        self.writes
            .iter()
            .rev()
            .find(|(t, r, _)| *t == target && *r == row)
            .map(|(_, _, v)| v)
    }
}

/// A stage body the executor recognized as one batched kernel call.
#[derive(Debug, Clone, Copy)]
enum StagePlan {
    /// `inference_loop` body: one similarity reduction of the sample against
    /// a loop-invariant class matrix.
    Inference {
        classes: ValueId,
        metric: Metric,
        perf: Perforation,
    },
    /// `encoding_loop` body: `matmul` against a loop-invariant projection,
    /// optionally followed by `sign`.
    Encoding {
        proj: ValueId,
        perf: Perforation,
        then_sign: bool,
    },
    /// `training_loop` body: one similarity reduction of the sample against
    /// the live class matrix — runs on the blocked re-freeze schedule.
    Training {
        classes: ValueId,
        epochs: usize,
        metric: Metric,
        perf: Perforation,
    },
}

/// A `ParallelFor` body the executor recognized as one segmented-reduction
/// kernel call: gather a row of `rows` at the loop index, look the
/// accumulator row up in the `assign` index vector, accumulate into `acc`.
#[derive(Debug, Clone, Copy)]
struct SegmentedAccumulatePlan {
    /// Matrix whose rows are gathered per iteration.
    rows: ValueId,
    /// Index vector supplying each iteration's accumulator row.
    assign: ValueId,
    /// The accumulator matrix.
    acc: ValueId,
}

/// The reference interpreter. See the module docs for semantics.
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    store: Vec<Option<Value>>,
    stats: ExecStats,
    mode: ExecMode,
    /// `Some(n)` forces every sharded batched kernel to split the class
    /// memory into `n` row-blocks; `None` picks the count per call from the
    /// rows it scores, the class-matrix size and the worker threads
    /// ([`hdc_core::shard::default_shard_count`]).
    class_shard_override: Option<usize>,
    row_log: Option<RowLog>,
    stage_trace: Vec<StageTraceEntry>,
    /// The bound store as it looked when [`Executor::run`] first started
    /// (payload `Arc` bumps, no tensor copies): every later run restores it
    /// so repeated runs see the same inputs, not state a previous run
    /// mutated in place.
    baseline: Option<Vec<Option<Value>>>,
}

impl<'p> Executor<'p> {
    /// Create an executor for `program`, verifying it first.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidProgram`] if the IR verifier rejects
    /// the program.
    pub fn new(program: &'p Program) -> Result<Self> {
        hdc_ir::verify::verify(program)?;
        Ok(Executor {
            program,
            store: vec![None; program.values().len()],
            stats: ExecStats::default(),
            mode: ExecMode::Batched,
            class_shard_override: None,
            row_log: None,
            stage_trace: Vec::new(),
            baseline: None,
        })
    }

    /// Force the class-memory shard count of every sharded batched kernel
    /// (clamped per call to the class-row count), or restore the automatic
    /// heuristic with `None`. The sharded path is bit-identical to the
    /// unsharded kernels for any count, so this only affects scheduling —
    /// it exists for tests pinning shard/merge accounting and benchmarks
    /// sweeping the class axis.
    pub fn set_class_shards(&mut self, shards: Option<usize>) -> &mut Self {
        self.class_shard_override = shards;
        self
    }

    /// The shard plan for a call scoring `query_rows` rows against a class
    /// memory of `class_rows` rows: the override if set, else
    /// [`hdc_core::shard::default_shard_count`].
    fn shard_plan(&self, query_rows: usize, class_rows: usize) -> hdc_core::ShardPlan {
        shard_plan(self.class_shard_override, query_rows, class_rows)
    }

    /// Select the schedule (default: [`ExecMode::Batched`]).
    /// [`ExecMode::Sequential`] forces every stage through the per-sample
    /// reference oracle, the matrix-level instruction fast paths (all-pairs
    /// similarity, bit-packed or dense, and batched `arg_top_k` selection)
    /// through their dense reference / per-row forms, and every
    /// `ParallelFor` through the sequential loop.
    pub fn set_mode(&mut self, mode: ExecMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Bind a host-visible (input or output) slot by name.
    ///
    /// The value is conformed to the slot's declared representation (packed
    /// for binarized slots), after its shape is checked. Output slots are
    /// bindable so hosts can pre-populate in/out buffers (e.g. a matrix a
    /// `parallel_for` writes row by row); temporaries are not.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownBinding`] if no input or output slot
    /// has that name, and [`RuntimeError::ShapeMismatch`] if the shape
    /// disagrees with the declared type.
    pub fn bind(&mut self, name: &str, value: Value) -> Result<&mut Self> {
        let id = self
            .program
            .values()
            .iter()
            .position(|v| v.name == name && matches!(v.role, ValueRole::Input | ValueRole::Output))
            .map(ValueId::new)
            .ok_or_else(|| RuntimeError::UnknownBinding {
                name: name.to_string(),
            })?;
        self.bind_id(id, value)
    }

    /// Bind an input slot by id.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ShapeMismatch`] if the value's shape
    /// disagrees with the slot's declared type.
    pub fn bind_id(&mut self, id: ValueId, value: Value) -> Result<&mut Self> {
        let info = self.program.value(id);
        if !value.shape_matches(&info.ty) {
            return Err(RuntimeError::ShapeMismatch {
                name: info.name.clone(),
                declared: info.ty.to_string(),
                provided: value.describe(),
            });
        }
        self.set(id, value);
        // Rebinding between runs must survive the next run's baseline
        // restore.
        if let Some(baseline) = &mut self.baseline {
            baseline[id.index()] = self.store[id.index()].clone();
        }
        Ok(self)
    }

    /// Execution counters accumulated so far (reset at the start of every
    /// [`run`](Executor::run)).
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The stage nodes executed so far, in execution order, with their
    /// compiler-assigned target and processed sample count. Accelerator
    /// back ends (the `hdc-accel` crate) consume this trace to charge
    /// modeled per-stage cost against exactly the work that ran.
    pub fn stage_trace(&self) -> &[StageTraceEntry] {
        &self.stage_trace
    }

    /// Execute the program and collect its outputs.
    ///
    /// Repeated runs on one executor are independent: the counters and the
    /// stage trace reset, and the store is restored to the bound inputs as
    /// they were when the first run started (stage loops mutate bound slots
    /// in place), so two identical runs report identical stats and outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if an input was never bound or any instruction
    /// fails to evaluate.
    pub fn run(&mut self) -> Result<Outputs> {
        match &self.baseline {
            // Arc-backed payloads: restoring clones reference counts, not
            // tensors.
            Some(baseline) => self.store = baseline.clone(),
            None => self.baseline = Some(self.store.clone()),
        }
        self.stats = ExecStats {
            kernel_backend: hdc_core::simd::selected().name(),
            ..ExecStats::default()
        };
        self.stage_trace.clear();
        let program = self.program;
        for (i, info) in program.values().iter().enumerate() {
            if info.role == ValueRole::Input && self.store[i].is_none() {
                return Err(RuntimeError::UnboundInput {
                    value: i,
                    name: info.name.clone(),
                });
            }
        }
        for node in program.nodes() {
            self.exec_node(node)?;
        }
        let mut values = Vec::new();
        for id in program.values_with_role(ValueRole::Output) {
            let info = program.value(id);
            // Arc-backed payloads: this clone is a reference-count bump.
            let value = self.value(id)?.clone();
            values.push((id, info.name.clone(), value));
        }
        Ok(Outputs { values })
    }

    // ------------------------------------------------------------------
    // store access
    // ------------------------------------------------------------------

    fn value(&self, id: ValueId) -> Result<&Value> {
        self.store[id.index()]
            .as_ref()
            .ok_or_else(|| RuntimeError::UseBeforeDef {
                value: id.index(),
                name: self.program.value(id).name.clone(),
            })
    }

    fn set(&mut self, id: ValueId, value: Value) {
        let declared = &self.program.value(id).ty;
        let (conformed, copied) = value.conform_to_counted(declared);
        self.stats.tensor_bytes_copied += copied;
        self.store[id.index()] = Some(conformed);
    }

    /// Store without conforming (used for the dense shadow of a binarized
    /// class matrix during training).
    fn set_raw(&mut self, id: ValueId, value: Value) {
        self.store[id.index()] = Some(value);
    }

    fn value_mut(&mut self, id: ValueId) -> Result<&mut Value> {
        let program = self.program;
        match self.store[id.index()].as_mut() {
            Some(v) => Ok(v),
            None => Err(RuntimeError::UseBeforeDef {
                value: id.index(),
                name: program.value(id).name.clone(),
            }),
        }
    }

    fn note_copy(&mut self, bytes: usize) {
        self.stats.tensor_bytes_copied += bytes;
    }

    /// Count a reference `*_matrix` similarity call made while batched
    /// execution is enabled (in sequential mode they are the schedule).
    fn note_reference_kernel(&mut self) {
        if self.mode.is_batched() {
            self.stats.reference_kernel_ops += 1;
        }
    }

    /// Bytes a copy-on-write of `id`'s payload would materialize right now
    /// (`0` when the payload is uniquely owned).
    fn cow_bytes(&self, id: ValueId) -> Result<usize> {
        let v = self.value(id)?;
        Ok(if v.payload_shared() {
            v.tensor_bytes()
        } else {
            0
        })
    }

    fn row_log_covers(&self, id: ValueId) -> bool {
        self.row_log
            .as_ref()
            .is_some_and(|log| log.targets.contains(&id))
    }

    fn operand_value_id(&self, instr: &HdcInstr, idx: usize, context: &str) -> Result<ValueId> {
        instr
            .operands
            .get(idx)
            .and_then(Operand::as_value)
            .ok_or_else(|| RuntimeError::TypeMismatch {
                context: context.to_string(),
                expected: "value operand",
                found: "immediate or missing operand",
            })
    }

    fn operand_value(&self, instr: &HdcInstr, idx: usize, context: &str) -> Result<&Value> {
        match instr.operands.get(idx) {
            Some(Operand::Value(v)) => self.value(*v),
            _ => Err(RuntimeError::TypeMismatch {
                context: context.to_string(),
                expected: "value operand",
                found: "immediate or missing operand",
            }),
        }
    }

    fn operand_index(&self, instr: &HdcInstr, idx: usize, context: &str) -> Result<usize> {
        let raw: i64 = match instr.operands.get(idx) {
            Some(Operand::ImmInt(i)) => *i,
            Some(Operand::Value(v)) => self.value(*v)?.as_scalar(context)?.round() as i64,
            None => {
                return Err(RuntimeError::BadIndex {
                    context: context.to_string(),
                    index: -1,
                })
            }
        };
        usize::try_from(raw).map_err(|_| RuntimeError::BadIndex {
            context: context.to_string(),
            index: raw,
        })
    }

    // ------------------------------------------------------------------
    // node execution
    // ------------------------------------------------------------------

    fn exec_node(&mut self, node: &Node) -> Result<()> {
        match &node.body {
            NodeBody::Leaf { instrs } => self.exec_instrs(instrs),
            NodeBody::ParallelFor { count, index, body } => {
                if self.mode.is_batched() && *count > 0 {
                    if let Some(plan) = self.segmented_accumulate_plan(*count, *index, body) {
                        return self.exec_segmented_accumulate(*count, *index, body, plan);
                    }
                }
                if self.mode.is_batched() && *count > 1 {
                    if let Some(row_targets) = self.parallel_for_row_plan(*index, body) {
                        return self.exec_parallel_for(*count, *index, body, row_targets);
                    }
                }
                // Sequential reference schedule.
                for i in 0..*count {
                    self.set(*index, Value::Scalar(i as f64));
                    self.exec_instrs(body)?;
                }
                Ok(())
            }
            NodeBody::Stage(stage) => self.exec_stage(node, stage),
        }
    }

    fn exec_instrs(&mut self, instrs: &[HdcInstr]) -> Result<()> {
        for instr in instrs {
            self.exec_instr(instr)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // parallel_for
    // ------------------------------------------------------------------

    /// Reads of an instruction under the row-write analysis: the in-place
    /// target of `set_matrix_row` / `accumulate_row` does not count as a
    /// read (only its row is touched, and only at the loop index).
    fn analysis_reads(instr: &HdcInstr) -> Vec<ValueId> {
        match instr.op {
            HdcOp::SetMatrixRow | HdcOp::AccumulateRow => instr
                .operands
                .iter()
                .skip(1)
                .filter_map(Operand::as_value)
                .collect(),
            _ => instr.read_values().collect(),
        }
    }

    /// Decide whether a `ParallelFor` body is row-independent: every
    /// in-place matrix write is indexed by the loop variable (so iterations
    /// touch disjoint rows), the row-written matrices are never read, and
    /// every value the body both reads and writes is written before it is
    /// read within one iteration (no cross-iteration dataflow). Returns the
    /// row-written matrices when the body qualifies.
    fn parallel_for_row_plan(&self, index: ValueId, body: &[HdcInstr]) -> Option<Vec<ValueId>> {
        let mut row_targets: Vec<ValueId> = Vec::new();
        for instr in body {
            if matches!(instr.op, HdcOp::SetMatrixRow | HdcOp::AccumulateRow) {
                let target = instr.operands.first().and_then(Operand::as_value)?;
                match instr.operands.get(2) {
                    Some(Operand::Value(v)) if *v == index => {}
                    _ => return None,
                }
                if !row_targets.contains(&target) {
                    row_targets.push(target);
                }
            }
        }
        if row_targets.is_empty() {
            // Nothing durable is written per row; only the final iteration's
            // values would survive. The sequential schedule is already
            // optimal for that shape.
            return None;
        }
        let written_anywhere: HashSet<ValueId> = body.iter().filter_map(|i| i.result).collect();
        let mut written_so_far: HashSet<ValueId> = HashSet::new();
        written_so_far.insert(index);
        for instr in body {
            for r in Self::analysis_reads(instr) {
                if row_targets.contains(&r) {
                    return None;
                }
                if written_anywhere.contains(&r) && !written_so_far.contains(&r) {
                    return None;
                }
            }
            if let Some(res) = instr.result {
                if row_targets.contains(&res) {
                    return None;
                }
                written_so_far.insert(res);
            }
        }
        Some(row_targets)
    }

    /// Execute a row-independent `ParallelFor` through the rayon compat
    /// layer: each instance runs against an `Arc` snapshot of the store
    /// (reference-count bumps, no tensor copies) with its row writes
    /// deferred to a log; afterwards the logs are merged in iteration order
    /// and the final iteration's private values are installed, matching the
    /// sequential end state exactly.
    fn exec_parallel_for(
        &mut self,
        count: usize,
        index: ValueId,
        body: &[HdcInstr],
        row_targets: Vec<ValueId>,
    ) -> Result<()> {
        struct IterOutcome {
            writes: Vec<(ValueId, usize, HyperVector<f64>)>,
            private: Vec<(ValueId, Value)>,
            stats: ExecStats,
        }
        let private_slots: Vec<ValueId> = {
            let mut out: Vec<ValueId> = body
                .iter()
                .flat_map(|i| i.written_values())
                .filter(|v| !row_targets.contains(v))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let program = self.program;
        let base_store = &self.store;
        let mode = self.mode;
        // Iterations already occupy the worker threads; nested class
        // sharding inside them would only add merge overhead.
        let class_shard_override = Some(1);
        let targets = &row_targets;
        let private = &private_slots;
        let outcomes: Vec<Result<IterOutcome>> = (0..count)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                let mut scratch = Executor {
                    program,
                    store: base_store.clone(),
                    stats: ExecStats::default(),
                    mode,
                    class_shard_override,
                    row_log: Some(RowLog {
                        targets: targets.clone(),
                        writes: Vec::new(),
                    }),
                    stage_trace: Vec::new(),
                    baseline: None,
                };
                scratch.set(index, Value::Scalar(i as f64));
                scratch.exec_instrs(body)?;
                let log = scratch.row_log.take().expect("row log installed above");
                let private = private
                    .iter()
                    .filter_map(|id| scratch.store[id.index()].clone().map(|v| (*id, v)))
                    .collect();
                Ok(IterOutcome {
                    writes: log.writes,
                    private,
                    stats: scratch.stats,
                })
            })
            .collect();
        let mut merged = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            merged.push(outcome?);
        }
        let last = merged.len().saturating_sub(1);
        for (i, outcome) in merged.into_iter().enumerate() {
            self.stats.absorb(outcome.stats);
            for (target, row, dense) in outcome.writes {
                self.apply_row_write(target, row, &dense)?;
            }
            if i == last {
                for (id, value) in outcome.private {
                    self.store[id.index()] = Some(value);
                }
            }
        }
        // The sequential schedule leaves the final loop index behind.
        self.set(index, Value::Scalar(count.saturating_sub(1) as f64));
        Ok(())
    }

    /// Merge one deferred row write into the live store.
    fn apply_row_write(
        &mut self,
        target: ValueId,
        row: usize,
        dense: &HyperVector<f64>,
    ) -> Result<()> {
        let cow = self.cow_bytes(target)?;
        self.note_copy(cow);
        match self.value_mut(target)? {
            Value::BitMatrix(b) => Arc::make_mut(b).set_row(row, BitVector::from_dense(dense))?,
            Value::Matrix(m) => Arc::make_mut(m).set_row(row, dense)?,
            other => {
                return Err(RuntimeError::TypeMismatch {
                    context: "parallel_for row merge".to_string(),
                    expected: "matrix",
                    found: other.kind_name(),
                })
            }
        }
        Ok(())
    }

    /// Recognize a `ParallelFor` body as one segmented-reduction kernel
    /// call: the clustering accumulate-by-assignment round, where each
    /// iteration gathers a row of a loop-invariant matrix, looks its
    /// accumulator row up in a **frozen** assignment vector (produced by the
    /// preceding assign stage), and accumulates. The shape is
    /// `get_matrix_row(rows, i)` — optionally cast to a float kind — then
    /// `get_element(assign, i)` and `accumulate_row(acc, row, seg)`.
    ///
    /// Returns `None` (leaving the sequential schedule in charge) when the
    /// body has a different shape, the cast would quantize (the sequential
    /// per-sample conform rounds; the batched kernel would not), any of the
    /// three operands alias, or the runtime representations don't fit the
    /// kernel (`acc` must be a dense matrix, `assign` an index vector).
    fn segmented_accumulate_plan(
        &self,
        count: usize,
        index: ValueId,
        body: &[HdcInstr],
    ) -> Option<SegmentedAccumulatePlan> {
        let (gather, cast, pick, accum) = match body {
            [g, p, a] => (g, None, p, a),
            [g, c, p, a] => (g, Some(c), p, a),
            _ => return None,
        };
        if gather.op != HdcOp::GetMatrixRow
            || gather.operands.get(1).and_then(Operand::as_value) != Some(index)
        {
            return None;
        }
        let rows = gather.operands.first().and_then(Operand::as_value)?;
        let mut row_val = gather.result?;
        if let Some(c) = cast {
            let HdcOp::TypeCast { to } = c.op else {
                return None;
            };
            if !to.is_float() || c.operands.first().and_then(Operand::as_value) != Some(row_val) {
                return None;
            }
            row_val = c.result?;
        }
        if pick.op != HdcOp::GetElement
            || pick.operands.len() != 2
            || pick.operands.get(1).and_then(Operand::as_value) != Some(index)
        {
            return None;
        }
        let assign = pick.operands.first().and_then(Operand::as_value)?;
        let seg_val = pick.result?;
        if accum.op != HdcOp::AccumulateRow
            || accum.operands.get(1).and_then(Operand::as_value) != Some(row_val)
            || accum.operands.get(2).and_then(Operand::as_value) != Some(seg_val)
        {
            return None;
        }
        let acc = accum.operands.first().and_then(Operand::as_value)?;
        if acc == rows || acc == assign || rows == assign {
            return None;
        }
        // Runtime representations: the kernel accumulates dense rows keyed
        // by a frozen index vector, one assignment per gathered row.
        match (
            self.store.get(acc.index())?.as_ref()?,
            self.store.get(rows.index())?.as_ref()?,
            self.store.get(assign.index())?.as_ref()?,
        ) {
            (Value::Matrix(_), Value::Matrix(r), Value::Indices(a))
                if r.rows() == count && a.len() == count => {}
            (Value::Matrix(_), Value::BitMatrix(r), Value::Indices(a))
                if r.rows() == count && a.len() == count => {}
            _ => return None,
        }
        Some(SegmentedAccumulatePlan { rows, assign, acc })
    }

    /// Execute a recognized accumulate-by-assignment `ParallelFor` as one
    /// [`hdc_core::batch::accumulate_by_segment`] kernel call, then restore
    /// the sequential schedule's end state (final loop index and the last
    /// iteration's gather/cast/pick temporaries).
    fn exec_segmented_accumulate(
        &mut self,
        count: usize,
        index: ValueId,
        body: &[HdcInstr],
        plan: SegmentedAccumulatePlan,
    ) -> Result<()> {
        let assignments: Vec<usize> = self
            .value(plan.assign)?
            .as_indices("segment assignments")?
            .to_vec();
        let rows = self.value(plan.rows)?.clone();
        let init = match self.value(plan.acc)? {
            Value::Matrix(m) => Arc::clone(m),
            other => {
                return Err(RuntimeError::TypeMismatch {
                    context: "segmented accumulate".to_string(),
                    expected: "matrix",
                    found: other.kind_name(),
                })
            }
        };
        let out = match &rows {
            // Bit-packed rows accumulate straight from the packed words; no
            // dense intermediate (and no unpack copy) is materialized.
            Value::BitMatrix(b) => {
                hdc_core::batch::accumulate_by_segment_bits(b, &assignments, &init)?
            }
            _ => {
                let (dense, copied) = rows.dense_matrix("segmented accumulate rows")?;
                self.note_copy(copied);
                hdc_core::batch::accumulate_by_segment(dense.as_ref(), &assignments, &init)?
            }
        };
        self.stats.batched_kernel_ops += 1;
        self.stats.epoch_kernel_ops += 1;
        // The accumulate instructions the kernel replaced; the remaining
        // body instructions re-run below and count themselves.
        self.stats.instructions_executed += body.len() * count - (body.len() - 1);
        self.set(plan.acc, Value::matrix(out));
        self.set(index, Value::Scalar((count - 1) as f64));
        for instr in body {
            if instr.op != HdcOp::AccumulateRow {
                self.exec_instr(instr)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // stage execution
    // ------------------------------------------------------------------

    fn exec_stage(&mut self, node: &Node, stage: &StageNode) -> Result<()> {
        let samples_before = self.stats.stage_samples;
        let batched = self.exec_stage_body(stage)?;
        let samples = self.stats.stage_samples - samples_before;
        if node.target.is_hdc_accelerator() {
            self.stats.accelerated_stage_samples += samples;
        }
        self.stage_trace.push(StageTraceEntry {
            node: node.name.clone(),
            kind: stage.kind.name(),
            target: node.target,
            samples,
            batched,
        });
        Ok(())
    }

    /// Execute a stage body, returning whether the batched schedule ran.
    fn exec_stage_body(&mut self, stage: &StageNode) -> Result<bool> {
        if self.mode.is_batched() && self.exec_stage_batched(stage)? {
            return Ok(true);
        }
        // ----- per-sample sequential reference oracle -----
        let (queries, copied) = self
            .value(stage.interface.queries)?
            .dense_matrix("stage queries")?;
        self.note_copy(copied);
        match stage.kind {
            StageKind::Encoding => {
                let mut rows = Vec::with_capacity(queries.rows());
                for r in 0..queries.rows() {
                    let row = queries.row_vector(r)?;
                    self.note_copy(row.dimension() * 8);
                    self.set(stage.body_query, Value::vector(row));
                    self.exec_instrs(&stage.body)?;
                    self.stats.stage_samples += 1;
                    let (v, copied) = self
                        .value(stage.body_result)?
                        .dense_vector("encoding result")?;
                    self.note_copy(copied + v.dimension() * 8);
                    rows.push(v.as_ref().clone());
                }
                self.set(
                    stage.interface.output,
                    Value::matrix(HyperMatrix::from_rows(rows)?),
                );
            }
            StageKind::Inference => {
                let mut labels = Vec::with_capacity(queries.rows());
                for r in 0..queries.rows() {
                    let row = queries.row_vector(r)?;
                    self.note_copy(row.dimension() * 8);
                    self.set(stage.body_query, Value::vector(row));
                    self.exec_instrs(&stage.body)?;
                    self.stats.stage_samples += 1;
                    let (scores, copied) = self
                        .value(stage.body_result)?
                        .dense_vector("stage scores")?;
                    self.note_copy(copied);
                    let winner =
                        stage
                            .polarity
                            .select(scores.as_slice())
                            .ok_or(RuntimeError::Core(hdc_core::HdcError::EmptyInput(
                                "stage scores",
                            )))?;
                    labels.push(winner);
                }
                self.set(stage.interface.output, Value::indices(labels));
            }
            StageKind::Training { epochs } => {
                let classes_id =
                    stage
                        .interface
                        .classes
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            context: "training_loop".to_string(),
                            expected: "class hypermatrix",
                            found: "none",
                        })?;
                let labels_id =
                    stage
                        .interface
                        .labels
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            context: "training_loop".to_string(),
                            expected: "labels",
                            found: "none",
                        })?;
                let truth: Vec<usize> = self
                    .value(labels_id)?
                    .as_indices("training labels")?
                    .to_vec();
                // Keep a dense shadow of the class matrix for the duration of
                // the stage so perceptron updates accumulate; re-binarized on
                // exit if the slot is packed.
                let (dense_classes, copied) =
                    self.value(classes_id)?.dense_matrix("training classes")?;
                self.note_copy(copied);
                self.set_raw(classes_id, Value::Matrix(dense_classes));
                for _epoch in 0..epochs {
                    #[allow(clippy::needless_range_loop)]
                    for r in 0..queries.rows() {
                        let sample = queries.row_vector(r)?;
                        self.note_copy(sample.dimension() * 8);
                        self.set(stage.body_query, Value::vector(sample.clone()));
                        self.exec_instrs(&stage.body)?;
                        self.stats.stage_samples += 1;
                        let (scores, copied) = self
                            .value(stage.body_result)?
                            .dense_vector("stage scores")?;
                        self.note_copy(copied);
                        let pred =
                            stage
                                .polarity
                                .select(scores.as_slice())
                                .ok_or(RuntimeError::Core(hdc_core::HdcError::EmptyInput(
                                    "stage scores",
                                )))?;
                        let label = truth[r];
                        if pred != label {
                            let cow = self.cow_bytes(classes_id)?;
                            self.note_copy(cow);
                            match self.value_mut(classes_id)? {
                                Value::Matrix(classes) => {
                                    let m = Arc::make_mut(classes);
                                    update_row_in_place(m, label, sample.as_slice(), 1.0)?;
                                    update_row_in_place(m, pred, sample.as_slice(), -1.0)?;
                                }
                                other => {
                                    return Err(RuntimeError::TypeMismatch {
                                        context: "training_loop classes".to_string(),
                                        expected: "matrix",
                                        found: other.kind_name(),
                                    })
                                }
                            }
                        }
                    }
                }
                let trained = self.value(classes_id)?.clone();
                self.store_trained(stage, classes_id, trained);
            }
        }
        Ok(false)
    }

    /// Conform a trained dense class matrix back to the declared kind of
    /// its slot: one conversion, shared with the aliased output slot.
    fn store_trained(&mut self, stage: &StageNode, classes_id: ValueId, trained: Value) {
        let declared = self.program.value(classes_id).ty;
        let (conformed, copied) = trained.conform_to_counted(&declared);
        self.note_copy(copied);
        self.set_raw(classes_id, conformed.clone());
        if stage.interface.output != classes_id {
            self.set(stage.interface.output, conformed);
        }
    }

    /// Recognize a stage body the batched kernels can execute in one call.
    /// Bodies that stage their intermediate results in integer-quantized
    /// slots are left to the sequential oracle (its per-sample conform
    /// would round; the batched kernels would not).
    fn stage_batch_plan(&self, stage: &StageNode) -> Option<StagePlan> {
        let float_or = |id: ValueId, allow_bit: bool| -> bool {
            match self.program.value(id).ty {
                ValueType::HyperVector { elem, .. } | ValueType::HyperMatrix { elem, .. } => {
                    matches!(elem, ElementKind::F32 | ElementKind::F64)
                        || (allow_bit && elem == ElementKind::Bit)
                }
                _ => false,
            }
        };
        // A body that is one similarity reduction of the sample against
        // some other value: that value, the metric and the perforation.
        let scored_against = || -> Option<(ValueId, Metric, Perforation)> {
            let [instr] = stage.body.as_slice() else {
                return None;
            };
            let metric = similarity_metric(&instr.op)?;
            if instr.result != Some(stage.body_result) || !float_or(stage.body_result, false) {
                return None;
            }
            let a = instr.operands.first().and_then(Operand::as_value)?;
            let b = instr.operands.get(1).and_then(Operand::as_value)?;
            let other = if a == stage.body_query && b != stage.body_query {
                b
            } else if b == stage.body_query && a != stage.body_query {
                a
            } else {
                return None;
            };
            Some((
                other,
                metric,
                instr.perforation.unwrap_or(Perforation::NONE),
            ))
        };
        match stage.kind {
            StageKind::Inference => {
                let (classes, metric, perf) = scored_against()?;
                Some(StagePlan::Inference {
                    classes,
                    metric,
                    perf,
                })
            }
            StageKind::Encoding => {
                let (mm, sign) = match stage.body.as_slice() {
                    [mm] => (mm, None),
                    [mm, sign] => (mm, Some(sign)),
                    _ => return None,
                };
                if mm.op != HdcOp::MatMul {
                    return None;
                }
                let input = mm.operands.first().and_then(Operand::as_value)?;
                let proj = mm.operands.get(1).and_then(Operand::as_value)?;
                if input != stage.body_query || proj == stage.body_query {
                    return None;
                }
                let then_sign = match sign {
                    None => {
                        if mm.result != Some(stage.body_result)
                            || !float_or(stage.body_result, false)
                        {
                            return None;
                        }
                        false
                    }
                    Some(s) => {
                        let mid = mm.result?;
                        if s.op != HdcOp::Sign
                            || s.operands.first().and_then(Operand::as_value) != Some(mid)
                            || s.result != Some(stage.body_result)
                            || !float_or(mid, true)
                            || !float_or(stage.body_result, true)
                        {
                            return None;
                        }
                        true
                    }
                };
                Some(StagePlan::Encoding {
                    proj,
                    perf: mm.perforation.unwrap_or(Perforation::NONE),
                    then_sign,
                })
            }
            StageKind::Training { epochs } => {
                let (classes, metric, perf) = scored_against()?;
                stage.interface.labels?;
                if stage.interface.classes != Some(classes) {
                    return None;
                }
                Some(StagePlan::Training {
                    classes,
                    epochs,
                    metric,
                    perf,
                })
            }
        }
    }

    /// Try to execute a stage as one batched kernel call. Returns `false`
    /// (leaving the store untouched) when the body or the operand
    /// representations don't fit the batched kernels.
    fn exec_stage_batched(&mut self, stage: &StageNode) -> Result<bool> {
        let Some(plan) = self.stage_batch_plan(stage) else {
            return Ok(false);
        };
        match plan {
            StagePlan::Inference {
                classes,
                metric,
                perf,
            } => {
                let queries = self.value(stage.interface.queries)?.clone();
                let classes_val = self.value(classes)?.clone();
                let (Some(query_rows), Some(class_rows)) =
                    (matrix_rows(&queries), matrix_rows(&classes_val))
                else {
                    return Ok(false);
                };
                let plan = self.shard_plan(query_rows, class_rows);
                // Mixed packed/dense operands: sequential oracle.
                let Some(scores) = score_all_pairs(&queries, &classes_val, metric, perf, &plan)?
                else {
                    return Ok(false);
                };
                let rows = scores.rows();
                if queries.is_packed() {
                    self.stats.bit_kernel_ops += rows;
                }
                let labels: Vec<usize> = scores
                    .iter_rows()
                    .map(|row| {
                        let picked = select_sharded(stage.polarity, row, &plan);
                        self.stats.shard_merge_ops += picked.merge_ops;
                        picked
                            .value
                            .ok_or(RuntimeError::Core(hdc_core::HdcError::EmptyInput(
                                "stage scores",
                            )))
                    })
                    .collect::<Result<_>>()?;
                if plan.shard_count() > 1 {
                    self.stats.class_shards += plan.shard_count();
                }
                self.stats.batched_kernel_ops += 1;
                self.stats.stage_samples += rows;
                self.stats.instructions_executed += rows;
                self.set(stage.interface.output, Value::indices(labels));
                Ok(true)
            }
            StagePlan::Encoding {
                proj,
                perf,
                then_sign,
            } => {
                let queries = self.value(stage.interface.queries)?.clone();
                let proj_val = self.value(proj)?.clone();
                let Value::Matrix(q) = &queries else {
                    return Ok(false);
                };
                let mut out = match &proj_val {
                    Value::Matrix(p) => {
                        hdc_core::matmul::matmul_batch(q.as_ref(), p.as_ref(), perf)?
                    }
                    Value::BitMatrix(signs) => {
                        self.note_sign_encode(q.rows());
                        hdc_core::matmul::matmul_signs(q.as_ref(), signs.as_ref(), perf)?
                    }
                    _ => return Ok(false),
                };
                // Packing a binarized output slot thresholds by sign anyway
                // (`BitVector::from_signs`), so the encode is only signed
                // (in place) when the slot stays dense.
                let packs_by_sign = self.program.value(stage.interface.output).ty.element_kind()
                    == Some(ElementKind::Bit);
                if then_sign && !packs_by_sign {
                    for x in out.as_mut_slice() {
                        *x = x.bipolar_sign();
                    }
                }
                self.stats.batched_kernel_ops += 1;
                self.stats.stage_samples += q.rows();
                self.stats.instructions_executed += stage.body.len() * q.rows();
                self.set(stage.interface.output, Value::matrix(out));
                Ok(true)
            }
            StagePlan::Training {
                classes,
                epochs,
                metric,
                perf,
            } => self.exec_training_batched(stage, classes, epochs, metric, perf),
        }
    }

    /// The batched `training_loop`: one [`replay_epoch`] call (the blocked
    /// re-freeze schedule) per epoch over a dense working copy of
    /// the class matrix, which conforms back to the declared kind at stage
    /// exit — the role the sequential oracle's dense shadow plays.
    fn exec_training_batched(
        &mut self,
        stage: &StageNode,
        classes_id: ValueId,
        epochs: usize,
        metric: Metric,
        perf: Perforation,
    ) -> Result<bool> {
        let labels_id = stage.interface.labels.expect("checked by the plan");
        let truth: Vec<usize> = self
            .value(labels_id)?
            .as_indices("training labels")?
            .to_vec();
        let (queries, q_copied) = self
            .value(stage.interface.queries)?
            .dense_matrix("stage queries")?;
        let mut classes_m: HyperMatrix<f64> = self
            .value(classes_id)?
            .to_dense_matrix("training classes")?;
        self.note_copy(q_copied + classes_m.rows() * classes_m.cols() * 8);
        for _epoch in 0..epochs {
            let counts = replay_epoch(
                &queries,
                &truth,
                &mut classes_m,
                metric,
                stage.polarity,
                perf,
                self.class_shard_override,
            )?;
            self.stats.epoch_kernel_ops += 1;
            self.stats.batched_kernel_ops += 1;
            if counts.class_shards > 1 {
                self.stats.class_shards += counts.class_shards;
            }
            self.stats.shard_merge_ops += counts.shard_merge_ops;
            self.stats.rescored_samples += counts.rescored_samples;
            self.stats.rescored_rows += counts.rescored_rows;
            self.stats.stage_samples += counts.samples;
            self.stats.instructions_executed += counts.samples;
        }
        self.store_trained(stage, classes_id, Value::matrix(classes_m));
        Ok(true)
    }

    // ------------------------------------------------------------------
    // instruction execution
    // ------------------------------------------------------------------

    fn exec_instr(&mut self, instr: &HdcInstr) -> Result<()> {
        self.stats.instructions_executed += 1;
        let perf = instr.perforation.unwrap_or(Perforation::NONE);
        let result = match &instr.op {
            HdcOp::Zero => Some(self.make_filled(instr, 0.0)?),
            HdcOp::Random { seed } => Some(self.make_random(instr, *seed, RandomKind::Uniform)?),
            HdcOp::Gaussian { seed } => {
                Some(self.make_random(instr, *seed, RandomKind::Gaussian)?)
            }
            HdcOp::RandomBipolar { seed } => {
                Some(self.make_random(instr, *seed, RandomKind::Bipolar)?)
            }
            HdcOp::WrapShift => {
                let amount = match instr.operands.get(1) {
                    Some(Operand::ImmInt(i)) => *i as isize,
                    Some(Operand::Value(v)) => {
                        self.value(*v)?.as_scalar("wrap_shift amount")?.round() as isize
                    }
                    None => 0,
                };
                let input = self.operand_value(instr, 0, "wrap_shift")?;
                Some(match input {
                    Value::Bits(b) => Value::bits(b.wrap_shift(amount)),
                    Value::BitMatrix(b) => {
                        let rows: hdc_core::Result<Vec<BitVector>> =
                            b.iter().map(|r| Ok(r.wrap_shift(amount))).collect();
                        Value::bit_matrix(BitMatrix::from_rows(rows?)?)
                    }
                    Value::Vector(v) => Value::vector(v.wrap_shift(amount)),
                    Value::Matrix(m) => {
                        let rows: Vec<HyperVector<f64>> = (0..m.rows())
                            .map(|r| Ok(m.row_vector(r)?.wrap_shift(amount)))
                            .collect::<Result<_>>()?;
                        Value::matrix(HyperMatrix::from_rows(rows)?)
                    }
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            context: "wrap_shift".to_string(),
                            expected: "tensor",
                            found: other.kind_name(),
                        })
                    }
                })
            }
            HdcOp::Sign => {
                let input = self.operand_value(instr, 0, "sign")?;
                Some(match input {
                    // Packed values are bipolar by definition; sharing the
                    // payload is free.
                    Value::Bits(b) => Value::Bits(Arc::clone(b)),
                    Value::BitMatrix(b) => Value::BitMatrix(Arc::clone(b)),
                    Value::Vector(v) => Value::vector(v.sign()),
                    Value::Matrix(m) => Value::matrix(m.sign()),
                    Value::Scalar(x) => Value::Scalar(if *x < 0.0 { -1.0 } else { 1.0 }),
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            context: "sign".to_string(),
                            expected: "tensor or scalar",
                            found: other.kind_name(),
                        })
                    }
                })
            }
            HdcOp::SignFlip => {
                let input = self.operand_value(instr, 0, "sign_flip")?;
                Some(match input {
                    Value::Bits(b) => Value::bits(b.sign_flip()),
                    Value::BitMatrix(b) => {
                        let rows: Vec<BitVector> = b.iter().map(BitVector::sign_flip).collect();
                        Value::bit_matrix(BitMatrix::from_rows(rows)?)
                    }
                    Value::Vector(v) => Value::vector(v.sign_flip()),
                    Value::Matrix(m) => Value::matrix(m.sign_flip()),
                    Value::Scalar(x) => Value::Scalar(-x),
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            context: "sign_flip".to_string(),
                            expected: "tensor or scalar",
                            found: other.kind_name(),
                        })
                    }
                })
            }
            HdcOp::AbsoluteValue => {
                let (v, copied) =
                    self.unary_dense(instr, "abs", |v| v.absolute_value(), |m| m.absolute_value())?;
                self.note_copy(copied);
                Some(v)
            }
            HdcOp::CosineElementwise => {
                let (v, copied) = self.unary_dense(instr, "cos", |v| v.cosine(), |m| m.cosine())?;
                self.note_copy(copied);
                Some(v)
            }
            HdcOp::Elementwise(op) => Some(self.elementwise(instr, *op)?),
            HdcOp::L2Norm => {
                let input = self.operand_value(instr, 0, "l2norm")?.clone();
                Some(match &input {
                    Value::Matrix(_) | Value::BitMatrix(_) => {
                        let (m, copied) = input.dense_matrix("l2norm")?;
                        self.note_copy(copied);
                        let norms: Vec<f64> = (0..m.rows())
                            .map(|r| {
                                Ok(hdc_core::matmul::l2norm_perforated(
                                    &m.row_vector(r)?,
                                    perf,
                                )?)
                            })
                            .collect::<Result<_>>()?;
                        Value::vector(HyperVector::from_vec(norms))
                    }
                    other => {
                        let (v, copied) = other.dense_vector("l2norm")?;
                        self.note_copy(copied);
                        Value::Scalar(hdc_core::matmul::l2norm_perforated(&v, perf)?)
                    }
                })
            }
            HdcOp::GetElement => {
                let row = self.operand_index(instr, 1, "get_element")?;
                let input = self.operand_value(instr, 0, "get_element")?;
                let x = match input {
                    Value::Vector(v) => v.get(row)?,
                    Value::Bits(b) => f64::from(b.get(row)?),
                    Value::Indices(v) => *v.get(row).ok_or(RuntimeError::BadIndex {
                        context: "get_element".to_string(),
                        index: row as i64,
                    })? as f64,
                    Value::Matrix(_) | Value::BitMatrix(_) => {
                        let col = self.operand_index(instr, 2, "get_element")?;
                        match input {
                            Value::Matrix(m) => m.get(row, col)?,
                            Value::BitMatrix(b) => f64::from(b.row(row)?.get(col)?),
                            _ => unreachable!("matched matrix kinds above"),
                        }
                    }
                    Value::Scalar(x) => *x,
                };
                Some(Value::Scalar(x))
            }
            HdcOp::TypeCast { .. } => {
                // The cast itself is the store-side conversion: `set` below
                // conforms to the result slot's declared (cast-to) kind.
                // Cloning the operand is a reference-count bump.
                Some(self.operand_value(instr, 0, "type_cast")?.clone())
            }
            HdcOp::ArgMin => Some(self.selection(instr, true)?),
            HdcOp::ArgMax => Some(self.selection(instr, false)?),
            HdcOp::ArgTopK { k } => Some(self.top_k_selection(instr, *k)?),
            HdcOp::SetMatrixRow => {
                let row = self.operand_index(instr, 2, "set_matrix_row")?;
                let matrix_id = self.operand_value_id(instr, 0, "set_matrix_row")?;
                let src = self.operand_value(instr, 1, "set_matrix_row")?.clone();
                let (dense, copied) = src.dense_vector("set_matrix_row")?;
                self.note_copy(copied);
                if self.row_log_covers(matrix_id) {
                    let stored = match self.value(matrix_id)? {
                        Value::BitMatrix(_) => dense.sign(),
                        _ => dense.as_ref().clone(),
                    };
                    self.row_log
                        .as_mut()
                        .expect("covered implies installed")
                        .writes
                        .push((matrix_id, row, stored));
                } else {
                    let cow = self.cow_bytes(matrix_id)?;
                    self.note_copy(cow);
                    match self.value_mut(matrix_id)? {
                        Value::BitMatrix(b) => {
                            Arc::make_mut(b).set_row(row, BitVector::from_dense(dense.as_ref()))?;
                        }
                        Value::Matrix(m) => {
                            Arc::make_mut(m).set_row(row, dense.as_ref())?;
                        }
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                context: "set_matrix_row".to_string(),
                                expected: "matrix",
                                found: other.kind_name(),
                            })
                        }
                    }
                }
                None
            }
            HdcOp::GetMatrixRow => {
                let row = self.operand_index(instr, 1, "get_matrix_row")?;
                let input = self.operand_value(instr, 0, "get_matrix_row")?.clone();
                let (value, copied) = match &input {
                    Value::BitMatrix(b) => {
                        let r = b.row(row)?.clone();
                        let bytes = r.storage_bytes();
                        (Value::bits(r), bytes)
                    }
                    Value::Matrix(m) => {
                        let r = m.row_vector(row)?;
                        let bytes = r.dimension() * 8;
                        (Value::vector(r), bytes)
                    }
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            context: "get_matrix_row".to_string(),
                            expected: "matrix",
                            found: other.kind_name(),
                        })
                    }
                };
                self.note_copy(copied);
                Some(value)
            }
            HdcOp::MatrixTranspose => {
                let input = self.operand_value(instr, 0, "transpose")?.clone();
                let (m, copied) = input.dense_matrix("transpose")?;
                self.note_copy(copied);
                Some(Value::matrix(m.transpose()))
            }
            HdcOp::CosineSimilarity => Some(self.similarity(instr, perf, Metric::Cosine)?),
            HdcOp::HammingDistance => Some(self.similarity(instr, perf, Metric::Hamming)?),
            HdcOp::MatMul => Some(self.matmul(instr, perf)?),
            HdcOp::AccumulateRow => {
                let row = self.operand_index(instr, 2, "accumulate_row")?;
                let matrix_id = self.operand_value_id(instr, 0, "accumulate_row")?;
                let src = self.operand_value(instr, 1, "accumulate_row")?.clone();
                let (add, copied) = src.dense_vector("accumulate_row")?;
                self.note_copy(copied);
                if self.row_log_covers(matrix_id) {
                    let is_bit = matches!(self.value(matrix_id)?, Value::BitMatrix(_));
                    let log = self.row_log.as_ref().expect("covered implies installed");
                    let current: HyperVector<f64> = match log.latest(matrix_id, row) {
                        Some(prev) => prev.clone(),
                        None => match self.value(matrix_id)? {
                            Value::BitMatrix(b) => b.row(row)?.to_dense(),
                            Value::Matrix(m) => m.row_vector(row)?,
                            other => {
                                return Err(RuntimeError::TypeMismatch {
                                    context: "accumulate_row".to_string(),
                                    expected: "matrix",
                                    found: other.kind_name(),
                                })
                            }
                        },
                    };
                    let sum = current.zip_with(add.as_ref(), |a, x| a + x)?;
                    let stored = if is_bit { sum.sign() } else { sum };
                    self.row_log
                        .as_mut()
                        .expect("covered implies installed")
                        .writes
                        .push((matrix_id, row, stored));
                } else {
                    let cow = self.cow_bytes(matrix_id)?;
                    self.note_copy(cow);
                    match self.value_mut(matrix_id)? {
                        // A packed class matrix accumulates in bipolar space:
                        // unpack the row, add, re-binarize by sign.
                        Value::BitMatrix(b) => {
                            let bm = Arc::make_mut(b);
                            let dense: HyperVector<f64> = bm.row(row)?.to_dense();
                            let sum = dense.zip_with(add.as_ref(), |a, x| a + x)?;
                            bm.set_row(row, BitVector::from_dense(&sum.sign()))?;
                        }
                        Value::Matrix(m) => {
                            let mm = Arc::make_mut(m);
                            let sum = mm.row_vector(row)?.zip_with(add.as_ref(), |a, x| a + x)?;
                            mm.set_row(row, &sum)?;
                        }
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                context: "accumulate_row".to_string(),
                                expected: "matrix",
                                found: other.kind_name(),
                            })
                        }
                    }
                }
                None
            }
        };
        if let (Some(value), Some(result_id)) = (result, instr.result) {
            self.set(result_id, value);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // op helpers
    // ------------------------------------------------------------------

    /// Count a batch of `rows` query rows encoded by
    /// [`hdc_core::matmul::matmul_signs`] under the leg it takes.
    fn note_sign_encode(&mut self, rows: usize) {
        if hdc_core::matmul::sign_encode_is_fused(rows) {
            self.stats.fused_encoded_rows += rows;
        } else {
            self.stats.sign_encoded_rows += rows;
        }
    }

    /// `matmul` of a vector or matrix by a projection. A projection bound
    /// as sign bits is encoded against as is, never unpacked.
    fn matmul(&mut self, instr: &HdcInstr, perf: Perforation) -> Result<Value> {
        let input = self.operand_value(instr, 0, "matmul")?.clone();
        let proj_src = self.operand_value(instr, 1, "matmul")?.clone();
        let batch = match &input {
            Value::Matrix(_) | Value::BitMatrix(_) => {
                let (batch, copied) = input.dense_matrix("matmul input")?;
                self.note_copy(copied);
                Some(batch)
            }
            _ => None,
        };
        if let Value::BitMatrix(signs) = &proj_src {
            return Ok(match batch {
                Some(batch) => {
                    self.note_sign_encode(batch.rows());
                    Value::matrix(hdc_core::matmul::matmul_signs(&batch, signs, perf)?)
                }
                None => {
                    let (v, copied) = input.dense_vector("matmul input")?;
                    self.note_copy(copied);
                    self.stats.sign_encoded_rows += 1;
                    Value::vector(hdc_core::matmul::matvec_signs(signs, &v, perf)?)
                }
            });
        }
        let (proj, copied) = proj_src.dense_matrix("matmul projection")?;
        self.note_copy(copied);
        Ok(match batch {
            Some(batch) => Value::matrix(hdc_core::matmul::matmul_batch(&batch, &proj, perf)?),
            None => {
                let (v, copied) = input.dense_vector("matmul input")?;
                self.note_copy(copied);
                Value::vector(hdc_core::matmul::matvec(&proj, &v, perf)?)
            }
        })
    }

    fn result_type(&self, instr: &HdcInstr) -> Result<ValueType> {
        let id = instr.result.ok_or_else(|| RuntimeError::TypeMismatch {
            context: format!("{}", instr.op),
            expected: "result slot",
            found: "none",
        })?;
        Ok(self.program.value(id).ty)
    }

    fn make_filled(&self, instr: &HdcInstr, fill: f64) -> Result<Value> {
        Ok(match self.result_type(instr)? {
            ValueType::HyperVector { dim, .. } => Value::vector(HyperVector::splat(dim, fill)),
            ValueType::HyperMatrix { rows, cols, .. } => {
                Value::matrix(HyperMatrix::from_fn(rows, cols, |_, _| fill))
            }
            ValueType::Scalar(_) => Value::Scalar(fill),
            ValueType::IndexVector { len } => Value::indices(vec![0; len]),
        })
    }

    fn make_random(&self, instr: &HdcInstr, seed: u64, kind: RandomKind) -> Result<Value> {
        let mut rng = HdcRng::seed_from_u64(seed);
        Ok(match self.result_type(instr)? {
            ValueType::HyperVector { dim, .. } => Value::vector(match kind {
                RandomKind::Uniform => hdc_core::random::random_hypervector(dim, &mut rng),
                RandomKind::Gaussian => hdc_core::random::gaussian_hypervector(dim, &mut rng),
                RandomKind::Bipolar => hdc_core::random::bipolar_hypervector(dim, &mut rng),
            }),
            ValueType::HyperMatrix { rows, cols, .. } => Value::matrix(match kind {
                RandomKind::Uniform => hdc_core::random::random_hypermatrix(rows, cols, &mut rng),
                RandomKind::Gaussian => {
                    hdc_core::random::gaussian_hypermatrix(rows, cols, &mut rng)
                }
                RandomKind::Bipolar => hdc_core::random::bipolar_hypermatrix(rows, cols, &mut rng),
            }),
            other => {
                return Err(RuntimeError::TypeMismatch {
                    context: "random creation".to_string(),
                    expected: "tensor result",
                    found: match other {
                        ValueType::Scalar(_) => "scalar",
                        _ => "indices",
                    },
                })
            }
        })
    }

    fn unary_dense(
        &self,
        instr: &HdcInstr,
        context: &str,
        fv: impl Fn(&HyperVector<f64>) -> HyperVector<f64>,
        fm: impl Fn(&HyperMatrix<f64>) -> HyperMatrix<f64>,
    ) -> Result<(Value, usize)> {
        let input = self.operand_value(instr, 0, context)?;
        Ok(match input {
            Value::Matrix(_) | Value::BitMatrix(_) => {
                let (m, copied) = input.dense_matrix(context)?;
                (Value::matrix(fm(&m)), copied)
            }
            Value::Scalar(x) => {
                let v = fv(&HyperVector::from_vec(vec![*x]));
                (Value::Scalar(v.get(0)?), 0)
            }
            other => {
                let (v, copied) = other.dense_vector(context)?;
                (Value::vector(fv(&v)), copied)
            }
        })
    }

    fn elementwise(&mut self, instr: &HdcInstr, op: ElementwiseOp) -> Result<Value> {
        let lhs = self.operand_value(instr, 0, "elementwise")?.clone();
        let rhs = self.operand_value(instr, 1, "elementwise")?.clone();
        Ok(match (op, &lhs, &rhs) {
            // Binding (element-wise multiplication) of two packed bipolar
            // values is XOR on the packed words.
            (ElementwiseOp::Mul, Value::Bits(a), Value::Bits(b)) => {
                self.stats.bit_kernel_ops += 1;
                Value::bits(a.bind(b)?)
            }
            (ElementwiseOp::Mul, Value::BitMatrix(a), Value::BitMatrix(b)) => {
                self.stats.bit_kernel_ops += 1;
                let rows: Vec<BitVector> = a
                    .iter()
                    .zip(b.iter())
                    .map(|(x, y)| x.bind(y))
                    .collect::<hdc_core::Result<_>>()?;
                Value::bit_matrix(BitMatrix::from_rows(rows)?)
            }
            (_, Value::Scalar(a), Value::Scalar(b)) => Value::Scalar(op.apply(*a, *b)),
            (_, Value::Matrix(_) | Value::BitMatrix(_), _) => {
                let (a, ca) = lhs.dense_matrix("elementwise")?;
                let (b, cb) = rhs.dense_matrix("elementwise")?;
                self.note_copy(ca + cb);
                Value::matrix(hdc_core::ops::elementwise_matrix(op, &a, &b)?)
            }
            _ => {
                let (a, ca) = lhs.dense_vector("elementwise")?;
                let (b, cb) = rhs.dense_vector("elementwise")?;
                self.note_copy(ca + cb);
                Value::vector(hdc_core::ops::elementwise(op, &a, &b)?)
            }
        })
    }

    fn selection(&mut self, instr: &HdcInstr, minimize: bool) -> Result<Value> {
        let input = self.operand_value(instr, 0, "selection")?.clone();
        // A row with no comparable score (empty or all NaN) has no answer.
        let pick = |slice: &[f64]| -> Result<usize> {
            if minimize {
                hdc_core::ops::arg_min(slice)
            } else {
                hdc_core::ops::arg_max(slice)
            }
            .ok_or(RuntimeError::Core(hdc_core::HdcError::EmptyInput(
                "arg_min/arg_max",
            )))
        };
        Ok(match &input {
            Value::Matrix(_) | Value::BitMatrix(_) => {
                let (m, copied) = input.dense_matrix("selection")?;
                self.note_copy(copied);
                Value::indices(m.iter_rows().map(pick).collect::<Result<_>>()?)
            }
            other => {
                let (v, copied) = other.dense_vector("selection")?;
                self.note_copy(copied);
                Value::Scalar(pick(v.as_slice())? as f64)
            }
        })
    }

    /// `arg_top_k`: per-row top-k over a score matrix runs as one batched
    /// selection kernel (or a per-row reference loop in sequential mode);
    /// a score vector selects directly. Either way the result must hold
    /// exactly `k` indices per row — NaN scores would shorten the selection
    /// and silently break the declared `indices<k>` layout, so they are an
    /// error.
    fn top_k_selection(&mut self, instr: &HdcInstr, k: usize) -> Result<Value> {
        let input = self.operand_value(instr, 0, "arg_top_k")?.clone();
        Ok(match &input {
            Value::Matrix(_) | Value::BitMatrix(_) => {
                let (m, copied) = input.dense_matrix("arg_top_k")?;
                self.note_copy(copied);
                if self.mode.is_batched() {
                    // The candidate axis (score columns) is the class
                    // memory here; shard it like the scoring kernels and
                    // merge per-shard top-k lists through the tree.
                    let plan = self.shard_plan(m.rows(), m.cols());
                    let (flat, merge_ops) =
                        hdc_core::batch::arg_top_k_batch_sharded(m.as_ref(), k, &plan)?;
                    self.stats.batched_kernel_ops += 1;
                    self.stats.shard_merge_ops += merge_ops;
                    if plan.shard_count() > 1 {
                        self.stats.class_shards += plan.shard_count();
                    }
                    Value::indices(flat)
                } else {
                    // Sequential reference: one per-row selection at a time.
                    let mut flat = Vec::with_capacity(m.rows() * k);
                    for row in m.iter_rows() {
                        flat.extend(checked_top_k(row, k)?);
                    }
                    Value::indices(flat)
                }
            }
            other => {
                let (v, copied) = other.dense_vector("arg_top_k")?;
                self.note_copy(copied);
                Value::indices(checked_top_k(v.as_slice(), k)?)
            }
        })
    }

    fn similarity(&mut self, instr: &HdcInstr, perf: Perforation, metric: Metric) -> Result<Value> {
        let lhs = self.operand_value(instr, 0, "similarity")?.clone();
        let rhs = self.operand_value(instr, 1, "similarity")?.clone();
        Ok(match (&lhs, &rhs) {
            // Fast paths: both operands bit-packed.
            (Value::Bits(a), Value::Bits(b)) => {
                self.stats.bit_kernel_ops += 1;
                let h = a.hamming_distance(b, perf)?;
                Value::Scalar(match metric {
                    Metric::Hamming => h,
                    Metric::Cosine => bipolar_cosine(h, perf.visited_count(a.dimension())),
                })
            }
            (Value::Bits(q), Value::BitMatrix(m)) | (Value::BitMatrix(m), Value::Bits(q)) => {
                self.stats.bit_kernel_ops += 1;
                let h = m.hamming_distances(q, perf)?;
                Value::vector(match metric {
                    Metric::Hamming => h,
                    Metric::Cosine => {
                        let v = perf.visited_count(q.dimension());
                        h.map(|d| bipolar_cosine(d, v))
                    }
                })
            }
            // All-pairs reduction, sequential mode: the single-chain
            // reference `*_all_pairs` over the dense forms, so the oracle
            // stays genuinely per-element (for packed operands it produces
            // the same score *orderings* as the popcount form below: bipolar
            // rows all share one norm, so dense cosine is a positive
            // rescaling of it).
            (Value::Matrix(_) | Value::BitMatrix(_), Value::Matrix(_) | Value::BitMatrix(_))
                if !self.mode.is_batched() =>
            {
                let (a, ca) = lhs.dense_matrix("similarity")?;
                let (b, cb) = rhs.dense_matrix("similarity")?;
                self.note_copy(ca + cb);
                Value::matrix(match metric {
                    Metric::Cosine => cosine_similarity_all_pairs(&a, &b, perf)?,
                    Metric::Hamming => hamming_distance_all_pairs(&a, &b, perf)?,
                })
            }
            // All-pairs reduction, batched mode: one kernel call. Two packed
            // operands stay packed; any other pair is unpacked first.
            (Value::Matrix(_) | Value::BitMatrix(_), Value::Matrix(_) | Value::BitMatrix(_)) => {
                let (a, b) = if lhs.is_packed() && rhs.is_packed() {
                    self.stats.bit_kernel_ops += 1;
                    (lhs.clone(), rhs.clone())
                } else {
                    let (a, ca) = lhs.dense_matrix("similarity")?;
                    let (b, cb) = rhs.dense_matrix("similarity")?;
                    self.note_copy(ca + cb);
                    (Value::Matrix(a), Value::Matrix(b))
                };
                self.stats.batched_kernel_ops += 1;
                let rows = |v: &Value| matrix_rows(v).expect("matched as a matrix");
                let plan = self.shard_plan(rows(&a), rows(&b));
                if plan.shard_count() > 1 {
                    self.stats.class_shards += plan.shard_count();
                }
                let scores = score_all_pairs(&a, &b, metric, perf, &plan)?;
                Value::matrix(scores.expect("both packed or both dense by construction"))
            }
            // A matrix against one vector, in either operand order: the
            // per-sample reference kernel.
            (Value::Matrix(_) | Value::BitMatrix(_), _)
            | (_, Value::Matrix(_) | Value::BitMatrix(_)) => {
                let (m, q) = match matrix_rows(&lhs) {
                    Some(_) => (&lhs, &rhs),
                    None => (&rhs, &lhs),
                };
                let (m, cm) = m.dense_matrix("similarity")?;
                let (q, cq) = q.dense_vector("similarity")?;
                self.note_copy(cm + cq);
                self.note_reference_kernel();
                Value::vector(match metric {
                    Metric::Cosine => cosine_similarity_matrix(&q, &m, perf)?,
                    Metric::Hamming => hamming_distance_matrix(&q, &m, perf)?,
                })
            }
            _ => {
                let (a, ca) = lhs.dense_vector("similarity")?;
                let (b, cb) = rhs.dense_vector("similarity")?;
                self.note_copy(ca + cb);
                Value::Scalar(match metric {
                    Metric::Cosine => cosine_similarity(&a, &b, perf)?,
                    Metric::Hamming => hamming_distance(&a, &b, perf)?,
                })
            }
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum RandomKind {
    Uniform,
    Gaussian,
    Bipolar,
}

/// The metric of a similarity intrinsic; `None` for any other op.
fn similarity_metric(op: &HdcOp) -> Option<Metric> {
    match op {
        HdcOp::CosineSimilarity => Some(Metric::Cosine),
        HdcOp::HammingDistance => Some(Metric::Hamming),
        _ => None,
    }
}

/// Row count of a dense or bit-packed matrix value.
fn matrix_rows(value: &Value) -> Option<usize> {
    match value {
        Value::BitMatrix(m) => Some(m.rows()),
        Value::Matrix(m) => Some(m.rows()),
        _ => None,
    }
}

/// The shard plan for a call scoring `query_rows` rows against a class
/// memory of `class_rows` rows: the override if set, else
/// [`hdc_core::shard::default_shard_count`] — one shard for a call under
/// [`hdc_core::shard::MIN_PAIRS_TO_SHARD`] pairs, otherwise one per worker
/// thread with at least [`hdc_core::shard::MIN_ROWS_PER_SHARD`] rows each.
pub(crate) fn shard_plan(
    class_shards: Option<usize>,
    query_rows: usize,
    class_rows: usize,
) -> hdc_core::ShardPlan {
    let shards = class_shards.unwrap_or_else(|| {
        hdc_core::default_shard_count(query_rows, class_rows, rayon::current_num_threads())
    });
    hdc_core::ShardPlan::split(class_rows, shards)
}

/// Per-row winner selection, with the pairwise merges it took: through
/// per-shard partials and the reduction-tree merge when the plan is sharded
/// (bit-identical to the direct selection — global lowest-index tie-break
/// and NaN skipping are preserved across shard boundaries), directly
/// otherwise.
pub(crate) fn select_sharded(
    polarity: ScorePolarity,
    row: &[f64],
    plan: &hdc_core::ShardPlan,
) -> Merged<Option<usize>> {
    if plan.shard_count() <= 1 {
        return Merged {
            value: polarity.select(row),
            merge_ops: 0,
        };
    }
    match polarity {
        ScorePolarity::Similarity => hdc_core::shard::row_arg_max_sharded(row, plan),
        ScorePolarity::Distance => hdc_core::shard::row_arg_min_sharded(row, plan),
    }
}

/// The one all-pairs scorer of batched mode: every row of `a` against every
/// row of `b` (the side `plan` shards), as an `a.rows() x b.rows()` score
/// matrix. Two bit-packed matrices take the sharded XOR/popcount kernel
/// (mapped through [`bipolar_cosine`] for cosine), two dense ones the
/// sharded dense kernel of `metric`. `None` for any other operand pair;
/// callers unpack or fall back, and keep their own accounting.
fn score_all_pairs(
    a: &Value,
    b: &Value,
    metric: Metric,
    perf: Perforation,
    plan: &hdc_core::ShardPlan,
) -> Result<Option<HyperMatrix<f64>>> {
    Ok(Some(match (a, b) {
        (Value::BitMatrix(a), Value::BitMatrix(b)) => {
            let h = hdc_core::batch::hamming_distance_batch_sharded(a, b, perf, plan)?;
            match metric {
                Metric::Hamming => h,
                Metric::Cosine => {
                    let visited = perf.visited_count(a.cols());
                    h.map(|d| bipolar_cosine(d, visited))
                }
            }
        }
        (Value::Matrix(a), Value::Matrix(b)) => {
            hdc_core::batch::score_rows_sharded(a, 0..a.rows(), b, metric, perf, plan)?
        }
        _ => return Ok(None),
    }))
}

/// [`hdc_core::ops::arg_top_k`] with the same result contract as the
/// batched kernel: exactly `k` indices or an error. Fewer than `k`
/// comparable scores (NaN contamination, or `k` out of range) would break
/// the `indices<k>` layout the verifier promised downstream consumers.
fn checked_top_k(scores: &[f64], k: usize) -> Result<Vec<usize>> {
    if k == 0 || k > scores.len() {
        return Err(RuntimeError::Core(hdc_core::HdcError::IndexOutOfBounds {
            index: k,
            len: scores.len(),
        }));
    }
    let picked = hdc_core::ops::arg_top_k(scores, k);
    if picked.len() < k {
        return Err(RuntimeError::Core(hdc_core::HdcError::IndexOutOfBounds {
            index: k,
            len: picked.len(),
        }));
    }
    Ok(picked)
}

/// Cosine similarity of two bipolar hypervectors from their Hamming distance
/// over `visited` compared positions: `dot = visited - 2h`, both norms are
/// `sqrt(visited)`.
fn bipolar_cosine(hamming: f64, visited: usize) -> f64 {
    if visited == 0 {
        return 0.0;
    }
    (visited as f64 - 2.0 * hamming) / visited as f64
}
