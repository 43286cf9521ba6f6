//! The blocked re-freeze perceptron replay — the one implementation of "how
//! a training epoch is replayed", shared by the executor's batched
//! `training_loop` stage and the online trainer in `hdc-serve`.
//!
//! An epoch is walked in blocks of [`TRAIN_BLOCK_ROWS`] samples: the block
//! is scored against the class matrix as it stands (the epoch kernel,
//! [`hdc_core::batch::score_rows_sharded`], reading the sample rows in
//! place), then replayed in sample order. A misprediction updates two class
//! rows and marks them dirty; every later sample of the block has exactly
//! those columns of its frozen score row patched with the per-pair reference
//! reduction ([`hdc_core::batch::rescore_columns`]) before it selects, and
//! the next block re-freezes. Each score read is thus the per-sample
//! reference kernel's value against the live matrix, so the trained matrix
//! — and every prediction along the way — exactly matches the sequential
//! oracle.

use crate::error::{Result, RuntimeError};
use crate::executor::{select_sharded, shard_plan};
use hdc_core::batch::{perforated_norm, rescore_columns, score_rows_sharded, SimilarityMetric};
use hdc_core::{HyperMatrix, Perforation};
use hdc_ir::stage::ScorePolarity;

/// Samples per block of the blocked re-freeze training schedule: the epoch
/// kernel re-freezes the scores every this many samples, so a patched
/// sample never carries more than one block's worth of dirty class rows.
/// Chosen by measurement on the ISOLET-shaped retraining workload (26
/// classes, 2048 dimensions): shorter blocks pay the per-call panel packing
/// and thread hand-off more often, longer ones patch more columns per
/// sample.
pub const TRAIN_BLOCK_ROWS: usize = 64;

/// What one [`replay_epoch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochCounts {
    /// Samples replayed.
    pub samples: usize,
    /// Perceptron updates applied (mispredicted samples).
    pub updates: usize,
    /// Samples visited after a class row changed within their block, so
    /// part of their frozen score row was patched.
    pub rescored_samples: usize,
    /// `(sample, class row)` scores patched — the work behind
    /// [`rescored_samples`](EpochCounts::rescored_samples).
    pub rescored_rows: usize,
    /// Class-memory shards every block of the epoch was scored in.
    pub class_shards: usize,
    /// Pairwise merges the sharded winner selections performed.
    pub shard_merge_ops: usize,
}

/// Replay one perceptron epoch over `classes` on the blocked re-freeze
/// schedule (see the module docs): row `r` of `queries` is scored by
/// `metric` under `perforation`, the winner picked by `polarity`, and on a
/// misprediction the row is added to class row `labels[r]` and subtracted
/// from the predicted row. `class_shards` overrides the class-memory shard
/// count of the epoch kernel and the winner selection exactly like
/// [`Executor::set_class_shards`](crate::Executor::set_class_shards); the
/// result is bit-identical for any count.
///
/// # Errors
///
/// Returns a dimension-mismatch error if `queries` and `classes` disagree
/// on columns, an index error for a label outside the class rows, and an
/// empty-input error if a score row has no winner.
pub fn replay_epoch(
    queries: &HyperMatrix<f64>,
    labels: &[usize],
    classes: &mut HyperMatrix<f64>,
    metric: SimilarityMetric,
    polarity: ScorePolarity,
    perforation: Perforation,
    class_shards: Option<usize>,
) -> Result<EpochCounts> {
    let class_count = classes.rows();
    let n = queries.rows().min(labels.len());
    // Every block scores at most `TRAIN_BLOCK_ROWS` rows, so that is the
    // call size the plan is sized for.
    let plan = shard_plan(class_shards, n.min(TRAIN_BLOCK_ROWS), class_count);
    let mut counts = EpochCounts {
        samples: n,
        class_shards: plan.shard_count(),
        ..EpochCounts::default()
    };
    // One cached norm per class row, read by cosine patches only: filled at
    // the epoch's first patch, then refreshed whenever a row is updated.
    let mut class_norms: Vec<f64> = Vec::new();
    let mut dirty: Vec<usize> = Vec::new();
    for start in (0..n).step_by(TRAIN_BLOCK_ROWS) {
        let end = (start + TRAIN_BLOCK_ROWS).min(n);
        let mut frozen =
            score_rows_sharded(queries, start..end, classes, metric, perforation, &plan)?;
        dirty.clear();
        for (r, &label) in labels.iter().enumerate().take(end).skip(start) {
            let first = (r - start) * class_count;
            let scores = &mut frozen.as_mut_slice()[first..first + class_count];
            let sample = queries.row(r)?;
            let pred = if dirty.is_empty() {
                let picked = select_sharded(polarity, scores, &plan);
                counts.shard_merge_ops += picked.merge_ops;
                picked.value
            } else {
                if metric == SimilarityMetric::Cosine && class_norms.is_empty() {
                    class_norms = classes
                        .iter_rows()
                        .map(|row| perforated_norm(row, perforation))
                        .collect();
                }
                // Patched rows select directly, like the oracle.
                rescore_columns(
                    scores,
                    sample,
                    classes,
                    &class_norms,
                    &dirty,
                    metric,
                    perforation,
                )?;
                counts.rescored_samples += 1;
                counts.rescored_rows += dirty.len();
                polarity.select(scores)
            }
            .ok_or(RuntimeError::Core(hdc_core::HdcError::EmptyInput(
                "stage scores",
            )))?;
            if pred != label {
                update_row_in_place(classes, label, sample, 1.0)?;
                update_row_in_place(classes, pred, sample, -1.0)?;
                counts.updates += 1;
                for c in [label, pred] {
                    if !class_norms.is_empty() {
                        class_norms[c] = perforated_norm(classes.row(c)?, perforation);
                    }
                    if !dirty.contains(&c) {
                        dirty.push(c);
                    }
                }
            }
        }
    }
    Ok(counts)
}

/// `matrix[row] += sign * sample`, in place, with bounds checking — the
/// perceptron update of `training_loop`, run once per misprediction by both
/// the sequential oracle and [`replay_epoch`].
///
/// # Errors
///
/// Returns an index error if `row` is out of bounds, or a
/// dimension-mismatch error if the sample length differs from the matrix
/// column count.
pub(crate) fn update_row_in_place(
    matrix: &mut HyperMatrix<f64>,
    row: usize,
    sample: &[f64],
    sign: f64,
) -> Result<()> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    if row >= rows {
        return Err(RuntimeError::Core(hdc_core::HdcError::IndexOutOfBounds {
            index: row,
            len: rows,
        }));
    }
    if sample.len() != cols {
        return Err(RuntimeError::Core(hdc_core::HdcError::DimensionMismatch {
            expected: cols,
            actual: sample.len(),
            context: "training row update",
        }));
    }
    let slice = &mut matrix.as_mut_slice()[row * cols..(row + 1) * cols];
    for (slot, &x) in slice.iter_mut().zip(sample) {
        *slot += sign * x;
    }
    Ok(())
}
