//! Batched, matrix-level inference kernels.
//!
//! HDC inference under load is not "one query at a time": a back end receives
//! a whole matrix of encoded queries and scores every row against the class
//! hypermatrix in one call. These kernels are the batched forms of the
//! [`crate::similarity`] primitives, written for throughput:
//!
//! * [`hamming_distance_batch`] — bit-packed queries × bit-packed classes,
//!   word-blocked XOR/popcount inner loops. Perforated reductions are
//!   evaluated by masking the packed words with a precomputed visit mask
//!   instead of walking indices bit by bit.
//! * [`cosine_similarity_batch`] — dense queries × dense classes with the
//!   class-row norms precomputed once per batch and reused for every query
//!   row (the per-sample form recomputes them per query). Query rows are
//!   packed eight at a time into a column-major panel and the class rows
//!   stream against it in place, several per pass of the dispatched panel
//!   kernel; a perforated reduction packs and streams only the visited
//!   columns, so it runs on the same SIMD panels as the dense one and costs
//!   its visited fraction.
//! * [`score_rows_sharded`] — a row block of dense queries × dense classes
//!   under either metric: the cosine kernel above, or the dense reference
//!   form of the Hamming batch for unbinarized configurations.
//!
//! Each score kernel has one implementation, the `_sharded` entry point:
//! every `(query row block, class shard)` pair is a work item of the rayon
//! compat layer and writes its own tile of one preallocated row-major score
//! buffer. The unsharded names are the one-shard plan. Results are
//! **bit-identical** to looping the per-sample kernels row by row: integer
//! popcounts are exact, and the dense kernels accumulate in the same
//! element order as their per-sample counterparts. That equivalence is
//! what lets `hdc-runtime` swap a per-sample stage loop for one batched call
//! without changing any classification output.

use crate::binary::BitMatrix;
use crate::element::{canonical_nan, Element};
use crate::error::{HdcError, Result};
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::ops::TotalOrd;
use crate::perforation::Perforation;
use crate::shard::ShardPlan;
use crate::simd::{dot_panel_kernel, PANEL_LANES};
use crate::similarity::{
    cosine_from_parts, dot_perforated, hamming_count_perforated, norm_sq_perforated,
};
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;

const WORD_BITS: usize = 64;

fn check_cols(a: usize, b: usize, context: &'static str) -> Result<()> {
    if a != b {
        return Err(HdcError::DimensionMismatch {
            expected: a,
            actual: b,
            context,
        });
    }
    Ok(())
}

/// Build the packed word mask selecting the indices a perforation descriptor
/// visits, so a perforated Hamming reduction becomes `popcount((a ^ b) & m)`.
fn perforation_mask(dimension: usize, perforation: Perforation) -> Vec<u64> {
    let mut mask = vec![0u64; dimension.div_ceil(WORD_BITS)];
    for i in perforation.indices(dimension) {
        mask[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }
    mask
}

/// Query rows per work item of a score kernel: one cosine query panel.
/// Latency does not set this width — the panel kernel keeps the chains of
/// several class rows in flight at once; one panel per work item keeps it
/// (128 KiB at 2048 dimensions) cache-resident while the class rows stream
/// by.
const SCORE_TILE_ROWS: usize = PANEL_LANES;

/// Allocate the `rows x plan.rows()` score matrix once and let every
/// `(query row block, class shard)` pair fill its own tile of it:
/// `fill(block, shard, tile)` receives the block's row range and one slice
/// per row, each covering the columns `plan.ranges()[shard]`. The class
/// axis is folded into the same flat work list the rayon compat layer
/// chunks over — shard work steals idle threads when there are few query
/// rows without ever nesting parallel scopes.
fn fill_scores<F>(rows: usize, plan: &ShardPlan, fill: F) -> HyperMatrix<f64>
where
    F: Fn(Range<usize>, usize, &mut [&mut [f64]]) + Sync,
{
    let cols = plan.rows();
    let shards = plan.shard_count();
    let mut data = vec![0.0f64; rows * cols];
    if cols > 0 {
        let blocks = rows.div_ceil(SCORE_TILE_ROWS);
        let mut tiles: Vec<(usize, Vec<&mut [f64]>)> = (0..blocks * shards)
            .map(|i| (i, Vec::with_capacity(SCORE_TILE_ROWS)))
            .collect();
        for (row, mut rest) in data.chunks_mut(cols).enumerate() {
            for (shard, range) in plan.ranges().iter().enumerate() {
                let (head, tail) = rest.split_at_mut(range.len());
                tiles[(row / SCORE_TILE_ROWS) * shards + shard].1.push(head);
                rest = tail;
            }
        }
        tiles
            .into_par_iter()
            .map(|(i, mut tile)| {
                let start = (i / shards) * SCORE_TILE_ROWS;
                fill(start..start + tile.len(), i % shards, &mut tile)
            })
            .collect::<()>();
    }
    HyperMatrix::from_flat(rows, cols, data).expect("buffer allocated as rows x cols")
}

/// The rows `rows` of `queries` as slices, so a kernel can score a block of
/// a larger matrix in place.
fn row_block<T: Element>(queries: &HyperMatrix<T>, rows: Range<usize>) -> Result<Vec<&[T]>> {
    rows.map(|r| queries.row(r)).collect()
}

/// Hamming distance from every row of `queries` to every row of `classes`,
/// producing a `queries.rows() x classes.rows()` score matrix.
///
/// Row `q` of the result equals
/// [`BitMatrix::hamming_distances`]`(queries.row(q), perforation)` exactly:
/// distances are integer popcounts, and perforated reductions count only the
/// visited positions (not rescaled, following the paper).
///
/// # Errors
///
/// Returns a dimension-mismatch error if the column counts differ and an
/// invalid-perforation error for a bad descriptor.
pub fn hamming_distance_batch(
    queries: &BitMatrix,
    classes: &BitMatrix,
    perforation: Perforation,
) -> Result<HyperMatrix<f64>> {
    let plan = ShardPlan::single(classes.rows());
    hamming_distance_batch_sharded(queries, classes, perforation, &plan)
}

/// Pack the columns of at most [`PANEL_LANES`] `rows` that `perforation`
/// visits (of the first `cols`) into a column-major `f64` panel:
/// `panel[v * PANEL_LANES + k]` holds row `k`'s `v`-th visited element, so
/// a walk down the element axis reads one contiguous lane group per
/// element. Lanes past `rows.len()` are zero. This is the layout the
/// dispatched panel kernel ([`dot_panel_kernel`]) takes, under the blocked
/// cosine batch here and the blocked [`crate::matmul::matmul_batch`].
pub(crate) fn pack_panel<T: Element>(
    rows: &[&[T]],
    cols: usize,
    perforation: Perforation,
) -> Vec<f64> {
    assert!(
        rows.len() <= PANEL_LANES,
        "a panel holds {PANEL_LANES} rows"
    );
    let mut panel = vec![0.0; perforation.visited_count(cols) * PANEL_LANES];
    for (lanes, c) in panel
        .chunks_exact_mut(PANEL_LANES)
        .zip(perforation.indices(cols))
    {
        for (lane, row) in lanes.iter_mut().zip(rows) {
            *lane = row[c].to_f64();
        }
    }
    panel
}

/// The rows of a matrix as the panel kernel streams them against a
/// [`pack_panel`] of the same perforation: `f64`, with the visited columns
/// of each row at every `stride`-th element of its [`StreamedRows::rows`]
/// slice.
pub(crate) struct StreamedRows<'a> {
    /// The matrix, row-major: borrowed when it already holds `f64`,
    /// converted once per call otherwise.
    data: Cow<'a, [f64]>,
    rows: usize,
    cols: usize,
    /// Where in a row the streamed span starts and ends.
    span: Range<usize>,
    /// The reduction's stride, as the panel kernel takes it.
    pub(crate) stride: usize,
}

impl<'a> StreamedRows<'a> {
    pub(crate) fn new<T: Element>(matrix: &'a HyperMatrix<T>, perforation: Perforation) -> Self {
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let flat = matrix.as_slice();
        StreamedRows {
            data: match T::as_f64_slice(flat) {
                Some(in_place) => in_place.into(),
                None => flat.iter().map(|x| x.to_f64()).collect::<Vec<_>>().into(),
            },
            rows,
            cols,
            span: perforation.begin.min(cols)..perforation.end_clamped(cols),
            stride: perforation.stride,
        }
    }

    /// Every row's streamed span, in row order.
    pub(crate) fn rows(&self) -> Vec<&[f64]> {
        (0..self.rows)
            .map(|r| {
                let start = r * self.cols;
                &self.data[start + self.span.start..start + self.span.end]
            })
            .collect()
    }
}

/// Cosine similarity between every row of `queries` and every row of
/// `classes`, producing a `queries.rows() x classes.rows()` score matrix.
///
/// The class-row norms are precomputed once per batch and reused for every
/// query row; the per-sample form
/// ([`crate::similarity::cosine_similarity_matrix`]) recomputes them for each
/// query. Query rows are scored up to `SCORE_TILE_ROWS` at a time with
/// independent accumulator chains, and each accumulation order matches the
/// per-sample kernel, so row `q` of the result is bit-identical to the
/// per-sample scores for `queries.row(q)`.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the column counts differ and an
/// invalid-perforation error for a bad descriptor.
pub fn cosine_similarity_batch<T: Element>(
    queries: &HyperMatrix<T>,
    classes: &HyperMatrix<T>,
    perforation: Perforation,
) -> Result<HyperMatrix<f64>> {
    let plan = ShardPlan::single(classes.rows());
    cosine_similarity_batch_sharded(queries, classes, perforation, &plan)
}

/// Which similarity reduction a dense scoring call ([`score_rows_sharded`])
/// performs: the metric names which per-sample reduction the kernel must be
/// bit-identical to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityMetric {
    /// `cossim` scores ([`cosine_similarity_batch`]).
    Cosine,
    /// Dense `hamming_distance` scores (mismatch counts over dense rows).
    Hamming,
}

/// Segmented reduction: sum encoded rows into per-segment accumulators
/// keyed by an assignment vector, starting from `init`.
///
/// `segments[i]` names the accumulator row that `rows.row(i)` is added to;
/// the result is `init` with every segment's member rows added **in
/// ascending row index order**, which makes the output bit-identical to the
/// sequential schedule (`for i { acc[segments[i]] += rows[i] }`): within
/// one accumulator row the additions happen in the same order, and rows of
/// different segments never interact. Segments are reduced in parallel
/// through the rayon compat layer. This is the batched form of the
/// clustering update's accumulate-by-assignment loop.
///
/// # Errors
///
/// Returns a dimension-mismatch error when `segments` is not one entry per
/// row or the column counts differ, and an index error when an assignment
/// names a row outside `init`.
pub fn accumulate_by_segment<T: Element>(
    rows: &HyperMatrix<T>,
    segments: &[usize],
    init: &HyperMatrix<f64>,
) -> Result<HyperMatrix<f64>> {
    segmented_reduce(rows.rows(), rows.cols(), segments, init, |acc, i| {
        let row = rows.row(i).expect("row index in range");
        for (slot, x) in acc.iter_mut().zip(row.iter()) {
            *slot += x.to_f64();
        }
    })
}

/// Shared validation and per-segment reduction skeleton of the
/// `accumulate_by_segment` variants: one assignment per row, matching
/// column counts, in-bounds segment ids; then every accumulator row is
/// reduced in parallel, folding its member rows in ascending index order
/// via `add_row(acc, row_index)`.
fn segmented_reduce<F>(
    rows_count: usize,
    rows_cols: usize,
    segments: &[usize],
    init: &HyperMatrix<f64>,
    add_row: F,
) -> Result<HyperMatrix<f64>>
where
    F: Fn(&mut [f64], usize) + Sync,
{
    if segments.len() != rows_count {
        return Err(HdcError::DimensionMismatch {
            expected: rows_count,
            actual: segments.len(),
            context: "accumulate_by_segment assignments",
        });
    }
    check_cols(init.cols(), rows_cols, "accumulate_by_segment")?;
    if let Some(&bad) = segments.iter().find(|&&s| s >= init.rows()) {
        return Err(HdcError::IndexOutOfBounds {
            index: bad,
            len: init.rows(),
        });
    }
    let out_rows: Vec<HyperVector<f64>> = (0..init.rows())
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|seg| {
            let mut acc: Vec<f64> = init.row(seg).expect("segment bounds checked").to_vec();
            for (i, &s) in segments.iter().enumerate() {
                if s == seg {
                    add_row(&mut acc, i);
                }
            }
            HyperVector::from_vec(acc)
        })
        .collect();
    HyperMatrix::from_rows(out_rows)
}

/// [`accumulate_by_segment`] over bit-packed bipolar rows: each member row
/// contributes `+1`/`-1` per element (a set bit is negative, matching
/// [`crate::BitVector::to_dense`]), unpacked on the fly — no dense
/// intermediate matrix is materialized. Bit-identical to unpacking `rows`
/// and calling the dense form.
///
/// # Errors
///
/// Same contract as [`accumulate_by_segment`].
pub fn accumulate_by_segment_bits(
    rows: &BitMatrix,
    segments: &[usize],
    init: &HyperMatrix<f64>,
) -> Result<HyperMatrix<f64>> {
    let cols = rows.cols();
    let kernels = crate::simd::bit_kernels();
    segmented_reduce(rows.rows(), cols, segments, init, |acc, i| {
        let words = rows.row(i).expect("row index in range").as_words();
        (kernels.add_signs)(&mut acc[..cols], words);
    })
}

/// Per-row top-`k` selection over a score matrix (one row of scores per
/// query), flattened row-major: entry `q * k + j` is the index of query
/// `q`'s `j`-th best (largest) score. This is the batched form of
/// [`crate::ops::arg_top_k`] used by `arg_top_k` on hypermatrix operands —
/// spectral matching scores a whole query batch against a library in one
/// all-pairs similarity call and then selects every row's top matches here.
///
/// Selection per row is exactly [`crate::ops::arg_top_k`] (descending score,
/// ties to the lower index), so the batched result is bit-identical to
/// looping the per-sample kernel. Rows are processed through the rayon
/// compat layer.
///
/// # Errors
///
/// Returns an invalid-input error when `k` is zero or exceeds the number of
/// score columns (a top-k past the candidate count is a program bug, not a
/// clamp).
pub fn arg_top_k_batch<T: Element + TotalOrd>(
    scores: &HyperMatrix<T>,
    k: usize,
) -> Result<Vec<usize>> {
    if k == 0 || k > scores.cols() {
        return Err(HdcError::IndexOutOfBounds {
            index: k,
            len: scores.cols(),
        });
    }
    let rows: Vec<&[T]> = scores.iter_rows().collect();
    let picked: Vec<Vec<usize>> = rows
        .into_par_iter()
        .map(|row| crate::ops::arg_top_k(row, k))
        .collect();
    // arg_top_k skips incomparable (NaN) scores; a short row would make the
    // flattened row-major layout ragged, so reject it explicitly.
    if let Some(short) = picked.iter().find(|p| p.len() < k) {
        return Err(HdcError::IndexOutOfBounds {
            index: k,
            len: short.len(),
        });
    }
    Ok(picked.into_iter().flatten().collect())
}

/// Validate that a shard plan was built for this class-row count.
fn check_shard_plan(plan: &ShardPlan, class_rows: usize) -> Result<()> {
    if plan.rows() != class_rows {
        return Err(HdcError::DimensionMismatch {
            expected: class_rows,
            actual: plan.rows(),
            context: "shard plan class rows",
        });
    }
    Ok(())
}

/// [`hamming_distance_batch`] with the class memory split by `plan`: every
/// `(query row, class shard)` pair is an independent work item. Each
/// distance is the same exact integer popcount regardless of which shard
/// computes it, so the result is identical for any plan.
///
/// # Errors
///
/// As [`hamming_distance_batch`], plus a dimension-mismatch error when
/// `plan` was not built for `classes.rows()` rows.
pub fn hamming_distance_batch_sharded(
    queries: &BitMatrix,
    classes: &BitMatrix,
    perforation: Perforation,
    plan: &ShardPlan,
) -> Result<HyperMatrix<f64>> {
    check_shard_plan(plan, classes.rows())?;
    check_cols(queries.cols(), classes.cols(), "hamming distance batch")?;
    perforation.validate(queries.cols())?;
    let mask = if perforation.is_dense_over(queries.cols()) {
        None
    } else {
        Some(perforation_mask(queries.cols(), perforation))
    };
    // One dispatch-table fetch per batch call; the row loops then run on
    // plain function pointers (scalar oracle or the selected SIMD backend,
    // bit-identical either way).
    let kernels = crate::simd::bit_kernels();
    let query_words: Vec<&[u64]> = queries.iter().map(|r| r.as_words()).collect();
    let class_words: Vec<&[u64]> = classes.iter().map(|r| r.as_words()).collect();
    Ok(fill_scores(query_words.len(), plan, |block, si, tile| {
        for (q, out) in query_words[block].iter().zip(tile.iter_mut()) {
            for (slot, c) in out.iter_mut().zip(plan.ranges()[si].clone()) {
                let count = match &mask {
                    None => (kernels.xor_popcount)(q, class_words[c]),
                    Some(m) => (kernels.xor_popcount_masked)(q, class_words[c], m),
                };
                *slot = count as f64;
            }
        }
    }))
}

/// [`cosine_similarity_batch`] with the class memory split by `plan`.
/// Every `(query, class)` pair keeps its own accumulator chain in ascending
/// element order whichever tile computes it, so the result is bit-identical
/// for any plan.
///
/// # Errors
///
/// As [`cosine_similarity_batch`], plus a dimension-mismatch error when
/// `plan` was not built for `classes.rows()` rows.
pub fn cosine_similarity_batch_sharded<T: Element>(
    queries: &HyperMatrix<T>,
    classes: &HyperMatrix<T>,
    perforation: Perforation,
    plan: &ShardPlan,
) -> Result<HyperMatrix<f64>> {
    cosine_rows(queries, 0..queries.rows(), classes, perforation, plan)
}

/// The cosine kernel over the row block `rows` of `queries`: each tile's
/// query rows are packed into one panel ([`pack_panel`]) and the tile's
/// class rows stream against it through the dispatched panel kernel, at
/// the reduction's stride. Every (query, class) pair sums its products in
/// ascending visited order (a product does not depend on which factor is
/// streamed), so every score is bit-identical to the per-sample kernel, and
/// a perforated reduction costs its visited fraction of the dense one.
fn cosine_rows<T: Element>(
    queries: &HyperMatrix<T>,
    rows: Range<usize>,
    classes: &HyperMatrix<T>,
    perforation: Perforation,
    plan: &ShardPlan,
) -> Result<HyperMatrix<f64>> {
    check_shard_plan(plan, classes.rows())?;
    check_cols(queries.cols(), classes.cols(), "cosine similarity batch")?;
    perforation.validate(queries.cols())?;
    let streamed = StreamedRows::new(classes, perforation);
    let class_rows = streamed.rows();
    let class_norms: Vec<f64> = row_block(classes, 0..classes.rows())?
        .iter()
        .map(|row| perforated_norm(row, perforation))
        .collect();
    let query_rows = row_block(queries, rows)?;
    let kernel = dot_panel_kernel();
    Ok(fill_scores(query_rows.len(), plan, |block, si, tile| {
        let class_range = plan.ranges()[si].clone();
        let panel = pack_panel(&query_rows[block], queries.cols(), perforation);
        let query_norms = panel_norms(&panel);
        let mut dots = vec![[0.0; PANEL_LANES]; class_range.len()];
        kernel(
            &class_rows[class_range.clone()],
            streamed.stride,
            &panel,
            &mut dots,
        );
        for (k, out) in tile.iter_mut().enumerate() {
            for ((slot, lanes), c) in out.iter_mut().zip(&dots).zip(class_range.clone()) {
                *slot = cosine_from_parts(lanes[k], query_norms[k], class_norms[c]);
            }
        }
    }))
}

/// [`perforated_norm`] of each row packed in `panel`: every lane sums its
/// squares in ascending element order, and the lanes' chains overlap where
/// one norm per row would serialize on add latency — a tile's query norms
/// cost one more panel pass, not one per row.
fn panel_norms(panel: &[f64]) -> [f64; PANEL_LANES] {
    let mut acc = [0.0f64; PANEL_LANES];
    for lanes in panel.chunks_exact(PANEL_LANES) {
        for k in 0..PANEL_LANES {
            acc[k] += lanes[k] * lanes[k];
        }
    }
    acc.map(f64::sqrt)
}

/// The dense Hamming kernel over the row block `rows` of `queries`.
fn dense_hamming_rows<T: Element>(
    queries: &HyperMatrix<T>,
    rows: Range<usize>,
    classes: &HyperMatrix<T>,
    perforation: Perforation,
    plan: &ShardPlan,
) -> Result<HyperMatrix<f64>> {
    check_shard_plan(plan, classes.rows())?;
    check_cols(queries.cols(), classes.cols(), "hamming distance batch")?;
    perforation.validate(queries.cols())?;
    let class_rows = row_block(classes, 0..classes.rows())?;
    let query_rows = row_block(queries, rows)?;
    Ok(fill_scores(query_rows.len(), plan, |block, si, tile| {
        for (q, out) in query_rows[block].iter().zip(tile.iter_mut()) {
            for (slot, c) in out.iter_mut().zip(plan.ranges()[si].clone()) {
                *slot = hamming_count_perforated(q, class_rows[c], perforation) as f64;
            }
        }
    }))
}

/// The dense score kernel over one row block: rows `rows` of `train`, read
/// in place, against every row of `classes` (split by `plan`; bit-identical
/// for any plan), producing a `rows.len() x classes.rows()` score matrix
/// whose row `i` is bit-identical to the per-sample reference kernel for
/// `train.row(rows.start + i)`
/// ([`crate::similarity::cosine_similarity_matrix`] /
/// [`crate::similarity::hamming_distance_matrix`]).
///
/// This is what the blocked training schedule calls per block, against the
/// class matrix as it stands at the top of the block — which is what keeps
/// a replay of the perceptron updates against these scores equal to the
/// sequential oracle — and what dense all-pairs scoring calls over
/// `0..train.rows()`.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the column counts differ or
/// `plan` was not built for `classes.rows()` rows, an invalid-perforation
/// error for a bad descriptor, and an index error when `rows` reaches past
/// `train.rows()`.
pub fn score_rows_sharded<T: Element>(
    train: &HyperMatrix<T>,
    rows: Range<usize>,
    classes: &HyperMatrix<T>,
    metric: SimilarityMetric,
    perforation: Perforation,
    plan: &ShardPlan,
) -> Result<HyperMatrix<f64>> {
    match metric {
        SimilarityMetric::Cosine => cosine_rows(train, rows, classes, perforation, plan),
        SimilarityMetric::Hamming => dense_hamming_rows(train, rows, classes, perforation, plan),
    }
}

/// The norm a cosine score divides by: the square root of the squared sum
/// over the elements `perforation` visits, in the per-sample kernel's
/// order. Public so a caller that keeps score rows current while class rows
/// change ([`rescore_columns`]) can cache one norm per class row and
/// refresh it when that row is updated.
pub fn perforated_norm<T: Element>(row: &[T], perforation: Perforation) -> f64 {
    canonical_nan(norm_sq_perforated(row, perforation).sqrt())
}

/// Re-score the entries `columns` of one score row against the live class
/// matrix: `scores[c]` becomes the score of `query` against
/// `classes.row(c)`, computed with the per-pair reference reduction, so the
/// patched row equals what the per-sample reference kernel
/// ([`crate::similarity::cosine_similarity_matrix`] /
/// [`crate::similarity::hamming_distance_matrix`]) returns for `query`
/// wherever `scores` was current outside `columns`.
///
/// `class_norms[c]` must be [`perforated_norm`] of `classes.row(c)` for
/// every patched column; it is read for [`SimilarityMetric::Cosine`] only.
///
/// # Errors
///
/// Returns a dimension-mismatch error when `query` is not one element per
/// class column or `scores` not one entry per class row, an index error
/// for a column outside the class matrix (or outside `class_norms`, for
/// cosine), and an invalid-perforation error for a bad descriptor.
pub fn rescore_columns<T: Element>(
    scores: &mut [f64],
    query: &[T],
    classes: &HyperMatrix<T>,
    class_norms: &[f64],
    columns: &[usize],
    metric: SimilarityMetric,
    perforation: Perforation,
) -> Result<()> {
    check_cols(classes.cols(), query.len(), "rescore columns query")?;
    check_cols(classes.rows(), scores.len(), "rescore columns scores")?;
    perforation.validate(query.len())?;
    match metric {
        SimilarityMetric::Cosine => {
            let qn = perforated_norm(query, perforation);
            for &c in columns {
                let rn = *class_norms.get(c).ok_or(HdcError::IndexOutOfBounds {
                    index: c,
                    len: class_norms.len(),
                })?;
                let dot = dot_perforated(query, classes.row(c)?, perforation);
                scores[c] = cosine_from_parts(dot, qn, rn);
            }
        }
        SimilarityMetric::Hamming => {
            for &c in columns {
                scores[c] = hamming_count_perforated(query, classes.row(c)?, perforation) as f64;
            }
        }
    }
    Ok(())
}

/// Class-memory-sharded form of [`arg_top_k_batch`]: each row's selection
/// runs per shard and merges through the reduction tree
/// ([`crate::shard::merge_top_k`]). Returns the flattened row-major picks
/// plus the total pairwise merge-op count (for `ExecStats` accounting).
/// Bit-identical to [`arg_top_k_batch`], including the short-row rejection:
/// the merged list is shorter than `k` exactly when the whole row has fewer
/// than `k` comparable scores.
///
/// # Errors
///
/// Same contract as [`arg_top_k_batch`] plus the shard-plan check (the
/// plan must cover the score columns, i.e. the class axis).
pub fn arg_top_k_batch_sharded(
    scores: &HyperMatrix<f64>,
    k: usize,
    plan: &ShardPlan,
) -> Result<(Vec<usize>, usize)> {
    check_shard_plan(plan, scores.cols())?;
    if plan.shard_count() <= 1 {
        return Ok((arg_top_k_batch(scores, k)?, 0));
    }
    if k == 0 || k > scores.cols() {
        return Err(HdcError::IndexOutOfBounds {
            index: k,
            len: scores.cols(),
        });
    }
    let rows: Vec<&[f64]> = scores.iter_rows().collect();
    let picked: Vec<crate::shard::Merged<Vec<usize>>> = rows
        .into_par_iter()
        .map(|row| crate::shard::row_arg_top_k_sharded(row, k, plan))
        .collect();
    if let Some(short) = picked.iter().find(|p| p.value.len() < k) {
        return Err(HdcError::IndexOutOfBounds {
            index: k,
            len: short.value.len(),
        });
    }
    let merge_ops = picked.iter().map(|p| p.merge_ops).sum();
    Ok((
        picked.into_iter().flat_map(|p| p.value).collect(),
        merge_ops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::BitVector;
    use crate::random;
    use crate::similarity::{cosine_similarity_matrix, hamming_distance_matrix};
    use crate::HdcRng;
    use rand::SeedableRng;

    fn fixtures(
        rows: usize,
        classes: usize,
        dim: usize,
    ) -> (HyperMatrix<f64>, HyperMatrix<f64>, BitMatrix, BitMatrix) {
        let mut rng = HdcRng::seed_from_u64(0xBA7C);
        let q: HyperMatrix<f64> = random::bipolar_hypermatrix(rows, dim, &mut rng);
        let c: HyperMatrix<f64> = random::bipolar_hypermatrix(classes, dim, &mut rng);
        let qb = BitMatrix::from_dense(&q);
        let cb = BitMatrix::from_dense(&c);
        (q, c, qb, cb)
    }

    /// [`score_rows_sharded`] over every row of `train`, one shard.
    fn score_all(
        train: &HyperMatrix<f64>,
        classes: &HyperMatrix<f64>,
        metric: SimilarityMetric,
        perf: Perforation,
    ) -> Result<HyperMatrix<f64>> {
        let plan = ShardPlan::single(classes.rows());
        score_rows_sharded(train, 0..train.rows(), classes, metric, perf, &plan)
    }

    fn perforations(dim: usize) -> Vec<Perforation> {
        vec![
            Perforation::NONE,
            Perforation::strided(0, dim, 2),
            Perforation::segment(0, dim / 2),
            Perforation::strided(3, dim - 5, 3),
        ]
    }

    #[test]
    fn bit_batch_matches_per_sample_rows() {
        let (q, c, qb, cb) = fixtures(7, 5, 193);
        for perf in perforations(193) {
            let batch = hamming_distance_batch(&qb, &cb, perf).unwrap();
            assert_eq!((batch.rows(), batch.cols()), (7, 5));
            for r in 0..7 {
                let expect = cb.hamming_distances(qb.row(r).unwrap(), perf).unwrap();
                assert_eq!(batch.row(r).unwrap(), expect.as_slice(), "perf {perf}");
                // And the dense definition agrees.
                let dense_expect =
                    hamming_distance_matrix(&q.row_vector(r).unwrap(), &c, perf).unwrap();
                assert_eq!(batch.row(r).unwrap(), dense_expect.as_slice());
            }
        }
    }

    #[test]
    fn cosine_batch_is_bit_identical_to_per_sample() {
        let mut rng = HdcRng::seed_from_u64(0xC055);
        let q: HyperMatrix<f64> = random::gaussian_hypermatrix(6, 97, &mut rng);
        let c: HyperMatrix<f64> = random::gaussian_hypermatrix(4, 97, &mut rng);
        for perf in perforations(97) {
            let batch = cosine_similarity_batch(&q, &c, perf).unwrap();
            for r in 0..6 {
                let expect = cosine_similarity_matrix(&q.row_vector(r).unwrap(), &c, perf).unwrap();
                assert_eq!(
                    batch.row(r).unwrap(),
                    expect.as_slice(),
                    "bit-identical, perf {perf}"
                );
            }
        }
    }

    #[test]
    fn dense_hamming_batch_matches_per_sample() {
        let (q, c, _, _) = fixtures(5, 3, 130);
        for perf in perforations(130) {
            let batch = score_all(&q, &c, SimilarityMetric::Hamming, perf).unwrap();
            for r in 0..5 {
                let expect = hamming_distance_matrix(&q.row_vector(r).unwrap(), &c, perf).unwrap();
                assert_eq!(batch.row(r).unwrap(), expect.as_slice());
            }
        }
    }

    #[test]
    fn zero_norm_rows_score_zero() {
        let q = HyperMatrix::<f64>::zeros(2, 8);
        let c = HyperMatrix::<f64>::from_fn(2, 8, |r, _| r as f64);
        let batch = cosine_similarity_batch(&q, &c, Perforation::NONE).unwrap();
        assert!(batch.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dimension_and_perforation_errors() {
        let a = BitMatrix::zeros(2, 64);
        let b = BitMatrix::zeros(2, 65);
        assert!(hamming_distance_batch(&a, &b, Perforation::NONE).is_err());
        assert!(hamming_distance_batch(&a, &a, Perforation::new(0, 64, 0)).is_err());
        let m = HyperMatrix::<f64>::zeros(2, 8);
        let n = HyperMatrix::<f64>::zeros(2, 9);
        assert!(cosine_similarity_batch(&m, &n, Perforation::NONE).is_err());
        assert!(score_all(&m, &n, SimilarityMetric::Hamming, Perforation::NONE).is_err());
    }

    #[test]
    fn empty_batches_are_legal() {
        let q = BitMatrix::from_rows(Vec::new()).unwrap();
        let c = BitMatrix::from_rows(vec![BitVector::zeros(0)]).unwrap();
        let out = hamming_distance_batch(&q, &c, Perforation::NONE).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn top_k_batch_matches_per_row_selection() {
        let mut rng = HdcRng::seed_from_u64(0x0709);
        let scores: HyperMatrix<f64> = random::gaussian_hypermatrix(9, 23, &mut rng);
        for k in [1, 3, 23] {
            let flat = arg_top_k_batch(&scores, k).unwrap();
            assert_eq!(flat.len(), 9 * k);
            for r in 0..9 {
                let expect = crate::ops::arg_top_k(scores.row(r).unwrap(), k);
                assert_eq!(
                    &flat[r * k..(r + 1) * k],
                    expect.as_slice(),
                    "row {r} k {k}"
                );
            }
        }
        // k = 1 agrees with per-row arg_max.
        let arg_max: Vec<usize> = scores
            .iter_rows()
            .map(|row| crate::ops::arg_max(row).unwrap())
            .collect();
        assert_eq!(arg_top_k_batch(&scores, 1).unwrap(), arg_max);
    }

    #[test]
    fn top_k_batch_rejects_bad_k() {
        let scores = HyperMatrix::<f64>::zeros(2, 4);
        assert!(arg_top_k_batch(&scores, 0).is_err());
        assert!(arg_top_k_batch(&scores, 5).is_err());
    }

    #[test]
    fn whole_range_scores_match_per_sample_reference() {
        let mut rng = HdcRng::seed_from_u64(0xE90C);
        let train: HyperMatrix<f64> = random::gaussian_hypermatrix(9, 130, &mut rng);
        let classes: HyperMatrix<f64> = random::gaussian_hypermatrix(5, 130, &mut rng);
        for perf in perforations(130) {
            let cos = score_all(&train, &classes, SimilarityMetric::Cosine, perf).unwrap();
            let ham = score_all(&train, &classes, SimilarityMetric::Hamming, perf).unwrap();
            for r in 0..9 {
                let q = train.row_vector(r).unwrap();
                let expect_cos = cosine_similarity_matrix(&q, &classes, perf).unwrap();
                let expect_ham = hamming_distance_matrix(&q, &classes, perf).unwrap();
                assert_eq!(cos.row(r).unwrap(), expect_cos.as_slice(), "perf {perf}");
                assert_eq!(ham.row(r).unwrap(), expect_ham.as_slice(), "perf {perf}");
            }
        }
    }

    #[test]
    fn every_query_block_width_matches_per_sample() {
        // 1..=19 query rows leave every count of zero-padded panel lanes,
        // with and without a second tile behind it.
        let mut rng = HdcRng::seed_from_u64(0x71E5);
        let c: HyperMatrix<f64> = random::gaussian_hypermatrix(5, 97, &mut rng);
        for rows in 1..=19 {
            let q: HyperMatrix<f64> = random::gaussian_hypermatrix(rows, 97, &mut rng);
            for perf in perforations(97) {
                let batch = cosine_similarity_batch(&q, &c, perf).unwrap();
                for r in 0..rows {
                    let expect =
                        cosine_similarity_matrix(&q.row_vector(r).unwrap(), &c, perf).unwrap();
                    assert_eq!(batch.row(r).unwrap(), expect.as_slice(), "rows {rows}");
                }
            }
        }
    }

    #[test]
    fn non_f64_rows_are_converted_then_streamed() {
        let q = HyperMatrix::<i32>::from_fn(9, 70, |r, c| ((r * 7 + c * 3) % 11) as i32 - 5);
        let c = HyperMatrix::<i32>::from_fn(6, 70, |r, c| ((r * 5 + c) % 7) as i32 - 3);
        for perf in perforations(70) {
            let batch = cosine_similarity_batch(&q, &c, perf).unwrap();
            for r in 0..9 {
                let expect = cosine_similarity_matrix(&q.row_vector(r).unwrap(), &c, perf).unwrap();
                assert_eq!(batch.row(r).unwrap(), expect.as_slice(), "perf {perf}");
            }
        }
    }

    #[test]
    fn score_rows_is_a_row_block_of_the_whole_range() {
        let mut rng = HdcRng::seed_from_u64(0xB10C);
        let train: HyperMatrix<f64> = random::gaussian_hypermatrix(21, 130, &mut rng);
        let classes: HyperMatrix<f64> = random::gaussian_hypermatrix(9, 130, &mut rng);
        for metric in [SimilarityMetric::Cosine, SimilarityMetric::Hamming] {
            for perf in perforations(130) {
                let whole = score_all(&train, &classes, metric, perf).unwrap();
                for shards in [1, 2, 3] {
                    let plan = ShardPlan::split(9, shards);
                    for rows in [0..21, 3..4, 5..18, 20..21, 7..7] {
                        let block =
                            score_rows_sharded(&train, rows.clone(), &classes, metric, perf, &plan)
                                .unwrap();
                        assert_eq!((block.rows(), block.cols()), (rows.len(), 9));
                        assert_eq!(
                            block.as_slice(),
                            &whole.as_slice()[rows.start * 9..rows.end * 9],
                            "{metric:?} perf {perf} shards {shards} rows {rows:?}"
                        );
                    }
                }
            }
        }
        let plan = ShardPlan::single(9);
        let past_the_end = score_rows_sharded(
            &train,
            18..22,
            &classes,
            SimilarityMetric::Cosine,
            Perforation::NONE,
            &plan,
        );
        assert!(past_the_end.is_err());
    }

    #[test]
    fn rescored_columns_equal_the_reference_against_the_live_matrix() {
        let mut rng = HdcRng::seed_from_u64(0x9A7C);
        let queries: HyperMatrix<f64> = random::gaussian_hypermatrix(4, 130, &mut rng);
        let frozen_classes: HyperMatrix<f64> = random::gaussian_hypermatrix(7, 130, &mut rng);
        let replacement: HyperMatrix<f64> = random::gaussian_hypermatrix(2, 130, &mut rng);
        let dirty = [5usize, 1];
        let mut live = frozen_classes.clone();
        for (&c, row) in dirty.iter().zip(replacement.iter_rows()) {
            live.set_row(c, &HyperVector::from_vec(row.to_vec()))
                .unwrap();
        }
        for perf in perforations(130) {
            let norms: Vec<f64> = live.iter_rows().map(|r| perforated_norm(r, perf)).collect();
            for metric in [SimilarityMetric::Cosine, SimilarityMetric::Hamming] {
                let mut scores = score_all(&queries, &frozen_classes, metric, perf).unwrap();
                for (r, row) in scores.as_mut_slice().chunks_mut(7).enumerate() {
                    let q = queries.row(r).unwrap();
                    rescore_columns(row, q, &live, &norms, &dirty, metric, perf).unwrap();
                    let sample = queries.row_vector(r).unwrap();
                    let expect = match metric {
                        SimilarityMetric::Cosine => cosine_similarity_matrix(&sample, &live, perf),
                        SimilarityMetric::Hamming => hamming_distance_matrix(&sample, &live, perf),
                    }
                    .unwrap();
                    assert_eq!(row, expect.as_slice(), "{metric:?} perf {perf}");
                }
            }
        }
        // Shape and index errors.
        let norms = vec![1.0; 7];
        let q = queries.row(0).unwrap();
        let cos = SimilarityMetric::Cosine;
        let none = Perforation::NONE;
        assert!(rescore_columns(&mut [0.0; 6], q, &live, &norms, &[0], cos, none).is_err());
        assert!(rescore_columns(&mut [0.0; 7], &q[..129], &live, &norms, &[0], cos, none).is_err());
        assert!(rescore_columns(&mut [0.0; 7], q, &live, &norms, &[7], cos, none).is_err());
        assert!(rescore_columns(&mut [0.0; 7], q, &live, &norms[..3], &[4], cos, none).is_err());
    }

    #[test]
    fn segmented_accumulation_matches_sequential_order() {
        let mut rng = HdcRng::seed_from_u64(0x5E69);
        let rows: HyperMatrix<f64> = random::gaussian_hypermatrix(11, 37, &mut rng);
        let init: HyperMatrix<f64> = random::gaussian_hypermatrix(3, 37, &mut rng);
        let segments = [0usize, 2, 1, 0, 0, 1, 2, 2, 2, 0, 1];
        let batched = accumulate_by_segment(&rows, &segments, &init).unwrap();
        // Sequential reference: accumulate in sample order.
        let mut expect = init.clone();
        for (i, &s) in segments.iter().enumerate() {
            let sum = expect
                .row_vector(s)
                .unwrap()
                .zip_with(&rows.row_vector(i).unwrap(), |a, x| a + x)
                .unwrap();
            expect.set_row(s, &sum).unwrap();
        }
        assert_eq!(batched.as_slice(), expect.as_slice(), "bit-identical");
        // Empty segments keep their initial row untouched.
        let none = accumulate_by_segment(&rows, &[0; 11], &init).unwrap();
        assert_eq!(none.row(1).unwrap(), init.row(1).unwrap());
        assert_eq!(none.row(2).unwrap(), init.row(2).unwrap());
    }

    #[test]
    fn segmented_accumulation_rejects_bad_shapes() {
        let rows = HyperMatrix::<f64>::zeros(4, 8);
        let init = HyperMatrix::<f64>::zeros(2, 8);
        assert!(accumulate_by_segment(&rows, &[0, 1, 0], &init).is_err());
        assert!(accumulate_by_segment(&rows, &[0, 1, 0, 2], &init).is_err());
        let wide = HyperMatrix::<f64>::zeros(2, 9);
        assert!(accumulate_by_segment(&rows, &[0, 1, 0, 1], &wide).is_err());
        assert!(accumulate_by_segment(&rows, &[0, 1, 0, 1], &init).is_ok());
    }

    #[test]
    fn sharded_kernels_are_bit_identical_to_unsharded() {
        let mut rng = HdcRng::seed_from_u64(0x5AAD);
        let (q, c, qb, cb) = fixtures(5, 19, 193);
        let qg: HyperMatrix<f64> = random::gaussian_hypermatrix(5, 193, &mut rng);
        let cg: HyperMatrix<f64> = random::gaussian_hypermatrix(19, 193, &mut rng);
        for shards in [1, 2, 3, 7, 16] {
            let plan = ShardPlan::split(19, shards);
            for perf in perforations(193) {
                let bit = hamming_distance_batch(&qb, &cb, perf).unwrap();
                let bit_sharded = hamming_distance_batch_sharded(&qb, &cb, perf, &plan).unwrap();
                assert_eq!(bit.as_slice(), bit_sharded.as_slice(), "bit {shards}");
                let cos = cosine_similarity_batch(&qg, &cg, perf).unwrap();
                let cos_sharded = cosine_similarity_batch_sharded(&qg, &cg, perf, &plan).unwrap();
                assert_eq!(cos.as_slice(), cos_sharded.as_slice(), "cosine {shards}");
                let hamming = SimilarityMetric::Hamming;
                let ham = score_all(&q, &c, hamming, perf).unwrap();
                let ham_sharded = score_rows_sharded(&q, 0..5, &c, hamming, perf, &plan).unwrap();
                assert_eq!(ham.as_slice(), ham_sharded.as_slice(), "dense {shards}");
                for metric in [SimilarityMetric::Cosine, hamming] {
                    let epoch = score_all(&qg, &cg, metric, perf).unwrap();
                    let epoch_sharded =
                        score_rows_sharded(&qg, 0..5, &cg, metric, perf, &plan).unwrap();
                    assert_eq!(epoch.as_slice(), epoch_sharded.as_slice(), "epoch {shards}");
                }
            }
        }
    }

    #[test]
    fn sharded_top_k_matches_unsharded_and_counts_merges() {
        let mut rng = HdcRng::seed_from_u64(0x70FF);
        let scores: HyperMatrix<f64> = random::gaussian_hypermatrix(6, 23, &mut rng);
        for shards in [1, 2, 3, 7, 16] {
            let plan = ShardPlan::split(23, shards);
            for k in [1, 4, 23] {
                let (flat, merges) = arg_top_k_batch_sharded(&scores, k, &plan).unwrap();
                assert_eq!(
                    flat,
                    arg_top_k_batch(&scores, k).unwrap(),
                    "shards {shards}"
                );
                if plan.shard_count() > 1 {
                    assert_eq!(merges, 6 * (plan.shard_count() - 1), "tree merges per row");
                } else {
                    assert_eq!(merges, 0);
                }
            }
        }
        // NaN-short rows are rejected identically to the unsharded batch.
        let mut with_nan = scores.clone();
        let mut row: Vec<f64> = with_nan.row(2).unwrap().to_vec();
        for x in row.iter_mut() {
            *x = f64::NAN;
        }
        with_nan.set_row(2, &HyperVector::from_vec(row)).unwrap();
        let plan = ShardPlan::split(23, 7);
        assert!(arg_top_k_batch(&with_nan, 2).is_err());
        assert!(arg_top_k_batch_sharded(&with_nan, 2, &plan).is_err());
    }

    #[test]
    fn sharded_kernels_reject_mismatched_plans() {
        let (_, _, qb, cb) = fixtures(2, 5, 64);
        let wrong = ShardPlan::split(6, 2);
        assert!(hamming_distance_batch_sharded(&qb, &cb, Perforation::NONE, &wrong).is_err());
        let m = HyperMatrix::<f64>::zeros(2, 8);
        assert!(cosine_similarity_batch_sharded(&m, &m, Perforation::NONE, &wrong).is_err());
        let hamming = SimilarityMetric::Hamming;
        assert!(score_rows_sharded(&m, 0..2, &m, hamming, Perforation::NONE, &wrong).is_err());
        assert!(arg_top_k_batch_sharded(&m, 1, &wrong).is_err());
    }

    #[test]
    fn mask_covers_word_boundaries() {
        // A perforation whose segment straddles the 64-bit word boundary.
        let dim = 130;
        let (_, _, qb, cb) = fixtures(3, 3, dim);
        let perf = Perforation::segment(60, 70);
        let batch = hamming_distance_batch(&qb, &cb, perf).unwrap();
        for r in 0..3 {
            let expect = cb.hamming_distances(qb.row(r).unwrap(), perf).unwrap();
            assert_eq!(batch.row(r).unwrap(), expect.as_slice());
        }
    }
}
