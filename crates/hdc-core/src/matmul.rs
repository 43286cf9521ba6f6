//! Matrix multiplication primitives (`matmul`) with perforation support.
//!
//! `matmul` is the workhorse of random-projection encoding: a feature vector
//! of length `F` multiplied by an `D x F` projection matrix yields a
//! `D`-dimensional encoded hypervector. Following the paper, perforated
//! matmul results *are* rescaled by the fraction of visited elements
//! (unlike the similarity metrics), because their absolute magnitude matters
//! to downstream operations.

use crate::batch::{pack_panel, StreamedRows};
use crate::binary::{BitMatrix, BitVector};
use crate::element::{canonical_nan, Element};
use crate::error::{HdcError, Result};
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::perforation::Perforation;
use crate::simd::{dot_panel_kernel, sign_dots_kernel, signed_dot_panel_kernel, DotPanel};
use crate::simd::{FUSED_ROWS, PANEL_LANES, SIGN_ROWS};
use rayon::prelude::*;
use std::borrow::Cow;

fn check(expected: usize, actual: usize, context: &'static str) -> Result<()> {
    if expected != actual {
        return Err(HdcError::DimensionMismatch {
            expected,
            actual,
            context,
        });
    }
    Ok(())
}

/// Multiply a hypervector by the transpose of a projection hypermatrix:
/// `out[r] = sum_c vector[c] * matrix[r][c]`.
///
/// The projection matrix is `out_dim x in_dim` (each row is one output
/// element's weight vector), matching Listing 1 where a `617`-feature input
/// and a `2048 x 617` matrix produce a `2048`-dimensional encoding.
///
/// When `perforation` restricts the reduction, only the selected input
/// elements are accumulated and the result is divided by the visited
/// fraction. A NaN output is stored as the canonical [`f64::NAN`].
///
/// # Errors
///
/// Returns a dimension-mismatch error if `vector.dimension() != matrix.cols()`
/// or an invalid-perforation error for a bad descriptor.
pub fn matvec<T: Element>(
    matrix: &HyperMatrix<T>,
    vector: &HyperVector<T>,
    perforation: Perforation,
) -> Result<HyperVector<T>> {
    check(
        matrix.cols(),
        vector.dimension(),
        "matmul (matrix x vector)",
    )?;
    perforation.validate(matrix.cols().max(1))?;
    let scale = perforation_scale(matrix.cols(), perforation);
    let v = vector.as_slice();
    let dense = perforation.is_dense_over(matrix.cols());
    // Every chain starts from `+0.0`, as the panel kernels' do
    // (`Iterator::sum` on floats starts from `-0.0`).
    let out: Vec<T> = (0..matrix.rows())
        .map(|r| {
            let row = matrix.row(r).expect("row in range");
            let acc = if dense {
                row.iter()
                    .zip(v.iter())
                    .fold(0.0, |acc, (m, x)| acc + m.to_f64() * x.to_f64())
            } else {
                perforation
                    .indices(row.len())
                    .fold(0.0, |acc, i| acc + row[i].to_f64() * v[i].to_f64())
            };
            T::from_f64(canonical_nan(acc * scale))
        })
        .collect();
    Ok(HyperVector::from_vec(out))
}

/// `1.0`, or `-1.0` when the low bit of `bits` is set.
fn sign_of(bits: u64) -> f64 {
    f64::from_bits(1.0f64.to_bits() | bits << 63)
}

/// Output rows [`matvec_signs`] walks side by side: independent chains
/// keep the adder busy, where one chain would wait on its own latency.
const MATVEC_SIGN_ROWS: usize = 4;

/// [`matvec`] against a ±1 projection held as sign bits: `out[r] = sum_c
/// vector[c] * (±1.0)`, bit `c` of row `r` set meaning `-1.0`.
///
/// This is the per-sample oracle of [`matmul_signs`], with [`matvec`]'s
/// arithmetic: one chain per output from `+0.0`, each visited feature
/// multiplied by its sign and then added, in ascending order. So it is
/// bit-identical to [`matvec`] on `signs.to_dense()`, a NaN output being
/// the canonical [`f64::NAN`] on both. It walks 4 output rows' chains side
/// by side, which makes it faster than [`matvec`].
///
/// # Errors
///
/// Returns a dimension-mismatch error if `vector.dimension() != signs.cols()`
/// or an invalid-perforation error for a bad descriptor.
pub fn matvec_signs<T: Element>(
    signs: &BitMatrix,
    vector: &HyperVector<T>,
    perforation: Perforation,
) -> Result<HyperVector<T>> {
    check(signs.cols(), vector.dimension(), "matmul (signs x vector)")?;
    perforation.validate(signs.cols().max(1))?;
    let scale = perforation_scale(signs.cols(), perforation);
    let v = vector.as_slice();
    let dense = perforation.is_dense_over(v.len());
    let rows: Vec<&[u64]> = signs.iter().map(BitVector::as_words).collect();
    let mut out = Vec::with_capacity(rows.len());
    for block in rows.chunks(MATVEC_SIGN_ROWS) {
        // A short last block repeats its last row; those chains are dropped.
        let block: [&[u64]; MATVEC_SIGN_ROWS] =
            std::array::from_fn(|k| block[k.min(block.len() - 1)]);
        let mut acc = [0.0f64; MATVEC_SIGN_ROWS];
        if dense {
            for (w, xs) in v.chunks(64).enumerate() {
                // Each row's next sign is the low bit of its shifted word.
                let mut words = block.map(|row| row[w]);
                for x in xs {
                    let x = x.to_f64();
                    for (chain, word) in acc.iter_mut().zip(words.iter_mut()) {
                        *chain += sign_of(*word) * x;
                        *word >>= 1;
                    }
                }
            }
        } else {
            for c in perforation.indices(v.len()) {
                let x = v[c].to_f64();
                for (chain, row) in acc.iter_mut().zip(block) {
                    *chain += sign_of(row[c / 64] >> (c % 64)) * x;
                }
            }
        }
        out.extend(acc.iter().map(|a| T::from_f64(canonical_nan(a * scale))));
    }
    out.truncate(rows.len());
    Ok(HyperVector::from_vec(out))
}

/// The factor a reduction's sums are multiplied by: one over the visited
/// fraction when perforated, and `1.0` when dense — `acc * 1.0` is exact,
/// so one unconditional multiply keeps the dense path bit-identical to the
/// unscaled form.
fn perforation_scale(cols: usize, perforation: Perforation) -> f64 {
    if perforation.is_dense_over(cols) {
        1.0
    } else {
        1.0 / perforation.visited_fraction(cols.max(1))
    }
}

/// Query rows up to which [`matmul_signs`] runs its sign-bit leg, which
/// puts lanes across output dims and reads the projection as bits; from
/// one full 8-row panel on, it streams the ±1 expansion through the fused
/// panel leg instead. Measured on a 2048 x 617 projection: see
/// `docs/serving.md`.
pub const SIGN_ENCODE_MAX_ROWS: usize = 7;

/// Whether [`matmul_signs`] encodes a batch of `rows` query rows on its
/// fused panel leg (more than [`SIGN_ENCODE_MAX_ROWS`] rows) rather than
/// on its sign-bit leg.
pub fn sign_encode_is_fused(rows: usize) -> bool {
    rows > SIGN_ENCODE_MAX_ROWS
}

/// [`matmul_batch`] against a ±1 projection held as sign bits:
/// `out[q][r] = sum_c queries[q][c] * (±1.0)`, bit `c` of row `r` set
/// meaning `-1.0`.
///
/// It has two legs, picked by [`sign_encode_is_fused`]:
///
/// * Up to [`SIGN_ENCODE_MAX_ROWS`] rows, lanes run across 8 output dims,
///   so one query row fills every lane, and the projection is read as 1
///   bit per entry instead of 64. The query rows share each feature's
///   lane mask.
/// * From 8 rows on, a full panel fills the lanes, and the projection's
///   ±1 `f64` matrix ([`BitMatrix::expansion`], or else
///   [`BitMatrix::to_dense`]) streams against the query panels
///   as in [`matmul_batch`], through a panel kernel that may fuse each
///   multiply-add: `x·(±1.0)` is exact, so `fma` rounds as `*` then `+`.
///
/// Every output is one chain from `+0.0` of `x·(±1.0)` then `+`, in
/// ascending feature order — the operations [`matmul_batch`] runs on
/// `signs.to_dense()` — and a NaN output is stored as the canonical
/// [`f64::NAN`], whichever payload its chain kept. So the two are
/// bit-identical on every backend, and each row equals [`matvec_signs`].
///
/// # Errors
///
/// Returns a dimension-mismatch error if `queries.cols() != signs.cols()`
/// or an invalid-perforation error for a bad descriptor.
pub fn matmul_signs<T: Element>(
    queries: &HyperMatrix<T>,
    signs: &BitMatrix,
    perforation: Perforation,
) -> Result<HyperMatrix<T>> {
    check(signs.cols(), queries.cols(), "matmul (signs batch)")?;
    perforation.validate(signs.cols().max(1))?;
    let scale = perforation_scale(signs.cols(), perforation);
    let (n, d) = (queries.rows(), signs.rows());
    let data = if sign_encode_is_fused(n) {
        let expanded = expanded(signs);
        let streamed = StreamedRows::new(&expanded, perforation);
        let kernel = signed_dot_panel_kernel();
        encode_panels::<T, FUSED_ROWS>(queries, &streamed, perforation, kernel, scale, d)
    } else {
        sign_dots_encode(queries, signs, perforation, scale)
    };
    HyperMatrix::from_flat(n, d, data)
}

/// The ±1 `f64` matrix `signs` stands for: the one
/// [`BitMatrix::from_bipolar`] kept, or else unpacked for this call.
fn expanded(signs: &BitMatrix) -> Cow<'_, HyperMatrix<f64>> {
    match signs.expansion() {
        Some(kept) => Cow::Borrowed(kept.as_ref()),
        None => Cow::Owned(signs.to_dense()),
    }
}

/// The sign-bit leg of [`matmul_signs`]: [`SIGN_ROWS`] query rows per
/// work item, each item one `SignDots` call over the whole bit matrix.
fn sign_dots_encode<T: Element>(
    queries: &HyperMatrix<T>,
    signs: &BitMatrix,
    perforation: Perforation,
    scale: f64,
) -> Vec<T> {
    let (n, d, cols) = (queries.rows(), signs.rows(), signs.cols());
    let span = perforation.begin.min(cols)..perforation.end_clamped(cols);
    let rows: Vec<&[u64]> = signs.iter().map(BitVector::as_words).collect();
    let flat = queries.as_slice();
    let flat: Cow<'_, [f64]> = match T::as_f64_slice(flat) {
        Some(in_place) => in_place.into(),
        None => flat.iter().map(|x| x.to_f64()).collect::<Vec<_>>().into(),
    };
    let kernel = sign_dots_kernel();
    let mut data = vec![T::from_f64(0.0); n * d];
    if d > 0 {
        let items: Vec<(usize, &mut [T])> = data.chunks_mut(SIGN_ROWS * d).enumerate().collect();
        items
            .into_par_iter()
            .map(|(item, out)| {
                let first = item * SIGN_ROWS;
                let qrows: Vec<&[f64]> = (first..first + out.len() / d)
                    .map(|i| &flat[i * cols..(i + 1) * cols])
                    .collect();
                let mut dots = vec![0.0; out.len()];
                kernel(&rows, span.clone(), perforation.stride, &qrows, &mut dots);
                for (slot, dot) in out.iter_mut().zip(dots) {
                    *slot = T::from_f64(canonical_nan(dot * scale));
                }
            })
            .collect::<()>();
    }
    data
}

/// Query panels ([`pack_panel`]) one [`matmul_batch`] work item encodes at
/// most: each tile of projection rows is read from memory once per work
/// item and scored against all of its panels while it is cache-resident.
const MAX_ITEM_PANELS: usize = 8;

/// Projection rows [`matmul_batch`] streams against a work item's panels
/// per tile.
const ROW_TILE: usize = 8;

/// Query rows per [`matmul_batch`] work item: [`MAX_ITEM_PANELS`] panels,
/// or fewer when that would leave a worker thread without an item (a
/// 64-row serve window still splits across the pool).
fn item_rows(queries: usize) -> usize {
    let panels = queries.div_ceil(PANEL_LANES);
    let per_item = panels
        .div_ceil(rayon::current_num_threads())
        .clamp(1, MAX_ITEM_PANELS);
    per_item * PANEL_LANES
}

/// Multiply a batch of row vectors by the transpose of a projection matrix:
/// `out[q][r] = sum_c queries[q][c] * matrix[r][c]`.
///
/// This is the batched form used by `encoding_loop`: a `N x F` query matrix
/// and a `D x F` projection matrix produce an `N x D` encoded matrix.
/// Queries are packed eight at a time into column-major panels, a few
/// panels per work item of the rayon compat layer, and the projection rows
/// stream against them through the dispatched panel kernel, a tile at a
/// time, at the reduction's stride. Each work item writes its own rows of
/// one preallocated output. Every output element sums its visited features
/// in ascending order, and a NaN output is the canonical [`f64::NAN`], so
/// each output row is bit-identical to [`matvec`] on that query.
///
/// # Errors
///
/// Returns a dimension-mismatch error if `queries.cols() != matrix.cols()`.
pub fn matmul_batch<T: Element>(
    queries: &HyperMatrix<T>,
    matrix: &HyperMatrix<T>,
    perforation: Perforation,
) -> Result<HyperMatrix<T>> {
    check(matrix.cols(), queries.cols(), "matmul (batch)")?;
    perforation.validate(matrix.cols().max(1))?;
    let scale = perforation_scale(matrix.cols(), perforation);
    let (n, d) = (queries.rows(), matrix.rows());
    let streamed = StreamedRows::new(matrix, perforation);
    let kernel = dot_panel_kernel();
    let data = encode_panels::<T, ROW_TILE>(queries, &streamed, perforation, kernel, scale, d);
    HyperMatrix::from_flat(n, d, data)
}

/// The panel schedule of [`matmul_batch`] and the fused leg of
/// [`matmul_signs`]: the `d` projection rows of `streamed` run through
/// `kernel`, `TILE` rows at a time, against each work item's query panels;
/// returns the `queries.rows() x d` output, row-major, every dot product
/// multiplied by `scale`.
fn encode_panels<T: Element, const TILE: usize>(
    queries: &HyperMatrix<T>,
    streamed: &StreamedRows<'_>,
    perforation: Perforation,
    kernel: DotPanel,
    scale: f64,
    d: usize,
) -> Vec<T> {
    let n = queries.rows();
    let projection = streamed.rows();
    let rows_per_item = item_rows(n);
    let mut data = vec![T::from_f64(0.0); n * d];
    if d > 0 {
        let items: Vec<(usize, &mut [T])> =
            data.chunks_mut(rows_per_item * d).enumerate().collect();
        items
            .into_par_iter()
            .map(|(item, out)| {
                let first = item * rows_per_item;
                let qrows: Vec<&[T]> = (first..first + out.len() / d)
                    .map(|i| queries.row(i).expect("query row in range"))
                    .collect();
                let panels: Vec<Vec<f64>> = qrows
                    .chunks(PANEL_LANES)
                    .map(|block| pack_panel(block, queries.cols(), perforation))
                    .collect();
                let mut dots = [[0.0; PANEL_LANES]; TILE];
                for (t, tile) in projection.chunks(TILE).enumerate() {
                    let dots = &mut dots[..tile.len()];
                    for (panel, panel_out) in panels.iter().zip(out.chunks_mut(PANEL_LANES * d)) {
                        kernel(tile, streamed.stride, panel, dots);
                        for (k, out_row) in panel_out.chunks_mut(d).enumerate() {
                            let slots = &mut out_row[t * TILE..];
                            for (slot, lanes) in slots.iter_mut().zip(dots.iter()) {
                                *slot = T::from_f64(canonical_nan(lanes[k] * scale));
                            }
                        }
                    }
                }
            })
            .collect::<()>();
    }
    data
}

/// Perforated L2 norm of a hypervector, rescaled by the visited fraction as
/// the paper specifies for `l2norm`.
///
/// # Errors
///
/// Returns an invalid-perforation error for a bad descriptor.
pub fn l2norm_perforated<T: Element>(
    vector: &HyperVector<T>,
    perforation: Perforation,
) -> Result<f64> {
    perforation.validate(vector.dimension().max(1))?;
    if perforation.is_dense_over(vector.dimension()) {
        return Ok(vector.l2norm());
    }
    let scale = 1.0 / perforation.visited_fraction(vector.dimension().max(1));
    let sum_sq = perforation.indices(vector.dimension()).fold(0.0, |acc, i| {
        let v = vector.as_slice()[i].to_f64();
        acc + v * v
    });
    Ok(canonical_nan((sum_sq * scale).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_manual() {
        // 2x3 matrix times length-3 vector
        let m = HyperMatrix::from_flat(2, 3, vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = HyperVector::from_vec(vec![1.0f32, 0.0, -1.0]);
        let out = matvec(&m, &v, Perforation::NONE).unwrap();
        assert_eq!(out.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_dimension_mismatch() {
        let m = HyperMatrix::<f32>::zeros(2, 3);
        let v = HyperVector::<f32>::zeros(4);
        assert!(matvec(&m, &v, Perforation::NONE).is_err());
    }

    #[test]
    fn matmul_batch_matches_per_row_matvec() {
        let m = HyperMatrix::<f32>::from_fn(8, 5, |r, c| (r * 5 + c) as f32 * 0.1);
        let q = HyperMatrix::<f32>::from_fn(3, 5, |r, c| (r + c) as f32);
        let batch = matmul_batch(&q, &m, Perforation::NONE).unwrap();
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.cols(), 8);
        for i in 0..3 {
            let single = matvec(&m, &q.row_vector(i).unwrap(), Perforation::NONE).unwrap();
            for j in 0..8 {
                assert!((batch.get(i, j).unwrap() - single.get(j).unwrap()).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn zero_query_batch_keeps_the_projection_width() {
        let m = HyperMatrix::<f64>::from_fn(5, 6, |r, c| (r * 6 + c) as f64);
        let empty = HyperMatrix::<f64>::zeros(0, 6);
        for perf in [Perforation::NONE, Perforation::strided(1, 6, 2)] {
            let out = matmul_batch(&empty, &m, perf).unwrap();
            assert_eq!((out.rows(), out.cols()), (0, m.rows()), "perf {perf}");
        }
    }

    #[test]
    fn perforated_matmul_is_rescaled() {
        // Constant vectors: perforated + rescaled result should equal the dense result.
        let m = HyperMatrix::from_flat(1, 8, vec![2.0f32; 8]).unwrap();
        let v = HyperVector::from_vec(vec![3.0f32; 8]);
        let dense = matvec(&m, &v, Perforation::NONE).unwrap();
        let strided = matvec(&m, &v, Perforation::strided(0, 8, 2)).unwrap();
        assert_eq!(dense.get(0).unwrap(), 48.0);
        assert_eq!(
            strided.get(0).unwrap(),
            48.0,
            "rescaling restores magnitude"
        );
        let seg = matvec(&m, &v, Perforation::segment(0, 4)).unwrap();
        assert_eq!(seg.get(0).unwrap(), 48.0);
    }

    #[test]
    fn perforated_l2norm_is_rescaled() {
        let v = HyperVector::from_vec(vec![2.0f32; 16]);
        let dense = l2norm_perforated(&v, Perforation::NONE).unwrap();
        let strided = l2norm_perforated(&v, Perforation::strided(0, 16, 4)).unwrap();
        assert!((dense - 8.0).abs() < 1e-9);
        assert!((strided - 8.0).abs() < 1e-9);
    }

    #[test]
    fn integer_matmul_saturates_not_wraps() {
        let m = HyperMatrix::from_flat(1, 2, vec![100i8, 100]).unwrap();
        let v = HyperVector::from_vec(vec![100i8, 100]);
        let out = matvec(&m, &v, Perforation::NONE).unwrap();
        assert_eq!(out.get(0).unwrap(), i8::MAX);
    }

    #[test]
    fn invalid_perforation_rejected() {
        let m = HyperMatrix::<f32>::zeros(2, 4);
        let v = HyperVector::<f32>::zeros(4);
        assert!(matvec(&m, &v, Perforation::new(0, 4, 0)).is_err());
        assert!(l2norm_perforated(&v, Perforation::new(9, 10, 1)).is_err());
    }
}
