//! Matrix multiplication primitives (`matmul`) with perforation support.
//!
//! `matmul` is the workhorse of random-projection encoding: a feature vector
//! of length `F` multiplied by an `D x F` projection matrix yields a
//! `D`-dimensional encoded hypervector. Following the paper, perforated
//! matmul results *are* rescaled by the fraction of visited elements
//! (unlike the similarity metrics), because their absolute magnitude matters
//! to downstream operations.

use crate::batch::{pack_panel, StreamedRows};
use crate::element::Element;
use crate::error::{HdcError, Result};
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::perforation::Perforation;
use crate::simd::{dot_panel_kernel, PANEL_LANES};
use rayon::prelude::*;

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
/// fraction.
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
    let scale = 1.0 / perforation.visited_fraction(matrix.cols().max(1));
    let v = vector.as_slice();
    let dense = perforation.is_dense_over(matrix.cols());
    let out: Vec<T> = matrix
        .iter_rows()
        .map(|row| {
            let acc: f64 = if dense {
                row.iter()
                    .zip(v.iter())
                    .map(|(m, x)| m.to_f64() * x.to_f64())
                    .sum()
            } else {
                perforation
                    .indices(row.len())
                    .map(|i| row[i].to_f64() * v[i].to_f64())
                    .sum()
            };
            T::from_f64(acc * if dense { 1.0 } else { scale })
        })
        .collect();
    Ok(HyperVector::from_vec(out))
}

/// Query panels ([`pack_panel`]) one [`matmul_batch`] work item encodes at
/// most: each tile of projection rows is read from memory once per work
/// item and scored against all of its panels while it is cache-resident.
const MAX_ITEM_PANELS: usize = 8;

/// Projection rows streamed against a work item's panels per tile.
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
/// in ascending order, so each output row is bit-identical to [`matvec`]
/// on that query.
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
    let raw_scale = 1.0 / perforation.visited_fraction(matrix.cols().max(1));
    let dense = perforation.is_dense_over(matrix.cols());
    // `acc * 1.0` is exact, so one unconditional multiply keeps the dense
    // path bit-identical to the unscaled form.
    let scale = if dense { 1.0 } else { raw_scale };
    let (n, d) = (queries.rows(), matrix.rows());
    let streamed = StreamedRows::new(matrix, perforation);
    let projection = streamed.rows();
    let kernel = dot_panel_kernel();
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
                    .map(|block| pack_panel(block, matrix.cols(), perforation))
                    .collect();
                let mut dots = [[0.0; PANEL_LANES]; ROW_TILE];
                for (t, tile) in projection.chunks(ROW_TILE).enumerate() {
                    let dots = &mut dots[..tile.len()];
                    for (panel, panel_out) in panels.iter().zip(out.chunks_mut(PANEL_LANES * d)) {
                        kernel(tile, streamed.stride, panel, dots);
                        for (k, out_row) in panel_out.chunks_mut(d).enumerate() {
                            let slots = &mut out_row[t * ROW_TILE..];
                            for (slot, lanes) in slots.iter_mut().zip(dots.iter()) {
                                *slot = T::from_f64(lanes[k] * scale);
                            }
                        }
                    }
                }
            })
            .collect::<()>();
    }
    HyperMatrix::from_flat(n, d, data)
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
    let sum_sq: f64 = perforation
        .indices(vector.dimension())
        .map(|i| {
            let v = vector.as_slice()[i].to_f64();
            v * v
        })
        .sum();
    Ok((sum_sq * scale).sqrt())
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
