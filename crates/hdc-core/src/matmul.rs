//! Matrix multiplication primitives (`matmul`) with perforation support.
//!
//! `matmul` is the workhorse of random-projection encoding: a feature vector
//! of length `F` multiplied by an `D x F` projection matrix yields a
//! `D`-dimensional encoded hypervector. Following the paper, perforated
//! matmul results *are* rescaled by the fraction of visited elements
//! (unlike the similarity metrics), because their absolute magnitude matters
//! to downstream operations.

use crate::element::Element;
use crate::error::{HdcError, Result};
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::perforation::Perforation;
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

/// Query rows processed together by one [`matmul_batch`] block: each keeps
/// its own `f64` accumulator, so the inner loop runs `MATMUL_QUERY_BLOCK`
/// independent multiply-add chains (instruction-level parallelism a single
/// dependent chain cannot reach) and streams every projection row once per
/// block instead of once per query.
const MATMUL_QUERY_BLOCK: usize = 8;

/// Dot products of one streamed row against a block packed by
/// [`crate::batch::pack_panel`] over every column, walking the element axis
/// once — the micro-kernel of the blocked [`matmul_batch`]. `B` is a
/// compile-time width so the lane loop unrolls into SIMD-friendly
/// contiguous reads; each accumulator sums in ascending element order,
/// bit-identical to the per-sample kernel on that pair.
fn dot_panel<T: Element, const B: usize>(
    q: &[T],
    panel: &[f64],
    dense: bool,
    perforation: Perforation,
) -> [f64; B] {
    let mut acc = [0.0f64; B];
    if dense {
        // `f64` rows go straight to the dispatched panel kernel (SIMD when
        // selected); the generic path below is the same loop with a
        // per-element `to_f64`. Both keep `B` independent accumulator
        // chains in ascending element order, so outputs are bit-identical.
        if let Some(qf) = T::as_f64_slice(q) {
            return crate::simd::dot_panel_dense::<B>(qf, 1, panel);
        }
        for (lanes, x) in panel.chunks_exact(B).zip(q.iter()) {
            let qv = x.to_f64();
            for k in 0..B {
                acc[k] += qv * lanes[k];
            }
        }
    } else {
        for i in perforation.indices(q.len()) {
            let qv = q[i].to_f64();
            let lanes = &panel[i * B..i * B + B];
            for k in 0..B {
                acc[k] += qv * lanes[k];
            }
        }
    }
    acc
}

/// One block of query rows against the whole projection matrix. `B` is a
/// compile-time block width: the block is packed into a column-major `f64`
/// panel ([`crate::batch::pack_panel`]) and each projection row takes one
/// [`dot_panel`] pass over it — the GEMM micro-kernel layout
/// the vectorizer turns into SIMD lanes. Each accumulator still sums the
/// feature axis in ascending order, which keeps every output element
/// bit-identical to the per-sample [`matvec`].
fn matmul_block<T: Element, const B: usize>(
    qrows: &[&[T]],
    matrix: &HyperMatrix<T>,
    dense: bool,
    scale: f64,
    perforation: Perforation,
) -> Vec<Vec<T>> {
    debug_assert_eq!(qrows.len(), B);
    let d = matrix.rows();
    let cols = matrix.cols();
    let panel = crate::batch::pack_panel(qrows, cols, Perforation::NONE);
    let mut out: Vec<Vec<T>> = (0..B).map(|_| Vec::with_capacity(d)).collect();
    for r in 0..d {
        let row = &matrix.row(r).expect("projection row in range")[..cols];
        let acc = dot_panel::<T, B>(row, &panel, dense, perforation);
        for k in 0..B {
            out[k].push(T::from_f64(acc[k] * scale));
        }
    }
    out
}

/// Multiply a batch of row vectors by the transpose of a projection matrix:
/// `out[q][r] = sum_c queries[q][c] * matrix[r][c]`.
///
/// This is the batched form used by `encoding_loop`: a `N x F` query matrix
/// and a `D x F` projection matrix produce an `N x D` encoded matrix.
/// Queries are processed in blocks of `MATMUL_QUERY_BLOCK` (independent
/// accumulator chains, one projection pass per block) and blocks run
/// through the rayon compat layer; every accumulation still walks the
/// feature axis in ascending order, so each output row is bit-identical to
/// [`matvec`] on that query.
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
    let n = queries.rows();
    let starts: Vec<usize> = (0..n).step_by(MATMUL_QUERY_BLOCK).collect();
    let blocks: Vec<Vec<Vec<T>>> = starts
        .into_par_iter()
        .map(|start| {
            let end = (start + MATMUL_QUERY_BLOCK).min(n);
            let qrows: Vec<&[T]> = (start..end)
                .map(|i| queries.row(i).expect("query row in range"))
                .collect();
            // Decompose a short tail block into power-of-two sub-blocks so
            // the unrolled kernels cover every width.
            let mut out: Vec<Vec<T>> = Vec::with_capacity(qrows.len());
            let mut off = 0;
            for width in [8usize, 4, 2, 1] {
                while qrows.len() - off >= width {
                    let sub = &qrows[off..off + width];
                    out.extend(match width {
                        8 => matmul_block::<T, 8>(sub, matrix, dense, scale, perforation),
                        4 => matmul_block::<T, 4>(sub, matrix, dense, scale, perforation),
                        2 => matmul_block::<T, 2>(sub, matrix, dense, scale, perforation),
                        _ => matmul_block::<T, 1>(sub, matrix, dense, scale, perforation),
                    });
                    off += width;
                }
            }
            out
        })
        .collect();
    let rows: Vec<HyperVector<T>> = blocks
        .into_iter()
        .flatten()
        .map(HyperVector::from_vec)
        .collect();
    HyperMatrix::from_rows(rows)
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
