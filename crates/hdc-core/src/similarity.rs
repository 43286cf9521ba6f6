//! Similarity and dissimilarity metrics between hypervectors.
//!
//! HDC inference is a nearest-neighbour search: a query hypervector is
//! compared against every class hypervector and the most similar (or least
//! dissimilar) class wins. The two metrics used throughout the paper are
//! cosine similarity and Hamming distance; both support reduction
//! perforation (§4.2). Following the paper, perforated similarity results
//! are **not** rescaled (only relative order matters), while perforated
//! `matmul`/`l2norm` results are scaled by the visited fraction (see
//! [`crate::matmul`]).

use crate::element::{canonical_nan, Element};
use crate::error::{HdcError, Result};
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::perforation::Perforation;

/// Dot product of two element slices over the perforated index set.
/// Shared with the batched kernels in [`crate::batch`] so the batched and
/// per-sample paths accumulate in the same order (bit-identical results).
pub(crate) fn dot_perforated<T: Element>(a: &[T], b: &[T], perforation: Perforation) -> f64 {
    // Chains start from `+0.0`, as the panel kernels' do (`Iterator::sum`
    // on floats starts from `-0.0`).
    if perforation.is_dense_over(a.len()) {
        a.iter()
            .zip(b.iter())
            .fold(0.0, |acc, (x, y)| acc + x.to_f64() * y.to_f64())
    } else {
        perforation
            .indices(a.len())
            .fold(0.0, |acc, i| acc + a[i].to_f64() * b[i].to_f64())
    }
}

/// Squared L2 norm over the perforated index set. Shared with
/// [`crate::batch`] (see [`dot_perforated`]).
pub(crate) fn norm_sq_perforated<T: Element>(a: &[T], perforation: Perforation) -> f64 {
    if perforation.is_dense_over(a.len()) {
        a.iter().fold(0.0, |acc, x| {
            let v = x.to_f64();
            acc + v * v
        })
    } else {
        perforation.indices(a.len()).fold(0.0, |acc, i| {
            let v = a[i].to_f64();
            acc + v * v
        })
    }
}

/// Number of visited positions at which two element slices differ — the
/// per-pair Hamming reduction. Shared with [`crate::batch`] (see
/// [`dot_perforated`]).
pub(crate) fn hamming_count_perforated<T: Element>(
    a: &[T],
    b: &[T],
    perforation: Perforation,
) -> usize {
    if perforation.is_dense_over(a.len()) {
        a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
    } else {
        perforation
            .indices(a.len())
            .filter(|&i| a[i] != b[i])
            .count()
    }
}

/// A cosine score from its dot product and the two norms: `0` when either
/// norm is zero, and a NaN score stored as the canonical [`f64::NAN`]
/// ([`canonical_nan`]). Shared with [`crate::batch`] (see
/// [`dot_perforated`]).
pub(crate) fn cosine_from_parts(dot: f64, a_norm: f64, b_norm: f64) -> f64 {
    if a_norm == 0.0 || b_norm == 0.0 {
        0.0
    } else {
        canonical_nan(dot / (a_norm * b_norm))
    }
}

fn check_dims(a: usize, b: usize, context: &'static str) -> Result<()> {
    if a != b {
        return Err(HdcError::DimensionMismatch {
            expected: a,
            actual: b,
            context,
        });
    }
    Ok(())
}

/// Cosine similarity between two hypervectors (the `cossim` primitive).
///
/// Returns a value in `[-1, 1]`; orthogonal vectors score ~0. If either
/// vector has zero norm over the visited elements the result is `0`.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length, or
/// an invalid-perforation error for a bad descriptor.
pub fn cosine_similarity<T: Element>(
    a: &HyperVector<T>,
    b: &HyperVector<T>,
    perforation: Perforation,
) -> Result<f64> {
    check_dims(a.dimension(), b.dimension(), "cosine similarity")?;
    perforation.validate(a.dimension())?;
    let dot = dot_perforated(a.as_slice(), b.as_slice(), perforation);
    let na = norm_sq_perforated(a.as_slice(), perforation).sqrt();
    let nb = norm_sq_perforated(b.as_slice(), perforation).sqrt();
    Ok(cosine_from_parts(dot, na, nb))
}

/// Cosine similarity between a query hypervector and every row of a
/// hypermatrix (the matrix form of `cossim` used by inference).
///
/// # Errors
///
/// Returns a dimension-mismatch error if the query length differs from the
/// matrix column count.
pub fn cosine_similarity_matrix<T: Element>(
    query: &HyperVector<T>,
    rows: &HyperMatrix<T>,
    perforation: Perforation,
) -> Result<HyperVector<f64>> {
    check_dims(query.dimension(), rows.cols(), "cosine similarity matrix")?;
    perforation.validate(query.dimension())?;
    let qn = norm_sq_perforated(query.as_slice(), perforation).sqrt();
    let sims = rows
        .iter_rows()
        .map(|row| {
            let dot = dot_perforated(query.as_slice(), row, perforation);
            let rn = norm_sq_perforated(row, perforation).sqrt();
            cosine_from_parts(dot, qn, rn)
        })
        .collect();
    Ok(sims)
}

/// Hamming distance between two dense hypervectors (the `hamming_distance`
/// primitive): the number of positions whose elements differ.
///
/// Perforated distances count only the visited positions and are not
/// rescaled.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length, or
/// an invalid-perforation error for a bad descriptor.
pub fn hamming_distance<T: Element>(
    a: &HyperVector<T>,
    b: &HyperVector<T>,
    perforation: Perforation,
) -> Result<f64> {
    check_dims(a.dimension(), b.dimension(), "hamming distance")?;
    perforation.validate(a.dimension())?;
    Ok(hamming_count_perforated(a.as_slice(), b.as_slice(), perforation) as f64)
}

/// Hamming distance between a query hypervector and every row of a
/// hypermatrix.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the query length differs from the
/// matrix column count.
pub fn hamming_distance_matrix<T: Element>(
    query: &HyperVector<T>,
    rows: &HyperMatrix<T>,
    perforation: Perforation,
) -> Result<HyperVector<f64>> {
    check_dims(query.dimension(), rows.cols(), "hamming distance matrix")?;
    perforation.validate(query.dimension())?;
    let dists = rows
        .iter_rows()
        .map(|row| hamming_count_perforated(query.as_slice(), row, perforation) as f64)
        .collect();
    Ok(dists)
}

/// Pairwise cosine similarity between the rows of two hypermatrices,
/// producing a `lhs.rows() x rhs.rows()` matrix. This is the hypermatrix ×
/// hypermatrix form of `cossim` in Table 1.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the column counts differ.
pub fn cosine_similarity_all_pairs<T: Element>(
    lhs: &HyperMatrix<T>,
    rhs: &HyperMatrix<T>,
    perforation: Perforation,
) -> Result<HyperMatrix<f64>> {
    check_dims(lhs.cols(), rhs.cols(), "pairwise cosine similarity")?;
    perforation.validate(lhs.cols())?;
    let mut out = HyperMatrix::zeros(lhs.rows(), rhs.rows());
    let rhs_norms: Vec<f64> = rhs
        .iter_rows()
        .map(|r| norm_sq_perforated(r, perforation).sqrt())
        .collect();
    for (i, lrow) in lhs.iter_rows().enumerate() {
        let ln = norm_sq_perforated(lrow, perforation).sqrt();
        for (j, rrow) in rhs.iter_rows().enumerate() {
            let dot = dot_perforated(lrow, rrow, perforation);
            let v = cosine_from_parts(dot, ln, rhs_norms[j]);
            out.set(i, j, v).expect("indices in range");
        }
    }
    Ok(out)
}

/// Pairwise Hamming distance between the rows of two hypermatrices.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the column counts differ.
pub fn hamming_distance_all_pairs<T: Element>(
    lhs: &HyperMatrix<T>,
    rhs: &HyperMatrix<T>,
    perforation: Perforation,
) -> Result<HyperMatrix<f64>> {
    check_dims(lhs.cols(), rhs.cols(), "pairwise hamming distance")?;
    perforation.validate(lhs.cols())?;
    let mut out = HyperMatrix::zeros(lhs.rows(), rhs.rows());
    for (i, lrow) in lhs.iter_rows().enumerate() {
        for (j, rrow) in rhs.iter_rows().enumerate() {
            let count = hamming_count_perforated(lrow, rrow, perforation);
            out.set(i, j, count as f64).expect("indices in range");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_is_one() {
        let a = HyperVector::from_vec(vec![1.0f32, 2.0, 3.0]);
        let sim = cosine_similarity(&a, &a, Perforation::NONE).unwrap();
        assert!((sim - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        let a = HyperVector::from_vec(vec![1.0f32, 2.0, 3.0]);
        let b = a.sign_flip();
        let sim = cosine_similarity(&a, &b, Perforation::NONE).unwrap();
        assert!((sim + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = HyperVector::from_vec(vec![1.0f32, 0.0]);
        let b = HyperVector::from_vec(vec![0.0f32, 5.0]);
        assert_eq!(cosine_similarity(&a, &b, Perforation::NONE).unwrap(), 0.0);
    }

    #[test]
    fn cosine_zero_norm_is_zero() {
        let a = HyperVector::from_vec(vec![0.0f32, 0.0]);
        let b = HyperVector::from_vec(vec![1.0f32, 1.0]);
        assert_eq!(cosine_similarity(&a, &b, Perforation::NONE).unwrap(), 0.0);
    }

    #[test]
    fn cosine_dimension_mismatch() {
        let a = HyperVector::<f32>::zeros(3);
        let b = HyperVector::<f32>::zeros(4);
        assert!(cosine_similarity(&a, &b, Perforation::NONE).is_err());
    }

    #[test]
    fn hamming_counts_differences() {
        let a = HyperVector::from_vec(vec![1i32, -1, 1, -1]);
        let b = HyperVector::from_vec(vec![1i32, 1, 1, 1]);
        assert_eq!(hamming_distance(&a, &b, Perforation::NONE).unwrap(), 2.0);
    }

    #[test]
    fn perforated_hamming_not_rescaled() {
        let a = HyperVector::from_vec(vec![1i32; 8]);
        let b = HyperVector::from_vec(vec![-1i32; 8]);
        let half = Perforation::segment(0, 4);
        assert_eq!(hamming_distance(&a, &b, half).unwrap(), 4.0);
        let strided = Perforation::strided(0, 8, 2);
        assert_eq!(hamming_distance(&a, &b, strided).unwrap(), 4.0);
    }

    #[test]
    fn perforated_cosine_matches_subvector() {
        let a = HyperVector::from_vec(vec![1.0f32, 2.0, 100.0, -50.0]);
        let b = HyperVector::from_vec(vec![1.0f32, 2.0, -3.0, 8.0]);
        let seg = Perforation::segment(0, 2);
        let sub_a = HyperVector::from_vec(vec![1.0f32, 2.0]);
        let sub_b = HyperVector::from_vec(vec![1.0f32, 2.0]);
        let expect = cosine_similarity(&sub_a, &sub_b, Perforation::NONE).unwrap();
        let got = cosine_similarity(&a, &b, seg).unwrap();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn matrix_forms_match_row_loops() {
        let q = HyperVector::from_vec(vec![1.0f32, -1.0, 1.0, -1.0]);
        let m = HyperMatrix::from_rows(vec![
            q.clone(),
            q.sign_flip(),
            HyperVector::from_vec(vec![1.0f32, 1.0, 1.0, 1.0]),
        ])
        .unwrap();
        let hd = hamming_distance_matrix(&q, &m, Perforation::NONE).unwrap();
        assert_eq!(hd.as_slice(), &[0.0, 4.0, 2.0]);
        let cs = cosine_similarity_matrix(&q, &m, Perforation::NONE).unwrap();
        assert!((cs.get(0).unwrap() - 1.0).abs() < 1e-6);
        assert!((cs.get(1).unwrap() + 1.0).abs() < 1e-6);
        for i in 0..3 {
            let row = m.row_vector(i).unwrap();
            let d = hamming_distance(&q, &row, Perforation::NONE).unwrap();
            assert_eq!(d, hd.get(i).unwrap());
            let c = cosine_similarity(&q, &row, Perforation::NONE).unwrap();
            assert!((c - cs.get(i).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn all_pairs_shapes() {
        let a = HyperMatrix::<f32>::from_fn(3, 8, |r, c| ((r + c) % 3) as f32 - 1.0);
        let b = HyperMatrix::<f32>::from_fn(2, 8, |r, c| ((r * c) % 2) as f32);
        let cs = cosine_similarity_all_pairs(&a, &b, Perforation::NONE).unwrap();
        assert_eq!((cs.rows(), cs.cols()), (3, 2));
        let hd = hamming_distance_all_pairs(&a, &b, Perforation::NONE).unwrap();
        assert_eq!((hd.rows(), hd.cols()), (3, 2));
        // spot check one entry against the vector form
        let d01 = hamming_distance(
            &a.row_vector(0).unwrap(),
            &b.row_vector(1).unwrap(),
            Perforation::NONE,
        )
        .unwrap();
        assert_eq!(hd.get(0, 1).unwrap(), d01);
    }

    #[test]
    fn invalid_perforation_rejected() {
        let a = HyperVector::<f32>::zeros(8);
        let bad = Perforation::new(0, 8, 0);
        assert!(hamming_distance(&a, &a, bad).is_err());
        assert!(cosine_similarity(&a, &a, bad).is_err());
    }
}
