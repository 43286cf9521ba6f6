//! Bit-packed bipolar hypervectors and hypermatrices.
//!
//! Automatic binarization (paper §4.2) rewrites hypervectors whose elements
//! are known to be ±1 into a 1-bit-per-element representation. On CPUs and
//! GPUs this turns Hamming distance into XOR + popcount over 64-bit words,
//! which is the main source of the speedups in Figure 7's configurations
//! III–VIII. These types are also the native storage format of the digital
//! ASIC and the ReRAM accelerator models.
//!
//! Convention: bit `1` represents the bipolar value `-1`, bit `0` represents
//! `+1`. This makes the all-zero vector the identity for XOR-binding and
//! matches the "sign bit" intuition.

use crate::element::Element;
use crate::error::{HdcError, Result};
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::perforation::Perforation;
use std::sync::Arc;

const WORD_BITS: usize = 64;

/// A bit-packed bipolar hypervector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVector {
    dimension: usize,
    words: Vec<u64>,
}

impl BitVector {
    /// Create an all `+1` (all bits zero) bit vector.
    pub fn zeros(dimension: usize) -> Self {
        BitVector {
            dimension,
            words: vec![0; dimension.div_ceil(WORD_BITS)],
        }
    }

    /// Build from an iterator of booleans (`true` == `-1`).
    ///
    /// Words are accumulated chunk-wise: the word vector is pre-reserved from
    /// the iterator's size hint (`dimension.div_ceil(64)` words for exact
    /// hints) and each bit is OR-ed in branchlessly, with one word pushed per
    /// 64 bits consumed.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let iter = bits.into_iter();
        let (lower, _) = iter.size_hint();
        let mut words = Vec::with_capacity(lower.div_ceil(WORD_BITS));
        let mut dimension = 0usize;
        let mut current = 0u64;
        let mut offset = 0u32;
        for bit in iter {
            current |= u64::from(bit) << offset;
            offset += 1;
            dimension += 1;
            if offset == WORD_BITS as u32 {
                words.push(current);
                current = 0;
                offset = 0;
            }
        }
        if offset > 0 {
            words.push(current);
        }
        BitVector { dimension, words }
    }

    /// Binarize a slice of elements by sign (negative → bit set), packing a
    /// whole 64-bit word per inner loop instead of pushing bit by bit. This
    /// is the hot packing path automatic binarization runs on.
    pub fn from_signs<T: Element>(signs: &[T]) -> Self {
        let mut words = Vec::with_capacity(signs.len().div_ceil(WORD_BITS));
        for chunk in signs.chunks(WORD_BITS) {
            let mut word = 0u64;
            for (offset, x) in chunk.iter().enumerate() {
                word |= u64::from(x.to_f64() < 0.0) << offset;
            }
            words.push(word);
        }
        BitVector {
            dimension: signs.len(),
            words,
        }
    }

    /// Binarize a dense hypervector by element sign (negative → bit set).
    pub fn from_dense<T: Element>(hv: &HyperVector<T>) -> Self {
        BitVector::from_signs(hv.as_slice())
    }

    /// Number of (logical) elements.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.dimension == 0
    }

    /// The packed 64-bit words backing the vector.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Storage size in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Get the bipolar value at `index` (`+1` or `-1`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dimension()`.
    pub fn get(&self, index: usize) -> Result<i8> {
        if index >= self.dimension {
            return Err(HdcError::IndexOutOfBounds {
                index,
                len: self.dimension,
            });
        }
        let bit = (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1;
        Ok(if bit == 1 { -1 } else { 1 })
    }

    /// Set the bipolar value at `index` (negative values set the bit).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dimension()`.
    pub fn set(&mut self, index: usize, value: i8) -> Result<()> {
        if index >= self.dimension {
            return Err(HdcError::IndexOutOfBounds {
                index,
                len: self.dimension,
            });
        }
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value < 0 {
            *word |= mask;
        } else {
            *word &= !mask;
        }
        Ok(())
    }

    /// Convert back into a dense hypervector of ±1 elements.
    pub fn to_dense<T: Element>(&self) -> HyperVector<T> {
        HyperVector::from_fn(self.dimension, |i| {
            if self.get(i).expect("index in range") < 0 {
                -T::ONE
            } else {
                T::ONE
            }
        })
    }

    /// XOR-binding of two bipolar vectors (element-wise multiplication in
    /// bipolar space).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn bind(&self, other: &Self) -> Result<Self> {
        if self.dimension != other.dimension {
            return Err(HdcError::DimensionMismatch {
                expected: self.dimension,
                actual: other.dimension,
                context: "bitvector bind",
            });
        }
        Ok(BitVector {
            dimension: self.dimension,
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a ^ b)
                .collect(),
        })
    }

    /// Bipolar negation (flip every bit).
    pub fn sign_flip(&self) -> Self {
        let mut out = BitVector {
            dimension: self.dimension,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// Rotate elements right by `shift` with wrap-around (`wrap_shift`).
    pub fn wrap_shift(&self, shift: isize) -> Self {
        if self.dimension == 0 {
            return self.clone();
        }
        // Bit twiddling a rotation across word boundaries for arbitrary
        // dimensions is easy to get wrong; go through per-bit access. This is
        // not on the hot path (binding/Hamming are).
        let n = self.dimension;
        let shift = shift.rem_euclid(n as isize) as usize;
        BitVector::from_bits((0..n).map(|i| {
            let src = (i + n - shift) % n;
            self.get(src).expect("index in range") < 0
        }))
    }

    /// Hamming distance to another bit vector, counted with popcounts.
    ///
    /// When `perforation` restricts the reduction range, only the selected
    /// elements are compared; following the paper, the result is *not*
    /// rescaled, because only the relative magnitude between distances is
    /// used by HDC applications.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ and
    /// [`HdcError::InvalidPerforation`] if the descriptor is out of range.
    pub fn hamming_distance(&self, other: &Self, perforation: Perforation) -> Result<f64> {
        if self.dimension != other.dimension {
            return Err(HdcError::DimensionMismatch {
                expected: self.dimension,
                actual: other.dimension,
                context: "bitvector hamming distance",
            });
        }
        perforation.validate(self.dimension)?;
        if perforation.is_dense_over(self.dimension) {
            let mut count = 0u64;
            for (a, b) in self.words.iter().zip(other.words.iter()) {
                count += (a ^ b).count_ones() as u64;
            }
            return Ok(count as f64);
        }
        let mut count = 0u64;
        for i in perforation.indices(self.dimension) {
            let wa = (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
            let wb = (other.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
            count += wa ^ wb;
        }
        Ok(count as f64)
    }

    /// Clear any bits beyond `dimension` in the last word so that equality
    /// and popcounts over whole words stay exact.
    fn mask_tail(&mut self) {
        let rem = self.dimension % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// A bit-packed bipolar hypermatrix (one [`BitVector`] per row).
///
/// Bits made by [`BitMatrix::from_bipolar`] also hold the ±1 `f64`
/// matrix they came from ([`BitMatrix::expansion`]), which the batched
/// sign encode streams. Clones share it, and equality ignores it.
#[derive(Clone)]
pub struct BitMatrix {
    rows: Vec<BitVector>,
    cols: usize,
    expansion: Option<Arc<HyperMatrix<f64>>>,
}

impl PartialEq for BitMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols && self.rows == other.rows
    }
}

impl Eq for BitMatrix {}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("expanded", &self.expansion.is_some())
            .finish()
    }
}

impl BitMatrix {
    /// Create an all `+1` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVector::zeros(cols); rows],
            cols,
            expansion: None,
        }
    }

    /// Build from a list of equal-dimension bit vectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidShape`] if rows have differing dimensions.
    pub fn from_rows(rows: Vec<BitVector>) -> Result<Self> {
        let cols = rows.first().map_or(0, BitVector::dimension);
        for row in &rows {
            if row.dimension() != cols {
                return Err(HdcError::InvalidShape {
                    rows: rows.len(),
                    cols,
                    len: row.dimension(),
                });
            }
        }
        Ok(BitMatrix {
            rows,
            cols,
            expansion: None,
        })
    }

    /// Binarize a dense hypermatrix by element sign, packing word-wise row by
    /// row (see [`BitVector::from_signs`]).
    pub fn from_dense<T: Element>(hm: &HyperMatrix<T>) -> Self {
        BitMatrix {
            rows: hm.iter_rows().map(BitVector::from_signs).collect(),
            cols: hm.cols(),
            expansion: None,
        }
    }

    /// The sign bits of a ±1 hypermatrix, or `None` unless every entry is
    /// exactly `1` or `-1`. Only then does [`BitMatrix::to_dense`] give the
    /// matrix back, so a kernel may run on the bits in its place. The
    /// matrix itself becomes the bits' [`BitMatrix::expansion`]: shared,
    /// not copied.
    pub fn from_bipolar(hm: &Arc<HyperMatrix<f64>>) -> Option<Self> {
        if !hm.as_slice().iter().all(|x| x.abs() == 1.0) {
            return None;
        }
        Some(BitMatrix {
            expansion: Some(Arc::clone(hm)),
            ..BitMatrix::from_dense(hm.as_ref())
        })
    }

    /// The ±1 `f64` matrix [`BitMatrix::from_bipolar`] validated, which
    /// the batched sign encode ([`crate::matmul::matmul_signs`]) streams;
    /// `None` for bits built any other way, or changed since. Every clone
    /// shares it; it takes 64 times the memory of the bits.
    pub fn expansion(&self) -> Option<&Arc<HyperMatrix<f64>>> {
        self.expansion.as_ref()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrow one row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `row >= rows()`.
    pub fn row(&self, row: usize) -> Result<&BitVector> {
        self.rows.get(row).ok_or(HdcError::IndexOutOfBounds {
            index: row,
            len: self.rows.len(),
        })
    }

    /// Overwrite one row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] / [`HdcError::DimensionMismatch`]
    /// on bad indices or dimensions.
    pub fn set_row(&mut self, row: usize, value: BitVector) -> Result<()> {
        if value.dimension() != self.cols {
            return Err(HdcError::DimensionMismatch {
                expected: self.cols,
                actual: value.dimension(),
                context: "bitmatrix set_row",
            });
        }
        let len = self.rows.len();
        match self.rows.get_mut(row) {
            Some(slot) => {
                *slot = value;
                // The clones keep the expansion of the bits they hold.
                self.expansion = None;
                Ok(())
            }
            None => Err(HdcError::IndexOutOfBounds { index: row, len }),
        }
    }

    /// Iterate over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, BitVector> {
        self.rows.iter()
    }

    /// Convert back to a dense hypermatrix of ±1 elements, unpacked word
    /// by word into one row-major buffer.
    pub fn to_dense<T: Element>(&self) -> HyperMatrix<T> {
        let mut data = Vec::with_capacity(self.rows.len() * self.cols);
        for row in &self.rows {
            for (w, &word) in row.words.iter().enumerate() {
                let bits = (self.cols - w * WORD_BITS).min(WORD_BITS);
                data.extend((0..bits).map(|b| if word >> b & 1 == 1 { -T::ONE } else { T::ONE }));
            }
        }
        HyperMatrix::from_flat(self.rows.len(), self.cols, data)
            .expect("rows validated at construction")
    }

    /// Hamming distance from `query` to every row, as a vector of distances.
    ///
    /// # Errors
    ///
    /// Propagates dimension/perforation errors from
    /// [`BitVector::hamming_distance`].
    pub fn hamming_distances(
        &self,
        query: &BitVector,
        perforation: Perforation,
    ) -> Result<HyperVector<f64>> {
        self.rows
            .iter()
            .map(|row| query.hamming_distance(row, perforation))
            .collect()
    }

    /// Total storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.rows.iter().map(BitVector::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bits_and_get() {
        let bv = BitVector::from_bits([false, true, false, true]);
        assert_eq!(bv.dimension(), 4);
        assert_eq!(bv.get(0).unwrap(), 1);
        assert_eq!(bv.get(1).unwrap(), -1);
        assert!(bv.get(4).is_err());
    }

    #[test]
    fn from_dense_roundtrip() {
        let hv = HyperVector::from_vec(vec![1.0f32, -2.0, 0.5, -0.25, 3.0]);
        let bv = BitVector::from_dense(&hv);
        let back: HyperVector<f32> = bv.to_dense();
        assert_eq!(back.as_slice(), &[1.0, -1.0, 1.0, -1.0, 1.0]);
    }

    #[test]
    fn from_signs_matches_from_bits_across_word_boundaries() {
        for dim in [0usize, 1, 63, 64, 65, 128, 1000] {
            let values: Vec<f64> = (0..dim)
                .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            let via_signs = BitVector::from_signs(&values);
            let via_bits = BitVector::from_bits(values.iter().map(|&x| x < 0.0));
            assert_eq!(via_signs, via_bits, "dim {dim}");
            assert_eq!(via_signs.dimension(), dim);
        }
    }

    #[test]
    fn from_bits_reserves_from_size_hint() {
        // Exact-size iterators produce exactly div_ceil(64) words.
        let bv = BitVector::from_bits((0..130).map(|i| i % 2 == 0));
        assert_eq!(bv.as_words().len(), 3);
        assert_eq!(bv.dimension(), 130);
    }

    #[test]
    fn set_updates_bits() {
        let mut bv = BitVector::zeros(70);
        bv.set(65, -1).unwrap();
        assert_eq!(bv.get(65).unwrap(), -1);
        bv.set(65, 1).unwrap();
        assert_eq!(bv.get(65).unwrap(), 1);
        assert!(bv.set(70, 1).is_err());
    }

    #[test]
    fn bind_is_bipolar_multiplication() {
        let a = BitVector::from_bits([false, true, true, false]);
        let b = BitVector::from_bits([true, true, false, false]);
        let bound = a.bind(&b).unwrap();
        // (+1,-1,-1,+1) * (-1,-1,+1,+1) = (-1,+1,-1,+1)
        assert_eq!(bound.get(0).unwrap(), -1);
        assert_eq!(bound.get(1).unwrap(), 1);
        assert_eq!(bound.get(2).unwrap(), -1);
        assert_eq!(bound.get(3).unwrap(), 1);
    }

    #[test]
    fn bind_dimension_mismatch() {
        let a = BitVector::zeros(8);
        let b = BitVector::zeros(9);
        assert!(a.bind(&b).is_err());
    }

    #[test]
    fn sign_flip_masks_tail() {
        let bv = BitVector::zeros(10);
        let flipped = bv.sign_flip();
        assert_eq!(flipped.as_words()[0].count_ones(), 10);
        assert_eq!(
            flipped.hamming_distance(&bv, Perforation::NONE).unwrap(),
            10.0
        );
    }

    #[test]
    fn hamming_matches_dense_definition() {
        let a = HyperVector::from_vec(vec![1.0f32, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0]);
        let b = HyperVector::from_vec(vec![1.0f32, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0]);
        let expected = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .filter(|(x, y)| x != y)
            .count() as f64;
        let d = BitVector::from_dense(&a)
            .hamming_distance(&BitVector::from_dense(&b), Perforation::NONE)
            .unwrap();
        assert_eq!(d, expected);
    }

    #[test]
    fn hamming_large_dimension_word_boundaries() {
        let dim = 1000;
        let a = BitVector::zeros(dim);
        let mut b = BitVector::zeros(dim);
        for i in (0..dim).step_by(3) {
            b.set(i, -1).unwrap();
        }
        let expected = (0..dim).step_by(3).count() as f64;
        assert_eq!(a.hamming_distance(&b, Perforation::NONE).unwrap(), expected);
    }

    #[test]
    fn perforated_hamming_counts_subrange() {
        let dim = 128;
        let a = BitVector::zeros(dim);
        let b = a.sign_flip();
        let seg = Perforation::segment(0, 64);
        assert_eq!(a.hamming_distance(&b, seg).unwrap(), 64.0);
        let strided = Perforation::strided(0, dim, 2);
        assert_eq!(a.hamming_distance(&b, strided).unwrap(), 64.0);
    }

    #[test]
    fn wrap_shift_bitvector() {
        let bv = BitVector::from_bits([true, false, false, false, false]);
        let shifted = bv.wrap_shift(2);
        assert_eq!(shifted.get(2).unwrap(), -1);
        assert_eq!(shifted.get(0).unwrap(), 1);
        let back = shifted.wrap_shift(-2);
        assert_eq!(back, bv);
    }

    #[test]
    fn bitmatrix_from_dense_and_distances() {
        let hm = HyperMatrix::from_flat(2, 4, vec![1.0f32, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
            .unwrap();
        let bm = BitMatrix::from_dense(&hm);
        assert_eq!(bm.rows(), 2);
        assert_eq!(bm.cols(), 4);
        let query = BitVector::from_dense(&HyperVector::from_vec(vec![1.0f32, -1.0, 1.0, 1.0]));
        let d = bm.hamming_distances(&query, Perforation::NONE).unwrap();
        assert_eq!(d.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn bitmatrix_row_management() {
        let mut bm = BitMatrix::zeros(3, 16);
        assert!(bm.row(3).is_err());
        bm.set_row(1, BitVector::from_bits((0..16).map(|i| i % 2 == 0)))
            .unwrap();
        assert_eq!(bm.row(1).unwrap().get(0).unwrap(), -1);
        assert!(bm.set_row(0, BitVector::zeros(8)).is_err());
        assert!(bm.set_row(9, BitVector::zeros(16)).is_err());
    }

    #[test]
    fn to_dense_unpacks_every_bit_as_get_reads_it() {
        for dim in [1usize, 63, 64, 65, 617, 2048] {
            let rows: Vec<BitVector> = (0..3)
                .map(|r| BitVector::from_bits((0..dim).map(|c| (c * 7 + r * 3) % 5 < 2)))
                .collect();
            let bits = BitMatrix::from_rows(rows).unwrap();
            let dense: HyperMatrix<f64> = bits.to_dense();
            assert_eq!((dense.rows(), dense.cols()), (3, dim));
            for r in 0..3 {
                for c in 0..dim {
                    let expected = f64::from(bits.row(r).unwrap().get(c).unwrap());
                    assert_eq!(dense.get(r, c).unwrap(), expected, "dim {dim} ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn expansion_is_the_validated_matrix_until_a_row_changes() {
        let hm =
            Arc::new(HyperMatrix::from_flat(2, 3, vec![1.0, -1.0, 1.0, -1.0, -1.0, 1.0]).unwrap());
        let mut bits = BitMatrix::from_bipolar(&hm).unwrap();
        assert!(Arc::ptr_eq(bits.expansion().unwrap(), &hm));
        assert!(BitMatrix::from_dense(hm.as_ref()).expansion().is_none());
        let clone = bits.clone();
        bits.set_row(0, BitVector::zeros(3)).unwrap();
        assert!(bits.expansion().is_none());
        assert!(Arc::ptr_eq(clone.expansion().unwrap(), &hm));
    }

    #[test]
    fn storage_bytes() {
        let bv = BitVector::zeros(2048);
        assert_eq!(bv.storage_bytes(), 2048 / 8);
        let bm = BitMatrix::zeros(26, 2048);
        assert_eq!(bm.storage_bytes(), 26 * 2048 / 8);
    }
}
