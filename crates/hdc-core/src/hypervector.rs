//! Dense hypervectors.

use crate::element::{canonical_nan, Element};
use crate::error::{HdcError, Result};

/// A dense hypervector: a high-dimensional vector of [`Element`]s.
///
/// Hypervectors are the fundamental data type of HDC. Dimensions are
/// typically in the thousands (the paper uses 2048 and 10240); all operations
/// on them are element-wise or reductions and therefore embarrassingly
/// parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperVector<T: Element> {
    data: Vec<T>,
}

impl<T: Element> HyperVector<T> {
    /// Create a zero-initialised hypervector of the given dimension.
    ///
    /// This corresponds to the `hypervector()` primitive of Table 1.
    pub fn zeros(dimension: usize) -> Self {
        HyperVector {
            data: vec![T::ZERO; dimension],
        }
    }

    /// Create a hypervector whose every element is `value`.
    pub fn splat(dimension: usize, value: T) -> Self {
        HyperVector {
            data: vec![value; dimension],
        }
    }

    /// Create a hypervector from an existing vector of elements.
    pub fn from_vec(data: Vec<T>) -> Self {
        HyperVector { data }
    }

    /// Create a hypervector by calling `init(i)` for each index `i`.
    ///
    /// This corresponds to the `create_hypervector(Function init)` primitive.
    pub fn from_fn(dimension: usize, mut init: impl FnMut(usize) -> T) -> Self {
        HyperVector {
            data: (0..dimension).map(&mut init).collect(),
        }
    }

    /// Number of elements.
    pub fn dimension(&self) -> usize {
        self.data.len()
    }

    /// Whether the hypervector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the hypervector and return the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Get a single element (the `get_element` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dimension()`.
    pub fn get(&self, index: usize) -> Result<T> {
        self.data
            .get(index)
            .copied()
            .ok_or(HdcError::IndexOutOfBounds {
                index,
                len: self.data.len(),
            })
    }

    /// Set a single element.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dimension()`.
    pub fn set(&mut self, index: usize, value: T) -> Result<()> {
        let len = self.data.len();
        match self.data.get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(HdcError::IndexOutOfBounds { index, len }),
        }
    }

    /// Iterate over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Apply `f` to every element, producing a new hypervector.
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U) -> HyperVector<U> {
        HyperVector {
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combine two hypervectors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn zip_with(&self, other: &Self, f: impl Fn(T, T) -> T) -> Result<Self> {
        if self.dimension() != other.dimension() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dimension(),
                actual: other.dimension(),
                context: "hypervector element-wise op",
            });
        }
        Ok(HyperVector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Cast every element to another element type (the `type_cast` primitive).
    pub fn cast<U: Element>(&self) -> HyperVector<U> {
        self.map(|x| U::from_f64(x.to_f64()))
    }

    /// Map every element to `+1`/`-1` by its sign (the `sign` primitive).
    pub fn sign(&self) -> Self {
        self.map(Element::bipolar_sign)
    }

    /// Flip the sign of every element (the `sign_flip` primitive).
    pub fn sign_flip(&self) -> Self {
        self.map(|x| -x)
    }

    /// Element-wise absolute value (the `absolute_value` primitive).
    pub fn absolute_value(&self) -> Self {
        self.map(Element::abs_value)
    }

    /// Element-wise cosine (the `cosine` primitive).
    pub fn cosine(&self) -> Self {
        self.map(|x| T::from_f64(x.to_f64().cos()))
    }

    /// Rotate the elements right by `shift` positions with wrap-around
    /// (the `wrap_shift` primitive). Negative shifts rotate left.
    pub fn wrap_shift(&self, shift: isize) -> Self {
        let n = self.data.len();
        if n == 0 {
            return self.clone();
        }
        let shift = shift.rem_euclid(n as isize) as usize;
        let mut out = Vec::with_capacity(n);
        // Element i of the output comes from element (i - shift) mod n of the
        // input, i.e. the vector contents move right.
        for i in 0..n {
            let src = (i + n - shift) % n;
            out.push(self.data[src]);
        }
        HyperVector { data: out }
    }

    /// Sum of all elements, accumulated in `f64` from `+0.0` in index
    /// order, like every other reduction chain here.
    pub fn sum(&self) -> f64 {
        canonical_nan(self.data.iter().fold(0.0, |acc, x| acc + x.to_f64()))
    }

    /// L2 norm of the hypervector (the `l2norm` primitive).
    pub fn l2norm(&self) -> f64 {
        let sum_sq = self.data.iter().fold(0.0, |acc, x| {
            let v = x.to_f64();
            acc + v * v
        });
        canonical_nan(sum_sq.sqrt())
    }
}

impl<T: Element> Default for HyperVector<T> {
    fn default() -> Self {
        HyperVector { data: Vec::new() }
    }
}

impl<T: Element> From<Vec<T>> for HyperVector<T> {
    fn from(data: Vec<T>) -> Self {
        HyperVector::from_vec(data)
    }
}

impl<T: Element> AsRef<[T]> for HyperVector<T> {
    fn as_ref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Element> FromIterator<T> for HyperVector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        HyperVector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<T: Element> IntoIterator for HyperVector<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl<'a, T: Element> IntoIterator for &'a HyperVector<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_dimension() {
        let hv = HyperVector::<f32>::zeros(128);
        assert_eq!(hv.dimension(), 128);
        assert!(hv.iter().all(|&x| x == 0.0));
        assert!(!hv.is_empty());
        assert!(HyperVector::<f32>::default().is_empty());
    }

    #[test]
    fn from_fn_indices() {
        let hv = HyperVector::<i32>::from_fn(5, |i| i as i32 * 2);
        assert_eq!(hv.as_slice(), &[0, 2, 4, 6, 8]);
    }

    #[test]
    fn get_set_bounds() {
        let mut hv = HyperVector::<i32>::zeros(3);
        hv.set(1, 7).unwrap();
        assert_eq!(hv.get(1).unwrap(), 7);
        assert!(hv.get(3).is_err());
        assert!(hv.set(3, 1).is_err());
    }

    #[test]
    fn zip_with_dimension_mismatch() {
        let a = HyperVector::<f32>::zeros(4);
        let b = HyperVector::<f32>::zeros(5);
        assert!(matches!(
            a.zip_with(&b, |x, y| x + y),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn sign_maps_to_bipolar() {
        let hv = HyperVector::from_vec(vec![-2.0f32, 0.0, 3.5]);
        assert_eq!(hv.sign().as_slice(), &[-1.0, 1.0, 1.0]);
    }

    #[test]
    fn sign_flip_negates() {
        let hv = HyperVector::from_vec(vec![-2i32, 0, 3]);
        assert_eq!(hv.sign_flip().as_slice(), &[2, 0, -3]);
    }

    #[test]
    fn sum_folds_from_positive_zero() {
        let empty = HyperVector::<f64>::zeros(0);
        assert_eq!(empty.sum().to_bits(), 0.0f64.to_bits());
        let negative_zeros = HyperVector::from_vec(vec![-0.0f64; 3]);
        assert_eq!(negative_zeros.sum().to_bits(), 0.0f64.to_bits());
        assert_eq!(HyperVector::from_vec(vec![1i32, 2, 3]).sum(), 6.0);
    }

    #[test]
    fn absolute_value() {
        let hv = HyperVector::from_vec(vec![-2.0f64, 0.0, 3.5]);
        assert_eq!(hv.absolute_value().as_slice(), &[2.0, 0.0, 3.5]);
    }

    #[test]
    fn wrap_shift_rotates_right() {
        let hv = HyperVector::from_vec(vec![1i32, 2, 3, 4, 5]);
        assert_eq!(hv.wrap_shift(2).as_slice(), &[4, 5, 1, 2, 3]);
        assert_eq!(hv.wrap_shift(0).as_slice(), hv.as_slice());
        assert_eq!(hv.wrap_shift(5).as_slice(), hv.as_slice());
        assert_eq!(hv.wrap_shift(-1).as_slice(), &[2, 3, 4, 5, 1]);
        assert_eq!(hv.wrap_shift(7).as_slice(), hv.wrap_shift(2).as_slice());
    }

    #[test]
    fn wrap_shift_empty() {
        let hv = HyperVector::<i32>::zeros(0);
        assert_eq!(hv.wrap_shift(3).dimension(), 0);
    }

    #[test]
    fn l2norm_matches_manual() {
        let hv = HyperVector::from_vec(vec![3.0f32, 4.0]);
        assert!((hv.l2norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cast_between_types() {
        let hv = HyperVector::from_vec(vec![1.6f32, -2.4, 300.0]);
        let as_i8: HyperVector<i8> = hv.cast();
        assert_eq!(as_i8.as_slice(), &[2, -2, 127]);
        let back: HyperVector<f32> = as_i8.cast();
        assert_eq!(back.as_slice(), &[2.0, -2.0, 127.0]);
    }

    #[test]
    fn cosine_elementwise() {
        let hv = HyperVector::from_vec(vec![0.0f64, std::f64::consts::PI]);
        let c = hv.cosine();
        assert!((c.get(0).unwrap() - 1.0).abs() < 1e-12);
        assert!((c.get(1).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn collect_from_iterator() {
        let hv: HyperVector<i32> = (0..4).collect();
        assert_eq!(hv.as_slice(), &[0, 1, 2, 3]);
        let doubled: Vec<i32> = (&hv).into_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![0, 2, 4, 6]);
    }

    #[test]
    fn sum_accumulates() {
        let hv = HyperVector::from_vec(vec![1i8, 2, 3, 4]);
        assert_eq!(hv.sum(), 10.0);
    }
}
