//! Dense hypermatrices (row-major collections of hypervectors).

use crate::element::Element;
use crate::error::{HdcError, Result};
use crate::hypervector::HyperVector;

/// A dense, row-major hypermatrix.
///
/// A hypermatrix is a stack of hypervectors: the class-hypervector database
/// of a classifier, a random projection matrix, a batch of encoded queries.
/// Rows share a single dimension (`cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperMatrix<T: Element> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Element> HyperMatrix<T> {
    /// Create a zero-initialised `rows x cols` hypermatrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        HyperMatrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Create a hypermatrix from a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidShape`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(HdcError::InvalidShape {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(HyperMatrix { rows, cols, data })
    }

    /// Create a hypermatrix from a list of equal-length row hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidShape`] if the rows have differing lengths.
    pub fn from_rows(rows: Vec<HyperVector<T>>) -> Result<Self> {
        let n_rows = rows.len();
        let cols = rows.first().map_or(0, HyperVector::dimension);
        let mut data = Vec::with_capacity(n_rows * cols);
        for row in &rows {
            if row.dimension() != cols {
                return Err(HdcError::InvalidShape {
                    rows: n_rows,
                    cols,
                    len: row.dimension(),
                });
            }
            data.extend_from_slice(row.as_slice());
        }
        Ok(HyperMatrix {
            rows: n_rows,
            cols,
            data,
        })
    }

    /// Create a hypermatrix by calling `init(row, col)` for each position.
    pub fn from_fn(rows: usize, cols: usize, mut init: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(init(r, c));
            }
        }
        HyperMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the hypervector dimension of each row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the flat row-major data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow the flat row-major data mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the matrix, returning the flat row-major data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrow one row as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `row >= rows()`.
    pub fn row(&self, row: usize) -> Result<&[T]> {
        if row >= self.rows {
            return Err(HdcError::IndexOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        Ok(&self.data[row * self.cols..(row + 1) * self.cols])
    }

    /// Copy one row out as a [`HyperVector`] (the `get_matrix_row` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `row >= rows()`.
    pub fn row_vector(&self, row: usize) -> Result<HyperVector<T>> {
        Ok(HyperVector::from_vec(self.row(row)?.to_vec()))
    }

    /// Overwrite one row with a hypervector (the `set_matrix_row` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `row >= rows()` and
    /// [`HdcError::DimensionMismatch`] if the hypervector length differs from
    /// `cols()`.
    pub fn set_row(&mut self, row: usize, value: &HyperVector<T>) -> Result<()> {
        if row >= self.rows {
            return Err(HdcError::IndexOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        if value.dimension() != self.cols {
            return Err(HdcError::DimensionMismatch {
                expected: self.cols,
                actual: value.dimension(),
                context: "set_matrix_row",
            });
        }
        self.data[row * self.cols..(row + 1) * self.cols].copy_from_slice(value.as_slice());
        Ok(())
    }

    /// Get a single element (the two-index form of `get_element`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> Result<T> {
        if row >= self.rows {
            return Err(HdcError::IndexOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        if col >= self.cols {
            return Err(HdcError::IndexOutOfBounds {
                index: col,
                len: self.cols,
            });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Set a single element.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if either index is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: T) -> Result<()> {
        if row >= self.rows {
            return Err(HdcError::IndexOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        if col >= self.cols {
            return Err(HdcError::IndexOutOfBounds {
                index: col,
                len: self.cols,
            });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Iterate over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Apply `f` to every element, producing a new hypermatrix.
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U) -> HyperMatrix<U> {
        HyperMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combine two hypermatrices element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the shapes differ.
    pub fn zip_with(&self, other: &Self, f: impl Fn(T, T) -> T) -> Result<Self> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(HdcError::DimensionMismatch {
                expected: self.rows * self.cols,
                actual: other.rows * other.cols,
                context: "hypermatrix element-wise op",
            });
        }
        Ok(HyperMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Cast every element to another element type (the `type_cast` primitive).
    pub fn cast<U: Element>(&self) -> HyperMatrix<U> {
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

    /// Transpose the matrix (the `matrix_transpose` primitive).
    pub fn transpose(&self) -> Self {
        let mut data = vec![T::ZERO; self.data.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        HyperMatrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }
}

impl<T: Element> Default for HyperMatrix<T> {
    fn default() -> Self {
        HyperMatrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HyperMatrix<i32> {
        HyperMatrix::from_flat(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap()
    }

    #[test]
    fn from_flat_validates_shape() {
        assert!(HyperMatrix::from_flat(2, 3, vec![1i32; 5]).is_err());
        assert!(HyperMatrix::from_flat(2, 3, vec![1i32; 6]).is_ok());
    }

    #[test]
    fn from_rows_validates_lengths() {
        let ok = HyperMatrix::from_rows(vec![
            HyperVector::from_vec(vec![1i32, 2]),
            HyperVector::from_vec(vec![3, 4]),
        ])
        .unwrap();
        assert_eq!(ok.rows(), 2);
        assert_eq!(ok.cols(), 2);

        let bad = HyperMatrix::from_rows(vec![
            HyperVector::from_vec(vec![1i32, 2]),
            HyperVector::from_vec(vec![3]),
        ]);
        assert!(bad.is_err());
    }

    #[test]
    fn row_access() {
        let m = sample();
        assert_eq!(m.row(0).unwrap(), &[1, 2, 3]);
        assert_eq!(m.row(1).unwrap(), &[4, 5, 6]);
        assert!(m.row(2).is_err());
        assert_eq!(m.row_vector(1).unwrap().as_slice(), &[4, 5, 6]);
    }

    #[test]
    fn set_row_validates() {
        let mut m = sample();
        m.set_row(0, &HyperVector::from_vec(vec![7, 8, 9])).unwrap();
        assert_eq!(m.row(0).unwrap(), &[7, 8, 9]);
        assert!(m.set_row(0, &HyperVector::from_vec(vec![1, 2])).is_err());
        assert!(m.set_row(5, &HyperVector::from_vec(vec![1, 2, 3])).is_err());
    }

    #[test]
    fn get_set_element() {
        let mut m = sample();
        assert_eq!(m.get(1, 2).unwrap(), 6);
        m.set(1, 2, 60).unwrap();
        assert_eq!(m.get(1, 2).unwrap(), 60);
        assert!(m.get(2, 0).is_err());
        assert!(m.get(0, 3).is_err());
        assert!(m.set(2, 0, 1).is_err());
        assert!(m.set(0, 3, 1).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1).unwrap(), 6);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn sign_and_flip() {
        let m = HyperMatrix::from_flat(1, 3, vec![-3.0f32, 0.0, 2.0]).unwrap();
        assert_eq!(m.sign().as_slice(), &[-1.0, 1.0, 1.0]);
        assert_eq!(m.sign_flip().as_slice(), &[3.0, 0.0, -2.0]);
        assert_eq!(m.absolute_value().as_slice(), &[3.0, 0.0, 2.0]);
    }

    #[test]
    fn cast_preserves_shape() {
        let m = sample();
        let f: HyperMatrix<f64> = m.cast();
        assert_eq!(f.rows(), 2);
        assert_eq!(f.cols(), 3);
        assert_eq!(f.get(0, 1).unwrap(), 2.0);
    }

    #[test]
    fn zip_with_shape_mismatch() {
        let a = HyperMatrix::<f32>::zeros(2, 3);
        let b = HyperMatrix::<f32>::zeros(3, 2);
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
    }

    #[test]
    fn default_is_empty() {
        let m = HyperMatrix::<f32>::default();
        assert!(m.is_empty());
        assert_eq!(m.rows(), 0);
    }
}
