//! Free-function forms of the element-wise and reduction HDC primitives.
//!
//! Most primitives also exist as methods on [`HyperVector`] /
//! [`HyperMatrix`]; the free functions here cover the binary element-wise
//! operators (`add`, `sub`, `mul`, `div`) and the `arg_min` / `arg_max`
//! reductions of Table 1, which the runtime and back ends call directly.

use crate::element::Element;
use crate::error::Result;
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;

/// Element-wise binary operators shared by hypervectors and hypermatrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementwiseOp {
    /// Element-wise addition.
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication (binding).
    Mul,
    /// Element-wise division.
    Div,
}

impl ElementwiseOp {
    /// Apply the operator to a pair of scalars.
    pub fn apply<T: Element>(self, a: T, b: T) -> T {
        match self {
            ElementwiseOp::Add => a + b,
            ElementwiseOp::Sub => a - b,
            ElementwiseOp::Mul => a * b,
            ElementwiseOp::Div => a / b,
        }
    }
}

impl std::fmt::Display for ElementwiseOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ElementwiseOp::Add => "add",
            ElementwiseOp::Sub => "sub",
            ElementwiseOp::Mul => "mul",
            ElementwiseOp::Div => "div",
        };
        f.write_str(s)
    }
}

/// Element-wise addition of two hypervectors.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length.
pub fn add<T: Element>(a: &HyperVector<T>, b: &HyperVector<T>) -> Result<HyperVector<T>> {
    a.zip_with(b, |x, y| x + y)
}

/// Element-wise subtraction of two hypervectors.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length.
pub fn sub<T: Element>(a: &HyperVector<T>, b: &HyperVector<T>) -> Result<HyperVector<T>> {
    a.zip_with(b, |x, y| x - y)
}

/// Element-wise multiplication (binding) of two hypervectors.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length.
pub fn mul<T: Element>(a: &HyperVector<T>, b: &HyperVector<T>) -> Result<HyperVector<T>> {
    a.zip_with(b, |x, y| x * y)
}

/// Element-wise division of two hypervectors.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length.
pub fn div<T: Element>(a: &HyperVector<T>, b: &HyperVector<T>) -> Result<HyperVector<T>> {
    a.zip_with(b, |x, y| x / y)
}

/// Apply an [`ElementwiseOp`] to two hypervectors.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the operands differ in length.
pub fn elementwise<T: Element>(
    op: ElementwiseOp,
    a: &HyperVector<T>,
    b: &HyperVector<T>,
) -> Result<HyperVector<T>> {
    a.zip_with(b, |x, y| op.apply(x, y))
}

/// Apply an [`ElementwiseOp`] to two hypermatrices.
///
/// # Errors
///
/// Returns a shape-mismatch error if the operands differ in shape.
pub fn elementwise_matrix<T: Element>(
    op: ElementwiseOp,
    a: &HyperMatrix<T>,
    b: &HyperMatrix<T>,
) -> Result<HyperMatrix<T>> {
    a.zip_with(b, |x, y| op.apply(x, y))
}

/// Total ordering over selection scores: NaN detection plus a total
/// comparison, so every `arg_*` selection is deterministic for any input.
///
/// Floats use [`f64::is_nan`] / [`f64::total_cmp`] (IEEE 754 `totalOrder`:
/// `-0.0` orders strictly below `0.0`); integers are already totally
/// ordered and never NaN.
pub trait TotalOrd: Copy {
    /// Whether the value is NaN (always `false` for integers).
    fn is_nan_value(self) -> bool;
    /// Compare under a total order.
    fn total_order(self, other: Self) -> std::cmp::Ordering;
}

macro_rules! total_ord_float {
    ($($t:ty),*) => {$(
        impl TotalOrd for $t {
            fn is_nan_value(self) -> bool {
                self.is_nan()
            }
            fn total_order(self, other: Self) -> std::cmp::Ordering {
                self.total_cmp(&other)
            }
        }
    )*};
}

macro_rules! total_ord_int {
    ($($t:ty),*) => {$(
        impl TotalOrd for $t {
            fn is_nan_value(self) -> bool {
                false
            }
            fn total_order(self, other: Self) -> std::cmp::Ordering {
                self.cmp(&other)
            }
        }
    )*};
}

total_ord_float!(f32, f64);
total_ord_int!(i8, i16, i32, i64);

/// Index of the minimum element of a slice (`arg_min`) under the total
/// order of [`TotalOrd`]. Ties (bit-identical values) resolve to the first
/// occurrence; NaN values are skipped. Returns `None` for an empty slice or
/// one containing only NaNs.
pub fn arg_min<T: TotalOrd>(values: &[T]) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan_value() {
            continue;
        }
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) => {
                if v.total_order(bv) == std::cmp::Ordering::Less {
                    best = Some((i, v));
                }
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum element of a slice (`arg_max`) under the total
/// order of [`TotalOrd`]. Ties (bit-identical values) resolve to the first
/// occurrence; NaN values are skipped. Returns `None` for an empty slice or
/// one containing only NaNs.
pub fn arg_max<T: TotalOrd>(values: &[T]) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan_value() {
            continue;
        }
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) => {
                if v.total_order(bv) == std::cmp::Ordering::Greater {
                    best = Some((i, v));
                }
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Indices of the `k` largest elements of a slice (`arg_top_k`), in
/// descending score order under the total order of [`TotalOrd`]. Ties
/// (bit-identical values) resolve to the lower index, and NaN values are
/// skipped, matching [`arg_max`]. When fewer than `k` comparable elements
/// exist, all of them are returned (the result may be shorter than `k`).
///
/// Scores that are distances (lower is better) should be negated (or
/// `sign_flip`ped) before selection, exactly as `arg_min` relates to
/// `arg_max`.
pub fn arg_top_k<T: TotalOrd>(values: &[T], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len())
        .filter(|&i| !values[i].is_nan_value())
        .collect();
    // Sort by (score descending under the total order, index ascending): a
    // total, deterministic order, so batched and per-sample selection agree
    // bit-for-bit.
    order.sort_by(|&a, &b| values[b].total_order(values[a]).then(a.cmp(&b)));
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_binary_ops() {
        let a = HyperVector::from_vec(vec![4.0f32, 6.0, 8.0]);
        let b = HyperVector::from_vec(vec![2.0f32, 3.0, 4.0]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[6.0, 9.0, 12.0]);
        assert_eq!(sub(&a, &b).unwrap().as_slice(), &[2.0, 3.0, 4.0]);
        assert_eq!(mul(&a, &b).unwrap().as_slice(), &[8.0, 18.0, 32.0]);
        assert_eq!(div(&a, &b).unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn elementwise_dispatch_matches_direct() {
        let a = HyperVector::from_vec(vec![1i32, 2, 3]);
        let b = HyperVector::from_vec(vec![3i32, 2, 1]);
        for op in [ElementwiseOp::Add, ElementwiseOp::Sub, ElementwiseOp::Mul] {
            let direct = match op {
                ElementwiseOp::Add => add(&a, &b),
                ElementwiseOp::Sub => sub(&a, &b),
                ElementwiseOp::Mul => mul(&a, &b),
                ElementwiseOp::Div => unreachable!(),
            }
            .unwrap();
            assert_eq!(elementwise(op, &a, &b).unwrap(), direct, "{op}");
        }
    }

    #[test]
    fn elementwise_matrix_op() {
        let a = HyperMatrix::from_flat(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let b = HyperMatrix::from_flat(2, 2, vec![10.0f64, 20.0, 30.0, 40.0]).unwrap();
        let sum = elementwise_matrix(ElementwiseOp::Add, &a, &b).unwrap();
        assert_eq!(sum.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn arg_min_max_basic() {
        let v = [3.0f32, 1.0, 2.0, 1.0];
        assert_eq!(arg_min(&v), Some(1));
        assert_eq!(arg_max(&v), Some(0));
        assert_eq!(arg_min::<f32>(&[]), None);
        assert_eq!(arg_max::<f32>(&[]), None);
    }

    #[test]
    fn arg_min_skips_nan() {
        let v = [f32::NAN, 2.0, 1.0];
        assert_eq!(arg_min(&v), Some(2));
    }

    #[test]
    fn arg_top_k_orders_and_breaks_ties_deterministically() {
        let v = [0.5f64, 2.0, 1.0, 2.0, -3.0];
        assert_eq!(arg_top_k(&v, 3), vec![1, 3, 2]);
        // k = 1 agrees with arg_max; ties resolve to the first occurrence.
        assert_eq!(arg_top_k(&v, 1), vec![arg_max(&v).unwrap()]);
        // Requesting more than available returns everything, sorted.
        assert_eq!(arg_top_k(&v, 10), vec![1, 3, 2, 0, 4]);
        assert_eq!(arg_top_k::<f64>(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn arg_top_k_skips_nan() {
        let v = [f64::NAN, 2.0, 3.0];
        assert_eq!(arg_top_k(&v, 2), vec![2, 1]);
    }

    #[test]
    fn signed_zero_and_nan_order_deterministically() {
        // NaN is skipped; the remaining values follow IEEE 754 totalOrder,
        // under which -0.0 < 0.0 (they are not a tie).
        let v = [-0.0f64, 0.0, f64::NAN];
        assert_eq!(arg_min(&v), Some(0));
        assert_eq!(arg_max(&v), Some(1));
        assert_eq!(arg_top_k(&v, 2), vec![1, 0]);
        assert_eq!(arg_top_k(&v, 3), vec![1, 0], "NaN never selected");
        // All-NaN input still selects nothing.
        assert_eq!(arg_min::<f64>(&[f64::NAN]), None);
        assert_eq!(arg_max::<f64>(&[f64::NAN]), None);
        // Bit-identical values remain first-occurrence ties.
        assert_eq!(arg_max(&[1.0f64, 1.0]), Some(0));
        assert_eq!(arg_min(&[2i64, 2, 1]), Some(2));
    }

    #[test]
    fn arg_rows() {
        let m = HyperMatrix::from_flat(2, 3, vec![5.0f32, 1.0, 2.0, 0.0, 9.0, 3.0]).unwrap();
        let min: Vec<_> = m.iter_rows().map(|r| arg_min(r).unwrap()).collect();
        let max: Vec<_> = m.iter_rows().map(|r| arg_max(r).unwrap()).collect();
        assert_eq!(min, vec![1, 0]);
        assert_eq!(max, vec![0, 1]);
    }

    #[test]
    fn display_names() {
        assert_eq!(ElementwiseOp::Add.to_string(), "add");
        assert_eq!(ElementwiseOp::Div.to_string(), "div");
    }
}
