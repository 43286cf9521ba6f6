//! The [`Element`] trait abstracting over the scalar types hypervectors may
//! hold.
//!
//! The HDC++ primitives of the paper are parameterised by an element type
//! `T`, "a signed scalar type (any of `int8_t`, `int16_t`, `int32_t`,
//! `int64_t`, `float`, or `double`)". This module provides the matching Rust
//! abstraction.

use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Identifier for the concrete element type held by a hypervector, used by
/// the IR type system and the binarization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementKind {
    /// 8-bit signed integer.
    I8,
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Single-bit bipolar element (result of automatic binarization).
    Bit,
}

impl ElementKind {
    /// Width of one element in bits.
    pub fn bit_width(self) -> usize {
        match self {
            ElementKind::I8 => 8,
            ElementKind::I16 => 16,
            ElementKind::I32 => 32,
            ElementKind::I64 => 64,
            ElementKind::F32 => 32,
            ElementKind::F64 => 64,
            ElementKind::Bit => 1,
        }
    }

    /// Whether the element kind is a floating point type.
    pub fn is_float(self) -> bool {
        matches!(self, ElementKind::F32 | ElementKind::F64)
    }

    /// Size in bytes of `dimension` elements of this kind (bit elements are
    /// packed into 64-bit words).
    pub fn storage_bytes(self, dimension: usize) -> usize {
        match self {
            ElementKind::Bit => dimension.div_ceil(64) * 8,
            other => dimension * other.bit_width() / 8,
        }
    }
}

impl std::fmt::Display for ElementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ElementKind::I8 => "i8",
            ElementKind::I16 => "i16",
            ElementKind::I32 => "i32",
            ElementKind::I64 => "i64",
            ElementKind::F32 => "f32",
            ElementKind::F64 => "f64",
            ElementKind::Bit => "bit",
        };
        f.write_str(s)
    }
}

/// Scalar types usable as hypervector elements.
///
/// The trait deliberately mirrors what the HDC primitives need and nothing
/// more: ring arithmetic, ordering, conversion to/from `f64` (used by the
/// reductions, which always accumulate in `f64`), and a canonical
/// [`ElementKind`].
pub trait Element:
    Copy
    + Debug
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The [`ElementKind`] tag for this type.
    const KIND: ElementKind;

    /// Lossy conversion from `f64` (saturating for integers).
    fn from_f64(value: f64) -> Self;
    /// Conversion to `f64` used by reductions.
    fn to_f64(self) -> f64;

    /// Map the element to `+1` or `-1` depending on its sign.
    ///
    /// Zero maps to `+1`, matching the convention used by the paper's
    /// `hdc_sign` primitive (and by binarized learning in general, where a
    /// tie must still commit to one of the two bipolar values).
    fn bipolar_sign(self) -> Self {
        if self.to_f64() < 0.0 {
            -Self::ONE
        } else {
            Self::ONE
        }
    }

    /// Absolute value.
    fn abs_value(self) -> Self {
        if self.to_f64() < 0.0 {
            -self
        } else {
            self
        }
    }

    /// View a slice of this element type as `&[f64]` when the type *is*
    /// `f64` (`None` for every other type).
    ///
    /// This is a safe specialization hook: only the `f64` impl overrides it,
    /// letting the batched kernels hand dense `f64` rows to the SIMD panel
    /// kernels without a per-element `to_f64` conversion or any transmute.
    fn as_f64_slice(_slice: &[Self]) -> Option<&[f64]> {
        None
    }
}

macro_rules! impl_element_int {
    ($ty:ty, $kind:expr) => {
        impl Element for $ty {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const KIND: ElementKind = $kind;

            fn from_f64(value: f64) -> Self {
                if value.is_nan() {
                    0
                } else if value >= <$ty>::MAX as f64 {
                    <$ty>::MAX
                } else if value <= <$ty>::MIN as f64 {
                    <$ty>::MIN
                } else {
                    value.round() as $ty
                }
            }

            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

macro_rules! impl_element_float {
    ($ty:ty, $kind:expr) => {
        impl Element for $ty {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const KIND: ElementKind = $kind;

            fn from_f64(value: f64) -> Self {
                value as $ty
            }

            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

impl_element_int!(i8, ElementKind::I8);
impl_element_int!(i16, ElementKind::I16);
impl_element_int!(i32, ElementKind::I32);
impl_element_int!(i64, ElementKind::I64);
impl_element_float!(f32, ElementKind::F32);

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const KIND: ElementKind = ElementKind::F64;

    fn from_f64(value: f64) -> Self {
        value
    }

    fn to_f64(self) -> f64 {
        self
    }

    fn as_f64_slice(slice: &[Self]) -> Option<&[f64]> {
        Some(slice)
    }
}

/// The value an `f64` reduction stores for its result `x`: `x` itself, or
/// the one canonical quiet NaN ([`f64::NAN`]) when `x` is a NaN.
///
/// Whether a result is a NaN is fixed by the operations a chain runs, but
/// which NaN it is is not: a chain that meets two NaN payloads keeps the
/// one its compiled add (or a fused multiply-add) takes first, and a
/// compiler may turn `x·(-1.0)` into a sign flip. So every matmul, dot,
/// cosine and norm stores its output through this, and batched, SIMD and
/// sequential paths agree on every bit, NaN outputs included.
#[inline]
pub(crate) fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_kind_widths() {
        assert_eq!(ElementKind::I8.bit_width(), 8);
        assert_eq!(ElementKind::I64.bit_width(), 64);
        assert_eq!(ElementKind::F32.bit_width(), 32);
        assert_eq!(ElementKind::Bit.bit_width(), 1);
    }

    #[test]
    fn element_kind_storage_bytes_packs_bits() {
        assert_eq!(ElementKind::Bit.storage_bytes(64), 8);
        assert_eq!(ElementKind::Bit.storage_bytes(65), 16);
        assert_eq!(ElementKind::F32.storage_bytes(10), 40);
        assert_eq!(ElementKind::I8.storage_bytes(10), 10);
    }

    #[test]
    fn saturating_integer_conversion() {
        assert_eq!(i8::from_f64(1e9), i8::MAX);
        assert_eq!(i8::from_f64(-1e9), i8::MIN);
        assert_eq!(i8::from_f64(3.7), 4);
        assert_eq!(i8::from_f64(f64::NAN), 0);
    }

    #[test]
    fn float_roundtrip() {
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(f64::from_f64(-7.25), -7.25);
    }

    #[test]
    fn bipolar_sign_convention() {
        assert_eq!(3.0f32.bipolar_sign(), 1.0);
        assert_eq!((-3.0f32).bipolar_sign(), -1.0);
        assert_eq!(0.0f32.bipolar_sign(), 1.0, "zero maps to +1");
        assert_eq!(0i32.bipolar_sign(), 1);
        assert_eq!((-5i64).bipolar_sign(), -1);
    }

    #[test]
    fn abs_value() {
        assert_eq!((-4i32).abs_value(), 4);
        assert_eq!(4.5f64.abs_value(), 4.5);
        assert_eq!((-4.5f32).abs_value(), 4.5);
    }

    #[test]
    fn is_float_flags() {
        assert!(ElementKind::F32.is_float());
        assert!(ElementKind::F64.is_float());
        assert!(!ElementKind::I32.is_float());
        assert!(!ElementKind::Bit.is_float());
    }

    #[test]
    fn as_f64_slice_is_f64_only() {
        let xs = [1.0f64, -2.5, 3.25];
        assert_eq!(f64::as_f64_slice(&xs), Some(&xs[..]));
        assert_eq!(f32::as_f64_slice(&[1.0f32]), None);
        assert_eq!(i32::as_f64_slice(&[1i32]), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(ElementKind::I16.to_string(), "i16");
        assert_eq!(ElementKind::Bit.to_string(), "bit");
    }
}
