//! # hdc-core
//!
//! Hyperdimensional computing (HDC) substrate for the HPVM-HDC reproduction.
//!
//! This crate provides the data types and numerical kernels every other layer
//! of the system is built on:
//!
//! * [`HyperVector`] and [`HyperMatrix`] — dense hypervectors / hypermatrices
//!   generic over an [`Element`] type (`i8`..`i64`, `f32`, `f64`).
//! * [`BitVector`] and [`BitMatrix`] — bit-packed bipolar (±1) hypervectors
//!   produced by automatic binarization; Hamming distance on these uses
//!   word-level popcounts.
//! * The 24 HDC primitives of the paper's Table 1 (element-wise operators,
//!   `sign`, `wrap_shift`, `l2norm`, `arg_min`/`arg_max`, `matmul`,
//!   `cossim`, `hamming_distance`, …), including *reduction perforated*
//!   variants controlled by a [`Perforation`] descriptor.
//! * The random-projection encoder of the classification and clustering
//!   applications ([`encoding::RandomProjection`]).
//!
//! # Example
//!
//! ```
//! # fn main() -> hdc_core::Result<()> {
//! use hdc_core::prelude::*;
//!
//! // Random-projection encode a feature vector and classify it against two
//! // class hypervectors with Hamming distance, as in the paper's Listing 1.
//! let mut rng = HdcRng::seed_from_u64(7);
//! let rp = RandomProjection::bipolar(2048, 16, &mut rng);
//! let features = HyperVector::from_vec((0..16).map(|x| x as f32).collect());
//! let encoded = rp.encode(&features).sign();
//! let classes = HyperMatrix::from_rows(vec![encoded.clone(), encoded.sign_flip()])?;
//! let dists = hamming_distance_matrix(&encoded, &classes, Perforation::NONE)?;
//! assert_eq!(arg_min(dists.as_slice()), Some(0));
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `simd` module carries item-scoped
// `#[allow(unsafe_code)]` for its `std::arch` intrinsics — each allowed item
// pairs with a `// SAFETY:` contract, enforced by the repo-wide
// `unsafe_audit` test. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod binary;
pub mod element;
pub mod encoding;
pub mod error;
pub mod hypermatrix;
pub mod hypervector;
pub mod matmul;
pub mod ops;
pub mod perforation;
pub mod random;
pub mod shard;
pub mod simd;
pub mod similarity;

pub use batch::{
    arg_top_k_batch, arg_top_k_batch_sharded, cosine_similarity_batch,
    cosine_similarity_batch_sharded, hamming_distance_batch, hamming_distance_batch_sharded,
};
pub use binary::{BitMatrix, BitVector};
pub use element::Element;
pub use error::{HdcError, Result};
pub use hypermatrix::HyperMatrix;
pub use hypervector::HyperVector;
pub use perforation::Perforation;
pub use random::HdcRng;
pub use shard::{default_shard_count, ShardPlan};
pub use simd::KernelBackend;

/// Commonly used items, for glob import in examples and applications.
pub mod prelude {
    pub use crate::batch::{arg_top_k_batch, cosine_similarity_batch, hamming_distance_batch};
    pub use crate::binary::{BitMatrix, BitVector};
    pub use crate::element::Element;
    pub use crate::encoding::RandomProjection;
    pub use crate::error::{HdcError, Result};
    pub use crate::hypermatrix::HyperMatrix;
    pub use crate::hypervector::HyperVector;
    pub use crate::ops::{arg_max, arg_min, arg_top_k};
    pub use crate::perforation::Perforation;
    pub use crate::random::HdcRng;
    pub use crate::similarity::{
        cosine_similarity, cosine_similarity_matrix, hamming_distance, hamming_distance_matrix,
    };
    pub use rand::SeedableRng;
}
