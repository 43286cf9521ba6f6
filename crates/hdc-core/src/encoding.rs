//! Random-projection encoding, the encoder of the paper's HD-Classification
//! and HD-Clustering applications (Table 2): multiply the feature vector by
//! a random ±1 (or Gaussian) projection matrix.

use crate::element::Element;
use crate::hypermatrix::HyperMatrix;
use crate::hypervector::HyperVector;
use crate::matmul::matvec;
use crate::perforation::Perforation;
use crate::random::{bipolar_hypermatrix, gaussian_hypermatrix};
use rand::Rng;

/// Random-projection encoder: `encoded = rp_matrix * features`.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomProjection<T: Element> {
    matrix: HyperMatrix<T>,
}

impl<T: Element> RandomProjection<T> {
    /// Create a bipolar (±1) random projection from `in_dim` features to a
    /// `dimension`-element hypervector.
    pub fn bipolar(dimension: usize, in_dim: usize, rng: &mut impl Rng) -> Self {
        RandomProjection {
            matrix: bipolar_hypermatrix(dimension, in_dim, rng),
        }
    }

    /// Create a Gaussian random projection.
    pub fn gaussian(dimension: usize, in_dim: usize, rng: &mut impl Rng) -> Self {
        RandomProjection {
            matrix: gaussian_hypermatrix(dimension, in_dim, rng),
        }
    }

    /// Borrow the projection matrix (`dimension x in_dim`).
    pub fn matrix(&self) -> &HyperMatrix<T> {
        &self.matrix
    }

    /// Encode a single feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.dimension()` differs from the projection's
    /// column count.
    pub fn encode(&self, features: &HyperVector<T>) -> HyperVector<T> {
        matvec(&self.matrix, features, Perforation::NONE)
            .expect("feature dimension must match projection input dimension")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::HdcRng;
    use crate::similarity::cosine_similarity;
    use rand::SeedableRng;

    #[test]
    fn random_projection_shapes() {
        let mut rng = HdcRng::seed_from_u64(1);
        let rp = RandomProjection::<f32>::bipolar(256, 32, &mut rng);
        assert_eq!((rp.matrix().rows(), rp.matrix().cols()), (256, 32));
        let features = HyperVector::from_fn(32, |i| i as f32 / 32.0);
        assert_eq!(rp.encode(&features).dimension(), 256);
    }

    #[test]
    fn random_projection_preserves_similarity() {
        // Johnson–Lindenstrauss flavoured sanity check: similar inputs stay
        // similar after projection, dissimilar inputs stay dissimilar.
        let mut rng = HdcRng::seed_from_u64(2);
        let rp = RandomProjection::<f32>::gaussian(4096, 64, &mut rng);
        let a = crate::random::gaussian_hypervector::<f32>(64, &mut rng);
        let mut b = a.clone();
        for i in 0..4 {
            b.set(i, b.get(i).unwrap() + 0.01).unwrap();
        }
        let c = crate::random::gaussian_hypervector::<f32>(64, &mut rng);
        let sim_ab = cosine_similarity(&rp.encode(&a), &rp.encode(&b), Perforation::NONE).unwrap();
        let sim_ac = cosine_similarity(&rp.encode(&a), &rp.encode(&c), Perforation::NONE).unwrap();
        assert!(
            sim_ab > 0.95,
            "similar inputs should stay similar: {sim_ab}"
        );
        assert!(sim_ab > sim_ac, "ordering preserved: {sim_ab} vs {sim_ac}");
    }
}
