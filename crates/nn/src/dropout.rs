//! Inverted dropout — the regularizer AlexNet-class models train with
//! (the original AlexNet applies dropout on FC6/FC7, precisely the layers
//! CirCNN compresses hardest).

use circnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layer::Layer;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so inference
/// needs no rescaling. In inference mode ([`Layer::set_training`] false)
/// it is the identity.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Dropout, Layer};
/// use circnn_tensor::Tensor;
///
/// let mut drop = Dropout::new(0.5, 7);
/// drop.set_training(false);
/// let x = Tensor::ones(&[1, 8]);
/// assert_eq!(drop.forward_batch(&x).data(), x.data()); // identity at inference
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    training: bool,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own
    /// deterministic RNG stream.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            training: true,
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    // Element-wise: one mask over the whole [batch, ...] tensor draws the
    // same per-unit Bernoulli stream as per-sample masks drawn in order.
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        if !self.training || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let data = input
            .data()
            .iter()
            .zip(&mask)
            .map(|(&v, &m)| v * m)
            .collect();
        self.mask = Some(mask);
        Tensor::from_vec(data, input.dims())
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_output.clone(),
            Some(mask) => {
                assert_eq!(
                    mask.len(),
                    grad_output.len(),
                    "dropout grad length mismatch"
                );
                let data = grad_output
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| g * m)
                    .collect();
                Tensor::from_vec(data, grad_output.dims())
            }
        }
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        // Inverted dropout is the identity at inference regardless of the
        // training flag — the serving path never draws masks.
        input.clone()
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_mode_is_identity() {
        let mut d = Dropout::new(0.8, 1);
        d.set_training(false);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]);
        assert_eq!(d.forward_batch(&x).data(), x.data());
        let gx = d.backward_batch(&x, &Tensor::ones(&[1, 3]));
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn training_mode_zeroes_about_p_and_rescales() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[10, 1_000]);
        let y = d.forward_batch(&x);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros = {zeros}");
        // Survivors carry 1/keep = 2.0.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expected value preserved.
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_routes_through_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[4, 16]);
        let y = d.forward_batch(&x);
        let g = d.backward_batch(&x, &Tensor::ones(&[4, 16]));
        for (yo, go) in y.data().iter().zip(g.data()) {
            assert_eq!(yo == &0.0, go == &0.0, "mask mismatch");
        }
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_vec(vec![5.0, -1.0], &[1, 2]);
        assert_eq!(d.forward_batch(&x).data(), x.data());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn parameter_free() {
        assert_eq!(Dropout::new(0.3, 0).param_count(), 0);
        assert_eq!(Dropout::new(0.3, 0).name(), "Dropout");
    }
}
