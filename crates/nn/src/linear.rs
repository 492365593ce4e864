//! The dense fully-connected layer — the `O(n²)` baseline that CirCNN's
//! block-circulant FC layer (in `circnn-core`) is compared against.

use circnn_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::Layer;

/// A dense affine layer `y = W·x + b` with `W ∈ R^{out×in}`.
///
/// Supports an optional *freeze mask* used by the pruning baseline: masked
/// weights are clamped to zero and their gradients suppressed, which is how
/// [34, 35]-style "train → prune → retrain" is realized here.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Linear, Layer};
/// use circnn_tensor::{init::seeded_rng, Tensor};
///
/// let mut layer = Linear::new(&mut seeded_rng(1), 3, 2);
/// let y = layer.forward_batch(&Tensor::ones(&[1, 3]));
/// assert_eq!(y.dims(), &[1, 2]);
/// assert_eq!(layer.param_count(), 3 * 2 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Vec<f32>,
    wgrad: Tensor,
    bgrad: Vec<f32>,
    mask: Option<Vec<f32>>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate linear layer");
        Self {
            weight: init::he_normal(rng, &[out_dim, in_dim], in_dim),
            bias: vec![0.0; out_dim],
            wgrad: Tensor::zeros(&[out_dim, in_dim]),
            bgrad: vec![0.0; out_dim],
            mask: None,
            in_dim,
            out_dim,
        }
    }

    /// Creates a layer from an explicit weight matrix and bias.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or `bias.len()` differs from the row
    /// count.
    pub fn from_weights(weight: Tensor, bias: Vec<f32>) -> Self {
        assert_eq!(weight.shape().rank(), 2, "weight must be a matrix");
        let (out_dim, in_dim) = (weight.dims()[0], weight.dims()[1]);
        assert_eq!(bias.len(), out_dim, "bias length mismatch");
        Self {
            wgrad: Tensor::zeros(&[out_dim, in_dim]),
            bgrad: vec![0.0; out_dim],
            weight,
            bias,
            mask: None,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension `n`.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension `m`.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Borrow of the weight matrix `[out, in]`.
    #[inline]
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable borrow of the weight matrix (used by pruning / quantization).
    #[inline]
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Borrow of the bias vector.
    #[inline]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Installs a freeze mask (1.0 = trainable, 0.0 = pruned). Masked
    /// weights are immediately zeroed.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the weight count.
    pub fn set_mask(&mut self, mask: Vec<f32>) {
        assert_eq!(mask.len(), self.weight.len(), "mask length mismatch");
        for (w, &m) in self.weight.data_mut().iter_mut().zip(&mask) {
            *w *= m;
        }
        self.mask = Some(mask);
    }

    /// The installed freeze mask, if any.
    pub fn mask(&self) -> Option<&[f32]> {
        self.mask.as_deref()
    }

    /// Number of nonzero weights (after masking).
    pub fn nonzero_weights(&self) -> usize {
        self.weight.data().iter().filter(|&&w| w != 0.0).count()
    }

    /// The batched affine kernel shared by the training-side
    /// [`Layer::forward_batch`] and the read-only [`Layer::infer_batch`]:
    /// one loop nest, one accumulation order, bit-identical outputs.
    fn apply_batch(&self, input: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        assert!(batch > 0, "empty batch");
        assert_eq!(
            input.len(),
            batch * self.in_dim,
            "linear batch input length mismatch"
        );
        let x = input.data();
        let w = self.weight.data();
        let mut out = vec![0.0f32; batch * self.out_dim];
        for b in 0..batch {
            let xr = &x[b * self.in_dim..(b + 1) * self.in_dim];
            let yr = &mut out[b * self.out_dim..(b + 1) * self.out_dim];
            for i in 0..self.out_dim {
                let row = &w[i * self.in_dim..(i + 1) * self.in_dim];
                let mut acc = 0.0f32;
                for (wij, xj) in row.iter().zip(xr) {
                    acc += wij * xj;
                }
                yr[i] = acc + self.bias[i];
            }
        }
        Tensor::from_vec(out, &[batch, self.out_dim])
    }
}

impl Layer for Linear {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        self.apply_batch(input)
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        self.apply_batch(input)
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        assert_eq!(batch, grad_output.dims()[0], "batch size mismatch");
        assert_eq!(
            grad_output.len(),
            batch * self.out_dim,
            "linear grad length mismatch"
        );
        assert_eq!(
            input.len(),
            batch * self.in_dim,
            "linear batch input length mismatch"
        );
        let x = input.data();
        let g = grad_output.data();
        let wg = self.wgrad.data_mut();
        let w = self.weight.data();
        let mut gx = vec![0.0f32; batch * self.in_dim];
        // Sample-outer loops: a batch accumulates exactly what its samples
        // would as batches of one, in order.
        for b in 0..batch {
            let xr = &x[b * self.in_dim..(b + 1) * self.in_dim];
            let gr = &g[b * self.out_dim..(b + 1) * self.out_dim];
            let gxr = &mut gx[b * self.in_dim..(b + 1) * self.in_dim];
            for (i, &gi) in gr.iter().enumerate() {
                self.bgrad[i] += gi;
                if gi == 0.0 {
                    continue;
                }
                let row = &w[i * self.in_dim..(i + 1) * self.in_dim];
                let wrow = &mut wg[i * self.in_dim..(i + 1) * self.in_dim];
                for j in 0..self.in_dim {
                    wrow[j] += gi * xr[j];
                    gxr[j] += gi * row[j];
                }
            }
        }
        if let Some(mask) = &self.mask {
            for (slot, &m) in wg.iter_mut().zip(mask) {
                *slot *= m;
            }
        }
        Tensor::from_vec(gx, &[batch, self.in_dim])
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(self.weight.data_mut(), self.wgrad.data_mut());
        visitor(&mut self.bias, &mut self.bgrad);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::{check_input_gradient, check_param_gradients};
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn forward_matches_hand_computation() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut layer = Linear::from_weights(w, vec![0.5, -0.5]);
        let y = layer.forward_batch(&Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]));
        assert_eq!(y.data(), &[1.0 - 3.0 + 0.5, 4.0 - 6.0 - 0.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(11);
        let mut layer = Linear::new(&mut rng, 5, 4);
        let input = circnn_tensor::init::uniform(&mut rng, &[3, 5], -1.0, 1.0);
        check_input_gradient(&mut layer, &input, 2e-2);
        check_param_gradients(&mut layer, &input, 2e-2);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = seeded_rng(3);
        let mut layer = Linear::new(&mut rng, 2, 2);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        layer.forward_batch(&x);
        layer.backward_batch(&x, &g);
        let mut first = Vec::new();
        layer.visit_params(&mut |_, gr| first.push(gr.to_vec()));
        layer.forward_batch(&x);
        layer.backward_batch(&x, &g);
        let mut second = Vec::new();
        layer.visit_params(&mut |_, gr| second.push(gr.to_vec()));
        for (a, b) in first.iter().zip(&second) {
            for (x1, x2) in a.iter().zip(b) {
                assert!(
                    (x2 - 2.0 * x1).abs() < 1e-6,
                    "should double when accumulated"
                );
            }
        }
        layer.zero_grads();
        layer.visit_params(&mut |_, gr| assert!(gr.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn mask_freezes_pruned_weights() {
        let mut rng = seeded_rng(5);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let mut mask = vec![1.0f32; 6];
        mask[0] = 0.0;
        mask[4] = 0.0;
        layer.set_mask(mask);
        assert_eq!(layer.weight().data()[0], 0.0);
        assert_eq!(layer.weight().data()[4], 0.0);
        assert_eq!(layer.nonzero_weights(), 4);
        // Masked entries receive zero gradient.
        let x = Tensor::ones(&[1, 3]);
        layer.forward_batch(&x);
        layer.backward_batch(&x, &Tensor::ones(&[1, 2]));
        let mut grads = Vec::new();
        layer.visit_params(&mut |_, g| grads.push(g.to_vec()));
        assert_eq!(grads[0][0], 0.0);
        assert_eq!(grads[0][4], 0.0);
        assert!(grads[0][1] != 0.0);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_validates_input() {
        let mut layer = Linear::new(&mut seeded_rng(0), 3, 2);
        let _ = layer.forward_batch(&Tensor::ones(&[1, 4]));
    }

    #[test]
    fn param_count_and_name() {
        let layer = Linear::new(&mut seeded_rng(0), 10, 7);
        assert_eq!(layer.param_count(), 77);
        assert_eq!(layer.name(), "Linear");
    }
}
