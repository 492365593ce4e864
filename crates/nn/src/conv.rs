//! Dense 2-D convolution via im2col lowering (the paper's Fig. 6 pipeline).
//!
//! The weight matrix is stored in the lowered `[P, C·r²]` layout with the
//! input channel fastest (see `circnn_tensor::im2col`), the same layout the
//! block-circulant CONV layer in `circnn-core` uses — so the two are
//! directly interchangeable and comparable.

use circnn_tensor::im2col::{col2im, im2col, ConvGeometry};
use circnn_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::Layer;

/// A dense convolution layer over `[B, C, H, W]` batches.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Conv2d, Layer};
/// use circnn_tensor::{init::seeded_rng, Tensor};
///
/// // 1→4 channels, 5×5 kernel, stride 1, no padding (LeNet-5's first layer).
/// let mut conv = Conv2d::new(&mut seeded_rng(0), 1, 4, 5, 1, 0);
/// let y = conv.forward_batch(&Tensor::ones(&[1, 1, 28, 28]));
/// assert_eq!(y.dims(), &[1, 4, 24, 24]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[P, C·r²]` in im2col layout (channel fastest).
    weight: Tensor,
    bias: Vec<f32>,
    wgrad: Tensor,
    bgrad: Vec<f32>,
    /// Per-sample `(geometry, im2col matrix)` caches recorded by
    /// `forward_batch` (training mode only) for `backward_batch`.
    batch_caches: Vec<(ConvGeometry, Tensor)>,
    training: bool,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension argument is zero.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let patch = in_channels * kernel * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: init::he_normal(rng, &[out_channels, patch], patch),
            bias: vec![0.0; out_channels],
            wgrad: Tensor::zeros(&[out_channels, patch]),
            bgrad: vec![0.0; out_channels],
            batch_caches: Vec::new(),
            training: true,
        }
    }

    /// Creates a layer from explicit lowered weights `[P, C·r²]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn from_weights(
        weight: Tensor,
        bias: Vec<f32>,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert_eq!(weight.shape().rank(), 2);
        let out_channels = weight.dims()[0];
        assert_eq!(
            weight.dims()[1],
            in_channels * kernel * kernel,
            "patch length mismatch"
        );
        assert_eq!(bias.len(), out_channels);
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            wgrad: Tensor::zeros(&[out_channels, in_channels * kernel * kernel]),
            bgrad: vec![0.0; out_channels],
            weight,
            bias,
            batch_caches: Vec::new(),
            training: true,
        }
    }

    /// Lowered weight matrix `[P, C·r²]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn geometry_for(&self, input: &Tensor) -> ConvGeometry {
        assert_eq!(input.shape().rank(), 3, "conv input must be [C, H, W]");
        assert_eq!(input.dims()[0], self.in_channels, "input channel mismatch");
        ConvGeometry::new(
            self.in_channels,
            input.dims()[1],
            input.dims()[2],
            self.kernel,
            self.stride,
            self.padding,
        )
    }
}

impl Conv2d {
    /// Shared forward core: returns the output plus the caches backward
    /// needs. Takes `&self` — the dense conv pipeline is pure — so the
    /// read-only [`Layer::infer_batch`] path reuses it verbatim.
    fn forward_impl(&self, input: &Tensor) -> (Tensor, ConvGeometry, Tensor) {
        let geom = self.geometry_for(input);
        let cols = im2col(input, &geom);
        // [patches, patch_len] · [patch_len, P] → [patches, P]
        let out = cols.matmul(&self.weight.transpose());
        let (oh, ow) = (geom.out_height(), geom.out_width());
        let mut chw = vec![0.0f32; self.out_channels * oh * ow];
        for patch in 0..geom.num_patches() {
            for p in 0..self.out_channels {
                chw[p * oh * ow + patch] = out.data()[patch * self.out_channels + p] + self.bias[p];
            }
        }
        (
            Tensor::from_vec(chw, &[self.out_channels, oh, ow]),
            geom,
            cols,
        )
    }
}

impl Layer for Conv2d {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        assert!(batch > 0, "empty batch");
        assert_eq!(
            input.shape().rank(),
            4,
            "conv batch input must be [B, C, H, W]"
        );
        self.batch_caches.clear();
        circnn_tensor::stack_samples(batch, |b| {
            let (y, geom, cols) = self.forward_impl(&input.index_axis0(b));
            // Caches only matter to a backward pass; at inference they
            // would just pile up im2col matrices.
            if self.training {
                self.batch_caches.push((geom, cols));
            }
            y
        })
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        let batch = grad_output.dims()[0];
        assert_eq!(
            batch,
            self.batch_caches.len(),
            "backward_batch called before forward_batch (or in inference mode)"
        );
        let p_out = self.out_channels;
        circnn_tensor::stack_samples(batch, |b| {
            let (geom, cols) = &self.batch_caches[b];
            let (oh, ow, patches) = (geom.out_height(), geom.out_width(), geom.num_patches());
            let g = grad_output.index_axis0(b);
            assert_eq!(g.dims(), &[p_out, oh, ow], "conv grad shape mismatch");
            // Rearrange grad to [patches, P].
            let mut gmat = vec![0.0f32; patches * p_out];
            for p in 0..p_out {
                for patch in 0..patches {
                    gmat[patch * p_out + p] = g.data()[p * oh * ow + patch];
                }
            }
            let gmat = Tensor::from_vec(gmat, &[patches, p_out]);
            // ∂L/∂W = gᵀ·cols  ([P, patch_len])
            self.wgrad.axpy(1.0, &gmat.transpose().matmul(cols));
            for p in 0..p_out {
                self.bgrad[p] += (0..patches)
                    .map(|patch| gmat.data()[patch * p_out + p])
                    .sum::<f32>();
            }
            // ∂L/∂cols = g·W  ([patches, patch_len]), then scatter back.
            col2im(&gmat.matmul(&self.weight), geom)
        })
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        let batch = input.dims()[0];
        assert!(batch > 0, "empty batch");
        assert_eq!(
            input.shape().rank(),
            4,
            "conv batch input must be [B, C, H, W]"
        );
        circnn_tensor::stack_samples(batch, |b| self.forward_impl(&input.index_axis0(b)).0)
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
        if !training {
            self.batch_caches.clear();
        }
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(self.weight.data_mut(), self.wgrad.data_mut());
        visitor(&mut self.bias, &mut self.bgrad);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::{check_input_gradient, check_param_gradients};
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn output_shape_follows_geometry() {
        let mut rng = seeded_rng(0);
        let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1);
        let y = conv.forward_batch(&Tensor::ones(&[2, 3, 16, 16]));
        assert_eq!(y.dims(), &[2, 8, 16, 16]); // same padding
        let mut strided = Conv2d::new(&mut rng, 3, 8, 3, 2, 1);
        let y2 = strided.forward_batch(&Tensor::ones(&[1, 3, 16, 16]));
        assert_eq!(y2.dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn identity_filter_passes_channel_through() {
        // Single 1×1 filter with weight 1 on channel 0.
        let w = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let mut conv = Conv2d::from_weights(w, vec![0.0], 2, 1, 1, 0);
        let x = Tensor::from_vec((0..18).map(|i| i as f32).collect(), &[1, 2, 3, 3]);
        let y = conv.forward_batch(&x);
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), &x.data()[0..9]);
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let w = Tensor::from_vec(vec![0.0; 4], &[1, 4]);
        let mut conv = Conv2d::from_weights(w, vec![2.5], 1, 2, 1, 0);
        let y = conv.forward_batch(&Tensor::ones(&[1, 1, 3, 3]));
        assert!(y.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(21);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let input = circnn_tensor::init::uniform(&mut rng, &[3, 2, 5, 5], -1.0, 1.0);
        check_input_gradient(&mut conv, &input, 2e-2);
        check_param_gradients(&mut conv, &input, 2e-2);
    }

    #[test]
    fn strided_gradients_match_finite_differences() {
        let mut rng = seeded_rng(22);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 2, 1);
        let input = circnn_tensor::init::uniform(&mut rng, &[3, 1, 6, 6], -1.0, 1.0);
        check_input_gradient(&mut conv, &input, 2e-2);
        check_param_gradients(&mut conv, &input, 2e-2);
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(&mut seeded_rng(0), 3, 16, 5, 1, 2);
        assert_eq!(conv.param_count(), 16 * 3 * 25 + 16);
        assert_eq!(conv.name(), "Conv2d");
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn validates_input_channels() {
        let mut conv = Conv2d::new(&mut seeded_rng(0), 3, 4, 3, 1, 1);
        let _ = conv.forward_batch(&Tensor::ones(&[1, 2, 8, 8]));
    }
}
