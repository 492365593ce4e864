//! Dense 2-D convolution, the layer the paper's networks leave dense.
//!
//! The weight matrix is stored in the lowered `[P, C·r²]` layout with the
//! input channel fastest (see `circnn_tensor::im2col`), the same layout the
//! block-circulant CONV layer in `circnn-core` uses — so the two are
//! directly interchangeable and comparable.
//!
//! The forward pass (training and serving alike) is one direct kernel over
//! the whole batch: no im2col matrix, no per-sample tensors. It adds each
//! output's taps in the im2col column order, so it returns the bits of the
//! lowered product (the paper's Fig. 6 pipeline, kept as
//! [`conv2d_direct`](circnn_tensor::im2col::conv2d_direct), its test
//! oracle). The backward pass lowers the forward input with `im2col` and
//! works on the lowered matrices.

use circnn_tensor::im2col::{col2im, im2col, ConvGeometry};
use circnn_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::Layer;

/// A dense convolution layer over `[B, C, H, W]` batches.
///
/// Stateless between calls: the backward pass re-lowers the input it is
/// handed, so the layer keeps no activation cache.
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

    /// The one forward kernel, over the whole `[B, C, H, W]` batch.
    ///
    /// Each sample is first copied into `padded`, a zero-bordered
    /// `[C, H + 2·pad, pw]` grid whose width `pw` lets every tile read
    /// inside it. Then, per output channel (the filter hoisted) and output
    /// row, [`TILE`] output pixels at a time hold their sums in registers
    /// across all `C·r²` taps — at stride 1 each tap is one contiguous
    /// slice zip — and are written once, bias last.
    ///
    /// Every output adds its taps in ascending `(kh, kw, c)` order — the
    /// im2col column order — and skips a tap whose input is exactly zero,
    /// the padding's included, as `Tensor::matmul` skips a zero left-hand
    /// entry. That is
    /// [`conv2d_direct`](circnn_tensor::im2col::conv2d_direct)'s
    /// im2col + matmul arithmetic addition for addition, so the two agree
    /// bit for bit, non-finite weights included.
    fn conv_forward(&self, input: &Tensor, padded: &mut Vec<f32>) -> Tensor {
        let geom = self.geometry(input);
        let batch = input.dims()[0];
        assert!(batch > 0, "empty batch");
        let (oh, ow) = (geom.out_height(), geom.out_width());
        let (c_in, h, w, pad) = (geom.channels, geom.height, geom.width, geom.padding);
        let ph = h + 2 * pad;
        let pw = (w + 2 * pad).max((ow.div_ceil(TILE) * TILE - 1) * geom.stride + geom.kernel);
        padded.clear();
        padded.resize(c_in * ph * pw, 0.0);
        let mut out = Tensor::zeros(&[batch, self.out_channels, oh, ow]);
        let samples = input.data().chunks_exact(geom.input_len());
        let out_samples = out.data_mut().chunks_exact_mut(self.out_channels * oh * ow);
        for (sample, out_sample) in samples.zip(out_samples) {
            for (src, ch) in sample
                .chunks_exact(h * w)
                .zip(padded.chunks_exact_mut(ph * pw))
            {
                for (src_row, dst_row) in src.chunks_exact(w).zip(ch[pad * pw..].chunks_mut(pw)) {
                    dst_row[pad..pad + w].copy_from_slice(src_row);
                }
            }
            let filters = self.weight.data().chunks_exact(geom.patch_len());
            for ((o_plane, filter), &bias) in out_sample
                .chunks_exact_mut(oh * ow)
                .zip(filters)
                .zip(&self.bias)
            {
                for (oy, o_row) in o_plane.chunks_exact_mut(ow).enumerate() {
                    for (t, o_tile) in o_row.chunks_mut(TILE).enumerate() {
                        let ox0 = t * TILE;
                        let acc = if geom.stride == 1 {
                            tile_sums::<true>(padded, &geom, pw, filter, oy, ox0)
                        } else {
                            tile_sums::<false>(padded, &geom, pw, filter, oy, ox0)
                        };
                        for (o, a) in o_tile.iter_mut().zip(acc) {
                            *o = a + bias;
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks a `[B, C, H, W]` batch against the layer and returns the
    /// per-sample geometry.
    fn geometry(&self, input: &Tensor) -> ConvGeometry {
        assert_eq!(
            input.shape().rank(),
            4,
            "conv batch input must be [B, C, H, W]"
        );
        let d = input.dims();
        assert_eq!(d[1], self.in_channels, "input channel mismatch");
        ConvGeometry::new(d[1], d[2], d[3], self.kernel, self.stride, self.padding)
    }
}

/// Output pixels the forward kernel holds in registers at once.
const TILE: usize = 16;

/// The sums (bias not yet added) of one filter's `TILE` outputs at row
/// `oy`, columns `ox0..ox0 + TILE`, read from a sample's zero-bordered
/// `[C, H + 2·pad, pw]` grid; `UNIT` says the stride is 1, which makes
/// every tap one contiguous slice.
#[inline(always)]
fn tile_sums<const UNIT: bool>(
    grid: &[f32],
    g: &ConvGeometry,
    pw: usize,
    filter: &[f32],
    oy: usize,
    ox0: usize,
) -> [f32; TILE] {
    let (r, c_in, s) = (g.kernel, g.channels, g.stride);
    let plane = (g.height + 2 * g.padding) * pw;
    let mut acc = [0.0f32; TILE];
    for kh in 0..r {
        let row = (oy * s + kh) * pw + ox0 * s;
        for kw in 0..r {
            let taps = &filter[(kh * r + kw) * c_in..][..c_in];
            let mut at = row + kw;
            for &wt in taps {
                let xs = &grid[at..];
                at += plane;
                if UNIT {
                    for (a, &x) in acc.iter_mut().zip(&xs[..TILE]) {
                        mac(a, x, wt);
                    }
                } else {
                    let xs = &xs[..(TILE - 1) * s + 1];
                    for (a, &x) in acc.iter_mut().zip(xs.iter().step_by(s)) {
                        mac(a, x, wt);
                    }
                }
            }
        }
    }
    acc
}

/// `acc += x · wt`, skipping (as a select) an exactly zero `x` the way
/// `Tensor::matmul` skips a zero left-hand entry. The sums start at +0 and
/// so never hold −0, which makes adding +0 the identity; the select only
/// matters for a non-finite `wt`.
#[inline(always)]
fn mac(acc: &mut f32, x: f32, wt: f32) {
    let t = x * wt;
    *acc += if x == 0.0 { 0.0 } else { t };
}

impl Layer for Conv2d {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        self.conv_forward(input, &mut Vec::new())
    }

    /// Lowers `input` (the forward input, per the [`Layer`] contract) one
    /// sample at a time with `im2col` and runs the lowered-matrix gradients.
    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let geom = self.geometry(input);
        let batch = input.dims()[0];
        assert_eq!(grad_output.dims()[0], batch, "conv grad batch mismatch");
        let p_out = self.out_channels;
        let (oh, ow, patches) = (geom.out_height(), geom.out_width(), geom.num_patches());
        circnn_tensor::stack_samples(batch, |b| {
            let cols = im2col(&input.index_axis0(b), &geom);
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
            self.wgrad.axpy(1.0, &gmat.transpose().matmul(&cols));
            for p in 0..p_out {
                self.bgrad[p] += (0..patches)
                    .map(|patch| gmat.data()[patch * p_out + p])
                    .sum::<f32>();
            }
            // ∂L/∂cols = g·W  ([patches, patch_len]), then scatter back.
            col2im(&gmat.matmul(&self.weight), &geom)
        })
    }

    fn infer_batch(&self, input: &Tensor, scratch: &mut crate::InferScratch) -> Tensor {
        self.conv_forward(input, scratch.slot())
    }

    fn supports_infer(&self) -> bool {
        true
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
