//! Convolution lowering (the paper's Fig. 6) and its adjoint.
//!
//! CirCNN's CONV-layer algorithm (§3.2) reformulates the tensor convolution
//! of Eqn. (6) as a matrix multiplication `Y = X·F` where each row of `X` is
//! one receptive-field patch. Eqn. (7) then shows that, when every slice
//! `F(·,·,i,j)` is circulant across the channel dimensions, the lowered
//! matrix `F ∈ R^{Cr²×P}` is **block-circulant** — provided the patch layout
//! keeps the input channel as the fastest-varying index within each kernel
//! offset. This module implements exactly that layout:
//!
//! ```text
//! column index of (kh, kw, c)  =  (kh · r + kw) · C + c
//! ```
//!
//! (`c` fastest, matching the paper's `a + C(i−1) + Cr(j−1)` indexing), and
//! the adjoint scatter-add `col2im` used by the backward pass.

use crate::tensor::Tensor;

/// Geometry of a 2-D convolution over a `[C, H, W]` input.
///
/// # Examples
///
/// ```
/// use circnn_tensor::im2col::ConvGeometry;
///
/// let g = ConvGeometry::new(3, 32, 32, 5, 1, 2);
/// assert_eq!((g.out_height(), g.out_width()), (32, 32)); // "same" padding
/// assert_eq!(g.patch_len(), 3 * 5 * 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels `C`.
    pub channels: usize,
    /// Input height `H`.
    pub height: usize,
    /// Input width `W`.
    pub width: usize,
    /// Square kernel size `r`.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry, validating that at least one output pixel exists.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (with padding) does not fit in the input, or if
    /// any of `channels`, `height`, `width`, `kernel`, `stride` is zero.
    pub fn new(
        channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(channels > 0 && height > 0 && width > 0, "degenerate input");
        assert!(kernel > 0 && stride > 0, "degenerate kernel/stride");
        assert!(
            height + 2 * padding >= kernel && width + 2 * padding >= kernel,
            "kernel {kernel} larger than padded input {height}x{width}+{padding}"
        );
        Self {
            channels,
            height,
            width,
            kernel,
            stride,
            padding,
        }
    }

    /// Output feature-map height.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output feature-map width.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Patch length `C·r²` — one row of the lowered matrix.
    pub fn patch_len(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Number of patches (output pixels) `out_h · out_w`.
    pub fn num_patches(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Input element count `C·H·W`.
    pub fn input_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Lowers a `[C, H, W]` input to the patch matrix `[num_patches, C·r²]`.
///
/// Column layout: channel fastest within each kernel offset (see module
/// docs) so a channel-circulant filter bank lowers to a block-circulant
/// matrix per Eqn. (7).
///
/// # Panics
///
/// Panics if `input` is not `[C, H, W]` for the given geometry.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(
        input.dims(),
        &[geom.channels, geom.height, geom.width],
        "input shape does not match geometry"
    );
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (r, c_in) = (geom.kernel, geom.channels);
    let mut out = vec![0.0f32; geom.num_patches() * geom.patch_len()];
    let data = input.data();
    let patch_len = geom.patch_len();
    for oy in 0..oh {
        for ox in 0..ow {
            let patch = (oy * ow + ox) * patch_len;
            for kh in 0..r {
                let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                for kw in 0..r {
                    let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                    let col_base = patch + (kh * r + kw) * c_in;
                    if iy < 0 || ix < 0 || iy >= geom.height as isize || ix >= geom.width as isize {
                        continue; // zero padding: leave zeros
                    }
                    let (iy, ix) = (iy as usize, ix as usize);
                    for c in 0..c_in {
                        out[col_base + c] = data[(c * geom.height + iy) * geom.width + ix];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[geom.num_patches(), patch_len])
}

/// Adjoint of [`im2col`]: scatter-adds a patch-matrix gradient back onto the
/// `[C, H, W]` input grid. Satisfies `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`.
///
/// # Panics
///
/// Panics if `cols` is not `[num_patches, C·r²]` for the geometry.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(
        cols.dims(),
        &[geom.num_patches(), geom.patch_len()],
        "patch matrix shape does not match geometry"
    );
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (r, c_in) = (geom.kernel, geom.channels);
    let mut out = vec![0.0f32; geom.input_len()];
    let data = cols.data();
    let patch_len = geom.patch_len();
    for oy in 0..oh {
        for ox in 0..ow {
            let patch = (oy * ow + ox) * patch_len;
            for kh in 0..r {
                let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                for kw in 0..r {
                    let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                    if iy < 0 || ix < 0 || iy >= geom.height as isize || ix >= geom.width as isize {
                        continue;
                    }
                    let (iy, ix) = (iy as usize, ix as usize);
                    let col_base = patch + (kh * r + kw) * c_in;
                    for c in 0..c_in {
                        out[(c * geom.height + iy) * geom.width + ix] += data[col_base + c];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[geom.channels, geom.height, geom.width])
}

/// The paper's Eqn. (6) as its Fig. 6 lowering: [`im2col`] and one
/// `Tensor::matmul` by the transposed filter matrix, `O(WHr²CP)`, rearranged
/// to `[P, out_h, out_w]` (no bias).
///
/// Each output sums its taps in the im2col column order `(kh, kw, c)`,
/// skipping zero inputs (padding included) as `matmul` skips a zero entry.
/// It is the test oracle of `circnn_nn::Conv2d`'s direct forward kernel,
/// which keeps that order and so returns these bits plus the bias.
///
/// `filters` is `[P, r, r, C]`-shaped logically but passed as a flat tensor
/// `[P, r*r*C]` whose inner layout matches the im2col column order.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn conv2d_direct(input: &Tensor, filters: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(input.dims(), &[geom.channels, geom.height, geom.width]);
    assert_eq!(
        filters.dims()[1],
        geom.patch_len(),
        "filter patch length mismatch"
    );
    let p_out = filters.dims()[0];
    let cols = im2col(input, geom);
    let out = cols.matmul(&filters.transpose());
    // out is [num_patches, P]; rearrange to [P, out_h, out_w].
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let mut chw = vec![0.0f32; p_out * oh * ow];
    for patch in 0..geom.num_patches() {
        for p in 0..p_out {
            chw[p * oh * ow + patch] = out.data()[patch * p_out + p];
        }
    }
    Tensor::from_vec(chw, &[p_out, oh, ow])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_input(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec((0..c * h * w).map(|i| i as f32).collect(), &[c, h, w])
    }

    #[test]
    fn geometry_formulas() {
        let g = ConvGeometry::new(1, 28, 28, 5, 1, 0);
        assert_eq!(g.out_height(), 24);
        assert_eq!(g.out_width(), 24);
        assert_eq!(g.num_patches(), 576);
        assert_eq!(g.patch_len(), 25);
        let strided = ConvGeometry::new(3, 32, 32, 3, 2, 1);
        assert_eq!(strided.out_height(), 16);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn geometry_rejects_oversized_kernel() {
        let _ = ConvGeometry::new(1, 4, 4, 7, 1, 0);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1×1 kernel, stride 1: each patch is exactly one input pixel.
        let g = ConvGeometry::new(2, 3, 3, 1, 1, 0);
        let x = counting_input(2, 3, 3);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[9, 2]);
        // Patch (0,0) holds channel-0 pixel 0 and channel-1 pixel 9.
        assert_eq!(cols.at(&[0, 0]), 0.0);
        assert_eq!(cols.at(&[0, 1]), 9.0);
    }

    #[test]
    fn channel_is_fastest_within_kernel_offset() {
        // The Eqn.-(7) layout requirement.
        let g = ConvGeometry::new(3, 2, 2, 2, 1, 0);
        let x = counting_input(3, 2, 2);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[1, 12]);
        // First three entries: (kh=0,kw=0) across channels 0,1,2 = pixels 0, 4, 8.
        assert_eq!(&cols.data()[0..3], &[0.0, 4.0, 8.0]);
        // Next three: (kh=0, kw=1) across channels = pixels 1, 5, 9.
        assert_eq!(&cols.data()[3..6], &[1.0, 5.0, 9.0]);
    }

    #[test]
    fn padding_produces_zeros() {
        let g = ConvGeometry::new(1, 2, 2, 3, 1, 1);
        let x = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&x, &g);
        assert_eq!(g.num_patches(), 4);
        // Top-left patch: only the bottom-right 2×2 of the kernel overlaps.
        let first = cols.row(0);
        let nonzero = first.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 4);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for arbitrary x, y.
        let g = ConvGeometry::new(2, 5, 4, 3, 1, 1);
        let x = counting_input(2, 5, 4).map(|v| (v * 0.37).sin());
        let y = Tensor::from_vec(
            (0..g.num_patches() * g.patch_len())
                .map(|i| ((i * 7919) % 13) as f32 - 6.0)
                .collect(),
            &[g.num_patches(), g.patch_len()],
        );
        let lhs: f32 = im2col(&x, &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).data())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn direct_convolution_matches_hand_computation() {
        // 1 channel, 3×3 input, 2×2 averaging-ish kernel.
        let g = ConvGeometry::new(1, 3, 3, 2, 1, 0);
        let x = counting_input(1, 3, 3); // 0..9 grid
        let f = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 4]);
        let y = conv2d_direct(&x, &f, &g);
        assert_eq!(y.dims(), &[1, 2, 2]);
        // Patch sums: (0+1+3+4), (1+2+4+5), (3+4+6+7), (4+5+7+8)
        assert_eq!(y.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn stride_two_downsamples() {
        let g = ConvGeometry::new(1, 4, 4, 2, 2, 0);
        let x = counting_input(1, 4, 4);
        let f = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]);
        let y = conv2d_direct(&x, &f, &g);
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[0.0, 2.0, 8.0, 10.0]); // top-left of each patch
    }

    #[test]
    fn multi_output_channels() {
        let g = ConvGeometry::new(1, 3, 3, 2, 1, 0);
        let x = Tensor::ones(&[1, 3, 3]);
        let f = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[2, 4]);
        let y = conv2d_direct(&x, &f, &g);
        assert_eq!(y.dims(), &[2, 2, 2]);
        assert!(y.data()[0..4].iter().all(|&v| v == 4.0));
        assert!(y.data()[4..8].iter().all(|&v| v == 8.0));
    }
}
