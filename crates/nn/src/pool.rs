//! Pooling layers (paper §2.1: "the max pooling is the dominant type of
//! pooling strategy in state-of-the-art DCNNs").

use circnn_tensor::Tensor;

use crate::infer::InferScratch;
use crate::layer::Layer;

fn pooled_extent(inp: usize, window: usize, stride: usize) -> usize {
    assert!(
        inp >= window,
        "pool window {window} larger than input {inp}"
    );
    (inp - window) / stride + 1
}

/// `[B, C, H, W]` dims and pooled extents of a pool layer's batch input.
fn pool_dims(input: &Tensor, window: usize, stride: usize) -> ([usize; 4], usize, usize) {
    assert_eq!(
        input.shape().rank(),
        4,
        "pool batch input must be [B, C, H, W]"
    );
    let d = input.dims();
    assert!(d[0] > 0, "empty batch");
    let (oh, ow) = (
        pooled_extent(d[2], window, stride),
        pooled_extent(d[3], window, stride),
    );
    ([d[0], d[1], d[2], d[3]], oh, ow)
}

/// Shared read-only pooling core over a `[B, C, H, W]` batch, one output
/// row `(plane, oy)` at a time: every window of the row starts at `init`,
/// folds its inputs in with `fold` in `(ky, kx)` order, and ends as
/// `finish` of the fold. Pure (no layer state), so both pool layers serve
/// through it.
fn pool_rows(
    input: &Tensor,
    window: usize,
    stride: usize,
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) -> Tensor {
    let ([batch, c, h, w], oh, ow) = pool_dims(input, window, stride);
    let mut out = vec![init; batch * c * oh * ow];
    for (plane, o_plane) in input
        .data()
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(oh * ow))
    {
        for (oy, o_row) in o_plane.chunks_exact_mut(ow).enumerate() {
            for ky in 0..window {
                let row = &plane[(oy * stride + ky) * w..][..w];
                for kx in 0..window {
                    for (o, &x) in o_row.iter_mut().zip(row[kx..].iter().step_by(stride)) {
                        *o = fold(*o, x);
                    }
                }
            }
            for o in o_row.iter_mut() {
                *o = finish(*o);
            }
        }
    }
    Tensor::from_vec(out, &[batch, c, oh, ow])
}

/// Max pooling over non-overlapping (or strided) square windows.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Layer, MaxPool2d};
/// use circnn_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
/// let y = pool.forward_batch(&x);
/// assert_eq!(y.dims(), &[1, 1, 2, 2]);
/// assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    /// For each output element of the last training-mode `forward_batch`,
    /// the flat batch-input index of its window's maximum.
    argmax: Vec<usize>,
    training: bool,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a `window × window` kernel.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window > 0 && stride > 0, "degenerate pooling");
        Self {
            window,
            stride,
            argmax: Vec::new(),
            training: true,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        let ([batch, c, h, w], oh, ow) = pool_dims(input, self.window, self.stride);
        let data = input.data();
        let mut out = Vec::with_capacity(batch * c * oh * ow);
        self.argmax.clear();
        for plane in 0..batch * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    // The first strictly greater element wins; a window with
                    // nothing above −∞ (all −∞ or NaN) routes its gradient
                    // to its own first element.
                    let first = (plane * h + oy * self.stride) * w + ox * self.stride;
                    let (mut best, mut arg) = (f32::NEG_INFINITY, first);
                    for ky in 0..self.window {
                        for kx in 0..self.window {
                            let idx = first + ky * w + kx;
                            if data[idx] > best {
                                best = data[idx];
                                arg = idx;
                            }
                        }
                    }
                    out.push(best);
                    if self.training {
                        self.argmax.push(arg);
                    }
                }
            }
        }
        Tensor::from_vec(out, &[batch, c, oh, ow])
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.len(),
            self.argmax.len(),
            "backward_batch called before forward_batch (or in inference mode)"
        );
        let mut gx = vec![0.0f32; input.len()];
        for (&g, &idx) in grad_output.data().iter().zip(&self.argmax) {
            gx[idx] += g;
        }
        Tensor::from_vec(gx, input.dims())
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut InferScratch) -> Tensor {
        pool_rows(
            input,
            self.window,
            self.stride,
            f32::NEG_INFINITY,
            f32::max,
            |best| best,
        )
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
        if !training {
            self.argmax.clear();
        }
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Average pooling over strided square windows.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
}

impl AvgPool2d {
    /// Creates an average-pool layer with a `window × window` kernel.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window > 0 && stride > 0, "degenerate pooling");
        Self { window, stride }
    }
}

impl Layer for AvgPool2d {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        // Stateless: training and serving share one arithmetic.
        self.infer_batch(input, &mut InferScratch::new())
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let ([batch, c, h, w], oh, ow) = pool_dims(input, self.window, self.stride);
        assert_eq!(
            grad_output.dims(),
            &[batch, c, oh, ow],
            "pool grad shape mismatch"
        );
        let norm = 1.0 / (self.window * self.window) as f32;
        let mut gx = vec![0.0f32; input.len()];
        let g = grad_output.data();
        for plane in 0..batch * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = g[(plane * oh + oy) * ow + ox] * norm;
                    for ky in 0..self.window {
                        for kx in 0..self.window {
                            let iy = oy * self.stride + ky;
                            let ix = ox * self.stride + kx;
                            gx[(plane * h + iy) * w + ix] += gv;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gx, input.dims())
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut InferScratch) -> Tensor {
        let norm = 1.0 / (self.window * self.window) as f32;
        pool_rows(
            input,
            self.window,
            self.stride,
            0.0,
            |acc, x| acc + x,
            |acc| acc * norm,
        )
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    #[test]
    fn max_pool_selects_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward_batch(&x);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], &[2, 1, 2, 2]);
        pool.forward_batch(&x);
        let gx = pool.backward_batch(&x, &Tensor::from_vec(vec![5.0, 6.0], &[2, 1, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0, 6.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_routes_a_window_without_a_maximum_to_its_own_first_element() {
        // Channel 1 is all −∞: no element beats the −∞ seed, so its
        // gradient must land on channel 1's first pixel, not channel 0's.
        let mut pool = MaxPool2d::new(2, 2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, ninf, ninf, ninf, ninf],
            &[1, 2, 2, 2],
        );
        let y = pool.forward_batch(&x);
        assert_eq!(y.data(), &[4.0, ninf]);
        let gx = pool.backward_batch(&x, &Tensor::from_vec(vec![10.0, 20.0], &[1, 2, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 10.0, 20.0, 0.0, 0.0, 0.0]);
        // Same for an all-NaN window in the second sample of a batch.
        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan], &[2, 1, 2, 2]);
        pool.forward_batch(&x);
        let gx = pool.backward_batch(&x, &Tensor::from_vec(vec![10.0, 20.0], &[2, 1, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 10.0, 20.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_keeps_the_first_of_tied_maxima() {
        // Strict `>`: the first of equal values wins, signed zeros included.
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![-0.0, 0.0, 0.0, -0.0], &[1, 1, 2, 2]);
        let y = pool.forward_batch(&x);
        assert_eq!(y.data()[0].to_bits(), (-0.0f32).to_bits());
        let gx = pool.backward_batch(&x, &Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_serving_row_pass_matches_training_forward_bit_for_bit() {
        // 2×2 windows at stride 3 (the gap pixels are never read), one
        // window per awkward case, in two planes of a batch of two.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let windows: [[f32; 4]; 8] = [
            [-0.0, 0.0, -0.0, 0.0],
            [0.0, -0.0, 0.0, -0.0],
            [nan, -1.0, 2.0, 0.5],
            [-1.0, 0.5, 2.0, nan],
            [nan, nan, nan, nan],
            [ninf, ninf, ninf, ninf],
            [nan, -0.0, 0.0, nan],
            [ninf, nan, -0.0, ninf],
        ];
        let (rows, cols) = (2, 4);
        let (h, w) = (3 * rows - 1, 3 * cols - 1);
        let mut x = vec![100.0f32; 2 * h * w];
        for plane in 0..2 {
            for (i, win) in windows.iter().enumerate() {
                // The second plane takes the windows in reverse order.
                let slot = if plane == 0 { i } else { windows.len() - 1 - i };
                let (oy, ox) = (slot / cols, slot % cols);
                for (k, &v) in win.iter().enumerate() {
                    x[(plane * h + 3 * oy + k / 2) * w + 3 * ox + k % 2] = v;
                }
            }
        }
        let x = Tensor::from_vec(x, &[2, 1, h, w]);
        let mut pool = MaxPool2d::new(2, 3);
        let trained = pool.forward_batch(&x);
        let served = pool.infer_batch(&x, &mut InferScratch::new());
        assert_eq!(served.dims(), &[2, 1, rows, cols]);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served), bits(&trained));
        let expect = [-0.0, 0.0, 2.0, 2.0, ninf, ninf, -0.0, -0.0].map(f32::to_bits);
        assert_eq!(bits(&served)[..8], expect);
    }

    #[test]
    fn avg_pool_averages() {
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = pool.forward_batch(&x);
        assert_eq!(y.data(), &[2.5]);
        let gx = pool.backward_batch(&x, &Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_training_forward_is_the_per_window_sum_bit_for_bit() {
        // The training forward serves through the same core as
        // `infer_batch`; pin it to the plain per-window reference
        // (`acc = +0; acc += x; acc · 1/r²`), signed zeros included.
        let mut vals: Vec<f32> = (0..2 * 2 * 5 * 5)
            .map(|i| (i as f32 * 0.713).sin() * 1e3)
            .collect();
        vals[..3].copy_from_slice(&[-0.0, -0.0, -0.0]);
        vals[5..8].copy_from_slice(&[-0.0, -0.0, -0.0]);
        let x = Tensor::from_vec(vals, &[2, 2, 5, 5]);
        let (win, stride) = (3, 2);
        let y = AvgPool2d::new(win, stride).forward_batch(&x);
        let norm = 1.0 / (win * win) as f32;
        let mut expect = Vec::new();
        for plane in 0..4 {
            for oy in 0..2 {
                for ox in 0..2 {
                    let mut acc = 0.0f32;
                    for ky in 0..win {
                        for kx in 0..win {
                            acc += x.data()[(plane * 5 + oy * stride + ky) * 5 + ox * stride + kx];
                        }
                    }
                    expect.push(acc * norm);
                }
            }
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(y.data()), bits(&expect));
        let mut zeros = AvgPool2d::new(2, 2);
        let z = zeros.forward_batch(&Tensor::from_vec(vec![-0.0; 4], &[1, 1, 2, 2]));
        assert_eq!(
            z.data()[0].to_bits(),
            0.0f32.to_bits(),
            "+0 seed absorbs −0"
        );
    }

    #[test]
    fn multi_channel_pooling_is_independent() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0],
            &[1, 2, 2, 2],
        );
        let y = pool.forward_batch(&x);
        assert_eq!(y.data(), &[4.0, -1.0]);
    }

    #[test]
    fn gradient_checks() {
        // Distinct values so the max is stable under ±ε nudges.
        let x = Tensor::from_vec(
            (0..96)
                .map(|i| (i as f32 * 0.713).sin() * 3.0 + i as f32 * 0.01)
                .collect(),
            &[3, 2, 4, 4],
        );
        check_input_gradient(&mut MaxPool2d::new(2, 2), &x, 1e-2);
        check_input_gradient(&mut AvgPool2d::new(2, 2), &x, 1e-2);
        check_input_gradient(&mut MaxPool2d::new(3, 1), &x, 1e-2);
        check_input_gradient(&mut AvgPool2d::new(3, 1), &x, 1e-2);
    }

    #[test]
    fn inference_mode_records_no_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        pool.set_training(false);
        let x = Tensor::ones(&[2, 1, 2, 2]);
        let y = pool.forward_batch(&x);
        let mut scratch = InferScratch::new();
        assert_eq!(y.data(), pool.infer_batch(&x, &mut scratch).data());
        assert!(pool.argmax.is_empty());
    }

    #[test]
    fn overlapping_stride() {
        let mut pool = MaxPool2d::new(3, 2);
        let x = Tensor::from_vec((0..25).map(|i| i as f32).collect(), &[1, 1, 5, 5]);
        let y = pool.forward_batch(&x);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn rejects_oversized_window() {
        let mut pool = MaxPool2d::new(5, 1);
        let _ = pool.forward_batch(&Tensor::ones(&[1, 1, 3, 3]));
    }
}
