//! The block-circulant fully-connected layer (paper §3.1, Algorithms 1–2).
//!
//! This is the drop-in replacement for `circnn_nn::Linear`: same `Layer`
//! contract, same training loop — but `O(pq·k log k)` compute and `O(pqk)`
//! storage. The defining vectors are the canonical trainable parameters
//! (the paper: "We directly train the vectors w_ij"); the spectra cache is
//! refreshed lazily after the optimizer mutates them.

use circnn_nn::Layer;
use circnn_tensor::Tensor;
use rand::Rng;

use crate::engine::{Activation, Epilogue};
use crate::error::CircError;
use crate::matrix::{default_batch_threads, BlockCirculantMatrix, Workspace};
use crate::quantized::{QuantConfig, QuantizedLinear, QuantizedOperator};

/// A block-circulant affine layer `y = W·x + b`.
///
/// # Examples
///
/// ```
/// use circnn_core::CirculantLinear;
/// use circnn_nn::Layer;
/// use circnn_tensor::{init::seeded_rng, Tensor};
///
/// # fn main() -> Result<(), circnn_core::CircError> {
/// let mut rng = seeded_rng(0);
/// let mut layer = CirculantLinear::new(&mut rng, 64, 32, 16)?;
/// let y = layer.forward_batch(&Tensor::ones(&[1, 64]));
/// assert_eq!(y.dims(), &[1, 32]);
/// // 32·64/16 weight parameters + 32 bias — 16× fewer weights than dense.
/// assert_eq!(layer.param_count(), 32 * 64 / 16 + 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CirculantLinear {
    bias: Vec<f32>,
    wgrad: Vec<f32>,
    bgrad: Vec<f32>,
    /// The operator owns the canonical trainable defining vectors *and*
    /// their spectra cache — one copy of the weights, refreshed when
    /// `dirty` (the optimizer mutates them through
    /// [`Layer::visit_params`]).
    engine: BlockCirculantMatrix,
    dirty: bool,
    /// Scratch arena + the spectra of the batch in flight (a single
    /// sample is a batch of one).
    ws: Workspace,
    /// Batch size of the spectra currently held in `ws`.
    batch: Option<usize>,
}

impl CirculantLinear {
    /// Creates a layer mapping `in_dim → out_dim` with circulant blocks of
    /// size `block`, He-style initialization and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] for a non-power-of-two block size or zero
    /// dimensions.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        block: usize,
    ) -> Result<Self, CircError> {
        let engine = BlockCirculantMatrix::random(rng, out_dim, in_dim, block)?;
        Ok(Self {
            bias: vec![0.0; out_dim],
            wgrad: vec![0.0; engine.num_parameters()],
            bgrad: vec![0.0; out_dim],
            engine,
            dirty: false,
            ws: Workspace::new(),
            batch: None,
        })
    }

    /// Builds a layer from explicit defining vectors and bias.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] on invalid block size or weight-buffer length.
    pub fn from_weights(
        in_dim: usize,
        out_dim: usize,
        block: usize,
        weights: &[f32],
        bias: Vec<f32>,
    ) -> Result<Self, CircError> {
        let engine = BlockCirculantMatrix::from_weights(out_dim, in_dim, block, weights)?;
        if bias.len() != out_dim {
            return Err(CircError::DimensionMismatch {
                expected: out_dim,
                got: bias.len(),
            });
        }
        Ok(Self {
            wgrad: vec![0.0; engine.num_parameters()],
            bgrad: vec![0.0; out_dim],
            bias,
            engine,
            dirty: false,
            ws: Workspace::new(),
            batch: None,
        })
    }

    /// Input dimension `n`.
    pub fn in_dim(&self) -> usize {
        self.engine.cols()
    }

    /// Output dimension `m`.
    pub fn out_dim(&self) -> usize {
        self.engine.rows()
    }

    /// Circulant block size `k`.
    pub fn block_size(&self) -> usize {
        self.engine.block_size()
    }

    /// Weight-parameter compression ratio versus a dense layer.
    pub fn compression_ratio(&self) -> f64 {
        self.engine.compression_ratio()
    }

    /// The defining vectors.
    pub fn weights(&self) -> &[f32] {
        self.engine.weights()
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The underlying operator with spectra guaranteed fresh (for
    /// inspection / hand-off to the hardware simulator).
    pub fn operator(&mut self) -> &BlockCirculantMatrix {
        self.sync();
        &self.engine
    }

    /// Dense materialization of the current weights (tests, export).
    pub fn to_dense(&mut self) -> Tensor {
        self.sync();
        self.engine.to_dense()
    }

    /// Quantizes the layer for 16-bit fixed-point serving: i16 resident
    /// weight spectra with per-block-row scales calibrated from the
    /// current (synced) weights, bias carried in f32 and fused into the
    /// dequantizing IFFT epilogue.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::QuantOverflow`] if `cfg` cannot guarantee
    /// overflow-free i32 accumulation for this layer's block-column count.
    pub fn quantize(&mut self, cfg: QuantConfig) -> Result<QuantizedLinear, CircError> {
        self.sync();
        let op = QuantizedOperator::from_operator(&self.engine, cfg)?;
        QuantizedLinear::new(op, self.bias.clone())
    }

    fn sync(&mut self) {
        if self.dirty {
            self.engine
                .refresh_spectra()
                .expect("spectra refresh cannot fail after construction");
            self.dirty = false;
        }
    }

    /// The batched affine kernel `Y = W·X + b` shared by the training-side
    /// [`Layer::forward_batch`] and the read-only [`Layer::infer_batch`]:
    /// one fused engine call — the bias rides the plane IFFT of each block
    /// (the engine's fused epilogue) instead of a separate sweep over the
    /// output — and bit-identical outputs on both paths.
    fn batched_affine(&self, x: &[f32], batch: usize, ws: &mut Workspace) -> Vec<f32> {
        let mut out = vec![0.0f32; batch * self.out_dim()];
        let epi = Epilogue {
            bias: Some(&self.bias),
            act: Activation::Identity,
        };
        self.engine
            .forward_batch_fused(x, batch, ws, &mut out, &epi, default_batch_threads())
            .expect("circulant linear batch input length mismatch");
        out
    }
}

impl Layer for CirculantLinear {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        // Always the batched engine — even for B = 1 — so training-side and
        // serving-side forwards are the same arithmetic at every batch size.
        // The layer's arena keeps the input spectra for the backward pass.
        self.sync();
        let batch = input.dims()[0];
        // Take the arena out so the shared kernel can borrow `self` and
        // the workspace disjointly.
        let mut ws = std::mem::take(&mut self.ws);
        let y = self.batched_affine(input.data(), batch, &mut ws);
        self.ws = ws;
        self.batch = Some(batch);
        Tensor::from_vec(y, &[batch, self.out_dim()])
    }

    /// Algorithm 2, both halves, over the batch the last forward recorded:
    /// returns the `[batch, n]` input gradient and accumulates the weight
    /// and bias gradients.
    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        let batch = self
            .batch
            .expect("backward_batch called before forward_batch");
        assert_eq!(grad_output.dims()[0], batch, "batch size mismatch");
        self.sync();
        let g = grad_output.data();
        let mut gx = vec![0.0f32; batch * self.in_dim()];
        // Transpose apply first: it records the gradient spectra that the
        // frequency-domain weight-gradient reduction then reuses.
        self.engine
            .backward_batch_into(g, batch, &mut self.ws, &mut gx)
            .expect("circulant linear grad length mismatch");
        self.engine
            .weight_gradient_batch(&mut self.ws, &mut self.wgrad)
            .expect("batch spectra recorded by the forward/backward pair");
        for row in g.chunks(self.out_dim()) {
            for (slot, &gi) in self.bgrad.iter_mut().zip(row) {
                *slot += gi;
            }
        }
        Tensor::from_vec(gx, &[batch, self.in_dim()])
    }

    fn infer_batch(&self, input: &Tensor, scratch: &mut circnn_nn::InferScratch) -> Tensor {
        // The serving path cannot refresh the spectra cache (`&self`);
        // `set_training(false)` syncs it before the network is shared, and
        // serving stacks verify `infer_ready` once at model registration.
        debug_assert!(
            !self.dirty,
            "CirculantLinear spectra cache is stale; call set_training(false) \
             after the last optimizer step before serving"
        );
        let batch = input.dims()[0];
        // Always the batched engine — even for B = 1 — so a request's
        // result is bit-identical no matter which batch the server coalesced
        // it into (the batch dimension is an independent SIMD lane).
        let ws: &mut Workspace = scratch.slot();
        let y = self.batched_affine(input.data(), batch, ws);
        Tensor::from_vec(y, &[batch, self.out_dim()])
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn infer_ready(&self) -> bool {
        !self.dirty
    }

    fn set_training(&mut self, training: bool) {
        if !training {
            // Entering inference mode pins the spectra cache fresh so the
            // read-only `infer_batch` path can serve from it.
            self.sync();
        }
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(self.engine.weights_mut(), &mut self.wgrad);
        visitor(&mut self.bias, &mut self.bgrad);
        // Assume the visitor mutated the weights (optimizers do).
        self.dirty = true;
    }

    fn param_count(&self) -> usize {
        self.engine.num_parameters() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "CirculantLinear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_nn::{Optimizer, Sgd};
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn forward_matches_dense_materialization() {
        let mut rng = seeded_rng(1);
        let mut layer = CirculantLinear::new(&mut rng, 24, 16, 8).unwrap();
        let x = circnn_tensor::init::uniform(&mut rng, &[2, 24], -1.0, 1.0);
        let y = layer.forward_batch(&x);
        let dense = layer.to_dense();
        for b in 0..2 {
            let expect = dense.matvec(&x.data()[b * 24..(b + 1) * 24]);
            for (a, e) in y.data()[b * 16..(b + 1) * 16].iter().zip(&expect) {
                assert!((a - e).abs() < 2e-4);
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(2);
        let mut layer = CirculantLinear::new(&mut rng, 8, 6, 4).unwrap();
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 8], -1.0, 1.0);
        // Re-use the nn crate's checker via a tiny local reimplementation
        // (the shared helper is crate-private to circnn-nn).
        let weights = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
                .collect()
        };
        let out = layer.forward_batch(&x);
        // The loss weights live in the gradient tensor itself — no spare
        // copies of either the weights or the nudged inputs.
        let grad_out = Tensor::from_vec(weights(out.len()), out.dims());
        let c = grad_out.data();
        layer.zero_grads();
        let gx = layer.backward_batch(&x, &grad_out);
        let mut analytic_params: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |_, g| analytic_params.push(g.to_vec()));
        let eps = 1e-2f32;
        let loss = |layer: &mut CirculantLinear, x: &Tensor| -> f32 {
            let out = layer.forward_batch(x);
            out.data().iter().zip(c).map(|(&y, &w)| y * w).sum()
        };
        // Input gradient: nudge one shared buffer in place.
        let mut xbuf = x.clone();
        for i in 0..x.len() {
            xbuf.data_mut()[i] += eps;
            let lp = loss(&mut layer, &xbuf);
            xbuf.data_mut()[i] -= 2.0 * eps;
            let lm = loss(&mut layer, &xbuf);
            xbuf.data_mut()[i] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gx.data()[i] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "input grad {i}"
            );
        }
        // Weight + bias gradients, accumulated over the batch.
        for group in 0..analytic_params.len() {
            for idx in 0..analytic_params[group].len() {
                let nudge = |delta: f32, layer: &mut CirculantLinear| {
                    let mut g = 0;
                    layer.visit_params(&mut |p, _| {
                        if g == group {
                            p[idx] += delta;
                        }
                        g += 1;
                    });
                };
                nudge(eps, &mut layer);
                let lp = loss(&mut layer, &x);
                nudge(-2.0 * eps, &mut layer);
                let lm = loss(&mut layer, &x);
                nudge(eps, &mut layer);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic_params[group][idx];
                assert!(
                    (a - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                    "param grad group {group} idx {idx}: {a} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn optimizer_updates_propagate_through_spectra_cache() {
        let mut rng = seeded_rng(3);
        let mut layer = CirculantLinear::new(&mut rng, 8, 8, 4).unwrap();
        let x = Tensor::ones(&[1, 8]);
        let y0 = layer.forward_batch(&x).data().to_vec();
        layer.zero_grads();
        layer.backward_batch(&x, &Tensor::ones(&[1, 8]));
        let mut opt = Sgd::new(0.5, 0.0);
        opt.step(&mut layer);
        let y1 = layer.forward_batch(&x).data().to_vec();
        assert_ne!(y0, y1, "update must change the forward output");
        // And the dense materialization must agree with the new forward.
        let expect = layer.to_dense().matvec(x.data());
        let y2 = layer.forward_batch(&x);
        for ((a, &b), bias) in y2.data().iter().zip(&expect).zip(layer.bias().to_vec()) {
            assert!((a - (b + bias)).abs() < 2e-4);
        }
    }

    #[test]
    fn ragged_dimensions_work() {
        let mut rng = seeded_rng(4);
        let mut layer = CirculantLinear::new(&mut rng, 10, 6, 4).unwrap();
        let x = Tensor::ones(&[1, 10]);
        let y = layer.forward_batch(&x);
        assert_eq!(y.dims(), &[1, 6]);
        let gx = layer.backward_batch(&x, &Tensor::ones(&[1, 6]));
        assert_eq!(gx.dims(), &[1, 10]);
    }

    #[test]
    fn param_count_reflects_compression() {
        let mut rng = seeded_rng(5);
        let layer = CirculantLinear::new(&mut rng, 1024, 512, 128).unwrap();
        assert_eq!(layer.param_count(), 512 * 1024 / 128 + 512);
        assert!((layer.compression_ratio() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn batched_layer_matches_batches_of_one() {
        let mut rng = seeded_rng(9);
        let (n, m, k, batch) = (10, 6, 4, 5);
        let mut batched = CirculantLinear::new(&mut rng, n, m, k).unwrap();
        let mut single = batched.clone();
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, n], -1.0, 1.0);
        let g = circnn_tensor::init::uniform(&mut rng, &[batch, m], -1.0, 1.0);
        let row = |t: &Tensor, b: usize| t.index_axis0(b).reshape(&[1, t.dims()[1]]);
        // Every batch lane is independent, so forward rows match a batch
        // of one bit for bit.
        let yb = batched.forward_batch(&x);
        assert_eq!(yb.dims(), &[batch, m]);
        for b in 0..batch {
            let ys = single.forward_batch(&row(&x, b));
            assert_eq!(&yb.data()[b * m..(b + 1) * m], ys.data(), "sample {b}");
        }
        // Batched backward must accumulate the same gradients as a run of
        // batches of one: input gradients bit for bit, weight grads to
        // rounding (one batch sums its samples' weight gradients in the
        // frequency domain, a run of batches in the time domain).
        batched.zero_grads();
        let gxb = batched.backward_batch(&x, &g);
        single.zero_grads();
        let mut gxs = Vec::new();
        for b in 0..batch {
            single.forward_batch(&row(&x, b));
            gxs.extend_from_slice(single.backward_batch(&row(&x, b), &row(&g, b)).data());
        }
        assert_eq!(gxb.data(), &gxs[..], "input gradients");
        let collect = |l: &mut CirculantLinear| {
            let mut gs: Vec<Vec<f32>> = Vec::new();
            l.visit_params(&mut |_, g| gs.push(g.to_vec()));
            gs
        };
        let gb = collect(&mut batched);
        let gs = collect(&mut single);
        for (group, (a, e)) in gb.iter().zip(&gs).enumerate() {
            for (i, (av, ev)) in a.iter().zip(e).enumerate() {
                assert!(
                    (av - ev).abs() < 1e-3 * ev.abs().max(1.0),
                    "param grad group {group} idx {i}: {av} vs {ev}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn backward_of_a_different_batch_panics() {
        let mut rng = seeded_rng(10);
        let mut layer = CirculantLinear::new(&mut rng, 8, 8, 4).unwrap();
        layer.forward_batch(&Tensor::ones(&[3, 8]));
        layer.backward_batch(&Tensor::ones(&[1, 8]), &Tensor::ones(&[1, 8]));
    }

    #[test]
    fn from_weights_round_trips() {
        let weights: Vec<f32> = (0..2 * 2 * 4).map(|i| i as f32 * 0.1).collect();
        let mut layer = CirculantLinear::from_weights(8, 8, 4, &weights, vec![0.0; 8]).unwrap();
        assert_eq!(layer.weights(), &weights[..]);
        assert_eq!(layer.block_size(), 4);
        let dense = layer.to_dense();
        assert_eq!(dense.dims(), &[8, 8]);
        assert!(CirculantLinear::from_weights(8, 8, 4, &weights[..5], vec![0.0; 8]).is_err());
        assert!(CirculantLinear::from_weights(8, 8, 4, &weights, vec![0.0; 7]).is_err());
    }
}
