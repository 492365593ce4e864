//! The layer contract shared by dense, pooling, activation and (in
//! `circnn-core`) block-circulant layers.

use circnn_tensor::Tensor;

use crate::infer::InferScratch;

/// A differentiable network layer over a **batch** of samples stacked along
/// axis 0 (`[batch, …]` in, `[batch, …]` out). A single sample is a batch
/// of one: a `[1, …]` tensor.
///
/// The calling convention is strict and simple:
///
/// 1. [`forward_batch`] consumes the batch and may cache whatever its
///    backward pass needs;
/// 2. [`backward_batch`] receives the same input and `∂L/∂output`,
///    **accumulates** parameter gradients over the whole batch internally,
///    and returns `∂L/∂input`;
/// 3. [`visit_params`] exposes `(parameter, gradient)` slice pairs in a
///    deterministic order so optimizers can update them;
/// 4. [`zero_grads`] clears the accumulated gradients between batches.
///
/// [`infer_batch`] is the read-only serving counterpart of
/// [`forward_batch`].
///
/// [`forward_batch`]: Layer::forward_batch
/// [`backward_batch`]: Layer::backward_batch
/// [`infer_batch`]: Layer::infer_batch
/// [`visit_params`]: Layer::visit_params
/// [`zero_grads`]: Layer::zero_grads
///
/// # Examples
///
/// A parameter-free layer on a batch of one:
///
/// ```
/// use circnn_nn::{Layer, Relu};
/// use circnn_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
/// let y = relu.forward_batch(&x);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// let gx = relu.backward_batch(&x, &Tensor::ones(&[1, 2]));
/// assert_eq!(gx.data(), &[0.0, 1.0]);
/// ```
pub trait Layer {
    /// Computes the `[batch, …]` output of a `[batch, …]` input, caching
    /// what [`Layer::backward_batch`] needs (in training mode).
    ///
    /// # Panics
    ///
    /// Implementations panic on an empty batch or a malformed input.
    fn forward_batch(&mut self, input: &Tensor) -> Tensor;

    /// Propagates a `[batch, …]` output gradient to a `[batch, …]` input
    /// gradient, accumulating parameter gradients over the whole batch.
    ///
    /// `input` is the same tensor that was passed to the preceding
    /// [`Layer::forward_batch`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training-mode
    /// [`Layer::forward_batch`], or if the leading dimensions of `input`
    /// and `grad_output` disagree.
    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor;

    /// Visits every `(parameter, gradient)` pair in a deterministic order.
    ///
    /// The default implementation visits nothing (parameter-free layer).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        let _ = visitor;
    }

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    /// Total trainable parameter count.
    fn param_count(&self) -> usize {
        0
    }

    /// Read-only batched inference: computes the `[batch, …]` output of
    /// [`Layer::forward_batch`] **without mutating the layer** — no
    /// activation caches, no training state. Reusable buffers come from the
    /// caller's [`InferScratch`] instead, so one layer (behind an `Arc`)
    /// can serve many worker threads, each with its own scratch.
    ///
    /// Implementations must be **batch-composition invariant**: a sample's
    /// output row is bit-identical no matter which batch it rides in (the
    /// batched kernels treat the batch dimension as independent lanes), so
    /// a dynamic batcher can coalesce requests freely without changing any
    /// client's answer. They must also claim the same number of scratch
    /// slots on every call (slot reuse is keyed on visitation order).
    /// Stochastic training-only layers (dropout) behave as their
    /// inference-mode identity.
    ///
    /// Every stock layer overrides this (dense and circulant, FC and
    /// CONV/POOL alike) — always together with [`Layer::supports_infer`],
    /// which is the panic-free way to ask first. The default implementation
    /// panics, so a custom layer without a shareable batched kernel is
    /// rejected by serving stacks up front rather than inside a worker.
    ///
    /// # Panics
    ///
    /// Panics if the layer does not support read-only inference.
    fn infer_batch(&self, input: &Tensor, scratch: &mut InferScratch) -> Tensor {
        let _ = (input, scratch);
        unimplemented!(
            "{} does not support read-only batched inference (infer_batch)",
            self.name()
        )
    }

    /// Whether this layer overrides [`Layer::infer_batch`] (container
    /// layers: whether every child does). Lets a serving layer reject an
    /// unservable network up front instead of panicking inside a worker.
    ///
    /// Implementations overriding `infer_batch` must override this to
    /// return `true`.
    fn supports_infer(&self) -> bool {
        false
    }

    /// Whether the caches [`Layer::infer_batch`] serves from are fresh
    /// (container layers: whether every child's are). Circulant layers
    /// return `false` while an optimizer step has left their cached weight
    /// spectra stale; [`Layer::set_training`]`(false)` re-syncs them.
    /// Serving stacks check this **once at model registration** and reject
    /// with a typed error, instead of every request asserting it.
    fn infer_ready(&self) -> bool {
        true
    }

    /// Switches between training and inference behaviour (dropout masks,
    /// etc.). Most layers behave identically and ignore this.
    fn set_training(&mut self, training: bool) {
        let _ = training;
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Finite-difference gradient checking shared by the layer tests. Both
    //! checks drive the batched pair (`forward_batch`/`backward_batch`) on
    //! a `[B, …]` input, so cross-sample accumulation is checked too.

    use super::Layer;
    use circnn_tensor::Tensor;

    /// Scalar loss used for gradient checks: a fixed weighted sum of the
    /// outputs, `L = Σ c_i · y_i` with pseudo-random but deterministic `c`.
    fn loss_weights(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
            .collect()
    }

    fn forward_loss<L: Layer>(layer: &mut L, input: &Tensor) -> f32 {
        let out = layer.forward_batch(input);
        let w = loss_weights(out.len());
        out.data().iter().zip(&w).map(|(&y, &c)| y * c).sum()
    }

    /// Checks `∂L/∂input` of a `[B, …]` batch against central differences.
    ///
    /// # Panics
    ///
    /// Panics (failing the test) when any component disagrees beyond the
    /// mixed absolute/relative tolerance `tol`.
    pub fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward_batch(input);
        let w = loss_weights(out.len());
        let grad_out = Tensor::from_vec(w, out.dims());
        let analytic = layer.backward_batch(input, &grad_out);
        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let numeric = (forward_loss(layer, &plus) - forward_loss(layer, &minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            assert!(
                (a - numeric).abs() / denom < tol,
                "input grad {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// Checks every parameter gradient, accumulated over a `[B, …]` batch,
    /// against central differences.
    ///
    /// # Panics
    ///
    /// Panics (failing the test) when any parameter gradient disagrees
    /// beyond the mixed tolerance `tol`.
    pub fn check_param_gradients<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward_batch(input);
        let w = loss_weights(out.len());
        let grad_out = Tensor::from_vec(w, out.dims());
        layer.zero_grads();
        let _ = layer.backward_batch(input, &grad_out);
        // Collect analytic gradients.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |_, g| analytic.push(g.to_vec()));
        let eps = 1e-2f32;
        let num_groups = analytic.len();
        for group in 0..num_groups {
            for idx in 0..analytic[group].len() {
                let nudge = |layer: &mut L, delta: f32| {
                    let mut g = 0usize;
                    layer.visit_params(&mut |p, _| {
                        if g == group {
                            p[idx] += delta;
                        }
                        g += 1;
                    });
                };
                nudge(layer, eps);
                let lp = forward_loss(layer, input);
                nudge(layer, -2.0 * eps);
                let lm = forward_loss(layer, input);
                nudge(layer, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[group][idx];
                let denom = a.abs().max(numeric.abs()).max(1.0);
                assert!(
                    (a - numeric).abs() / denom < tol,
                    "param grad group {group} idx {idx}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }
}
