//! Sequential layer composition.

use circnn_tensor::Tensor;

use crate::infer::InferScratch;
use crate::layer::Layer;

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` itself implements [`Layer`], so stacks nest. Layers are
/// boxed as `dyn Layer + Send + Sync`, so a trained network can be wrapped
/// in an `Arc` and shared by serving workers through the read-only
/// [`Sequential::infer`] path.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Layer, Linear, Relu, Sequential};
/// use circnn_tensor::{init::seeded_rng, Tensor};
///
/// let mut rng = seeded_rng(0);
/// let mut net = Sequential::new()
///     .add(Linear::new(&mut rng, 2, 16))
///     .add(Relu::new())
///     .add(Linear::new(&mut rng, 16, 3));
/// assert_eq!(net.forward_batch(&Tensor::ones(&[4, 2])).dims(), &[4, 3]);
/// assert_eq!(net.depth(), 3);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
    /// Per-layer batch inputs cached by [`Layer::forward_batch`] so each
    /// layer's [`Layer::backward_batch`] receives the tensor it saw.
    /// Retained in training mode only — inference has no backward pass to
    /// feed.
    batch_inputs: Vec<Tensor>,
    training: bool,
}

impl Default for Sequential {
    fn default() -> Self {
        Self {
            layers: Vec::new(),
            batch_inputs: Vec::new(),
            training: true,
        }
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn add<L: Layer + Send + Sync + 'static>(mut self, layer: L) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push(&mut self, layer: Box<dyn Layer + Send + Sync>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Access to a layer by index (for surgery such as pruning).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn layer_mut(&mut self, index: usize) -> &mut dyn Layer {
        self.layers[index].as_mut()
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> impl Iterator<Item = &(dyn Layer + Send + Sync)> {
        self.layers.iter().map(|b| b.as_ref())
    }

    /// Class prediction for one sample (no batch axis): a forward pass
    /// over it as a batch of one, then the argmax of the output.
    pub fn predict(&mut self, input: &Tensor) -> usize {
        let mut dims = vec![1];
        dims.extend_from_slice(input.dims());
        self.forward_batch(&input.reshape(&dims)).argmax()
    }

    /// Per-layer `(name, param_count)` summary.
    pub fn summary(&self) -> Vec<(&'static str, usize)> {
        self.layers
            .iter()
            .map(|l| (l.name(), l.param_count()))
            .collect()
    }

    /// Read-only batched inference over the whole stack — the root entry
    /// point of the serving path (rewinds `scratch` and runs
    /// [`Layer::infer_batch`] layer by layer).
    ///
    /// The network is untouched (`&self`), so an `Arc<Sequential>` can be
    /// shared by any number of worker threads, each holding its own
    /// [`InferScratch`]. Outputs are **batch-composition invariant**: a
    /// sample's row is bit-identical no matter which batch carries it.
    /// They also match [`Layer::forward_batch`] in inference mode bitwise
    /// at every batch size: FC, CONV and recurrent circulant layers all
    /// run the one unified spectral-plane engine on both paths (the former
    /// batch-size-1 scalar-pipeline shortcut in the circulant FC layer is
    /// gone).
    ///
    /// Circulant layers serve from their cached weight spectra; call
    /// [`Layer::set_training`]`(false)` once after training (before sharing
    /// the network) so those caches are synced.
    ///
    /// # Panics
    ///
    /// Panics if any layer does not support read-only inference (see
    /// [`Layer::infer_batch`]).
    pub fn infer(&self, input: &Tensor, scratch: &mut InferScratch) -> Tensor {
        // Serving stacks (`SequentialModel`) verify this once at model
        // registration; the root-level debug check catches direct callers
        // who skipped `set_training(false)` after an optimizer step.
        debug_assert!(
            self.infer_ready(),
            "a layer's serving caches are stale; call set_training(false) \
             after the last optimizer step before calling infer"
        );
        scratch.rewind();
        Layer::infer_batch(self, input, scratch)
    }
}

impl Layer for Sequential {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        self.batch_inputs.clear();
        let mut x = input.clone();
        for layer in &mut self.layers {
            let y = layer.forward_batch(&x);
            if self.training {
                self.batch_inputs.push(x);
            }
            x = y;
        }
        x
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            self.batch_inputs.len(),
            self.layers.len(),
            "backward_batch called before forward_batch (or in inference mode)"
        );
        let mut g = grad_output.clone();
        for (layer, inp) in self
            .layers
            .iter_mut()
            .rev()
            .zip(self.batch_inputs.iter().rev())
        {
            g = layer.backward_batch(inp, &g);
        }
        g
    }

    fn infer_batch(&self, input: &Tensor, scratch: &mut InferScratch) -> Tensor {
        // First layer reads the caller's tensor directly — no input copy
        // on the serving hot path.
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.infer_batch(input, scratch);
        for layer in layers {
            x = layer.infer_batch(&x, scratch);
        }
        x
    }

    fn supports_infer(&self) -> bool {
        self.layers.iter().all(|l| l.supports_infer())
    }

    fn infer_ready(&self) -> bool {
        self.layers.iter().all(|l| l.infer_ready())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
        if !training {
            self.batch_inputs.clear();
        }
        for layer in &mut self.layers {
            layer.set_training(training);
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

impl core::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Sequential[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "] ({} params)", self.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn forward_composes_layers() {
        let w1 = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let w2 = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]);
        let mut net = Sequential::new()
            .add(Linear::from_weights(w1, vec![0.0, 0.0]))
            .add(Linear::from_weights(w2, vec![1.0, 1.0]));
        let y = net.forward_batch(&Tensor::from_vec(vec![3.0, -4.0], &[1, 2]));
        assert_eq!(y.data(), &[7.0, -7.0]);
    }

    #[test]
    fn backward_runs_in_reverse() {
        let mut rng = seeded_rng(1);
        let mut net = Sequential::new()
            .add(Linear::new(&mut rng, 3, 5))
            .add(Relu::new())
            .add(Linear::new(&mut rng, 5, 2));
        let x = Tensor::ones(&[2, 3]);
        net.forward_batch(&x);
        let gx = net.backward_batch(&x, &Tensor::ones(&[2, 2]));
        assert_eq!(gx.dims(), &[2, 3]);
    }

    #[test]
    fn whole_network_gradient_check() {
        use crate::layer::testutil::{check_input_gradient, check_param_gradients};
        let mut rng = seeded_rng(2);
        let mut net = Sequential::new()
            .add(Linear::new(&mut rng, 4, 6))
            .add(crate::activation::Tanh::new())
            .add(Linear::new(&mut rng, 6, 3));
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 4], -1.0, 1.0);
        check_input_gradient(&mut net, &x, 2e-2);
        check_param_gradients(&mut net, &x, 2e-2);
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = seeded_rng(3);
        let net = Sequential::new()
            .add(Linear::new(&mut rng, 3, 4))
            .add(Relu::new())
            .add(Linear::new(&mut rng, 4, 2));
        assert_eq!(net.param_count(), (3 * 4 + 4) + (4 * 2 + 2));
        let summary = net.summary();
        assert_eq!(summary.len(), 3);
        assert_eq!(summary[1], ("ReLU", 0));
    }

    #[test]
    fn predict_returns_argmax() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[2, 2]);
        let mut net = Sequential::new().add(Linear::from_weights(w, vec![0.0, 0.0]));
        assert_eq!(net.predict(&Tensor::from_vec(vec![2.0, 5.0], &[2])), 0);
    }

    #[test]
    fn debug_shows_structure() {
        let mut rng = seeded_rng(4);
        let net = Sequential::new()
            .add(Linear::new(&mut rng, 2, 2))
            .add(Relu::new());
        let s = format!("{net:?}");
        assert!(s.contains("Linear") && s.contains("ReLU"));
    }
}
