//! The model contract the server dispatches batches to.
//!
//! The server is generic over anything that can turn a `[batch, n]` slab
//! into a `[batch, m]` slab from behind a shared reference: the raw
//! [`BlockCirculantMatrix`] operator, or a whole network via
//! [`SequentialModel`]. Mutable state (FFT planes, spectra arenas) lives
//! in the associated `Scratch` type — one per slab running at once, kept
//! by the tenant between slabs and created by the model so it can
//! pre-warm buffers.

use circnn_core::{
    default_batch_threads, BlockCirculantMatrix, QuantWorkspace, QuantizedLinear,
    QuantizedOperator, Workspace,
};
use circnn_nn::{InferScratch, Layer, Sequential};
use circnn_tensor::Tensor;

use crate::error::ServeError;

/// A batched inference backend the server can share across workers.
///
/// Implementations must be **batch-composition invariant**: each input
/// row's output must be bit-identical regardless of which batch the
/// scheduler coalesced it into. The block-circulant engine guarantees this
/// (the batch dimension is an independent SIMD lane), which is what lets
/// the server batch freely without changing any client's answer.
pub trait ServeModel: Send + Sync + 'static {
    /// Mutable scratch of one running slab (spectra arenas, staging
    /// planes, …).
    type Scratch: Send + 'static;

    /// Creates one scratch. The scheduler calls it when a slab of this
    /// model finds none free (the first slab, or more slabs at once than
    /// ever before) and after a panic discarded one.
    fn make_scratch(&self) -> Self::Scratch;

    /// Length of one request vector (`n`).
    fn input_len(&self) -> usize;

    /// Length of one response vector (`m`).
    fn output_len(&self) -> usize;

    /// Runs the batch: `x` is row-major `[batch, input_len]`, `out` is
    /// row-major `[batch, output_len]`.
    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut Self::Scratch, out: &mut [f32]);
}

/// The raw operator is itself a servable model: `y = W·x` per request.
impl ServeModel for BlockCirculantMatrix {
    type Scratch = Workspace;

    fn make_scratch(&self) -> Workspace {
        Workspace::new()
    }

    fn input_len(&self) -> usize {
        self.cols()
    }

    fn output_len(&self) -> usize {
        self.rows()
    }

    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut Workspace, out: &mut [f32]) {
        self.forward_batch_into(x, batch, scratch, out)
            .expect("server validated slab dimensions");
    }
}

impl ServeModel for QuantizedOperator {
    type Scratch = QuantWorkspace;

    fn make_scratch(&self) -> QuantWorkspace {
        QuantWorkspace::new()
    }

    fn input_len(&self) -> usize {
        self.cols()
    }

    fn output_len(&self) -> usize {
        self.rows()
    }

    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut QuantWorkspace, out: &mut [f32]) {
        self.infer_batch_into(x, batch, scratch, out, default_batch_threads())
            .expect("server validated slab dimensions");
    }
}

impl ServeModel for QuantizedLinear {
    type Scratch = QuantWorkspace;

    fn make_scratch(&self) -> QuantWorkspace {
        QuantWorkspace::new()
    }

    fn input_len(&self) -> usize {
        self.operator().cols()
    }

    fn output_len(&self) -> usize {
        self.operator().rows()
    }

    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut QuantWorkspace, out: &mut [f32]) {
        self.infer_batch_into(x, batch, scratch, out, default_batch_threads())
            .expect("server validated slab dimensions");
    }
}

/// A whole [`Sequential`] network as a servable model.
///
/// Wraps the network together with its flat per-request input/output
/// lengths (a `Sequential` does not know its own geometry) and pins it to
/// inference mode. Batches run through the read-only
/// [`Sequential::infer`] path, so one wrapped network serves every thread
/// that runs its slabs, each slab with its own [`InferScratch`].
///
/// # Examples
///
/// ```
/// use circnn_nn::{Linear, Relu, Sequential};
/// use circnn_serve::{SequentialModel, ServeModel};
/// use circnn_tensor::init::seeded_rng;
///
/// let mut rng = seeded_rng(0);
/// let net = Sequential::new()
///     .add(Linear::new(&mut rng, 16, 32))
///     .add(Relu::new())
///     .add(Linear::new(&mut rng, 32, 4));
/// let model = SequentialModel::new(net, 16).expect("FC nets are servable");
/// assert_eq!(model.output_len(), 4);
/// ```
#[derive(Debug)]
pub struct SequentialModel {
    net: Sequential,
    /// Per-sample input dims the flat request vector reshapes to (`[n]` for
    /// MLPs, `[C, H, W]` for convnets).
    input_shape: Vec<usize>,
    input_len: usize,
    output_len: usize,
}

impl SequentialModel {
    /// Wraps `net` for serving flat requests of `input_len` values
    /// (MLP-style `[batch, n]` geometry). Convnets take
    /// [`SequentialModel::with_input_shape`] instead.
    ///
    /// Switches the network to inference mode (syncing circulant spectra
    /// caches), verifies every layer supports the read-only inference path
    /// ([`Layer::supports_infer`]) **and** that its serving caches are
    /// fresh ([`Layer::infer_ready`]) — failing at registration with a
    /// typed [`ServeError::NotServable`], not per request inside a
    /// worker — and runs one probe batch to discover the output length.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NotServable`] naming the offending layer if
    /// any layer lacks [`Layer::infer_batch`] support or reports stale
    /// inference caches.
    ///
    /// # Panics
    ///
    /// The probe batch panics (with the first layer's own length-mismatch
    /// message) if `input_len` does not match the network's input
    /// geometry — the `Layer` contract has no shape query to validate
    /// against up front.
    pub fn new(net: Sequential, input_len: usize) -> Result<Self, ServeError> {
        Self::with_input_shape(net, &[input_len])
    }

    /// Wraps `net` for serving requests whose flat vectors reshape to the
    /// per-sample `input_shape` (e.g. `[C, H, W]` for a convnet): batches
    /// run as `[batch, C, H, W]` tensors through [`Sequential::infer`].
    ///
    /// # Errors
    ///
    /// As [`SequentialModel::new`], plus an error for an empty or
    /// zero-sized shape.
    ///
    /// # Panics
    ///
    /// As [`SequentialModel::new`], if `input_shape` does not match the
    /// network's input geometry.
    pub fn with_input_shape(
        mut net: Sequential,
        input_shape: &[usize],
    ) -> Result<Self, ServeError> {
        let input_len: usize = input_shape.iter().product();
        if input_shape.is_empty() || input_len == 0 {
            return Err(ServeError::NotServable(
                "input shape must be non-empty with nonzero dims".to_string(),
            ));
        }
        net.set_training(false);
        if let Some(layer) = net.iter().find(|l| !l.supports_infer()) {
            return Err(ServeError::NotServable(format!(
                "{} has no read-only batched inference path",
                layer.name()
            )));
        }
        // set_training(false) syncs every stock layer's spectra caches;
        // this guards custom layers whose set_training does not, so a
        // stale-cache model is rejected here — once, typed — instead of
        // tripping a per-request assertion in a worker thread.
        if let Some(layer) = net.iter().find(|l| !l.infer_ready()) {
            return Err(ServeError::NotServable(format!(
                "{} has stale inference caches (its set_training(false) did not sync them)",
                layer.name()
            )));
        }
        let mut probe_dims = vec![1];
        probe_dims.extend_from_slice(input_shape);
        let probe = Tensor::zeros(&probe_dims);
        let output_len = net.infer(&probe, &mut InferScratch::new()).len();
        Ok(Self {
            net,
            input_shape: input_shape.to_vec(),
            input_len,
            output_len,
        })
    }

    /// The wrapped network.
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// The per-sample input dims requests reshape to.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }
}

impl ServeModel for SequentialModel {
    /// Layer scratch slots plus a reusable input-staging buffer.
    type Scratch = (InferScratch, Vec<f32>);

    fn make_scratch(&self) -> Self::Scratch {
        (InferScratch::new(), Vec::new())
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn output_len(&self) -> usize {
        self.output_len
    }

    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut Self::Scratch, out: &mut [f32]) {
        let (slots, staging) = scratch;
        // Stage the slab through a buffer that round-trips in and out of
        // the input `Tensor`, so steady-state dispatch reuses its capacity
        // instead of allocating a fresh copy per batch.
        staging.clear();
        staging.extend_from_slice(x);
        let mut dims = vec![batch];
        dims.extend_from_slice(&self.input_shape);
        let input = Tensor::from_vec(std::mem::take(staging), &dims);
        let y = self.net.infer(&input, slots);
        out.copy_from_slice(y.data());
        *staging = input.into_vec();
    }
}

/// Object-safe erasure of [`ServeModel`] — the associated `Scratch` type
/// prevents boxing the trait directly, but the multi-tenant scheduler must
/// hold heterogeneous models (an MLP next to a convnet next to a raw
/// operator) behind one pointer type. Workers keep each tenant's scratch
/// as a `Box<dyn Any>` created by the model itself, so the downcast inside
/// [`ErasedModel::infer_batch_erased`] cannot fail.
pub(crate) trait ErasedModel: Send + Sync {
    fn make_scratch_box(&self) -> Box<dyn std::any::Any + Send>;
    fn input_len(&self) -> usize;
    fn output_len(&self) -> usize;
    fn infer_batch_erased(
        &self,
        x: &[f32],
        batch: usize,
        scratch: &mut (dyn std::any::Any + Send),
        out: &mut [f32],
    );
}

impl<M: ServeModel> ErasedModel for M {
    fn make_scratch_box(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.make_scratch())
    }

    fn input_len(&self) -> usize {
        ServeModel::input_len(self)
    }

    fn output_len(&self) -> usize {
        ServeModel::output_len(self)
    }

    fn infer_batch_erased(
        &self,
        x: &[f32],
        batch: usize,
        scratch: &mut (dyn std::any::Any + Send),
        out: &mut [f32],
    ) {
        let scratch = scratch
            .downcast_mut::<M::Scratch>()
            .expect("scratch was created by this model's make_scratch");
        self.infer_batch(x, batch, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_nn::Relu;
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn quantized_operator_serves_within_its_error_bound() {
        use circnn_core::QuantConfig;
        let mut rng = seeded_rng(9);
        let m = BlockCirculantMatrix::random(&mut rng, 24, 32, 8).unwrap();
        let qop =
            circnn_core::QuantizedOperator::from_operator(&m, QuantConfig::default()).unwrap();
        assert_eq!(ServeModel::input_len(&qop), 32);
        assert_eq!(ServeModel::output_len(&qop), 24);
        let x: Vec<f32> = (0..2 * 32).map(|i| (i as f32 * 0.11).sin() * 0.9).collect();
        let mut scratch = ServeModel::make_scratch(&qop);
        let mut out = vec![0.0f32; 2 * 24];
        qop.infer_batch(&x, 2, &mut scratch, &mut out);
        let mut ws = Workspace::new();
        let mut golden = vec![0.0f32; 2 * 24];
        m.forward_batch_into(&x, 2, &mut ws, &mut golden).unwrap();
        let bound = qop.error_bound();
        for (a, b) in out.iter().zip(&golden) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn quantized_linear_serves_with_bias() {
        use circnn_core::{CirculantLinear, QuantConfig};
        let mut rng = seeded_rng(11);
        let weights = circnn_tensor::init::uniform(&mut rng, &[(24 / 8) * (16 / 8) * 8], -0.4, 0.4);
        let weights = weights.data();
        let bias: Vec<f32> = (0..24).map(|i| 0.05 * i as f32 - 0.6).collect();
        let mut fc = CirculantLinear::from_weights(16, 24, 8, weights, bias).unwrap();
        let ql = fc.quantize(QuantConfig::default()).unwrap();
        assert_eq!(ServeModel::input_len(&ql), 16);
        assert_eq!(ServeModel::output_len(&ql), 24);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.21).cos() * 0.8).collect();
        let mut scratch = ServeModel::make_scratch(&ql);
        let mut out = vec![0.0f32; 24];
        ql.infer_batch(&x, 1, &mut scratch, &mut out);
        // The bias must actually land: zeroed-bias output differs.
        let ql0 = circnn_core::QuantizedLinear::new(ql.operator().clone(), vec![0.0; 24]).unwrap();
        let mut out0 = vec![0.0f32; 24];
        let mut s0 = ServeModel::make_scratch(&ql0);
        ql0.infer_batch(&x, 1, &mut s0, &mut out0);
        for ((a, b), bias) in out.iter().zip(&out0).zip(ql.bias()) {
            assert!((a - (b + bias)).abs() < 1e-5);
        }
    }

    #[test]
    fn probe_discovers_output_len() {
        let mut rng = seeded_rng(3);
        let net = Sequential::new()
            .add(circnn_nn::Linear::new(&mut rng, 8, 12))
            .add(Relu::new())
            .add(circnn_nn::Linear::new(&mut rng, 12, 5));
        let model = SequentialModel::new(net, 8).unwrap();
        assert_eq!(ServeModel::input_len(&model), 8);
        assert_eq!(ServeModel::output_len(&model), 5);
    }

    #[test]
    fn unservable_layer_is_rejected_at_construction() {
        // Every stock layer now supports read-only inference, so the
        // rejection path needs a deliberately opaque custom layer.
        struct Opaque;
        impl Layer for Opaque {
            fn forward_batch(&mut self, input: &Tensor) -> Tensor {
                input.clone()
            }
            fn backward_batch(&mut self, _input: &Tensor, grad: &Tensor) -> Tensor {
                grad.clone()
            }
            fn name(&self) -> &'static str {
                "Opaque"
            }
        }
        let net = Sequential::new().add(Opaque);
        let err = SequentialModel::new(net, 25).unwrap_err();
        assert!(matches!(err, ServeError::NotServable(_)), "{err}");
        assert!(err.to_string().contains("not servable"), "{err}");
    }

    #[test]
    fn stale_inference_caches_are_rejected_at_registration() {
        // A layer that claims infer support but whose set_training(false)
        // does not sync its caches must be rejected with the typed error
        // when the model is wrapped — not assert per request in a worker.
        struct Stale;
        impl Layer for Stale {
            fn forward_batch(&mut self, input: &Tensor) -> Tensor {
                input.clone()
            }
            fn backward_batch(&mut self, _input: &Tensor, grad: &Tensor) -> Tensor {
                grad.clone()
            }
            fn infer_batch(&self, input: &Tensor, _scratch: &mut InferScratch) -> Tensor {
                input.clone()
            }
            fn supports_infer(&self) -> bool {
                true
            }
            fn infer_ready(&self) -> bool {
                false
            }
            fn name(&self) -> &'static str {
                "Stale"
            }
        }
        let net = Sequential::new().add(Stale);
        let err = SequentialModel::new(net, 8).unwrap_err();
        assert!(matches!(err, ServeError::NotServable(_)), "{err}");
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn shaped_model_serves_a_convnet() {
        let mut rng = seeded_rng(6);
        let net = Sequential::new()
            .add(circnn_nn::Conv2d::new(&mut rng, 2, 3, 3, 1, 1))
            .add(Relu::new())
            .add(circnn_nn::MaxPool2d::new(2, 2))
            .add(circnn_nn::Flatten::new())
            .add(circnn_nn::Linear::new(&mut rng, 3 * 3 * 3, 5));
        let model = SequentialModel::with_input_shape(net, &[2, 6, 6]).unwrap();
        assert_eq!(ServeModel::input_len(&model), 72);
        assert_eq!(ServeModel::output_len(&model), 5);
        assert_eq!(model.input_shape(), &[2, 6, 6]);
        let mut scratch = ServeModel::make_scratch(&model);
        let x = vec![0.25f32; 2 * 72];
        let mut out = vec![0.0f32; 2 * 5];
        model.infer_batch(&x, 2, &mut scratch, &mut out);
        assert_eq!(
            &out[..5],
            &out[5..],
            "identical rows must infer identically"
        );
    }

    #[test]
    fn operator_model_reports_geometry() {
        let w = BlockCirculantMatrix::zeros(24, 40, 8).unwrap();
        assert_eq!(ServeModel::input_len(&w), 40);
        assert_eq!(ServeModel::output_len(&w), 24);
    }
}
