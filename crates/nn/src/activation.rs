//! Parameter-free layers: activations and shape adapters.

use circnn_tensor::Tensor;

use crate::layer::Layer;

/// Rectified linear unit, `ψ(x) = max(0, x)` — "the most widely utilized in
/// DNNs" (paper §2.1) and the activation of every CirCNN benchmark model.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Layer, Relu};
/// use circnn_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let y = relu.forward_batch(&Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[1, 3]));
/// assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<f32>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    // Element-wise layers see a [batch, ...] tensor as just a bigger tensor.
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(
            input
                .data()
                .iter()
                .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
                .collect(),
        );
        input.map(|v| v.max(0.0))
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward_batch called before forward_batch");
        assert_eq!(mask.len(), grad_output.len(), "relu grad length mismatch");
        let data = grad_output
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| g * m)
            .collect();
        Tensor::from_vec(data, grad_output.dims())
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        input.map(|v| v.max(0.0))
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Logistic sigmoid `σ(x) = 1/(1+e^{-x})`, used by the RBM/DBN experiments.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    output: Option<Vec<f32>>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scalar sigmoid, shared with the RBM module.
#[inline]
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Layer for Sigmoid {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(sigmoid_scalar);
        self.output = Some(out.data().to_vec());
        out
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("backward_batch called before forward_batch");
        assert_eq!(y.len(), grad_output.len(), "sigmoid grad length mismatch");
        let data = grad_output
            .data()
            .iter()
            .zip(y)
            .map(|(&g, &s)| g * s * (1.0 - s))
            .collect();
        Tensor::from_vec(data, grad_output.dims())
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        input.map(sigmoid_scalar)
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Vec<f32>>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(circnn_tensor::tanh);
        self.output = Some(out.data().to_vec());
        out
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("backward_batch called before forward_batch");
        assert_eq!(y.len(), grad_output.len(), "tanh grad length mismatch");
        let data = grad_output
            .data()
            .iter()
            .zip(y)
            .map(|(&g, &t)| g * (1.0 - t * t))
            .collect();
        Tensor::from_vec(data, grad_output.dims())
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        input.map(circnn_tensor::tanh)
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

/// Flattens each sample of a `[batch, …]` input to rank 1 (`[batch, n]`
/// out). Bridges CONV/POOL feature maps into FC layers.
#[derive(Debug, Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Flatten {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        input.reshape(&[batch, input.len() / batch])
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        grad_output.reshape(input.dims())
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        let batch = input.dims()[0];
        input.reshape(&[batch, input.len() / batch])
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    #[test]
    fn relu_forward_and_mask() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], &[1, 4]);
        let y = relu.forward_batch(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let gx = relu.backward_batch(&x, &Tensor::ones(&[1, 4]));
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[1, 3]);
        let y = s.forward_batch(&x);
        assert!(y.data()[0] < 0.001 && (y.data()[1] - 0.5).abs() < 1e-6 && y.data()[2] > 0.999);
        // Gradient at 0 is 0.25.
        let gx = s.backward_batch(&x, &Tensor::ones(&[1, 3]));
        assert!((gx.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut t = Tanh::new();
        let x = Tensor::zeros(&[1, 1]);
        t.forward_batch(&x);
        let gx = t.backward_batch(&x, &Tensor::ones(&[1, 1]));
        assert!((gx.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn activations_pass_gradient_check() {
        // Inputs chosen away from the ReLU kink so finite differences apply.
        let input = Tensor::from_vec(
            vec![
                -1.5, -0.3, 0.4, 1.2, 2.0, //
                0.7, -2.2, 1.6, -0.9, 0.2, //
                -0.6, 1.1, -1.3, 0.5, 2.4,
            ],
            &[3, 5],
        );
        check_input_gradient(&mut Relu::new(), &input, 1e-2);
        check_input_gradient(&mut Sigmoid::new(), &input, 1e-2);
        check_input_gradient(&mut Tanh::new(), &input, 1e-2);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[3, 2, 3, 4]);
        let y = f.forward_batch(&x);
        assert_eq!(y.dims(), &[3, 24]);
        let gx = f.backward_batch(&x, &Tensor::ones(&[3, 24]));
        assert_eq!(gx.dims(), &[3, 2, 3, 4]);
    }

    #[test]
    fn flatten_passes_gradient_check() {
        let input = Tensor::from_vec(
            (0..24).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[3, 2, 2, 2],
        );
        check_input_gradient(&mut Flatten::new(), &input, 1e-2);
    }

    #[test]
    fn parameter_free_layers_report_zero_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Flatten::new().param_count(), 0);
        assert_eq!(Sigmoid::new().param_count(), 0);
        assert_eq!(Tanh::new().param_count(), 0);
    }
}
