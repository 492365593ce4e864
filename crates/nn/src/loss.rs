//! Loss functions. Each returns the scalar loss together with the gradient
//! with respect to the network output, ready to feed
//! `Layer::backward_batch`.

use circnn_tensor::Tensor;

/// Numerically stable softmax.
pub(crate) fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Fused softmax + cross-entropy classification loss.
///
/// # Examples
///
/// ```
/// use circnn_nn::SoftmaxCrossEntropy;
/// use circnn_tensor::Tensor;
///
/// let loss = SoftmaxCrossEntropy::new();
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[2]);
/// let (l_correct, _) = loss.loss(&logits, 0);
/// let (l_wrong, _) = loss.loss(&logits, 1);
/// assert!(l_correct < 1e-3 && l_wrong > 5.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Returns `(loss, ∂loss/∂logits)` for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for the logit vector.
    pub fn loss(&self, logits: &Tensor, target: usize) -> (f32, Tensor) {
        let n = logits.len();
        assert!(
            target < n,
            "target class {target} out of range (classes: {n})"
        );
        let probs = softmax(logits.data());
        let loss = -probs[target].max(1e-12).ln();
        let mut grad = probs;
        grad[target] -= 1.0;
        (loss, Tensor::from_vec(grad, logits.dims()))
    }
}

/// Mean-squared-error regression loss, `L = (1/n)·Σ(pred − target)²`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MseLoss;

impl MseLoss {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Returns `(loss, ∂loss/∂pred)` for one sample.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn loss(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.dims(), target.dims(), "mse shape mismatch");
        let n = pred.len() as f32;
        let diff = pred.sub(target);
        let loss = diff.norm_sqr() / n;
        let grad = diff.scale(2.0 / n);
        (loss, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[1001.0, 1002.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(softmax(&[1e30, -1e30]).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_n() {
        let loss = SoftmaxCrossEntropy::new();
        let (l, _) = loss.loss(&Tensor::zeros(&[10]), 3);
        assert!((l - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.2, -0.5, 1.3, 0.0], &[4]);
        let (_, grad) = loss.loss(&logits, 2);
        let eps = 1e-3;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let numeric = (loss.loss(&lp, 2).0 - loss.loss(&lm, 2).0) / (2.0 * eps);
            assert!((grad.data()[i] - numeric).abs() < 1e-3, "logit {i}");
        }
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let loss = SoftmaxCrossEntropy::new();
        let (_, grad) = loss.loss(&Tensor::from_vec(vec![3.0, 1.0, -2.0], &[3]), 0);
        assert!(grad.sum().abs() < 1e-6);
    }

    #[test]
    fn mse_basics() {
        let loss = MseLoss::new();
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let target = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let (l, g) = loss.loss(&pred, &target);
        assert!((l - 2.5).abs() < 1e-6); // (1 + 4)/2
        assert_eq!(g.data(), &[1.0, 2.0]); // 2·diff/n
        let (zero, _) = loss.loss(&pred, &pred);
        assert_eq!(zero, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_validates_target() {
        let _ = SoftmaxCrossEntropy::new().loss(&Tensor::zeros(&[3]), 3);
    }
}
