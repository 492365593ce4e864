//! First-order optimizers over the [`Layer`] parameter-visitation API.

use crate::layer::Layer;

/// A gradient-descent-style optimizer.
///
/// Optimizers keep per-parameter state indexed by visitation order, which
/// [`Layer::visit_params`] guarantees to be deterministic.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated in
    /// the model, then typically the caller zeroes gradients.
    fn step(&mut self, model: &mut dyn Layer);

    /// Current learning rate (for schedules and reporting).
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Linear, Layer, Optimizer, Sgd};
/// use circnn_tensor::{init::seeded_rng, Tensor};
///
/// let mut layer = Linear::new(&mut seeded_rng(0), 2, 1);
/// let mut opt = Sgd::new(0.1, 0.0);
/// let before = layer.weight().data().to_vec();
/// let x = Tensor::ones(&[1, 2]);
/// layer.forward_batch(&x);
/// layer.backward_batch(&x, &Tensor::ones(&[1, 1]));
/// opt.step(&mut layer);
/// assert_ne!(before, layer.weight().data());
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer) {
        let mut group = 0usize;
        let (lr, momentum) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        model.visit_params(&mut |param, grad| {
            if velocity.len() <= group {
                velocity.push(vec![0.0; param.len()]);
            }
            let v = &mut velocity[group];
            assert_eq!(
                v.len(),
                param.len(),
                "parameter group size changed between steps"
            );
            for i in 0..param.len() {
                v[i] = momentum * v[i] - lr * grad[i];
                param[i] += v[i];
            }
            group += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates Adam with explicit moment coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or either beta is outside `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut group = 0usize;
        model.visit_params(&mut |param, grad| {
            if ms.len() <= group {
                ms.push(vec![0.0; param.len()]);
                vs.push(vec![0.0; param.len()]);
            }
            let m = &mut ms[group];
            let v = &mut vs[group];
            for i in 0..param.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
                v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                param[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            group += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use circnn_tensor::{init::seeded_rng, Tensor};

    /// Minimizes ‖W·x − y‖² for a fixed (x, y) and returns the final loss.
    fn optimize_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut rng = seeded_rng(42);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![1.0, -0.5, 2.0], &[1, 3]);
        let target = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]);
        let mse = crate::loss::MseLoss::new();
        let mut final_loss = f32::INFINITY;
        for _ in 0..steps {
            use crate::layer::Layer as _;
            let out = layer.forward_batch(&x);
            let (loss, grad) = mse.loss(&out, &target);
            final_loss = loss;
            layer.zero_grads();
            layer.backward_batch(&x, &grad);
            opt.step(&mut layer);
        }
        final_loss
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.05, 0.0);
        assert!(optimize_quadratic(&mut opt, 200) < 1e-4);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let plain = optimize_quadratic(&mut Sgd::new(0.002, 0.0), 50);
        let momentum = optimize_quadratic(&mut Sgd::new(0.002, 0.8), 50);
        assert!(
            momentum < plain,
            "momentum {momentum} should beat plain {plain}"
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        assert!(optimize_quadratic(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1, 0.5);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_bad_momentum() {
        let _ = Sgd::new(0.1, 1.0);
    }
}
