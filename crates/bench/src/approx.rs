//! Empirical check of the §3.3 universal-approximation claim.
//!
//! The paper proves block-circulant networks are universal approximators
//! with error bound `O(1/n)` in the layer width `n`. This module provides
//! the experiment: fit a fixed smooth function on `[0,1]^d` with one-hidden-
//! layer networks — dense vs. block-circulant — across widths, and report
//! the test error. The root crate's `universal_approx` example sweeps
//! widths and shows the error falling with `n` at matching rates.

use circnn_core::{CircError, CirculantLinear};
use circnn_nn::trainer::{train_regressor, TrainConfig};
use circnn_nn::{Adam, Sequential, Tanh};
use circnn_tensor::{init::seeded_rng, Tensor};
use rand::Rng;

/// Input dimensionality of the benchmark function.
pub const INPUT_DIM: usize = 8;

/// The fixed target: a smooth, non-separable function on `[0,1]^8`.
///
/// # Panics
///
/// Panics if `x.len() != INPUT_DIM`.
pub fn target_function(x: &[f32]) -> f32 {
    assert_eq!(
        x.len(),
        INPUT_DIM,
        "target function takes {INPUT_DIM} inputs"
    );
    let s1: f32 = x
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f32 + 1.0) * v)
        .sum::<f32>()
        / INPUT_DIM as f32;
    let s2: f32 = x.windows(2).map(|w| w[0] * w[1]).sum::<f32>() / (INPUT_DIM - 1) as f32;
    (1.8 * s1).sin() + 0.5 * (3.0 * s2).cos()
}

/// Samples a regression dataset `(inputs [n, 8], targets [n, 1])` from the
/// target function.
pub fn make_dataset(n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = seeded_rng(seed);
    let mut xs = Vec::with_capacity(n * INPUT_DIM);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f32> = (0..INPUT_DIM).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        ys.push(target_function(&x));
        xs.extend_from_slice(&x);
    }
    (
        Tensor::from_vec(xs, &[n, INPUT_DIM]),
        Tensor::from_vec(ys, &[n, 1]),
    )
}

/// Builds a one-hidden-layer block-circulant regressor
/// `8 → width → 1` with block size `k` on the hidden layer.
///
/// # Errors
///
/// Returns [`CircError`] for invalid block sizes.
pub fn circulant_regressor<R: Rng>(
    rng: &mut R,
    width: usize,
    k: usize,
) -> Result<Sequential, CircError> {
    Ok(Sequential::new()
        .add(CirculantLinear::new(rng, INPUT_DIM, width, k)?)
        .add(Tanh::new())
        .add(CirculantLinear::new(rng, width, 1, 1)?))
}

/// Builds the dense control with the same architecture.
pub fn dense_regressor<R: Rng>(rng: &mut R, width: usize) -> Sequential {
    Sequential::new()
        .add(circnn_nn::Linear::new(rng, INPUT_DIM, width))
        .add(Tanh::new())
        .add(circnn_nn::Linear::new(rng, width, 1))
}

/// Result of one width point of the approximation experiment.
#[derive(Debug, Clone, Copy)]
pub struct ApproxResult {
    /// Hidden-layer width.
    pub width: usize,
    /// Mean-squared error on held-out samples.
    pub test_mse: f64,
    /// Trainable parameter count of the network.
    pub params: usize,
}

/// Trains `net` on a fresh dataset and evaluates held-out MSE.
pub fn train_and_eval(
    net: &mut Sequential,
    width: usize,
    epochs: usize,
    seed: u64,
) -> ApproxResult {
    use circnn_nn::Layer as _;
    let (train_x, train_y) = make_dataset(512, seed);
    let (test_x, test_y) = make_dataset(256, seed.wrapping_add(1));
    let mut opt = Adam::new(0.01);
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        shuffle_seed: seed,
        ..Default::default()
    };
    let _ = train_regressor(net, &mut opt, &train_x, &train_y, &cfg);
    let mut se = 0.0f64;
    let n_test = test_x.dims()[0];
    let pred = net.forward_batch(&test_x);
    for i in 0..n_test {
        let diff = f64::from(pred.at(&[i, 0]) - test_y.at(&[i, 0]));
        se += diff * diff;
    }
    ApproxResult {
        width,
        test_mse: se / n_test as f64,
        params: net.param_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_function_is_bounded_and_deterministic() {
        let x = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let a = target_function(&x);
        let b = target_function(&x);
        assert_eq!(a, b);
        assert!(a.abs() <= 1.5);
    }

    #[test]
    fn dataset_shapes_and_reproducibility() {
        let (x1, y1) = make_dataset(16, 9);
        let (x2, y2) = make_dataset(16, 9);
        assert_eq!(x1.dims(), &[16, 8]);
        assert_eq!(y1.dims(), &[16, 1]);
        assert_eq!(x1.data(), x2.data());
        assert_eq!(y1.data(), y2.data());
    }

    #[test]
    fn circulant_regressor_learns_something() {
        let mut rng = seeded_rng(5);
        let mut net = circulant_regressor(&mut rng, 32, 8).unwrap();
        let r = train_and_eval(&mut net, 32, 20, 5);
        // Function variance is ~0.5; a trained net must beat the trivial
        // predictor comfortably.
        assert!(r.test_mse < 0.3, "mse {}", r.test_mse);
    }

    #[test]
    fn wider_circulant_nets_approximate_better() {
        // The §3.3 claim, in miniature: error decreases with width n.
        // Enough epochs that the wide net's extra capacity is actually
        // realized; undertrained, the comparison is seed noise.
        let narrow = {
            let mut rng = seeded_rng(6);
            let mut net = circulant_regressor(&mut rng, 8, 4).unwrap();
            train_and_eval(&mut net, 8, 40, 6).test_mse
        };
        let wide = {
            let mut rng = seeded_rng(6);
            let mut net = circulant_regressor(&mut rng, 64, 4).unwrap();
            train_and_eval(&mut net, 64, 40, 6).test_mse
        };
        assert!(wide < narrow, "wide {wide} should beat narrow {narrow}");
    }

    #[test]
    fn circulant_and_dense_close_at_equal_width() {
        let circ = {
            let mut rng = seeded_rng(7);
            let mut net = circulant_regressor(&mut rng, 32, 4).unwrap();
            train_and_eval(&mut net, 32, 25, 7)
        };
        let dense = {
            let mut rng = seeded_rng(7);
            let mut net = dense_regressor(&mut rng, 32);
            train_and_eval(&mut net, 32, 25, 7)
        };
        // Circulant stores ~4× fewer hidden-layer weights yet lands in the
        // same error regime (within 3×, both far below the trivial 0.5).
        assert!(circ.params < dense.params);
        assert!(circ.test_mse < dense.test_mse * 3.0 + 0.02);
    }
}
