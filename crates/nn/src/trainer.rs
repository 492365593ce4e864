//! Training loops and evaluation.
//!
//! The loops are mini-batch SGD riding the layers' **batched** kernels:
//! each mini-batch is assembled into one `[batch, …]` tensor, runs through
//! [`Layer::forward_batch`] / [`Layer::backward_batch`] (one weight-spectrum
//! sweep per batch for the block-circulant layers), and steps the optimizer
//! once — with deterministic shuffling. Both the dense baselines and the block-circulant
//! models (which implement the same [`Layer`] trait from `circnn-core`)
//! train through these entry points, so the Fig.-7b accuracy comparisons
//! exercise identical code paths.

use circnn_tensor::init::seeded_rng;
use circnn_tensor::Tensor;
use rand::seq::SliceRandom;

use crate::layer::Layer;
use crate::loss::{MseLoss, SoftmaxCrossEntropy};
use crate::network::Sequential;
use crate::optimizer::Optimizer;

/// Hyper-parameters for a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (gradients averaged over the batch).
    pub batch_size: usize,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// If `true`, prints one line per epoch.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 16,
            shuffle_seed: 0,
            lr_decay: 1.0,
            verbose: false,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the training set after the final epoch (classification
    /// runs only; `None` for regression).
    pub train_accuracy: Option<f32>,
}

impl TrainReport {
    /// Loss after the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if the run had zero epochs.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("no epochs were run")
    }
}

/// Gathers `indices` rows of an `[N, …]` tensor into one contiguous
/// `[batch, …]` tensor.
fn gather_rows(data: &Tensor, indices: &[usize]) -> Tensor {
    let n = data.dims()[0];
    let sample_len = data.len() / n;
    let mut out = Vec::with_capacity(indices.len() * sample_len);
    for &idx in indices {
        out.extend_from_slice(&data.data()[idx * sample_len..(idx + 1) * sample_len]);
    }
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(&data.dims()[1..]);
    Tensor::from_vec(out, &dims)
}

/// Batch size used by the batched evaluation loops.
const EVAL_CHUNK: usize = 64;

/// Trains a classifier with softmax cross-entropy.
///
/// `images` is an `[N, …]` batch; `labels[i]` is the class of sample `i`.
///
/// # Panics
///
/// Panics if `images` and `labels` disagree on `N`, or `N == 0`.
pub fn train_classifier(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    images: &Tensor,
    labels: &[usize],
    cfg: &TrainConfig,
) -> TrainReport {
    let n = images.dims()[0];
    assert_eq!(n, labels.len(), "images/labels length mismatch");
    assert!(n > 0, "empty training set");
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut rng = seeded_rng(cfg.shuffle_seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    net.set_training(true);
    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size) {
            net.zero_grads();
            let scale = 1.0 / chunk.len() as f32;
            let xb = gather_rows(images, chunk);
            let out = net.forward_batch(&xb);
            let out_len = out.len() / chunk.len();
            let out_dims = &out.dims()[1..];
            let mut grads = Vec::with_capacity(out.len());
            for (bi, &idx) in chunk.iter().enumerate() {
                let sample = Tensor::from_vec(
                    out.data()[bi * out_len..(bi + 1) * out_len].to_vec(),
                    out_dims,
                );
                let (loss, grad) = loss_fn.loss(&sample, labels[idx]);
                total_loss += f64::from(loss);
                grads.extend(grad.data().iter().map(|&g| g * scale));
            }
            net.backward_batch(&xb, &Tensor::from_vec(grads, out.dims()));
            opt.step(net);
        }
        let mean_loss = (total_loss / n as f64) as f32;
        epoch_losses.push(mean_loss);
        if cfg.verbose {
            println!("epoch {epoch:>3}: loss {mean_loss:.4}");
        }
        opt.set_learning_rate(opt.learning_rate() * cfg.lr_decay);
    }
    let train_accuracy = Some(evaluate_accuracy(net, images, labels));
    TrainReport {
        epoch_losses,
        train_accuracy,
    }
}

/// Trains a regressor with mean-squared error.
///
/// `inputs` is `[N, d]`, `targets` is `[N, t]`.
///
/// # Panics
///
/// Panics if the leading dimensions disagree or `N == 0`.
pub fn train_regressor(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    inputs: &Tensor,
    targets: &Tensor,
    cfg: &TrainConfig,
) -> TrainReport {
    let n = inputs.dims()[0];
    assert_eq!(n, targets.dims()[0], "inputs/targets length mismatch");
    assert!(n > 0, "empty training set");
    let loss_fn = MseLoss::new();
    let mut rng = seeded_rng(cfg.shuffle_seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    net.set_training(true);
    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size) {
            net.zero_grads();
            let scale = 1.0 / chunk.len() as f32;
            let xb = gather_rows(inputs, chunk);
            let out = net.forward_batch(&xb);
            let out_len = out.len() / chunk.len();
            let out_dims = &out.dims()[1..];
            let mut grads = Vec::with_capacity(out.len());
            for (bi, &idx) in chunk.iter().enumerate() {
                let sample = Tensor::from_vec(
                    out.data()[bi * out_len..(bi + 1) * out_len].to_vec(),
                    out_dims,
                );
                let (loss, grad) = loss_fn.loss(&sample, &targets.index_axis0(idx));
                total_loss += f64::from(loss);
                grads.extend(grad.data().iter().map(|&g| g * scale));
            }
            net.backward_batch(&xb, &Tensor::from_vec(grads, out.dims()));
            opt.step(net);
        }
        let mean_loss = (total_loss / n as f64) as f32;
        epoch_losses.push(mean_loss);
        if cfg.verbose {
            println!("epoch {epoch:>3}: loss {mean_loss:.6}");
        }
        opt.set_learning_rate(opt.learning_rate() * cfg.lr_decay);
    }
    TrainReport {
        epoch_losses,
        train_accuracy: None,
    }
}

/// Fraction of samples whose argmax prediction matches the label.
///
/// # Panics
///
/// Panics if `images` and `labels` disagree on `N`.
pub fn evaluate_accuracy(net: &mut Sequential, images: &Tensor, labels: &[usize]) -> f32 {
    let n = images.dims()[0];
    assert_eq!(n, labels.len(), "images/labels length mismatch");
    net.set_training(false);
    let mut correct = 0usize;
    let order: Vec<usize> = (0..n).collect();
    for chunk in order.chunks(EVAL_CHUNK) {
        let out = net.forward_batch(&gather_rows(images, chunk));
        let out_len = out.len() / chunk.len();
        for (bi, &idx) in chunk.iter().enumerate() {
            let row = &out.data()[bi * out_len..(bi + 1) * out_len];
            // First-occurrence, NaN-tolerant argmax — the same semantics as
            // `Tensor::argmax` / `Sequential::predict`.
            let mut pred = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[pred] {
                    pred = i;
                }
            }
            if pred == labels[idx] {
                correct += 1;
            }
        }
    }
    correct as f32 / n as f32
}

/// Mean loss of a classifier over a dataset (no training). Like
/// [`evaluate_accuracy`], it switches the network to inference mode, so
/// dropout is the identity and repeated calls agree.
pub fn evaluate_loss(net: &mut Sequential, images: &Tensor, labels: &[usize]) -> f32 {
    let n = images.dims()[0];
    net.set_training(false);
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut total = 0.0f64;
    let order: Vec<usize> = (0..n).collect();
    for chunk in order.chunks(EVAL_CHUNK) {
        let out = net.forward_batch(&gather_rows(images, chunk));
        let out_len = out.len() / chunk.len();
        let out_dims = &out.dims()[1..];
        for (bi, &idx) in chunk.iter().enumerate() {
            let sample = Tensor::from_vec(
                out.data()[bi * out_len..(bi + 1) * out_len].to_vec(),
                out_dims,
            );
            total += f64::from(loss_fn.loss(&sample, labels[idx]).0);
        }
    }
    (total / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Relu, Tanh};
    use crate::linear::Linear;
    use crate::optimizer::{Adam, Sgd};

    fn xor_dataset() -> (Tensor, Vec<usize>) {
        let inputs = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        (inputs, vec![0, 1, 1, 0])
    }

    #[test]
    fn learns_xor() {
        let mut rng = seeded_rng(7);
        let mut net = Sequential::new()
            .add(Linear::new(&mut rng, 2, 8))
            .add(Tanh::new())
            .add(Linear::new(&mut rng, 8, 2));
        let (x, y) = xor_dataset();
        let mut opt = Adam::new(0.05);
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 4,
            ..Default::default()
        };
        let report = train_classifier(&mut net, &mut opt, &x, &y, &cfg);
        assert_eq!(
            report.train_accuracy,
            Some(1.0),
            "losses: {:?}",
            report.final_loss()
        );
        assert!(report.final_loss() < 0.1);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut rng = seeded_rng(8);
        let mut net = Sequential::new()
            .add(Linear::new(&mut rng, 2, 6))
            .add(Relu::new())
            .add(Linear::new(&mut rng, 6, 2));
        let (x, y) = xor_dataset();
        let mut opt = Sgd::new(0.2, 0.9);
        let cfg = TrainConfig {
            epochs: 100,
            batch_size: 4,
            ..Default::default()
        };
        let report = train_classifier(&mut net, &mut opt, &x, &y, &cfg);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn regression_fits_a_line() {
        let mut rng = seeded_rng(9);
        let mut net = Sequential::new().add(Linear::new(&mut rng, 1, 1));
        // y = 3x − 1 on a few points.
        let xs = Tensor::from_vec(vec![-1.0, -0.5, 0.0, 0.5, 1.0], &[5, 1]);
        let ys = Tensor::from_vec(vec![-4.0, -2.5, -1.0, 0.5, 2.0], &[5, 1]);
        let mut opt = Sgd::new(0.2, 0.0);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 5,
            ..Default::default()
        };
        let report = train_regressor(&mut net, &mut opt, &xs, &ys, &cfg);
        assert!(report.final_loss() < 1e-4, "loss {}", report.final_loss());
    }

    #[test]
    fn accuracy_evaluation_counts_correct_predictions() {
        // Identity-ish network that just passes through the 2 inputs.
        let w = Tensor::eye(2);
        let mut net = Sequential::new().add(Linear::from_weights(w, vec![0.0, 0.0]));
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 5.0, 2.0], &[3, 2]);
        let acc = evaluate_accuracy(&mut net, &x, &[0, 1, 0]);
        assert!((acc - 1.0).abs() < 1e-6);
        let acc_bad = evaluate_accuracy(&mut net, &x, &[1, 0, 1]);
        assert_eq!(acc_bad, 0.0);
    }

    #[test]
    fn loss_evaluation_runs_in_inference_mode() {
        use crate::dropout::Dropout;
        let mut rng = seeded_rng(12);
        let mut net = Sequential::new()
            .add(Linear::new(&mut rng, 4, 8))
            .add(Dropout::new(0.5, 1))
            .add(Linear::new(&mut rng, 8, 3));
        let x = circnn_tensor::init::uniform(&mut rng, &[6, 4], -1.0, 1.0);
        let labels = [0, 1, 2, 0, 1, 2];
        let first = evaluate_loss(&mut net, &x, &labels);
        let second = evaluate_loss(&mut net, &x, &labels);
        assert_eq!(first.to_bits(), second.to_bits(), "dropout drew masks");
        // The inference-mode loss, computed by hand from `infer`.
        let out = net.infer(&x, &mut crate::InferScratch::new());
        let loss_fn = SoftmaxCrossEntropy::new();
        let total: f64 = (0..6)
            .map(|i| f64::from(loss_fn.loss(&out.index_axis0(i), labels[i]).0))
            .sum();
        assert_eq!(first, (total / 6.0) as f32);
    }

    #[test]
    fn lr_decay_is_applied() {
        let mut rng = seeded_rng(10);
        let mut net = Sequential::new().add(Linear::new(&mut rng, 2, 2));
        let (x, y) = xor_dataset();
        let mut opt = Sgd::new(1.0, 0.0);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            lr_decay: 0.5,
            ..Default::default()
        };
        let _ = train_classifier(&mut net, &mut opt, &x, &y, &cfg);
        assert!((opt.learning_rate() - 0.125).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn validates_dataset_sizes() {
        let mut rng = seeded_rng(11);
        let mut net = Sequential::new().add(Linear::new(&mut rng, 2, 2));
        let x = Tensor::ones(&[3, 2]);
        let mut opt = Sgd::new(0.1, 0.0);
        let _ = train_classifier(&mut net, &mut opt, &x, &[0, 1], &TrainConfig::default());
    }
}
