//! Property tests for the training substrate.

use circnn_nn::prune::{magnitude_prune, CsrMatrix};
use circnn_nn::{Layer, Linear, MseLoss, Optimizer, Relu, Sgd, SoftmaxCrossEntropy};
use circnn_tensor::{init::seeded_rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_ce_loss_is_nonnegative_and_grad_sums_to_zero(
        logits in prop::collection::vec(-20.0f32..20.0, 2..12),
        target_frac in 0.0f64..1.0,
    ) {
        let n = logits.len();
        let target = ((target_frac * n as f64) as usize).min(n - 1);
        let t = Tensor::from_vec(logits, &[n]);
        let (loss, grad) = SoftmaxCrossEntropy::new().loss(&t, target);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.sum().abs() < 1e-4);
        // Gradient of the target entry is in [-1, 0]; others in [0, 1].
        for (i, &g) in grad.data().iter().enumerate() {
            if i == target {
                prop_assert!((-1.0..=0.0).contains(&g));
            } else {
                prop_assert!((0.0..=1.0).contains(&g));
            }
        }
    }

    #[test]
    fn mse_is_zero_iff_equal(
        pred in prop::collection::vec(-5.0f32..5.0, 1..10),
        delta in 0.01f32..2.0,
    ) {
        let p = Tensor::from_vec(pred.clone(), &[pred.len()]);
        let (zero, _) = MseLoss::new().loss(&p, &p);
        prop_assert_eq!(zero, 0.0);
        let shifted = p.map(|v| v + delta);
        let (loss, _) = MseLoss::new().loss(&p, &shifted);
        prop_assert!((loss - delta * delta).abs() < 1e-3 * (delta * delta).max(1e-3));
    }

    #[test]
    fn relu_is_idempotent(xs in prop::collection::vec(-10.0f32..10.0, 1..32)) {
        let n = xs.len();
        let mut relu = Relu::new();
        let once = relu.forward_batch(&Tensor::from_vec(xs, &[1, n]));
        let twice = relu.forward_batch(&once);
        prop_assert_eq!(once.data(), twice.data());
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn sgd_descends_a_quadratic(seed in any::<u64>(), lr in 0.01f32..0.2) {
        let mut rng = seeded_rng(seed);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![0.5, -1.0, 0.25], &[1, 3]);
        let target = Tensor::from_vec(vec![0.1, -0.2], &[1, 2]);
        let mse = MseLoss::new();
        let mut opt = Sgd::new(lr, 0.0);
        let initial = mse.loss(&layer.forward_batch(&x), &target).0;
        for _ in 0..25 {
            let out = layer.forward_batch(&x);
            let (_, grad) = mse.loss(&out, &target);
            layer.zero_grads();
            layer.backward_batch(&x, &grad);
            opt.step(&mut layer);
        }
        let final_loss = mse.loss(&layer.forward_batch(&x), &target).0;
        prop_assert!(final_loss <= initial + 1e-6, "{initial} -> {final_loss}");
    }

    #[test]
    fn pruning_achieves_requested_sparsity(seed in any::<u64>(), sparsity in 0.0f32..0.95) {
        let mut rng = seeded_rng(seed);
        let mut layer = Linear::new(&mut rng, 16, 16);
        let stats = magnitude_prune(&mut layer, sparsity);
        prop_assert!((stats.achieved_sparsity - sparsity).abs() < 0.05);
        // Remaining weights are exactly the large-magnitude ones: every
        // surviving |w| ≥ every pruned |w| (ties broken by threshold).
        prop_assert_eq!(layer.nonzero_weights(), stats.remaining);
    }

    #[test]
    fn csr_round_trips_matvec(seed in any::<u64>(), sparsity in 0.1f32..0.9) {
        let mut rng = seeded_rng(seed);
        let mut layer = Linear::new(&mut rng, 12, 8);
        magnitude_prune(&mut layer, sparsity);
        let csr = CsrMatrix::from_dense(layer.weight());
        let x: Vec<f32> = (0..12).map(|i| ((i as f32) * 0.3).sin()).collect();
        let dense_y = layer.weight().matvec(&x);
        let sparse_y = csr.matvec(&x);
        for (a, b) in dense_y.iter().zip(&sparse_y) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        // Storage accounting is consistent: nnz values + nnz indices + rows.
        let bytes = csr.storage_bytes(16, 16);
        prop_assert_eq!(bytes, csr.nnz() as u64 * 4 + (8 + 1) * 4);
    }
}

/// The read-only serving path (`Sequential::infer`) must agree bitwise
/// with the training-side `forward_batch` in inference mode — it is the
/// same arithmetic, minus every cache write.
#[test]
fn infer_matches_forward_batch_bitwise() {
    use circnn_nn::{Dropout, Flatten, InferScratch, Sequential, Sigmoid, Tanh};
    let mut rng = seeded_rng(42);
    let mut net = Sequential::new()
        .add(Flatten::new())
        .add(Linear::new(&mut rng, 12, 16))
        .add(Relu::new())
        .add(Dropout::new(0.3, 9))
        .add(Linear::new(&mut rng, 16, 8))
        .add(Tanh::new())
        .add(Linear::new(&mut rng, 8, 4))
        .add(Sigmoid::new());
    net.set_training(false);
    let x = circnn_tensor::init::uniform(&mut rng, &[5, 3, 4], -1.0, 1.0);
    let trained_path = net.forward_batch(&x);
    let mut scratch = InferScratch::new();
    let served = net.infer(&x, &mut scratch);
    assert_eq!(served.dims(), trained_path.dims());
    assert_eq!(served.data(), trained_path.data());
    // Reusing the same scratch on a second request is stable.
    let again = net.infer(&x, &mut scratch);
    assert_eq!(again.data(), trained_path.data());
}

/// An `Arc<Sequential>` is served concurrently by workers holding private
/// scratch, with every worker bitwise-identical to the single-threaded
/// answer — the sharing model of `circnn-serve`.
#[test]
fn shared_network_serves_threads_bitwise_identically() {
    use circnn_nn::{InferScratch, Sequential};
    use std::sync::Arc;
    let mut rng = seeded_rng(7);
    let mut net = Sequential::new()
        .add(Linear::new(&mut rng, 6, 10))
        .add(Relu::new())
        .add(Linear::new(&mut rng, 10, 3));
    net.set_training(false);
    let x = circnn_tensor::init::uniform(&mut rng, &[4, 6], -1.0, 1.0);
    let mut scratch = InferScratch::new();
    let reference = net.infer(&x, &mut scratch);
    let net = Arc::new(net);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (net, x, reference) = (Arc::clone(&net), &x, &reference);
            s.spawn(move || {
                let mut scratch = InferScratch::new();
                for _ in 0..3 {
                    let y = net.infer(x, &mut scratch);
                    assert_eq!(y.data(), reference.data(), "worker diverged");
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CONV/POOL serving parity: the read-only `infer_batch` path of a
    /// convnet stack (dense conv, max/avg pool, flatten) must agree
    /// **bitwise** with `forward_batch` in inference mode — it is the same
    /// arithmetic minus the cache writes, which is what makes convnets
    /// servable through `circnn-serve`/`circnn-wire`.
    #[test]
    fn conv_pool_infer_matches_forward_batch_bitwise(
        seed in any::<u64>(),
        batch in 1usize..4,
        ch in 1usize..3,
        size in 6usize..10,
    ) {
        use circnn_nn::{AvgPool2d, Conv2d, Flatten, InferScratch, MaxPool2d, Sequential};
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new()
            .add(Conv2d::new(&mut rng, ch, 4, 3, 1, 1))
            .add(Relu::new())
            .add(MaxPool2d::new(2, 2))
            .add(Conv2d::new(&mut rng, 4, 3, 3, 1, 1))
            .add(AvgPool2d::new(2, 1))
            .add(Flatten::new());
        prop_assert!(net.supports_infer(), "conv/pool stack must be servable");
        net.set_training(false);
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, ch, size, size], -1.0, 1.0);
        let trained = net.forward_batch(&x);
        let mut scratch = InferScratch::new();
        let served = net.infer(&x, &mut scratch);
        prop_assert_eq!(served.dims(), trained.dims());
        prop_assert_eq!(served.data(), trained.data());
        // Scratch reuse across requests is stable.
        let again = net.infer(&x, &mut scratch);
        prop_assert_eq!(again.data(), trained.data());
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense conv's one forward kernel against its oracle:
    /// `infer_batch` ≡ `forward_batch` ≡ `conv2d_direct` (im2col + matmul)
    /// plus the bias, bit for bit, over any stride and padding the geometry
    /// accepts, on inputs that are at least a third exact zeros (both
    /// signs); and each row of a batch ≡ that sample's own batch-of-one
    /// call. Every fourth case carries an infinite weight, so the zero skip
    /// is pinned too.
    #[test]
    fn conv_kernel_matches_lowered_oracle_bitwise(
        seed in any::<u64>(),
        (c, p, r) in (1usize..4, 1usize..5, 1usize..6),
        (h, w) in (1usize..10, 1usize..10),
        (stride, padding) in (1usize..4, 0usize..3),
        batch in 1usize..4,
    ) {
        use circnn_nn::{Conv2d, InferScratch};
        use circnn_tensor::im2col::{conv2d_direct, ConvGeometry};
        use circnn_tensor::init::uniform;
        prop_assume!(h + 2 * padding >= r && w + 2 * padding >= r);
        let mut rng = seeded_rng(seed);
        let mut weight = uniform(&mut rng, &[p, c * r * r], -1.0, 1.0);
        if seed % 4 == 0 {
            let at = (seed as usize / 4) % weight.len();
            weight.data_mut()[at] = f32::INFINITY;
        }
        let bias = uniform(&mut rng, &[p], -1.0, 1.0).data().to_vec();
        let mut x = uniform(&mut rng, &[batch, c, h, w], -1.0, 1.0);
        let phase = (seed % 3) as usize;
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            if i % 3 == phase {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let mut conv = Conv2d::from_weights(weight.clone(), bias.clone(), c, r, stride, padding);
        let served = conv.infer_batch(&x, &mut InferScratch::new());
        let trained = conv.forward_batch(&x);
        prop_assert_eq!(bits(served.data()), bits(trained.data()));

        let geom = ConvGeometry::new(c, h, w, r, stride, padding);
        let plane = geom.num_patches();
        let sample_len = p * plane;
        prop_assert_eq!(served.dims(), &[batch, p, geom.out_height(), geom.out_width()][..]);
        for b in 0..batch {
            let sample = x.index_axis0(b);
            let mut oracle = conv2d_direct(&sample, &weight, &geom);
            for (o_plane, &bv) in oracle.data_mut().chunks_exact_mut(plane).zip(&bias) {
                o_plane.iter_mut().for_each(|v| *v += bv);
            }
            let row = &served.data()[b * sample_len..][..sample_len];
            prop_assert_eq!(bits(row), bits(oracle.data()), "sample {} vs oracle", b);
            let alone = conv.infer_batch(&sample.reshape(&[1, c, h, w]), &mut InferScratch::new());
            prop_assert_eq!(bits(row), bits(alone.data()), "sample {} vs its batch of one", b);
        }
    }
}
