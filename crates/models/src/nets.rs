//! Network builders: dense and block-circulant variants share identical
//! topology, activation placement and initialization discipline, so Fig.-7
//! accuracy comparisons isolate the weight representation.

use circnn_core::{CirculantConv2d, CirculantLinear};
use circnn_nn::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use rand::Rng;

/// LeNet-5 (dense): conv(1→6,5,p2) → pool → conv(6→16,5) → pool →
/// fc 400→120→84→10. The MNIST workhorse of Fig. 7 / Fig. 14 / §5.3.
pub fn lenet5_dense<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 1, 6, 5, 1, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(rng, 6, 16, 5, 1, 0))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(Linear::new(rng, 400, 120))
        .add(Relu::new())
        .add(Linear::new(rng, 120, 84))
        .add(Relu::new())
        .add(Linear::new(rng, 84, 10))
}

/// LeNet-5 with block-circulant conv2 (channel block 4) and FC layers
/// (block 16); the classifier head stays dense as the paper excludes the
/// softmax layer from compression.
///
/// # Panics
///
/// Never panics for the fixed shapes used here.
pub fn lenet5_circulant<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 1, 6, 5, 1, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(CirculantConv2d::new(rng, 6, 16, 5, 1, 0, 4).expect("valid block size"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(CirculantLinear::new(rng, 400, 120, 16).expect("valid block size"))
        .add(Relu::new())
        .add(CirculantLinear::new(rng, 120, 84, 16).expect("valid block size"))
        .add(Relu::new())
        .add(Linear::new(rng, 84, 10))
}

/// CIFAR-10-class convnet (dense): three 3×3 conv stages with pooling,
/// then fc 512→128→10.
pub fn cifar_net_dense<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 3, 16, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(rng, 16, 32, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(rng, 32, 32, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(Linear::new(rng, 32 * 4 * 4, 128))
        .add(Relu::new())
        .add(Linear::new(rng, 128, 10))
}

/// CIFAR-10-class convnet with circulant conv2/conv3 (blocks 8/16) and a
/// circulant fc (block 16). Small FFT sizes throughout — the property the
/// paper blames for this model's modest Fig.-14 throughput.
///
/// # Panics
///
/// Never panics for the fixed shapes used here.
pub fn cifar_net_circulant<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 3, 16, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(CirculantConv2d::new(rng, 16, 32, 3, 1, 1, 8).expect("valid block size"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(CirculantConv2d::new(rng, 32, 32, 3, 1, 1, 16).expect("valid block size"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(CirculantLinear::new(rng, 32 * 4 * 4, 128, 16).expect("valid block size"))
        .add(Relu::new())
        .add(Linear::new(rng, 128, 10))
}

/// SVHN-class convnet (dense): two 5×5 conv stages, fc 2048→256→10.
pub fn svhn_net_dense<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 3, 16, 5, 1, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(rng, 16, 32, 5, 1, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(Linear::new(rng, 32 * 8 * 8, 256))
        .add(Relu::new())
        .add(Linear::new(rng, 256, 10))
}

/// SVHN-class convnet with circulant conv2 (block 16) and fc (block 32).
///
/// # Panics
///
/// Never panics for the fixed shapes used here.
pub fn svhn_net_circulant<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 3, 16, 5, 1, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(CirculantConv2d::new(rng, 16, 32, 5, 1, 2, 16).expect("valid block size"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(CirculantLinear::new(rng, 32 * 8 * 8, 256, 32).expect("valid block size"))
        .add(Relu::new())
        .add(Linear::new(rng, 256, 10))
}

/// Trainable AlexNet surrogate (dense) for 3×64×64 / 20-class inputs:
/// strided stem + two conv stages + fc 1024→256→20.
pub fn alexnet_surrogate_dense<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 3, 32, 5, 2, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(rng, 32, 64, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(rng, 64, 64, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(Linear::new(rng, 64 * 4 * 4, 256))
        .add(Relu::new())
        .add(Linear::new(rng, 256, 20))
}

/// AlexNet surrogate with circulant conv2/conv3 (blocks 16/32) and fc
/// (block 32).
///
/// # Panics
///
/// Never panics for the fixed shapes used here.
pub fn alexnet_surrogate_circulant<R: Rng>(rng: &mut R) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(rng, 3, 32, 5, 2, 2))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(CirculantConv2d::new(rng, 32, 64, 3, 1, 1, 16).expect("valid block size"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(CirculantConv2d::new(rng, 64, 64, 3, 1, 1, 32).expect("valid block size"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(CirculantLinear::new(rng, 64 * 4 * 4, 256, 32).expect("valid block size"))
        .add(Relu::new())
        .add(Linear::new(rng, 256, 20))
}

/// Dense multi-layer perceptron over the given layer widths with ReLU
/// between layers (DBN-scale FC stack for the §3.4 training-speedup
/// experiment).
///
/// # Panics
///
/// Panics if fewer than two widths are given.
pub fn mlp_dense<R: Rng>(rng: &mut R, widths: &[usize]) -> Sequential {
    assert!(
        widths.len() >= 2,
        "an MLP needs at least input and output widths"
    );
    let mut net = Sequential::new();
    for (i, pair) in widths.windows(2).enumerate() {
        net.push(Box::new(Linear::new(rng, pair[0], pair[1])));
        if i + 2 < widths.len() {
            net.push(Box::new(Relu::new()));
        }
    }
    net
}

/// Block-circulant MLP with the same widths and a single block size.
///
/// # Panics
///
/// Panics if fewer than two widths are given or the block size is invalid
/// for these widths.
pub fn mlp_circulant<R: Rng>(rng: &mut R, widths: &[usize], block: usize) -> Sequential {
    assert!(
        widths.len() >= 2,
        "an MLP needs at least input and output widths"
    );
    let mut net = Sequential::new();
    for (i, pair) in widths.windows(2).enumerate() {
        net.push(Box::new(
            CirculantLinear::new(rng, pair[0], pair[1], block).expect("valid block size"),
        ));
        if i + 2 < widths.len() {
            net.push(Box::new(Relu::new()));
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_nn::Layer;
    use circnn_tensor::{init::seeded_rng, Tensor};

    #[test]
    fn lenet_variants_share_topology_and_output_shape() {
        let mut rng = seeded_rng(1);
        let mut dense = lenet5_dense(&mut rng);
        let mut circ = lenet5_circulant(&mut rng);
        let x = Tensor::ones(&[2, 1, 28, 28]);
        assert_eq!(dense.forward_batch(&x).dims(), &[2, 10]);
        assert_eq!(circ.forward_batch(&x).dims(), &[2, 10]);
        assert_eq!(dense.depth(), circ.depth());
    }

    #[test]
    fn circulant_variants_store_fewer_parameters() {
        let mut rng = seeded_rng(2);
        let pairs: Vec<(Sequential, Sequential)> = vec![
            (lenet5_dense(&mut rng), lenet5_circulant(&mut rng)),
            (cifar_net_dense(&mut rng), cifar_net_circulant(&mut rng)),
            (svhn_net_dense(&mut rng), svhn_net_circulant(&mut rng)),
            (
                alexnet_surrogate_dense(&mut rng),
                alexnet_surrogate_circulant(&mut rng),
            ),
        ];
        for (dense, circ) in pairs {
            assert!(
                circ.param_count() * 3 < dense.param_count(),
                "{}: {} vs {}",
                dense.param_count(),
                circ.param_count(),
                dense.param_count()
            );
        }
    }

    #[test]
    fn cifar_and_svhn_nets_process_32x32() {
        let mut rng = seeded_rng(3);
        let x = Tensor::ones(&[1, 3, 32, 32]);
        let mut cifar = cifar_net_circulant(&mut rng);
        assert_eq!(cifar.forward_batch(&x).dims(), &[1, 10]);
        assert_eq!(svhn_net_dense(&mut rng).forward_batch(&x).dims(), &[1, 10]);
    }

    #[test]
    fn alexnet_surrogate_processes_64x64() {
        let mut rng = seeded_rng(4);
        let x = Tensor::ones(&[1, 3, 64, 64]);
        assert_eq!(
            alexnet_surrogate_circulant(&mut rng)
                .forward_batch(&x)
                .dims(),
            &[1, 20]
        );
    }

    #[test]
    fn mlp_builders_respect_widths() {
        let mut rng = seeded_rng(5);
        let mut dense = mlp_dense(&mut rng, &[64, 128, 32]);
        let mut circ = mlp_circulant(&mut rng, &[64, 128, 32], 32);
        let x = Tensor::ones(&[1, 64]);
        assert_eq!(dense.forward_batch(&x).dims(), &[1, 32]);
        assert_eq!(circ.forward_batch(&x).dims(), &[1, 32]);
        // Dense: 64·128+128 + 128·32+32; circulant: /32 on the weights.
        assert!(circ.param_count() < dense.param_count() / 16);
    }

    #[test]
    fn circulant_models_backpropagate() {
        let mut rng = seeded_rng(6);
        let mut net = lenet5_circulant(&mut rng);
        let x = Tensor::ones(&[2, 1, 28, 28]);
        let out = net.forward_batch(&x);
        let gx = net.backward_batch(&x, &Tensor::ones(out.dims()));
        assert_eq!(gx.dims(), &[2, 1, 28, 28]);
    }
}
