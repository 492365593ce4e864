//! Training bits are pinned: a few `train_classifier` epochs on small nets
//! that together hold every trainable stock layer (dense and circulant),
//! plus both pools, dropout, flatten and the three activations, must
//! reproduce recorded epoch losses and a hash of every parameter bit.
//!
//! The recorded values pin the batched training path (`forward_batch` /
//! `backward_batch`) exactly; any change to a layer's arithmetic, its
//! accumulation order or the trainer's batching shows up here.

use circnn_core::{
    CirculantConv2d, CirculantLinear, CirculantRnn, CirculantRnnCell, RnnReadout,
    SingleCirculantLinear,
};
use circnn_nn::lowrank::LowRankLinear;
use circnn_nn::trainer::{train_classifier, TrainConfig};
use circnn_nn::{
    Adam, AvgPool2d, Conv2d, Dropout, Flatten, Layer, Linear, MaxPool2d, Optimizer, Relu,
    Sequential, Sgd, Sigmoid, Tanh,
};
use circnn_tensor::init::{seeded_rng, uniform};
use circnn_tensor::Tensor;

/// FNV-1a over the bit patterns of every parameter, in visitation order.
fn param_hash(net: &mut Sequential) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    net.visit_params(&mut |p, _| {
        for &v in p.iter() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    });
    h
}

/// Trains `net` and returns `(epoch loss bits, parameter hash)`.
fn train(
    mut net: Sequential,
    opt: &mut dyn Optimizer,
    images: &Tensor,
    batch_size: usize,
) -> (Vec<u32>, u64) {
    let labels: Vec<usize> = (0..images.dims()[0]).map(|i| i % 3).collect();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size,
        shuffle_seed: 5,
        ..Default::default()
    };
    let report = train_classifier(&mut net, opt, images, &labels, &cfg);
    let losses = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
    (losses, param_hash(&mut net))
}

fn check(name: &str, got: (Vec<u32>, u64), want: (&[u32], u64)) {
    assert_eq!(got.0, want.0, "{name}: epoch losses moved");
    assert_eq!(got.1, want.1, "{name}: parameter bits moved");
}

#[test]
fn dense_conv_net_trains_to_recorded_bits() {
    let mut rng = seeded_rng(101);
    let net = Sequential::new()
        .add(Conv2d::new(&mut rng, 1, 4, 3, 1, 1))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(&mut rng, 4, 4, 3, 1, 0))
        .add(Tanh::new())
        .add(AvgPool2d::new(2, 1))
        .add(Flatten::new())
        .add(Linear::new(&mut rng, 4, 12))
        .add(Dropout::new(0.3, 9))
        .add(Sigmoid::new())
        .add(LowRankLinear::compress(&Linear::new(&mut rng, 12, 3), 2));
    let images = uniform(&mut rng, &[11, 1, 8, 8], -1.0, 1.0);
    let got = train(net, &mut Sgd::new(0.1, 0.9), &images, 4);
    check(
        "dense",
        got,
        (&[1065605633, 1066613891, 1067064470], 0x4100_fb72_dff9_8134),
    );
}

#[test]
fn circulant_conv_net_trains_to_recorded_bits() {
    let mut rng = seeded_rng(202);
    let net = Sequential::new()
        .add(CirculantConv2d::new(&mut rng, 2, 4, 3, 1, 1, 2).unwrap())
        .add(Relu::new())
        .add(AvgPool2d::new(2, 2))
        .add(MaxPool2d::new(2, 1))
        .add(Flatten::new())
        .add(CirculantLinear::new(&mut rng, 36, 16, 4).unwrap())
        .add(Dropout::new(0.25, 3))
        .add(Tanh::new())
        .add(SingleCirculantLinear::new(&mut rng, 16, 8).unwrap())
        .add(Sigmoid::new())
        .add(Linear::new(&mut rng, 8, 3));
    let images = uniform(&mut rng, &[10, 2, 8, 8], -1.0, 1.0);
    let got = train(net, &mut Adam::new(0.01), &images, 3);
    check(
        "circulant",
        got,
        (&[1066823291, 1066575202, 1066319085], 0xfc4d_3db5_0770_b721),
    );
}

#[test]
fn reservoir_readout_trains_to_recorded_bits() {
    let mut rng = seeded_rng(303);
    let cell = CirculantRnnCell::new(&mut rng, 4, 16, 4, 0.9).unwrap();
    let net = Sequential::new()
        .add(CirculantRnn::new(cell, RnnReadout::Features))
        .add(Linear::new(&mut rng, 32, 8))
        .add(Relu::new())
        .add(CirculantLinear::new(&mut rng, 8, 3, 2).unwrap());
    let sequences = uniform(&mut rng, &[9, 5, 4], -1.0, 1.0);
    let got = train(net, &mut Sgd::new(0.05, 0.0), &sequences, 4);
    check(
        "reservoir",
        got,
        (&[1066969313, 1066606332, 1066417588], 0x8dc4_76e6_21ab_de56),
    );
}
