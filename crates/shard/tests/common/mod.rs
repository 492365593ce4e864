//! Models, inputs and polling helpers shared by the shard test suites.
//! Each suite uses a subset.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use circnn_core::{CirculantConv2d, CirculantLinear};
use circnn_nn::{Flatten, Linear, MaxPool2d, Relu, Sequential};
use circnn_tensor::init::seeded_rng;

/// MLP tenant: 32 → 48 → 10 with a circulant hidden layer.
pub fn mlp(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new()
        .add(CirculantLinear::new(&mut rng, 32, 48, 16).unwrap())
        .add(Relu::new())
        .add(Linear::new(&mut rng, 48, 10))
}

/// Convnet tenant over `[2, 8, 8]` images: circulant conv → pool → fc.
pub fn convnet(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new()
        .add(CirculantConv2d::new(&mut rng, 2, 4, 3, 1, 1, 2).unwrap())
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(Linear::new(&mut rng, 4 * 4 * 4, 6))
}

pub fn request(len: usize, seed: u64) -> Vec<f32> {
    circnn_tensor::init::uniform(&mut seeded_rng(seed), &[len], -1.0, 1.0)
        .data()
        .to_vec()
}

/// Polls `count()` until it reaches `want` (or a generous deadline).
pub fn drop_poll(count: impl Fn() -> usize, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut live = usize::MAX;
    while Instant::now() < deadline {
        live = count();
        if live == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("connection count stuck at {live}, wanted {want}");
}
