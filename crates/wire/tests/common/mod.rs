//! Models, inputs and polling helpers shared by the wire test suites.
//! Each suite uses a subset.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use circnn_core::{CirculantConv2d, CirculantLinear};
use circnn_nn::{Flatten, Linear, MaxPool2d, Relu, Sequential};
use circnn_serve::ServeModel;
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

/// A 4-wide model that stalls its pool worker: echoes after a sleep.
pub struct SlowEcho(pub Duration);

impl ServeModel for SlowEcho {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        4
    }
    fn output_len(&self) -> usize {
        4
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        std::thread::sleep(self.0);
        out.copy_from_slice(x);
    }
}

/// A pure, trivially-verifiable 8-wide model: `y[i] = 2 x[i] + 1`.
pub struct Doubler;

impl ServeModel for Doubler {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        8
    }
    fn output_len(&self) -> usize {
        8
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        for (o, v) in out.iter_mut().zip(x) {
            *o = 2.0 * v + 1.0;
        }
    }
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
