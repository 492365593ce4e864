//! Quickstart: the block-circulant representation in five minutes.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! Demonstrates the paper's three headline properties on one layer:
//! O(n) storage, O(n log n) compute, and direct training (no conversion
//! from a dense model).

use circnn::core::{BlockCirculantMatrix, CirculantLinear};
use circnn::nn::{Layer, MseLoss, Optimizer, Sgd};
use circnn::tensor::{init::seeded_rng, Tensor};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(7);

    // 1. Storage: a 1024×2048 weight matrix as 128-blocks.
    let w = BlockCirculantMatrix::random(&mut rng, 1024, 2048, 128)?;
    println!("== storage ==");
    println!("dense parameters     : {}", w.dense_parameters());
    println!("circulant parameters : {}", w.num_parameters());
    println!("compression ratio    : {:.0}x\n", w.compression_ratio());

    // 2. Compute: the FFT path matches the dense materialization and is
    //    asymptotically cheaper.
    let x: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
    let t = Instant::now();
    let fast = w.matvec(&x)?;
    let fast_time = t.elapsed();
    let dense = w.to_dense();
    let t = Instant::now();
    let slow = dense.matvec(&x);
    let slow_time = t.elapsed();
    let max_err = fast
        .iter()
        .zip(&slow)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("== compute ==");
    println!("FFT path   : {fast_time:?}");
    println!("dense path : {slow_time:?}");
    println!("max |diff| : {max_err:.2e}\n");

    // 3. Training: Algorithm 2 end to end — fit y = W*·x with a circulant
    //    layer; the loss drops without ever materializing a dense matrix.
    let mut layer = CirculantLinear::new(&mut rng, 32, 32, 8)?;
    let target_op = BlockCirculantMatrix::random(&mut rng, 32, 32, 8)?;
    let mse = MseLoss::new();
    // 0.05/0.9 diverges on unlucky inits (effective step ~0.5); this is
    // stable across seeds.
    let mut opt = Sgd::new(0.02, 0.5);
    println!("== training (fit a random circulant operator) ==");
    for step in 0..=60 {
        let xs: Vec<f32> = (0..32).map(|i| ((i + step) as f32 * 0.3).sin()).collect();
        // One sample is a batch of one: [1, 32] in, [1, 32] out.
        let target = Tensor::from_vec(target_op.matvec(&xs)?, &[1, 32]);
        let x = Tensor::from_vec(xs, &[1, 32]);
        let out = layer.forward_batch(&x);
        let (loss, grad) = mse.loss(&out, &target);
        layer.zero_grads();
        layer.backward_batch(&x, &grad);
        opt.step(&mut layer);
        if step % 20 == 0 {
            println!("step {step:>3}: loss {loss:.5}");
        }
    }
    Ok(())
}
