//! Serving-layer demo: concurrent clients against the dynamic-batching
//! scheduler, with every answer checked bit-for-bit against direct batched
//! inference.
//!
//! One worker pool serves two tenants:
//!
//! 1. a raw [`BlockCirculantMatrix`] operator (`y = W·x`), verified
//!    against direct [`BlockCirculantMatrix::matmat`] calls;
//! 2. a whole block-circulant MLP behind [`SequentialModel`], verified
//!    against the read-only [`Sequential::infer`] path.
//!
//! Run with `cargo run --release --example serve_demo`.

use std::sync::Arc;
use std::time::Duration;

use circnn::core::{BlockCirculantMatrix, CirculantLinear, Workspace};
use circnn::nn::{InferScratch, Layer, Linear, Relu, Sequential};
use circnn::serve::{MultiServer, SequentialModel, TenantConfig};
use circnn::tensor::init::seeded_rng;
use circnn::tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n, k) = (512, 512, 16);
    let clients = 8;
    let requests_per_client = 50;

    println!("== circnn-serve demo ==\n");
    println!("1) raw operator: {m}×{n}, block {k}, {clients} concurrent clients\n");

    let pool = MultiServer::start(2)?;
    let w = Arc::new(BlockCirculantMatrix::random(&mut seeded_rng(7), m, n, k)?);
    let operator = pool.add_tenant_shared(
        Arc::clone(&w),
        TenantConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(300),
            queue_capacity: 256,
            ..Default::default()
        },
    )?;

    std::thread::scope(|s| {
        for c in 0..clients {
            let (operator, w) = (&operator, Arc::clone(&w));
            s.spawn(move || {
                let mut rng = seeded_rng(1000 + c as u64);
                let mut ws = Workspace::new();
                for _ in 0..requests_per_client {
                    let x = circnn::tensor::init::uniform(&mut rng, &[n], -1.0, 1.0);
                    let x = x.data().to_vec();
                    let served = operator
                        .submit(x.clone())
                        .expect("accepting")
                        .wait()
                        .expect("served");
                    let direct = w.matmat(&x, 1, &mut ws).expect("direct");
                    assert_eq!(served, direct, "server diverged from direct matmat");
                }
            });
        }
    });
    let stats = operator.stats()?;
    println!(
        "   all {} answers bit-identical to direct matmat",
        stats.requests
    );
    println!("   {stats}\n");

    println!("2) block-circulant MLP behind SequentialModel\n");
    let mut rng = seeded_rng(21);
    let mut net = Sequential::new()
        .add(CirculantLinear::new(&mut rng, n, 256, 16)?)
        .add(Relu::new())
        .add(CirculantLinear::new(&mut rng, 256, 128, 8)?)
        .add(Relu::new())
        .add(Linear::new(&mut rng, 128, 10));
    net.set_training(false);

    // Reference answers through the same read-only path the server uses.
    let inputs: Vec<Vec<f32>> = (0..64)
        .map(|i| {
            circnn::tensor::init::uniform(&mut seeded_rng(5000 + i), &[n], -1.0, 1.0)
                .data()
                .to_vec()
        })
        .collect();
    let mut scratch = InferScratch::new();
    let direct: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| {
            let t = Tensor::from_vec(x.clone(), &[1, n]);
            net.infer(&t, &mut scratch).data().to_vec()
        })
        .collect();

    let model = SequentialModel::new(net, n).map_err(std::io::Error::other)?;
    let mlp = pool.add_tenant(
        model,
        TenantConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            ..Default::default()
        },
    )?;
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| mlp.submit(x.clone()).expect("accepting"))
        .collect();
    for (h, expect) in handles.into_iter().zip(&direct) {
        assert_eq!(&h.wait().expect("served"), expect, "MLP serving diverged");
    }
    pool.shutdown();
    let stats = mlp.stats()?;
    println!(
        "   all {} answers bit-identical to direct infer",
        stats.requests
    );
    println!("   {stats}");
    Ok(())
}
