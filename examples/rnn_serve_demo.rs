//! Recurrent serving demo: train a block-circulant reservoir classifier
//! on frequency patterns, assemble it into a servable `Sequential`
//! (reservoir feature layer + trained dense readout), register it with
//! the wire registry, and classify sequences over TCP — every wire reply
//! checked bit-for-bit against the direct read-only inference path.
//!
//! This is the engine-unification payoff end to end: the same
//! spectral-plane core that serves FC nets and convnets runs the
//! recurrence (fused step: one accumulator set for both matmuls, bias and
//! tanh fused into each block's IFFT, weight spectra resident across
//! timesteps).
//!
//! Run with `cargo run --release --example rnn_serve_demo`.

use std::sync::Arc;

use circnn::core::ReservoirClassifier;
use circnn::nn::InferScratch;
use circnn::serve::TenantConfig;
use circnn::tensor::init::seeded_rng;
use circnn::tensor::Tensor;
use circnn::wire::{EventConfig, EventServer, ModelRegistry, WireClient};

const STEPS: usize = 24;

fn make_seq(freq: f32, phase: f32) -> Vec<Vec<f32>> {
    (0..STEPS)
        .map(|t| vec![(freq * t as f32 + phase).sin()])
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== circnn recurrent serving demo ==\n");

    // 1) Train: a fixed circulant reservoir encodes each sequence; only
    //    the dense readout learns (low vs high frequency sinusoids).
    let mut sequences = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        let phase = i as f32 * 0.7;
        sequences.push(make_seq(0.25, phase));
        labels.push(0usize);
        sequences.push(make_seq(1.1, phase));
        labels.push(1);
    }
    let mut rng = seeded_rng(42);
    let mut clf = ReservoirClassifier::new(&mut rng, 1, 64, 16, 2)?;
    let acc = clf.fit(&sequences, &labels, 60)?;
    println!(
        "reservoir readout trained: {:.1}% on the training set",
        acc * 100.0
    );

    // 2) Assemble the servable network (CirculantRnn feature layer +
    //    readout) and register it: sequences arrive as flat [T·1] vectors
    //    that reshape to [T, 1] per sample.
    let net = clf.into_network();
    let registry = Arc::new(ModelRegistry::new(2)?);
    registry.add_network("reservoir", net, &[STEPS, 1], TenantConfig::default())?;

    // 3) Serve over TCP and classify held-out sequences.
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default())?;
    let addr = server.local_addr();
    println!("serving on {addr}\n");

    // Reference copy of the same network for the bitwise check.
    let mut rng = seeded_rng(42);
    let mut ref_clf = ReservoirClassifier::new(&mut rng, 1, 64, 16, 2)?;
    ref_clf.fit(&sequences, &labels, 60)?;
    let ref_net = ref_clf.into_network();
    let mut scratch = InferScratch::new();

    let mut wire = WireClient::connect(addr)?;
    let mut correct = 0;
    let mut total = 0;
    for i in 0..8 {
        let phase = 100.0 + i as f32 * 0.31;
        for (freq, label) in [(0.25f32, 0usize), (1.1, 1)] {
            let seq = make_seq(freq, phase);
            let flat: Vec<f32> = seq.iter().flatten().copied().collect();
            let served = wire.infer("reservoir", &flat)?;
            let direct = ref_net
                .infer(&Tensor::from_vec(flat, &[1, STEPS, 1]), &mut scratch)
                .data()
                .to_vec();
            assert_eq!(served, direct, "wire reply diverged from direct infer");
            let class = if served[0] >= served[1] { 0 } else { 1 };
            total += 1;
            if class == label {
                correct += 1;
            }
        }
    }
    println!("held-out sequences over the wire: {correct}/{total} correct");
    println!("every reply bit-identical to direct Sequential::infer");

    let stats = wire.stats("reservoir")?;
    println!("\ntenant stats: {stats}");
    server.shutdown();
    Ok(())
}
