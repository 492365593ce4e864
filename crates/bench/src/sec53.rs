//! §5.3 — embedded-processor measurements.
//!
//! The paper runs LeNet-5 and AlexNet FC layers on an ARM Cortex-A9
//! smartphone. Here the **host CPU running this very Rust implementation**
//! is the embedded processor (substitution documented in DESIGN.md): the
//! claims under test are *relative* — block-circulant FC beats dense GEMV,
//! the advantage grows with layer size (the paper's "benefits of
//! computational complexity reduction become more significant when the
//! model size becomes larger"), and LeNet-5 inference is millisecond-scale.

use std::time::Instant;

use circnn_core::BlockCirculantMatrix;
use circnn_hw::baselines::embedded;
use circnn_models::{lenet5_circulant, lenet5_dense};
use circnn_nn::Layer;
use circnn_tensor::{init::seeded_rng, Tensor};

use crate::table::Table;

/// Measured §5.3 quantities.
#[derive(Debug, Clone)]
pub struct Sec53 {
    /// ms per LeNet-5 (circulant) forward pass on the host.
    pub lenet_circ_ms: f64,
    /// ms per LeNet-5 (dense) forward pass on the host.
    pub lenet_dense_ms: f64,
    /// AlexNet FC6 (9216→4096, k = 128) circulant layers/s.
    pub alexnet_fc_circ_layers_per_s: f64,
    /// AlexNet FC6 dense layers/s.
    pub alexnet_fc_dense_layers_per_s: f64,
    /// Speedup of circulant over dense at a sweep of square layer sizes.
    pub size_sweep: Vec<(usize, f64)>,
}

fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warmup.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Runs the host-CPU measurements.
pub fn run(quick: bool) -> Sec53 {
    let reps = if quick { 3 } else { 20 };
    let mut rng = seeded_rng(3);
    let mut lenet_c = lenet5_circulant(&mut rng);
    let mut lenet_d = lenet5_dense(&mut rng);
    let image = Tensor::ones(&[1, 1, 28, 28]);
    let lenet_circ_ms = time_ms(reps, || {
        let _ = lenet_c.forward_batch(&image);
    });
    let lenet_dense_ms = time_ms(reps, || {
        let _ = lenet_d.forward_batch(&image);
    });

    // AlexNet FC6: 9216 → 4096 with block 128 (the paper's block size).
    let circ = BlockCirculantMatrix::random(&mut rng, 4096, 9216, 128).expect("valid block");
    let dense = circnn_tensor::init::uniform(&mut rng, &[4096, 9216], -0.01, 0.01);
    let x: Vec<f32> = (0..9216).map(|i| (i as f32 * 0.001).sin()).collect();
    let fc_reps = if quick { 2 } else { 10 };
    let circ_ms = time_ms(fc_reps, || {
        let _ = circ.matvec(&x).expect("dims fixed");
    });
    let dense_ms = time_ms(fc_reps, || {
        let _ = dense.matvec(&x);
    });

    // Crossover sweep: square n×n layers, k = min(n, 128). The quick
    // configuration uses the extremes so the growth trend is measurable
    // even on a noisy debug build.
    let sizes: &[usize] = if quick {
        &[128, 2048]
    } else {
        &[128, 256, 512, 1024, 2048, 4096]
    };
    let size_sweep = sizes
        .iter()
        .map(|&n| {
            let k = n.min(128);
            let w = BlockCirculantMatrix::random(&mut rng, n, n, k).expect("valid block");
            let d = circnn_tensor::init::uniform(&mut rng, &[n, n], -0.01, 0.01);
            let xv: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).cos()).collect();
            let sweep_reps = if quick {
                4
            } else {
                (2_000_000 / (n * n)).clamp(3, 200)
            };
            let tc = time_ms(sweep_reps, || {
                let _ = w.matvec(&xv).expect("dims fixed");
            });
            let td = time_ms(sweep_reps, || {
                let _ = d.matvec(&xv);
            });
            (n, td / tc)
        })
        .collect();

    Sec53 {
        lenet_circ_ms,
        lenet_dense_ms,
        alexnet_fc_circ_layers_per_s: 1e3 / circ_ms,
        alexnet_fc_dense_layers_per_s: 1e3 / dense_ms,
        size_sweep,
    }
}

/// Prints the §5.3 tables with the paper's published comparators.
pub fn print(r: &Sec53) {
    let mut t = Table::new(
        "Sec. 5.3: embedded-processor results (host CPU stands in for ARM Cortex-A9)",
        &[
            "quantity",
            "measured (host)",
            "paper (ARM A9)",
            "published comparator",
        ],
    );
    t.row(&[
        "LeNet-5 ms/image (circulant)".into(),
        format!("{:.3} ms", r.lenet_circ_ms),
        format!("{:.1} ms", embedded::PAPER_ARM_MNIST_MS),
        format!(
            "TrueNorth high-acc: {:.0} img/s",
            embedded::TRUENORTH_HIGH_ACCURACY_MNIST_FPS
        ),
    ]);
    t.row(&[
        "LeNet-5 ms/image (dense)".into(),
        format!("{:.3} ms", r.lenet_dense_ms),
        "—".into(),
        format!(
            "Tesla C2075: {:.0} img/s @ {:.1} W",
            embedded::TESLA_C2075_MNIST_FPS,
            embedded::TESLA_C2075_POWER_W
        ),
    ]);
    t.row(&[
        "AlexNet FC6 layers/s (circulant)".into(),
        format!("{:.0}", r.alexnet_fc_circ_layers_per_s),
        format!("{:.0}", embedded::PAPER_ARM_ALEXNET_FC_LAYERS_PER_S),
        format!(
            "Tesla C2075: {:.0} layers/s",
            embedded::TESLA_C2075_ALEXNET_FC_LAYERS_PER_S
        ),
    ]);
    t.row(&[
        "AlexNet FC6 layers/s (dense)".into(),
        format!("{:.0}", r.alexnet_fc_dense_layers_per_s),
        "—".into(),
        "—".into(),
    ]);
    t.print();

    let mut s = Table::new(
        "Circulant-over-dense FC speedup vs layer size (the paper's 'benefits grow with model size')",
        &["n (square layer)", "speedup"],
    );
    for (n, speedup) in &r.size_sweep {
        s.row(&[format!("{n}"), format!("{speedup:.1}×")]);
    }
    s.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circulant_fc6_beats_dense_substantially() {
        let r = run(true);
        assert!(
            r.alexnet_fc_circ_layers_per_s > 3.0 * r.alexnet_fc_dense_layers_per_s,
            "circ {} vs dense {}",
            r.alexnet_fc_circ_layers_per_s,
            r.alexnet_fc_dense_layers_per_s
        );
    }

    #[test]
    fn speedup_grows_with_layer_size() {
        let r = run(true);
        assert!(r.size_sweep.len() >= 2);
        let first = r.size_sweep.first().unwrap().1;
        let last = r.size_sweep.last().unwrap().1;
        assert!(last > first, "speedup should grow: {first} → {last}");
    }
}
