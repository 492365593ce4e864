//! §3.4 — training acceleration for DBN-scale FC stacks.
//!
//! The paper observes "a 5× to 9× acceleration in training … for DBNs"
//! (noting the gap to the full model-reduction ratio is the FFT's constant
//! factor). The measurement here is direct: wall-clock per training step —
//! an RBM CD-1 update, and an FC forward+backward — with dense vs
//! block-circulant weights of the same logical size, on the host CPU.

use std::time::Instant;

use circnn_core::{BlockCirculantMatrix, CirculantLinear};
use circnn_nn::rbm::Rbm;
use circnn_nn::{DenseOp, Layer, Linear};
use circnn_tensor::{init::seeded_rng, Tensor};

use crate::table::Table;

/// One size point of the training-speedup measurement.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupPoint {
    /// Layer width `n` (square layers).
    pub n: usize,
    /// Circulant block size.
    pub block: usize,
    /// RBM CD-1 step speedup (dense time / circulant time).
    pub rbm_speedup: f64,
    /// FC forward+backward speedup.
    pub fc_speedup: f64,
}

fn time_s<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Measures RBM and FC training-step speedups at the given widths.
pub fn run(quick: bool) -> Vec<SpeedupPoint> {
    let sizes: &[(usize, usize)] = if quick {
        &[(512, 128)]
    } else {
        &[(1024, 128), (2048, 256), (4096, 512)]
    };
    let mut rng = seeded_rng(5);
    sizes
        .iter()
        .map(|&(n, block)| {
            let reps = if quick {
                2
            } else {
                (8_000_000 / (n * n)).clamp(2, 50)
            };
            let v0: Vec<f32> = (0..n).map(|i| f32::from(i % 2 == 0)).collect();
            // RBM: dense vs circulant weight operator.
            let mut rbm_dense = Rbm::new(DenseOp::zeros(n, n));
            let mut rng_a = seeded_rng(9);
            let td = time_s(reps, || {
                let _ = rbm_dense.cd1_step(&v0, 0.01, &mut rng_a);
            });
            let circ_op = BlockCirculantMatrix::random(&mut rng, n, n, block).expect("valid");
            let mut rbm_circ = Rbm::new(circ_op);
            let mut rng_b = seeded_rng(9);
            let tc = time_s(reps, || {
                let _ = rbm_circ.cd1_step(&v0, 0.01, &mut rng_b);
            });
            // FC training step on one sample (a batch of one): forward +
            // backward.
            let x = Tensor::from_vec(v0.clone(), &[1, n]);
            let g = Tensor::ones(&[1, n]);
            let mut fc_dense = Linear::new(&mut rng, n, n);
            let tfd = time_s(reps, || {
                let _ = fc_dense.forward_batch(&x);
                let _ = fc_dense.backward_batch(&x, &g);
            });
            let mut fc_circ = CirculantLinear::new(&mut rng, n, n, block).expect("valid");
            let tfc = time_s(reps, || {
                let _ = fc_circ.forward_batch(&x);
                let _ = fc_circ.backward_batch(&x, &g);
            });
            SpeedupPoint {
                n,
                block,
                rbm_speedup: td / tc,
                fc_speedup: tfd / tfc,
            }
        })
        .collect()
}

/// Prints the speedup table.
pub fn print(points: &[SpeedupPoint]) {
    let mut t = Table::new(
        "Sec. 3.4: training-step speedup, block-circulant vs dense (paper: 5-9x for DBNs)",
        &["n", "block k", "RBM CD-1 speedup", "FC fwd+bwd speedup"],
    );
    for p in points {
        t.row(&[
            format!("{}", p.n),
            format!("{}", p.block),
            format!("{:.1}×", p.rbm_speedup),
            format!("{:.1}×", p.fc_speedup),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circulant_training_step_is_faster_at_scale() {
        let points = run(true);
        let p = points[0];
        assert!(p.rbm_speedup > 1.5, "rbm speedup {}", p.rbm_speedup);
        assert!(p.fc_speedup > 1.5, "fc speedup {}", p.fc_speedup);
    }
}
