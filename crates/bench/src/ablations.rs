//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. frequency-domain accumulation (one IFFT per output block-row) vs the
//!    literal per-block IFFT of Algorithm 1 as printed;
//! 2. real-FFT Hermitian symmetry on/off (Fig. 10's "red circles");
//! 3. depth `d` sweep on the basic computing block (§4.3);
//! 4. block-size sweep: compression / accuracy / runtime trade-off
//!    (the paper's "fine-grained tradeoff" of §2.4);
//! 5. spectrum caching (store `FFT(w)`) vs recomputing per call (§4.2);
//! 6. quantization bit-width sweep (16-bit fine, 4-bit broken, §5.2).

use std::time::Instant;

use circnn_core::BlockCirculantMatrix;
use circnn_fft::{ops, Complex, RealFftPlan};
use circnn_hw::bcb::BasicComputingBlock;
use circnn_models::zoo::Benchmark;
use circnn_nn::trainer::{evaluate_accuracy, train_classifier, TrainConfig};
use circnn_nn::{Adam, Layer as _};
use circnn_quant::fake_quantize_layer;
use circnn_tensor::init::seeded_rng;

use crate::table::{pct, Table};

fn time_s<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Algorithm 1 exactly as printed in the paper: one IFFT **per block**,
/// accumulated in the time domain — `p·q` inverse transforms where the
/// engine's frequency-domain accumulation does `p`. Built from the
/// operator's defining vectors; `FFT(w_ij)` is computed once up front, as
/// the engine caches its own.
struct PerBlockIfft {
    m: usize,
    k: usize,
    p: usize,
    q: usize,
    plan: RealFftPlan<f32>,
    /// `FFT(w_ij)`, block-row-major, `k/2 + 1` bins each.
    spectra: Vec<Complex<f32>>,
}

impl PerBlockIfft {
    fn new(w: &BlockCirculantMatrix) -> Self {
        let (k, bins) = (w.block_size(), w.bins());
        let plan = RealFftPlan::new(k).expect("power-of-two block size");
        let mut spectra = vec![Complex::zero(); w.block_rows() * w.block_cols() * bins];
        let mut scratch = vec![Complex::zero(); k / 2];
        for (block, spec) in w.weights().chunks(k).zip(spectra.chunks_mut(bins)) {
            plan.forward_with_scratch(block, spec, &mut scratch)
                .expect("sizes fixed by the operator");
        }
        Self {
            m: w.rows(),
            k,
            p: w.block_rows(),
            q: w.block_cols(),
            plan,
            spectra,
        }
    }

    /// `W·x` with `x` of the operator's logical width `n`.
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let (k, bins) = (self.k, self.k / 2 + 1);
        let mut pad = vec![0.0f32; self.q * k];
        pad[..x.len()].copy_from_slice(x);
        let mut scratch = vec![Complex::zero(); k / 2];
        let mut xs = vec![Complex::zero(); self.q * bins];
        for (block, spec) in pad.chunks(k).zip(xs.chunks_mut(bins)) {
            self.plan
                .forward_with_scratch(block, spec, &mut scratch)
                .expect("sizes fixed by the operator");
        }
        let mut y = vec![0.0f32; self.p * k];
        let mut prod = vec![Complex::zero(); bins];
        let mut block_out = vec![0.0f32; k];
        for (i, out) in y.chunks_mut(k).enumerate() {
            for j in 0..self.q {
                let w = &self.spectra[(i * self.q + j) * bins..][..bins];
                let xb = &xs[j * bins..][..bins];
                for ((slot, wb), xv) in prod.iter_mut().zip(w).zip(xb) {
                    *slot = wb.conj() * *xv;
                }
                self.plan
                    .inverse_with_scratch(&prod, &mut block_out, &mut scratch)
                    .expect("sizes fixed by the operator");
                for (slot, &v) in out.iter_mut().zip(&block_out) {
                    *slot += v;
                }
            }
        }
        y.truncate(self.m);
        y
    }
}

/// Ablation 1+5: matvec variants on a 4096→4096, k = 256 layer.
pub fn matvec_variants(quick: bool) -> Vec<(String, f64)> {
    let n = if quick { 1024 } else { 4096 };
    let k = if quick { 128 } else { 256 };
    let mut rng = seeded_rng(1);
    let w = BlockCirculantMatrix::random(&mut rng, n, n, k).expect("valid");
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.001).sin()).collect();
    let reps = if quick { 3 } else { 20 };
    let accum = time_s(reps, || {
        let _ = w.matvec(&x).expect("dims fixed");
    });
    let literal = PerBlockIfft::new(&w);
    let naive = time_s(reps, || {
        let _ = literal.matvec(&x);
    });
    // Spectrum caching ablation: recompute FFT(w) on every call by
    // rebuilding the operator (what a cache-less implementation pays).
    let weights = w.weights().to_vec();
    let recompute = time_s(reps, || {
        let fresh = BlockCirculantMatrix::from_weights(n, n, k, &weights).expect("valid");
        let _ = fresh.matvec(&x).expect("dims fixed");
    });
    vec![
        ("freq-domain accumulation (ours)".into(), accum),
        ("per-block IFFT (Algorithm 1 literal)".into(), naive),
        ("no spectrum cache (re-FFT weights)".into(), recompute),
    ]
}

/// Ablation 2: butterfly counts with and without the Hermitian saving.
pub fn hermitian_savings() -> Vec<(usize, u64, u64)> {
    [64usize, 256, 1024, 4096]
        .into_iter()
        .map(|k| (k, ops::complex_fft_butterflies(k), ops::rfft_butterflies(k)))
        .collect()
}

/// Ablation 3: depth sweep at fixed p = 32 (Cyclone V bandwidth).
pub fn depth_sweep() -> Vec<(usize, f64, f64)> {
    (1..=4)
        .map(|d| {
            let bcb = BasicComputingBlock::new(32, d);
            (d, bcb.butterflies_per_cycle(), bcb.pipeline_efficiency())
        })
        .collect()
}

/// One row of the block-size sweep.
#[derive(Debug, Clone, Copy)]
pub struct BlockSweepRow {
    /// Block size.
    pub k: usize,
    /// Parameter compression on the MNIST model's first FC layer.
    pub compression: f64,
    /// Test accuracy of the retrained circulant model.
    pub accuracy: f32,
}

/// Ablation 4: block-size vs accuracy on the MNIST stand-in — the §2.4
/// "fine-grained tradeoff of accuracy and compression".
pub fn block_size_sweep(quick: bool) -> Vec<BlockSweepRow> {
    use circnn_core::CirculantLinear;
    use circnn_nn::{Flatten, Linear, Relu, Sequential};
    let blocks: &[usize] = if quick { &[1, 16] } else { &[1, 4, 16, 64] };
    let (train_n, test_n, epochs) = if quick { (120, 60, 2) } else { (600, 200, 5) };
    let full = Benchmark::Mnist.dataset(train_n + test_n, 21);
    let (train, test) = full.split_at(train_n);
    blocks
        .iter()
        .map(|&k| {
            let mut rng = seeded_rng(31);
            // A compact FC model so the block size is the only variable.
            let mut net = Sequential::new()
                .add(Flatten::new())
                .add(CirculantLinear::new(&mut rng, 784, 128, k).expect("valid"))
                .add(Relu::new())
                .add(Linear::new(&mut rng, 128, 10));
            let mut opt = Adam::new(0.002);
            let cfg = TrainConfig {
                epochs,
                batch_size: 16,
                shuffle_seed: 3,
                ..Default::default()
            };
            let _ = train_classifier(&mut net, &mut opt, &train.images, &train.labels, &cfg);
            let accuracy = evaluate_accuracy(&mut net, &test.images, &test.labels);
            BlockSweepRow {
                k,
                compression: k as f64,
                accuracy,
            }
        })
        .collect()
}

/// Related-work baseline (§2.3, LeCun et al. \[52\]): spatial FFT convolution
/// accelerates large kernels but keeps (indeed grows) the storage, while
/// CirCNN compresses the parameters themselves. One row per method:
/// `(name, forward seconds, stored floats)`.
pub fn lecun_comparison(quick: bool) -> Vec<(String, f64, usize)> {
    use circnn_core::{CirculantConv2d, LeCunFftConv2d};
    use circnn_nn::Conv2d;
    use circnn_tensor::Tensor;
    // Large 11×11 kernels on a 32×32 map — the regime [52] targets.
    let (c, p, r, h) = (8usize, 8usize, 11usize, 32usize);
    let reps = if quick { 2 } else { 10 };
    let mut rng = seeded_rng(71);
    let x = Tensor::from_vec(
        (0..c * h * h).map(|i| (i as f32 * 0.003).sin()).collect(),
        &[c, h, h],
    );
    let xb = x.reshape(&[1, c, h, h]);
    let mut dense = Conv2d::new(&mut rng, c, p, r, 1, 0);
    let t_dense = time_s(reps, || {
        let _ = dense.forward_batch(&xb);
    });
    let mut lecun = LeCunFftConv2d::new(&mut rng, c, p, r).unwrap();
    let _ = lecun.forward(&x).unwrap(); // plan + spectra
    let t_lecun = time_s(reps, || {
        let _ = lecun.forward(&x).unwrap();
    });
    let mut circ = CirculantConv2d::new(&mut rng, c, p, r, 1, 0, 8).unwrap();
    let t_circ = time_s(reps, || {
        let _ = circ.forward_batch(&xb);
    });
    vec![
        ("dense conv (im2col GEMM)".into(), t_dense, c * p * r * r),
        (
            "LeCun FFT conv [52]".into(),
            t_lecun,
            lecun.parameter_count() + lecun.spectrum_storage_floats(),
        ),
        (
            "CirCNN circulant conv (k=8)".into(),
            t_circ,
            c * p * r * r / 8,
        ),
    ]
}

/// Ablation 6: accuracy vs quantization bit width on a trained MNIST model.
pub fn quantization_sweep(quick: bool) -> Vec<(u32, f32)> {
    let (train_n, test_n, epochs) = if quick { (150, 60, 2) } else { (600, 200, 4) };
    let full = Benchmark::Mnist.dataset(train_n + test_n, 51);
    let (train, test) = full.split_at(train_n);
    let mut rng = seeded_rng(61);
    let mut net = Benchmark::Mnist.build_circulant(&mut rng);
    let mut opt = Adam::new(0.002);
    let cfg = TrainConfig {
        epochs,
        batch_size: 16,
        shuffle_seed: 1,
        ..Default::default()
    };
    let _ = train_classifier(&mut net, &mut opt, &train.images, &train.labels, &cfg);
    let bits_list: &[u32] = if quick {
        &[16, 4]
    } else {
        &[24, 16, 8, 6, 4, 2]
    };
    bits_list
        .iter()
        .map(|&bits| {
            let mut rng2 = seeded_rng(61);
            let mut qnet = Benchmark::Mnist.build_circulant(&mut rng2);
            // Copy trained weights, then quantize.
            let mut source = Vec::new();
            net.visit_params(&mut |p, _| source.push(p.to_vec()));
            let mut i = 0;
            qnet.visit_params(&mut |p, _| {
                p.copy_from_slice(&source[i]);
                i += 1;
            });
            let _ = fake_quantize_layer(&mut qnet, bits);
            (
                bits,
                evaluate_accuracy(&mut qnet, &test.images, &test.labels),
            )
        })
        .collect()
}

/// Prints every ablation.
pub fn print_all(quick: bool) {
    let mut t = Table::new(
        "Ablation: matvec variants (4096×4096, k=256)",
        &["variant", "time/call"],
    );
    for (name, secs) in matvec_variants(quick) {
        t.row(&[name, format!("{:.3} ms", secs * 1e3)]);
    }
    t.print();

    let mut h = Table::new(
        "Ablation: Hermitian-symmetry saving (butterflies per FFT)",
        &["size", "complex FFT", "real FFT (ours)", "saving"],
    );
    for (k, c, r) in hermitian_savings() {
        h.row(&[
            format!("{k}"),
            format!("{c}"),
            format!("{r}"),
            pct(1.0 - r as f64 / c as f64),
        ]);
    }
    h.print();

    let mut d = Table::new(
        "Ablation: depth sweep at p=32 (paper: d>3 impractical)",
        &["d", "butterflies/cycle", "pipeline efficiency"],
    );
    for (depth, tput, eff) in depth_sweep() {
        d.row(&[
            format!("{depth}"),
            format!("{tput:.1}"),
            format!("{eff:.2}"),
        ]);
    }
    d.print();

    let mut b = Table::new(
        "Ablation: block size vs accuracy (784→128 FC on MNIST stand-in)",
        &["k", "compression", "test accuracy"],
    );
    for row in block_size_sweep(quick) {
        b.row(&[
            format!("{}", row.k),
            format!("{:.0}×", row.compression),
            pct(f64::from(row.accuracy)),
        ]);
    }
    b.print();

    let mut l = Table::new(
        "Related work [52]: LeCun FFT conv vs CirCNN (8->8 ch, 11x11 kernel, 32x32 map)",
        &["method", "forward time", "stored floats"],
    );
    for (name, secs, floats) in lecun_comparison(quick) {
        l.row(&[name, format!("{:.3} ms", secs * 1e3), format!("{floats}")]);
    }
    l.print();

    let mut q = Table::new(
        "Ablation: weight quantization (paper: 16-bit negligible, 4-bit broken)",
        &["bits", "test accuracy"],
    );
    for (bits, acc) in quantization_sweep(quick) {
        q.row(&[format!("{bits}"), pct(f64::from(acc))]);
    }
    q.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_domain_accumulation_beats_naive() {
        let rows = matvec_variants(true);
        let accum = rows[0].1;
        let naive = rows[1].1;
        let recompute = rows[2].1;
        assert!(naive > accum, "naive {naive} should be slower than {accum}");
        assert!(
            recompute > accum,
            "no-cache {recompute} should be slower than {accum}"
        );
    }

    #[test]
    fn naive_and_accumulated_forward_agree() {
        let w = BlockCirculantMatrix::random(&mut seeded_rng(5), 24, 40, 8).expect("valid");
        let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.37).sin() * 0.6).collect();
        let fast = w.matvec(&x).expect("dims fixed");
        let naive = PerBlockIfft::new(&w).matvec(&x);
        assert_eq!(fast.len(), naive.len());
        for (a, b) in fast.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn hermitian_saving_is_at_least_half() {
        for (_, c, r) in hermitian_savings() {
            assert!((r as f64) < 0.6 * c as f64);
        }
    }

    #[test]
    fn depth_sweep_has_diminishing_returns() {
        let sweep = depth_sweep();
        let g12 = sweep[1].1 / sweep[0].1;
        let g34 = sweep[3].1 / sweep[2].1;
        assert!(g12 > g34, "d gains must diminish: {g12} vs {g34}");
    }
}
