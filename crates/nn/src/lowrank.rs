//! SVD low-rank factorization — the paper's "systematic methods" baseline
//! (§2.2, refs [38, 39, 48]): compress `W ≈ U·Vᵀ` with rank `r`, storing
//! `r(m+n)` parameters instead of `m·n`. The paper notes such methods
//! "typically exhibit a relatively high degradation in the overall accuracy
//! (by 5%-10% at 10× compression)", which the Fig.-7 harness measures.

use circnn_tensor::{init::seeded_rng, Tensor};
use rand::Rng;

use crate::layer::Layer;
use crate::linear::Linear;

/// Leading singular triplets `(σ, u, v)` of a dense matrix, computed by
/// power iteration with deflation — dependency-free and accurate enough for
/// compression (the spectrum tail does not matter here).
///
/// Returns `(sigmas, U, V)` with `U: [m, r]`, `V: [n, r]` column-orthonormal
/// up to numerical tolerance.
///
/// # Panics
///
/// Panics if `a` is not rank-2 or `r` exceeds `min(m, n)`.
pub fn top_singular_triplets(
    a: &Tensor,
    r: usize,
    iters: usize,
    seed: u64,
) -> (Vec<f32>, Tensor, Tensor) {
    assert_eq!(a.shape().rank(), 2, "SVD needs a matrix");
    let (m, n) = (a.dims()[0], a.dims()[1]);
    assert!(r <= m.min(n), "rank {r} exceeds min dimension {}", m.min(n));
    let mut work = a.clone();
    let mut rng = seeded_rng(seed);
    let mut sigmas = Vec::with_capacity(r);
    let mut u_cols: Vec<Vec<f32>> = Vec::with_capacity(r);
    let mut v_cols: Vec<Vec<f32>> = Vec::with_capacity(r);
    for _ in 0..r {
        // Power iteration on WᵀW.
        let mut v: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut v);
        let mut u = vec![0.0f32; m];
        let mut sigma = 0.0f32;
        for _ in 0..iters {
            u = work.matvec(&v);
            sigma = norm(&u);
            if sigma < 1e-12 {
                break;
            }
            for x in &mut u {
                *x /= sigma;
            }
            v = matvec_t(&work, &u);
            let nv = norm(&v);
            if nv < 1e-12 {
                break;
            }
            for x in &mut v {
                *x /= nv;
            }
        }
        // Deflate: W ← W − σ·u·vᵀ.
        let data = work.data_mut();
        for i in 0..m {
            for j in 0..n {
                data[i * n + j] -= sigma * u[i] * v[j];
            }
        }
        sigmas.push(sigma);
        u_cols.push(u);
        v_cols.push(v);
    }
    let mut u_mat = vec![0.0f32; m * r];
    let mut v_mat = vec![0.0f32; n * r];
    for (c, col) in u_cols.iter().enumerate() {
        for i in 0..m {
            u_mat[i * r + c] = col[i];
        }
    }
    for (c, col) in v_cols.iter().enumerate() {
        for j in 0..n {
            v_mat[j * r + c] = col[j];
        }
    }
    (
        sigmas,
        Tensor::from_vec(u_mat, &[m, r]),
        Tensor::from_vec(v_mat, &[n, r]),
    )
}

fn norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 1e-12 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

fn matvec_t(a: &Tensor, y: &[f32]) -> Vec<f32> {
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = vec![0.0f32; n];
    for i in 0..m {
        let yi = y[i];
        for (o, &w) in out.iter_mut().zip(&a.data()[i * n..(i + 1) * n]) {
            *o += yi * w;
        }
    }
    out
}

/// A factored linear layer `y = U·(Vᵀ·x) + b` with rank-`r` factors.
#[derive(Debug, Clone)]
pub struct LowRankLinear {
    /// `[m, r]` left factor (singular values folded in).
    u: Tensor,
    /// `[r, n]` right factor.
    vt: Tensor,
    bias: Vec<f32>,
    ugrad: Tensor,
    vtgrad: Tensor,
    bgrad: Vec<f32>,
}

impl LowRankLinear {
    /// Compresses a dense layer to rank `r` via truncated SVD.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the smaller weight dimension.
    pub fn compress(layer: &Linear, r: usize) -> Self {
        let (sigmas, u, v) = top_singular_triplets(layer.weight(), r, 30, 0x5EED);
        // Fold σ into U.
        let (m, n) = (layer.weight().dims()[0], layer.weight().dims()[1]);
        let mut u_scaled = u.clone();
        for i in 0..m {
            for c in 0..r {
                u_scaled.data_mut()[i * r + c] *= sigmas[c];
            }
        }
        // vt[r, n] from v[n, r].
        let mut vt = vec![0.0f32; r * n];
        for j in 0..n {
            for c in 0..r {
                vt[c * n + j] = v.data()[j * r + c];
            }
        }
        Self {
            ugrad: Tensor::zeros(&[m, r]),
            vtgrad: Tensor::zeros(&[r, n]),
            bgrad: vec![0.0; m],
            u: u_scaled,
            vt: Tensor::from_vec(vt, &[r, n]),
            bias: layer.bias().to_vec(),
        }
    }

    /// Rank of the factorization.
    pub fn rank(&self) -> usize {
        self.u.dims()[1]
    }

    /// Reconstructs the dense matrix `U·Vᵀ` (for error measurement).
    pub fn reconstruct(&self) -> Tensor {
        self.u.matmul(&self.vt)
    }
}

impl Layer for LowRankLinear {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        // Stateless: the backward pass recomputes `Vᵀ·x` from its input.
        self.infer_batch(input, &mut crate::InferScratch::new())
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let (m, r) = (self.u.dims()[0], self.u.dims()[1]);
        let n = self.vt.dims()[1];
        let batch = input.dims()[0];
        assert_eq!(input.len(), batch * n, "low-rank batch input mismatch");
        assert_eq!(
            grad_output.len(),
            batch * m,
            "low-rank grad length mismatch"
        );
        // Sample by sample, in order: the accumulation order of running the
        // samples as batches of one.
        circnn_tensor::stack_samples(batch, |b| {
            let x = &input.data()[b * n..(b + 1) * n];
            let g = &grad_output.data()[b * m..(b + 1) * m];
            // The forward's `Vᵀ·x`, bit for bit.
            let mid = self.vt.matvec(x);
            // ∂L/∂U = g·midᵀ ; ∂L/∂b = g
            for i in 0..m {
                for c in 0..r {
                    self.ugrad.data_mut()[i * r + c] += g[i] * mid[c];
                }
                self.bgrad[i] += g[i];
            }
            // g_mid = Uᵀ·g
            let gmid = matvec_t(&self.u, g);
            // ∂L/∂Vᵀ = g_mid·xᵀ
            for c in 0..r {
                for j in 0..n {
                    self.vtgrad.data_mut()[c * n + j] += gmid[c] * x[j];
                }
            }
            // ∂L/∂x = Vᵀᵀ·g_mid = V·g_mid
            Tensor::from_vec(matvec_t(&self.vt, &gmid), &[n])
        })
    }

    fn infer_batch(&self, input: &Tensor, _scratch: &mut crate::InferScratch) -> Tensor {
        let batch = input.dims()[0];
        let n = self.vt.dims()[1];
        assert_eq!(input.len(), batch * n, "low-rank batch input mismatch");
        let m = self.u.dims()[0];
        circnn_tensor::stack_samples(batch, |b| {
            let mid = self.vt.matvec(&input.data()[b * n..(b + 1) * n]);
            let mut y = self.u.matvec(&mid);
            for (v, &bias) in y.iter_mut().zip(&self.bias) {
                *v += bias;
            }
            Tensor::from_vec(y, &[m])
        })
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(self.u.data_mut(), self.ugrad.data_mut());
        visitor(self.vt.data_mut(), self.vtgrad.data_mut());
        visitor(&mut self.bias, &mut self.bgrad);
    }

    fn param_count(&self) -> usize {
        self.u.len() + self.vt.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "LowRankLinear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn svd_recovers_rank_one_matrix() {
        // W = 3·u·vᵀ exactly.
        let u = [0.6f32, 0.8];
        let v = [1.0f32 / 3.0f32.sqrt(); 3];
        let mut w = vec![0.0f32; 6];
        for i in 0..2 {
            for j in 0..3 {
                w[i * 3 + j] = 3.0 * u[i] * v[j];
            }
        }
        let a = Tensor::from_vec(w, &[2, 3]);
        let (sigmas, _, _) = top_singular_triplets(&a, 1, 50, 1);
        assert!((sigmas[0] - 3.0).abs() < 1e-3, "σ = {}", sigmas[0]);
    }

    #[test]
    fn singular_values_are_decreasing() {
        let mut rng = seeded_rng(2);
        let a = circnn_tensor::init::uniform(&mut rng, &[12, 10], -1.0, 1.0);
        let (sigmas, _, _) = top_singular_triplets(&a, 5, 60, 2);
        for pair in sigmas.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-4, "sigmas not sorted: {sigmas:?}");
        }
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let mut rng = seeded_rng(3);
        let layer = Linear::new(&mut rng, 6, 5);
        let lr = LowRankLinear::compress(&layer, 5);
        let recon = lr.reconstruct();
        let err: f32 = recon
            .data()
            .iter()
            .zip(layer.weight().data())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        let scale = layer.weight().norm_sqr().sqrt();
        assert!(err < 2e-2 * scale, "relative error {}", err / scale);
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        let mut rng = seeded_rng(4);
        let layer = Linear::new(&mut rng, 16, 16);
        let err_at = |r: usize| {
            let lr = LowRankLinear::compress(&layer, r);
            lr.reconstruct()
                .data()
                .iter()
                .zip(layer.weight().data())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
        };
        let e2 = err_at(2);
        let e8 = err_at(8);
        assert!(e8 < e2, "rank 8 error {e8} should beat rank 2 error {e2}");
    }

    #[test]
    fn forward_approximates_dense_layer() {
        use crate::layer::Layer as _;
        let mut rng = seeded_rng(5);
        let mut dense = Linear::new(&mut rng, 8, 8);
        let mut lr = LowRankLinear::compress(&dense, 8);
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 8], -1.0, 1.0);
        let yd = dense.forward_batch(&x);
        let yl = lr.forward_batch(&x);
        for (a, b) in yd.data().iter().zip(yl.data()) {
            assert!((a - b).abs() < 5e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn training_forward_is_the_factored_matvecs_bit_for_bit() {
        use crate::layer::Layer as _;
        let mut rng = seeded_rng(8);
        let mut lr = LowRankLinear::compress(&Linear::new(&mut rng, 6, 4), 3);
        let mut x = circnn_tensor::init::uniform(&mut rng, &[3, 6], -1.0, 1.0);
        x.data_mut()[6..12].fill(-0.0);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let trained = lr.forward_batch(&x);
        for b in 0..3 {
            // y = U·(Vᵀ·x) + b, one matvec at a time.
            let mut expect = lr.u.matvec(&lr.vt.matvec(&x.data()[b * 6..(b + 1) * 6]));
            for (v, &bias) in expect.iter_mut().zip(&lr.bias) {
                *v += bias;
            }
            assert_eq!(bits(&trained.data()[b * 4..(b + 1) * 4]), bits(&expect));
        }
    }

    #[test]
    fn gradient_check() {
        use crate::layer::testutil::{check_input_gradient, check_param_gradients};
        let mut rng = seeded_rng(6);
        let dense = Linear::new(&mut rng, 6, 4);
        let mut lr = LowRankLinear::compress(&dense, 2);
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 6], -1.0, 1.0);
        check_input_gradient(&mut lr, &x, 2e-2);
        check_param_gradients(&mut lr, &x, 2e-2);
    }

    #[test]
    fn param_count_is_r_times_m_plus_n() {
        let mut rng = seeded_rng(7);
        let dense = Linear::new(&mut rng, 100, 50);
        let lr = LowRankLinear::compress(&dense, 10);
        assert_eq!(lr.param_count(), 10 * (100 + 50) + 50);
        assert!(lr.param_count() < dense.param_count());
    }
}
