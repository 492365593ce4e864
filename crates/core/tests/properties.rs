//! Property tests for the block-circulant operators — the algebra the
//! whole reproduction stands on, checked against dense materializations on
//! randomized shapes.

use circnn_core::{BlockCirculantMatrix, CirculantMatrix, Workspace};
use circnn_nn::LinearOp;
use proptest::prelude::*;

/// Random (m, n, k, seed) with k a power of two ≤ 32 and dims ≤ 48.
fn shapes() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..48, 1usize..48, 0u32..6, any::<u64>())
        .prop_map(|(m, n, logk, seed)| (m, n, 1usize << logk, seed))
}

fn random_weights(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 0.5
        })
        .collect()
}

/// Batch sizes on both sides of the SSE2 (4) and AVX2 (8) vector widths
/// and of the FFT codelets' 8-lane tile: tail-only, whole vectors or tiles,
/// and vectors or tiles plus a tail (9 is one tile and one lone lane).
fn wide_batches() -> impl Strategy<Value = usize> {
    (0usize..7).prop_map(|i| [2, 3, 5, 8, 9, 17, 32][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matvec_equals_dense_matvec((m, n, k, seed) in shapes()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let x = random_weights(n, seed ^ 0xABCD);
        let fast = w.matvec(&x).unwrap();
        let dense = w.to_dense().matvec(&x);
        let scale = dense.iter().fold(1.0f32, |a, &b| a.max(b.abs()));
        for (a, b) in fast.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-3 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn transpose_equals_dense_transpose((m, n, k, seed) in shapes()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let y = random_weights(m, seed ^ 0x1234);
        let fast = w.matvec_t(&y).unwrap();
        let dense = w.to_dense().transpose().matvec(&y);
        let scale = dense.iter().fold(1.0f32, |a, &b| a.max(b.abs()));
        for (a, b) in fast.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-3 * scale);
        }
    }

    #[test]
    fn adjoint_identity((m, n, k, seed) in shapes()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let x = random_weights(n, seed ^ 1);
        let y = random_weights(m, seed ^ 2);
        let lhs: f32 = w.matvec(&x).unwrap().iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&w.matvec_t(&y).unwrap()).map(|(a, b)| a * b).sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() < 2e-3 * scale);
    }

    #[test]
    fn matvec_is_linear((m, n, k, seed) in shapes(), alpha in -3.0f32..3.0) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let x1 = random_weights(n, seed ^ 3);
        let x2 = random_weights(n, seed ^ 4);
        let combo: Vec<f32> = x1.iter().zip(&x2).map(|(a, b)| a + alpha * b).collect();
        let lhs = w.matvec(&combo).unwrap();
        let y1 = w.matvec(&x1).unwrap();
        let y2 = w.matvec(&x2).unwrap();
        for i in 0..m {
            let rhs = y1[i] + alpha * y2[i];
            prop_assert!((lhs[i] - rhs).abs() < 2e-3 * rhs.abs().max(1.0));
        }
    }

    #[test]
    fn parameter_count_is_pqk((m, n, k, _seed) in shapes()) {
        let w = BlockCirculantMatrix::zeros(m, n, k).unwrap();
        prop_assert_eq!(w.num_parameters(), m.div_ceil(k) * n.div_ceil(k) * k);
        prop_assert!(w.compression_ratio() <= k as f64 + 1e-9);
    }

    #[test]
    fn projection_is_idempotent((m, n, k, seed) in shapes()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let reproj = BlockCirculantMatrix::project_from_dense(&w.to_dense(), k).unwrap();
        let again = BlockCirculantMatrix::project_from_dense(&reproj.to_dense(), k).unwrap();
        for (a, b) in reproj.weights().iter().zip(again.weights()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn single_block_matches_circulant_matrix(logk in 0u32..6, seed in any::<u64>()) {
        let k = 1usize << logk;
        let weights = random_weights(k, seed);
        let block = BlockCirculantMatrix::from_weights(k, k, k, &weights).unwrap();
        let single = CirculantMatrix::from_first_row(weights).unwrap();
        let x = random_weights(k, seed ^ 9);
        let a = block.matvec(&x).unwrap();
        let b = single.matvec(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn linear_op_surface_agrees_with_inherent_methods((m, n, k, seed) in shapes()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let x = random_weights(n, seed ^ 5);
        prop_assert_eq!(LinearOp::matvec(&w, &x), w.matvec(&x).unwrap());
        prop_assert_eq!(LinearOp::out_dim(&w), m);
        prop_assert_eq!(LinearOp::in_dim(&w), n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched engine column-wise reproduces the dense product (to
    /// rounding: the dense reference sums in the time domain), including
    /// ragged m/n not divisible by k.
    #[test]
    fn forward_batch_columns_equal_dense_matvec((m, n, k, seed) in shapes(), batch in 1usize..8) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let dense = w.to_dense();
        let x = random_weights(batch * n, seed ^ 0xB00C);
        let mut ws = Workspace::new();
        let y = w.matmat(&x, batch, &mut ws).unwrap();
        for b in 0..batch {
            let expect = dense.matvec(&x[b * n..(b + 1) * n]);
            for (a, e) in y[b * m..(b + 1) * m].iter().zip(&expect) {
                prop_assert!((a - e).abs() < 5e-4 * e.abs().max(1.0),
                    "({},{},{}) batch {} sample {}: {} vs {}", m, n, k, batch, b, a, e);
            }
        }
    }

    /// Same property for the batched transpose apply.
    #[test]
    fn backward_batch_columns_equal_dense_transpose((m, n, k, seed) in shapes(), batch in 1usize..8) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let dense_t = w.to_dense().transpose();
        let g = random_weights(batch * m, seed ^ 0x5EED);
        let mut ws = Workspace::new();
        let mut gx = vec![0.0f32; batch * n];
        w.backward_batch_into(&g, batch, &mut ws, &mut gx).unwrap();
        for b in 0..batch {
            let expect = dense_t.matvec(&g[b * m..(b + 1) * m]);
            for (a, e) in gx[b * n..(b + 1) * n].iter().zip(&expect) {
                prop_assert!((a - e).abs() < 5e-4 * e.abs().max(1.0),
                    "({},{},{}) batch {} sample {}: {} vs {}", m, n, k, batch, b, a, e);
            }
        }
    }

    /// Thread count never changes a bit: every output element accumulates in
    /// a fixed order, so the parallel path is exactly the serial path.
    #[test]
    fn parallel_path_is_bit_identical_to_serial(
        (m, n, k, seed) in shapes(),
        batch in 1usize..8,
        threads in 2usize..6,
    ) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let x = random_weights(batch * n, seed ^ 0xFACE);
        let g = random_weights(batch * m, seed ^ 0xF00D);
        let mut ws_s = Workspace::new();
        let mut ws_p = Workspace::new();
        let mut y_s = vec![0.0f32; batch * m];
        let mut y_p = vec![0.0f32; batch * m];
        w.forward_batch_into_with_threads(&x, batch, &mut ws_s, &mut y_s, 1).unwrap();
        w.forward_batch_into_with_threads(&x, batch, &mut ws_p, &mut y_p, threads).unwrap();
        prop_assert_eq!(&y_s, &y_p, "forward diverged at {} threads", threads);
        let mut gx_s = vec![0.0f32; batch * n];
        let mut gx_p = vec![0.0f32; batch * n];
        w.backward_batch_into_with_threads(&g, batch, &mut ws_s, &mut gx_s, 1).unwrap();
        w.backward_batch_into_with_threads(&g, batch, &mut ws_p, &mut gx_p, threads).unwrap();
        prop_assert_eq!(&gx_s, &gx_p, "backward diverged at {} threads", threads);
        let mut wg_s = vec![0.0f32; w.num_parameters()];
        let mut wg_p = vec![0.0f32; w.num_parameters()];
        w.weight_gradient_batch_with_threads(&mut ws_s, &mut wg_s, 1).unwrap();
        w.weight_gradient_batch_with_threads(&mut ws_p, &mut wg_p, threads).unwrap();
        prop_assert_eq!(&wg_s, &wg_p, "weight gradient diverged at {} threads", threads);
    }

    /// A warm workspace keeps giving the same bits as a fresh one across
    /// differing shapes and batch sizes (grow-only buffers are re-sliced
    /// per call; `matvec` runs on a fresh arena).
    #[test]
    fn workspace_reuse_across_shapes_is_sound(
        (m1, n1, k1, seed1) in shapes(),
        (m2, n2, k2, seed2) in shapes(),
        batch in 1usize..5,
    ) {
        let mk = |m: usize, n: usize, k: usize, seed: u64| {
            let p = m.div_ceil(k);
            let q = n.div_ceil(k);
            BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap()
        };
        let a = mk(m1, n1, k1, seed1);
        let b = mk(m2, n2, k2, seed2);
        let xa = random_weights(batch * n1, seed1 ^ 1);
        let xb = random_weights((batch + 1) * n2, seed2 ^ 2);
        let mut ws = Workspace::new();
        let ya = a.matmat(&xa, batch, &mut ws).unwrap();
        let yb = b.matmat(&xb, batch + 1, &mut ws).unwrap();
        for s in 0..batch {
            let single = a.matvec(&xa[s * n1..(s + 1) * n1]).unwrap();
            prop_assert_eq!(&ya[s * m1..(s + 1) * m1], &single[..], "first operator, sample {}", s);
        }
        for s in 0..batch + 1 {
            let single = b.matvec(&xb[s * n2..(s + 1) * n2]).unwrap();
            prop_assert_eq!(&yb[s * m2..(s + 1) * m2], &single[..], "second operator, sample {}", s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch-composition invariance: a sample's output row is **bitwise**
    /// identical whether it is computed alone (`B = 1`, the MAC sweep's
    /// under-one-vector tail path) or inside any larger coalesced batch —
    /// whole vectors, vectors plus a tail — because each batch lane is an
    /// independent chain of IEEE ops in a fixed order. Forward, transpose
    /// and row-sliced applies alike, ragged `m` and `n` included. The
    /// dynamic-batching server (`circnn-serve`) relies on this to keep
    /// every client's answer independent of how requests were coalesced.
    #[test]
    fn batched_rows_are_bitwise_batch_invariant((m, n, k, seed) in shapes(), batch in wide_batches()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let slice = w.row_slice(p / 2..p).unwrap();
        let (r0, rows) = (slice.row_start, slice.operator.rows());
        let x = random_weights(batch * n, seed ^ 0xC0A1);
        let g = random_weights(batch * m, seed ^ 0x9A1D);
        let mut ws = Workspace::new();
        let coalesced = w.matmat(&x, batch, &mut ws).unwrap();
        let sliced = slice.operator.matmat(&x, batch, &mut ws).unwrap();
        let mut gx = vec![0.0f32; batch * n];
        w.backward_batch_into_with_threads(&g, batch, &mut ws, &mut gx, 1).unwrap();
        let mut gx1 = vec![0.0f32; n];
        for b in 0..batch {
            let alone = w.matmat(&x[b * n..(b + 1) * n], 1, &mut ws).unwrap();
            prop_assert_eq!(
                &coalesced[b * m..(b + 1) * m], &alone[..],
                "({},{},{}) sample {} differs between B={} and B=1", m, n, k, b, batch
            );
            prop_assert_eq!(
                &sliced[b * rows..(b + 1) * rows], &alone[r0..r0 + rows],
                "({},{},{}) row slice, sample {} of B={}", m, n, k, b, batch
            );
            w.backward_batch_into_with_threads(&g[b * m..(b + 1) * m], 1, &mut ws, &mut gx1, 1)
                .unwrap();
            prop_assert_eq!(
                &gx[b * n..(b + 1) * n], &gx1[..],
                "({},{},{}) transpose apply, sample {} of B={}", m, n, k, b, batch
            );
        }
    }

    /// A lone `matvec` is a batch of one through the engine, so it is its
    /// sample's row of any `matmat`, bit for bit.
    #[test]
    fn matvec_is_its_row_of_matmat_bitwise((m, n, k, seed) in shapes(), batch in wide_batches()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let x = random_weights(batch * n, seed ^ 0x51A6);
        let y = w.matmat(&x, batch, &mut Workspace::new()).unwrap();
        for b in 0..batch {
            let single = w.matvec(&x[b * n..(b + 1) * n]).unwrap();
            prop_assert_eq!(
                &y[b * m..(b + 1) * m], &single[..],
                "({},{},{}) sample {} of B={}", m, n, k, b, batch
            );
        }
    }

    /// Same for the transpose: a lone `matvec_t` is its sample's row of
    /// any `backward_batch_into`, bit for bit.
    #[test]
    fn matvec_t_is_its_row_of_backward_batch_bitwise((m, n, k, seed) in shapes(), batch in wide_batches()) {
        let p = m.div_ceil(k);
        let q = n.div_ceil(k);
        let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, seed)).unwrap();
        let g = random_weights(batch * m, seed ^ 0x7A95);
        let mut gx = vec![0.0f32; batch * n];
        w.backward_batch_into(&g, batch, &mut Workspace::new(), &mut gx).unwrap();
        for b in 0..batch {
            let single = w.matvec_t(&g[b * m..(b + 1) * m]).unwrap();
            prop_assert_eq!(
                &gx[b * n..(b + 1) * n], &single[..],
                "({},{},{}) sample {} of B={}", m, n, k, b, batch
            );
        }
    }
}

/// The serving layer shares one operator (`Arc`) across worker threads,
/// each with a private `Workspace` — audit the types it needs to move.
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BlockCirculantMatrix>();
    assert_send_sync::<Workspace>();
    assert_send_sync::<circnn_core::CirculantLinear>();
    assert_send_sync::<circnn_nn::Sequential>();
}

/// A shared read-only operator produces bitwise-identical results from
/// every worker thread (each owning its own scratch arena).
#[test]
fn shared_operator_is_bitwise_stable_across_threads() {
    use std::sync::Arc;
    let (m, n, k, batch) = (48usize, 40usize, 8usize, 6usize);
    let p = m.div_ceil(k);
    let q = n.div_ceil(k);
    let w = Arc::new(
        BlockCirculantMatrix::from_weights(m, n, k, &random_weights(p * q * k, 77)).unwrap(),
    );
    let x = random_weights(batch * n, 0xBEEF);
    let mut ws = Workspace::new();
    let reference = w.matmat(&x, batch, &mut ws).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (w, x, reference) = (Arc::clone(&w), &x, &reference);
            s.spawn(move || {
                let mut ws = Workspace::new();
                let y = w.matmat(x, batch, &mut ws).unwrap();
                assert_eq!(&y, reference, "worker diverged from reference");
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serving parity for the block-circulant CONV layer: the read-only
    /// `infer_batch` path must agree **bitwise** with `forward_batch` in
    /// inference mode (same pipeline, minus the backward caches), so
    /// circulant convnets can be registered with the wire registry.
    #[test]
    fn circulant_conv_infer_matches_forward_batch_bitwise(
        seed in any::<u64>(),
        batch in 1usize..4,
        logk in 0u32..3,
        size in 5usize..9,
    ) {
        use circnn_core::CirculantConv2d;
        use circnn_nn::Layer;
        let k = 1usize << logk; // 1, 2, 4 — divides the 4-channel input
        let mut rng = circnn_tensor::init::seeded_rng(seed);
        let mut conv = CirculantConv2d::new(&mut rng, 4, 8, 3, 1, 1, k).unwrap();
        prop_assert!(conv.supports_infer());
        conv.set_training(false);
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, 4, size, size], -1.0, 1.0);
        let trained = conv.forward_batch(&x);
        let mut scratch = circnn_nn::InferScratch::new();
        let served = conv.infer_batch(&x, &mut scratch);
        prop_assert_eq!(served.dims(), trained.dims());
        prop_assert_eq!(served.data(), trained.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch-composition invariance for the conv pipeline, whose MAC lanes
    /// are (sample, padded pixel) pairs swept per sample (stride 1) or per
    /// output row through a strided gather (stride 2): every image's
    /// output is bitwise what it is when served alone, and identical
    /// across thread counts.
    #[test]
    fn conv_rows_are_bitwise_batch_invariant_and_thread_stable(
        seed in any::<u64>(),
        batch in wide_batches(),
        stride in 1usize..3,
        logk in 0u32..3,
        size in 5usize..9,
    ) {
        use circnn_core::{CirculantConv2d, ConvWorkspace};
        use circnn_nn::Layer;
        let mut rng = circnn_tensor::init::seeded_rng(seed);
        let mut conv = CirculantConv2d::new(&mut rng, 4, 6, 3, stride, 1, 1 << logk).unwrap();
        conv.set_training(false);
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, 4, size, size], -1.0, 1.0);
        let o = (size + 2 - 3) / stride + 1;
        let per_out = 6 * o * o;
        let mut ws = ConvWorkspace::new();
        let mut coalesced = vec![0.0f32; batch * per_out];
        conv.infer_batch_into(&x, &mut ws, &mut coalesced, 1).unwrap();
        let mut threaded = vec![0.0f32; batch * per_out];
        conv.infer_batch_into(&x, &mut ws, &mut threaded, 3).unwrap();
        prop_assert_eq!(&coalesced, &threaded);
        let mut alone = vec![0.0f32; per_out];
        for b in 0..batch {
            let img = x.index_axis0(b);
            let one = circnn_tensor::Tensor::from_vec(img.data().to_vec(), &[1, 4, size, size]);
            conv.infer_batch_into(&one, &mut ws, &mut alone, 1).unwrap();
            prop_assert_eq!(
                &coalesced[b * per_out..(b + 1) * per_out], &alone[..],
                "(s={} k={} {}x{}) image {} differs between B={} and B=1",
                stride, 1 << logk, size, size, b, batch
            );
        }
    }
}

/// Shapes big enough that the plane dispatcher really spawns (the proptest
/// shapes above all sit under its per-thread work floor and stay on the
/// caller): threaded and serial runs agree bit for bit for the FC apply in
/// both directions, the weight gradient, the i16 twin (whose MAC scratch is
/// split per worker), the conv pipeline and the recurrent step, the last
/// two at both precisions.
#[test]
fn threaded_dispatch_above_the_work_floor_is_bit_identical_to_serial() {
    use circnn_core::{CirculantConv2d, ConvWorkspace, QuantConfig, QuantWorkspace};
    use circnn_nn::Layer;
    let (m, n, k, batch) = (2048usize, 2048usize, 32usize, 64usize);
    let w = BlockCirculantMatrix::from_weights(m, n, k, &random_weights(m * n / k, 5)).unwrap();
    let x = random_weights(batch * n, 6);
    let g = random_weights(batch * m, 7);
    let run = |threads: usize| {
        let mut ws = Workspace::new();
        let (mut y, mut gx) = (vec![0.0f32; batch * m], vec![0.0f32; batch * n]);
        let mut wg = vec![0.0f32; w.num_parameters()];
        w.forward_batch_into_with_threads(&x, batch, &mut ws, &mut y, threads)
            .unwrap();
        w.backward_batch_into_with_threads(&g, batch, &mut ws, &mut gx, threads)
            .unwrap();
        w.weight_gradient_batch_with_threads(&mut ws, &mut wg, threads)
            .unwrap();
        (y, gx, wg)
    };
    assert!(run(1) == run(2), "f32 FC diverged across thread counts");

    let qop = circnn_core::QuantizedOperator::from_operator(&w, QuantConfig::default()).unwrap();
    let qrun = |threads: usize| {
        let mut y = vec![0.0f32; batch * m];
        qop.infer_batch_into(&x, batch, &mut QuantWorkspace::new(), &mut y, threads)
            .unwrap();
        y
    };
    assert!(qrun(1) == qrun(2), "i16 FC diverged across thread counts");

    let mut rng = circnn_tensor::init::seeded_rng(8);
    let mut conv = CirculantConv2d::new(&mut rng, 16, 16, 3, 1, 1, 8).unwrap();
    conv.set_training(false);
    let cx = circnn_tensor::init::uniform(&mut rng, &[8, 16, 28, 28], -1.0, 1.0);
    let crun = |threads: usize| {
        let mut y = vec![0.0f32; 8 * 16 * 28 * 28];
        conv.infer_batch_into(&cx, &mut ConvWorkspace::new(), &mut y, threads)
            .unwrap();
        y
    };
    assert!(crun(1) == crun(2), "conv diverged across thread counts");

    let qconv = conv.quantize(QuantConfig::default()).unwrap();
    let qcrun = |threads: usize| {
        let mut y = vec![0.0f32; 8 * 16 * 28 * 28];
        qconv
            .infer_batch_into(&cx, &mut QuantWorkspace::new(), &mut y, threads)
            .unwrap();
        y
    };
    assert!(
        qcrun(1) == qcrun(2),
        "i16 conv diverged across thread counts"
    );

    // 64 output blocks of 17 bins at B = 64 put every stage of both
    // recurrent sides above the work floor.
    let (in_dim, hidden) = (1024usize, 2048usize);
    let cell = circnn_core::CirculantRnnCell::new(&mut rng, in_dim, hidden, 32, 0.9).unwrap();
    let qcell = cell.quantize(QuantConfig::default()).unwrap();
    let (rx, rh) = (
        random_weights(batch * in_dim, 9),
        random_weights(batch * hidden, 10),
    );
    let rrun = |threads: usize| {
        let (mut y, mut qy) = (vec![0.0f32; batch * hidden], vec![0.0f32; batch * hidden]);
        let mut ws = circnn_core::RecurrentWorkspace::new();
        cell.step_batch_into_with_threads(&rx, &rh, batch, &mut ws, &mut y, threads)
            .unwrap();
        qcell
            .step_batch_into(
                &rx,
                &rh,
                batch,
                &mut QuantWorkspace::new(),
                &mut qy,
                threads,
            )
            .unwrap();
        (y, qy)
    };
    let (serial, threaded) = (rrun(1), rrun(2));
    assert!(
        serial.0 == threaded.0,
        "f32 RNN diverged across thread counts"
    );
    assert!(
        serial.1 == threaded.1,
        "i16 RNN diverged across thread counts"
    );
}

/// Random conv configurations: channels, out-channels, kernel, stride,
/// padding, block size (power of two), batch, and an input size that fits
/// the kernel.
fn conv_shapes() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize, usize, usize)>
{
    (
        1usize..6, // C
        1usize..8, // P
        1usize..4, // r
        1usize..3, // stride
        0usize..3, // padding
        0u32..4,   // log2 k
        1usize..4, // B
        0usize..5, // extra input size beyond the kernel
    )
        .prop_map(|(c, p, r, s, pad, logk, b, extra)| {
            let hw = (r + extra).max(r.saturating_sub(2 * pad).max(1));
            (c, p, r, s, pad, 1usize << logk, b, hw)
        })
}

/// A per-image CONV reference that shares nothing with the spectral
/// engine: Eqn. (7) as a direct convolution, each kernel offset's operator
/// materialized by `to_dense()` as a `P × C` channel-mixing matrix and the
/// `r²` offsets summed per output pixel in f64.
#[allow(clippy::too_many_arguments)]
fn per_image_conv_reference(
    engines: &[BlockCirculantMatrix],
    bias: &[f32],
    c: usize,
    p_out: usize,
    r: usize,
    stride: usize,
    padding: usize,
    img: &[f32],
    h: usize,
    w: usize,
) -> Vec<f32> {
    let dense: Vec<_> = engines.iter().map(BlockCirculantMatrix::to_dense).collect();
    let oh = (h + 2 * padding - r) / stride + 1;
    let ow = (w + 2 * padding - r) / stride + 1;
    let mut out = vec![0.0f32; p_out * oh * ow];
    let mut acc = vec![0.0f64; p_out];
    for oy in 0..oh {
        for ox in 0..ow {
            for (slot, &b) in acc.iter_mut().zip(bias) {
                *slot = f64::from(b);
            }
            for kh in 0..r {
                let iy = (oy * stride + kh) as isize - padding as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kw in 0..r {
                    let ix = (ox * stride + kw) as isize - padding as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let d = &dense[kh * r + kw];
                    for (pch, slot) in acc.iter_mut().enumerate() {
                        for ci in 0..c {
                            let v = img[(ci * h + iy as usize) * w + ix as usize];
                            *slot += f64::from(d.at(&[pch, ci])) * f64::from(v);
                        }
                    }
                }
            }
            for (pch, &v) in acc.iter().enumerate() {
                out[(pch * oh + oy) * ow + ox] = v as f32;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch-plane CONV pipeline must agree with the dense direct
    /// convolution on random shapes, strides and paddings — the plane
    /// pipeline changes the FFT factorization and the batching, not the
    /// math.
    #[test]
    fn batched_conv_matches_dense_per_image_reference(
        (c, p_out, r, stride, padding, k, batch, hw) in conv_shapes(),
        seed in any::<u64>(),
    ) {
        use circnn_core::CirculantConv2d;
        use circnn_nn::Layer;
        let (h, w) = (hw, hw);
        prop_assume!(h + 2 * padding >= r && w + 2 * padding >= r);
        let mut rng = circnn_tensor::init::seeded_rng(seed);
        let mut conv = CirculantConv2d::new(&mut rng, c, p_out, r, stride, padding, k).unwrap();
        // Randomize the bias too, then mirror the exact weights into
        // standalone operators for the reference path.
        let mut groups: Vec<Vec<f32>> = Vec::new();
        conv.visit_params(&mut |param, _| {
            if groups.len() == 1 {
                for (i, v) in param.iter_mut().enumerate() {
                    *v = ((i as f32) * 0.37).sin() * 0.5;
                }
            }
            groups.push(param.to_vec());
        });
        let per = (p_out.div_ceil(k)) * (c.div_ceil(k)) * k;
        let engines: Vec<BlockCirculantMatrix> = (0..r * r)
            .map(|o| {
                BlockCirculantMatrix::from_weights(p_out, c, k, &groups[0][o * per..(o + 1) * per])
                    .unwrap()
            })
            .collect();
        conv.set_training(false);
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, c, h, w], -1.0, 1.0);
        let mut scratch = circnn_nn::InferScratch::new();
        let y = conv.infer_batch(&x, &mut scratch);
        let per_out = y.len() / batch;
        for b in 0..batch {
            let img = x.index_axis0(b);
            let reference =
                per_image_conv_reference(&engines, &groups[1], c, p_out, r, stride, padding,
                                         img.data(), h, w);
            let row = &y.data()[b * per_out..(b + 1) * per_out];
            let scale = reference.iter().fold(1.0f32, |a, &v| a.max(v.abs()));
            for (i, (&a, &e)) in row.iter().zip(&reference).enumerate() {
                prop_assert!(
                    (a - e).abs() < 2e-4 * scale,
                    "(C={c} P={p_out} r={r} s={stride} pad={padding} k={k} B={batch} \
                     {h}x{w}) sample {b} idx {i}: plane {a} vs dense {e}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Backward-path parity: running one `[B, C, H, W]` batch through the
    /// plane pipeline's `backward_batch` must accumulate the same weight,
    /// bias and input gradients as running the B samples as batches of one —
    /// across strides and paddings, not just the stride-1 fused path.
    #[test]
    fn batched_conv_backward_matches_per_sample(
        seed in any::<u64>(),
        stride in 1usize..3,
        padding in 0usize..2,
        logk in 0u32..3,
    ) {
        use circnn_core::CirculantConv2d;
        use circnn_nn::Layer;
        let (c, p_out, r, hw, batch) = (3usize, 5usize, 3usize, 6usize, 3usize);
        let k = 1usize << logk;
        prop_assume!(hw + 2 * padding >= r);
        let mut rng = circnn_tensor::init::seeded_rng(seed);
        let mut batched = CirculantConv2d::new(&mut rng, c, p_out, r, stride, padding, k).unwrap();
        let mut single = CirculantConv2d::new(&mut rng, c, p_out, r, stride, padding, k).unwrap();
        // Same parameters in both layers.
        let mut groups: Vec<Vec<f32>> = Vec::new();
        batched.visit_params(&mut |param, _| groups.push(param.to_vec()));
        let mut gi = 0;
        single.visit_params(&mut |param, _| {
            param.copy_from_slice(&groups[gi]);
            gi += 1;
        });
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, c, hw, hw], -1.0, 1.0);
        let y = batched.forward_batch(&x);
        let gout = circnn_tensor::init::uniform(&mut rng, y.dims(), -1.0, 1.0);
        batched.zero_grads();
        let gx_b = batched.backward_batch(&x, &gout);
        single.zero_grads();
        let mut gx_rows: Vec<Vec<f32>> = Vec::new();
        for b in 0..batch {
            let xb = x.index_axis0(b).reshape(&[1, c, hw, hw]);
            let gb = gout.index_axis0(b);
            let _ = single.forward_batch(&xb);
            let gb = gb.reshape(&[1, gb.dims()[0], gb.dims()[1], gb.dims()[2]]);
            gx_rows.push(single.backward_batch(&xb, &gb).data().to_vec());
        }
        // Parameter gradients accumulate identically (order of the batch
        // reduction differs, so agreement is to rounding).
        let mut got: Vec<Vec<f32>> = Vec::new();
        batched.visit_params(&mut |_, grad| got.push(grad.to_vec()));
        let mut expect: Vec<Vec<f32>> = Vec::new();
        single.visit_params(&mut |_, grad| expect.push(grad.to_vec()));
        for (gidx, (gv, ev)) in got.iter().zip(&expect).enumerate() {
            let scale = ev.iter().fold(1.0f32, |a, &v| a.max(v.abs()));
            for (i, (&a, &e)) in gv.iter().zip(ev).enumerate() {
                prop_assert!(
                    (a - e).abs() < 5e-4 * scale,
                    "(s={stride} pad={padding} k={k}) grad group {gidx} idx {i}: \
                     batched {a} vs per-sample {e}"
                );
            }
        }
        // Input gradients match row by row.
        let per_in = c * hw * hw;
        for b in 0..batch {
            let row = &gx_b.data()[b * per_in..(b + 1) * per_in];
            let scale = gx_rows[b].iter().fold(1.0f32, |a, &v| a.max(v.abs()));
            for (i, (&a, &e)) in row.iter().zip(&gx_rows[b]).enumerate() {
                prop_assert!(
                    (a - e).abs() < 5e-4 * scale,
                    "(s={stride} pad={padding} k={k}) sample {b} input grad {i}: {a} vs {e}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused recurrent step is a lane-parallel engine apply like the
    /// FC and conv adapters: every sequence lane's next state is bitwise
    /// identical whether it steps alone or inside any coalesced batch,
    /// and across every worker thread count — on random cell geometries,
    /// ragged hidden widths included.
    #[test]
    fn recurrent_step_is_batch_invariant_and_thread_stable(
        logk in 0u32..4,
        in_dim in 1usize..12,
        hidden in 1usize..32,
        batch in wide_batches(),
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        use circnn_core::{CirculantRnnCell, RecurrentWorkspace};
        let k = 1usize << logk;
        let mut rng = circnn_tensor::init::seeded_rng(seed);
        let cell = CirculantRnnCell::new(&mut rng, in_dim, hidden, k, 0.9).unwrap();
        let x = random_weights(batch * in_dim, seed ^ 0xD1CE);
        let h = random_weights(batch * hidden, seed ^ 0xFEED);
        let mut ws = RecurrentWorkspace::new();
        let mut coalesced = vec![0.0f32; batch * hidden];
        cell.step_batch_into_with_threads(&x, &h, batch, &mut ws, &mut coalesced, 1).unwrap();
        // Thread count never changes a bit.
        let mut threaded = vec![0.0f32; batch * hidden];
        let mut ws_t = RecurrentWorkspace::new();
        cell.step_batch_into_with_threads(&x, &h, batch, &mut ws_t, &mut threaded, threads).unwrap();
        prop_assert_eq!(&coalesced, &threaded, "step diverged at {} threads", threads);
        // Batch composition never changes a bit.
        for b in 0..batch {
            let mut alone = vec![0.0f32; hidden];
            cell.step_batch_into_with_threads(
                &x[b * in_dim..(b + 1) * in_dim],
                &h[b * hidden..(b + 1) * hidden],
                1,
                &mut ws,
                &mut alone,
                1,
            ).unwrap();
            prop_assert_eq!(
                &coalesced[b * hidden..(b + 1) * hidden], &alone[..],
                "(k={} D={} H={}) lane {} differs between B={} and B=1", k, in_dim, hidden, b, batch
            );
        }
    }

    /// The fused step computes the cell equation: against dense
    /// materializations of both operators, `h' = tanh(W_ih·x + W_hh·h + b)`
    /// to rounding, on random geometries.
    #[test]
    fn recurrent_step_matches_dense_cell_equation(
        logk in 0u32..4,
        in_dim in 1usize..10,
        hidden in 1usize..24,
        seed in any::<u64>(),
    ) {
        use circnn_core::CirculantRnnCell;
        let k = 1usize << logk;
        let mut rng = circnn_tensor::init::seeded_rng(seed);
        let cell = CirculantRnnCell::new(&mut rng, in_dim, hidden, k, 0.8).unwrap();
        let x = random_weights(in_dim, seed ^ 0xAB);
        let h = random_weights(hidden, seed ^ 0xCD);
        let got = cell.step(&x, &h).unwrap();
        let pre_ih = cell.w_ih().to_dense().matvec(&x);
        let pre_hh = cell.w_hh().to_dense().matvec(&h);
        for (i, &v) in got.iter().enumerate() {
            let expect = (pre_ih[i] + pre_hh[i]).tanh();
            prop_assert!(
                (v - expect).abs() < 1e-3 * expect.abs().max(1.0),
                "(k={} D={} H={}) unit {}: fused {} vs dense {}",
                k, in_dim, hidden, i, v, expect
            );
        }
    }
}
