//! Batch-composition invariance across the lane counts where the engine
//! changes kernel shape: on AVX2 the i16 MAC runs up to four lanes as the
//! row-vector sweep and more as the lane sweep, the f32 MAC's last vector
//! of lanes runs masked, and the recurrent epilogue's vector `tanh` runs
//! over whole `[k][lanes]` blocks. The f32 FC operator is read both ways
//! (forward and transpose) from its one weight-plane set. For
//! B = 1..=9 and ragged shapes (m and n not multiples of k), every lane of a
//! B-sample call must equal that sample's lone B = 1 call, bit for bit.

use circnn::core::{
    BlockCirculantMatrix, CirculantRnnCell, QuantConfig, QuantWorkspace, QuantizedOperator,
    RecurrentWorkspace, Workspace,
};
use circnn::tensor::init::seeded_rng;
use rand::Rng;

/// `(rows, cols, k)`: ragged rows and columns, n ∤ k, an even shape, and
/// 38 block rows (more than one pass of row vectors, with a row tail).
const SHAPES: [(usize, usize, usize); 4] =
    [(100, 72, 16), (37, 50, 8), (64, 64, 16), (300, 200, 8)];

fn uniform(rng: &mut impl Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every lane of a `batch`-sample call of `apply` (`[batch][n_in]` in,
/// `[batch][n_out]` out) through `ws`, the workspace kept across batch
/// sizes, equals its lone call through a fresh one.
fn assert_lanes_are_lone<W: Default>(
    rng: &mut impl Rng,
    (n_in, n_out): (usize, usize),
    batch: usize,
    ws: &mut W,
    at: &str,
    apply: impl Fn(&[f32], usize, &mut W, &mut [f32]),
) {
    let x = uniform(rng, batch * n_in);
    let mut y = vec![0.0f32; batch * n_out];
    apply(&x, batch, ws, &mut y);
    for (b, (xb, yb)) in x.chunks_exact(n_in).zip(y.chunks_exact(n_out)).enumerate() {
        let mut lone = vec![0.0f32; n_out];
        apply(xb, 1, &mut W::default(), &mut lone);
        assert_eq!(bits(yb), bits(&lone), "{at}, B = {batch}, lane {b}");
    }
}

#[test]
fn every_lane_of_an_fc_call_is_its_lone_call_at_f32_and_i16() {
    let mut rng = seeded_rng(41);
    for (m, n, k) in SHAPES {
        let op = BlockCirculantMatrix::random(&mut rng, m, n, k).unwrap();
        let qop = QuantizedOperator::from_operator(&op, QuantConfig::default()).unwrap();
        let (mut qws, mut ws) = (QuantWorkspace::new(), Workspace::new());
        let [i16, fwd, bwd] =
            ["i16", "f32 forward", "f32 backward"].map(|what| format!("{what} {m}x{n} k{k}"));
        for batch in 1..=9 {
            assert_lanes_are_lone(&mut rng, (n, m), batch, &mut qws, &i16, |x, b, ws, y| {
                qop.infer_batch_into(x, b, ws, y, 1).unwrap()
            });
            assert_lanes_are_lone(&mut rng, (n, m), batch, &mut ws, &fwd, |x, b, ws, y| {
                op.forward_batch_into(x, b, ws, y).unwrap()
            });
            assert_lanes_are_lone(&mut rng, (m, n), batch, &mut ws, &bwd, |g, b, ws, y| {
                op.backward_batch_into(g, b, ws, y).unwrap()
            });
        }
    }
}

#[test]
fn every_lane_of_an_rnn_step_is_its_lone_step_at_f32_and_i16() {
    let mut rng = seeded_rng(43);
    for (hidden, in_dim, k) in SHAPES {
        let cell = CirculantRnnCell::new(&mut rng, in_dim, hidden, k, 0.9).unwrap();
        let qcell = cell.quantize(QuantConfig::default()).unwrap();
        let (mut ws, mut qws) = (RecurrentWorkspace::new(), QuantWorkspace::new());
        for batch in 1..=9 {
            let x = uniform(&mut rng, batch * in_dim);
            let h = uniform(&mut rng, batch * hidden);
            let (mut next, mut qnext) =
                (vec![0.0f32; batch * hidden], vec![0.0f32; batch * hidden]);
            cell.step_batch_into_with_threads(&x, &h, batch, &mut ws, &mut next, 1)
                .unwrap();
            qcell
                .step_batch_into(&x, &h, batch, &mut qws, &mut qnext, 1)
                .unwrap();
            for b in 0..batch {
                let (xb, hb) = (&x[b * in_dim..][..in_dim], &h[b * hidden..][..hidden]);
                let (mut lone, mut qlone) = (vec![0.0f32; hidden], vec![0.0f32; hidden]);
                let mut ws1 = RecurrentWorkspace::new();
                cell.step_batch_into_with_threads(xb, hb, 1, &mut ws1, &mut lone, 1)
                    .unwrap();
                qcell
                    .step_batch_into(xb, hb, 1, &mut QuantWorkspace::new(), &mut qlone, 1)
                    .unwrap();
                let lane = b * hidden..(b + 1) * hidden;
                let at = format!("{hidden}x{in_dim} k{k}, B = {batch}, lane {b}");
                assert_eq!(bits(&next[lane.clone()]), bits(&lone), "f32 {at}");
                assert_eq!(bits(&qnext[lane]), bits(&qlone), "i16 {at}");
            }
        }
    }
}
