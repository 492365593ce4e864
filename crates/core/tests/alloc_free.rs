//! Proof that the batched kernels are allocation-free after warm-up.
//!
//! A counting global allocator wraps `System`; after one warm-up pass sizes
//! the [`circnn_core::Workspace`], a full forward / backward /
//! weight-gradient round at the same `(shape, batch)` must perform **zero**
//! heap allocations. This is the property that makes the engine safe to run
//! in a latency-sensitive serving loop.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running concurrently would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use circnn_core::{
    BlockCirculantMatrix, CirculantConv2d, CirculantRnn, CirculantRnnCell, ConvWorkspace,
    QuantConfig, QuantWorkspace, QuantizedOperator, RecurrentWorkspace, RnnReadout, Workspace,
};
use circnn_nn::Layer as _;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Counting is gated **per thread**: the libtest harness keeps its own
    /// threads alive alongside the test, and their incidental allocations
    /// must not race into the measurement (a process-global flag made this
    /// test flaky). `const` init keeps the TLS access itself
    /// allocation-free.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn seeded(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 0.5
        })
        .collect()
}

#[test]
fn batched_round_trip_is_allocation_free_after_warmup() {
    let (m, n, k, batch) = (96usize, 112usize, 16usize, 8usize);
    let p = m.div_ceil(k);
    let q = n.div_ceil(k);
    let w = BlockCirculantMatrix::from_weights(m, n, k, &seeded(p * q * k, 1)).unwrap();
    let x = seeded(batch * n, 2);
    let g = seeded(batch * m, 3);
    let mut ws = Workspace::new();
    let mut y = vec![0.0f32; batch * m];
    let mut gx = vec![0.0f32; batch * n];
    let mut wgrad = vec![0.0f32; w.num_parameters()];

    // Steady-state conv inference rides the same proof: one warm
    // ConvWorkspace, repeated infer_batch_into calls at a fixed
    // (geometry, batch) into a caller buffer.
    let mut conv = {
        let mut rng = circnn_tensor::init::seeded_rng(11);
        let mut conv = CirculantConv2d::new(&mut rng, 6, 10, 3, 1, 1, 4).unwrap();
        conv.set_training(false);
        conv
    };
    let conv_batch = 4usize;
    let cx =
        circnn_tensor::Tensor::from_vec(seeded(conv_batch * 6 * 5 * 5, 12), &[conv_batch, 6, 5, 5]);
    let mut cws = ConvWorkspace::new();
    let mut cout = vec![0.0f32; conv_batch * 10 * 5 * 5];

    // Steady-state recurrent inference rides the proof too: one warm
    // RecurrentWorkspace, a whole sequence of fused engine steps at a
    // fixed (cell, batch) into a caller buffer — the "no per-timestep
    // heap allocation survives" guarantee serving relies on.
    let rnn = {
        let mut rng = circnn_tensor::init::seeded_rng(21);
        let cell = CirculantRnnCell::new(&mut rng, 6, 16, 4, 0.9).unwrap();
        CirculantRnn::new(cell, RnnReadout::Features)
    };
    let (rnn_batch, rnn_steps) = (4usize, 5usize);
    let rx = circnn_tensor::Tensor::from_vec(
        seeded(rnn_batch * rnn_steps * 6, 22),
        &[rnn_batch, rnn_steps, 6],
    );
    let mut rws = RecurrentWorkspace::new();
    let mut rout = vec![0.0f32; rnn_batch * 2 * 16];

    // The i16 twins ride the proof as well — operator, conv (whose MAC
    // sweeps all r² offsets) and recurrent cell, each out of one warm
    // QuantWorkspace.
    let qop = QuantizedOperator::from_operator(&w, QuantConfig::default()).unwrap();
    let qconv = conv.quantize(QuantConfig::default()).unwrap();
    let qcell = rnn.cell().quantize(QuantConfig::default()).unwrap();
    let (mut qws, mut qcws, mut qrws) = (
        QuantWorkspace::new(),
        QuantWorkspace::new(),
        QuantWorkspace::new(),
    );
    let (rh, mut rnext) = (seeded(rnn_batch * 16, 23), vec![0.0f32; rnn_batch * 16]);
    let (mut qy, mut qcout) = (y.clone(), cout.clone());
    // The lone request: every f32 apply at B = 1 takes the kernels'
    // under-one-vector tail path end to end, out of its own warm arenas.
    let cx1 = circnn_tensor::Tensor::from_vec(seeded(6 * 5 * 5, 13), &[1, 6, 5, 5]);
    let (mut ws1, mut cws1, mut rws1) = (
        Workspace::new(),
        ConvWorkspace::new(),
        RecurrentWorkspace::new(),
    );
    let (mut y1, mut gx1, mut cout1) = (vec![0.0f32; m], vec![0.0f32; n], vec![0.0f32; 250]);
    let mut quantized_and_lone_round = || {
        qop.infer_batch_into(&x, batch, &mut qws, &mut qy, 1)
            .unwrap();
        qconv
            .infer_batch_into(&cx, &mut qcws, &mut qcout, 1)
            .unwrap();
        let rx0 = &rx.data()[..rnn_batch * 6];
        qcell
            .step_batch_into(rx0, &rh, rnn_batch, &mut qrws, &mut rnext, 1)
            .unwrap();
        w.forward_batch_into_with_threads(&x[..n], 1, &mut ws1, &mut y1, 1)
            .unwrap();
        w.backward_batch_into_with_threads(&g[..m], 1, &mut ws1, &mut gx1, 1)
            .unwrap();
        conv.infer_batch_into(&cx1, &mut cws1, &mut cout1, 1)
            .unwrap();
        rnn.cell()
            .step_batch_into_with_threads(&rx0[..6], &rh[..16], 1, &mut rws1, &mut rnext[..16], 1)
            .unwrap();
    };

    // The FFT codelets' regimes: B = 9 is one 8-lane tile plus a lone lane
    // for a forward and a backward, and a k = 128 operator at B = 1 runs the
    // largest single-lane codelet.
    let w128 = BlockCirculantMatrix::from_weights(256, 256, 128, &seeded(4 * 128, 31)).unwrap();
    let (x9, g9, mut ws9, mut ws128) = (
        seeded(9 * n, 32),
        seeded(9 * m, 33),
        Workspace::new(),
        Workspace::new(),
    );
    let (mut y9, mut gx9) = (vec![0.0f32; 9 * m], vec![0.0f32; 9 * n]);
    let (mut y128, mut gx128) = (vec![0.0f32; 256], vec![0.0f32; 256]);
    let mut codelet_round = || {
        w.forward_batch_into_with_threads(&x9, 9, &mut ws9, &mut y9, 1)
            .unwrap();
        w.backward_batch_into_with_threads(&g9, 9, &mut ws9, &mut gx9, 1)
            .unwrap();
        w128.forward_batch_into_with_threads(&x9[..256], 1, &mut ws128, &mut y128, 1)
            .unwrap();
        w128.backward_batch_into_with_threads(&g9[..256], 1, &mut ws128, &mut gx128, 1)
            .unwrap();
    };

    // Warm-up sizes every workspace buffer (the serial path: the parallel
    // path's only allocations are the spawned threads' stacks).
    quantized_and_lone_round();
    codelet_round();
    w.forward_batch_into_with_threads(&x, batch, &mut ws, &mut y, 1)
        .unwrap();
    w.backward_batch_into_with_threads(&g, batch, &mut ws, &mut gx, 1)
        .unwrap();
    w.weight_gradient_batch_with_threads(&mut ws, &mut wgrad, 1)
        .unwrap();
    conv.infer_batch_into(&cx, &mut cws, &mut cout, 1).unwrap();
    rnn.infer_batch_into(&rx, &mut rws, &mut rout, 1).unwrap();

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    w.forward_batch_into_with_threads(&x, batch, &mut ws, &mut y, 1)
        .unwrap();
    w.backward_batch_into_with_threads(&g, batch, &mut ws, &mut gx, 1)
        .unwrap();
    // Covers the batch-plane weight-gradient IFFT too (its [k][q] lane
    // planes must come from the warm arena, not fresh allocations) —
    // twice, so the repeated-call steady state is what is measured.
    w.weight_gradient_batch_with_threads(&mut ws, &mut wgrad, 1)
        .unwrap();
    w.weight_gradient_batch_with_threads(&mut ws, &mut wgrad, 1)
        .unwrap();
    // Steady-state conv serving: the whole [B, C, H, W] batch through the
    // plane pipeline out of the warm arena — twice, so the repeated-call
    // steady state is what is measured.
    conv.infer_batch_into(&cx, &mut cws, &mut cout, 1).unwrap();
    conv.infer_batch_into(&cx, &mut cws, &mut cout, 1).unwrap();
    // Steady-state recurrent serving: every timestep of both sequences
    // runs the fused step (two FFT sides, accumulate MAC, one IFFT with
    // the tanh epilogue) out of the warm arena.
    rnn.infer_batch_into(&rx, &mut rws, &mut rout, 1).unwrap();
    rnn.infer_batch_into(&rx, &mut rws, &mut rout, 1).unwrap();
    quantized_and_lone_round();
    quantized_and_lone_round();
    codelet_round();
    codelet_round();
    COUNTING.with(|c| c.set(false));
    let during = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        during, 0,
        "warm batched round trip performed {during} heap allocations"
    );
    // And the results are still correct.
    let dense = w.to_dense().matvec(&x[..n]);
    for (a, e) in y[..m].iter().zip(&dense) {
        assert!(
            (a - e).abs() < 5e-4 * e.abs().max(1.0),
            "warm path diverged: {a} vs {e}"
        );
    }
}
