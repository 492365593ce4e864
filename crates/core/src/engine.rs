//! The shared spectral-plane execution core.
//!
//! CirCNN's central observation (§3.2, Fig. 4) is that FC, CONV and
//! recurrent layers are *the same* dataflow over block-circulant weights:
//! FFT the inputs, element-wise multiply-accumulate against resident
//! weight spectra, IFFT the accumulators. Its 12–16-bit fixed point (§4.2,
//! Fig. 12) is a datapath width *of that dataflow*, not a second one. This
//! module is the dataflow, once, as a toolkit of stages over **lane-indexed,
//! block-major SoA planes** (`[block][bin][lanes]`; the lane dimension is
//! innermost so every hot loop is a stride-1 chain), generic over a
//! [`Precision`] — [`F32`] or [`I16`]:
//!
//! * [`par_planes`] — the scoped-thread dispatcher every stage runs under
//!   (on the caller below a per-thread work floor). Chunk boundaries depend
//!   only on `(threads, blocks)` and per-element work is chunk-independent,
//!   so serial and threaded runs of every stage are **bit-identical**.
//! * [`fft_blocks`] — stage A: one real-input plane FFT per input block;
//!   the caller's `fill` closure packs block `j`'s `[k][lanes]` time-domain
//!   plane (FC/RNN: gather-transpose of a row-major slab; conv: channels
//!   staged onto the padded pixel grid), and the precision's copy-out
//!   stores the `k/2 + 1` unique half-spectrum rows (Fig. 10) — as split
//!   f32 planes, or quantized straight into interleaved i16 code pairs.
//! * [`mac`] — stage B: the precision's MAC, [`run_mac`] (f32) or
//!   [`run_mac_i16`] (i16 × i16 → i32), the only precision-specific
//!   compute. Each output element accumulates `Σ_offsets Σ_blocks w∘x`
//!   over the runs a [`LaneMap`] describes (`(out_lane, in_lane, len)` at
//!   an input `step`), one register-resident sweep per (bin, row tile,
//!   run) — or, for an i16 unit-step run of a few lanes on AVX2, one
//!   row-vector sweep per (bin, run). FC/RNN use one unit-step run; conv
//!   describes every kernel offset as a constant plane shift — including
//!   **strided** convs, whose input lanes advance by `stride` per output
//!   lane.
//! * [`ifft_epilogue_blocks`] / [`ifft_sides`] — stage C: one plane IFFT
//!   per output block. The caller's `fill` writes the block's spectrum rows
//!   (a copy, or a dequant of one or two i32 sets — the recurrent step's
//!   two sides meet here), and a per-row **bias add**, then the
//!   **activation** over the whole block, are applied right after its
//!   inverse, while it is cache-hot.
//!   The finished rows land in `[block][k][lanes]` staging; the only pass
//!   left is a pure layout copy.
//!
//! An [`Arena`] is the grow-only plane store each workspace lends these
//! stages as [`Side`]s plus [`Scratch`]: [`Workspace`](crate::Workspace)
//! (FC, lanes = batch), [`ConvWorkspace`](crate::ConvWorkspace)
//! (lanes = batch·pixels), [`RecurrentWorkspace`](crate::RecurrentWorkspace)
//! (two sides) and [`QuantWorkspace`](crate::QuantWorkspace) (the i16
//! planes of all three families).

use circnn_fft::BatchFftPlan;

use crate::error::CircError;
use crate::matrix::BlockCirculantMatrix;
use crate::simd::{cmac_rows, qmac, qmac_rows, qmac_rowvec, QSweep, RowSweep};

/// Element-wise nonlinearity a fused IFFT epilogue can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activation {
    /// No nonlinearity.
    Identity,
    /// `tanh` (the recurrent cell's nonlinearity).
    Tanh,
}

/// What the fused IFFT epilogue applies to each unpacked time-domain row
/// before it is staged: an optional per-output-row bias (indexed by the
/// logical row `block·k + t`; rows past the slice are ragged padding and
/// skipped) and an activation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Epilogue<'a> {
    /// Per-logical-row bias, or `None` for the raw linear product.
    pub bias: Option<&'a [f32]>,
    /// Nonlinearity applied after the bias.
    pub act: Activation,
}

impl Epilogue<'static> {
    /// The identity epilogue: no bias, no activation.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        act: Activation::Identity,
    };
}

/// Grow-only buffer sizing shared by every workspace: the first pass at a
/// given size pays the resize, later passes at the same or smaller size
/// re-slice the warm buffer allocation-free.
#[inline]
pub(crate) fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// Fewest plane elements a spawned thread must receive before
/// [`par_planes`] leaves the caller. Measured on the reference box (two
/// shared vCPUs): a `std::thread::scope` spawn + join is ≈ 15 µs per thread
/// bare and ≈ 35 µs once the fresh threads touch the planes (FC 512/512/16
/// at B = 1: 28 µs on the caller, 232 µs as three two-thread dispatches),
/// while every stage costs ≈ 2–4 ns per plane element — so 32 768 elements
/// are 65–130 µs of work, where the spawn stops being most of the share.
const MIN_ELEMS_PER_THREAD: usize = 32 * 1024;

/// Dispatches per-block plane work across up to `threads` scoped workers:
/// `f(i0, icount, a_chunk, b_chunk, s1_chunk, s2_chunk)`, where `a`/`b`
/// hold `chunk` elements per block (pass an empty slice for an unused
/// plane) and `s1`/`s2` provide `scratch` elements of private per-worker
/// scratch each (their backing buffers hold `threads` times that). The
/// dispatch stays on the caller when a thread's share would be under
/// [`MIN_ELEMS_PER_THREAD`]; above it, chunk boundaries depend only on
/// `(threads, blocks)`, and per-element work is chunk-independent either
/// way, so serial and threaded runs stay bit-identical.
///
/// Generic over the plane element (`f32` spectra, `i16` codes or `i32`
/// accumulators on the quantized path) and the scratch element separately,
/// since the quantized stage A writes `i16` planes with `f32` FFT scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_planes<A: Send, S: Send, F>(
    threads: usize,
    blocks: usize,
    chunk: usize,
    a: &mut [A],
    b: &mut [A],
    scratch: usize,
    s1: &mut [S],
    s2: &mut [S],
    f: F,
) where
    F: Fn(usize, usize, &mut [A], &mut [A], &mut [S], &mut [S]) + Sync,
{
    let t = threads.min(blocks).max(1);
    let cb = blocks.div_ceil(t);
    if t <= 1 || cb * chunk.max(scratch) < MIN_ELEMS_PER_THREAD {
        let (s1l, s2l) = (scratch.min(s1.len()), scratch.min(s2.len()));
        f(0, blocks, a, b, &mut s1[..s1l], &mut s2[..s2l]);
        return;
    }
    let cb = blocks.div_ceil(t);
    std::thread::scope(|scope| {
        let f = &f;
        let (mut a, mut b, mut s1, mut s2) = (a, b, s1, s2);
        let mut i0 = 0;
        while i0 < blocks {
            let icount = cb.min(blocks - i0);
            let na = if a.is_empty() { 0 } else { icount * chunk };
            let (ac, ar) = std::mem::take(&mut a).split_at_mut(na);
            a = ar;
            let nb = if b.is_empty() { 0 } else { icount * chunk };
            let (bc, br) = std::mem::take(&mut b).split_at_mut(nb);
            b = br;
            let ns1 = scratch.min(s1.len());
            let (s1c, s1r) = std::mem::take(&mut s1).split_at_mut(ns1);
            s1 = s1r;
            let ns2 = scratch.min(s2.len());
            let (s2c, s2r) = std::mem::take(&mut s2).split_at_mut(ns2);
            s2 = s2r;
            scope.spawn(move || f(i0, icount, ac, bc, s1c, s2c));
            i0 += icount;
        }
    });
}

/// One datapath width of the pipeline: everything the f32 and the 16-bit
/// fixed-point applies differ in — the spectrum and accumulator element
/// types, the stage-A copy-out, the stage-B MAC and the stage-C fill. A
/// value describes one input side: its operator planes and, for i16, its
/// scales.
pub(crate) trait Precision: Sync {
    /// Spectrum plane element.
    type Spec: Copy + Default + Send + Sync;
    /// Accumulator plane element.
    type Acc: Copy + Default + Send + Sync;
    /// Spectrum elements per (bin, lane) in the first plane: 1 for split
    /// `(re, im)` planes, 2 for interleaved pairs (the second plane empty).
    const WIDTH: usize;
    /// The block size's plane FFT.
    fn plan(&self) -> &BatchFftPlan<f32>;
    /// `(output blocks, input blocks)` of the product.
    fn blocks(&self) -> (usize, usize);
    /// Stage A's copy-out of one block's half-spectrum rows `pr`/`pi`
    /// (`bins · lanes` each) into that block's spectrum planes.
    fn copy_out(&self, pr: &[f32], pi: &[f32], re: &mut [Self::Spec], im: &mut [Self::Spec]);
    /// Stage B over output blocks `i0..i0 + icount`, into their block-major
    /// accumulator chunk.
    fn mac(
        &self,
        i0: usize,
        icount: usize,
        map: &LaneMap<'_>,
        x: (&[Self::Spec], &[Self::Spec]),
        acc_re: &mut [Self::Acc],
        acc_im: &mut [Self::Acc],
    );
    /// Stage C's fill of output block `i`: its `re.len()` elements of each
    /// accumulator plane as f32 spectrum rows, written — or, for a further
    /// side (`add`), added in.
    fn fill(
        &self,
        i: usize,
        acc: (&[Self::Acc], &[Self::Acc]),
        re: &mut [f32],
        im: &mut [f32],
        add: bool,
    );
}

/// The f32 datapath over `engines`' weight planes (`forward`: `conj(w)·x`;
/// otherwise the transpose product, from the same planes): split f32
/// spectra, copies in and out, and [`run_mac`].
pub(crate) struct F32<'a> {
    /// The fused operators (the conv's `r²` kernel offsets; one otherwise).
    pub engines: &'a [BlockCirculantMatrix],
    /// Forward product rather than transpose.
    pub forward: bool,
}

impl Precision for F32<'_> {
    type Spec = f32;
    type Acc = f32;
    const WIDTH: usize = 1;

    fn plan(&self) -> &BatchFftPlan<f32> {
        self.engines[0].plane_plan()
    }

    fn blocks(&self) -> (usize, usize) {
        let e = &self.engines[0];
        if self.forward {
            (e.block_rows(), e.block_cols())
        } else {
            (e.block_cols(), e.block_rows())
        }
    }

    fn copy_out(&self, pr: &[f32], pi: &[f32], re: &mut [f32], im: &mut [f32]) {
        re.copy_from_slice(pr);
        im.copy_from_slice(pi);
    }

    fn mac(
        &self,
        i0: usize,
        icount: usize,
        map: &LaneMap<'_>,
        x: (&[f32], &[f32]),
        acc_re: &mut [f32],
        acc_im: &mut [f32],
    ) {
        run_mac(
            self.engines,
            self.forward,
            i0,
            icount,
            map,
            x,
            acc_re,
            acc_im,
        );
    }

    fn fill(&self, i: usize, acc: (&[f32], &[f32]), re: &mut [f32], im: &mut [f32], add: bool) {
        let n = re.len();
        for (dst, src) in [(re, &acc.0[i * n..][..n]), (im, &acc.1[i * n..][..n])] {
            if add {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            } else {
                dst.copy_from_slice(src);
            }
        }
    }
}

/// The 16-bit fixed-point datapath (§4.2): the copy-out quantizes the input
/// spectra to interleaved `(re, im)` i16 code pairs at `inv_step`, the MAC
/// is [`run_mac_i16`] over `codes` into i32 accumulators, and the fill
/// dequantizes output block row `i` by `dq[i]` — one multiply per element
/// fused into a pass the f32 path already pays.
pub(crate) struct I16<'a> {
    /// One `[bin][q][p]` plane of [`crate::simd::madd_pair`]-packed
    /// `(re, im)` code words per fused operator (the conv's `r²` kernel
    /// offsets share one scale per block row).
    pub codes: &'a [Vec<i32>],
    /// Block columns `q`.
    pub q: usize,
    /// The block size's plane FFT.
    pub plan: &'a BatchFftPlan<f32>,
    /// Reciprocal input-spectrum step.
    pub inv_step: f32,
    /// Input code clamp.
    pub max_code: i32,
    /// Per-block-row dequant scale `w_step[i] · x_step` (`p` entries).
    pub dq: &'a [f32],
}

impl Precision for I16<'_> {
    type Spec = i16;
    type Acc = i32;
    const WIDTH: usize = 2;

    fn plan(&self) -> &BatchFftPlan<f32> {
        self.plan
    }

    fn blocks(&self) -> (usize, usize) {
        (self.dq.len(), self.q)
    }

    /// The symmetric quantizer **is** the copy-out: the half-spectrum rows
    /// leave the FFT scratch directly as `[bins][lanes][2]` code pairs, with
    /// no f32 spectra store. Imaginary codes at DC and Nyquist are forced to
    /// zero — those bins are real for real inputs, and zeroed codes let the
    /// MAC run one uniform pairwise kernel with no real-bin branch.
    fn copy_out(&self, pr: &[f32], pi: &[f32], codes: &mut [i16], _: &mut [i16]) {
        let isa = crate::simd::isa();
        let bins = self.plan.len() / 2 + 1;
        let lanes = pr.len() / bins;
        for bin in 0..bins {
            let row = bin * lanes..(bin + 1) * lanes;
            let im = (bin != 0 && bin != bins - 1).then(|| &pi[row.clone()]);
            let out = &mut codes[2 * row.start..2 * row.end];
            crate::simd::qpack(isa, &pr[row], im, self.inv_step, self.max_code, out);
        }
    }

    fn mac(
        &self,
        i0: usize,
        icount: usize,
        map: &LaneMap<'_>,
        x: (&[i16], &[i16]),
        acc_re: &mut [i32],
        acc_im: &mut [i32],
    ) {
        let (p, q) = self.blocks();
        run_mac_i16(self.codes, p, q, i0, icount, map, x.0, acc_re, acc_im);
    }

    fn fill(&self, i: usize, acc: (&[i32], &[i32]), re: &mut [f32], im: &mut [f32], add: bool) {
        let (n, dq) = (re.len(), self.dq[i]);
        for (dst, src) in [(re, &acc.0[i * n..][..n]), (im, &acc.1[i * n..][..n])] {
            for (d, &a) in dst.iter_mut().zip(src) {
                let v = a as f32 * dq;
                *d = if add { *d + v } else { v };
            }
        }
    }
}

/// How a MAC pairs input lanes with output lanes: each `(out0, in_base,
/// len)` run pairs output lanes `out0 + t` with input lanes `in_base +
/// shift + t·step` for `t in 0..len`, `shift` being the per-operator
/// constant plane shift. FC/RNN: one operator, no shift and one unit-step
/// run over the batch. Conv: the `r²` kernel offsets with one run per
/// sample (stride 1, whole padded rows) or per output row (`step =
/// stride`).
pub(crate) struct LaneMap<'a> {
    /// Input lanes per spectrum row (planes `[blocks][bins][l_pad]`).
    pub l_pad: usize,
    /// Accumulator lanes per row (planes `[blocks][bins][l_acc]`).
    pub l_acc: usize,
    /// Per-operator input plane shift.
    pub shifts: &'a [usize],
    /// `(out_lane, in_lane, len)` runs.
    pub runs: &'a [(usize, usize, usize)],
    /// Input lane advance per output lane.
    pub step: usize,
}

/// One input side of an apply, lent by an [`Arena`]: its precision
/// (operator planes and scales), its source, its spectrum planes and the
/// accumulator set its MAC writes. The recurrent step has two sides,
/// summed in the stage-C fill.
pub(crate) struct Side<'a, P: Precision> {
    /// Weights and scales of this side.
    pub prec: &'a P,
    /// The time-domain source the stage-A `fill` packs from.
    pub src: &'a [f32],
    /// Spectrum planes, block-major.
    pub xs: (&'a mut [P::Spec], &'a mut [P::Spec]),
    /// Accumulator planes, block-major.
    pub acc: (&'a mut [P::Acc], &'a mut [P::Acc]),
}

/// The rest of an [`Arena`]'s loan: time-domain staging `[block][k][lanes]`,
/// per-worker FFT plane scratch, and the conv's run/shift plans.
pub(crate) struct Scratch<'a> {
    /// Stage-C output staging.
    pub stage: &'a mut [f32],
    /// Per-worker `[k][lanes]` plane scratch (`threads` of them).
    pub pr: &'a mut [f32],
    /// Second per-worker plane scratch.
    pub pi: &'a mut [f32],
    /// Conv MAC runs.
    pub runs: &'a mut Vec<(usize, usize, usize)>,
    /// Conv per-offset plane shifts.
    pub shifts: &'a mut Vec<usize>,
}

/// The grow-only plane store behind every workspace: two spectrum slots and
/// two accumulator sets (the recurrent step's two sides; the FC apply keeps
/// its forward input spectra in slot 0 and its backward gradient spectra in
/// slot 1 for the weight gradient), staging, and per-worker scratch. The
/// first pass at a given shape sizes it; later passes at the same or a
/// smaller shape perform **zero heap allocations**.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena<S, A> {
    /// Spectrum plane pairs, block-major `[blocks][bins][lanes]` (times
    /// [`Precision::WIDTH`] in the first plane).
    pub xs: [(Vec<S>, Vec<S>); 2],
    /// Accumulator plane pairs, block-major `[blocks][bins][lanes]`.
    pub acc: [(Vec<A>, Vec<A>); 2],
    /// See [`Scratch::stage`].
    pub stage: Vec<f32>,
    /// See [`Scratch::pr`].
    pub pr: Vec<f32>,
    /// See [`Scratch::pi`].
    pub pi: Vec<f32>,
    /// See [`Scratch::runs`].
    pub runs: Vec<(usize, usize, usize)>,
    /// See [`Scratch::shifts`].
    pub shifts: Vec<usize>,
}

impl<S: Copy + Default, A: Copy + Default> Arena<S, A> {
    /// Sizes the arena for an apply whose `N` input sides `(precision,
    /// source)` share one output over `l_pad` input and `l_acc` accumulator
    /// lanes, and lends it: side `n` gets spectrum slot `slot + n` and
    /// accumulator set `n`, each sliced to its exact length.
    pub(crate) fn lend<'a, P, const N: usize>(
        &'a mut self,
        sides: [(&'a P, &'a [f32]); N],
        slot: usize,
        l_pad: usize,
        l_acc: usize,
        threads: usize,
    ) -> ([Side<'a, P>; N], Scratch<'a>)
    where
        P: Precision<Spec = S, Acc = A>,
    {
        let k = sides[0].0.plan().len();
        let (bins, out_blocks) = (k / 2 + 1, sides[0].0.blocks().0);
        let Arena {
            xs,
            acc,
            stage,
            pr,
            pi,
            runs,
            shifts,
        } = self;
        grow(stage, out_blocks * k * l_acc);
        grow(pr, threads * k * l_pad.max(l_acc));
        grow(pi, threads * k * l_pad.max(l_acc));
        let (mut xs, mut acc) = (xs.iter_mut().skip(slot), acc.iter_mut());
        let la = out_blocks * bins * l_acc;
        let sides = sides.map(|(prec, src)| {
            let lx = prec.blocks().1 * bins * l_pad;
            let (lr, li) = if P::WIDTH == 1 {
                (lx, lx)
            } else {
                (P::WIDTH * lx, 0)
            };
            let (re, im) = xs.next().expect("two spectrum slots");
            let (ar, ai) = acc.next().expect("two accumulator sets");
            grow(re, lr);
            grow(im, li);
            grow(ar, la);
            grow(ai, la);
            Side {
                prec,
                src,
                xs: (&mut re[..lr], &mut im[..li]),
                acc: (&mut ar[..la], &mut ai[..la]),
            }
        });
        let scratch = Scratch {
            stage: &mut stage[..out_blocks * k * l_acc],
            pr,
            pi,
            runs,
            shifts,
        };
        (sides, scratch)
    }
}

/// Stage A: one real-input plane FFT per input block (all lanes at once,
/// parallel over blocks). `fill(j, plane)` packs block `j`'s `[k][lanes]`
/// time-domain plane (lane-innermost; the closure owns zero-padding of
/// ragged rows/lanes), and `prec`'s copy-out stores the `bins` unique
/// half-spectrum rows into block `j` of the block-major planes `xs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fft_blocks<P: Precision>(
    prec: &P,
    threads: usize,
    blocks: usize,
    lanes: usize,
    xs: (&mut [P::Spec], &mut [P::Spec]),
    pr: &mut [f32],
    pi: &mut [f32],
    fill: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    let plan = prec.plan();
    let (k, n) = (plan.len(), (plan.len() / 2 + 1) * lanes);
    let per = P::WIDTH * n;
    let im = if xs.1.is_empty() { 0 } else { blocks * per };
    let (xs_re, xs_im) = (&mut xs.0[..blocks * per], &mut xs.1[..im]);
    par_planes(
        threads,
        blocks,
        per,
        xs_re,
        xs_im,
        k * lanes,
        pr,
        pi,
        |j0, jcount, re_c, im_c, pr_c, pi_c| {
            let ni = im_c.len() / jcount;
            for jl in 0..jcount {
                fill(j0 + jl, &mut pr_c[..k * lanes]);
                plan.forward_planes_real(&mut pr_c[..k * lanes], &mut pi_c[..k * lanes], lanes)
                    .expect("plane buffers are sized before dispatch");
                let (re, im) = (&mut re_c[jl * per..][..per], &mut im_c[jl * ni..][..ni]);
                prec.copy_out(&pr_c[..n], &pi_c[..n], re, im);
            }
        },
    );
}

/// Stage B: `side`'s MAC into its accumulator set, parallel over output
/// blocks.
pub(crate) fn mac<P: Precision>(side: &mut Side<'_, P>, threads: usize, map: &LaneMap<'_>) {
    let prec = side.prec;
    let x = (&*side.xs.0, &*side.xs.1);
    let chunk = (prec.plan().len() / 2 + 1) * map.l_acc;
    par_planes::<_, u8, _>(
        threads,
        prec.blocks().0,
        chunk,
        side.acc.0,
        side.acc.1,
        0,
        &mut [],
        &mut [],
        |i0, icount, re_c, im_c, _, _| prec.mac(i0, icount, map, x, re_c, im_c),
    );
}

/// Stage C: one real-input plane inverse per output block with the
/// **fused epilogue**, parallel over blocks. `fill(i, re, im)` writes
/// block `i`'s `bins · lanes` spectrum rows straight into its staging block
/// and the worker's `pi` scratch; the inverse runs in place there. While
/// the block is cache-hot, each finished time-domain row `t` takes the bias
/// for logical row `i·k + t`, and then the activation runs once over the
/// whole `[k][lanes]` block: [`crate::simd::tanh`] vectorizes across rows
/// as well as lanes, so a lone sample's k values fill its vectors. Each
/// element still sees bias-then-activation, so the bits do not depend on
/// the lane count. Rows land in `stage[block][k][lanes]`, chunked per
/// block, so threads never race.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ifft_epilogue_blocks(
    plan: &BatchFftPlan<f32>,
    threads: usize,
    blocks: usize,
    lanes: usize,
    epi: &Epilogue<'_>,
    stage: &mut [f32],
    pi: &mut [f32],
    fill: &(impl Fn(usize, &mut [f32], &mut [f32]) + Sync),
) {
    let k = plan.len();
    let (n, plane) = ((k / 2 + 1) * lanes, k * lanes);
    let isa = crate::simd::isa();
    par_planes(
        threads,
        blocks,
        plane,
        &mut stage[..blocks * plane],
        &mut [],
        plane,
        pi,
        &mut [],
        |i0, _, stage_c, _, pim, _| {
            for (il, block) in stage_c.chunks_exact_mut(plane).enumerate() {
                let i = i0 + il;
                fill(i, &mut block[..n], &mut pim[..n]);
                plan.inverse_planes_real(block, &mut pim[..plane], lanes)
                    .expect("plane buffers are sized before dispatch");
                if let Some(bias) = epi.bias {
                    // Rows past the slice are ragged padding: no bias.
                    let rows = bias.get(i * k..).unwrap_or_default().iter().take(k);
                    for (row, &b) in block.chunks_exact_mut(lanes).zip(rows) {
                        row.iter_mut().for_each(|v| *v += b);
                    }
                }
                if epi.act == Activation::Tanh {
                    crate::simd::tanh(isa, block);
                }
            }
        },
    );
}

/// Stage C over `sides` sharing one output: block `i`'s spectrum is the
/// first side's fill plus each further side's, so the recurrent step's
/// `W_ih·x + W_hh·h` meets here, before the one inverse per block.
pub(crate) fn ifft_sides<P: Precision>(
    sides: &[Side<'_, P>],
    threads: usize,
    lanes: usize,
    epi: &Epilogue<'_>,
    stage: &mut [f32],
    pi: &mut [f32],
) {
    let prec = sides[0].prec;
    let fill = |i: usize, re: &mut [f32], im: &mut [f32]| {
        for (n, s) in sides.iter().enumerate() {
            s.prec.fill(i, (&*s.acc.0, &*s.acc.1), re, im, n > 0);
        }
    };
    let blocks = prec.blocks().0;
    ifft_epilogue_blocks(prec.plan(), threads, blocks, lanes, epi, stage, pi, &fill);
}

/// Packs block `j` of a row-major `[lanes, logical]` slab into a
/// `[k][lanes]` time-domain plane (gather-transpose; ragged tail rows are
/// zero). Lane-outer order keeps the source reads contiguous; the strided
/// writes stay inside the L1-resident plane.
pub(crate) fn pack_slab_block(
    src: &[f32],
    lanes: usize,
    logical: usize,
    k: usize,
    j: usize,
    plane: &mut [f32],
) {
    let start = j * k;
    let len = k.min(logical.saturating_sub(start));
    if len < k {
        plane[len * lanes..k * lanes].fill(0.0);
    }
    if lanes == 1 {
        // Single-lane slabs (B = 1 serving) degenerate to a straight copy:
        // the gather-transpose below would write the same bytes one
        // element at a time through the strided index arithmetic.
        plane[..len].copy_from_slice(&src[start..start + len]);
        return;
    }
    for b in 0..lanes {
        let srow = &src[b * logical + start..b * logical + start + len];
        for (t, &v) in srow.iter().enumerate() {
            plane[t * lanes + b] = v;
        }
    }
}

/// Entry check of every slab apply: a non-empty batch, and each
/// row-major slab `(len, width)` exactly `batch · width` long.
pub(crate) fn check_slabs(batch: usize, slabs: &[(usize, usize)]) -> Result<(), CircError> {
    if batch == 0 {
        return Err(CircError::DimensionMismatch {
            expected: 1,
            got: 0,
        });
    }
    for &(len, width) in slabs {
        if len != batch * width {
            return Err(CircError::DimensionMismatch {
                expected: batch * width,
                got: len,
            });
        }
    }
    Ok(())
}

/// Stage D of every slab apply: the pure layout copy from the staging
/// planes `[block][k][batch]` into the row-major `[batch, logical]` slab,
/// dropping ragged padding rows (bias/activation were already applied
/// inside the IFFT epilogue). Sample-outer order keeps the writes
/// contiguous (one output row per sample); the strided reads prefetch well.
#[inline]
pub(crate) fn unstage_slab(stage: &[f32], k: usize, batch: usize, out: &mut [f32]) {
    let logical = out.len() / batch;
    for (b, orow) in out.chunks_exact_mut(logical).enumerate() {
        for i in 0..logical.div_ceil(k) {
            let rows = k.min(logical - i * k);
            let base = i * k * batch + b;
            for t in 0..rows {
                orow[i * k + t] = stage[base + t * batch];
            }
        }
    }
}

/// The frequency-domain MAC of every f32 apply: FC, RNN and conv, forward
/// and transpose. Each output element accumulates **all** offsets' and
/// block columns' products in registers (offset-major, block ascending — a
/// fixed order, so results are bit-stable across thread counts and batch
/// compositions) and is written exactly once: one
/// [`crate::simd::cmac_rows`] sweep per (bin, tile of four output block
/// rows, run) over `map`'s lanes. Both directions read each engine's one
/// `[bin][q][p]` weight plane set: `forward` computes `conj(w)·x` with
/// weight strides `(row, column) = (1, p)`, the transpose product `w·x`
/// with `(p, 1)`. Inputs are block-major `[blocks][bins][l_pad]`,
/// accumulators block-major `[icount][bins][l_acc]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mac(
    engines: &[BlockCirculantMatrix],
    forward: bool,
    i0: usize,
    icount: usize,
    map: &LaneMap<'_>,
    x: (&[f32], &[f32]),
    acc_re: &mut [f32],
    acc_im: &mut [f32],
) {
    assert_eq!(
        engines.len(),
        map.shifts.len(),
        "one plane shift per engine"
    );
    let isa = crate::simd::isa();
    let e0 = &engines[0];
    let bins = e0.bins();
    let (out_blocks, q) = if forward {
        (e0.block_rows(), e0.block_cols())
    } else {
        (e0.block_cols(), e0.block_rows())
    };
    let w = |e: usize| engines[e].wplanes();
    let (wrow, wcol) = if forward { (1, out_blocks) } else { (q, 1) };
    for bin in 0..bins {
        // Spectra of real signals are real at DC and (for k ≥ 2) the
        // Nyquist bin, so those bins need one real multiply per term.
        let real = bin == 0 || bin == bins - 1;
        for it in (0..icount).step_by(TI) {
            for &(out0, in_base, len) in map.runs {
                let sweep = RowSweep {
                    x,
                    xbase: bin * map.l_pad + in_base,
                    shifts: map.shifts,
                    jstride: bins * map.l_pad,
                    step: map.step,
                    wbase: bin * out_blocks * q + (i0 + it) * wrow,
                    wrow,
                    wcol,
                    q,
                    len,
                    abase: (it * bins + bin) * map.l_acc + out0,
                    astride: bins * map.l_acc,
                };
                let tl = TI.min(icount - it);
                cmac_rows(isa, real, !forward, tl, &sweep, &w, acc_re, acc_im);
            }
        }
    }
}

/// Rounds `v / step` to the nearest symmetric fixed-point code in
/// `[-max_code, max_code]` (saturating — out-of-range spectra clamp rather
/// than wrap). Ties round to even via the exponent-shift trick (adding
/// `1.5·2²³` forces the sum's ulp to 1, so the addition itself performs
/// the rounding): exact for `|v·inv_step| < 2²²`, and larger magnitudes
/// clamp to the same `±max_code` on every path — which makes this bitwise
/// identical to the `cvtps` conversion the vector [`crate::simd::qpack`]
/// lanes use, and any round-to-nearest tie rule stays within the
/// half-step error bound the operator advertises.
#[inline(always)]
pub(crate) fn quantize_code(v: f32, inv_step: f32, max_code: i32) -> i16 {
    const SHIFT: f32 = 12_582_912.0; // 1.5·2²³
    let r = (v * inv_step + SHIFT) - SHIFT;
    (r as i32).clamp(-max_code, max_code) as i16
}

/// Output block rows per MAC tile (both precisions).
const TI: usize = 4;

/// The i16 instantiation of [`run_mac`]: the same run/shift mapping and
/// row tiles, over interleaved `(re, im)` code pairs with i32
/// accumulators. No real-bin branch — DC/Nyquist imaginary codes are zero
/// by construction on both the weight and input sides, so the uniform
/// pairwise kernels compute the right (zero) imaginary terms there. `wq`
/// holds one `[bin][q][p]` plane of packed code words per kernel offset;
/// `xq` is the block-major `[q][bins][l_pad][2]` code plane; accumulators
/// are block-major `[icount][bins][l_acc]` and written exactly once.
///
/// A unit-step run runs as one of two sweep shapes over the same planes:
/// with at most [`crate::simd::Isa::rowvec_lanes`] lanes, as the
/// row-vector sweep [`qmac_rowvec`] over all `icount` rows at once;
/// otherwise as the lane sweep [`qmac_rows`] per tile of [`TI`] rows.
/// Strided runs (conv stride > 1) gather their lanes into a staging tile
/// for the per-term [`qmac`]. Integer accumulation is exact, so all three
/// agree bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mac_i16(
    wq: &[Vec<i32>],
    p: usize,
    q: usize,
    i0: usize,
    icount: usize,
    map: &LaneMap<'_>,
    xq: &[i16],
    acc_re: &mut [i32],
    acc_im: &mut [i32],
) {
    const LANES: usize = 16;
    let isa = crate::simd::isa();
    let (l_pad, l_acc, shifts, step) = (map.l_pad, map.l_acc, map.shifts, map.step);
    let bins = wq[0].len() / (p * q);
    let sweep = |bin: usize, (out0, in_base, len): (usize, usize, usize)| QSweep {
        w: wq,
        wbase: bin * q * p + i0,
        wstride: p,
        q,
        x: xq,
        xbase: 2 * (bin * l_pad + in_base),
        shifts,
        xstride: 2 * bins * l_pad,
        len,
        abase: bin * l_acc + out0,
        astride: bins * l_acc,
    };
    let rowvec = |len: usize| step == 1 && len <= isa.rowvec_lanes();
    let mut sx = [0i16; 2 * LANES];
    for bin in 0..bins {
        for &run in map.runs.iter().filter(|run| rowvec(run.2)) {
            qmac_rowvec(isa, icount, &sweep(bin, run), acc_re, acc_im);
        }
        for it in (0..icount).step_by(TI) {
            let tl = TI.min(icount - it);
            for &run in map.runs.iter().filter(|run| !rowvec(run.2)) {
                let s = sweep(bin, run);
                if step == 1 {
                    let tile = QSweep {
                        wbase: s.wbase + it,
                        abase: s.abase + it * s.astride,
                        ..s
                    };
                    qmac_rows(isa, tl, &tile, acc_re, acc_im);
                    continue;
                }
                let (_, in_base, len) = run;
                let mut t0 = 0;
                while t0 < len {
                    let l = LANES.min(len - t0);
                    let mut tr = [[0i32; LANES]; TI];
                    let mut ti_ = [[0i32; LANES]; TI];
                    for (w, &shift) in wq.iter().zip(shifts) {
                        for j in 0..q {
                            let xo = (j * bins + bin) * l_pad + in_base + shift + t0 * step;
                            for t in 0..l {
                                sx[2 * t] = xq[2 * (xo + t * step)];
                                sx[2 * t + 1] = xq[2 * (xo + t * step) + 1];
                            }
                            let wj = &w[s.wbase + it + j * p..][..tl];
                            for (u, &wu) in wj.iter().enumerate() {
                                qmac(isa, wu, &sx[..2 * l], &mut tr[u][..l], &mut ti_[u][..l]);
                            }
                        }
                    }
                    for u in 0..tl {
                        let ao = s.abase + (it + u) * s.astride + t0;
                        acc_re[ao..ao + l].copy_from_slice(&tr[u][..l]);
                        acc_im[ao..ao + l].copy_from_slice(&ti_[u][..l]);
                    }
                    t0 += l;
                }
            }
        }
    }
}
