//! The shared spectral-plane execution core.
//!
//! CirCNN's central observation (§3.2, Fig. 4) is that FC, CONV and
//! recurrent layers are *the same* dataflow over block-circulant weights:
//! FFT the inputs, element-wise multiply-accumulate against resident
//! weight spectra, IFFT the accumulators. This module is that dataflow,
//! once, as a toolkit of stages over **lane-indexed SoA planes**
//! (`[bin][block][lanes]`, split re/im; the lane dimension is innermost so
//! every hot loop is a stride-1 FMA chain):
//!
//! * [`par_planes`] — the scoped-thread dispatcher every stage runs under
//!   (on the caller below a per-thread work floor). Chunk boundaries depend
//!   only on `(threads, blocks)` and per-element work is chunk-independent,
//!   so serial and threaded runs of every stage are **bit-identical**.
//! * [`fft_blocks`] — real-input plane FFT of a run of blocks; the caller
//!   supplies a `fill` closure that packs block `j`'s `[k][lanes]`
//!   time-domain plane (FC: gather-transpose of a row-major slab; conv:
//!   channels staged onto the padded pixel grid). Only the `k/2 + 1`
//!   unique half-spectrum rows come back (Fig. 10).
//! * [`forward_spectra_planes`] — the full stage-A pipeline: threaded
//!   [`fft_blocks`] over a row-major `[lanes, logical]` slab plus the
//!   block-major → bin-major re-layout the MAC wants. Shared by the FC
//!   apply and both halves of the recurrent step.
//! * [`run_mac`] — the one f32 frequency-domain MAC, generic over the
//!   lane→output mapping: each output element accumulates
//!   `Σ_offsets Σ_blocks w∘x` over caller-described *runs*
//!   (`(out_lane, in_lane, len)` at an input `step`), one register-resident
//!   [`crate::simd::cmac_rows`] sweep per (bin, row tile, run). FC/RNN use
//!   one unit-step run per call, forward or transpose; conv describes every
//!   kernel offset as a constant plane shift — including **strided** convs,
//!   whose input lanes advance by `stride` per output lane.
//! * [`ifft_blocks`] / [`ifft_epilogue_blocks`] — the plane IFFT; the
//!   epilogue variant applies a per-row **bias add and activation to each
//!   block right after its inverse**, while the block's `[k][lanes]` plane
//!   is cache-hot, so the separate post-IFFT bias sweep over the full
//!   output is gone (the "stage 3 fusion" item). The finished rows land in
//!   `[block][k][lanes]` staging; the only pass left after the IFFT is a
//!   pure layout copy.
//!
//! [`Workspace`](crate::Workspace) (FC/RNN applies, lanes = batch),
//! [`ConvWorkspace`](crate::ConvWorkspace) (lanes = batch·pixels) and
//! [`RecurrentWorkspace`](crate::rnn::RecurrentWorkspace) (lanes = batch,
//! weight spectra resident across timesteps) are thin lane-mapping
//! adapters over these stages.

use circnn_fft::BatchFftPlan;

use crate::error::CircError;
use crate::matrix::BlockCirculantMatrix;
use crate::simd::{cmac_rows, RowSweep};

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

impl Epilogue<'_> {
    /// Whether this epilogue changes any row (an identity epilogue lets
    /// the IFFT transform in place in the staging planes instead of
    /// paying the copy out of the FFT scratch).
    pub fn is_identity(&self) -> bool {
        self.bias.is_none() && self.act == Activation::Identity
    }
}

/// Grow-only buffer sizing shared by every workspace adapter: the first
/// pass at a given size pays the resize, later passes at the same or
/// smaller size re-slice the warm buffer allocation-free.
#[inline]
pub(crate) fn grow(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// [`grow`] for the quantized planes (`i16` codes, `i32` accumulators).
#[inline]
pub(crate) fn grow_with<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
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

/// One real-input plane FFT per block in `j0..j0 + jcount`: `fill(j, plane)`
/// packs block `j`'s `[k][lanes]` time-domain plane (lane-innermost; the
/// closure owns zero-padding of ragged rows/lanes), the plan transforms
/// every lane at once, and the `bins` unique half-spectrum rows land
/// block-major in `out_re`/`out_im` (`jcount · bins · lanes` each).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fft_blocks<F>(
    plan: &BatchFftPlan<f32>,
    k: usize,
    bins: usize,
    lanes: usize,
    j0: usize,
    jcount: usize,
    out_re: &mut [f32],
    out_im: &mut [f32],
    pr: &mut [f32],
    pi: &mut [f32],
    fill: &F,
) where
    F: Fn(usize, &mut [f32]),
{
    for jl in 0..jcount {
        fill(j0 + jl, &mut pr[..k * lanes]);
        plan.forward_planes_real(&mut pr[..k * lanes], &mut pi[..k * lanes], lanes)
            .expect("plane buffers are sized before dispatch");
        let off = jl * bins * lanes;
        out_re[off..off + bins * lanes].copy_from_slice(&pr[..bins * lanes]);
        out_im[off..off + bins * lanes].copy_from_slice(&pi[..bins * lanes]);
    }
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

/// Stage A of every slab apply: threaded real-input plane FFT of a
/// row-major `[lanes, logical]` slab (one dispatch per block, all lanes at
/// once), then the block-major → bin-major re-layout so the MAC's
/// innermost block sweep reads contiguously. `tmp_*` stage the block-major
/// FFT output (`blocks · bins · lanes` each — callers lend accumulator
/// planes that are free at this point); the bin-major spectra land in
/// `out_*`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_spectra_planes<'a>(
    plan: &BatchFftPlan<f32>,
    src: &[f32],
    lanes: usize,
    logical: usize,
    blocks: usize,
    k: usize,
    bins: usize,
    threads: usize,
    tmp_re: &mut [f32],
    tmp_im: &mut [f32],
    out_re: &'a mut [f32],
    out_im: &'a mut [f32],
    pr: &mut [f32],
    pi: &mut [f32],
) {
    par_planes(
        threads,
        blocks,
        bins * lanes,
        &mut tmp_re[..blocks * bins * lanes],
        &mut tmp_im[..blocks * bins * lanes],
        k * lanes,
        pr,
        pi,
        |j0, jcount, re_c, im_c, pr_c, pi_c| {
            fft_blocks(
                plan,
                k,
                bins,
                lanes,
                j0,
                jcount,
                re_c,
                im_c,
                pr_c,
                pi_c,
                &|j, plane| {
                    pack_slab_block(src, lanes, logical, k, j, plane);
                },
            );
        },
    );
    for j in 0..blocks {
        for bin in 0..bins {
            let src_off = (j * bins + bin) * lanes;
            let dst_off = (bin * blocks + j) * lanes;
            out_re[dst_off..dst_off + lanes].copy_from_slice(&tmp_re[src_off..src_off + lanes]);
            out_im[dst_off..dst_off + lanes].copy_from_slice(&tmp_im[src_off..src_off + lanes]);
        }
    }
}

/// One real-input plane inverse FFT per block of block-major accumulator
/// planes, into `[block][k][lanes]` time-domain staging (no epilogue — the
/// backward passes and weight-gradient reductions use this form).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ifft_blocks(
    plan: &BatchFftPlan<f32>,
    acc_re: &[f32],
    acc_im: &[f32],
    k: usize,
    bins: usize,
    lanes: usize,
    i0: usize,
    icount: usize,
    stage: &mut [f32],
    pi: &mut [f32],
) {
    for il in 0..icount {
        let off = (i0 + il) * bins * lanes;
        let sblock = &mut stage[il * k * lanes..(il + 1) * k * lanes];
        sblock[..bins * lanes].copy_from_slice(&acc_re[off..off + bins * lanes]);
        pi[..bins * lanes].copy_from_slice(&acc_im[off..off + bins * lanes]);
        plan.inverse_planes_real(sblock, &mut pi[..k * lanes], lanes)
            .expect("plane buffers are sized before dispatch");
    }
}

/// The plane IFFT with the **fused epilogue**: per block, the accumulator
/// rows ride one real-input inverse; the bias for logical row `i·k + t`
/// and the activation are applied to each finished time-domain row while
/// the block is cache-hot, and the finished row is staged at
/// `stage[il·k + t][lanes]`. The separate post-IFFT bias sweep over the
/// whole output is gone; the only pass after this is a pure layout copy
/// (which threads never race: `stage` is chunked per block by
/// [`par_planes`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ifft_epilogue_blocks(
    plan: &BatchFftPlan<f32>,
    acc_re: &[f32],
    acc_im: &[f32],
    k: usize,
    bins: usize,
    lanes: usize,
    i0: usize,
    icount: usize,
    epi: &Epilogue<'_>,
    stage: &mut [f32],
    pre: &mut [f32],
    pim: &mut [f32],
) {
    for il in 0..icount {
        let i = i0 + il;
        let off = i * bins * lanes;
        pre[..bins * lanes].copy_from_slice(&acc_re[off..off + bins * lanes]);
        pim[..bins * lanes].copy_from_slice(&acc_im[off..off + bins * lanes]);
        let sblock = &mut stage[il * k * lanes..(il + 1) * k * lanes];
        inverse_epilogue_block(plan, k, lanes, i, epi, sblock, pre, pim);
    }
}

/// One block's inverse + epilogue, `pre`/`pim` pre-filled with the block's
/// spectrum rows (the fill is the caller's — it is where the quantized path
/// fuses its dequant multiply). The inverse leaves the block's `[k][lanes]`
/// plane in `pre`; each row then takes its bias and activation while the
/// small plane is still cache-hot, and the plane is staged in one copy.
#[allow(clippy::too_many_arguments)]
fn inverse_epilogue_block(
    plan: &BatchFftPlan<f32>,
    k: usize,
    lanes: usize,
    i: usize,
    epi: &Epilogue<'_>,
    sblock: &mut [f32],
    pre: &mut [f32],
    pim: &mut [f32],
) {
    let pre = &mut pre[..k * lanes];
    plan.inverse_planes_real(pre, &mut pim[..k * lanes], lanes)
        .expect("plane buffers are sized before dispatch");
    for (t, row) in pre.chunks_exact_mut(lanes).enumerate() {
        if let Some(&b) = epi.bias.and_then(|bias| bias.get(i * k + t)) {
            for v in row.iter_mut() {
                *v += b;
            }
        }
        if epi.act == Activation::Tanh {
            for v in row.iter_mut() {
                *v = v.tanh();
            }
        }
    }
    sblock.copy_from_slice(pre);
}

/// The frequency-domain MAC of every f32 apply: FC, RNN and conv, forward
/// and transpose. Each output element accumulates **all** offsets' and
/// block columns' products in registers (offset-major, block ascending — a
/// fixed order, so results are bit-stable across thread counts and batch
/// compositions) and is written exactly once: one
/// [`crate::simd::cmac_rows`] sweep per (bin, tile of four output block
/// rows, run). `forward` selects `conj(w)·x` over the forward weight planes
/// versus the transpose product over the transposed ones; `accumulate`
/// adds each finished sum into `acc` instead of overwriting it (the
/// recurrent cell's second operator).
///
/// The lane mapping: each `(out0, in_base, len)` run pairs output lanes
/// `out0 + t` with input lanes `in_base + shift + t·step` for `t in
/// 0..len`, `shift` being the per-offset constant plane shift. FC/RNN pass
/// one engine, one zero shift and one unit-step run over **bin-major**
/// `[bins][blocks][lanes]` planes; conv passes its `r²` engines with one
/// run per sample (stride 1, whole padded rows) or per output row (`step =
/// stride`) over **block-major** `[q][bins][l_pad]` planes. `x_strides` is
/// the input planes' `(bin, block)` element strides, which is all that
/// tells the layouts apart; `acc_*` are block-major `[icount][bins][l_acc]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mac(
    engines: &[BlockCirculantMatrix],
    forward: bool,
    accumulate: bool,
    shifts: &[usize],
    i0: usize,
    icount: usize,
    x: (&[f32], &[f32]),
    x_strides: (usize, usize),
    l_acc: usize,
    runs: &[(usize, usize, usize)],
    step: usize,
    acc_re: &mut [f32],
    acc_im: &mut [f32],
) {
    assert_eq!(engines.len(), shifts.len(), "one plane shift per engine");
    let isa = crate::simd::isa();
    let e0 = &engines[0];
    let (k, bins) = (e0.block_size(), e0.bins());
    let (out_blocks, q) = if forward {
        (e0.block_rows(), e0.block_cols())
    } else {
        (e0.block_cols(), e0.block_rows())
    };
    let w = |e: usize| engines[e].wplanes(forward);
    for bin in 0..bins {
        // Spectra of real signals are real at DC and (for k ≥ 2) the
        // Nyquist bin, so those bins need one real multiply per term.
        let real = bin == 0 || (k >= 2 && bin == bins - 1);
        for it in (0..icount).step_by(TI) {
            for &(out0, in_base, len) in runs {
                let sweep = RowSweep {
                    x,
                    xbase: bin * x_strides.0 + in_base,
                    shifts,
                    jstride: x_strides.1,
                    step,
                    wbase: (bin * out_blocks + i0 + it) * q,
                    wstride: q,
                    q,
                    len,
                    abase: (it * bins + bin) * l_acc + out0,
                    astride: bins * l_acc,
                };
                let tl = TI.min(icount - it);
                cmac_rows(
                    isa, real, !forward, accumulate, tl, &sweep, &w, acc_re, acc_im,
                );
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

/// Stage A of every quantized apply, dispatched: [`fft_quantize_blocks`]
/// over all `blocks` input blocks on `threads` workers, each with its own
/// `[k][lanes]` slice of the `pr`/`pi` plane scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quantize_spectra_planes(
    plan: &BatchFftPlan<f32>,
    threads: usize,
    blocks: usize,
    k: usize,
    bins: usize,
    lanes: usize,
    inv_step: f32,
    max_code: i32,
    codes: &mut [i16],
    pr: &mut [f32],
    pi: &mut [f32],
    fill: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    par_planes(
        threads,
        blocks,
        bins * lanes * 2,
        codes,
        &mut [],
        k * lanes,
        pr,
        pi,
        |j0, jcount, c_c, _: &mut [i16], pr_c, pi_c| {
            fft_quantize_blocks(
                plan, k, bins, lanes, j0, jcount, inv_step, max_code, c_c, pr_c, pi_c, fill,
            );
        },
    );
}

/// Stage A of the quantized apply: the same per-block real-input plane FFT
/// as [`fft_blocks`], with the symmetric quantizer **fused into the
/// spectrum copy-out** — the half-spectrum rows leave the per-worker FFT
/// scratch directly as interleaved `(re, im)` i16 code pairs, block-major
/// `[j][bins][lanes][2]`. There is no separate f32 spectra store and no
/// bin-major re-layout pass: the quantize *is* the copy. Imaginary codes at
/// DC and (k ≥ 2) Nyquist are forced to zero — those bins are real for
/// real inputs, and zeroed codes let the MAC run one uniform pairwise
/// kernel with no real-bin branch.
#[allow(clippy::too_many_arguments)]
fn fft_quantize_blocks<F>(
    plan: &BatchFftPlan<f32>,
    k: usize,
    bins: usize,
    lanes: usize,
    j0: usize,
    jcount: usize,
    inv_step: f32,
    max_code: i32,
    out: &mut [i16],
    pr: &mut [f32],
    pi: &mut [f32],
    fill: &F,
) where
    F: Fn(usize, &mut [f32]),
{
    let isa = crate::simd::isa();
    for jl in 0..jcount {
        fill(j0 + jl, &mut pr[..k * lanes]);
        plan.forward_planes_real(&mut pr[..k * lanes], &mut pi[..k * lanes], lanes)
            .expect("plane buffers are sized before dispatch");
        for bin in 0..bins {
            let real_bin = bin == 0 || (k >= 2 && bin == bins - 1);
            let src = bin * lanes;
            let dst = (jl * bins + bin) * lanes * 2;
            crate::simd::qpack(
                isa,
                &pr[src..src + lanes],
                if real_bin {
                    None
                } else {
                    Some(&pi[src..src + lanes])
                },
                inv_step,
                max_code,
                &mut out[dst..dst + 2 * lanes],
            );
        }
    }
}

/// Output block rows per MAC tile (both precisions).
const TI: usize = 4;

/// Elements of per-worker `i32` scratch [`run_mac_i16`] needs in each of
/// `wa` and `wb` for `offsets` fused operators of `q` block columns.
pub(crate) fn mac_i16_scratch(offsets: usize, q: usize) -> usize {
    offsets * TI * q
}

/// The i16 instantiation of [`run_mac`]: identical tiling, run/shift
/// mapping and fixed accumulation order, over interleaved `(re, im)` code
/// pairs with i32 accumulators. No real-bin branch — DC/Nyquist imaginary
/// codes are zero by construction on both the weight and input sides, so
/// the uniform pairwise kernel computes the right (zero) imaginary terms
/// there. `wq` holds one `(re, im)` code-plane pair per kernel offset in
/// the same `[bin][p][q]` layout as the f32 weight planes; `xq` is the
/// block-major `[q][bins][l_pad][2]` code plane from
/// [`fft_quantize_blocks`]; accumulators are block-major
/// `[icount][bins][l_acc]` and written exactly once (overwrite — callers
/// needing a second accumulation, like the recurrent cell, use a second
/// accumulator set and combine in the dequant epilogue).
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
pub(crate) fn run_mac_i16<W: AsRef<[i16]>>(
    wq: &[(W, W)],
    shifts: &[usize],
    p: usize,
    q: usize,
    bins: usize,
    i0: usize,
    icount: usize,
    xq: &[i16],
    l_pad: usize,
    l_acc: usize,
    runs: &[(usize, usize, usize)],
    step: usize,
    acc_re: &mut [i32],
    acc_im: &mut [i32],
    wa: &mut [i32],
    wb: &mut [i32],
) {
    const LANES: usize = 16;
    let isa = crate::simd::isa();
    let mut sx = [0i16; 2 * LANES];
    let mut aos = [0usize; TI];
    // Pairwise madd constants for the current row tile, `[e][u][j]`
    // ([`mac_i16_scratch`] elements of caller-owned per-worker scratch
    // each): `wa = pack(wr, wi)` produces the real-part term,
    // `wb = pack(−wi, wr)` the imaginary one. Built once per (bin, tile)
    // and reused across every run and lane chunk.
    for bin in 0..bins {
        let mut it = 0;
        while it < icount {
            let tl = TI.min(icount - it);
            for (e, (wre, wim)) in wq.iter().enumerate() {
                let (wre, wim) = (wre.as_ref(), wim.as_ref());
                for u in 0..tl {
                    let wrow = (bin * p + i0 + it + u) * q;
                    for j in 0..q {
                        let (r, im) = (wre[wrow + j], wim[wrow + j]);
                        wa[(e * TI + u) * q + j] = crate::simd::madd_pair(r, im);
                        wb[(e * TI + u) * q + j] = crate::simd::madd_pair(im.wrapping_neg(), r);
                    }
                }
            }
            if step == 1 {
                // Unit-stride lanes: the register-resident row kernel sweeps
                // every engine's q columns per row with the running sums in
                // registers, writing straight into the accumulator planes.
                for &(out0, in_base, len) in runs {
                    for (u, slot) in aos[..tl].iter_mut().enumerate() {
                        *slot = ((it + u) * bins + bin) * l_acc + out0;
                    }
                    crate::simd::qmac_rows(
                        isa,
                        wa,
                        wb,
                        tl,
                        TI * q,
                        q,
                        xq,
                        2 * (bin * l_pad + in_base),
                        shifts,
                        2 * bins * l_pad,
                        len,
                        acc_re,
                        acc_im,
                        &aos[..tl],
                    );
                }
            } else {
                // Strided lanes (conv stride > 1): gather each column's
                // lanes into a contiguous staging tile, then run the per-
                // column kernel over register tiles. Integer accumulation
                // is exact, so this ordering and the row kernel's agree
                // bitwise.
                for &(out0, in_base, len) in runs {
                    let mut t0 = 0;
                    while t0 < len {
                        let l = LANES.min(len - t0);
                        let mut tr = [[0i32; LANES]; TI];
                        let mut ti_ = [[0i32; LANES]; TI];
                        for ((wre, wim), &shift) in wq.iter().zip(shifts) {
                            let (wre, wim) = (wre.as_ref(), wim.as_ref());
                            for j in 0..q {
                                // Block-major code planes: [q][bins][l_pad][2].
                                let xo = (j * bins + bin) * l_pad + in_base + shift + t0 * step;
                                for t in 0..l {
                                    sx[2 * t] = xq[2 * (xo + t * step)];
                                    sx[2 * t + 1] = xq[2 * (xo + t * step) + 1];
                                }
                                let x = &sx[..2 * l];
                                for u in 0..tl {
                                    let i = i0 + it + u;
                                    let widx = (bin * p + i) * q + j;
                                    crate::simd::qmac(
                                        isa,
                                        wre[widx],
                                        wim[widx],
                                        x,
                                        &mut tr[u][..l],
                                        &mut ti_[u][..l],
                                    );
                                }
                            }
                        }
                        for u in 0..tl {
                            let ao = ((it + u) * bins + bin) * l_acc + out0 + t0;
                            acc_re[ao..ao + l].copy_from_slice(&tr[u][..l]);
                            acc_im[ao..ao + l].copy_from_slice(&ti_[u][..l]);
                        }
                        t0 += l;
                    }
                }
            }
            it += tl;
        }
    }
}

/// One quantized accumulator set plus its per-block-row dequant scales
/// (`dq[i] = w_step[i] · x_step` — multiplying a code product by it
/// recovers the spectral-domain f32 value).
pub(crate) struct QAcc<'a> {
    /// Real i32 accumulator planes, block-major `[p][bins][lanes]`.
    pub re: &'a [i32],
    /// Imaginary i32 accumulator planes, same layout.
    pub im: &'a [i32],
    /// Per-block-row dequant scale (`p` entries).
    pub dq: &'a [f32],
}

/// The dequantizing variant of [`ifft_epilogue_blocks`]: the spectrum fill
/// that feeds each block's inverse converts the i32 code accumulators to
/// f32 **during the copy** into the FFT scratch — one multiply per element
/// fused into a pass the f32 path already pays, so dequant costs no extra
/// sweep. An optional second accumulator set rides the same fill (the
/// recurrent cell's input-side and hidden-side MACs, each with its own
/// scale), then bias/activation fuse into the unpack exactly as in the f32
/// path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ifft_epilogue_blocks_dq(
    plan: &BatchFftPlan<f32>,
    acc: &QAcc<'_>,
    acc2: Option<&QAcc<'_>>,
    k: usize,
    bins: usize,
    lanes: usize,
    i0: usize,
    icount: usize,
    epi: &Epilogue<'_>,
    stage: &mut [f32],
    pre: &mut [f32],
    pim: &mut [f32],
) {
    for il in 0..icount {
        let i = i0 + il;
        let off = i * bins * lanes;
        let dq = acc.dq[i];
        for t in 0..bins * lanes {
            pre[t] = acc.re[off + t] as f32 * dq;
            pim[t] = acc.im[off + t] as f32 * dq;
        }
        if let Some(a2) = acc2 {
            let dq2 = a2.dq[i];
            for t in 0..bins * lanes {
                pre[t] += a2.re[off + t] as f32 * dq2;
                pim[t] += a2.im[off + t] as f32 * dq2;
            }
        }
        let sblock = &mut stage[il * k * lanes..(il + 1) * k * lanes];
        inverse_epilogue_block(plan, k, lanes, i, epi, sblock, pre, pim);
    }
}
