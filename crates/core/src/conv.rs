//! The block-circulant CONV layer (paper §3.2, Eqns. 6–7) on the
//! batch-plane FFT engine.
//!
//! CirCNN "generalizes the concept of block-circulant structure to the
//! rank-4 tensor F in the CONV layer, i.e., all the slices of the form
//! `F(·,·,i,j)` are circulant matrices" — circulant across the
//! *channel* dimensions `(C, P)`, one circulant structure per kernel offset
//! `(i, j)`. After the Fig.-6 im2col lowering with channel-fastest column
//! order, the lowered `Cr²×P` matrix is block-circulant (Eqn. 7), so every
//! output pixel is computed with the same FFT pipeline as the FC layer.
//!
//! Implementation: one [`BlockCirculantMatrix`] of logical shape `P×C` per
//! kernel offset (`r²` of them), and one forward pipeline over the shared
//! spectral-plane core in `crate::engine` (lanes = batch·pixels, both
//! precisions: [`ConvWorkspace`] runs it at f32, `QuantizedConv2d` at i16)
//! that takes the whole `[B, C, H, W]` batch through SoA
//! `[block][bin][batch·pixels]` spectra planes:
//!
//! 1. **Channel FFT** — one real-input batch-plane FFT per block *column*
//!    for the entire batch (`B·H·W` lanes per dispatch); each input pixel's
//!    channel spectra are computed once and reused by every kernel offset
//!    that touches that pixel.
//! 2. **Fused run-MAC** — every stride: on the padded grid each kernel
//!    offset is the same lane run at a constant plane shift (strided convs
//!    advance the input lane by `stride` per output lane), so one
//!    register-tiled sweep (`engine::run_mac`) accumulates all `r²·q`
//!    frequency-domain terms per output element in registers — the Eqn.-7
//!    sum moves inside the IFFT by linearity, the x-planes stream once,
//!    and the accumulators are written exactly once. The former per-offset
//!    gather path (patch-plane materialization + `r²` accumulator
//!    read-modify-write sweeps for strided convs) is retired.
//! 3. **Output IFFT with fused epilogue** — one real-input batch-plane
//!    inverse per output block row for the whole batch (the single shared
//!    IFFT per output block the hardware's peripheral block performs); the
//!    per-channel bias is applied to each block right after its IFFT, leaving
//!    only a pure layout copy into the `[B, P, OH, OW]` slab.
//!
//! Only the `k/2 + 1` unique half-spectrum rows are ever stored or swept
//! (Fig. 10: real inputs make the mirror half redundant). The backward
//! pass rides the same planes: output-gradient spectra planes, per-offset
//! gathered patches for the frequency-domain weight-gradient reduction
//! (the reduction must pair each output-gradient lane with its patch lane,
//! so the gather survives there), and a scatter-add of the transpose MAC
//! for `∂L/∂x`. Serial and threaded runs are bit-identical (fixed
//! per-element accumulation order), and the steady state performs zero
//! heap allocations once the workspace is warm.

use circnn_nn::Layer;
use circnn_tensor::im2col::ConvGeometry;
use circnn_tensor::Tensor;
use rand::Rng;

use crate::engine::{self, Activation, Arena, Epilogue, LaneMap, Precision, F32};
use crate::error::CircError;
use crate::matrix::{default_batch_threads, BlockCirculantMatrix};
use crate::quantized::{QuantConfig, QuantizedConv2d};

/// Copies one spectra row from the **padded** input-pixel lanes into the
/// compact patch lanes `(b, oy, ox)` of kernel offset `(kh, kw)`. Taps are
/// always in bounds on the padded grid (border taps read the zero-spectrum
/// padding lanes), so there is no boundary branching.
fn gather_row_padded(
    src: &[f32],
    dst: &mut [f32],
    g: &ConvGeometry,
    batch: usize,
    kh: usize,
    kw: usize,
) {
    let s = g.stride;
    let (hp, wp) = (g.height + 2 * g.padding, g.width + 2 * g.padding);
    let (oh, ow) = (g.out_height(), g.out_width());
    let (hpwp, ohw) = (hp * wp, oh * ow);
    for b in 0..batch {
        for oy in 0..oh {
            let dbase = b * ohw + oy * ow;
            let sbase = b * hpwp + (oy * s + kh) * wp + kw;
            if s == 1 {
                dst[dbase..dbase + ow].copy_from_slice(&src[sbase..sbase + ow]);
            } else {
                let drow = &mut dst[dbase..dbase + ow];
                let mut si = sbase;
                for d in drow.iter_mut() {
                    *d = src[si];
                    si += s;
                }
            }
        }
    }
}

/// Adjoint of [`gather_row_padded`]: accumulates compact output-pixel
/// lanes back onto the padded input-pixel lanes they were gathered from
/// (the `∂L/∂x` scatter; adds landing on padding lanes are dropped with
/// them at the end).
fn scatter_add_row_padded(
    src: &[f32],
    dst: &mut [f32],
    g: &ConvGeometry,
    batch: usize,
    kh: usize,
    kw: usize,
) {
    let s = g.stride;
    let (hp, wp) = (g.height + 2 * g.padding, g.width + 2 * g.padding);
    let (oh, ow) = (g.out_height(), g.out_width());
    let (hpwp, ohw) = (hp * wp, oh * ow);
    for b in 0..batch {
        for oy in 0..oh {
            let srow = &src[b * ohw + oy * ow..][..ow];
            let mut di = b * hpwp + (oy * s + kh) * wp + kw;
            for &v in srow {
                dst[di] += v;
                di += s;
            }
        }
    }
}

/// Packs block `j`'s `[k][l_pad]` time-domain plane from a `[B, C, H, W]`
/// input staged onto the **padded** pixel grid: row `t` covers channel
/// `j·k + t` (rows past `channels` are zero), every padded
/// `(sample, pixel)` pair is one lane and padding lanes are zero (their
/// spectra are zero, which is exactly the zero-fill a boundary tap needs).
fn pack_padded_input_block(
    src: &[f32],
    g: &ConvGeometry,
    batch: usize,
    k: usize,
    j: usize,
    plane: &mut [f32],
) {
    let (c_in, h, w, pad) = (g.channels, g.height, g.width, g.padding);
    let (hw, wp) = (h * w, w + 2 * pad);
    let hpwp = (h + 2 * pad) * wp;
    let l_pad = batch * hpwp;
    for t in 0..k {
        let c = j * k + t;
        let prow = &mut plane[t * l_pad..(t + 1) * l_pad];
        if c >= c_in {
            prow.fill(0.0);
            continue;
        }
        if pad > 0 {
            prow.fill(0.0);
        }
        for b in 0..batch {
            for y in 0..h {
                let dst = b * hpwp + (y + pad) * wp + pad;
                prow[dst..dst + w].copy_from_slice(&src[(b * c_in + c) * hw + y * w..][..w]);
            }
        }
    }
}

/// Packs block `j`'s `[k][lanes]` plane from a **compact** `[B, C', …]`
/// feature map (used for the output-gradient spectra): rows past
/// `channels` are zero.
#[allow(clippy::too_many_arguments)]
fn pack_channel_block(
    src: &[f32],
    channels: usize,
    hw: usize,
    batch: usize,
    k: usize,
    j: usize,
    plane: &mut [f32],
) {
    let lanes = batch * hw;
    for t in 0..k {
        let c = j * k + t;
        let prow = &mut plane[t * lanes..(t + 1) * lanes];
        if c >= channels {
            prow.fill(0.0);
            continue;
        }
        for b in 0..batch {
            prow[b * hw..(b + 1) * hw].copy_from_slice(&src[(b * channels + c) * hw..][..hw]);
        }
    }
}

/// Reusable scratch arena for the batched CONV pipeline.
///
/// All buffers are grow-only: after the first pass at a given
/// `(geometry, batch)` every later pass at the same or smaller size
/// performs **zero heap allocations**, so a serving worker keeps one
/// `ConvWorkspace` (via its `InferScratch` slot) and streams batches
/// through it. After a forward pass the arena retains the input-channel
/// spectra planes, which is what lets the backward pass run the
/// weight-gradient reduction without re-running any FFT.
#[derive(Debug, Clone, Default)]
pub struct ConvWorkspace {
    /// The forward pipeline's planes: spectrum slot 0 holds the
    /// input-channel spectra on the padded pixel grid, `[q][bins][B·Hp·Wp]`
    /// (retained across forward → backward); accumulator set 0 holds the
    /// output planes `[p][bins][acc lanes]`, whose lanes, for stride 1,
    /// live on the input row pitch so every kernel offset is one contiguous
    /// MAC run per sample.
    arena: Arena<f32, f32>,
    /// Gathered patch spectra for the current kernel offset,
    /// `[q][bins][B·OH·OW]` — backward only (the weight-gradient reduction
    /// pairs each output-gradient lane with its patch lane; also the
    /// transpose-MAC output). The forward pass has no gather: every stride
    /// rides the fused run-MAC.
    patch_re: Vec<f32>,
    patch_im: Vec<f32>,
    /// Output-gradient spectra, `[p][bins][B·OH·OW]`.
    gs_re: Vec<f32>,
    gs_im: Vec<f32>,
    /// Input-gradient accumulator planes on the padded pixel grid,
    /// `[q][bins][B·Hp·Wp]`.
    gacc_re: Vec<f32>,
    gacc_im: Vec<f32>,
}

/// Geometry-derived sizes shared by the pipeline stages.
struct Dims {
    p: usize,
    q: usize,
    k: usize,
    bins: usize,
    /// Padded input-plane lanes `B·Hp·Wp`.
    l_pad: usize,
    /// Compact output lanes `B·OH·OW`.
    l_out: usize,
    /// Accumulator lanes: for stride 1, `B·((OH−1)·Wp + OW)` (input row
    /// pitch, contiguous per-sample MAC runs); otherwise `l_out`.
    l_acc: usize,
    /// Accumulator row pitch (`Wp` for stride 1, `OW` otherwise).
    arow: usize,
    /// Accumulator per-sample block (`(OH−1)·Wp + OW` or `OH·OW`).
    abatch: usize,
}

impl Dims {
    fn new(p: usize, q: usize, k: usize, g: &ConvGeometry, batch: usize) -> Self {
        let (hp, wp) = (g.height + 2 * g.padding, g.width + 2 * g.padding);
        let (oh, ow) = (g.out_height(), g.out_width());
        let (arow, abatch) = if g.stride == 1 {
            (wp, (oh - 1) * wp + ow)
        } else {
            (ow, oh * ow)
        };
        Dims {
            p,
            q,
            k,
            bins: k / 2 + 1,
            l_pad: batch * hp * wp,
            l_out: batch * oh * ow,
            l_acc: batch * abatch,
            arow,
            abatch,
        }
    }
}

/// Validates a `[B, C, H, W]` inference input against a conv layer's shape
/// and the caller's `[B, P, OH, OW]` output length; returns the geometry
/// and the batch size.
pub(crate) fn infer_geometry(
    input: &Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_len: usize,
) -> Result<(ConvGeometry, usize), CircError> {
    if input.shape().rank() != 4 {
        return Err(CircError::DimensionMismatch {
            expected: 4,
            got: input.shape().rank(),
        });
    }
    let dims = input.dims();
    if dims[1] != in_channels {
        return Err(CircError::DimensionMismatch {
            expected: in_channels,
            got: dims[1],
        });
    }
    let geom = ConvGeometry::new(in_channels, dims[2], dims[3], kernel, stride, padding);
    engine::check_slabs(dims[0], &[(out_len, out_channels * geom.num_patches())])?;
    Ok((geom, dims[0]))
}

/// Plans the fused run-MAC on the padded grid and returns the filled
/// `(shifts, runs)` prefixes. Each kernel offset is the same lane run at a
/// constant plane shift `kh·Wp + kw`. Stride 1: the whole per-sample
/// padded row range is one contiguous `(out_offset, in_base, len)` run.
/// Strided: one run per (sample, output row), input lanes advancing by
/// `stride`. Both buffers are grow-only.
#[inline]
fn plan_runs<'a>(
    d: &Dims,
    g: &ConvGeometry,
    batch: usize,
    shifts: &'a mut Vec<usize>,
    runs: &'a mut Vec<(usize, usize, usize)>,
) -> (&'a [usize], &'a [(usize, usize, usize)]) {
    let (r, s, oh) = (g.kernel, g.stride, g.out_height());
    let wp = g.width + 2 * g.padding;
    let hpwp = (g.height + 2 * g.padding) * wp;
    let run_count = if s == 1 { batch } else { batch * oh };
    if shifts.len() < r * r {
        shifts.resize(r * r, 0);
    }
    if runs.len() < run_count {
        runs.resize(run_count, (0, 0, 0));
    }
    for (o, slot) in shifts[..r * r].iter_mut().enumerate() {
        *slot = (o / r) * wp + (o % r);
    }
    if s == 1 {
        for (b, slot) in runs[..run_count].iter_mut().enumerate() {
            *slot = (b * d.abatch, b * hpwp, d.abatch);
        }
    } else {
        for (i, slot) in runs[..run_count].iter_mut().enumerate() {
            let (b, oy) = (i / oh, i % oh);
            *slot = (
                b * d.abatch + oy * d.arow,
                b * hpwp + oy * s * wp,
                g.out_width(),
            );
        }
    }
    (&shifts[..r * r], &runs[..run_count])
}

/// The last stage of a conv forward: the pure layout copy from the
/// `[block][k][acc lanes]` staging planes into the `[B, P, OH, OW]` slab
/// (the per-channel bias already rode the IFFT's fused epilogue).
#[inline]
fn scatter_staged(
    stage: &[f32],
    d: &Dims,
    g: &ConvGeometry,
    batch: usize,
    out_channels: usize,
    out: &mut [f32],
) {
    let (oh, ow) = (g.out_height(), g.out_width());
    let ohw = oh * ow;
    for i in 0..d.p {
        for t in 0..d.k {
            let pch = i * d.k + t;
            if pch >= out_channels {
                break;
            }
            let srow = &stage[(i * d.k + t) * d.l_acc..][..d.l_acc];
            for b in 0..batch {
                for oy in 0..oh {
                    let dst = &mut out[(b * out_channels + pch) * ohw + oy * ow..][..ow];
                    dst.copy_from_slice(&srow[b * d.abatch + oy * d.arow..][..ow]);
                }
            }
        }
    }
}

/// The conv forward at either precision — the f32 [`ConvWorkspace`] and
/// `QuantizedConv2d` — over `arena`, leaving the input spectra in its
/// slot 0: `[B, C, H, W]` input slab to `[B, P, OH, OW]` output slab, one
/// plane-FFT dispatch per block for the entire batch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_pass<P: Precision>(
    prec: &P,
    arena: &mut Arena<P::Spec, P::Acc>,
    g: &ConvGeometry,
    batch: usize,
    input: &[f32],
    bias: &[f32],
    out_channels: usize,
    out: &mut [f32],
    threads: usize,
) {
    let ((p, q), k) = (prec.blocks(), prec.plan().len());
    let d = Dims::new(p, q, k, g, batch);
    let threads = threads.max(1);
    let ([mut side], s) = arena.lend([(prec, input)], 0, d.l_pad, d.l_acc, threads);
    // Stage 1: channel spectra — one real plane FFT per block column for
    // every padded (sample, pixel) lane at once, parallel over columns.
    // Padding lanes carry zero spectra, which is what makes every later
    // kernel-offset tap branch-free.
    let pack = |j: usize, plane: &mut [f32]| pack_padded_input_block(input, g, batch, k, j, plane);
    let xs = (&mut *side.xs.0, &mut *side.xs.1);
    engine::fft_blocks(prec, threads, q, d.l_pad, xs, s.pr, s.pi, &pack);
    // Stage 2: the fused frequency-domain MAC — every stride. On the
    // padded grid each kernel offset is the same lane run at a constant
    // plane shift (strided convs advance the input lane by `stride` per
    // output lane), so one register-tiled sweep accumulates all r²·q
    // terms per output element (offset-major, block ascending — a fixed
    // order, so results stay bit-stable across thread counts), the
    // x-planes stream once, and the accumulators are written exactly once.
    let (shifts, runs) = plan_runs(&d, g, batch, s.shifts, s.runs);
    let map = LaneMap {
        l_pad: d.l_pad,
        l_acc: d.l_acc,
        shifts,
        runs,
        step: g.stride,
    };
    engine::mac(&mut side, threads, &map);
    // Stage 3: one real plane inverse per output block row with the fused
    // epilogue — the per-channel bias is added to each block right after
    // its IFFT, so the scatter into the [B, P, OH, OW] slab is a pure
    // layout copy.
    let epi = Epilogue {
        bias: Some(bias),
        act: Activation::Identity,
    };
    engine::ifft_sides(&[side], threads, d.l_acc, &epi, s.stage, s.pi);
    scatter_staged(s.stage, &d, g, batch, out_channels, out);
}

impl ConvWorkspace {
    /// An empty arena; buffers are sized lazily by the first pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the backward pass's planes. The forward pass sized the
    /// retained input spectra; inference workspaces (one per serving
    /// worker) never pay for these.
    fn prepare_backward(&mut self, d: &Dims, threads: usize) {
        let a = &mut self.arena;
        engine::grow(&mut a.stage, d.q * d.k * d.l_pad);
        // The weight-gradient IFFT lanes are the q block pairs of a row.
        let lanes = d.l_pad.max(d.l_acc).max(d.q);
        engine::grow(&mut a.pr, threads * d.k * lanes);
        engine::grow(&mut a.pi, threads * d.k * lanes);
        let (patch, gs, gacc) = (
            d.q * d.bins * d.l_out,
            d.p * d.bins * d.l_out,
            d.q * d.bins * d.l_pad,
        );
        for (v, len) in [
            (&mut self.patch_re, patch),
            (&mut self.patch_im, patch),
            (&mut self.gs_re, gs),
            (&mut self.gs_im, gs),
            (&mut self.gacc_re, gacc),
            (&mut self.gacc_im, gacc),
        ] {
            engine::grow(v, len);
        }
    }

    /// The batched f32 forward pass ([`forward_pass`] over the layer's
    /// engines); leaves the input spectra planes in the arena for
    /// [`ConvWorkspace::backward`].
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &mut self,
        engines: &[BlockCirculantMatrix],
        g: &ConvGeometry,
        batch: usize,
        input: &[f32],
        bias: &[f32],
        out_channels: usize,
        out: &mut [f32],
        threads: usize,
    ) {
        let prec = F32 {
            engines,
            forward: true,
        };
        forward_pass(
            &prec,
            &mut self.arena,
            g,
            batch,
            input,
            bias,
            out_channels,
            out,
            threads,
        );
    }

    /// The batched backward pass over the spectra planes a matching
    /// [`ConvWorkspace::forward`] left in the arena: accumulates the
    /// weight/bias gradients and writes `∂L/∂x` as a `[B, C, H, W]` slab.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &mut self,
        engines: &[BlockCirculantMatrix],
        g: &ConvGeometry,
        batch: usize,
        grad: &[f32],
        wgrad: &mut [f32],
        bgrad: &mut [f32],
        out_channels: usize,
        gx: &mut [f32],
        threads: usize,
    ) {
        let e0 = &engines[0];
        let (p, q, k) = (e0.block_rows(), e0.block_cols(), e0.block_size());
        let d = Dims::new(p, q, k, g, batch);
        let threads = threads.max(1);
        self.prepare_backward(&d, threads);
        let (bins, l_pad, l_out) = (d.bins, d.l_pad, d.l_out);
        let plan = e0.plane_plan();
        let ohw = g.out_height() * g.out_width();
        let per = e0.num_parameters();
        // Bias gradient: plain reduction over samples and pixels.
        for b in 0..batch {
            for pch in 0..out_channels {
                let row = &grad[(b * out_channels + pch) * ohw..][..ohw];
                bgrad[pch] += row.iter().sum::<f32>();
            }
        }
        let Self {
            arena,
            patch_re,
            patch_im,
            gs_re,
            gs_im,
            gacc_re,
            gacc_im,
        } = self;
        let Arena {
            xs, stage, pr, pi, ..
        } = arena;
        let xs_re = &xs[0].0[..q * bins * l_pad];
        let xs_im = &xs[0].1[..q * bins * l_pad];
        let patch_re = &mut patch_re[..q * bins * l_out];
        let patch_im = &mut patch_im[..q * bins * l_out];
        let gacc_re = &mut gacc_re[..q * bins * l_pad];
        let gacc_im = &mut gacc_im[..q * bins * l_pad];
        // Output-gradient spectra, block-major like every plane, straight
        // from the FFT: both the weight-gradient reduction and the
        // transpose MAC stream them.
        let fwd = F32 {
            engines,
            forward: true,
        };
        let pack = |j: usize, plane: &mut [f32]| {
            pack_channel_block(grad, out_channels, ohw, batch, k, j, plane)
        };
        let gs = (&mut gs_re[..], &mut gs_im[..]);
        engine::fft_blocks(&fwd, threads, p, l_out, gs, pr, pi, &pack);
        let (gs_re, gs_im) = (&gs_re[..p * bins * l_out], &gs_im[..p * bins * l_out]);
        gacc_re.fill(0.0);
        gacc_im.fill(0.0);
        let run = [(0, 0, l_out)];
        let map = LaneMap {
            l_pad: l_out,
            l_acc: l_out,
            shifts: &[0],
            runs: &run,
            step: 1,
        };
        let r = g.kernel;
        for o in 0..r * r {
            let (kh, kw) = (o / r, o % r);
            let eng = &engines[o];
            // Gather this offset's patch spectra from the retained padded
            // input planes (the same `[q][bins]` rows, compact lanes).
            for row in 0..q * bins {
                let (src_r, src_i) = (
                    &xs_re[row * l_pad..][..l_pad],
                    &xs_im[row * l_pad..][..l_pad],
                );
                gather_row_padded(
                    src_r,
                    &mut patch_re[row * l_out..][..l_out],
                    g,
                    batch,
                    kh,
                    kw,
                );
                gather_row_padded(
                    src_i,
                    &mut patch_im[row * l_out..][..l_out],
                    g,
                    batch,
                    kh,
                    kw,
                );
            }
            // Weight gradient for this offset: frequency-domain reduction
            // over every (sample, pixel) lane, one plane IFFT per block
            // row, parallel over block rows.
            {
                let (pre, pim): (&[f32], &[f32]) = (patch_re, patch_im);
                let accum = &mut wgrad[o * per..(o + 1) * per];
                engine::par_planes(
                    threads,
                    p,
                    q * k,
                    accum,
                    &mut [],
                    k * q,
                    pr,
                    pi,
                    |i0, icount, acc_c, _, pr_c, pi_c| {
                        eng.weight_grad_chunk(
                            l_out, i0, icount, pre, pim, gs_re, gs_im, acc_c, pr_c, pi_c,
                        );
                    },
                );
            }
            // ∂L/∂x: transpose MAC over the gradient spectra (overwriting
            // the patch planes, which this offset no longer needs), then a
            // scatter-add onto the padded input-lane accumulators —
            // parallel over block columns, per-lane order fixed by the
            // offset loop.
            {
                let engs = core::slice::from_ref(eng);
                engine::par_planes(
                    threads,
                    q,
                    bins * l_out,
                    patch_re,
                    patch_im,
                    0,
                    &mut [],
                    &mut [],
                    |j0, jcount, re_c, im_c, _: &mut [f32], _: &mut [f32]| {
                        let x = (gs_re, gs_im);
                        engine::run_mac(engs, false, j0, jcount, &map, x, re_c, im_c);
                    },
                );
                let (t_re, t_im): (&[f32], &[f32]) = (patch_re, patch_im);
                engine::par_planes(
                    threads,
                    q,
                    bins * l_pad,
                    gacc_re,
                    gacc_im,
                    0,
                    &mut [],
                    &mut [],
                    |j0, jcount, ga_re, ga_im, _: &mut [f32], _: &mut [f32]| {
                        for jl in 0..jcount {
                            let j = j0 + jl;
                            for bin in 0..bins {
                                let t_r = &t_re[(j * bins + bin) * l_out..][..l_out];
                                let t_i = &t_im[(j * bins + bin) * l_out..][..l_out];
                                let g_r = &mut ga_re[(jl * bins + bin) * l_pad..][..l_pad];
                                let g_i = &mut ga_im[(jl * bins + bin) * l_pad..][..l_pad];
                                scatter_add_row_padded(t_r, g_r, g, batch, kh, kw);
                                scatter_add_row_padded(t_i, g_i, g, batch, kh, kw);
                            }
                        }
                    },
                );
            }
        }
        // Materialize ∂L/∂x: one real plane inverse per block column over
        // the padded grid, then the scatter into the [B, C, H, W] slab
        // (padding lanes are dropped here).
        let gacc = (&gacc_re[..], &gacc_im[..]);
        let copy = |j: usize, re: &mut [f32], im: &mut [f32]| fwd.fill(j, gacc, re, im, false);
        engine::ifft_epilogue_blocks(plan, threads, q, l_pad, &Epilogue::NONE, stage, pi, &copy);
        let (c_in, h, w, pad) = (g.channels, g.height, g.width, g.padding);
        let (hw, wp) = (h * w, w + 2 * pad);
        let hpwp = (h + 2 * pad) * wp;
        for j in 0..q {
            for t in 0..k {
                let c = j * k + t;
                if c >= c_in {
                    break;
                }
                let srow = &stage[(j * k + t) * l_pad..][..l_pad];
                for b in 0..batch {
                    for y in 0..h {
                        gx[(b * c_in + c) * hw + y * w..][..w]
                            .copy_from_slice(&srow[b * hpwp + (y + pad) * wp + pad..][..w]);
                    }
                }
            }
        }
    }
}

/// A 2-D convolution layer whose filter bank is circulant across the
/// channel dimensions, with block size `k`.
///
/// # Examples
///
/// ```
/// use circnn_core::CirculantConv2d;
/// use circnn_nn::Layer;
/// use circnn_tensor::{init::seeded_rng, Tensor};
///
/// # fn main() -> Result<(), circnn_core::CircError> {
/// let mut rng = seeded_rng(0);
/// // 16→32 channels, 3×3 kernel, circulant blocks of 16 across channels.
/// let mut conv = CirculantConv2d::new(&mut rng, 16, 32, 3, 1, 1, 16)?;
/// let y = conv.forward_batch(&Tensor::ones(&[1, 16, 8, 8]));
/// assert_eq!(y.dims(), &[1, 32, 8, 8]);
/// // 16× fewer filter parameters than a dense conv.
/// assert!((conv.compression_ratio() - 16.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct CirculantConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// One `P×C` block-circulant operator per kernel offset (`r²` total),
    /// offset-major index `kh·r + kw`.
    engines: Vec<BlockCirculantMatrix>,
    /// Canonical trainable weights: `r²` slices of `p·q·k` each.
    weights: Vec<f32>,
    bias: Vec<f32>,
    wgrad: Vec<f32>,
    bgrad: Vec<f32>,
    dirty: bool,
    /// Training-path plane arena; its retained input spectra (plus
    /// `train_ctx`) are what `backward_batch` consumes.
    ws: ConvWorkspace,
    /// `(geometry, batch)` of the spectra planes `ws` currently retains.
    train_ctx: Option<(ConvGeometry, usize)>,
    training: bool,
}

impl CirculantConv2d {
    /// Creates a layer with He-style random circulant filters and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] for a non-power-of-two block size or zero
    /// dimensions.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        block: usize,
    ) -> Result<Self, CircError> {
        if kernel == 0 || stride == 0 {
            return Err(CircError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        let fan_in = in_channels * kernel * kernel;
        let mut engines = Vec::with_capacity(kernel * kernel);
        let mut weights = Vec::new();
        for _ in 0..kernel * kernel {
            // He variance over the full fan-in C·r², not just C.
            let mut e = BlockCirculantMatrix::zeros(out_channels, in_channels, block)?;
            let std = (2.0 / fan_in as f32).sqrt();
            let w = circnn_tensor::init::normal(rng, &[e.num_parameters()], 0.0, std);
            e.set_weights(w.data())?;
            weights.extend_from_slice(e.weights());
            engines.push(e);
        }
        let per_engine = engines[0].num_parameters();
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            engines,
            wgrad: vec![0.0; kernel * kernel * per_engine],
            weights,
            bias: vec![0.0; out_channels],
            bgrad: vec![0.0; out_channels],
            dirty: false,
            ws: ConvWorkspace::new(),
            train_ctx: None,
            training: true,
        })
    }

    /// Input channel count `C`.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count `P`.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Circulant block size `k`.
    pub fn block_size(&self) -> usize {
        self.engines[0].block_size()
    }

    /// Filter-parameter compression ratio versus a dense conv layer:
    /// `C·P / (p·q·k)` (the `r²` factor cancels).
    pub fn compression_ratio(&self) -> f64 {
        self.engines[0].compression_ratio()
    }

    /// Parameters stored per kernel offset.
    fn per_engine(&self) -> usize {
        self.engines[0].num_parameters()
    }

    /// Materializes the lowered dense weight matrix `[P, C·r²]` in im2col
    /// layout (channel fastest) — directly loadable into
    /// `circnn_nn::Conv2d::from_weights` for equivalence testing.
    pub fn to_dense_lowered(&mut self) -> Tensor {
        self.sync();
        let (c, p, r) = (self.in_channels, self.out_channels, self.kernel);
        let patch = c * r * r;
        let mut lowered = vec![0.0f32; p * patch];
        for (o, engine) in self.engines.iter().enumerate() {
            let dense = engine.to_dense(); // [P, C]
            for pi in 0..p {
                for ci in 0..c {
                    lowered[pi * patch + o * c + ci] = dense.at(&[pi, ci]);
                }
            }
        }
        Tensor::from_vec(lowered, &[p, patch])
    }

    fn sync(&mut self) {
        if self.dirty {
            let per = self.per_engine();
            for (o, engine) in self.engines.iter_mut().enumerate() {
                engine
                    .set_weights(&self.weights[o * per..(o + 1) * per])
                    .expect("weight slice length fixed at construction");
            }
            self.dirty = false;
        }
    }

    /// Quantizes the layer for 16-bit fixed-point serving: all `r²` kernel
    /// offsets' weight spectra as i16 codes sharing per-block-row scales
    /// (every offset accumulates into the same output row), the bias fused
    /// into the dequantizing IFFT epilogue.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::QuantOverflow`] if `cfg` cannot guarantee
    /// overflow-free i32 accumulation over this layer's `q·r²` fused
    /// terms.
    pub fn quantize(&mut self, cfg: QuantConfig) -> Result<QuantizedConv2d, CircError> {
        self.sync();
        QuantizedConv2d::from_engines(
            &self.engines,
            &self.bias,
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
            cfg,
        )
    }

    fn geometry_for(&self, dims: &[usize]) -> ConvGeometry {
        assert_eq!(dims[0], self.in_channels, "input channel mismatch");
        ConvGeometry::new(
            self.in_channels,
            dims[1],
            dims[2],
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Read-only batched inference into a caller-provided `[B, P, OH, OW]`
    /// buffer with an explicit worker thread count — the zero-allocation
    /// serving core ([`Layer::infer_batch`] wraps it with a fresh output
    /// and [`crate::default_batch_threads`]). Results are bit-identical
    /// for every `threads` value. Requires fresh engine spectra
    /// (`set_training(false)` syncs them; serving stacks verify this at
    /// model registration via `Layer::infer_ready`).
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] if `input` is not a
    /// non-empty `[B, C, H, W]` tensor or `out` is not `B·P·OH·OW` long.
    pub fn infer_batch_into(
        &self,
        input: &Tensor,
        ws: &mut ConvWorkspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        let (geom, batch) = infer_geometry(
            input,
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
            out.len(),
        )?;
        ws.forward(
            &self.engines,
            &geom,
            batch,
            input.data(),
            &self.bias,
            self.out_channels,
            out,
            threads,
        );
        Ok(())
    }
}

impl Layer for CirculantConv2d {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        assert!(batch > 0, "empty batch");
        assert_eq!(
            input.shape().rank(),
            4,
            "conv batch input must be [B, C, H, W]"
        );
        let geom = self.geometry_for(&input.dims()[1..]);
        self.sync();
        let mut out = vec![0.0f32; batch * self.out_channels * geom.num_patches()];
        self.ws.forward(
            &self.engines,
            &geom,
            batch,
            input.data(),
            &self.bias,
            self.out_channels,
            &mut out,
            default_batch_threads(),
        );
        // The retained spectra planes only matter to a backward pass; in
        // inference mode nothing promises them to anyone.
        self.train_ctx = self.training.then_some((geom, batch));
        Tensor::from_vec(
            out,
            &[
                batch,
                self.out_channels,
                geom.out_height(),
                geom.out_width(),
            ],
        )
    }

    fn backward_batch(&mut self, _input: &Tensor, grad_output: &Tensor) -> Tensor {
        let (geom, batch) = self
            .train_ctx
            .expect("backward_batch called before forward_batch (or in inference mode)");
        assert_eq!(
            grad_output.dims(),
            &[
                batch,
                self.out_channels,
                geom.out_height(),
                geom.out_width()
            ],
            "conv grad shape mismatch"
        );
        self.sync();
        let mut gx = vec![0.0f32; batch * geom.input_len()];
        self.ws.backward(
            &self.engines,
            &geom,
            batch,
            grad_output.data(),
            &mut self.wgrad,
            &mut self.bgrad,
            self.out_channels,
            &mut gx,
            default_batch_threads(),
        );
        Tensor::from_vec(gx, &[batch, self.in_channels, geom.height, geom.width])
    }

    fn infer_batch(&self, input: &Tensor, scratch: &mut circnn_nn::InferScratch) -> Tensor {
        // The serving path cannot refresh the spectra cache (`&self`);
        // `set_training(false)` syncs it before the network is shared, and
        // `SequentialModel` verifies `infer_ready` at registration — so a
        // stale cache here is a harness bug, not a request-time condition.
        debug_assert!(
            !self.dirty,
            "CirculantConv2d spectra cache is stale; call set_training(false) \
             after the last optimizer step before serving"
        );
        let batch = input.dims()[0];
        assert!(batch > 0, "empty batch");
        assert_eq!(
            input.shape().rank(),
            4,
            "conv batch input must be [B, C, H, W]"
        );
        let geom = self.geometry_for(&input.dims()[1..]);
        let mut out = vec![0.0f32; batch * self.out_channels * geom.num_patches()];
        let ws: &mut ConvWorkspace = scratch.slot();
        ws.forward(
            &self.engines,
            &geom,
            batch,
            input.data(),
            &self.bias,
            self.out_channels,
            &mut out,
            default_batch_threads(),
        );
        Tensor::from_vec(
            out,
            &[
                batch,
                self.out_channels,
                geom.out_height(),
                geom.out_width(),
            ],
        )
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn infer_ready(&self) -> bool {
        !self.dirty
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
        if !training {
            self.train_ctx = None;
            // Entering inference mode pins the spectra caches fresh so the
            // read-only `infer_batch` path can serve from them.
            self.sync();
        }
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.weights, &mut self.wgrad);
        visitor(&mut self.bias, &mut self.bgrad);
        self.dirty = true;
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "CirculantConv2d"
    }
}

impl core::fmt::Debug for CirculantConv2d {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "CirculantConv2d({}→{}, r={}, k={}, {} params)",
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.block_size(),
            self.weights.len() + self.bias.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_nn::Conv2d;
    use circnn_tensor::init::seeded_rng;

    /// The key equivalence: a CirculantConv2d must produce *exactly* the
    /// same output as a dense Conv2d loaded with its materialized filters.
    #[test]
    fn forward_matches_equivalent_dense_conv() {
        let mut rng = seeded_rng(1);
        let mut circ = CirculantConv2d::new(&mut rng, 4, 8, 3, 1, 1, 4).unwrap();
        let lowered = circ.to_dense_lowered();
        let mut dense = Conv2d::from_weights(lowered, vec![0.0; 8], 4, 3, 1, 1);
        let x = circnn_tensor::init::uniform(&mut rng, &[2, 4, 6, 6], -1.0, 1.0);
        let yc = circ.forward_batch(&x);
        let yd = dense.forward_batch(&x);
        assert_eq!(yc.dims(), yd.dims());
        for (a, b) in yc.data().iter().zip(yd.data()) {
            assert!((a - b).abs() < 3e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn strided_and_unpadded_variants_match_dense() {
        for (stride, padding) in [(2usize, 0usize), (1, 0), (2, 1)] {
            let mut rng = seeded_rng(2 + stride as u64 + padding as u64);
            let mut circ = CirculantConv2d::new(&mut rng, 2, 4, 3, stride, padding, 2).unwrap();
            let lowered = circ.to_dense_lowered();
            let mut dense = Conv2d::from_weights(lowered, vec![0.0; 4], 2, 3, stride, padding);
            let x = circnn_tensor::init::uniform(&mut rng, &[1, 2, 7, 7], -1.0, 1.0);
            let yc = circ.forward_batch(&x);
            let yd = dense.forward_batch(&x);
            for (a, b) in yc.data().iter().zip(yd.data()) {
                assert!((a - b).abs() < 3e-4, "stride {stride} pad {padding}");
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        use circnn_nn::Layer as _;
        let mut rng = seeded_rng(3);
        let mut conv = CirculantConv2d::new(&mut rng, 2, 4, 3, 1, 1, 2).unwrap();
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 2, 4, 4], -1.0, 1.0);
        let cw = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
                .collect()
        };
        let out = conv.forward_batch(&x);
        let c = cw(out.len());
        let grad_out = Tensor::from_vec(c.clone(), out.dims());
        conv.zero_grads();
        let gx = conv.backward_batch(&x, &grad_out);
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        conv.visit_params(&mut |_, g| analytic.push(g.to_vec()));
        let eps = 1e-2f32;
        let loss = |conv: &mut CirculantConv2d, x: &Tensor| -> f32 {
            let out = conv.forward_batch(x);
            out.data().iter().zip(&c).map(|(&y, &w)| y * w).sum()
        };
        // Input gradient (subsample for speed).
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            assert!(
                (gx.data()[i] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "input grad {i}: {} vs {numeric}",
                gx.data()[i]
            );
        }
        // Parameter gradients (subsample).
        for group in 0..analytic.len() {
            let len = analytic[group].len();
            for idx in (0..len).step_by(if group == 0 { 5 } else { 1 }) {
                let nudge = |delta: f32, conv: &mut CirculantConv2d| {
                    let mut g = 0;
                    conv.visit_params(&mut |p, _| {
                        if g == group {
                            p[idx] += delta;
                        }
                        g += 1;
                    });
                };
                nudge(eps, &mut conv);
                let lp = loss(&mut conv, &x);
                nudge(-2.0 * eps, &mut conv);
                let lm = loss(&mut conv, &x);
                nudge(eps, &mut conv);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[group][idx];
                assert!(
                    (a - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                    "param grad group {group} idx {idx}: {a} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn compression_ratio_is_channel_blocked() {
        let mut rng = seeded_rng(4);
        let conv = CirculantConv2d::new(&mut rng, 64, 128, 3, 1, 1, 32).unwrap();
        assert!((conv.compression_ratio() - 32.0).abs() < 1e-9);
        use circnn_nn::Layer as _;
        // Dense: 128·64·9 = 73728 weights; circulant: 9·(4·2·32) = 2304.
        assert_eq!(conv.param_count(), 9 * (128 / 32) * (64 / 32) * 32 + 128);
    }

    #[test]
    fn single_input_channel_degenerates_gracefully() {
        // C = 1 (LeNet-5 conv1): circulant over a 1-wide dimension still works.
        let mut rng = seeded_rng(5);
        let mut conv = CirculantConv2d::new(&mut rng, 1, 4, 3, 1, 0, 1).unwrap();
        use circnn_nn::Layer as _;
        let y = conv.forward_batch(&Tensor::ones(&[1, 1, 5, 5]));
        assert_eq!(y.dims(), &[1, 4, 3, 3]);
    }

    #[test]
    fn optimizer_round_trip_updates_output() {
        use circnn_nn::{Layer as _, Optimizer, Sgd};
        let mut rng = seeded_rng(6);
        let mut conv = CirculantConv2d::new(&mut rng, 2, 2, 3, 1, 1, 2).unwrap();
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y0 = conv.forward_batch(&x).data().to_vec();
        conv.zero_grads();
        conv.backward_batch(&x, &Tensor::ones(&[1, 2, 4, 4]));
        Sgd::new(0.1, 0.0).step(&mut conv);
        let y1 = conv.forward_batch(&x).data().to_vec();
        assert_ne!(y0, y1);
    }

    /// The plane pipeline must treat each sample as an independent lane:
    /// a sample's output is bit-identical whether it runs alone (B = 1) or
    /// inside a wider batch — the batch-composition invariance serving
    /// relies on.
    #[test]
    fn batched_forward_is_composition_invariant_bitwise() {
        let mut rng = seeded_rng(7);
        let mut conv = CirculantConv2d::new(&mut rng, 3, 5, 3, 1, 1, 2).unwrap();
        conv.set_training(false);
        let batch = 4;
        let x = circnn_tensor::init::uniform(&mut rng, &[batch, 3, 6, 6], -1.0, 1.0);
        let mut scratch = circnn_nn::InferScratch::new();
        let y = conv.infer_batch(&x, &mut scratch);
        let per_out = 5 * 6 * 6;
        for b in 0..batch {
            let xb = x.index_axis0(b).reshape(&[1, 3, 6, 6]);
            let yb = conv.infer_batch(&xb, &mut scratch);
            assert_eq!(
                &y.data()[b * per_out..(b + 1) * per_out],
                yb.data(),
                "sample {b} diverged across batch compositions"
            );
        }
    }

    /// Serial and threaded runs of the plane pipeline are bit-identical.
    #[test]
    fn threaded_conv_matches_serial_bitwise() {
        let mut rng = seeded_rng(8);
        let mut conv = CirculantConv2d::new(&mut rng, 4, 6, 3, 1, 1, 2).unwrap();
        conv.set_training(false);
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 4, 5, 5], -1.0, 1.0);
        let n_out = 3 * 6 * 5 * 5;
        let mut ws1 = ConvWorkspace::new();
        let mut ws4 = ConvWorkspace::new();
        let mut y1 = vec![0.0f32; n_out];
        let mut y4 = vec![0.0f32; n_out];
        conv.infer_batch_into(&x, &mut ws1, &mut y1, 1).unwrap();
        conv.infer_batch_into(&x, &mut ws4, &mut y4, 4).unwrap();
        assert_eq!(y1, y4);
    }

    /// Serial and threaded runs of the backward plane pipeline are
    /// bit-identical (the forward counterpart is covered above; this
    /// drives ConvWorkspace::backward's chunked dispatches directly).
    #[test]
    fn threaded_conv_backward_matches_serial_bitwise() {
        for stride in [1usize, 2] {
            let mut rng = seeded_rng(10 + stride as u64);
            let make = |rng: &mut _| CirculantConv2d::new(rng, 4, 6, 3, stride, 1, 2).unwrap();
            let mut c1 = make(&mut rng);
            let mut rng2 = seeded_rng(10 + stride as u64);
            let mut c4 = make(&mut rng2);
            let x = circnn_tensor::init::uniform(&mut rng, &[3, 4, 5, 5], -1.0, 1.0);
            let y = c1.forward_batch(&x);
            let _ = c4.forward_batch(&x);
            let gout = circnn_tensor::init::uniform(&mut rng, y.dims(), -1.0, 1.0);
            let run = |conv: &mut CirculantConv2d, threads: usize| {
                conv.zero_grads();
                let (geom, batch) = conv.train_ctx.expect("forward ran");
                let mut gx = vec![0.0f32; batch * geom.input_len()];
                let CirculantConv2d {
                    engines,
                    ws,
                    wgrad,
                    bgrad,
                    out_channels,
                    ..
                } = conv;
                ws.backward(
                    engines,
                    &geom,
                    batch,
                    gout.data(),
                    wgrad,
                    bgrad,
                    *out_channels,
                    &mut gx,
                    threads,
                );
                (gx, wgrad.clone(), bgrad.clone())
            };
            let (gx1, wg1, bg1) = run(&mut c1, 1);
            let (gx4, wg4, bg4) = run(&mut c4, 4);
            assert_eq!(
                gx1, gx4,
                "stride {stride}: threaded ∂L/∂x must be bit-identical"
            );
            assert_eq!(
                wg1, wg4,
                "stride {stride}: threaded ∂L/∂w must be bit-identical"
            );
            assert_eq!(
                bg1, bg4,
                "stride {stride}: threaded ∂L/∂b must be bit-identical"
            );
        }
    }

    #[test]
    fn infer_batch_into_validates_shapes() {
        let mut rng = seeded_rng(9);
        let conv = CirculantConv2d::new(&mut rng, 2, 2, 3, 1, 1, 2).unwrap();
        let mut ws = ConvWorkspace::new();
        let x = Tensor::zeros(&[2, 2, 4, 4]);
        let mut short = vec![0.0f32; 3];
        assert!(conv.infer_batch_into(&x, &mut ws, &mut short, 1).is_err());
        let bad_rank = Tensor::zeros(&[2, 4, 4]);
        let mut out = vec![0.0f32; 2 * 2 * 4 * 4];
        assert!(conv
            .infer_batch_into(&bad_rank, &mut ws, &mut out, 1)
            .is_err());
    }
}
