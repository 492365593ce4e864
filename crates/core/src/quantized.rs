//! 16-bit fixed-point spectral inference (paper §4.2, Fig. 12).
//!
//! CirCNN's hardware claim is that 12–16-bit fixed-point FFT arithmetic
//! loses almost nothing while halving the datapath: this module is that
//! claim as a serving path. A [`QuantizedOperator`] holds **i16 resident
//! weight spectra** with per-block-row scales (calibrated through
//! [`circnn_quant::fake_quantize`], so the scale is exactly the
//! `QuantStats` scale the calibration sweeps report). The fixed point is a
//! datapath width of the one spectral-plane pipeline, not a second
//! pipeline: each type here runs its f32 family's pipeline — the FC slab
//! apply, the conv forward, the recurrent step — at the engine's i16
//! precision, which differs from f32 in exactly three places, each fused
//! into a pass the f32 path already pays:
//!
//! 1. **Copy-out** — stage A's plane FFT writes its half-spectrum rows as
//!    interleaved `(re, im)` i16 code pairs; there is no f32 spectra store.
//!    Imaginary codes at the DC/Nyquist real bins are forced to zero.
//! 2. **MAC** — the register-tiled `i16×i16 → i32` sweep, streaming half
//!    the bytes per weight plane through `_mm_madd_epi16`-style SIMD
//!    kernels chosen at runtime. Integer accumulation in a fixed order
//!    makes the path bitwise stable across thread counts, batch
//!    compositions *and* instruction sets.
//! 3. **Fill** — the per-block-row scale multiplies each i32 accumulator
//!    during the copy into the inverse transform's input; bias and
//!    activation fuse into each block's inverse exactly as in the f32 path.
//!
//! What this module itself holds is the calibration, the accessors, the
//! error bounds and the serialization views.
//!
//! Accumulation safety is a **registration-time contract**, not a runtime
//! check: [`QuantConfig`] declares the code widths and the input range,
//! and construction fails with [`CircError::QuantOverflow`] if the
//! worst-case sum of pairwise code products could exceed `i32`. The
//! defaults (12-bit weights, 11-bit inputs) keep the headline geometries
//! comfortably inside i32 while staying above the paper's 12-bit accuracy
//! knee; [`QuantizedOperator::error_bound`] turns the formats into a
//! max-abs-error tolerance against the f32 engine.

use circnn_fft::fixed::QFormat;
use circnn_fft::BatchFftPlan;
use circnn_tensor::Tensor;

use crate::engine::{self, Activation, Arena, Epilogue, I16};
use crate::error::CircError;
use crate::matrix::{slab_apply, BlockCirculantMatrix};
use crate::simd::{madd_pair, unpack_pair};

/// Fixed-point formats and the declared input range of a quantized
/// operator.
///
/// `weight_format`/`input_format` give the symmetric code widths (only
/// `bits` matters for the dynamic ranges — scales are calibrated, not
/// `2^-frac`); `input_range` is the tenant's declared max-abs input value,
/// from which the input spectrum scale `k·range / max_code` follows
/// (`|X[bin]| ≤ k·range` for an unnormalized length-`k` DFT of bounded
/// inputs). Out-of-range inputs saturate instead of wrapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Weight-spectrum code format (default 12 bits — the paper's
    /// accuracy knee is at 12–16).
    pub weight_format: QFormat,
    /// Input-spectrum code format (default 11 bits).
    pub input_format: QFormat,
    /// Declared max-abs input value the scales are derived for.
    pub input_range: f32,
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self {
            weight_format: QFormat::new(12, 11),
            input_format: QFormat::new(11, 10),
            input_range: 1.0,
        }
    }
}

impl QuantConfig {
    /// The i32-overflow admission check: `terms` block products, each
    /// contributing two worst-case code products per accumulator
    /// component, must fit `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::QuantOverflow`] if the worst case exceeds
    /// `i32::MAX`.
    pub fn check_accumulation(&self, terms: usize) -> Result<(), CircError> {
        let cw = self.weight_format.max_code() as i128;
        let cx = self.input_format.max_code() as i128;
        let worst = 2 * cw * cx * terms as i128;
        if worst > i128::from(i32::MAX) {
            return Err(CircError::QuantOverflow {
                terms,
                weight_bits: self.weight_format.bits(),
                input_bits: self.input_format.bits(),
            });
        }
        Ok(())
    }

    /// Input spectrum quantization step for block size `k`.
    fn x_step(&self, k: usize) -> f32 {
        k as f32 * self.input_range / self.input_format.max_code() as f32
    }

    /// Conservative max-abs-error bound versus the f32 engine for inputs
    /// within the declared range, for one accumulator summing `terms` block
    /// products under the fused per-block-row dequant scales `dq`
    /// (`w_step·x_step`): per-term quantization error
    /// `w_step·x_step·(C_w + C_x + ½)` per spectral component, summed over
    /// the terms and carried through the normalized inverse transform
    /// (whose coefficient mass is 1), with a 2× margin for the f32 FFT
    /// round-off and the i32→f32 dequant rounding.
    fn error_bound(&self, terms: usize, dq: &[f32]) -> f32 {
        let cw = self.weight_format.max_code() as f32;
        let cx = self.input_format.max_code() as f32;
        let dq_max = dq.iter().cloned().fold(0.0f32, f32::max);
        2.0 * terms as f32 * dq_max * (cw + cx + 1.0)
    }

    /// The i16 datapath of one input side: `codes` over `q` block columns,
    /// inputs quantized at this config's input width and `step`, outputs
    /// dequantized by `dq`.
    fn datapath<'a>(
        &self,
        codes: &'a [Vec<i32>],
        q: usize,
        plan: &'a BatchFftPlan<f32>,
        step: f32,
        dq: &'a [f32],
    ) -> I16<'a> {
        I16 {
            codes,
            q,
            plan,
            inv_step: 1.0 / step,
            max_code: self.input_format.max_code() as i32,
            dq,
        }
    }
}

/// Calibrates one shared per-block-row scale over every plane in `planes`
/// (the conv case: all `r²` kernel offsets accumulate into row `i`'s
/// accumulator, so they must share its scale) and emits the resident code
/// planes. The f32 spectra and the codes share the `[bin][q][p]` layout,
/// so each code lands at its spectrum's index. Row scales come from
/// [`circnn_quant::fake_quantize`] on the row's gathered spectra — its
/// `QuantStats::scale` is exactly `max_abs / max_code`. Imaginary codes at
/// DC/Nyquist are forced to zero so the MAC needs no real-bin branch.
fn quantize_weight_planes(
    planes: &[(&[f32], &[f32])],
    p: usize,
    q: usize,
    bins: usize,
    k: usize,
    format: QFormat,
) -> (Vec<f32>, Vec<Vec<i32>>) {
    let max_code = format.max_code() as i32;
    let mut w_step = vec![1.0f32; p];
    let mut codes: Vec<Vec<i32>> = planes.iter().map(|_| vec![0; bins * p * q]).collect();
    let mut row = Vec::with_capacity(planes.len() * 2 * bins * q);
    for i in 0..p {
        row.clear();
        for &(wre, wim) in planes {
            for bin in 0..bins {
                for j in 0..q {
                    let widx = (bin * q + j) * p + i;
                    row.push(wre[widx]);
                    row.push(wim[widx]);
                }
            }
        }
        let stats = circnn_quant::fake_quantize(&mut row, format.bits());
        w_step[i] = stats.scale;
        let inv = 1.0 / stats.scale;
        for (c, &(wre, wim)) in codes.iter_mut().zip(planes) {
            for bin in 0..bins {
                let real_bin = bin == 0 || (k >= 2 && bin == bins - 1);
                for j in 0..q {
                    let widx = (bin * q + j) * p + i;
                    let re = engine::quantize_code(wre[widx], inv, max_code);
                    let im = if real_bin {
                        0
                    } else {
                        engine::quantize_code(wim[widx], inv, max_code)
                    };
                    c[widx] = madd_pair(re, im);
                }
            }
        }
    }
    (w_step, codes)
}

/// The resident code plane of split `[bin][p][q]` `(re, im)` code planes
/// (the stream layout): `[bin][q][p]` [`madd_pair`] words, which both MAC
/// sweep shapes read.
fn pack_codes(re: &[i16], im: &[i16], p: usize, q: usize) -> Vec<i32> {
    let mut words = vec![0; re.len()];
    for (idx, (&r, &i)) in re.iter().zip(im).enumerate() {
        let (bin, row, j) = (idx / (p * q), idx / q % p, idx % q);
        words[(bin * q + j) * p + row] = madd_pair(r, i);
    }
    words
}

/// The inverse of [`pack_codes`].
fn unpack_codes(words: &[i32], p: usize, q: usize) -> (Vec<i16>, Vec<i16>) {
    let (mut re, mut im) = (vec![0; words.len()], vec![0; words.len()]);
    for (idx, (r, i)) in re.iter_mut().zip(&mut im).enumerate() {
        let (bin, row, j) = (idx / (p * q), idx / q % p, idx % q);
        (*r, *i) = unpack_pair(words[(bin * q + j) * p + row]);
    }
    (re, im)
}

/// Reusable scratch arena for the quantized pipelines: the engine's plane
/// arena at i16 spectra and i32 accumulators (two sides for the recurrent
/// cell) plus the f32 FFT staging. Grow-only, like every other workspace —
/// a serving worker keeps one and streams batches through it
/// allocation-free once warm.
#[derive(Debug, Clone, Default)]
pub struct QuantWorkspace {
    arena: Arena<i16, i32>,
}

impl QuantWorkspace {
    /// An empty arena; buffers are sized lazily by the first pass.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A block-circulant operator resident as i16 weight-spectrum codes with
/// per-block-row scales — the quantized counterpart of
/// [`BlockCirculantMatrix`] for the read-only serving path.
#[derive(Debug, Clone)]
pub struct QuantizedOperator {
    m: usize,
    n: usize,
    k: usize,
    q: usize,
    /// Weight code words, `[bin][q][p]` (see [`pack_codes`]).
    wq: Vec<i32>,
    /// Per-block-row weight scale (`p` entries).
    w_step: Vec<f32>,
    /// Input spectrum scale.
    x_step: f32,
    /// Fused per-block-row dequant scale `w_step[i] · x_step`.
    dq: Vec<f32>,
    cfg: QuantConfig,
    plan: BatchFftPlan<f32>,
}

impl QuantizedOperator {
    /// Quantizes a (spectra-fresh) f32 operator.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::QuantOverflow`] if `cfg` cannot guarantee
    /// overflow-free i32 accumulation over the operator's `q` block
    /// columns, or an FFT plan error for a bad block size.
    pub fn from_operator(op: &BlockCirculantMatrix, cfg: QuantConfig) -> Result<Self, CircError> {
        let (p, q, k, bins) = (op.block_rows(), op.block_cols(), op.block_size(), op.bins());
        cfg.check_accumulation(q)?;
        let (w_step, mut codes) =
            quantize_weight_planes(&[op.wplanes()], p, q, bins, k, cfg.weight_format);
        let wq = codes.pop().expect("one plane in, one plane out");
        Self::assemble(op.rows(), op.cols(), k, cfg, w_step, wq)
    }

    /// Rebuilds an operator from serialized parts, re-running the shape
    /// and overflow validation (deserialization funnels through here so a
    /// stream whose formats would overflow fails **typed** at load).
    ///
    /// # Errors
    ///
    /// Returns [`CircError::QuantOverflow`] for overflow-capable formats,
    /// [`CircError::BadWeightLength`] / [`CircError::DimensionMismatch`]
    /// for mis-sized code or scale buffers, and FFT errors for a bad
    /// block size.
    pub fn from_raw_parts(
        m: usize,
        n: usize,
        k: usize,
        cfg: QuantConfig,
        w_step: Vec<f32>,
        wq_re: Vec<i16>,
        wq_im: Vec<i16>,
    ) -> Result<Self, CircError> {
        if k == 0 || !k.is_power_of_two() {
            return Err(CircError::BadBlockSize(k));
        }
        if m == 0 || n == 0 {
            return Err(CircError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        let (p, q) = (m.div_ceil(k), n.div_ceil(k));
        let bins = k / 2 + 1;
        cfg.check_accumulation(q)?;
        let want = bins * p * q;
        if wq_re.len() != want || wq_im.len() != want {
            return Err(CircError::BadWeightLength {
                expected: want,
                got: if wq_re.len() != want {
                    wq_re.len()
                } else {
                    wq_im.len()
                },
            });
        }
        if w_step.len() != p {
            return Err(CircError::DimensionMismatch {
                expected: p,
                got: w_step.len(),
            });
        }
        Self::assemble(m, n, k, cfg, w_step, pack_codes(&wq_re, &wq_im, p, q))
    }

    fn assemble(
        m: usize,
        n: usize,
        k: usize,
        cfg: QuantConfig,
        w_step: Vec<f32>,
        wq: Vec<i32>,
    ) -> Result<Self, CircError> {
        let x_step = cfg.x_step(k);
        let dq = w_step.iter().map(|&s| s * x_step).collect();
        Ok(Self {
            m,
            n,
            k,
            q: n.div_ceil(k),
            wq,
            w_step,
            x_step,
            dq,
            cfg,
            plan: BatchFftPlan::new(k)?,
        })
    }

    /// Output dimension `m`.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Input dimension `n`.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Circulant block size `k`.
    pub fn block_size(&self) -> usize {
        self.k
    }

    /// The quantization configuration this operator was built with.
    pub fn config(&self) -> &QuantConfig {
        &self.cfg
    }

    /// Per-block-row weight scales (`⌈m/k⌉` entries).
    pub fn weight_steps(&self) -> &[f32] {
        &self.w_step
    }

    /// The code planes in the stream layout (`[bin][p][q]`, split re/im).
    pub(crate) fn code_planes(&self) -> (Vec<i16>, Vec<i16>) {
        unpack_codes(&self.wq, self.m.div_ceil(self.k), self.q)
    }

    /// Conservative max-abs-error bound versus the f32 engine for inputs
    /// within the declared range (the operator accumulates its `q` block
    /// products).
    pub fn error_bound(&self) -> f32 {
        self.cfg.error_bound(self.q, &self.dq)
    }

    /// Read-only batched apply into a caller-provided `[batch, m]` slab.
    /// Bit-identical across thread counts, batch compositions and (integer
    /// arithmetic end to end between the FFTs) instruction sets.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong slab sizes or a
    /// zero batch.
    pub fn infer_batch_into(
        &self,
        src: &[f32],
        batch: usize,
        ws: &mut QuantWorkspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        self.apply(src, batch, ws, out, threads, &Epilogue::NONE)
    }

    /// The validated apply: the FC slab pipeline on the i16 datapath.
    pub(crate) fn apply(
        &self,
        src: &[f32],
        batch: usize,
        ws: &mut QuantWorkspace,
        out: &mut [f32],
        threads: usize,
        epi: &Epilogue<'_>,
    ) -> Result<(), CircError> {
        engine::check_slabs(batch, &[(src.len(), self.n), (out.len(), self.m)])?;
        let codes = core::slice::from_ref(&self.wq);
        let dp = self
            .cfg
            .datapath(codes, self.q, &self.plan, self.x_step, &self.dq);
        slab_apply(&mut ws.arena, 0, [(&dp, src)], batch, out, threads, epi);
        Ok(())
    }
}

/// A quantized FC layer: a [`QuantizedOperator`] plus an f32 bias fused
/// into the dequantizing IFFT epilogue.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    op: QuantizedOperator,
    bias: Vec<f32>,
}

impl QuantizedLinear {
    /// Wraps an operator and its bias ([`crate::CirculantLinear::quantize`]
    /// is the calibrated entry point).
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] if the bias length is not
    /// the operator's output dimension.
    pub fn new(op: QuantizedOperator, bias: Vec<f32>) -> Result<Self, CircError> {
        if bias.len() != op.rows() {
            return Err(CircError::DimensionMismatch {
                expected: op.rows(),
                got: bias.len(),
            });
        }
        Ok(Self { op, bias })
    }

    /// The underlying quantized operator.
    pub fn operator(&self) -> &QuantizedOperator {
        &self.op
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Read-only batched inference into a `[batch, out_dim]` slab.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong slab sizes.
    pub fn infer_batch_into(
        &self,
        input: &[f32],
        batch: usize,
        ws: &mut QuantWorkspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        let epi = Epilogue {
            bias: Some(&self.bias),
            act: Activation::Identity,
        };
        self.op.apply(input, batch, ws, out, threads, &epi)
    }
}

/// A quantized CONV layer: `r²` i16 code planes sharing one per-block-row
/// scale (every kernel offset accumulates into the same output row, so
/// the dequant multiply must be common), riding the f32 conv's pipeline —
/// the same padded-grid run-MAC — on the i16 datapath.
#[derive(Debug, Clone)]
pub struct QuantizedConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    q: usize,
    /// One code-word plane per kernel offset, offset-major.
    wq: Vec<Vec<i32>>,
    x_step: f32,
    dq: Vec<f32>,
    cfg: QuantConfig,
    bias: Vec<f32>,
    plan: BatchFftPlan<f32>,
}

impl QuantizedConv2d {
    /// Builds from the conv layer's spectra-fresh engines
    /// ([`crate::CirculantConv2d::quantize`] is the public entry point).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_engines(
        engines: &[BlockCirculantMatrix],
        bias: &[f32],
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        cfg: QuantConfig,
    ) -> Result<Self, CircError> {
        let e0 = &engines[0];
        let (p, q, k, bins) = (e0.block_rows(), e0.block_cols(), e0.block_size(), e0.bins());
        // Every kernel offset's q block products land in one accumulator.
        cfg.check_accumulation(q * engines.len())?;
        let planes: Vec<(&[f32], &[f32])> = engines.iter().map(|e| e.wplanes()).collect();
        let (w_step, wq) = quantize_weight_planes(&planes, p, q, bins, k, cfg.weight_format);
        let x_step = cfg.x_step(k);
        let dq = w_step.iter().map(|&s| s * x_step).collect();
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            q,
            wq,
            x_step,
            dq,
            cfg,
            bias: bias.to_vec(),
            plan: BatchFftPlan::new(k)?,
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

    /// The quantization configuration.
    pub fn config(&self) -> &QuantConfig {
        &self.cfg
    }

    /// Conservative max-abs-error bound versus the f32 conv (the conv's
    /// accumulated term count is `q·r²`).
    pub fn error_bound(&self) -> f32 {
        self.cfg
            .error_bound(self.q * self.kernel * self.kernel, &self.dq)
    }

    /// Read-only batched inference: `[B, C, H, W]` tensor to a
    /// `[B, P, OH, OW]` slab, mirroring
    /// [`crate::CirculantConv2d::infer_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong input rank,
    /// channel count or output length.
    pub fn infer_batch_into(
        &self,
        input: &Tensor,
        ws: &mut QuantWorkspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        let (g, batch) = crate::conv::infer_geometry(
            input,
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
            out.len(),
        )?;
        let dp = self
            .cfg
            .datapath(&self.wq, self.q, &self.plan, self.x_step, &self.dq);
        crate::conv::forward_pass(
            &dp,
            &mut ws.arena,
            &g,
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

/// A quantized recurrent cell: both weight operators resident as i16
/// codes, each side accumulating into its own i32 set (the input-side and
/// hidden-side MACs carry different scales), combined in the dequantizing
/// fill of the f32 cell's two-sided step, where bias and `tanh` also fuse.
#[derive(Debug, Clone)]
pub struct QuantizedRnnCell {
    hidden: usize,
    in_dim: usize,
    q_ih: usize,
    q_hh: usize,
    wq_ih: Vec<i32>,
    wq_hh: Vec<i32>,
    dq_ih: Vec<f32>,
    dq_hh: Vec<f32>,
    x_step: f32,
    /// Hidden-state spectrum scale: `tanh` bounds the state by 1, so the
    /// range is exact, not declared.
    h_step: f32,
    cfg: QuantConfig,
    bias: Vec<f32>,
    plan: BatchFftPlan<f32>,
}

impl QuantizedRnnCell {
    /// Builds from a cell's operators and bias
    /// ([`crate::CirculantRnnCell::quantize`] is the public entry point).
    pub(crate) fn from_parts(
        w_ih: &BlockCirculantMatrix,
        w_hh: &BlockCirculantMatrix,
        bias: &[f32],
        cfg: QuantConfig,
    ) -> Result<Self, CircError> {
        let (p, k, bins) = (w_hh.block_rows(), w_hh.block_size(), w_hh.bins());
        let (q_ih, q_hh) = (w_ih.block_cols(), w_hh.block_cols());
        // The two MACs accumulate separately, so each checks alone.
        cfg.check_accumulation(q_ih)?;
        cfg.check_accumulation(q_hh)?;
        let (w_step_ih, mut c_ih) =
            quantize_weight_planes(&[w_ih.wplanes()], p, q_ih, bins, k, cfg.weight_format);
        let (w_step_hh, mut c_hh) =
            quantize_weight_planes(&[w_hh.wplanes()], p, q_hh, bins, k, cfg.weight_format);
        let x_step = cfg.x_step(k);
        let h_step = k as f32 / cfg.input_format.max_code() as f32;
        Ok(Self {
            hidden: w_hh.rows(),
            in_dim: w_ih.cols(),
            q_ih,
            q_hh,
            wq_ih: c_ih.pop().expect("one plane in, one plane out"),
            wq_hh: c_hh.pop().expect("one plane in, one plane out"),
            dq_ih: w_step_ih.iter().map(|&s| s * x_step).collect(),
            dq_hh: w_step_hh.iter().map(|&s| s * h_step).collect(),
            x_step,
            h_step,
            cfg,
            bias: bias.to_vec(),
            plan: BatchFftPlan::new(k)?,
        })
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The quantization configuration.
    pub fn config(&self) -> &QuantConfig {
        &self.cfg
    }

    /// Conservative per-step pre-activation max-abs-error bound versus the
    /// f32 cell (the two MACs' bounds add; `tanh` is 1-Lipschitz so the
    /// bound survives the activation).
    pub fn error_bound(&self) -> f32 {
        self.cfg.error_bound(self.q_ih, &self.dq_ih) + self.cfg.error_bound(self.q_hh, &self.dq_hh)
    }

    /// One quantized recurrent step: `next = tanh(W_ih·x + W_hh·h + b)`
    /// over row-major `[batch, dim]` slabs.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong slab sizes.
    pub fn step_batch_into(
        &self,
        x: &[f32],
        h: &[f32],
        batch: usize,
        ws: &mut QuantWorkspace,
        next: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        let (hidden, in_dim) = (self.hidden, self.in_dim);
        let slabs = [(x.len(), in_dim), (h.len(), hidden), (next.len(), hidden)];
        engine::check_slabs(batch, &slabs)?;
        let (cfg, plan) = (&self.cfg, &self.plan);
        let ih = cfg.datapath(
            core::slice::from_ref(&self.wq_ih),
            self.q_ih,
            plan,
            self.x_step,
            &self.dq_ih,
        );
        let hh = cfg.datapath(
            core::slice::from_ref(&self.wq_hh),
            self.q_hh,
            plan,
            self.h_step,
            &self.dq_hh,
        );
        let epi = Epilogue {
            bias: Some(&self.bias),
            act: Activation::Tanh,
        };
        let sides = [(&ih, x), (&hh, h)];
        slab_apply(&mut ws.arena, 0, sides, batch, next, threads, &epi);
        Ok(())
    }

    /// Runs a sequence from a zero state, returning the final hidden
    /// state — the quantized mirror of [`crate::CirculantRnnCell::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong input sizes.
    pub fn run(&self, inputs: &[Vec<f32>]) -> Result<Vec<f32>, CircError> {
        let mut ws = QuantWorkspace::new();
        let mut h = vec![0.0f32; self.hidden];
        let mut next = vec![0.0f32; self.hidden];
        for x in inputs {
            self.step_batch_into(x, &h, 1, &mut ws, &mut next, 1)?;
            core::mem::swap(&mut h, &mut next);
        }
        Ok(h)
    }
}
